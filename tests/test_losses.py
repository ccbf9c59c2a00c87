import gc
import math
import weakref

import numpy as np
import pytest

from stablegfn import losses
from stablegfn.envs import DagEnv, EnumerationCapError, Hypergrid, RegularTree, one_more_mode_tree
from stablegfn.losses import batch_loss, reference_flow_log_deltas, terminal_reach_counts
from stablegfn.oracle import balanced_tabular_model, enumerate_trajectories
from stablegfn.policy import PolicyModel, rollout, score_paths
from stablegfn.trainer import rng_for

from loss_reference import (
    augmented_log_ratio,
    augmented_loss,
    children,
    db_log_ratio,
    db_loss,
    fm_log_ratio,
    fm_loss,
    parents,
    reduction_factor_gamma,
    reference_flow_delta,
    reference_flow_ratio,
    subtb_log_ratio,
    subtb_loss,
    tb_log_ratio,
    tb_loss,
    wdb_weights,
)
from numeric_reference import Trajectory, records
from random_dag import kind_id, random_dags


class ChainEnv(DagEnv):
    """s0 -> s1 -> terminal -> sink; a single trajectory."""

    def __init__(self):
        src, zeros = np.arange(3), np.zeros(3, dtype=np.int64)
        super().__init__(3, src, src + 1, zeros, zeros, np.array([2]), np.ones(1), [0, 1, 2, -1],
                         feature_dim=4)


def forward_trajs(model, env, rng, count):
    paths = rollout(model, env, rng, [env.initial_state] * count)
    score_paths(model, env, paths)
    return paths


def make_traj(states, log_pf, log_pb, reward):
    return Trajectory(list(states), log_pf, log_pb, reward)


# -- trajectory balance ---------------------------------------------------------


def test_tb_loss_balanced_is_zero():
    t = make_traj([0, 1, 2], math.log(0.25), math.log(0.5), 1.0)
    assert tb_loss(t, math.log(2.0)) == pytest.approx(0.0, abs=1e-15)


def test_tb_loss_log_two_squared():
    t = make_traj([0, 1, 2], math.log(0.5), math.log(0.25), 1.0)
    assert tb_loss(t, 0.0) == pytest.approx(math.log(2.0) ** 2)


def test_tb_loss_rejects_zero_reward():
    t = make_traj([0, 1, 2], 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        tb_loss(t, 0.0)


def test_batch_loss_has_one_name_for_the_trajectory_objective():
    env = RegularTree(2, 2)
    model = balanced_tabular_model(env)
    paths = enumerate_trajectories(model, env)
    assert batch_loss(model, env, paths, "tb", deltas=np.zeros(len(paths))).kind == "augmented"
    for objective, deltas in (("augmented", None), ("augmented", np.zeros(len(paths)))):
        with pytest.raises(ValueError):
            batch_loss(model, env, paths, objective, deltas=deltas)


def test_promoted_leaf_losses_match_contrast():
    eps = 0.01
    env_prev, env_new = one_more_mode_tree(3, 2, eps)
    model = balanced_tabular_model(env_prev)
    promoted = int(env_prev.terminating_states[-1])
    expected = math.log(eps) ** 2
    for t in records(enumerate_trajectories(model, env_new)):
        value = tb_loss(t, model.logz)
        if t.terminating_state == promoted:
            assert value == pytest.approx(expected, abs=1e-8)
        else:
            assert value < 1e-10


# -- detailed balance -------------------------------------------------------------


def test_db_loss_zero_on_balanced_tree():
    env = RegularTree(2, 1)
    model = balanced_tabular_model(env)
    for e in range(env.num_edges):
        s, d = int(env.edge_src[e]), int(env.edge_dst[e])
        if d != env.sink:
            assert db_loss((s, d), model, env) < 1e-20


def test_db_loss_hand_constructed_ratio_one():
    # state flow 2 at the root, half the flow on the checked edge, unit reward
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular", learn_backward=False, flow_head=True)
    model.flow_net.table[0, 0] = math.log(2.0)
    assert db_loss((0, int(env.terminating_states[0])), model, env) == pytest.approx(0.0, abs=1e-15)


def test_db_loss_promoted_edge():
    eps = 0.1
    env_prev, env_new = one_more_mode_tree(3, 2, eps)
    model = balanced_tabular_model(env_prev)
    promoted = int(env_prev.terminating_states[-1])
    parent = int(parents(env_new, promoted)[0])
    assert db_loss((parent, promoted), model, env_new) == pytest.approx(
        math.log(eps) ** 2, abs=1e-8
    )


def test_db_loss_rejects_sink_edge():
    env = RegularTree(2, 1)
    model = balanced_tabular_model(env)
    with pytest.raises(ValueError):
        db_loss((int(env.terminating_states[0]), env.sink), model, env)


# -- flow matching ------------------------------------------------------------------


def test_fm_loss_zero_on_balanced():
    env = RegularTree(2, 2)
    model = balanced_tabular_model(env)
    for s in range(env.num_states):
        if s not in (env.initial_state, env.sink):
            assert fm_loss(s, model, env) < 1e-20


def test_fm_loss_hand_constructed():
    # chain: in-flow 1 at s1, no reward there, out-flow e -> loss (ln(1/e))^2 = 1
    env = ChainEnv()
    model = PolicyModel.build(env, "tabular", learn_backward=False, flow_head=True)
    model.flow_net.table[0, 0] = 0.0   # F(s0) = 1, P_F(s0->s1) = 1
    model.flow_net.table[1, 0] = 1.0   # F(s1) = e, single outgoing edge
    assert fm_loss(1, model, env) == pytest.approx(1.0, abs=1e-12)


def test_fm_loss_requires_intermediate_state():
    env = ChainEnv()
    model = PolicyModel.build(env, "tabular", flow_head=True)
    with pytest.raises(ValueError):
        fm_loss(0, model, env)
    with pytest.raises(ValueError):
        fm_loss(env.sink, model, env)


# -- subtrajectory balance -------------------------------------------------------------


def _random_flow_model(env, seed, kind="tabular"):
    rng = np.random.default_rng(seed)
    model = PolicyModel.build(env, kind, hidden=(8, 8), learn_backward=True, flow_head=True,
                              rng=rng)
    if kind == "tabular":
        model.forward_net.table += rng.normal(0, 0.7, model.forward_net.table.shape)
        model.backward_net.table += rng.normal(0, 0.7, model.backward_net.table.shape)
        model.flow_net.table += rng.normal(0, 0.7, model.flow_net.table.shape)
    model.set_logz(float(rng.normal()))
    return model


def test_subtb_full_span_equals_tb_when_root_flow_is_logz():
    env = RegularTree(2, 2)
    model = _random_flow_model(env, 0)
    model.flow_net.table[0, 0] = model.logz
    (t,) = records(forward_trajs(model, env, np.random.default_rng(1), 1))
    n = len(t.states) - 2
    assert subtb_loss(t, 0, n, model, env) == pytest.approx(
        tb_loss(t, model.logz), abs=1e-12
    )


def test_subtb_single_edge_equals_db():
    env = RegularTree(2, 2)
    model = _random_flow_model(env, 2)
    (t,) = records(forward_trajs(model, env, np.random.default_rng(3), 1))
    assert subtb_loss(t, 0, 1, model, env) == pytest.approx(
        db_loss((t.states[0], t.states[1]), model, env), abs=1e-12
    )


def test_subtb_rejects_degenerate_span():
    env = RegularTree(2, 2)
    model = _random_flow_model(env, 2)
    (t,) = records(forward_trajs(model, env, np.random.default_rng(3), 1))
    with pytest.raises(ValueError):
        subtb_loss(t, 1, 1, model, env)


def test_subtb_batch_matches_brute_force():
    for env in (Hypergrid(2, 3, r0=0.1), *random_dags()):
        model = _random_flow_model(env, 4)
        rng = np.random.default_rng(5)
        trajs = forward_trajs(model, env, rng, 6)
        lam = 0.9
        report = batch_loss(model, env, trajs, "subtb", subtb_lambda=lam)
        for i, t in enumerate(records(trajs)):
            n = len(t.states) - 2
            vals, weights = [], []
            for t1 in range(n):
                for t2 in range(t1 + 1, n + 1):
                    vals.append(subtb_loss(t, t1, t2, model, env))
                    weights.append(lam ** (t2 - t1))
            w = np.array(weights) / np.sum(weights)
            assert report.per_item[i] == pytest.approx(float(w @ np.array(vals)), abs=1e-10)


# -- weighted detailed balance ----------------------------------------------------------


def test_wdb_weights_single_path():
    env = ChainEnv()
    t = make_traj([0, 1, 2, 3], 0.0, 0.0, 1.0)
    w = wdb_weights(t, env)
    assert np.allclose(w, [1 / 3, 1 / 3, 1 / 3])


def test_wdb_weights_tree_example():
    env = RegularTree(2, 2)
    model = balanced_tabular_model(env)
    (t,) = records(forward_trajs(model, env, np.random.default_rng(0), 1))
    w = wdb_weights(t, env)
    # root edge reaches 2 leaves, the others 1: raw (1/2, 1, 1) -> (0.2, 0.4, 0.4)
    assert np.allclose(w, [0.2, 0.4, 0.4])


def test_wdb_weights_depend_only_on_depth():
    env = RegularTree(3, 3)
    model = balanced_tabular_model(env)
    rng = np.random.default_rng(1)
    rows = [wdb_weights(t, env) for t in records(forward_trajs(model, env, rng, 10))]
    for row in rows[1:]:
        assert np.allclose(row, rows[0])


def test_terminal_reach_counts_tree():
    env = RegularTree(2, 2)
    counts = terminal_reach_counts(env)
    assert counts[env.initial_state] == 4
    for leaf in env.terminating_states:
        assert counts[leaf] == 1


@pytest.mark.parametrize("env", [RegularTree(3, 2), Hypergrid(2, 4, r0=0.1), *random_dags(range(6))],
                         ids=kind_id)
def test_terminal_reach_counts_match_dfs(env):
    def reachable(s):  # terminating states reachable from s, by depth-first search
        seen, stack, found = set(), [s], set()
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                if env.terminating_mask[u]:
                    found.add(u)
                stack.extend(int(c) for c in children(env, u) if c != env.sink)
        return found

    dfs = [len(reachable(s)) for s in range(env.num_states)]
    assert list(terminal_reach_counts(env)) == dfs
    assert dfs[env.initial_state] == len(env.terminating_states)


def test_reach_cap_refuses_reweighting(monkeypatch):
    env = RegularTree(3, 2)  # 14 states, 9 terminating: 126 cells
    monkeypatch.setattr(losses, "WDB_REACH_CELL_CAP", 125)
    with pytest.raises(EnumerationCapError, match="126 cells, above WDB_REACH_CELL_CAP = 125"):
        terminal_reach_counts(env)
    monkeypatch.setattr(losses, "WDB_REACH_CELL_CAP", 126)
    assert terminal_reach_counts(env)[env.initial_state] == 9


def test_terminal_reach_counts_cache_dies_with_env():
    env = RegularTree(2, 2)
    assert terminal_reach_counts(env) is terminal_reach_counts(env)  # cached
    ref = weakref.ref(env)
    del env
    gc.collect()
    assert ref() is None  # the cache holds no reference to the environment


# -- reference flow ------------------------------------------------------------------------


def test_active_delta_frac_counts_positive_deltas():
    deltas = np.array([0.0, 0.5, np.inf, 0.0])
    report = losses.LossBatchReport("augmented", np.ones(4), deltas=deltas)
    assert report.active_delta_frac == 0.5
    assert losses.LossBatchReport("tb", np.ones(2)).active_delta_frac == 0.0


def test_reference_flow_inactive_inside_band():
    assert reference_flow_delta(0.3, 0.0, 0.5) == 0.0
    assert reference_flow_delta(0.5, 0.0, 0.5) == 0.0  # boundary: no flow needed


def test_reference_flow_model_heavy_case():
    d = reference_flow_delta(math.log(10.0), 0.0, math.log(2.0))
    assert d == pytest.approx(8.0, rel=1e-12)
    # augmented ratio lands exactly on the cap
    assert augmented_log_ratio(math.log(10.0), 0.0, d) == pytest.approx(math.log(2.0))


def test_reference_flow_target_heavy_case():
    d = reference_flow_delta(0.0, math.log(10.0), math.log(2.0))
    assert d == pytest.approx(8.0, rel=1e-12)
    assert augmented_log_ratio(0.0, math.log(10.0), d) == pytest.approx(-math.log(2.0))


def test_reference_flow_ratio_matches_delta():
    lm, lt, c = 3.0, 0.5, 0.7
    assert reference_flow_ratio(lm, lt, c) == pytest.approx(
        reference_flow_delta(lm, lt, c) / math.exp(lt), rel=1e-12
    )


def test_reference_flow_extreme_flows_no_overflow():
    d = reference_flow_ratio(700.0, 0.0, 1.0)
    assert math.isinf(d) or d > 0  # finite log-domain path, no exception


def _log_delta_reference(lm, lt, c):
    """The scalar closed form of the minimal reference flow, in log space."""
    r = lm - lt
    if abs(r) <= c:
        return -math.inf
    if c == 0.0:
        return math.inf
    log_em1 = math.log(math.expm1(c))
    if r > c:
        return lm + math.log1p(-math.exp(c - r)) - log_em1
    return lt + math.log1p(-math.exp(c + r)) - log_em1


def test_vectorized_log_deltas_match_scalar_formula():
    # the draws of the verify suite "cap": flows in [-20, 20], every 20th cap 0
    rng = rng_for(20_240, "cap")
    lm, lt, caps = np.empty(10_000), np.empty(10_000), []
    for k in range(10_000):
        lm[k], lt[k] = rng.uniform(-20, 20), rng.uniform(-20, 20)
        caps.append(0.0 if k % 20 == 0 else float(rng.uniform(0.0, 5.0)))
    # extremes: flows 700 nats apart in log space, and exactly on the cap
    lm = np.concatenate([lm, [700.0, -700.0, 0.0, 0.0, 700.0, 1.5]])
    lt = np.concatenate([lt, [0.0, 0.0, 700.0, -700.0, -700.0, 0.0]])
    for c in caps[:12] + [1.0, 1.5]:
        got = reference_flow_log_deltas(lm, lt, c)
        want = np.array([_log_delta_reference(a, b, c) for a, b in zip(lm, lt)])
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
        assert not np.isnan(got).any()
        assert np.array_equal(np.isinf(got), np.isinf(want))
    at_zero = reference_flow_log_deltas(np.array([0.0, 0.5, -0.5]), np.zeros(3), 0.0)
    assert at_zero.tolist() == [-math.inf, math.inf, math.inf]


def test_augmented_loss_examples():
    t = make_traj([0, 1, 2], math.log(0.5), math.log(0.25), 1.0)
    assert augmented_loss(t, 0.0, 0.0) == pytest.approx(tb_loss(t, 0.0))
    big = augmented_loss(t, 0.0, 1e12)
    assert big == pytest.approx(0.0, abs=1e-10)
    assert augmented_loss(t, 0.0, math.inf) == 0.0


def test_augmented_loss_hits_cap_exactly():
    t = make_traj([0, 1, 2], math.log(10.0), 0.0, 1.0)
    c = math.log(2.0)
    d = reference_flow_delta(0.0 + t.log_pf, math.log(t.reward) + t.log_pb, c)
    assert augmented_loss(t, 0.0, d) == pytest.approx(c * c, abs=1e-12)


def test_reduction_factor_examples():
    g = reduction_factor_gamma(math.log(10.0), 0.0, 8.0)
    assert g == pytest.approx(math.log(10.0) / math.log(2.0), rel=1e-12)
    sym = reduction_factor_gamma(0.0, math.log(10.0), 8.0)
    assert sym == pytest.approx(g, rel=1e-12)
    near_one = reduction_factor_gamma(math.log(10.0), 0.0, 1e-9)
    assert near_one == pytest.approx(1.0, abs=1e-6)
    assert near_one > 1.0


def test_reduction_factor_undefined_at_zero_loss():
    with pytest.raises(ValueError):
        reduction_factor_gamma(1.0, 1.0, 0.5)


# -- batched engine agrees with the per-object definitions ------------------------------


def test_batch_tb_matches_cached_values():
    env = Hypergrid(2, 4, r0=0.1)
    model = _random_flow_model(env, 6)
    rng = np.random.default_rng(7)
    trajs = forward_trajs(model, env, rng, 8)
    report = batch_loss(model, env, trajs, "tb")
    for t, item in zip(records(trajs), report.per_item):
        assert item == pytest.approx(tb_loss(t, model.logz), abs=1e-12)


def test_batch_db_matches_per_edge_mean():
    for env in (Hypergrid(2, 3, r0=0.1), *random_dags()):
        model = _random_flow_model(env, 8)
        rng = np.random.default_rng(9)
        trajs = forward_trajs(model, env, rng, 5)
        report = batch_loss(model, env, trajs, "db")
        for t, item in zip(records(trajs), report.per_item):
            edges = [(a, b) for a, b in zip(t.states[:-1], t.states[1:]) if b != env.sink]
            vals = [db_loss(e, model, env) for e in edges]
            assert item == pytest.approx(float(np.mean(vals)), abs=1e-10)


def test_batch_fm_matches_per_state_mean():
    for env in (Hypergrid(2, 3, r0=0.1), *random_dags()):
        model = _random_flow_model(env, 10)
        rng = np.random.default_rng(11)
        trajs = forward_trajs(model, env, rng, 5)
        report = batch_loss(model, env, trajs, "fm")
        for t, item in zip(records(trajs), report.per_item):
            vals = [fm_loss(s, model, env) for s in t.states[1:-1]]
            assert item == pytest.approx(float(np.mean(vals)), abs=1e-10)


def test_fm_backprop_makes_no_backward_net_call(monkeypatch):
    env = Hypergrid(2, 4)
    model = PolicyModel.build(env, "mlp", hidden=(8, 8), flow_head=True,
                              rng=np.random.default_rng(3))
    trajs = rollout(model, env, np.random.default_rng(4), [env.initial_state] * 8)
    calls = []
    forward = model.backward_net.forward
    monkeypatch.setattr(model.backward_net, "forward",
                        lambda *a, **kw: calls.append(1) or forward(*a, **kw))
    model.params.zero_grad()
    batch_loss(model, env, trajs, "fm", backprop=True)
    assert not calls
    assert np.any(model.params.grads)


def test_fm_finite_at_tiny_state_flows():
    env = RegularTree(2, 2)
    model = _random_flow_model(env, 14)
    model.flow_net.table[...] = -800.0  # exp() of every state flow underflows to 0
    trajs = forward_trajs(model, env, np.random.default_rng(15), 4)
    model.params.zero_grad()
    report = batch_loss(model, env, trajs, "fm", backprop=True)
    assert np.all(np.isfinite(report.per_item))
    assert np.all(np.isfinite(model.params.grads))
    for t, item in zip(records(trajs), report.per_item):
        vals = [fm_loss(s, model, env) for s in t.states[1:-1]]
        assert np.all(np.isfinite(vals))
        assert item == pytest.approx(float(np.mean(vals)), rel=1e-12)


def test_batch_wdb_matches_weighted_edges():
    for env in (RegularTree(2, 3), *random_dags()):
        model = _random_flow_model(env, 12)
        rng = np.random.default_rng(13)
        trajs = forward_trajs(model, env, rng, 4)
        report = batch_loss(model, env, trajs, "wdb")
        for t, item in zip(records(trajs), report.per_item):
            w = wdb_weights(t, env)
            total = 0.0
            for k, (a, b) in enumerate(zip(t.states[:-1], t.states[1:])):
                if b != env.sink:
                    total += w[k] * db_loss((a, b), model, env)
            assert item == pytest.approx(total, abs=1e-10)


def _reference_log_ratios(objective, model, env, paths):
    """The reference log-ratio of every term of ``objective``, path by path."""
    out = []
    for t in records(paths):
        s, n = t.states, len(t.states) - 2
        if objective == "tb":
            out.append(tb_log_ratio(t, model.logz))
        elif objective in ("db", "wdb"):
            out += [db_log_ratio((a, b), model, env) for a, b in zip(s[:-1], s[1:]) if b != env.sink]
        elif objective == "fm":
            out += [fm_log_ratio(x, model, env) for x in s[1:-1]]
        else:
            out += [subtb_log_ratio(t, t1, t2, model, env)
                    for t1 in range(n) for t2 in range(t1 + 1, n + 1)]
    return out


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
@pytest.mark.parametrize("env", [RegularTree(3, 2), Hypergrid(2, 3, r0=0.1), *random_dags()],
                         ids=kind_id)
def test_log_ratios_match_reference_terms(env, kind):
    model = _random_flow_model(env, 16, kind)
    paths = forward_trajs(model, env, np.random.default_rng(17), 6)
    for objective in ("tb", "db", "wdb", "fm", "subtb"):
        got = batch_loss(model, env, paths, objective).log_ratios
        want = _reference_log_ratios(objective, model, env, paths)
        assert len(got) == len(want), objective
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-10, err_msg=objective)


def test_max_to_rest_ratio():
    from stablegfn.losses import LossBatchReport

    r = LossBatchReport("tb", np.array([1.0, 3.0, 2.0]))
    assert r.max_to_rest == pytest.approx(1.0)
    degenerate = LossBatchReport("tb", np.array([5.0, 0.0]))
    assert math.isinf(degenerate.max_to_rest)


def test_balanced_model_zero_under_all_objectives():
    for env in (RegularTree(2, 2, leaf_rewards=[1.0, 2.0, 0.5, 0.25]), *random_dags()):
        model = balanced_tabular_model(env)
        rng = np.random.default_rng(0)
        trajs = forward_trajs(model, env, rng, 6)
        for objective in ("tb", "db", "fm", "subtb", "wdb"):
            report = batch_loss(model, env, trajs, objective)
            assert report.max_item < 1e-10, (type(env).__name__, objective)


def test_reference_flow_deltas_refuse_negative_threshold():
    for threshold in (-0.1, math.nan, -math.inf):
        with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
            reference_flow_log_deltas(np.zeros(3), np.zeros(3), threshold)
