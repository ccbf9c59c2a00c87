import math
import tracemalloc

import numpy as np
import pytest

from stablegfn import envs, policy
from stablegfn.approximator import Mlp, Tabular
from stablegfn.envs import EnumerationCapError, Hypergrid, RegularTree
from stablegfn.policy import (
    LOGIT_CLAMP,
    EdgeBatch,
    FlowBatch,
    PathBatch,
    PolicyModel,
    _clamp,
    _draw_rows,
    _log_softmax,
    _masked_rows,
    exact_terminal_distribution,
    proportional_draw,
    read_trajectory_log,
    rollout,
    sample_backward_batch,
    sample_forward_batch,
    score_paths,
    write_trajectory_log,
)
from stablegfn.trainer import rng_for

from loss_reference import backward_row, children, forward_row, log_pb_edge, log_pf_edge
from numeric_reference import path_lists, records
from random_dag import RandomDag, random_dags


def random_model(env, kind="tabular", seed=0, noise=1.0, learn_backward=True):
    rng = np.random.default_rng(seed)
    model = PolicyModel.build(env, kind, hidden=(8, 8), learn_backward=learn_backward, rng=rng)
    for net in model._nets:
        if isinstance(net, Tabular):
            net.table[...] = rng.normal(0, noise, net.table.shape)
    model.set_logz(float(rng.normal()))
    return model


def walk(model, env, rng, starts, forward=True, epsilon=0.0):
    """:func:`rollout` paths with their log-probs."""
    paths = rollout(model, env, rng, starts, forward, epsilon)
    score_paths(model, env, paths)
    return paths


def reference_walk(model, env, rng, start, forward=True, epsilon=0.0):
    """One path drawn state by state, evaluating the policy row at every step."""
    row_at = forward_row if forward else backward_row
    end = env.sink if forward else env.initial_state
    s, seq = int(start), [int(start)]
    while s != end:
        _, nxt, lp = row_at(model, s, env)
        if len(nxt) == 1:
            i = 0
        elif epsilon > 0.0 and rng.random() < epsilon:
            i = int(rng.integers(len(nxt)))
        else:
            i = int(proportional_draw(rng, np.exp(lp)))
        s = int(nxt[i])
        seq.append(s)
    return seq if forward else seq[::-1] + [env.sink]


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_forward_normalization(kind):
    env = Hypergrid(2, 4, r0=0.1)
    model = random_model(env, kind)
    for s in range(env.num_states):
        if s == env.sink:
            continue
        _, _, lp = forward_row(model, s, env)
        assert abs(np.exp(lp).sum() - 1.0) < 1e-12
        _, parents, lp = backward_row(model, s, env)
        if len(parents):
            assert abs(np.exp(lp).sum() - 1.0) < 1e-12


def test_uniform_model_tree_leaf_probs():
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular")   # zero logits = uniform
    rng = np.random.default_rng(0)
    paths = walk(model, env, rng, [env.initial_state])
    assert len(paths) == 1
    assert paths.log_pf[0] == pytest.approx(math.log(0.5), abs=1e-12)
    assert paths.log_pb[0] == 0.0  # unique parents


def test_epsilon_one_samples_uniformly():
    env = RegularTree(3, 1)
    model = PolicyModel.build(env, "tabular")
    # bias the policy hard toward leaf 0; epsilon-mixing must still explore
    model.forward_net.table[0] = [49.0, 0.0, 0.0]
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    n = 30_000
    np.add.at(counts, rollout(model, env, rng, [env.initial_state] * n,
                              epsilon=0.999999999).terminals - 1, 1)
    assert np.all(np.abs(counts / n - 1 / 3) < 0.01)


def test_deterministic_policy_always_same_trajectory():
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[...] = 0.0
    model.forward_net.table[0, 1] = 50.0
    model.forward_net.table[2, 0] = 50.0
    rng = np.random.default_rng(0)
    first, *rest = path_lists(rollout(model, env, rng, [env.initial_state] * 21))
    for path in rest:
        assert path == first


def test_exploration_not_in_recorded_log_probs():
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[0] = [2.0, 0.0]
    rng = np.random.default_rng(0)
    expected = {1: None, 2: None}
    _, _, lp = forward_row(model, 0, env)
    expected[1], expected[2] = float(lp[0]), float(lp[1])
    paths = walk(model, env, rng, [env.initial_state] * 50, epsilon=0.9)
    assert paths.log_pf.tolist() == [expected[x] for x in paths.terminals.tolist()]


def test_backward_sampling_tree_is_deterministic():
    env = RegularTree(3, 2)
    model = random_model(env)
    rng = np.random.default_rng(0)
    x = int(env.leaves[4])
    (t,) = records(walk(model, env, rng, [x], forward=False))
    assert t.states[0] == env.initial_state
    assert t.states[-1] == env.sink
    assert t.terminating_state == x
    assert t.log_pb == 0.0


def test_backward_sampling_grid_lattice_paths():
    env = Hypergrid(2, 3, r0=0.1)
    model = PolicyModel.build(env, "tabular", learn_backward=False)  # uniform backward
    rng = np.random.default_rng(0)
    x = env.n_grid + 1 * 3 + 1  # terminal copy of (1, 1)
    paths = walk(model, env, rng, [x] * 64, forward=False)
    np.testing.assert_allclose(paths.log_pb, math.log(0.5), rtol=0, atol=1e-12)
    assert len(set(map(tuple, path_lists(paths)))) == 2  # the two monotone lattice paths


def test_backward_sampling_rejects_non_terminal():
    env = RegularTree(2, 2)
    model = random_model(env)
    with pytest.raises(ValueError):
        rollout(model, env, np.random.default_rng(0), [0], forward=False)


def test_single_edge_backward_trajectory():
    env = RegularTree(2, 1)
    model = random_model(env)
    paths = walk(model, env, np.random.default_rng(0), [env.leaves[0]], forward=False)
    assert paths.lengths.tolist() == [3]  # s0 -> leaf -> sink


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_cached_log_probs_recompute_exactly(kind):
    env = Hypergrid(2, 4, r0=0.1)
    model = random_model(env, kind)
    trajs = walk(model, env, np.random.default_rng(5), [env.initial_state] * 10, epsilon=0.1)
    lpf, lpb = EdgeBatch.of_paths(model, env, trajs).per_trajectory(len(trajs))
    assert trajs.log_pf.tolist() == lpf.tolist()
    assert trajs.log_pb.tolist() == lpb.tolist()
    # and they agree with the per-edge definitions
    for t in records(trajs):
        edges = list(zip(t.states[:-1], t.states[1:]))
        assert t.log_pf == pytest.approx(sum(log_pf_edge(model, a, b, env) for a, b in edges),
                                         abs=1e-12)
        assert t.log_pb == pytest.approx(sum(log_pb_edge(model, a, b, env) for a, b in edges),
                                         abs=1e-12)


@pytest.mark.parametrize("env", [RegularTree(3, 3), Hypergrid(2, 4, r0=0.1), *random_dags()],
                         ids=["tree", "hypergrid", "dag0", "dag1", "dag2"])
@pytest.mark.parametrize("kind", ["tabular", "mlp", "uniform_backward"])
def test_rollout_keeps_the_per_state_stream(env, kind):
    if kind == "uniform_backward":
        model = random_model(env, "tabular", seed=4, learn_backward=False)
    else:
        model = random_model(env, kind, seed=4)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    starts = [env.initial_state] * 20
    xs = np.random.default_rng(8).choice(env.terminating_states, size=20)
    for eps in (0.0, 0.1, 0.999999999):
        assert path_lists(rollout(model, env, rng, starts, epsilon=eps)) == [
            reference_walk(model, env, ref, s, epsilon=eps) for s in starts
        ]
        assert path_lists(rollout(model, env, rng, xs, forward=False, epsilon=eps)) == [
            reference_walk(model, env, ref, x, forward=False, epsilon=eps) for x in xs
        ]
        # both consumed the same draws, down to the half-used 32-bit word
        # that rng.integers leaves buffered
        assert rng.bit_generator.state == ref.bit_generator.state


def test_rollout_draw_follows_the_proportional_rule(monkeypatch):
    top = 1.0 - 2.0**-53
    tiny = 5e-324  # subnormal weights, whose total the top uniform rounds to
    cases = [
        ([0.25, 0.25, 0.0, 0.5], [0.0, 0.25, 0.5, 0.75, top], [0, 1, 3, 3, 3]),  # exact sums
        ([0.0, 1.0, 1.0, 0.0], [0.0, 0.5, top], [1, 2, 2]),  # zero slots at both ends
        ([0.0, 0.0, tiny, tiny], [0.0, top], [2, 3]),  # the top-of-range clamp
    ]
    for weights, uniforms, expected in cases:
        with np.errstate(divide="ignore"):
            lw = np.log(weights)
        env = RegularTree(4, 1)  # the source's four slots lead to states 1..4
        model = PolicyModel.build(env, "tabular")
        # the first call computes the source's row alone, the second reads the
        # row of the call's table, where the first call listed the source
        monkeypatch.setattr(policy, "_row", lambda net, s, slots, env, lw=lw: lw)
        monkeypatch.setattr(policy, "_log_policy", lambda net, mask, states, env, lw=lw:
                            np.tile(lw, (len(states), 1)))
        for listed in ([], [0]):
            assert env._move_choices[0] == listed
            paths = rollout(model, env, _FixedUniforms(uniforms), [0] * len(uniforms))
            assert (paths.states[:, 1] - 1).tolist() == expected
        picked = [int(proportional_draw(_FixedUniforms([u]), np.exp(lw))) for u in uniforms]
        assert picked == expected


def test_rollout_fills_the_move_table_only_on_its_path():
    env = Hypergrid(4, 16)
    model = random_model(env, seed=3)
    (path,) = path_lists(rollout(model, env, np.random.default_rng(0), [env.initial_state]))
    forward, backward = env._moves
    assert sorted(forward) == sorted(path[:-1]) and not backward
    (back,) = path_lists(rollout(model, env, np.random.default_rng(0), [path[-2]], forward=False))
    assert sorted(backward) == sorted(back[1:-1])
    assert forward[env.initial_state][1] == children(env, env.initial_state).tolist()


class _AlwaysExplore:
    """Stands in for a Generator whose every ε coin explores, to the first choice."""

    def random(self):
        return 0.0

    def integers(self, n):
        return 0


def test_rollout_evaluates_no_row_at_an_explored_step(monkeypatch):
    env = Hypergrid(2, 4, r0=0.1)
    model = random_model(env, "mlp")
    seen, row = [], policy._row
    monkeypatch.setattr(policy, "_row", lambda net, s, slots, env: seen.append(s) or row(
        net, s, slots, env))
    rollout(model, env, _AlwaysExplore(), [env.initial_state] * 4, epsilon=0.5)
    assert seen == []
    # a drawn step evaluates its state's row once per call
    paths = rollout(model, env, np.random.default_rng(0), [env.initial_state] * 4)
    drawn = {s for p in path_lists(paths) for s in p if env.forward_has_choice[s]}
    assert sorted(seen) == sorted(drawn)


def test_rollout_rows_do_not_outlive_a_call():
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    kids = children(env, env.initial_state)
    rng = np.random.default_rng(0)
    model.forward_net.table[env.initial_state] = [50.0, -50.0]
    first = rollout(model, env, rng, [env.initial_state] * 8)
    model.forward_net.table[env.initial_state] = [-50.0, 50.0]
    second = rollout(model, env, rng, [env.initial_state] * 8)
    assert set(first.states[:, 1].tolist()) == {kids[0]}
    assert set(second.states[:, 1].tolist()) == {kids[1]}


# slot widths from 2 to 16 (forward, backward): T(3,3) 3/1, H(2,4) 3/2, H(7,2)
# 8/7, H(9,2) 10/9, the small random DAGs 4-7, RandomDag(3, 30) 16/8
TABLE_ENVS = {
    "T(3,3)": lambda: RegularTree(3, 3),
    "H(2,4)": lambda: Hypergrid(2, 4, r0=0.1),
    "H(7,2)": lambda: Hypergrid(7, 2),
    "H(9,2)": lambda: Hypergrid(9, 2),
    **{f"dag{i}": lambda i=i: random_dags()[i] for i in range(3)},
    "dag30": lambda: RandomDag(3, 30),
}


def _sides(model, env):
    return ((model.forward_net, env.forward_mask, env.forward_choice),
            (model.backward_net, env.backward_mask, env.backward_choice))


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
@pytest.mark.parametrize("env_name", list(TABLE_ENVS))
def test_table_rows_match_per_state_rows(env_name, kind):
    env = TABLE_ENVS[env_name]()
    model = random_model(env, kind, seed=5, noise=3.0)
    for net, mask, choice in _sides(model, env):
        logp = policy._log_policy(net, mask, choice, env)
        # an MLP's logits move in the last bits with a call's row count, so
        # its rows are held to the per-state arithmetic on the table's logits
        out = policy._eval_rows(net, choice, env, cache=False)[0]
        same = []
        for i, s in enumerate(choice.tolist()):
            slots = np.flatnonzero(mask[s])
            if kind == "tabular":
                want = policy._row(net, s, slots, env)
            else:
                want = _log_softmax(_clamp(out[i, slots]))
            same.append(logp[i, slots].tobytes() == want.tobytes())
            assert np.all(logp[i, ~mask[s]] == -np.inf)
        if mask.shape[1] < policy._ORDERED_SUM_WIDTH:
            assert all(same)


def test_table_rows_of_eight_slots_and_more_sum_in_another_order():
    # why a rollout keeps per-state rows on a side of 8 slots or more: over
    # the whole masked width numpy's pairwise sum groups the valid entries
    # differently from their sum alone
    rng = np.random.default_rng(0)
    for width in range(2, 17):
        z = rng.normal(0.0, 3.0, (200, width))
        mask = rng.random((200, width)) < 0.6
        mask[:, :2] = True
        logp = _masked_rows(z, mask)
        same = [logp[i, m].tobytes() == _log_softmax(_clamp(z[i, m])).tobytes()
                for i, m in enumerate(mask)]
        assert all(same) == (width < policy._ORDERED_SUM_WIDTH)


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_table_rule_counts_paths_against_choice_states(kind):
    env = Hypergrid(4, 16)  # 65,535 forward and 65,475 backward choice states
    nets = [Tabular(env.num_states, width, prefix) if kind == "tabular"
            else Mlp(env.feature_dim, (4, 4), width, prefix)
            for width, prefix in ((env.num_forward_slots, "pf"), (env.num_backward_slots, "pb"))]
    model = PolicyModel(*nets)  # the rule refuses before any net runs

    def tables(model, env, n):
        return tuple(policy._table(model, env, forward, n) for forward in (True, False))

    for n in (1000, 16384):
        assert tables(model, env, n) == (None, None)
    small = Hypergrid(2, 4)  # 15 forward, 9 backward choice states
    model = random_model(small, kind)
    for n, used in ((15, (True, True)), (14, (False, True)), (8, (False, False))):
        assert tuple(t is not None for t in tables(model, small, n)) == used
    # the fixed-uniform side follows the same rule; its table is -log k at k slots
    uniform = random_model(small, kind, learn_backward=False)
    for n, used in ((9, True), (8, False)):
        assert (tables(uniform, small, n)[1] is not None) == used
    k = small.backward_mask.sum(axis=1)
    want = np.where(small.backward_mask, -np.log(np.maximum(k, 1))[:, None], -np.inf)
    assert np.array_equal(tables(uniform, small, 9)[1], want)


def test_table_holds_its_rows_and_one_block():
    env = Hypergrid(4, 10)  # 20,001 states, 9,999 forward choice states: 31 blocks
    model = PolicyModel.build(env, "mlp", hidden=(64, 64), rng=np.random.default_rng(0))
    args = (model.forward_net, env.forward_mask, env.forward_choice, env)
    policy._log_policy(*args)  # the one-hot cache is built once, outside the trace
    tracemalloc.start()
    try:
        table = policy._log_policy(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.shape == (len(env.forward_choice), env.num_forward_slots)
    # S x A floats, plus one block of fewer than 2 * ceil(BLAS_EXACT_CELLS / A)
    # rows: its input rows and two hidden activations
    rows = 2 * -(-policy.BLAS_EXACT_CELLS // env.num_forward_slots)
    block = rows * (env.feature_dim + 2 * 64)
    assert peak < 8 * (env.num_states * env.num_forward_slots + block)


def _record_tables(monkeypatch):
    """The row count of every table built from now on."""
    rows = []
    log_policy = policy._log_policy

    def recorded(net, mask, states, env):
        rows.append(len(states))
        return log_policy(net, mask, states, env)

    monkeypatch.setattr(policy, "_log_policy", recorded)
    return rows


@pytest.mark.parametrize("env_name, kind, tabled", [
    ("T(3,3)", "tabular", True), ("H(7,2)", "tabular", False), ("H(9,2)", "tabular", False),
    ("dag0", "tabular", True), ("T(3,3)", "mlp", False),
])
def test_rollout_reads_a_table_only_for_narrow_tabular_sides(monkeypatch, env_name, kind, tabled):
    env = TABLE_ENVS[env_name]()
    model = random_model(env, kind, seed=2)
    rows = _record_tables(monkeypatch)
    rng, ref = np.random.default_rng(6), np.random.default_rng(6)
    starts = [env.initial_state] * 12
    for call in range(3):
        listed = len(env._move_choices[0])
        assert path_lists(rollout(model, env, rng, starts)) == [
            reference_walk(model, env, ref, s) for s in starts]
        # one table per call over the choice states listed before it
        assert rows == ([listed] if tabled and listed else [])
        del rows[:]
    assert sorted(env._move_choices[0]) == sorted(
        s for s, (_, nxt, k) in env._moves[0].items() if len(nxt) > 1)
    assert all(env._move_choices[0][k] == s for s, (_, _, k) in env._moves[0].items() if k >= 0)


def test_backward_then_forward_consistency():
    env = Hypergrid(2, 4, r0=0.1)
    model = random_model(env)
    rng = np.random.default_rng(2)
    paths = walk(model, env, rng, env.terminating_states[:8], forward=False)
    assert np.all(np.isfinite(paths.log_pf))
    for p in path_lists(paths):
        for a, b in zip(p[:-1], p[1:]):
            assert b in children(env, a)


def test_exact_terminal_distribution_uniform_tree():
    env = RegularTree(3, 2)
    model = PolicyModel.build(env, "tabular")
    _, p = exact_terminal_distribution(model, env)
    assert np.allclose(p, 1 / 9, atol=1e-12)
    assert abs(p.sum() - 1.0) < 1e-10


def test_exact_terminal_distribution_point_mass():
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[...] = 0.0
    model.forward_net.table[0, 0] = 50.0
    model.forward_net.table[1, 0] = 50.0
    _, p = exact_terminal_distribution(model, env)
    assert p[0] == pytest.approx(1.0, abs=1e-10)


def test_exact_terminal_distribution_vs_monte_carlo():
    for env in (RegularTree(2, 2), *random_dags()):
        model = random_model(env, seed=11)
        xs, p = exact_terminal_distribution(model, env)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)

        # independent Monte-Carlo oracle: vectorized categorical walks over the DAG
        rng = np.random.default_rng(42)
        n = 1_000_000
        cur = np.zeros(n, dtype=np.int64)
        done = np.full(n, -1, dtype=np.int64)
        while (done < 0).any():
            for s in np.unique(cur[done < 0]):
                here = (done < 0) & (cur == s)
                _, kids, lp = forward_row(model, int(s), env)
                probs = np.exp(lp)
                draws = rng.choice(len(kids), size=int(here.sum()), p=probs / probs.sum())
                if env.terminating_mask[s]:
                    done[here] = s
                cur[here] = kids[draws]
        freq = np.array([(done == x).mean() for x in xs])
        assert np.abs(freq - p).max() < 0.005


def test_batch_samplers_agree_with_law():
    env = RegularTree(3, 2)
    model = random_model(env, seed=3)
    rng = rng_for(0, "batch")
    trajs = sample_forward_batch(model, env, rng, 4000)
    xs, p = exact_terminal_distribution(model, env)
    counts = {int(x): 0 for x in xs}
    for x in trajs.terminals.tolist():
        counts[x] += 1
    # cached values recompute exactly under the batched evaluator
    assert np.all(np.isfinite(trajs.log_pf))
    freq = np.array([counts[int(x)] / 4000 for x in xs])
    assert np.abs(freq - p).max() < 0.05

    lpf, lpb = EdgeBatch.of_paths(model, env, trajs[:50]).per_trajectory(50)
    np.testing.assert_allclose(trajs.log_pf[:50], lpf, rtol=0, atol=1e-12)
    np.testing.assert_allclose(trajs.log_pb[:50], lpb, rtol=0, atol=1e-12)


def test_backward_batch_matches_single(tmp_path):
    env = Hypergrid(2, 3, r0=0.1)
    model = random_model(env, seed=9)
    rng = rng_for(1, "bwd")
    xs = np.array([env.n_grid + 4, env.n_grid + 8], dtype=np.int64)
    trajs = sample_backward_batch(model, env, rng, xs)
    assert trajs.terminals.tolist() == xs.tolist()
    assert np.all(trajs.states[:, 0] == env.initial_state)

    path = tmp_path / "log.jsonl"
    write_trajectory_log(str(path), trajs, trajs[:0])
    back, forward = read_trajectory_log(str(path))
    assert path_lists(back) == path_lists(trajs) and len(forward) == 0
    assert back.log_pf.tolist() == trajs.log_pf.tolist()


def test_trajectory_log_bytes(tmp_path):
    backward = PathBatch(np.array([[0, 3, 9, -1]], dtype=np.int64), np.array([3]),
                         np.array([2.0]), np.array([0.0]), np.array([-1e-300]))
    forward = PathBatch(np.array([[0, 2, 5, 9]], dtype=np.int64), np.array([4]), np.array([0.1]),
                        np.array([-1.2345678901234567]), np.array([-0.5]))
    path = tmp_path / "log.jsonl"
    write_trajectory_log(str(path), backward, forward)
    assert path.read_text(encoding="utf-8") == (
        '{"states": [0, 3, 9], "log_pf": 0.0, "log_pb": -1e-300, '
        '"reward": 2.0, "provenance": "backward-sampled"}\n'
        '{"states": [0, 2, 5, 9], "log_pf": -1.2345678901234567, "log_pb": -0.5, '
        '"reward": 0.1, "provenance": "forward-sampled"}\n'
    )


def test_clamp_matches_np_clip_bitwise():
    edge = [LOGIT_CLAMP, -LOGIT_CLAMP, np.nextafter(LOGIT_CLAMP, np.inf),
            np.nextafter(-LOGIT_CLAMP, -np.inf), 1e300, -1e300, np.inf, -np.inf, 0.0, -0.0,
            5e-324, 49.999999999999]
    rows = [np.array(edge)] + [np.random.default_rng(w).normal(0, 60, w) for w in range(1, 10)]
    for x in rows:
        assert _clamp(x).tobytes() == np.clip(x, -LOGIT_CLAMP, LOGIT_CLAMP).tobytes()
    clipped = set()
    for kind in ("tabular", "mlp"):
        for width in range(2, 10):
            env = RegularTree(width, 1)
            model = random_model(env, kind, seed=width, noise=80.0)
            model.params.values[...] *= 1.0 if kind == "tabular" else 8.0
            s = np.array([env.initial_state])
            out, _ = policy._eval_rows(model.forward_net, s, env, cache=False)
            clip = np.clip(out, -LOGIT_CLAMP, LOGIT_CLAMP)
            if np.any(clip != out):
                clipped.add(kind)
            lp = forward_row(model, env.initial_state, env)[2]
            assert lp.tobytes() == _log_softmax(clip[0]).tobytes()
            for w in range(1, width + 1):  # rows of every width, down to one slot
                assert _clamp(out[:, :w]).tobytes() == clip[:, :w].tobytes()
                mask = np.arange(width) < w
                want = _log_softmax(np.where(mask, clip, -np.inf))
                assert _masked_rows(out, mask[None]).tobytes() == want.tobytes()
    assert clipped == {"tabular", "mlp"}  # both kinds' rows reach past the clamp


def test_logit_clamp_applies_to_policy():
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[0] = [90.0, 0.0]
    _, _, lp = forward_row(model, 0, env)
    # raw logit 90 is clamped to 50 before the softmax
    expected = 50.0 - math.log(math.exp(50.0) + 1.0)
    assert lp[0] == pytest.approx(expected, abs=1e-12)
    assert math.exp(lp[1]) > 0  # positivity preserved by the clamp


class _FixedUniforms:
    """Stands in for a Generator whose uniforms are the given values, in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        return np.array([self.values.pop(0) for _ in range(size)])


def test_proportional_draw_skips_zero_weights_and_matches_proportions():
    w = np.array([0.0, 3.0, 0.0, 1.0, 0.0])
    idx = proportional_draw(np.random.default_rng(0), w, 40_000)
    assert set(np.unique(idx).tolist()) == {1, 3}
    assert abs((idx == 1).mean() - 0.75) < 0.01
    # the ends of the uniform's range, one draw at a time and batched
    top = 1.0 - 2.0**-53
    assert [int(proportional_draw(_FixedUniforms([u]), w)) for u in (0.0, top)] == [1, 3]
    assert proportional_draw(_FixedUniforms([0.0, top]), w, 2).tolist() == [1, 3]


def test_draw_rows_skips_zero_weights_and_matches_proportions():
    cum = np.cumsum([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]], axis=1)
    top = 1.0 - 2.0**-53
    assert _draw_rows(_FixedUniforms([0.0, 0.0]), cum).tolist() == [1, 0]
    assert _draw_rows(_FixedUniforms([top, top]), cum).tolist() == [2, 2]
    # a subnormal total: the scaled uniform rounds to the total, a tie that
    # goes to the last slot
    tiny = np.cumsum(np.full((1, 3), 5e-324), axis=1)
    assert top * tiny[0, -1] == tiny[0, -1]
    assert _draw_rows(_FixedUniforms([top]), tiny).tolist() == [2]
    rng = np.random.default_rng(1)
    picks = np.array([_draw_rows(rng, cum) for _ in range(20_000)])
    assert not np.any(picks[:, 0] == 0) and not np.any(picks[:, 1] == 1)
    assert abs((picks[:, 1] == 2).mean() - 0.75) < 0.015


def test_one_byte_rows_give_the_bits_of_float64_rows():
    env = Hypergrid(4, 8)  # 8,193 states, 32 feature columns, 5 forward slots
    rng = np.random.default_rng(0)
    model = PolicyModel.build(env, "mlp", hidden=(64, 64), rng=rng)
    net, choice = model.forward_net, env.forward_choice
    onehot = env.encoding_matrix
    assert onehot.dtype == np.uint8 and onehot.nbytes == env.num_states * env.feature_dim
    as_float = onehot.astype(np.float64)
    floor = -(-policy.BLAS_EXACT_CELLS // env.num_forward_slots)
    for rows in (choice[:1], choice[:floor]):  # a rollout's row, a cache-free block
        got, _ = net.forward(onehot[rows], cache=False)
        want, _ = net.forward(as_float[rows], cache=False)
        assert got.tobytes() == want.tobytes()
    got = policy._log_policy(net, env.forward_mask, choice, env)
    env._encoding_matrix = as_float
    want = policy._log_policy(net, env.forward_mask, choice, env)
    assert got.tobytes() == want.tobytes()
    dout = rng.normal(size=(len(choice), env.num_forward_slots))
    grads = []
    for x in (onehot[choice], as_float[choice]):  # a training batch's cached pass
        model.params.zero_grad()
        _, cache = net.forward(x)
        net.backward(cache, dout)
        grads.append(model.params.grads.copy())
    assert grads[0].tobytes() == grads[1].tobytes()


def test_mlp_refused_above_encoding_cap(monkeypatch):
    env = RegularTree(2, 3)  # 16 states, 16 feature columns: 256 cells
    monkeypatch.setattr(envs, "ENCODING_CELL_CAP", 255)
    with pytest.raises(EnumerationCapError, match="above the cap 255"):
        PolicyModel.build(env, "mlp", hidden=(4, 4))
    with pytest.raises(EnumerationCapError):
        env.encoding_matrix
    PolicyModel.build(env, "tabular")  # tabular nets read no features
    monkeypatch.setattr(envs, "ENCODING_CELL_CAP", 256)
    PolicyModel.build(env, "mlp", hidden=(4, 4))
    assert env.encoding_matrix.shape == (16, 16)


def test_build_refuses_an_unknown_model_kind():
    with pytest.raises(ValueError, match="^unknown model kind 'gru'$"):
        PolicyModel.build(RegularTree(2, 2), "gru")


@pytest.mark.parametrize("epsilon", [-0.1, 1.0, 1.5])
def test_rollout_refuses_epsilon_outside_the_unit_interval(epsilon):
    env = RegularTree(2, 2)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^epsilon must be in \[0, 1\)$"):
        rollout(random_model(env), env, rng, [env.initial_state], epsilon=epsilon)
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state  # no draw


def test_flow_batch_refuses_a_model_without_a_flow_head():
    env = RegularTree(2, 2)
    with pytest.raises(ValueError, match="^model has no state-flow head$"):
        FlowBatch(random_model(env), env, np.array([0, 1]))
