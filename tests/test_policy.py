import copy
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from stablegfn import certify, config, envs, policy
from stablegfn.approximator import AdamOptimizer, Mlp, Tabular
from stablegfn.envs import EnumerationCapError, Hypergrid, RegularTree
from stablegfn.policy import (
    LOGIT_CLAMP,
    EdgeBatch,
    FlowBatch,
    PolicyModel,
    _clamp,
    _draw_rows,
    _log_softmax,
    _masked_rows,
    exact_terminal_distribution,
    proportional_draw,
    rollout,
    sample_backward_batch,
    sample_forward_batch,
    score_paths,
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
    x = int(env.terminating_states[4])
    (t,) = records(walk(model, env, rng, [x], forward=False))
    assert t.states[0] == env.initial_state
    assert t.states[-1] == env.sink
    assert t.terminating_state == x
    assert t.log_pb == 0.0


def test_backward_sampling_grid_lattice_paths():
    env = Hypergrid(2, 3, r0=0.1)
    model = PolicyModel.build(env, "tabular", learn_backward=False)  # uniform backward
    rng = np.random.default_rng(0)
    x = 9 + 1 * 3 + 1  # terminal copy of (1, 1), after the 9 points
    paths = walk(model, env, rng, [x] * 64, forward=False)
    np.testing.assert_allclose(paths.log_pb, math.log(0.5), rtol=0, atol=1e-12)
    assert len(set(map(tuple, path_lists(paths)))) == 2  # the two monotone lattice paths


def test_backward_sampling_rejects_non_terminal():
    env = RegularTree(2, 2)
    model = random_model(env)
    with pytest.raises(ValueError):
        rollout(model, env, np.random.default_rng(0), [0], forward=False)


@pytest.mark.parametrize("bad", [5, 0, -1, 33, 18.9, "5"],
                         ids=["interior", "source", "-1", "num_states", "non-integer", "string"])
@pytest.mark.parametrize("bulk", [False, True], ids=["rollout", "bulk"])
def test_backward_walks_refuse_a_start_that_is_not_terminating(bulk, bad):
    env = Hypergrid(2, 4)  # active copies 0..15, terminal copies 16..31, sink 32
    assert env.num_states == 33
    model = random_model(env)
    starts = [int(env.terminating_states[0]), bad]
    with pytest.raises(ValueError, match=f"^start {bad!r} is not a terminating state$"):
        if bulk:  # an array of 16 and "5" would hold two strings: the string goes as a list
            xs = starts if isinstance(bad, str) else np.array(starts)
            sample_backward_batch(model, env, np.random.default_rng(0), xs)
        else:
            rollout(model, env, np.random.default_rng(0), starts, forward=False)


def test_bulk_walks_refuse_a_negative_count_and_walk_no_path_from_none():
    env = Hypergrid(2, 4)
    model = random_model(env)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match=r"^count must be >= 0, got -1$"):
        sample_forward_batch(model, env, rng, -1)
    before = rng.bit_generator.state
    for paths in (sample_forward_batch(model, env, rng, 0), sample_backward_batch(model, env, rng, [])):
        assert len(paths) == 0 and paths.log_pf.tolist() == paths.log_pb.tolist() == []
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("bad", [32, 5, -1, 33], ids=["sink", "interior", "-1", "num_states"])
def test_rollout_refuses_a_forward_start_that_is_not_the_initial_state(bad):
    env = Hypergrid(2, 4)  # source 0, sink 32
    model = random_model(env)
    with pytest.raises(ValueError, match=f"^start {bad} is not the initial state$"):
        rollout(model, env, np.random.default_rng(0), [env.initial_state, bad])
    # refused before the walk: not even the valid first start listed a move
    assert env._moves == ({}, {}) and env._move_choices == ([], [])


def test_single_edge_backward_trajectory():
    env = RegularTree(2, 1)
    model = random_model(env)
    paths = walk(model, env, np.random.default_rng(0), [env.terminating_states[0]], forward=False)
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
        monkeypatch.setattr(policy, "_row", lambda net, s, mask, env, lw=lw: lw)
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
    monkeypatch.setattr(policy, "_row", lambda net, s, mask, env: seen.append(s) or row(
        net, s, mask, env))
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


# slot widths from 1 to 16 (forward, backward): T(3,3) 3/1, H(2,4) 3/2, H(7,2)
# 8/7, T(9,2) 9/1, H(9,2) 10/9, the small random DAGs 4-7, RandomDag(3, 30) 16/8
TABLE_ENVS = {
    "T(3,3)": lambda: RegularTree(3, 3),
    "H(2,4)": lambda: Hypergrid(2, 4, r0=0.1),
    "H(7,2)": lambda: Hypergrid(7, 2),
    "T(9,2)": lambda: RegularTree(9, 2),
    "H(9,2)": lambda: Hypergrid(9, 2),
    **{f"dag{i}": lambda i=i: random_dags()[i] for i in range(3)},
    "dag30": lambda: RandomDag(3, 30),
}


def _sides(model, env):
    return ((model.forward_net, env.forward_mask, env.forward_choice),
            (model.backward_net, env.backward_mask, env.backward_choice))


@pytest.mark.parametrize("kind", ["tabular", "uniform_backward", "mlp"])
@pytest.mark.parametrize("env_name", list(TABLE_ENVS))
def test_table_rows_match_per_state_rows(env_name, kind):
    # a rollout's single row is a table row at every width: both are masked
    # over the side's whole width, so their sums group the same entries
    env = TABLE_ENVS[env_name]()
    model = random_model(env, "mlp" if kind == "mlp" else "tabular", seed=5, noise=3.0,
                         learn_backward=kind != "uniform_backward")
    for net, mask, choice in _sides(model, env):
        logp = policy._log_policy(net, mask, choice, env)
        # an MLP's logits move in the last bits with a call's row count, so
        # its rows are built one state at a time from the table's logits
        out = policy._eval_rows(net, choice, env, cache=False)[0]
        for i, s in enumerate(choice.tolist()):
            want = (policy._row(net, s, mask, env) if net.wants_indices
                    else _masked_rows(out[i], mask[s]))
            assert logp[i].tobytes() == want.tobytes()


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
    ("T(3,3)", "tabular", True), ("H(7,2)", "tabular", True), ("H(9,2)", "tabular", True),
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


# -- kept tables: one build per side and parameter state -------------------------


def _tables(model, env, n):
    return [policy._table(model, env, forward, n) for forward in (True, False)]


def _cold(model):
    """A copy of ``model`` that keeps no table: every table it reads, it builds."""
    return copy.deepcopy(model)


def _net_views(model):
    """(value views, gradient views) of ``model``'s nets."""
    values, grads = [], []
    for net in model._nets:
        if isinstance(net, Tabular):
            values.append(net.table), grads.append(net._gtable)
        else:
            values += net._w + net._b
            grads += net._gw + net._gb
    return values, grads


@pytest.mark.parametrize("copier", [copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_a_copied_model_trains_its_own_parameters(kind, copier):
    env = TABLE_ENVS["H(2,4)"]()
    model = random_model(env, kind)
    _tables(model, env, 15)  # both sides kept
    twin = copier(model)
    assert twin._kept == [None, None] and None not in model._kept
    values, grads = _net_views(twin)
    assert len(values) == len(grads) == (2 if kind == "tabular" else 12)
    for v, g in zip(values, grads):
        assert np.shares_memory(v, twin.params.values) and np.shares_memory(g, twin.params.grads)
        assert not np.shares_memory(v, model.params.values)

    def rows(m):
        return policy._log_policy(m.forward_net, env.forward_mask, env.forward_choice, env).tobytes()

    before, was = model.params.values.tobytes(), rows(model)
    assert rows(twin) == was
    twin.params.grads[:] = np.random.default_rng(5).normal(size=twin.params.size)
    AdamOptimizer(twin.params, lr=0.01).step()  # moves the twin's nets
    assert rows(twin) != was
    stepped = twin.params.values.copy()
    values[0][...] += 1.0  # through the twin's net view, into its params
    assert np.count_nonzero(twin.params.values != stepped) == values[0].size
    assert model.params.values.tobytes() == before and rows(model) == was


def _change(model, env, change):
    """Move ``model``'s parameters by ``change``; (forward, backward): whether
    each side's rows moved."""
    if change == "adam":
        model.params.grads[:] = np.random.default_rng(5).normal(size=model.params.size)
        AdamOptimizer(model.params, lr=0.01).step()
        return True, True
    if change == "tabular":  # a backward choice state's first valid slot
        s = env.backward_choice[0]
        model.backward_net.table[s, np.flatnonzero(env.backward_mask[s])[0]] += 0.5
        return False, True
    if change == "mlp":  # every row's first logit
        model.forward_net._w[2][0] += 0.5
    else:  # the initial state's first forward slot
        model.params.values[model.params.slice_bounds("pf.table")[0]] += 0.5
    return True, False


@pytest.mark.parametrize("change", ["adam", "tabular", "mlp", "values"])
def test_a_parameter_change_rebuilds_the_kept_table(change):
    env = TABLE_ENVS["H(2,4)"]()  # 15 forward, 9 backward choice states
    model = random_model(env, "mlp" if change == "mlp" else "tabular")
    kept = _tables(model, env, 15)
    assert all(a is b for a, b in zip(_tables(model, env, 15), kept))  # kept, not rebuilt
    assert not any(t.flags.writeable for t in kept)
    with pytest.raises(ValueError):
        kept[0][0, 0] = 0.0
    moved = _change(model, env, change)
    got, want = _tables(model, env, 15), _tables(_cold(model), env, 15)
    for g, w, k, side_moved in zip(got, want, kept, moved):
        assert g.tobytes() == w.tobytes()
        assert (g is not k) == side_moved and (g.tobytes() != k.tobytes()) == side_moved


def test_a_signed_zero_flip_rebuilds_the_kept_mlp_table():
    # a float == would take -0.0 for 0.0 and keep the stale table
    env = TABLE_ENVS["H(2,4)"]()
    model = random_model(env, "mlp")
    model.forward_net._w[2][0, 0] = 0.0
    kept = _tables(model, env, 15)
    before = model.params.values.copy()
    model.forward_net._w[2][0, 0] = -0.0
    assert np.array_equal(model.params.values, before)
    got, want = _tables(model, env, 15), _tables(_cold(model), env, 15)
    assert got[0] is not kept[0] and got[1] is kept[1]
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]


def test_a_kept_mlp_table_hit_neither_copies_nor_hashes(monkeypatch):
    env = Hypergrid(4, 8)  # a 256x256 forward side of 75,525 parameters
    model = PolicyModel.build(env, "mlp", hidden=(256, 256), rng=np.random.default_rng(0))
    kept = policy._table(model, env, True, len(env.forward_choice))

    def refuse(what):
        def call(*args):
            raise AssertionError(f"a hit {what}")
        return call

    monkeypatch.setattr(policy.hashlib, "sha256", refuse("hashed the parameters"))
    # the side's range of the parameter vector is the model's, not rebuilt per lookup
    monkeypatch.setattr(model.forward_net, "param_spec", refuse("read the net's param_spec"))
    tracemalloc.start()
    try:
        got = policy._table(model, env, True, len(env.forward_choice))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is kept
    assert peak < 64_000  # a copy of the parameters or a bool per parameter is 75,525 bytes or more


def test_another_env_object_rebuilds_the_kept_table():
    env, other = TABLE_ENVS["H(2,4)"](), Hypergrid(2, 4, r0=0.5)  # the same graph
    model = random_model(env)
    kept = _tables(model, env, 15)
    got = _tables(model, other, 15)
    for g, w, k in zip(got, _tables(_cold(model), other, 15), kept):
        assert g is not k and g.tobytes() == w.tobytes() == k.tobytes()
    assert all(a is not b for a, b in zip(_tables(model, env, 15), got))


def _side_calls(monkeypatch):
    """The sides of every :func:`policy._log_policy` call from now on."""
    calls = []
    log_policy = policy._log_policy

    def recorded(net, mask, states, env):
        calls.append("forward" if mask is env.forward_mask else "backward")
        return log_policy(net, mask, states, env)

    monkeypatch.setattr(policy, "_log_policy", recorded)
    return calls


def _tiny_stable_run():
    """(env, model, alpha) of a tiny stabilized MLP config whose 64-path walks have tables."""
    resolved = config.resolve({"env": {"kind": "hypergrid", "dimension": 2, "side": 4},
                               "model": {"kind": "mlp", "hidden": [16, 16]},
                               "train": {"stabilize": True, "cert_m": 64, "cert_n": 64}})
    env = config.build_env(resolved)
    return env, config.build_model(resolved, env), config.build_train_config(resolved).alpha


def _post_training(model, env, alpha, seed):
    """The calls after training, as the bench makes them: a certificate
    attempt, the evaluation walk and the exact DP; what each returns, as bytes."""
    rng_b, rng_f, rng_e = (rng_for(seed, name) for name in ("b", "f", "e"))
    report = certify.sample_certificate(model, env, env.terminating_states, 64, 64, rng_b, rng_f,
                                        alpha).to_dict()
    report.pop("wall_clock_s")
    paths = sample_forward_batch(model, env, rng_e, 64)
    return [repr(report), *(c.tobytes() for c in (paths.states, paths.log_pf, paths.log_pb)),
            exact_terminal_distribution(model, env)[1].tobytes()]


def test_post_training_calls_build_each_table_once_per_parameter_state(monkeypatch):
    env, model, alpha = _tiny_stable_run()
    calls = _side_calls(monkeypatch)
    for step in range(3):
        _post_training(model, env, alpha, step)
        _post_training(model, env, alpha, step + 10)
        assert sorted(calls) == ["backward", "forward"]
        del calls[:]
        _change(model, env, "adam")


def test_kept_tables_give_the_bytes_of_cold_calls():
    env, model, alpha = _tiny_stable_run()
    for step in range(3):
        for seed in (step, step + 10):
            cold = _cold(model)
            assert _post_training(model, env, alpha, seed) == _post_training(cold, env, alpha, seed)
        _change(model, env, "adam")


def test_tables_a_certificate_switched_to_serve_the_evaluation(monkeypatch):
    env = Hypergrid(4, 8)  # 4,095 forward, 4,067 backward choice states
    model = PolicyModel.build(env, "mlp", hidden=(16, 16), rng=np.random.default_rng(0))
    calls = _side_calls(monkeypatch)
    certify.sample_certificate(model, env, env.terminating_states, 1000, 1000,
                               rng_for(0, "b"), rng_for(0, "f"), 0.05)
    # 1,000 paths a side, fewer than its choice states: only a switch keeps a table
    assert None not in model._kept
    del calls[:]

    def evaluation(m):
        paths = sample_forward_batch(m, env, rng_for(0, "e"), len(env.forward_choice))
        return [c.tobytes() for c in (paths.states, paths.log_pf, paths.log_pb,
                                      exact_terminal_distribution(m, env)[1])]

    got = evaluation(model)
    assert calls == []
    assert got == evaluation(_cold(model)) and len(calls) == 2


def test_exact_dp_keeps_no_table():
    env = TABLE_ENVS["H(2,4)"]()
    model = random_model(env, "mlp")
    exact_terminal_distribution(model, env)
    assert model._kept == [None, None]
    kept = _tables(model, env, 15)
    exact_terminal_distribution(model, env)  # reads the kept forward table
    assert model._kept[0][2] is kept[0]
    _change(model, env, "mlp")
    exact_terminal_distribution(model, env)  # builds its own and drops the stale one
    assert model._kept[0] is None and model._kept[1][2] is kept[1]


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


def test_backward_batch_matches_single():
    env = Hypergrid(2, 3, r0=0.1)
    model = random_model(env, seed=9)
    rng = rng_for(1, "bwd")
    xs = np.array([9 + 4, 9 + 8], dtype=np.int64)  # terminal copies
    trajs = sample_backward_batch(model, env, rng, xs)
    assert trajs.terminals.tolist() == xs.tolist()
    assert np.all(trajs.states[:, 0] == env.initial_state)


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
    # two 3-wide rows of flat cumulative sums, at offsets 0 and 3
    cum = np.cumsum([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]], axis=1).ravel()
    base = np.array([0, 3])
    top = 1.0 - 2.0**-53
    assert _draw_rows(_FixedUniforms([0.0, 0.0]), cum, base, 3).tolist() == [1, 0]
    assert _draw_rows(_FixedUniforms([top, top]), cum, base, 3).tolist() == [2, 2]
    # offsets in any order, repeated
    assert _draw_rows(_FixedUniforms([0.0, 0.0, top]), cum, np.array([3, 0, 3]), 3).tolist() == [0, 1, 2]
    # a subnormal total: the scaled uniform rounds to the total, a tie that
    # goes to the last slot
    tiny = np.cumsum(np.full(3, 5e-324))
    assert top * tiny[-1] == tiny[-1]
    assert _draw_rows(_FixedUniforms([top]), tiny, np.array([0]), 3).tolist() == [2]
    # a one-wide row draws slot 0 and still takes its uniform
    uniforms = _FixedUniforms([top, 0.5])
    assert _draw_rows(uniforms, np.array([2.0]), np.array([0]), 1).tolist() == [0]
    assert uniforms.values == [0.5]
    # two-wide rows: a zero first weight, then sums 1 and 4, where the scaled
    # uniform 0.25 * 4 lands on the first sum and goes to the second slot
    two = np.cumsum([[0.0, 1.0], [1.0, 3.0]], axis=1).ravel()
    uniforms = _FixedUniforms([0.0, top, 0.25, 0.24])
    assert _draw_rows(uniforms, two, np.array([0, 0, 2, 2]), 2).tolist() == [1, 1, 1, 0]
    rng = np.random.default_rng(1)
    picks = np.array([_draw_rows(rng, cum, base, 3) for _ in range(20_000)])
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
