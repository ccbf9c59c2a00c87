"""PathBatch against the list-and-object reference, and what its readers rely on.

Every sampler returns one padded state matrix.  These tests hold it to the
reference implementation in ``numeric_reference`` (lists of states, its own
``Trajectory`` records, edges flattened one by one): the same paths from the
same random stream, the same ``(tid, src, dst)`` edge order, bit-identical
log-probs and certificate records.
"""

import inspect
import math
import tracemalloc

import numpy as np
import pytest

import numeric_reference as ref
from random_dag import RandomDag
from stablegfn import certify, oracle, policy
from stablegfn.approximator import Mlp, Tabular
from stablegfn.envs import Hypergrid, RegularTree
from stablegfn.losses import batch_loss
from stablegfn.policy import (
    EdgeBatch,
    PathView,
    PolicyModel,
    _masked_rows,
    exact_terminal_distribution,
    rollout,
    sample_backward_batch,
    sample_forward_batch,
    score_paths,
)

# a bulk call of 300 walkers reads the policy tables on T(3,4), H(2,8) and the
# random DAG, and evaluates per step on H(4,8) (4,095 forward choice states),
# where an MLP backward walk switches to its table mid-walk
ENVS = {
    "T(3,4)": lambda: RegularTree(3, 4),
    "H(2,8)": lambda: Hypergrid(2, 8),
    "H(4,8)": lambda: Hypergrid(4, 8),
    "random_dag": lambda: RandomDag(5, 14),
}
KINDS = ["tabular", "mlp", "uniform-backward"]


def _model(env, kind, seed=0):
    rng = np.random.default_rng(seed)
    model = PolicyModel.build(env, "mlp" if kind == "mlp" else "tabular", hidden=(16, 16),
                              learn_backward=kind != "uniform-backward", rng=rng)
    for net in (model.forward_net, model.backward_net):
        if isinstance(net, Tabular):
            net.table[...] = rng.normal(0.0, 1.0, net.table.shape)
    model.set_logz(0.3)
    return model


def _starts(env, forward, n=300):
    if forward:
        return [env.initial_state] * n
    xs = env.terminating_states
    return xs[np.random.default_rng(1).integers(0, len(xs), n)]


def _same_edges(edges, want):
    return all(np.array_equal(getattr(edges, k), getattr(want, k)) for k in ("tid", "src", "dst"))


def _matches_reference(env, kind, forward, n):
    model = _model(env, kind)
    starts = _starts(env, forward, n)
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    if forward:
        paths = sample_forward_batch(model, env, rng, len(starts))
    else:
        paths = sample_backward_batch(model, env, rng, starts)
    want, want_edges = ref.trajectories_from_paths(
        model, env, ref.walk(model, env, rng_ref, starts, forward))
    assert rng.bit_generator.state == rng_ref.bit_generator.state
    assert rng.random() == rng_ref.random()  # both consumed the same uniforms

    assert ref.path_lists(paths) == [t.states for t in want]
    assert paths.terminals.tolist() == [t.terminating_state for t in want]
    assert _same_edges(EdgeBatch.of_paths(model, env, paths), want_edges)
    assert paths.log_pf.tolist() == [t.log_pf for t in want]
    assert paths.log_pb.tolist() == [t.log_pb for t in want]
    got = certify.records_from_trajectories(paths, model.logz)
    expected = ref.records_from_trajectories(want, model.logz)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("env_name", list(ENVS))
def test_bulk_sampler_matches_reference(env_name, kind, forward):
    _matches_reference(ENVS[env_name](), kind, forward, 300)


# forward sides two slots wide and backward sides one, the narrowest column
# draws; 0, 1 and 300 walkers: a walk with no step, and one whose moving
# walkers shrink to none
@pytest.mark.parametrize("n", [0, 1, 300])
@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("make", [lambda: Hypergrid(1, 6), lambda: RegularTree(2, 3)],
                         ids=["H(1,6)", "T(2,3)"])
def test_bulk_sampler_matches_reference_on_narrow_sides(make, kind, forward, n):
    env = make()
    assert (env.num_forward_slots, env.num_backward_slots) == (2, 1)
    _matches_reference(env, kind, forward, n)


def _side(env, forward):
    """(name, choice-state count) of the walking side."""
    return ("forward", len(env.forward_choice)) if forward else (
        "backward", len(env.backward_choice))


def _record_rows(monkeypatch):
    """(side, row count) of every :func:`policy._log_policy` call from now on."""
    calls, log_policy = [], policy._log_policy

    def recorded(net, mask, states, env):
        calls.append(("forward" if mask is env.forward_mask else "backward", len(states)))
        return log_policy(net, mask, states, env)

    monkeypatch.setattr(policy, "_log_policy", recorded)
    return calls


# H(2,8) has 63 forward and 49 backward choice states: with as many paths a
# walk draws from its table from the start.  With one path fewer, a tabular or
# uniform side draws from per-step rows throughout, and an MLP side switches
# to its table once its per-step rows reach a quarter of its choice states:
# after 5 forward steps, or 1 backward step (33 rows)
@pytest.mark.parametrize("forward, n", [(True, 62), (True, 63), (False, 48), (False, 49)])
@pytest.mark.parametrize("kind", KINDS)
def test_bulk_sampler_matches_reference_on_both_sides_of_the_table_rule(monkeypatch, kind,
                                                                        forward, n):
    env = Hypergrid(2, 8)
    assert (len(env.forward_choice), len(env.backward_choice)) == (63, 49)
    calls = _record_rows(monkeypatch)
    _matches_reference(env, kind, forward, n)
    side, choice = _side(env, forward)
    built = [i for i, call in enumerate(calls) if call == (side, choice)]
    if n == choice:
        assert built == [0]
    elif kind == "mlp":
        assert built == [5 if forward else 1]
    else:
        assert built == []


def _record_edge_batches(monkeypatch):
    """(edge count, cache flag) of every EdgeBatch built from now on."""
    edges, init = [], EdgeBatch.__init__

    def recorded(self, model, env, src, *args, **kwargs):
        init(self, model, env, src, *args, **kwargs)
        edges.append((len(src), self.cache))

    monkeypatch.setattr(EdgeBatch, "__init__", recorded)
    return edges


def _walked(model, env, forward, n):
    rng = np.random.default_rng(7)
    if forward:
        return sample_forward_batch(model, env, rng, n)
    return sample_backward_batch(model, env, rng, _starts(env, False, n))


def _rescored(model, env, paths):
    """A copy of ``paths`` scored by :func:`score_paths`."""
    copy = policy.PathBatch(paths.states.copy(), paths.lengths.copy(), paths.rewards.copy())
    score_paths(model, env, copy)
    return copy


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("learn_backward", [True, False], ids=["learned", "uniform"])
@pytest.mark.parametrize("net", ["tabular", "mlp"])
@pytest.mark.parametrize("env_name", ["T(3,4)", "H(2,8)", "random_dag"])
def test_table_walk_records_the_log_probs_of_scoring(monkeypatch, env_name, net, learn_backward,
                                                     forward):
    env = ENVS[env_name]()
    model = PolicyModel.build(env, net, hidden=(16, 16), learn_backward=learn_backward,
                              rng=np.random.default_rng(0))
    for table_net in model._nets:
        if isinstance(table_net, Tabular):
            table_net.table[...] = np.random.default_rng(1).normal(0.0, 1.0, table_net.table.shape)
    # 300 walkers: every side has a table, the uniform policy too
    assert all(policy._table(model, env, forward, 300) is not None for forward in (True, False))
    edges = _record_edge_batches(monkeypatch)
    paths = _walked(model, env, forward, 300)
    assert edges == []  # the walk scored as it drew
    want = _rescored(model, env, paths)
    assert paths.log_pf.tobytes() == want.log_pf.tobytes()
    assert paths.log_pb.tobytes() == want.log_pb.tobytes()


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("env_name, net, n", [
    ("H(4,8)", "tabular", 300),  # 4,095 forward, 4,067 backward choice states
    ("T(3,4)", "mlp", 2),  # 40 forward choice states; 7 per-step rows
    ("T(3,4)", "mlp", 7),  # 10 per-step rows: the forward walk switches to its table
])
def test_walk_without_tables_is_scored_afterwards(monkeypatch, env_name, net, n, forward):
    env = ENVS[env_name]()
    model = _model(env, net)
    edges = _record_edge_batches(monkeypatch)
    paths = _walked(model, env, forward, n)
    # one cache-free batch over every edge of the walk, as score_paths builds.
    # A tree has no backward choice state, so a backward walk there draws
    # from its table; with no forward table it still records nothing.  A
    # walk that switched to its table records nothing either
    assert (model._kept[0] is not None) == (forward and n == 7)
    assert edges == [(int((paths.lengths - 1).sum()), False)]
    want = _rescored(model, env, paths)
    assert paths.log_pf.tobytes() == want.log_pf.tobytes()
    assert paths.log_pb.tobytes() == want.log_pb.tobytes()


def test_walk_evaluates_only_its_side_without_a_table(monkeypatch):
    env = Hypergrid(2, 8)  # 63 forward, 49 backward choice states
    model = _model(env, "tabular")
    rows = _record_rows(monkeypatch)
    edges = _record_edge_batches(monkeypatch)
    # 56 backward paths: the walking side has its table, the forward side
    # none, so the walk records nothing and score_paths scores both sides
    paths = _walked(model, env, False, 56)
    s = paths.states
    src, dst = s[:, :-1][s[:, 1:] >= 0], s[:, 1:][s[:, 1:] >= 0]
    visited = [len(np.unique(at[has_choice[at]])) for at, has_choice in
               ((src, env.forward_has_choice), (dst, env.backward_has_choice))]
    assert rows == [("backward", 49), ("forward", visited[0]), ("backward", visited[1])]
    assert edges == [(len(src), False)]
    want = _rescored(model, env, paths)
    assert paths.log_pf.tobytes() == want.log_pf.tobytes()
    assert paths.log_pb.tobytes() == want.log_pb.tobytes()


def _walk_rows(calls, side):
    """The row counts of a walk's own calls, ``calls`` less the two of the
    :func:`score_paths` that follows it."""
    assert [s for s, _ in calls[-2:]] == ["forward", "backward"]
    assert {s for s, _ in calls[:-2]} == {side}
    return [rows for _, rows in calls[:-2]]


# H(4,8) has 4,095 forward and 4,067 backward choice states.  From these
# walks' streams, 875 forward and 73 backward walkers reach a quarter of them
# in per-step rows before their last step; 874 and 72 stop short (1,006 and
# 1,008 rows)
@pytest.mark.parametrize("forward, n, switches", [
    (True, 875, True), (True, 874, False), (False, 73, True), (False, 72, False)])
def test_mlp_walk_switches_to_its_table_once_its_rows_reach_a_quarter_of_it(
        monkeypatch, forward, n, switches):
    env = ENVS["H(4,8)"]()
    side, choice = _side(env, forward)
    calls = _record_rows(monkeypatch)
    _matches_reference(env, "mlp", forward, n)
    rows = _walk_rows(calls, side)
    if switches:  # at the first step after the rows reach the quarter, and no row after it
        assert rows[-1] == choice and choice not in rows[:-1]
        assert 4 * sum(rows[:-2]) < choice <= 4 * sum(rows[:-1])
    else:  # per step throughout
        assert choice not in rows and 4 * sum(rows) < choice < 4.1 * sum(rows)


@pytest.mark.parametrize("kind, forward, n", [
    ("tabular", True, 3000), ("tabular", False, 300), ("uniform-backward", False, 300)])
def test_sides_read_by_state_index_never_switch(monkeypatch, kind, forward, n):
    env = ENVS["H(4,8)"]()
    side, choice = _side(env, forward)
    model = _model(env, kind)
    calls = _record_rows(monkeypatch)
    paths = _walked(model, env, forward, n)
    rows = _walk_rows(calls, side)
    # an MLP side would have switched: its per-step rows reach a quarter of its table
    assert choice not in rows and n < choice <= 4 * sum(rows[:-1])
    assert model._kept == [None, None]
    ref_rng = np.random.default_rng(7)
    starts = [env.initial_state] * n if forward else _starts(env, False, n)
    assert ref.path_lists(paths) == ref.walk(model, env, ref_rng, starts, forward)


def test_forward_mlp_walk_that_visits_few_states_builds_no_table(monkeypatch):
    env = Hypergrid(4, 16)  # 65,535 forward choice states
    model = _model(env, "mlp")
    calls = _record_rows(monkeypatch)
    paths = _walked(model, env, True, 2000)
    rows = _walk_rows(calls, "forward")
    assert 4 * sum(rows) < len(env.forward_choice)
    assert model._kept == [None, None]
    want = _rescored(model, env, paths)
    assert paths.log_pf.tobytes() == want.log_pf.tobytes()
    assert paths.log_pb.tobytes() == want.log_pb.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("env_name", list(ENVS))
def test_training_batch_and_subgraph_certificate_match_reference(env_name, kind):
    env = ENVS[env_name]()
    model = _model(env, kind, seed=1)
    # a round's batch: forward rollouts with exploration, then backward ones appended
    rng, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
    xs = _starts(env, False, 16)
    batch = rollout(model, env, rng, [env.initial_state] * 16, epsilon=0.2)
    batch += rollout(model, env, rng, xs, forward=False)
    edges = score_paths(model, env, batch)
    lists = ref.path_lists(rollout(model, env, rng_ref, [env.initial_state] * 16, epsilon=0.2))
    lists += ref.path_lists(rollout(model, env, rng_ref, xs, forward=False))
    want, want_edges = ref.trajectories_from_paths(model, env, lists)
    assert _same_edges(edges, want_edges)
    assert batch.log_pf.tolist() == [t.log_pf for t in want]
    assert batch.log_pb.tolist() == [t.log_pb for t in want]

    # the certificate keeps the forward paths that end in the subset, by mask
    subset = env.terminating_states[::2].tolist()
    bwd = sample_backward_batch(model, env, np.random.default_rng(5), np.repeat(subset, 3))
    fwd = sample_forward_batch(model, env, np.random.default_rng(6), 200)
    # a repeated state counts once
    report = certify.subgraph_certificate(env, subset + subset[:2], bwd, fwd, model.logz, 0.05)
    kept = [t for t in ref.records(fwd) if t.terminating_state in set(subset)]
    expected = certify.optimize_certificate(
        ref.records_from_trajectories(ref.records(bwd), model.logz),
        ref.records_from_trajectories(kept, model.logz), 0.05, scope="subgraph")
    assert report.n == len(kept) and report.m == len(bwd)
    assert (report.bound, report.raw_bound, report.threshold) == (
        expected.bound, expected.raw_bound, expected.threshold)
    # the scope's size and reward mass, by the same mask; the mass sums in another order
    assert report.subset_size == len(set(subset))
    assert report.captured_reward_mass == pytest.approx(
        sum(env.reward_table[sorted(set(subset))].tolist()), rel=1e-12)


def test_losses_and_certificates_read_one_log_reward():
    # random rewards: math.log and np.log disagree by an ulp on about 0.1% of doubles
    env = RegularTree(3, 4, leaf_rewards=np.random.default_rng(2).uniform(0.1, 3.0, 81))
    model = _model(env, "tabular")
    paths = sample_forward_batch(model, env, np.random.default_rng(3), 500)
    assert any(math.log(r) != np.log(r) for r in paths.rewards)  # the instance shows it
    log_model, log_target = certify.records_from_trajectories(paths, model.logz)
    assert log_target.tobytes() == (np.log(paths.rewards) + paths.log_pb).tobytes()
    report = batch_loss(model, env, paths, "tb")
    assert report.log_ratios.tobytes() == (log_model - log_target).tobytes()


def test_enumerated_paths_match_reference():
    env = RandomDag(7, 12)
    model = _model(env, "tabular")
    paths = oracle.enumerate_trajectories(model, env)
    want, _ = ref.trajectories_from_paths(model, env, oracle.enumerate_trajectory_states(env))
    assert ref.path_lists(paths) == [t.states for t in want]
    assert paths.log_pf.tolist() == [t.log_pf for t in want]
    assert paths.log_pb.tolist() == [t.log_pb for t in want]


def test_bulk_samples_serve_the_harness_and_cli_readers():
    """What ``bench/workloads.py`` and ``cli`` read from the bulk samplers."""
    env = Hypergrid(2, 6)
    model = _model(env, "mlp")
    rng = np.random.default_rng(8)
    scope = env.terminating_states[:10].tolist()
    xs = np.repeat(scope, 5)
    bwd = sample_backward_batch(model, env, rng, xs)
    fwd = sample_forward_batch(model, env, rng, 700)
    assert len(bwd) == 50 and len(fwd) == 700
    terminals = [t.terminating_state for t in fwd]  # the evaluation's read
    # rows are one-slot views: the package builds no per-path record
    assert all(type(t) is PathView for t in fwd) and PathView.__slots__ == ("terminating_state",)
    assert not hasattr(policy, "Trajectory")
    assert terminals == fwd.terminals.tolist() and all(type(x) is int for x in terminals)
    assert [t.terminating_state for t in bwd] == xs.tolist()
    assert 0.0 <= oracle.empirical_total_l1(terminals, env) <= 2.0
    oracle.count_modes(terminals, env)
    report = certify.subgraph_certificate(env, scope, bwd, fwd, model.logz, 0.025)
    assert report.m == 50 and report.n == sum(x in scope for x in terminals)
    # the traced harness counts edges from EdgeBatch.__init__'s fourth argument
    assert list(inspect.signature(EdgeBatch.__init__).parameters)[:4] == ["self", "model", "env", "src"]


def test_exact_dp_keeps_no_activation_cache():
    env = Hypergrid(4, 8)
    model = PolicyModel.build(env, "mlp", hidden=(256, 256), rng=np.random.default_rng(0))
    rows = int((env.forward_mask.sum(axis=1) > 1).sum())
    exact_terminal_distribution(model, env)  # the one-hot cache is built once, outside the trace
    tracemalloc.start()
    try:
        exact_terminal_distribution(model, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a cached forward holds four (rows x 256) float64 arrays; without the
    # cache at most two are alive, plus the small input and policy rows
    assert peak < 3 * rows * 256 * 8


def _record_forward_calls(monkeypatch):
    """(rows, cache flag, inside ``policy._log_policy``) of every
    ``Mlp.forward`` call from now on."""
    calls, depth = [], [0]
    forward, log_policy = Mlp.forward, policy._log_policy

    def recorded(net, x, cache=True):
        calls.append((len(x), cache, depth[0] > 0))
        return forward(net, x, cache)

    def recorded_log_policy(*args):
        depth[0] += 1
        try:
            return log_policy(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Mlp, "forward", recorded)
    monkeypatch.setattr(policy, "_log_policy", recorded_log_policy)
    return calls


def test_blocked_evaluation_matches_one_call(monkeypatch):
    env = Hypergrid(4, 10)
    model = PolicyModel.build(env, "mlp", hidden=(64, 64), rng=np.random.default_rng(0))
    choice = np.flatnonzero(env.forward_mask.sum(axis=1) > 1)
    calls = _record_forward_calls(monkeypatch)
    logp = policy._log_policy(model.forward_net, env.forward_mask, choice, env)
    rows = [n for n, _, _ in calls]
    # near-equal cache-free blocks, more than two of them, each of floor to
    # 2 * floor - 1 rows
    floor = -(-policy.BLAS_EXACT_CELLS // env.forward_mask.shape[1])
    assert not any(cache for _, cache, _ in calls) and len(rows) > 2 and sum(rows) == len(choice)
    assert floor <= min(rows) and max(rows) < 2 * floor
    out = ref.eval_rows(model.forward_net, choice, env)
    assert logp.tobytes() == _masked_rows(out, env.forward_mask[choice]).tobytes()
    got, want = exact_terminal_distribution(model, env), ref.exact_terminal_distribution(model, env)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()


# output width A -> (a grid, the side whose mask is A wide): every side has
# at least 2 * ceil(BLAS_EXACT_CELLS / A) choice states
BOUNDARY_SIDES = {
    2: (lambda: Hypergrid(2, 42), False),  # 1,681 backward choice states
    3: (lambda: Hypergrid(2, 34), True),  # 1,155
    5: (lambda: Hypergrid(4, 6), True),  # 1,295
    8: (lambda: Hypergrid(7, 3), True),  # 2,186
}


@pytest.mark.parametrize("hidden", [16, 64, 256])
@pytest.mark.parametrize("width", sorted(BOUNDARY_SIDES))
def test_blocks_from_the_floor_up_match_one_call(width, hidden):
    make, forward = BOUNDARY_SIDES[width]
    env = make()
    model = PolicyModel.build(env, "mlp", hidden=(hidden, hidden), rng=np.random.default_rng(0))
    net, mask, choice = ((model.forward_net, env.forward_mask, env.forward_choice) if forward
                         else (model.backward_net, env.backward_mask, env.backward_choice))
    assert mask.shape[1] == width
    out, _ = net.forward(env.encoding_matrix[choice], cache=False)
    want = _masked_rows(out, mask[choice])
    floor = -(-policy.BLAS_EXACT_CELLS // width)
    # one full block of every size from the floor to twice it (two blocks at
    # the end), over rows at shifting offsets of the one whole call
    for rows in range(floor, 2 * floor + 1, 5):
        lo = rows * 13 % (len(choice) - rows + 1)
        got = policy._log_policy(net, mask, choice[lo:lo + rows], env)
        assert got.tobytes() == want[lo:lo + rows].tobytes(), (rows, lo)


def test_exact_dp_holds_no_graph_sized_activation():
    env = Hypergrid(4, 10)
    model = PolicyModel.build(env, "mlp", hidden=(64, 64), rng=np.random.default_rng(0))
    rows = int((env.forward_mask.sum(axis=1) > 1).sum())
    exact_terminal_distribution(model, env)
    tracemalloc.start()
    try:
        exact_terminal_distribution(model, env)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # measured: 14.0 MB in one call over all 9,999 choice rows, 4.1 MB in
    # blocks of 2,000 rows, 1.7 MB in blocks of 322-323 (floor 320 at A = 5)
    assert peak < rows * 64 * 8  # one (rows x width) array, 5.1 MB


def test_bulk_sample_holds_no_backward_cache():
    env = Hypergrid(4, 8)
    model = PolicyModel.build(env, "mlp", hidden=(256, 256), rng=np.random.default_rng(0))
    tracemalloc.start()
    try:
        paths = sample_forward_batch(model, env, np.random.default_rng(1), 16384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(paths) == 16384
    # measured: 61.7 MB with the scoring batch's caches, 19.7 MB without; the
    # bound is one net's four cached (rows x width) arrays over every state
    # with a choice (33.5 MB), which the walks reach nearly all of
    rows = int((env.forward_mask.sum(axis=1) > 1).sum())
    assert peak < 4 * rows * 256 * 8


def test_table_walk_holds_graph_sized_matrices():
    env = Hypergrid(4, 8)  # 8,193 states, 5 forward slots
    n = 16384
    (S, A), walk = env.forward_mask.shape, n * len(env.levels)
    tables = len(env.forward_choice) * A + len(env.backward_choice) * env.num_backward_slots
    for kind in ("tabular", "mlp"):
        model = _model(env, kind)
        # the rule gives both tables; asked of another model, which keeps them
        assert all(policy._table(_model(env, kind), env, forward, n) is not None
                   for forward in (True, False))
        tracemalloc.start()
        try:
            sample_forward_batch(model, env, np.random.default_rng(1), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # measured: 8.0 MB, of which the rows and both recorded sides (three
        # S x A arrays) are 1.0 MB; the bound allows four, plus 16 words a
        # walker (the starts, the state vector, the sums, a step's gathers and
        # compares) and a step's gathered cumulative rows, A words a walker.
        # A forward walk adds each step into its sums as it goes: keeping its
        # walkers and both sides' log-probs per step until the end, three
        # words a walked edge, peaked at 8.9 MB.
        assert peak < 8 * (walk + tables + 4 * S * A + (16 + A) * n), kind


def test_uniform_walk_below_the_table_rule_holds_no_graph_sized_matrix():
    env = Hypergrid(4, 16)  # 131,073 states, 65,475 backward choice states, 4 backward slots
    model = PolicyModel.build(env, "tabular", learn_backward=False, rng=np.random.default_rng(0))
    assert policy._table(model, env, False, 200) is None
    xs = _starts(env, False, 200)
    _walked(model, env, False, 200)  # lazy graph arrays are built once, outside the trace
    tracemalloc.start()
    try:
        paths = _walked(model, env, False, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert paths.terminals.tolist() == xs.tolist()
    # measured: 1.0 MB, the walk and its scoring; rows over every state are
    # one S x A float64 array (4.2 MB)
    assert peak < env.backward_mask.size * 8
    want = _rescored(model, env, paths)
    assert paths.log_pf.tobytes() == want.log_pf.tobytes()
    assert paths.log_pb.tobytes() == want.log_pb.tobytes()


def test_only_training_keeps_backward_caches(monkeypatch):
    env = Hypergrid(2, 4)
    model = _model(env, "mlp")
    calls = _record_forward_calls(monkeypatch)
    rng = np.random.default_rng(0)
    rollout(model, env, rng, [env.initial_state] * 8)
    rollout(model, env, rng, env.terminating_states[:8], forward=False)
    paths = sample_forward_batch(model, env, rng, 50)
    sample_backward_batch(model, env, rng, env.terminating_states[:8])
    oracle.enumerate_trajectories(model, env)
    exact_terminal_distribution(model, env)
    # every pass is cache-free, and every one of more than one row runs in
    # policy._log_policy; the rollouts evaluate single rows
    assert calls and not any(cache for _, cache, _ in calls)
    assert all(inside or n == 1 for n, _, inside in calls)
    assert any(inside for _, _, inside in calls)

    edges = score_paths(model, env, paths)
    assert edges._fwd is None and edges._bwd is None
    with pytest.raises(ValueError, match="without backward caches"):
        edges.backprop(np.ones(len(edges.src)), np.ones(len(edges.src)))
    with pytest.raises(ValueError, match="without backward caches"):
        batch_loss(model, env, paths, "tb", backprop=True, edges=edges)
    del calls[:]
    batch_loss(model, env, paths, "tb", backprop=True)
    assert calls and all(cache and not inside for _, cache, inside in calls)
