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
from stablegfn.approximator import Mlp
from stablegfn.envs import Hypergrid, RegularTree
from stablegfn.losses import batch_loss
from stablegfn.policy import (
    EdgeBatch,
    PathView,
    PolicyModel,
    exact_terminal_distribution,
    rollout,
    sample_backward_batch,
    sample_forward_batch,
    score_paths,
)

ENVS = {
    "T(3,4)": lambda: RegularTree(3, 4),
    "H(4,8)": lambda: Hypergrid(4, 8),
    "random_dag": lambda: RandomDag(5, 14),
}
KINDS = ["tabular", "mlp", "uniform-backward"]


def _model(env, kind, seed=0):
    rng = np.random.default_rng(seed)
    model = PolicyModel.build(env, "mlp" if kind == "mlp" else "tabular", hidden=(16, 16),
                              learn_backward=kind != "uniform-backward", rng=rng)
    for net in (model.forward_net, model.backward_net):
        if net is not None and kind != "mlp":
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


@pytest.mark.parametrize("forward", [True, False], ids=["forward", "backward"])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("env_name", list(ENVS))
def test_bulk_sampler_matches_reference(env_name, kind, forward):
    env = ENVS[env_name]()
    model = _model(env, kind)
    starts = _starts(env, forward)
    rng, rng_ref = np.random.default_rng(3), np.random.default_rng(3)
    if forward:
        paths = sample_forward_batch(model, env, rng, len(starts))
    else:
        paths = sample_backward_batch(model, env, rng, starts)
    provenance = "forward-sampled" if forward else "backward-sampled"
    want, want_edges = ref.trajectories_from_paths(
        model, env, ref.walk(model, env, rng_ref, starts, forward), provenance)
    assert rng.random() == rng_ref.random()  # both consumed the same uniforms

    assert ref.path_lists(paths) == [t.states for t in want]
    assert paths.terminals.tolist() == [t.terminating_state for t in want]
    assert paths.provenance.tolist() == [provenance] * len(want)
    assert _same_edges(EdgeBatch.of_paths(model, env, paths), want_edges)
    assert paths.log_pf.tolist() == [t.log_pf for t in want]
    assert paths.log_pb.tolist() == [t.log_pb for t in want]
    got = certify.records_from_trajectories(paths, model.logz)
    expected = ref.records_from_trajectories(want, model.logz)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, expected))


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
    want, want_edges = ref.trajectories_from_paths(model, env, lists, "x")
    assert _same_edges(edges, want_edges)
    assert batch.log_pf.tolist() == [t.log_pf for t in want]
    assert batch.log_pb.tolist() == [t.log_pb for t in want]
    assert batch.provenance.tolist() == ["forward-sampled"] * 16 + ["backward-sampled"] * 16

    # the certificate keeps the forward paths that end in the subset, by mask
    subset = env.terminating_states[::2].tolist()
    bwd = sample_backward_batch(model, env, np.random.default_rng(5), np.repeat(subset, 3))
    fwd = sample_forward_batch(model, env, np.random.default_rng(6), 200)
    report = certify.subgraph_certificate(env, subset, bwd, fwd, model.logz, 0.05)
    kept = [t for t in ref.records(fwd) if t.terminating_state in set(subset)]
    expected = certify.optimize_certificate(
        ref.records_from_trajectories(ref.records(bwd), model.logz),
        ref.records_from_trajectories(kept, model.logz), 0.05, scope="subgraph")
    assert report.n == len(kept) and report.m == len(bwd)
    assert (report.bound, report.raw_bound, report.threshold) == (
        expected.bound, expected.raw_bound, expected.threshold)


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
    want, _ = ref.trajectories_from_paths(
        model, env, oracle.enumerate_trajectory_states(env), "enumerated")
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
    """(rows, cache flag) of every ``Mlp.forward`` call from now on."""
    calls = []
    forward = Mlp.forward

    def recorded(net, x, cache=True):
        calls.append((len(x), cache))
        return forward(net, x, cache)

    monkeypatch.setattr(Mlp, "forward", recorded)
    return calls


def test_blocked_evaluation_matches_one_call(monkeypatch):
    env = Hypergrid(4, 10)
    model = PolicyModel.build(env, "mlp", hidden=(64, 64), rng=np.random.default_rng(0))
    choice = np.flatnonzero(env.forward_mask.sum(axis=1) > 1)
    calls = _record_forward_calls(monkeypatch)
    out, kept = model._eval_rows(model.forward_net, choice, env, cache=False)
    rows = [n for n, _ in calls]
    # near-equal blocks, more than two of them, every one above half the cap
    assert kept is None and len(rows) > 2 and sum(rows) == len(choice)
    assert max(rows) <= policy.EVAL_BLOCK_ROWS < 2 * min(rows)
    assert out.tobytes() == ref.eval_rows(model.forward_net, choice, env).tobytes()
    got, want = exact_terminal_distribution(model, env), ref.exact_terminal_distribution(model, env)
    assert got[0].tolist() == want[0].tolist()
    assert got[1].tobytes() == want[1].tobytes()


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
    # measured: 14.0 MB in one call over all 9,999 choice rows, 3.2 MB in blocks
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
    assert calls and not any(cache for _, cache in calls)

    edges = score_paths(model, env, paths)
    assert edges._fwd is None and edges._bwd is None
    with pytest.raises(ValueError, match="without backward caches"):
        edges.backprop()
    with pytest.raises(ValueError, match="without backward caches"):
        batch_loss(model, env, paths, "tb", backprop=True, edges=edges)
    del calls[:]
    batch_loss(model, env, paths, "tb", backprop=True)
    assert calls and all(cache for _, cache in calls)
