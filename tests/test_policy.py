import math

import numpy as np
import pytest

from stablegfn.envs import Hypergrid, RegularTree
from stablegfn.policy import (
    PolicyModel,
    Trajectory,
    _draw_rows,
    exact_terminal_distribution,
    proportional_draw,
    read_trajectory_log,
    rollout,
    sample_backward_batch,
    sample_forward_batch,
    trajectories_from_paths,
    trajectory_log_probs,
    write_trajectory_log,
)
from stablegfn.trainer import rng_for

from random_dag import random_dags


def random_model(env, kind="tabular", seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    model = PolicyModel.build(env, kind, hidden=(8, 8), learn_backward=True, rng=rng)
    if kind == "tabular":
        model.forward_net.table[...] = rng.normal(0, noise, model.forward_net.table.shape)
        model.backward_net.table[...] = rng.normal(0, noise, model.backward_net.table.shape)
    model.set_logz(float(rng.normal()))
    return model


def walk(model, env, rng, starts, forward=True, epsilon=0.0):
    """Trajectories with log-probs along :func:`rollout` paths."""
    paths = rollout(model, env, rng, starts, forward, epsilon)
    provenance = "forward-sampled" if forward else "backward-sampled"
    return trajectories_from_paths(model, env, paths, provenance)[0]


def reference_walk(model, env, rng, start, forward=True, epsilon=0.0):
    """One path drawn state by state, evaluating the policy row at every step."""
    row_at = model.forward_row if forward else model.backward_row
    end = env.sink if forward else env.initial_state
    s, seq = int(start), [int(start)]
    while s != end:
        _, nxt, lp = row_at(s, env)
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
        _, _, lp = model.forward_row(s, env)
        assert abs(np.exp(lp).sum() - 1.0) < 1e-12
        _, parents, lp = model.backward_row(s, env)
        if len(parents):
            assert abs(np.exp(lp).sum() - 1.0) < 1e-12


def test_uniform_model_tree_leaf_probs():
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular")   # zero logits = uniform
    rng = np.random.default_rng(0)
    (t,) = walk(model, env, rng, [env.initial_state])
    assert t.log_pf == pytest.approx(math.log(0.5), abs=1e-12)
    assert t.log_pb == 0.0  # unique parents


def test_epsilon_one_samples_uniformly():
    env = RegularTree(3, 1)
    model = PolicyModel.build(env, "tabular")
    # bias the policy hard toward leaf 0; epsilon-mixing must still explore
    model.forward_net.table[0] = [49.0, 0.0, 0.0]
    rng = np.random.default_rng(1)
    counts = np.zeros(3)
    n = 30_000
    for path in rollout(model, env, rng, [env.initial_state] * n, epsilon=0.999999999):
        counts[path[-2] - 1] += 1
    assert np.all(np.abs(counts / n - 1 / 3) < 0.01)


def test_deterministic_policy_always_same_trajectory():
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[...] = 0.0
    model.forward_net.table[0, 1] = 50.0
    model.forward_net.table[2, 0] = 50.0
    rng = np.random.default_rng(0)
    first, *rest = rollout(model, env, rng, [env.initial_state] * 21)
    for path in rest:
        assert path == first


def test_exploration_not_in_recorded_log_probs():
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[0] = [2.0, 0.0]
    rng = np.random.default_rng(0)
    expected = {1: None, 2: None}
    _, _, lp = model.forward_row(0, env)
    expected[1], expected[2] = float(lp[0]), float(lp[1])
    for t in walk(model, env, rng, [env.initial_state] * 50, epsilon=0.9):
        assert t.log_pf == expected[t.terminating_state]


def test_backward_sampling_tree_is_deterministic():
    env = RegularTree(3, 2)
    model = random_model(env)
    rng = np.random.default_rng(0)
    x = int(env.leaves[4])
    (t,) = walk(model, env, rng, [x], forward=False)
    assert t.states[0] == env.initial_state
    assert t.states[-1] == env.sink
    assert t.terminating_state == x
    assert t.log_pb == 0.0
    assert t.provenance == "backward-sampled"


def test_backward_sampling_grid_lattice_paths():
    env = Hypergrid(2, 3, r0=0.1)
    model = PolicyModel.build(env, "tabular", learn_backward=False)  # uniform backward
    rng = np.random.default_rng(0)
    x = env.n_grid + 1 * 3 + 1  # terminal copy of (1, 1)
    seen = set()
    for t in walk(model, env, rng, [x] * 64, forward=False):
        assert t.log_pb == pytest.approx(math.log(0.5), abs=1e-12)
        seen.add(tuple(t.states))
    assert len(seen) == 2  # the two monotone lattice paths


def test_backward_sampling_rejects_non_terminal():
    env = RegularTree(2, 2)
    model = random_model(env)
    with pytest.raises(ValueError):
        rollout(model, env, np.random.default_rng(0), [0], forward=False)


def test_single_edge_backward_trajectory():
    env = RegularTree(2, 1)
    model = random_model(env)
    (t,) = walk(model, env, np.random.default_rng(0), [env.leaves[0]], forward=False)
    assert len(t.states) == 3  # s0 -> leaf -> sink


@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_cached_log_probs_recompute_exactly(kind):
    env = Hypergrid(2, 4, r0=0.1)
    model = random_model(env, kind)
    trajs = walk(model, env, np.random.default_rng(5), [env.initial_state] * 10, epsilon=0.1)
    lpf, lpb = trajectory_log_probs(model, env, trajs)
    assert [t.log_pf for t in trajs] == lpf.tolist()
    assert [t.log_pb for t in trajs] == lpb.tolist()
    # and they agree with the per-edge definitions
    for t in trajs:
        edges = list(zip(t.states[:-1], t.states[1:]))
        assert t.log_pf == pytest.approx(sum(model.log_pf_edge(a, b, env) for a, b in edges),
                                         abs=1e-12)
        assert t.log_pb == pytest.approx(sum(model.log_pb_edge(a, b, env) for a, b in edges),
                                         abs=1e-12)


@pytest.mark.parametrize("env", [RegularTree(3, 3), Hypergrid(2, 4, r0=0.1)],
                         ids=["tree", "hypergrid"])
@pytest.mark.parametrize("kind", ["tabular", "mlp"])
def test_rollout_keeps_the_per_state_stream(env, kind):
    model = random_model(env, kind, seed=4)
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    starts = [env.initial_state] * 20
    assert rollout(model, env, rng, starts, epsilon=0.1) == [
        reference_walk(model, env, ref, s, epsilon=0.1) for s in starts
    ]
    xs = np.random.default_rng(8).choice(env.terminating_states, size=20)
    assert rollout(model, env, rng, xs, forward=False) == [
        reference_walk(model, env, ref, x, forward=False) for x in xs
    ]
    assert rng.random() == ref.random()  # both consumed the same uniforms


def test_rollout_rows_do_not_outlive_a_call():
    env = RegularTree(2, 2)
    model = PolicyModel.build(env, "tabular")
    _, children = env.forward_slots(env.initial_state)
    rng = np.random.default_rng(0)
    model.forward_net.table[env.initial_state] = [50.0, -50.0]
    first = rollout(model, env, rng, [env.initial_state] * 8)
    model.forward_net.table[env.initial_state] = [-50.0, 50.0]
    second = rollout(model, env, rng, [env.initial_state] * 8)
    assert {p[1] for p in first} == {children[0]}
    assert {p[1] for p in second} == {children[1]}


def test_backward_then_forward_consistency():
    env = Hypergrid(2, 4, r0=0.1)
    model = random_model(env)
    rng = np.random.default_rng(2)
    for t in walk(model, env, rng, env.terminating_states[:8], forward=False):
        assert math.isfinite(t.log_pf)
        for a, b in zip(t.states[:-1], t.states[1:]):
            assert b in env.children(a)


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
                _, children, lp = model.forward_row(int(s), env)
                probs = np.exp(lp)
                draws = rng.choice(len(children), size=int(here.sum()), p=probs / probs.sum())
                if env.is_terminating(int(s)):
                    done[here] = s
                cur[here] = children[draws]
        freq = np.array([(done == x).mean() for x in xs])
        assert np.abs(freq - p).max() < 0.005


def test_batch_samplers_agree_with_law():
    env = RegularTree(3, 2)
    model = random_model(env, seed=3)
    rng = rng_for(0, "batch")
    trajs = sample_forward_batch(model, env, rng, 4000)
    xs, p = exact_terminal_distribution(model, env)
    counts = {int(x): 0 for x in xs}
    for t in trajs:
        counts[t.terminating_state] += 1
        # cached values recompute exactly under the batched evaluator
        assert math.isfinite(t.log_pf)
    freq = np.array([counts[int(x)] / 4000 for x in xs])
    assert np.abs(freq - p).max() < 0.05

    lpf, lpb = trajectory_log_probs(model, env, trajs[:50])
    for t, f, b in zip(trajs[:50], lpf, lpb):
        assert t.log_pf == pytest.approx(float(f), abs=1e-12)
        assert t.log_pb == pytest.approx(float(b), abs=1e-12)


def test_backward_batch_matches_single(tmp_path):
    env = Hypergrid(2, 3, r0=0.1)
    model = random_model(env, seed=9)
    rng = rng_for(1, "bwd")
    xs = np.array([env.n_grid + 4, env.n_grid + 8], dtype=np.int64)
    trajs = sample_backward_batch(model, env, rng, xs)
    for t, x in zip(trajs, xs):
        assert t.terminating_state == int(x)
        assert t.states[0] == env.initial_state

    path = tmp_path / "log.jsonl"
    write_trajectory_log(str(path), trajs)
    back = read_trajectory_log(str(path))
    assert [t.states for t in back] == [t.states for t in trajs]
    assert [t.log_pf for t in back] == [t.log_pf for t in trajs]
    assert [t.provenance for t in back] == ["backward-sampled", "backward-sampled"]


def test_logit_clamp_applies_to_policy():
    env = RegularTree(2, 1)
    model = PolicyModel.build(env, "tabular")
    model.forward_net.table[0] = [90.0, 0.0]
    _, _, lp = model.forward_row(0, env)
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
    probs = np.array([[0.0, 0.5, 0.5], [0.25, 0.0, 0.75]])
    top = 1.0 - 2.0**-53
    assert _draw_rows(_FixedUniforms([0.0, 0.0]), probs).tolist() == [1, 0]
    assert _draw_rows(_FixedUniforms([top, top]), probs).tolist() == [2, 2]
    rng = np.random.default_rng(1)
    picks = np.array([_draw_rows(rng, probs) for _ in range(20_000)])
    assert not np.any(picks[:, 0] == 0) and not np.any(picks[:, 1] == 1)
    assert abs((picks[:, 1] == 2).mean() - 0.75) < 0.015
