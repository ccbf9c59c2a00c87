import math

import numpy as np
import pytest

from stablegfn import envs, oracle
from stablegfn.envs import (
    DagEnv,
    EnumerationCapError,
    Hypergrid,
    RegularTree,
    one_more_mode_tree,
    true_partition,
)
from stablegfn.oracle import (
    balanced_flows,
    balanced_tabular_model,
    count_modes,
    empirical_total_l1,
    enumerate_trajectories,
    enumerate_trajectory_states,
    exact_tv,
    one_more_mode_tv_closed_form,
)
from stablegfn.policy import PolicyModel, exact_terminal_distribution, sample_forward_batch
from stablegfn.losses import batch_loss
from stablegfn.trainer import rng_for

import numeric_reference as ref
from random_dag import RandomDag, kind_id


class ChainEnv(DagEnv):
    def __init__(self):
        src, zeros = np.arange(3), np.zeros(3, dtype=np.int64)
        super().__init__(3, src, src + 1, zeros, zeros, np.array([2]), np.ones(1), [0, 1, 2, -1],
                         feature_dim=4)


def test_exact_tv_balanced_model_is_zero():
    env = RegularTree(3, 2, leaf_rewards=np.linspace(0.5, 3.0, 9))
    model = balanced_tabular_model(env, flow_head=False)
    assert exact_tv(model, env) < 1e-12


def test_exact_tv_uniform_policy_skewed_reward():
    env = RegularTree(2, 1, leaf_rewards=[1.0, 2.0])
    model = PolicyModel.build(env, "tabular")  # uniform
    assert exact_tv(model, env) == pytest.approx(1.0 / 6.0, abs=1e-12)


def test_exact_tv_matches_closed_form():
    env_prev, env_new = one_more_mode_tree(3, 2, 0.1)
    model = balanced_tabular_model(env_prev, flow_head=False)
    assert exact_tv(model, env_new) == pytest.approx(
        one_more_mode_tv_closed_form(3, 2, 0.1), abs=1e-12
    )
    assert one_more_mode_tv_closed_form(3, 2, 0.1) == pytest.approx(0.0987654, abs=1e-6)


def test_tv_is_half_total_l1():
    env = RegularTree(2, 2)
    rng = np.random.default_rng(0)
    model = PolicyModel.build(env, "tabular", rng=rng)
    model.forward_net.table[...] = rng.normal(0, 1, model.forward_net.table.shape)
    # the terminal law summed over every enumerated trajectory, apart from the DP
    paths = enumerate_trajectories(model, env)
    p_t = np.bincount(paths.terminals, weights=np.exp(paths.log_pf), minlength=env.num_states)
    l1 = np.abs(p_t[env.terminating_states] - envs.target_distribution(env)).sum()
    assert exact_tv(model, env) == pytest.approx(l1 / 2, abs=1e-12)


def test_empirical_l1_point_mass_on_uniform_target():
    env = RegularTree(3, 2)
    x0 = int(env.terminating_states[0])
    l1 = empirical_total_l1([x0] * 100, env)
    assert l1 == pytest.approx(16.0 / 9.0, abs=1e-12)


def test_empirical_l1_decreases_with_sample_count():
    env = RegularTree(3, 2, leaf_rewards=np.linspace(0.5, 2.0, 9))
    model = balanced_tabular_model(env, flow_head=False)
    values = []
    for n in (1_000, 10_000, 100_000):
        rng = rng_for(0, f"l1.{n}")
        trajs = sample_forward_batch(model, env, rng, n)
        values.append(empirical_total_l1(trajs.terminals.tolist(), env))
    assert values[0] > values[1] > values[2]


def test_empirical_l1_missing_support_lower_bound():
    env = Hypergrid(2, 4, r0=0.1)
    xs = env.terminating_states
    half = xs[: len(xs) // 2]
    probs = env.reward_table[xs] / env.reward_table[xs].sum()
    missing_mass = probs[len(xs) // 2:].sum()
    l1 = empirical_total_l1(list(half) * 10, env)
    assert l1 >= missing_mass


def test_empirical_l1_rejects_empty():
    env = RegularTree(2, 1)
    with pytest.raises(ValueError):
        empirical_total_l1([], env)


def test_empirical_l1_matches_per_sample_reference():
    env = Hypergrid(2, 8, r0=0.1)
    xs = env.terminating_states
    rng = np.random.default_rng(4)
    for samples in (rng.choice(xs, 5000), xs[:3], [int(xs[7])] * 11):
        pos = {int(x): i for i, x in enumerate(xs)}
        counts = np.zeros(len(xs))
        for s in samples:
            counts[pos[int(s)]] += 1
        ref = float(np.abs(counts / len(samples) - env.reward_table[xs] / env.reward_table[xs].sum()).sum())
        assert empirical_total_l1(samples, env) == ref
        assert empirical_total_l1(list(samples), env) == ref


@pytest.mark.parametrize("bad", [0, 5, 32, -1, 10**6, 18.9])
def test_empirical_l1_rejects_non_terminating_samples(bad):
    env = Hypergrid(2, 4, r0=0.1)  # active copies 0..15, terminal copies 16..31, sink 32
    samples = [int(env.terminating_states[0]), bad]
    with pytest.raises(ValueError, match=f"sample {bad} is not a terminating state"):
        empirical_total_l1(samples, env)


@pytest.mark.parametrize("bad", [0, 5, 32, -1, 33, 18.9])
def test_count_modes_rejects_non_terminating_samples(bad):
    env = Hypergrid(2, 4, r0=0.1)  # active copies 0..15, terminal copies 16..31, sink 32
    samples = [int(env.terminating_states[0]), bad]
    with pytest.raises(ValueError, match=f"^sample {bad} is not a terminating state$"):
        count_modes(samples, env)


def test_count_modes_hypergrid():
    env = Hypergrid(2, 8, r0=0.1, r1=0.5, r2=2.0)
    assert count_modes(env.terminating_states, env) == 4
    assert count_modes([], env) == 0
    one = int(np.flatnonzero(env.mode_mask)[0])
    assert count_modes([one, one, one], env) == 1


def test_balanced_model_uniform_on_unit_tree():
    env = RegularTree(3, 2)
    model = balanced_tabular_model(env, flow_head=False)
    _, p = exact_terminal_distribution(model, env)
    assert np.allclose(p, 1 / 9, atol=1e-14)


def test_balanced_model_spec_example():
    env = RegularTree(2, 1, leaf_rewards=[1.0, 2.0])
    model = balanced_tabular_model(env, flow_head=False)
    _, p = exact_terminal_distribution(model, env)
    assert p == pytest.approx([1 / 3, 2 / 3], abs=1e-14)
    assert model.logz == pytest.approx(math.log(3.0), abs=1e-14)


def test_balanced_model_zero_tv_on_random_envs():
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        if i % 2 == 0:
            depth = int(rng.integers(1, 4))
            env = RegularTree(2, depth, leaf_rewards=rng.uniform(0.1, 3.0, 2**depth))
        else:
            env = Hypergrid(2, int(rng.integers(2, 5)), r0=float(rng.uniform(0.05, 1.0)))
        model = balanced_tabular_model(env, flow_head=False)
        assert exact_tv(model, env) < 1e-10


def test_enumerate_trajectory_counts():
    assert len(enumerate_trajectory_states(RegularTree(3, 2))) == 9
    assert len(enumerate_trajectory_states(ChainEnv())) == 1
    # monotone lattice paths into each cell of a 3x3 grid, one exit each
    env = Hypergrid(2, 3, r0=0.1)
    expected = sum(
        math.comb(x + y, x) for x in range(3) for y in range(3)
    )
    assert len(enumerate_trajectory_states(env)) == expected


def test_state_cap_refuses_exact_passes(monkeypatch):
    env = RegularTree(2, 2)  # 8 states
    model = PolicyModel.build(env, "tabular")
    monkeypatch.setattr(envs, "STATE_CAP", 7)  # read when a pass runs, not when defined
    for exact_pass in (lambda: exact_terminal_distribution(model, env),
                       lambda: exact_tv(model, env), lambda: balanced_flows(env),
                       lambda: balanced_tabular_model(env)):
        with pytest.raises(EnumerationCapError, match="8 states exceed STATE_CAP = 7"):
            exact_pass()
    monkeypatch.setattr(envs, "STATE_CAP", 8)
    assert exact_tv(balanced_tabular_model(env), env) < 1e-12


def test_trajectory_cap_refuses_enumeration(monkeypatch):
    env = RegularTree(3, 2)  # 9 trajectories
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", 8)
    with pytest.raises(EnumerationCapError, match="more than TRAJECTORY_CAP = 8 trajectories"):
        enumerate_trajectory_states(env)
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", 9)
    assert len(enumerate_trajectories(PolicyModel.build(env, "tabular"), env)) == 9


@pytest.mark.parametrize("env", [RegularTree(3, 3), Hypergrid(2, 6), RandomDag(3, 30)],
                         ids=kind_id)
def test_enumeration_matches_the_recursive_reference(env):
    if isinstance(env, RandomDag):  # has edges that skip levels, not only into the sink
        level = np.empty(env.num_states, dtype=np.int64)
        for k, states in enumerate(env.levels):
            level[states] = k
        inner = env.edge_dst != env.sink
        assert np.any(level[env.edge_dst[inner]] - level[env.edge_src[inner]] > 1)
    assert enumerate_trajectory_states(env) == ref.enumerate_paths(env)


def test_enumeration_of_long_paths_needs_no_recursion(monkeypatch):
    env = Hypergrid(1, 1200)  # a path per grid point, up to 1,202 states long
    paths = enumerate_trajectory_states(env)
    assert len(paths) == 1200 and max(map(len, paths)) == 1202
    assert paths == sorted(paths, key=len, reverse=True)  # depth first: the longest first
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", 1200)
    assert enumerate_trajectory_states(env) == paths
    monkeypatch.setattr(oracle, "TRAJECTORY_CAP", 1199)
    with pytest.raises(EnumerationCapError):
        enumerate_trajectory_states(env)


def test_enumerated_trajectories_carry_exact_probs():
    env = RegularTree(2, 2)
    rng = np.random.default_rng(1)
    model = PolicyModel.build(env, "tabular", rng=rng)
    model.forward_net.table[...] = rng.normal(0, 0.8, model.forward_net.table.shape)
    trajs = enumerate_trajectories(model, env)
    total = sum(math.exp(f) for f in trajs.log_pf.tolist())
    assert total == pytest.approx(1.0, abs=1e-12)
    _, p = exact_terminal_distribution(model, env)
    by_x = {int(x): float(v) for x, v in zip(env.terminating_states, p)}
    for x, f in zip(trajs.terminals.tolist(), trajs.log_pf.tolist()):  # tree: one per leaf
        assert math.exp(f) == pytest.approx(by_x[x], abs=1e-12)


def test_balanced_flow_identities():
    env = Hypergrid(2, 3, r0=0.2)
    flows = balanced_flows(env)
    assert flows.state_flows[env.initial_state] == pytest.approx(
        true_partition(env), rel=1e-12
    )
    # state and edge flows recomputed from trajectory flows match stored values
    state_acc = np.zeros(env.num_states)
    edge_acc = np.zeros(env.num_edges)
    edge_of = {}
    for e in range(env.num_edges):
        edge_of[(int(env.edge_src[e]), int(env.edge_dst[e]))] = e
    npar = env.backward_mask.sum(axis=1)
    for path in enumerate_trajectory_states(env):
        f = env.reward_table[path[-2]] / np.prod(npar[path[1:-1]])  # split at each state entered
        for s in path[:-1]:
            state_acc[s] += f
        for a, b in zip(path[:-1], path[1:]):
            edge_acc[edge_of[(a, b)]] += f
    np.testing.assert_allclose(state_acc[: env.sink], flows.state_flows[: env.sink],
                               rtol=1e-10)
    np.testing.assert_allclose(edge_acc, flows.edge_flows, rtol=1e-10)


def test_balanced_model_zero_loss_on_enumerated_objects():
    env = Hypergrid(2, 3, r0=0.3)
    model = balanced_tabular_model(env, flow_head=True)
    trajs = enumerate_trajectories(model, env)
    for objective in ("tb", "db", "fm", "subtb"):
        report = batch_loss(model, env, trajs, objective)
        assert report.max_item < 1e-10, objective
