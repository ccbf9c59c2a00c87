import numpy as np
import pytest

from stablegfn.envs import (
    DagEnv,
    EnumerationCapError,
    Hypergrid,
    OneMoreMode,
    RegularTree,
    enumerate_terminating,
    hypergrid_default_r0,
    hypergrid_reward,
    make_env,
    one_more_mode_tree,
    true_partition,
)


def test_hypergrid_reward_center_only_base():
    # |3/7 - 0.5| ~ 0.071: neither indicator fires
    assert hypergrid_reward((3, 3), 8, 0.7, 0.5, 2.0) == 0.7


def test_hypergrid_reward_corner_fires_both():
    assert hypergrid_reward((0, 0), 8, 0.1, 0.5, 2.0) == pytest.approx(2.6)


def test_hypergrid_reward_inner_band_only():
    # |6/7 - 0.5| ~ 0.357: above 0.25, below 0.4
    assert hypergrid_reward((6,), 8, 0.1, 0.5, 2.0) == pytest.approx(0.6)


def test_hypergrid_reward_indicator_is_strict():
    # H=5: |4/4 - 0.5| = 0.5 > 0.4 fires, |3/4 - 0.5| = 0.25 does not (strict)
    assert hypergrid_reward((3,), 5, 0.1, 0.5, 2.0) == pytest.approx(0.1)


def test_default_r0_schedule():
    assert hypergrid_default_r0(8) == pytest.approx(0.1)
    assert hypergrid_default_r0(16) == pytest.approx(1e-3)
    assert hypergrid_default_r0(32) == pytest.approx(1e-5)


def test_default_r0_rejects_degenerate_side():
    with pytest.raises(ValueError):
        hypergrid_default_r0(1)


def test_enumerate_terminating_tree():
    env = RegularTree(3, 2)
    pairs = enumerate_terminating(env)
    assert len(pairs) == 9
    assert sum(r for _, r in pairs) == pytest.approx(9.0)


def test_enumerate_terminating_hypergrid():
    env = Hypergrid(2, 4, r0=0.1)
    assert len(enumerate_terminating(env)) == 16


def test_enumerate_terminating_cap():
    env = RegularTree(2, 3)
    with pytest.raises(EnumerationCapError):
        enumerate_terminating(env, cap=4)


def test_one_more_mode_wrapped_partition():
    eps = 0.25
    base = RegularTree(3, 2)
    promoted = int(base.leaves[-1])
    env = OneMoreMode(base, {promoted: 1.0 - eps})
    assert true_partition(env) == pytest.approx(9.0 + (1.0 - eps))


def test_one_more_mode_shares_the_base_graph():
    base = RegularTree(3, 2)
    promoted = int(base.leaves[-1])
    env = OneMoreMode(base, {promoted: 0.5})
    for name in DagEnv.GRAPH_ATTRS + ("terminating_states",):
        assert getattr(env, name) is getattr(base, name), name
    assert env.encoding_matrix is base.encoding_matrix
    assert env.reward(promoted) == 1.5 and base.reward(promoted) == 1.0
    assert env.describe() == {
        "kind": "one_more_mode",
        "base": {"kind": "tree", "branching": 3, "depth": 2, "leaf_rewards": [1.0] * 9},
        "added": {str(promoted): 0.5},
    }


def test_one_more_mode_tree_partitions():
    prev, new = one_more_mode_tree(3, 2, 0.1)
    assert true_partition(prev) == pytest.approx(8.1)
    assert true_partition(new) == pytest.approx(9.0)


def test_one_more_mode_tree_epsilon_one_is_identity():
    prev, new = one_more_mode_tree(2, 2, 1.0)
    assert np.array_equal(prev.reward_table, new.reward_table)


def test_one_more_mode_small_case():
    prev, new = one_more_mode_tree(2, 1, 0.5)
    assert [prev.reward(int(x)) for x in prev.leaves] == [1.0, 0.5]
    assert [new.reward(int(x)) for x in prev.leaves] == [1.0, 1.0]  # same graph


def test_one_more_mode_rejects_bad_epsilon():
    with pytest.raises(ValueError):
        one_more_mode_tree(2, 2, 0.0)
    with pytest.raises(ValueError):
        one_more_mode_tree(2, 2, -0.1)


@pytest.mark.parametrize(
    "env",
    [
        RegularTree(2, 3),
        RegularTree(3, 2, leaf_rewards=np.linspace(0.5, 2.0, 9)),
        Hypergrid(2, 4, r0=0.1),
        Hypergrid(3, 3, r0=0.1),
        one_more_mode_tree(2, 2, 0.3)[1],
    ],
)
def test_structure_invariants(env):
    # topological sort covered every state (acyclic)
    assert len(env.topological_order) == env.num_states
    # parent/child symmetry on every edge
    for s in range(env.num_states):
        for c in env.children(s):
            if c != env.sink:
                assert s in env.parents(int(c))
        for p in env.parents(s):
            assert s in env.children(int(p))
    # source/sink and terminal shape
    assert len(env.parents(env.initial_state)) == 0
    assert len(env.children(env.sink)) == 0
    for x in env.terminating_states:
        assert list(env.children(int(x))) == [env.sink]
        assert env.reward(int(x)) > 0


def test_tree_backward_is_deterministic():
    env = RegularTree(3, 3)
    for s in range(env.num_states):
        if s not in (env.initial_state, env.sink):
            assert len(env.parents(s)) == 1


def test_hypergrid_action_count():
    env = Hypergrid(2, 4, r0=0.1)
    for idx in range(env.n_grid):
        coords = env.grid_point(idx)
        expected = sum(1 for x in coords if x < env.side - 1) + 1
        assert len(env.children(idx)) == expected


def test_hypergrid_terminal_count_and_modes():
    env = Hypergrid(2, 8, r0=0.1, r1=0.5, r2=2.0)
    assert len(env.terminating_states) == 64
    modes = env.mode_states()
    assert len(modes) == 4
    corners = {(0, 0), (0, 7), (7, 0), (7, 7)}
    assert {env.grid_point(int(m)) for m in modes} == corners


def test_encoding_shapes():
    tree = RegularTree(2, 2)
    assert tree.encode(3).shape == (tree.num_states,)
    grid = Hypergrid(2, 4, r0=0.1)
    v = grid.encode(5)
    assert v.shape == (8,)
    assert v.sum() == 2.0  # one hot per coordinate


def test_make_env_round_trip():
    env = make_env({"kind": "tree", "branching": 3, "depth": 2})
    assert isinstance(env, RegularTree)
    env = make_env({"kind": "hypergrid", "dimension": 2, "side": 8, "r0": 0.1})
    assert isinstance(env, Hypergrid)
    env = make_env({"kind": "one_more_mode", "branching": 2, "depth": 2, "epsilon": 0.1})
    assert isinstance(env, OneMoreMode)
    with pytest.raises(ValueError):
        make_env({"kind": "mystery"})


def test_rewards_zero_off_terminals():
    env = Hypergrid(2, 4, r0=0.1)
    for s in range(env.num_states):
        if not env.is_terminating(s):
            assert env.reward(s) == 0.0
