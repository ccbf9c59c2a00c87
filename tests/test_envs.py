import numpy as np
import pytest

from stablegfn.envs import (
    DagEnv,
    Hypergrid,
    OneMoreMode,
    RegularTree,
    hypergrid_default_r0,
    hypergrid_reward,
    make_env,
    one_more_mode_tree,
    true_partition,
)
from random_dag import random_dags


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
        *random_dags(),
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


@pytest.mark.parametrize(
    "env",
    [RegularTree(2, 3), Hypergrid(3, 3, r0=0.1), *random_dags(range(8))],
    ids=lambda env: env.kind,
)
def test_levels_are_longest_distances(env):
    level = np.full(env.num_states, -1)
    for k, states in enumerate(env.levels):
        level[states] = k
    assert np.all(level >= 0)
    assert np.array_equal(env.topological_order, np.concatenate(env.levels))
    assert list(env.levels[0]) == [env.initial_state]
    # every edge goes to a higher level, and each state sits one above its highest parent
    assert np.all(level[env.edge_dst] > level[env.edge_src])
    highest_parent = np.full(env.num_states, -1)
    np.maximum.at(highest_parent, env.edge_dst, level[env.edge_src])
    assert np.array_equal(level[1:], highest_parent[1:] + 1)
    # edges grouped by their source's level, in edge order within a level
    for k, e in enumerate(env.level_edges):
        assert np.all(np.diff(e) > 0) and np.all(level[env.edge_src[e]] == k)
    assert sorted(np.concatenate(env.level_edges)) == list(range(env.num_edges))


class _Graph(DagEnv):
    def __init__(self, num_states, sink, edges, terminating):
        super().__init__(num_states, sink, edges, {x: 1.0 for x in terminating},
                         np.full(num_states, -1), feature_dim=1)


def test_rejects_dead_ends_and_extra_sources():
    # 0 -> 1 and 0 -> 2 -> sink: state 1 never terminates and has no children
    with pytest.raises(ValueError, match="state 1 has no children"):
        _Graph(4, 3, [(0, 1, 0, 0), (0, 2, 1, 0), (2, 3, 0, 0)], [2])
    # 0 -> 1 -> sink and 2 -> 1: state 2 is a second source
    with pytest.raises(ValueError, match="state 2 has no parents"):
        _Graph(4, 3, [(0, 1, 0, 0), (2, 1, 0, 1), (1, 3, 0, 0)], [1])
    _Graph(3, 2, [(0, 1, 0, 0), (1, 2, 0, 0)], [1])  # the smallest valid graph


def test_rejects_duplicate_slots_and_cycles():
    with pytest.raises(ValueError, match="duplicate forward slot 0 at state 0"):
        _Graph(4, 3, [(0, 1, 0, 0), (0, 2, 0, 0), (1, 3, 0, 0), (2, 3, 0, 0)], [1, 2])
    with pytest.raises(ValueError, match="duplicate backward slot 0 at state 2"):
        _Graph(4, 3, [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 0, 0), (2, 3, 0, 0)], [2])
    with pytest.raises(ValueError, match="cycle"):
        _Graph(4, 3, [(0, 1, 0, 0), (1, 2, 0, 0), (2, 1, 1, 1), (2, 3, 0, 0)], [2])


def _tree_reference(g, h):
    """The per-node loop RegularTree was built with: (edges, rewards)."""
    sizes = [g**k for k in range(h + 1)]
    offsets = np.cumsum([0] + sizes)
    sink = int(offsets[-1])
    edges = []
    for k in range(h):
        base, nxt = offsets[k], offsets[k + 1]
        for j in range(sizes[k]):
            for a in range(g):
                edges.append((base + j, nxt + j * g + a, a, 0))
    leaves = range(offsets[h], offsets[h] + sizes[h])
    edges += [(int(x), sink, 0, 0) for x in leaves]
    return edges, {int(x): 1.0 for x in leaves}


def _grid_reference(D, H, r0, r1, r2):
    """The per-point loop Hypergrid was built with: (edges, rewards)."""
    n_grid, sink = H**D, 2 * H**D
    strides = [H ** (D - 1 - i) for i in range(D)]
    edges, rewards = [], {}
    for idx in range(n_grid):
        rest, coords = idx, []
        for st in strides:
            q, rest = divmod(rest, st)
            coords.append(q)
        for i in range(D):
            if coords[i] < H - 1:
                edges.append((idx, idx + strides[i], i, i))
        edges.append((idx, n_grid + idx, D, 0))
        edges.append((n_grid + idx, sink, 0, 0))
        u = [abs(xi / (H - 1) - 0.5) for xi in coords]
        inner, corner = all(ui > 0.25 for ui in u), all(ui > 0.4 for ui in u)
        rewards[n_grid + idx] = r0 + (r1 if inner else 0.0) + (r2 if corner else 0.0)
    return edges, rewards


@pytest.mark.parametrize("shape", [("tree", 3, 4), ("tree", 2, 5), ("grid", 4, 8),
                                   ("grid", 2, 16), ("grid", 4, 16), ("grid", 1, 5),
                                   ("grid", 3, 2)], ids=str)
def test_builders_match_loop_reference(shape):
    kind, a, b = shape
    if kind == "tree":
        env = RegularTree(a, b)
        edges, rewards = _tree_reference(a, b)
    else:
        env = Hypergrid(a, b)
        edges, rewards = _grid_reference(a, b, env.r0, env.r1, env.r2)
    ref = np.array(edges, dtype=np.int64)
    assert np.array_equal(np.stack([env.edge_src, env.edge_dst, env.edge_fslot, env.edge_bslot], 1), ref)
    child = np.full_like(env.child_matrix, -1)
    parent = np.full_like(env.parent_matrix, -1)
    for s, t, fs, bs in edges:
        child[s, fs] = t
        if t != env.sink:
            parent[t, bs] = s
    assert np.array_equal(env.child_matrix, child)
    assert np.array_equal(env.parent_matrix, parent)
    table = np.zeros(env.num_states)
    table[list(rewards)] = list(rewards.values())
    assert np.array_equal(env.reward_table, table)


def test_hypergrid_reward_accepts_coordinate_arrays():
    coords = np.array([[3, 3], [0, 0], [6, 1], [7, 0]])
    vec = hypergrid_reward(coords, 8, 0.1, 0.5, 2.0)
    assert vec.shape == (4,)
    assert list(vec) == [hypergrid_reward(tuple(x), 8, 0.1, 0.5, 2.0) for x in coords]


def test_tree_backward_is_deterministic():
    env = RegularTree(3, 3)
    for s in range(env.num_states):
        if s not in (env.initial_state, env.sink):
            assert len(env.parents(s)) == 1


def test_hypergrid_action_count():
    env = Hypergrid(2, 4, r0=0.1)
    for idx in range(env.n_grid):
        coords = np.unravel_index(idx, (env.side,) * env.dimension)
        expected = sum(1 for x in coords if x < env.side - 1) + 1
        assert len(env.children(idx)) == expected


def test_hypergrid_terminal_count_and_modes():
    env = Hypergrid(2, 8, r0=0.1, r1=0.5, r2=2.0)
    assert len(env.terminating_states) == 64
    modes = np.flatnonzero(env.mode_mask)
    assert len(modes) == 4
    corners = {(0, 0), (0, 7), (7, 0), (7, 7)}
    coords = np.unravel_index(modes - env.n_grid, (env.side,) * env.dimension)
    assert set(zip(*(c.tolist() for c in coords))) == corners


def test_encoding_shapes():
    tree = RegularTree(2, 2)
    assert tree.encoding_matrix[3].shape == (tree.num_states,)
    grid = Hypergrid(2, 4, r0=0.1)
    v = grid.encoding_matrix[5]
    assert v.shape == (8,)
    assert v.sum() == 2.0  # one hot per coordinate


def _reference_encode(env, s):
    """The per-state ``encode`` the environments had before ``features``."""
    if isinstance(env, OneMoreMode):
        return _reference_encode(env.base, s)
    v = np.zeros(env.feature_dim)
    if isinstance(env, Hypergrid):
        idx = s if s < env.n_grid else s - env.n_grid
        for i in range(env.dimension):
            q, idx = divmod(idx, env.side ** (env.dimension - 1 - i))
            v[i * env.side + q] = 1.0
    else:  # RegularTree, RandomDag: one column per state
        v[s] = 1.0
    return v


@pytest.mark.parametrize(
    "env",
    [RegularTree(3, 4), RegularTree(2, 5), Hypergrid(4, 8), Hypergrid(2, 16),
     Hypergrid(1, 5), Hypergrid(3, 2), one_more_mode_tree(3, 2, 0.2)[1], *random_dags((5,))],
    ids=lambda env: f"{env.kind}{env.num_states}",
)
def test_features_match_encode_reference(env):
    ref = np.zeros((env.num_states, env.feature_dim))
    for s in range(env.num_states):
        if s != env.sink:
            ref[s] = _reference_encode(env, s)
    mat = env.encoding_matrix
    assert mat.dtype == ref.dtype and mat.tobytes() == ref.tobytes()


def _reference_modes(env):
    """The mode predicate the oracle had before ``mode_mask``, over terminating states."""
    xs = env.terminating_states
    if isinstance(env, Hypergrid):  # its old mode_states: the full plateau
        peak = env.r0 + env.r1 + env.r2
        modes = set(int(x) for x in xs[np.isclose(env.reward_table[xs], peak, rtol=0, atol=1e-12)])
        return np.array([int(x) in modes for x in xs])
    rmax = float(env.reward_table[xs].max())
    return np.array([env.reward_table[int(x)] >= rmax - 1e-12 for x in xs])


def _grid_promoted(D, H):
    base = Hypergrid(D, H, r0=0.1)
    center = base.n_grid + (base.n_grid - 1) // 2
    return OneMoreMode(base, {center: 5.0})


@pytest.mark.parametrize(
    "env",
    [RegularTree(2, 3), RegularTree(3, 2, leaf_rewards=np.linspace(0.5, 2.0, 9)),
     RegularTree(2, 3, leaf_rewards=[1, 3, 2, 3, 3 - 1e-13, 0.5, 3 - 1e-11, 1]),
     Hypergrid(2, 8, r0=0.1), Hypergrid(3, 5), Hypergrid(2, 8, r0=0.1, r1=0.0, r2=0.0),
     Hypergrid(4, 4, r0=1.0, r1=0.3, r2=0.7),
     one_more_mode_tree(3, 2, 0.2)[0], one_more_mode_tree(3, 2, 0.2)[1],
     OneMoreMode(RegularTree(2, 2, leaf_rewards=[1, 2, 2, 1]), {3: 1.0}),
     _grid_promoted(2, 8), _grid_promoted(3, 5), *random_dags()],
    ids=lambda env: f"{env.kind}{env.num_states}",
)
def test_mode_mask_matches_predicate_reference(env):
    xs = env.terminating_states
    assert env.mode_mask.dtype == bool and env.mode_mask.shape == (env.num_states,)
    assert np.array_equal(env.mode_mask[xs], _reference_modes(env))
    assert not env.mode_mask[~env.terminating_mask].any()


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
