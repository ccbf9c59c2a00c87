import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from stablegfn import envs
from stablegfn.config import resolve
from stablegfn.envs import (
    DagEnv,
    EnumerationCapError,
    Hypergrid,
    OneMoreMode,
    RegularTree,
    hypergrid_default_r0,
    hypergrid_reward,
    make_env,
    one_more_mode_tree,
    sorted_unique,
    true_partition,
)
from stablegfn.losses import terminal_reach_counts
from loss_reference import children, parents
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
    terminal_reach_counts(base)  # fills the base's cache, which the increment recomputes
    promoted = int(base.leaves[-1])
    env = OneMoreMode(base, {promoted: 0.5})
    own = ("reward_table", "mode_mask", "_reach_counts")  # derived from the rewards
    for name, value in vars(base).items():
        assert (getattr(env, name) is value) == (name not in own), name
    assert env.base is base
    # a one-hot cache built after construction is the base's one
    assert base._encoding_matrix is None
    assert env.encoding_matrix is base.encoding_matrix is base._encoding_matrix
    assert env.reward_table[promoted] == 1.5 and base.reward_table[promoted] == 1.0


def test_one_more_mode_tree_partitions():
    prev, new = one_more_mode_tree(3, 2, 0.1)
    assert true_partition(prev) == pytest.approx(8.1)
    assert true_partition(new) == pytest.approx(9.0)


def test_one_more_mode_tree_epsilon_one_is_identity():
    prev, new = one_more_mode_tree(2, 2, 1.0)
    assert np.array_equal(prev.reward_table, new.reward_table)


def test_one_more_mode_small_case():
    prev, new = one_more_mode_tree(2, 1, 0.5)
    assert prev.reward_table[prev.leaves].tolist() == [1.0, 0.5]
    assert new.reward_table[prev.leaves].tolist() == [1.0, 1.0]  # same graph


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
    # the level order covered every state (acyclic)
    assert sum(len(states) for states in env.levels) == env.num_states
    # parent/child symmetry on every edge
    for s in range(env.num_states):
        for c in children(env, s):
            if c != env.sink:
                assert s in parents(env, c)
        for p in parents(env, s):
            assert s in children(env, p)
    # source/sink and terminal shape
    assert len(parents(env, env.initial_state)) == 0
    assert len(children(env, env.sink)) == 0
    for x in env.terminating_states:
        assert list(children(env, x)) == [env.sink]
        assert env.reward_table[x] > 0
    # the choice states, listed and marked: more than one valid slot
    for mask, listed, marked in ((env.forward_mask, env.forward_choice, env.forward_has_choice),
                                 (env.backward_mask, env.backward_choice, env.backward_has_choice)):
        assert np.array_equal(marked, mask.sum(axis=1) > 1)
        assert np.array_equal(listed, np.flatnonzero(marked))


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
    assert np.array_equal(np.sort(np.concatenate(env.levels)), np.arange(env.num_states))
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
        super().__init__(sink, *np.array(edges, dtype=np.int64).T.copy(), np.array(terminating),
                         np.ones(len(terminating)), np.full(num_states, -1), feature_dim=1)


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


def test_duplicate_slots_name_the_first_repeat_in_edge_order():
    # state 2's slot 1 repeats at edge 3, before state 1's slot 0, a smaller key, at edge 5
    edges = [(0, 1, 0, 0), (0, 2, 1, 0), (2, 3, 1, 0), (2, 3, 1, 1), (1, 3, 0, 2), (1, 2, 0, 1),
             (3, 4, 0, 0)]
    with pytest.raises(ValueError, match="^duplicate forward slot 1 at state 2$"):
        _Graph(5, 4, edges, [3])
    # backward: state 3's slot 1 repeats at edge 4, before state 2's slot 0 at edge 5
    edges = [(0, 1, 0, 0), (0, 2, 1, 0), (1, 3, 0, 1), (2, 3, 0, 0), (0, 3, 2, 1), (1, 2, 1, 0),
             (3, 4, 0, 0)]
    with pytest.raises(ValueError, match="^duplicate backward slot 1 at state 3$"):
        _Graph(5, 4, edges, [3])


@pytest.mark.parametrize("x", [[], [7], [3, 3, 3], [5, -2, 9, 5, 0, -2, 9],
                               np.random.default_rng(0).integers(0, 50, 1000)],
                         ids=["empty", "singleton", "duplicated", "unsorted", "random"])
def test_sorted_unique_matches_np_unique(x):
    x = np.asarray(x, dtype=np.int64)
    got, want = sorted_unique(x), np.unique(x)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


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


@pytest.mark.parametrize("shape", [("tree", 2, 1), ("tree", 3, 4), ("tree", 5, 2), ("grid", 1, 2),
                                   ("grid", 1, 5), ("grid", 2, 3), ("grid", 4, 8)], ids=str)
def test_slot_memory_check_sees_the_built_slot_matrices(shape, monkeypatch):
    seen = []
    check = envs._check_slot_memory
    monkeypatch.setattr(envs, "_check_slot_memory", lambda *a: (seen.append(a), check(*a)))
    kind, a, b = shape
    env = RegularTree(a, b) if kind == "tree" else Hypergrid(a, b)
    [(states, slots, _)] = seen
    assert (states, slots) == (env.num_states,
                               env.child_matrix.shape[1] + env.parent_matrix.shape[1])
    assert 8 * states * slots == env.child_matrix.nbytes + env.parent_matrix.nbytes


def test_slot_memory_check_refuses_only_above_physical_memory(monkeypatch):
    # T(2,2): 8 states x 3 slots x 8 bytes = 192 bytes of slot matrices
    for pages, builds in ((191, False), (192, True)):
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(envs, "os", SimpleNamespace(sysconf=sizes.get))
        if builds:
            assert RegularTree(2, 2).num_states == 8
        else:
            with pytest.raises(EnumerationCapError, match=r"tree\(2, 2\): 8 states need"):
                RegularTree(2, 2)


def test_walk_memory_check_refuses_only_above_physical_memory(monkeypatch):
    env = RegularTree(2, 2)  # 4 levels: 10 walks x 4 cells x 8 bytes = 320 bytes
    for pages in (319, 320):
        sizes = {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(envs, "os", SimpleNamespace(sysconf=sizes.get))
        if pages == 320:
            envs.check_walk_memory(env, 10, "count")
        else:
            with pytest.raises(EnumerationCapError, match=r"^count: 10 walks need "
                                                          r"2\.98e-07 GiB of walk matrix, above"):
                envs.check_walk_memory(env, 10, "count")


# terabytes each; test_cli checks that train refuses T(2,60) and H(8,1000) with exit 2
@pytest.mark.parametrize("build, states", [
    (lambda: RegularTree(2, 40), 2**41), (lambda: Hypergrid(8, 40), 2 * 40**8 + 1),
], ids=["tree_2_40", "grid_8_40"])
def test_env_too_large_to_build_is_refused_before_allocating(build, states):
    with pytest.raises(EnumerationCapError, match=f": {states} states need "):
        build()


def test_build_peak_is_below_1_8x_the_arrays_it_keeps():
    Hypergrid(4, 10)  # the first build imports and caches outside the traced one
    tracemalloc.start()
    try:
        env = Hypergrid(4, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = [a for v in vars(env).values() for a in (v if isinstance(v, list) else [v])
              if isinstance(a, np.ndarray)]
    kept = sum(a.nbytes for a in arrays)  # the levels' edge groups are views of one order
    assert peak < 1.8 * kept, f"peak {peak} B is {peak / kept:.2f}x the {kept} B kept"


def test_hypergrid_reward_accepts_coordinate_arrays():
    coords = np.array([[3, 3], [0, 0], [6, 1], [7, 0]])
    vec = hypergrid_reward(coords, 8, 0.1, 0.5, 2.0)
    assert vec.shape == (4,)
    assert list(vec) == [hypergrid_reward(tuple(x), 8, 0.1, 0.5, 2.0) for x in coords]


def test_tree_backward_is_deterministic():
    env = RegularTree(3, 3)
    for s in range(env.num_states):
        if s not in (env.initial_state, env.sink):
            assert len(parents(env, s)) == 1


def test_hypergrid_action_count():
    env = Hypergrid(2, 4, r0=0.1)
    for idx in range(env.n_grid):
        coords = np.unravel_index(idx, (env.side,) * env.dimension)
        expected = sum(1 for x in coords if x < env.side - 1) + 1
        assert len(children(env, idx)) == expected


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
    ref = np.zeros((env.num_states, env.feature_dim), dtype=np.uint8)  # one byte a cell
    for s in range(env.num_states):
        if s != env.sink:
            ref[s] = _reference_encode(env, s)
    mat = env.encoding_matrix
    assert mat.dtype == ref.dtype and mat.tobytes() == ref.tobytes()


def test_encoding_build_peaks_under_two_bytes_a_cell():
    env = Hypergrid(4, 10)  # 20,001 states, 40 feature columns
    tracemalloc.start()
    try:
        mat = env.encoding_matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mat.nbytes == mat.size == env.num_states * env.feature_dim
    # measured: 1.43 bytes a cell, the cache and one column's index
    # temporaries; 3.5 with every column's at once, 10.5 with float64 cells
    assert peak < 2 * mat.size


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


def test_hypergrid_modes_are_its_largest_rewards():
    # a negative corner band puts the 4 corners (1.2) below the 12 other
    # inner-band points (1.5): those are the modes, not the r0+r1+r2 plateau
    section = {"kind": "hypergrid", "dimension": 2, "side": 8, "r0": 1, "r1": 0.5, "r2": -0.3}
    env = make_env(resolve({"env": section})["env"])
    modes = np.flatnonzero(env.mode_mask)
    assert len(modes) == 12 and np.all(env.reward_table[modes] == 1.5)
    assert env.reward_table[env.terminating_states].max() == 1.5
    # default rewards keep the plateau's mask
    for env in (Hypergrid(2, 8), Hypergrid(3, 5), Hypergrid(2, 16), Hypergrid(1, 2)):
        peak = env.r0 + env.r1 + env.r2
        plateau = env.terminating_mask & np.isclose(env.reward_table, peak, rtol=0, atol=1e-12)
        assert np.array_equal(env.mode_mask, plateau)


def test_make_env_round_trip():
    def built(section):
        return make_env(resolve({"env": section})["env"])

    env = built({"kind": "tree", "branching": 3, "depth": 2})
    assert isinstance(env, RegularTree)
    env = built({"kind": "hypergrid", "dimension": 2, "side": 8, "r0": 0.1})
    assert isinstance(env, Hypergrid) and env.r0 == 0.1 and env.r2 == 2.0
    env = built({"kind": "one_more_mode", "branching": 2, "depth": 2, "epsilon": 0.1})
    assert isinstance(env, OneMoreMode)
    with pytest.raises(ValueError):
        built({"kind": "mystery"})


def test_rewards_zero_off_terminals():
    env = Hypergrid(2, 4, r0=0.1)
    assert np.all(env.reward_table[~env.terminating_mask] == 0.0)


def test_graph_refuses_a_terminating_state_without_positive_reward():
    with pytest.raises(ValueError, match="^terminating state 2 must have a finite positive reward, got 0.0$"):
        RegularTree(2, 1, leaf_rewards=[1.0, 0.0])
    with pytest.raises(ValueError, match="^terminating state 1 must have a finite positive reward, got -1.0$"):
        RegularTree(2, 1, leaf_rewards=[-1.0, 1.0])
    for build, state, got in ((lambda: RegularTree(2, 2, leaf_rewards=[1, 1, 1, np.inf]), 6, "inf"),
                              (lambda: RegularTree(2, 2, leaf_rewards=[1, np.nan, 1, 1]), 4, "nan"),
                              (lambda: Hypergrid(2, 3, r0=np.inf), 9, "inf"),
                              (lambda: Hypergrid(1, 4, r1=np.nan), 4, "nan")):
        with pytest.raises(ValueError, match=f"^terminating state {state} must have a finite "
                                             f"positive reward, got {got}$"):
            build()


def test_rejects_misplaced_source_sink_and_terminating_edges():
    # 1 -> 0 -> 2 -> sink: the initial state has a parent
    with pytest.raises(ValueError, match="^initial state must have no parents$"):
        _Graph(4, 3, [(1, 0, 0, 0), (0, 2, 0, 0), (2, 3, 0, 0)], [2])
    # 0 -> 1 -> sink -> 2: the sink has a child
    with pytest.raises(ValueError, match="^sink must have no children$"):
        _Graph(4, 2, [(0, 1, 0, 0), (1, 2, 0, 0), (2, 3, 0, 0)], [1])
    # 0 -> 1 -> {2, sink}, 2 -> sink: terminating state 1 has a second child
    with pytest.raises(ValueError, match="^terminating state 1 must have the sink as its only child$"):
        _Graph(4, 3, [(0, 1, 0, 0), (1, 2, 0, 0), (1, 3, 1, 0), (2, 3, 0, 0)], [1, 2])
    # 0 -> {1, sink}, 1 -> sink: the initial state reaches the sink without terminating
    with pytest.raises(ValueError, match="^only terminating states may connect to the sink$"):
        _Graph(3, 2, [(0, 1, 0, 0), (0, 2, 1, 0), (1, 2, 0, 0)], [1])


def test_tree_refuses_zero_depth_and_a_wrong_leaf_reward_count():
    with pytest.raises(ValueError, match="^depth must be >= 1$"):
        RegularTree(2, 0)
    for rewards in ([1.0, 1.0, 1.0], [1.0] * 5):
        with pytest.raises(ValueError, match="^expected 4 leaf rewards$"):
            RegularTree(2, 2, leaf_rewards=rewards)


def test_hypergrid_refuses_degenerate_shape_and_base_reward():
    for dimension, side in ((0, 4), (2, 1), (-1, 4)):
        with pytest.raises(ValueError, match="^need dimension >= 1 and side >= 2$"):
            Hypergrid(dimension, side)
    for r0 in (0.0, -0.1):
        with pytest.raises(ValueError, match="^r0 must be positive$"):
            Hypergrid(2, 4, r0=r0)


def test_one_more_mode_refuses_negative_or_misplaced_additions():
    base = RegularTree(2, 2)
    leaf = int(base.leaves[0])
    with pytest.raises(ValueError, match="^added reward must be nonnegative$"):
        OneMoreMode(base, {leaf: -0.5})
    with pytest.raises(ValueError, match="^added reward on non-terminating state 0$"):
        OneMoreMode(base, {0: 1.0})
    with pytest.raises(ValueError, match=f"^added reward on non-terminating state {base.sink}$"):
        OneMoreMode(base, {base.sink: 1.0})
