"""Finite-DAG environments: regular trees, hypergrids, and incremental-reward wrappers.

Every environment is an immutable DAG with a unique source (index 0), a unique
sink (``env.sink``), and a set of terminating states whose only child is the
sink.  Terminating states carry a positive reward; all other states have
reward zero.  Action "slots" give each edge a stable logit index so a single
policy head can score all states of an environment.

States are described by arrays built with the graph, never by per-state
methods: ``features`` lists each state's one-hot feature columns,
``reward_table`` its reward and ``mode_mask`` whether it is a mode.

One graph layout: the edge arrays (``edge_src``/``edge_dst``/``edge_fslot``/
``edge_bslot``) and the slot matrices (``child_matrix``/``parent_matrix``).
The move table ``_moves`` holds the same edges per state, as Python lists,
only at the states a rollout has visited (see :func:`stablegfn.policy.rollout`).
One graph order, the level order: ``levels`` groups states by their longest
distance from the source, ``level_edges`` groups edges by their source's
level.  Every whole-graph pass walks it, one array step per level.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# Environments larger than this refuse exact enumeration; callers must use
# sampling-based paths instead.
DEFAULT_STATE_CAP = 2_000_000

# Defaults of the optional environment config keys, per kind: make_env fills
# them in, and config.resolve writes them into the resolved config.
ENV_DEFAULTS: Dict[str, Dict[str, object]] = {
    "tree": {"leaf_rewards": None},
    "hypergrid": {"r0": None, "r1": 0.5, "r2": 2.0},
    "one_more_mode": {"stage": "new"},
}


# Cells (float64, 1 GiB) the one-hot cache may hold.  A tree has a column per
# state, so its cache grows as S**2: T(2,12) needs 67M cells, T(2,13) 268M.
ENCODING_CELL_CAP = 1 << 27


class EnumerationCapError(RuntimeError):
    """Raised when an exact computation is requested on too large a graph."""


def _fill_slots(matrix: np.ndarray, at: np.ndarray, slots: np.ndarray,
                values: np.ndarray, side: str) -> None:
    """``matrix[at, slots] = values``; a slot used twice at one state is an error."""
    key = at * matrix.shape[1] + slots
    first = np.unique(key, return_index=True)[1]
    if len(first) < len(key):
        i = np.setdiff1d(np.arange(len(key)), first)[0]  # the first repeat, in edge order
        raise ValueError(f"duplicate {side} slot {slots[i]} at state {at[i]}")
    matrix[at, slots] = values


class DagEnv:
    """Dense finite-DAG environment.

    Subclasses supply the edges as an (E, 4) integer array of (source,
    target, forward slot, backward slot) rows, the terminating-state rewards,
    and the features: an (S, k) integer array whose row ``s`` lists the
    one-hot columns (below ``feature_dim``) set for state ``s``, -1 meaning
    none.  The edge arrays and the slot matrices are the one graph layout;
    this base class fills the matrices and masks, computes the level order,
    validates the DAG invariants and marks the modes (:meth:`_modes`).
    """

    kind = "dag"
    # Everything __init__ derives from the edge list alone; environments that
    # differ only in their rewards share these (see OneMoreMode).
    GRAPH_ATTRS = (
        "num_states", "initial_state", "sink", "features", "feature_dim", "num_edges",
        "edge_src", "edge_dst", "edge_fslot", "edge_bslot", "num_forward_slots",
        "num_backward_slots", "child_matrix", "parent_matrix", "forward_mask",
        "backward_mask", "levels", "level_edges", "topological_order", "_moves",
    )

    def __init__(
        self,
        num_states: int,
        sink: int,
        edges: Union[np.ndarray, Sequence[Tuple[int, int, int, int]]],
        rewards: Dict[int, float],
        features: np.ndarray,
        feature_dim: int,
    ):
        self.num_states = num_states
        self.initial_state = 0
        self.sink = sink
        self.features = np.asarray(features, dtype=np.int64).reshape(num_states, -1)
        self.feature_dim = feature_dim

        src, dst, fslot, bslot = np.ascontiguousarray(
            np.asarray(edges, dtype=np.int64).reshape(-1, 4).T)
        self.edge_src, self.edge_dst = src, dst
        self.edge_fslot, self.edge_bslot = fslot, bslot
        self.num_edges = len(src)

        self.num_forward_slots = int(fslot.max()) + 1 if len(src) else 1
        self.num_backward_slots = int(bslot.max()) + 1 if len(src) else 1

        S, AF, AB = num_states, self.num_forward_slots, self.num_backward_slots
        self.child_matrix = np.full((S, AF), -1, dtype=np.int64)
        self.parent_matrix = np.full((S, AB), -1, dtype=np.int64)
        _fill_slots(self.child_matrix, src, fslot, dst, "forward")
        inner = dst != sink
        _fill_slots(self.parent_matrix, dst[inner], bslot[inner], src[inner], "backward")
        self.forward_mask = self.child_matrix >= 0
        self.backward_mask = self.parent_matrix >= 0

        xs = np.fromiter(rewards.keys(), dtype=np.int64, count=len(rewards))
        rs = np.fromiter(rewards.values(), dtype=np.float64, count=len(rewards))
        if np.any(rs <= 0):
            i = int(np.argmax(rs <= 0))
            raise ValueError(f"terminating state {xs[i]} must have positive reward, got {rs[i]}")
        self.reward_table = np.zeros(S, dtype=np.float64)
        self.reward_table[xs] = rs
        self.terminating_mask = self.reward_table > 0
        self.terminating_states = np.flatnonzero(self.terminating_mask)

        self.levels, self.level_edges = self._level_order()
        self.topological_order = np.concatenate(self.levels)
        self._encoding_matrix: Optional[np.ndarray] = None
        # (forward, backward): state -> (slots, next states as a list), filled
        # by policy.rollout at the states it visits; never built whole
        self._moves: Tuple[Dict, Dict] = ({}, {})
        # filled on first use by losses.terminal_reach_counts
        self._reach_counts: Optional[np.ndarray] = None
        self._validate()
        self.mode_mask = self._modes()

    # -- structure ---------------------------------------------------------

    def children(self, s: int) -> np.ndarray:
        row = self.child_matrix[s]
        return row[row >= 0]

    def parents(self, s: int) -> np.ndarray:
        row = self.parent_matrix[s]
        return row[row >= 0]

    def forward_slots(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """Valid (slot, child) pairs for state ``s``, as parallel arrays."""
        slots = np.flatnonzero(self.forward_mask[s])
        return slots, self.child_matrix[s, slots]

    def backward_slots(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        slots = np.flatnonzero(self.backward_mask[s])
        return slots, self.parent_matrix[s, slots]

    def is_terminating(self, s: int) -> bool:
        return bool(self.terminating_mask[s])

    def reward(self, s: int) -> float:
        return float(self.reward_table[s])

    def _level_order(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """States grouped by their longest distance from a parentless state,
        frontier by frontier, and edges grouped by their source's level.

        Each level's states are ascending, each level's edges in edge order.
        Every edge goes to a higher level, so a pass that walks the levels in
        order (reversed) sees every state after (before) all its parents.
        """
        S = self.num_states
        indeg = np.bincount(self.edge_dst, minlength=S)
        frontier = np.flatnonzero(indeg == 0)
        levels = []
        while len(frontier):
            levels.append(frontier)
            kids = self.child_matrix[frontier]
            kids = kids[kids >= 0]
            np.subtract.at(indeg, kids, 1)
            frontier = np.unique(kids[indeg[kids] == 0])
        sizes = [len(lv) for lv in levels]
        if sum(sizes) != S:
            raise ValueError("environment graph contains a cycle")
        level_of = np.empty(S, dtype=np.int64)
        level_of[np.concatenate(levels)] = np.repeat(np.arange(len(levels)), sizes)
        edge_level = level_of[self.edge_src]
        order = np.argsort(edge_level, kind="stable")
        bounds = np.cumsum(np.bincount(edge_level, minlength=len(levels)))[:-1]
        return levels, np.split(order, bounds)

    def _validate(self) -> None:
        if self.initial_state not in self.levels[0]:
            raise ValueError("initial state must have no parents")
        if len(self.levels[0]) > 1:
            extra = self.levels[0][self.levels[0] != self.initial_state]
            raise ValueError(f"state {extra[0]} has no parents; only the initial state may")
        if self.forward_mask[self.sink].any():
            raise ValueError("sink must have no children")
        dead = np.flatnonzero(~self.forward_mask.any(axis=1))
        if len(dead) > 1:
            raise ValueError(f"state {dead[dead != self.sink][0]} has no children; only the sink may")
        term = self.terminating_states
        bad = term[(self.forward_mask[term].sum(axis=1) != 1)
                   | (self.child_matrix[term].max(axis=1) != self.sink)]
        if len(bad):
            raise ValueError(f"terminating state {bad[0]} must have the sink as its only child")
        if not self.terminating_mask[self.edge_src[self.edge_dst == self.sink]].all():
            raise ValueError("only terminating states may connect to the sink")

    # -- features and modes --------------------------------------------------

    @property
    def encoding_matrix(self) -> np.ndarray:
        """Dense one-hot features: row ``s`` is 1 at the columns ``features[s]``
        lists; built lazily, cached, refused above ``ENCODING_CELL_CAP``."""
        if self._encoding_matrix is None:
            if self.num_states * self.feature_dim > ENCODING_CELL_CAP:
                raise EnumerationCapError(
                    f"one-hot features of {self.num_states} x {self.feature_dim} cells are "
                    f"above the cap {ENCODING_CELL_CAP}; use a tabular model")
            mat = np.zeros((self.num_states, self.feature_dim))
            on = self.features >= 0
            mat[np.nonzero(on)[0], self.features[on]] = 1.0
            self._encoding_matrix = mat
        return self._encoding_matrix

    def _modes(self) -> np.ndarray:
        """Mode mask: the terminating states within 1e-12 of the largest reward."""
        rmax = self.reward_table[self.terminating_states].max()
        return self.terminating_mask & (self.reward_table >= rmax - 1e-12)

    def describe(self) -> Dict[str, object]:
        raise NotImplementedError


class RegularTree(DagEnv):
    """Perfect g-ary tree of depth h; the g**h leaves are the terminating states.

    Every non-root state has exactly one parent, so the backward policy is
    deterministic.  Leaf rewards default to 1.
    """

    kind = "tree"

    def __init__(self, branching: int, depth: int, leaf_rewards: Optional[Sequence[float]] = None):
        if branching < 2:
            raise ValueError("branching must be >= 2")
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.branching, self.depth = branching, depth
        g, h = branching, depth
        level_sizes = [g**k for k in range(h + 1)]
        level_offsets = np.cumsum([0] + level_sizes)
        n_tree = int(level_offsets[-1])
        sink = n_tree
        num_states = n_tree + 1

        self.num_leaves = g**h
        self.leaves = np.arange(level_offsets[h], level_offsets[h] + self.num_leaves)

        if leaf_rewards is None:
            leaf_rewards = np.ones(self.num_leaves)
        leaf_rewards = np.asarray(leaf_rewards, dtype=np.float64)
        if leaf_rewards.shape != (self.num_leaves,):
            raise ValueError(f"expected {self.num_leaves} leaf rewards")
        self.leaf_rewards = leaf_rewards

        # breadth-first numbering: internal node i has children g*i+1 .. g*i+g
        inner = np.repeat(np.arange(int(level_offsets[h]), dtype=np.int64), g)
        action = np.tile(np.arange(g, dtype=np.int64), len(inner) // g)
        zeros = np.zeros_like(self.leaves)
        edges = np.concatenate([
            np.stack([inner, g * inner + 1 + action, action, np.zeros_like(inner)], axis=1),
            np.stack([self.leaves, np.full_like(self.leaves, sink), zeros, zeros], axis=1),
        ])
        rewards = dict(zip(self.leaves.tolist(), leaf_rewards.tolist()))
        features = np.r_[np.arange(n_tree), -1]  # one column per state, none at the sink
        super().__init__(num_states, sink, edges, rewards, features, feature_dim=num_states)

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "branching": self.branching, "depth": self.depth,
                "leaf_rewards": self.leaf_rewards.tolist()}


def hypergrid_reward(x: Union[Sequence[int], np.ndarray], side: int, r0: float, r1: float,
                     r2: float):
    """Reward of a grid point: base plus two nested indicator plateaus.

    ``x`` holds coordinates on its last axis: one point gives a float, an
    (N, D) array gives N rewards.  The indicators are strict: a coordinate
    contributes only when its scaled distance from the center exceeds 0.25
    (inner band) or 0.4 (corner band).
    """
    u = np.abs(np.asarray(x) / (side - 1) - 0.5)
    inner = (u > 0.25).all(axis=-1)
    corner = (u > 0.4).all(axis=-1)
    return r0 + np.where(inner, r1, 0.0) + np.where(corner, r2, 0.0)


def hypergrid_default_r0(side: int) -> float:
    """Base-reward schedule 10**(-2*log2(H/8) - 1); 0.1 at H=8, 1e-3 at H=16."""
    if side <= 1:
        raise ValueError("side must be > 1")
    return 10.0 ** (-2.0 * math.log2(side / 8.0) - 1.0)


class Hypergrid(DagEnv):
    """D-dimensional grid of side H with increment actions and an exit action.

    Each grid point is duplicated: the "active" copy supports increments plus
    an exit edge into a terminal copy, whose only child is the sink.  Every
    grid point is therefore terminating (via its terminal copy), with reward
    given by :func:`hypergrid_reward`.

    Forward slots: 0..D-1 increment that coordinate, slot D exits.
    Backward slots: 0..D-1 decrement that coordinate (terminal copies have a
    single parent, slot 0).

    Features are one-hot per coordinate (column ``i*H + x_i``) on both copies;
    modes sit on the r0+r1+r2 plateau (Bengio et al. 2021, arXiv:2106.04399).
    """

    kind = "hypergrid"

    def __init__(self, dimension: int, side: int, r0: Optional[float] = None,
                 r1: float = ENV_DEFAULTS["hypergrid"]["r1"],
                 r2: float = ENV_DEFAULTS["hypergrid"]["r2"]):
        if dimension < 1 or side < 2:
            raise ValueError("need dimension >= 1 and side >= 2")
        self.dimension, self.side = dimension, side
        self.r0 = hypergrid_default_r0(side) if r0 is None else float(r0)
        self.r1, self.r2 = float(r1), float(r2)
        if self.r0 <= 0:
            raise ValueError("r0 must be positive")

        D, H = dimension, side
        n_grid = H**D
        self.n_grid = n_grid
        sink = 2 * n_grid
        strides = np.array([H ** (D - 1 - i) for i in range(D)], dtype=np.int64)

        # per grid point, in this order: an increment per coordinate below
        # the far side, the exit to the terminal copy, its edge to the sink
        idx = np.arange(n_grid, dtype=np.int64)[:, None]
        coords = idx // strides % H
        term = n_grid + idx
        src = np.hstack([np.repeat(idx, D, axis=1), idx, term])
        dst = np.hstack([idx + strides, term, np.full_like(idx, sink)])
        fslot = np.broadcast_to(np.r_[np.arange(D), D, 0], src.shape)
        bslot = np.broadcast_to(np.r_[np.arange(D), 0, 0], src.shape)
        valid = np.hstack([coords < H - 1, np.ones((n_grid, 2), dtype=bool)])
        edges = np.stack([src, dst, fslot, bslot], axis=-1)[valid]
        reward = hypergrid_reward(coords, H, self.r0, self.r1, self.r2)
        rewards = dict(zip(term[:, 0].tolist(), reward.tolist()))
        cols = coords + H * np.arange(D)
        features = np.vstack([cols, cols, np.full((1, D), -1)])

        super().__init__(2 * n_grid + 1, sink, edges, rewards, features, feature_dim=D * H)

    def _modes(self) -> np.ndarray:
        peak = self.r0 + self.r1 + self.r2
        return self.terminating_mask & np.isclose(self.reward_table, peak, rtol=0, atol=1e-12)

    def describe(self) -> Dict[str, object]:
        return {"kind": self.kind, "dimension": self.dimension, "side": self.side,
                "r0": self.r0, "r1": self.r1, "r2": self.r2}


class OneMoreMode(DagEnv):
    """Same graph as a base environment with extra reward on a subset of states.

    ``reward(x) = base.reward(x) + added[x]`` with ``added >= 0`` supported on
    terminating states only.  The graph arrays, the features, the terminating
    set and the one-hot cache are the base's own objects, shared, not copied.
    The modes follow the max-reward rule whatever the base is.
    """

    kind = "one_more_mode"

    def __init__(self, base: DagEnv, added: Dict[int, float]):
        for x, r in added.items():
            if r < 0:
                raise ValueError("added reward must be nonnegative")
            if not base.is_terminating(x):
                raise ValueError(f"added reward on non-terminating state {x}")
        self.base = base
        self.added = dict(added)
        for name in DagEnv.GRAPH_ATTRS:
            setattr(self, name, getattr(base, name))
        self.terminating_mask = base.terminating_mask
        self.terminating_states = base.terminating_states
        self.reward_table = base.reward_table.copy()
        for x, r in added.items():
            self.reward_table[x] += r
        self.mode_mask = DagEnv._modes(self)
        self._reach_counts = None

    @property
    def encoding_matrix(self) -> np.ndarray:
        return self.base.encoding_matrix

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "base": self.base.describe(),
            "added": {str(k): v for k, v in sorted(self.added.items())},
        }


def one_more_mode_tree(branching: int, depth: int, epsilon: float) -> Tuple[RegularTree, OneMoreMode]:
    """Incremental-coverage pair: a tree with one negligible leaf, then promoted.

    The previous environment gives the last leaf reward ``epsilon`` and every
    other leaf reward 1; the new environment promotes that leaf to reward 1 by
    adding ``1 - epsilon``.
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    n_leaves = branching**depth
    rewards = np.ones(n_leaves)
    rewards[-1] = epsilon
    env_prev = RegularTree(branching, depth, rewards)
    promoted = int(env_prev.leaves[-1])
    env_new = OneMoreMode(env_prev, {promoted: 1.0 - epsilon})
    return env_prev, env_new


def true_partition(env: DagEnv) -> float:
    """Exact partition value: the sum of all terminating rewards."""
    return float(env.reward_table[env.terminating_states].sum())


def target_distribution(env: DagEnv) -> np.ndarray:
    """Reward-proportional target over ``env.terminating_states``."""
    r = env.reward_table[env.terminating_states]
    return r / r.sum()


def make_env(spec: Dict[str, object]) -> DagEnv:
    """Build an environment from a config mapping (see the config schema)."""
    kind = spec["kind"]
    if kind not in ENV_DEFAULTS:
        raise ValueError(f"unknown environment kind {kind!r}")
    spec = {**ENV_DEFAULTS[kind], **spec}
    if kind == "tree":
        return RegularTree(int(spec["branching"]), int(spec["depth"]), spec["leaf_rewards"])
    if kind == "hypergrid":
        return Hypergrid(int(spec["dimension"]), int(spec["side"]), spec["r0"],
                         float(spec["r1"]), float(spec["r2"]))
    prev, new = one_more_mode_tree(
        int(spec["branching"]), int(spec["depth"]), float(spec["epsilon"])
    )
    return new if spec["stage"] == "new" else prev
