"""Finite-DAG environments: regular trees, hypergrids, and incremental-reward wrappers.

Every environment is an immutable DAG with a unique source (index 0), a unique
sink (``env.sink``), and a set of terminating states whose only child is the
sink.  Terminating states carry a positive reward; all other states have
reward zero.  Action "slots" give each edge a stable logit index so a single
policy head can score all states of an environment.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


class EnumerationCapError(RuntimeError):
    """Raised when an exact computation is requested on too large a graph."""


class DagEnv:
    """Dense finite-DAG environment.

    Subclasses supply the edge list (with forward/backward slot assignments),
    the terminating-state rewards, and a feature encoding.  This base class
    precomputes adjacency tables, slot matrices, masks, and a topological
    order, and validates the DAG invariants.
    """

    kind = "dag"
    # Everything __init__ derives from the edge list alone; environments that
    # differ only in their rewards share these (see OneMoreMode).
    GRAPH_ATTRS = (
        "num_states", "initial_state", "sink", "feature_dim", "num_edges",
        "edge_src", "edge_dst", "edge_fslot", "edge_bslot", "num_forward_slots",
        "num_backward_slots", "child_matrix", "parent_matrix", "edge_index_fwd",
        "forward_mask", "backward_mask", "_children", "_parents", "_in_edges",
        "_out_edges", "topological_order",
    )

    def __init__(
        self,
        num_states: int,
        sink: int,
        edges: Sequence[Tuple[int, int, int, int]],
        rewards: Dict[int, float],
        feature_dim: int,
    ):
        self.num_states = num_states
        self.initial_state = 0
        self.sink = sink
        self.feature_dim = feature_dim

        src = np.array([e[0] for e in edges], dtype=np.int64)
        dst = np.array([e[1] for e in edges], dtype=np.int64)
        fslot = np.array([e[2] for e in edges], dtype=np.int64)
        bslot = np.array([e[3] for e in edges], dtype=np.int64)
        self.edge_src, self.edge_dst = src, dst
        self.edge_fslot, self.edge_bslot = fslot, bslot
        self.num_edges = len(edges)

        self.num_forward_slots = int(fslot.max()) + 1 if len(edges) else 1
        self.num_backward_slots = int(bslot.max()) + 1 if len(edges) else 1

        S, AF, AB = num_states, self.num_forward_slots, self.num_backward_slots
        self.child_matrix = np.full((S, AF), -1, dtype=np.int64)
        self.parent_matrix = np.full((S, AB), -1, dtype=np.int64)
        self.edge_index_fwd = np.full((S, AF), -1, dtype=np.int64)
        for i in range(self.num_edges):
            s, t = src[i], dst[i]
            if self.child_matrix[s, fslot[i]] != -1:
                raise ValueError(f"duplicate forward slot {fslot[i]} at state {s}")
            self.child_matrix[s, fslot[i]] = t
            self.edge_index_fwd[s, fslot[i]] = i
            if t != sink:
                if self.parent_matrix[t, bslot[i]] != -1:
                    raise ValueError(f"duplicate backward slot {bslot[i]} at state {t}")
                self.parent_matrix[t, bslot[i]] = s
        self.forward_mask = self.child_matrix >= 0
        self.backward_mask = self.parent_matrix >= 0

        self._children: List[np.ndarray] = [
            self.child_matrix[s][self.forward_mask[s]] for s in range(S)
        ]
        self._parents: List[np.ndarray] = [
            self.parent_matrix[s][self.backward_mask[s]] for s in range(S)
        ]

        self.reward_table = np.zeros(S, dtype=np.float64)
        term = np.zeros(S, dtype=bool)
        for x, r in rewards.items():
            if r <= 0:
                raise ValueError(f"terminating state {x} must have positive reward, got {r}")
            self.reward_table[x] = r
            term[x] = True
        self.terminating_mask = term
        self.terminating_states = np.flatnonzero(term)

        self._in_edges = self._edges_by_state(dst)
        self._out_edges = self._edges_by_state(src)

        self.topological_order = self._toposort()
        self._encoding_matrix: Optional[np.ndarray] = None
        # filled on first use by losses.terminal_reach_counts
        self._reach_counts: Optional[np.ndarray] = None
        self._validate()

    # -- structure ---------------------------------------------------------

    def children(self, s: int) -> np.ndarray:
        return self._children[s]

    def parents(self, s: int) -> np.ndarray:
        return self._parents[s]

    def forward_slots(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        """Valid (slot, child) pairs for state ``s``, as parallel arrays."""
        slots = np.flatnonzero(self.forward_mask[s])
        return slots, self.child_matrix[s, slots]

    def backward_slots(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        slots = np.flatnonzero(self.backward_mask[s])
        return slots, self.parent_matrix[s, slots]

    def in_edges(self, s: int) -> np.ndarray:
        return self._in_edges[s]

    def out_edges(self, s: int) -> np.ndarray:
        return self._out_edges[s]

    def _edges_by_state(self, ends: np.ndarray) -> List[np.ndarray]:
        """Edge indices grouped by the state at one end, in edge order."""
        order = np.argsort(ends, kind="stable")
        bounds = np.searchsorted(ends[order], np.arange(self.num_states + 1))
        return [order[bounds[s]:bounds[s + 1]] for s in range(self.num_states)]

    def is_terminating(self, s: int) -> bool:
        return bool(self.terminating_mask[s])

    def reward(self, s: int) -> float:
        return float(self.reward_table[s])

    def _toposort(self) -> np.ndarray:
        indeg = np.zeros(self.num_states, dtype=np.int64)
        np.add.at(indeg, self.edge_dst, 1)
        order = []
        stack = [s for s in range(self.num_states) if indeg[s] == 0]
        stack.sort(reverse=True)
        while stack:
            s = stack.pop()
            order.append(s)
            for t in self._children[s]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    stack.append(int(t))
        if len(order) != self.num_states:
            raise ValueError("environment graph contains a cycle")
        return np.array(order, dtype=np.int64)

    def _validate(self) -> None:
        if len(self._parents[self.initial_state]) != 0:
            raise ValueError("initial state must have no parents")
        if len(self._children[self.sink]) != 0:
            raise ValueError("sink must have no children")
        for x in self.terminating_states:
            ch = self._children[x]
            if len(ch) != 1 or ch[0] != self.sink:
                raise ValueError(f"terminating state {x} must have the sink as its only child")
        # children/parents mutual consistency is enforced by construction from
        # one edge list; spot-check the sink's in-edges are all terminating.
        for i in self._in_edges[self.sink]:
            if not self.terminating_mask[self.edge_src[i]]:
                raise ValueError("only terminating states may connect to the sink")

    # -- features ----------------------------------------------------------

    def encode(self, s: int) -> np.ndarray:
        raise NotImplementedError

    @property
    def encoding_matrix(self) -> np.ndarray:
        """Row ``s`` is ``encode(s)``; built lazily, cached."""
        if self._encoding_matrix is None:
            mat = np.zeros((self.num_states, self.feature_dim))
            for s in range(self.num_states):
                if s != self.sink:
                    mat[s] = self.encode(s)
            self._encoding_matrix = mat
        return self._encoding_matrix

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

        edges = []
        for k in range(h):
            base, nxt = level_offsets[k], level_offsets[k + 1]
            for j in range(level_sizes[k]):
                for a in range(g):
                    edges.append((base + j, nxt + j * g + a, a, 0))
        for leaf in self.leaves:
            edges.append((int(leaf), sink, 0, 0))

        rewards = {int(leaf): float(r) for leaf, r in zip(self.leaves, leaf_rewards)}
        super().__init__(num_states, sink, edges, rewards, feature_dim=num_states)

    def encode(self, s: int) -> np.ndarray:
        v = np.zeros(self.feature_dim)
        v[s] = 1.0
        return v

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "branching": self.branching,
            "depth": self.depth,
            "leaf_rewards": self.leaf_rewards.tolist(),
        }


def hypergrid_reward(x: Sequence[int], side: int, r0: float, r1: float, r2: float) -> float:
    """Reward of a grid point: base plus two nested indicator plateaus.

    The indicators are strict: a coordinate contributes only when its scaled
    distance from the center exceeds 0.25 (inner band) or 0.4 (corner band).
    """
    u = [abs(xi / (side - 1) - 0.5) for xi in x]
    inner = all(ui > 0.25 for ui in u)
    corner = all(ui > 0.4 for ui in u)
    return r0 + (r1 if inner else 0.0) + (r2 if corner else 0.0)


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
        self._strides = np.array([H ** (D - 1 - i) for i in range(D)], dtype=np.int64)

        edges = []
        rewards: Dict[int, float] = {}
        for idx in range(n_grid):
            coords = self.grid_point(idx)
            for i in range(D):
                if coords[i] < H - 1:
                    edges.append((idx, idx + int(self._strides[i]), i, i))
            edges.append((idx, n_grid + idx, D, 0))       # exit to terminal copy
            edges.append((n_grid + idx, sink, 0, 0))      # terminal copy -> sink
            rewards[n_grid + idx] = hypergrid_reward(coords, H, self.r0, self.r1, self.r2)

        super().__init__(2 * n_grid + 1, sink, edges, rewards, feature_dim=D * H)

    def grid_point(self, s: int) -> Tuple[int, ...]:
        """Coordinates of a state (active or terminal copy)."""
        idx = int(s) if s < self.n_grid else int(s) - self.n_grid
        out = []
        for st in self._strides:
            q, idx = divmod(idx, int(st))
            out.append(q)
        return tuple(out)

    def encode(self, s: int) -> np.ndarray:
        v = np.zeros(self.feature_dim)
        for i, xi in enumerate(self.grid_point(s)):
            v[i * self.side + xi] = 1.0
        return v

    def mode_states(self) -> np.ndarray:
        """Terminating states whose reward hits the full r0+r1+r2 plateau."""
        peak = self.r0 + self.r1 + self.r2
        xs = self.terminating_states
        return xs[np.isclose(self.reward_table[xs], peak, rtol=0, atol=1e-12)]

    def describe(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "dimension": self.dimension,
            "side": self.side,
            "r0": self.r0,
            "r1": self.r1,
            "r2": self.r2,
        }


class OneMoreMode(DagEnv):
    """Same graph as a base environment with extra reward on a subset of states.

    ``reward(x) = base.reward(x) + added[x]`` with ``added >= 0`` supported on
    terminating states only.  The graph arrays, the terminating set and the
    feature encoding are the base's own objects, shared, not copied.
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
        self._reach_counts = None

    def encode(self, s: int) -> np.ndarray:
        return self.base.encode(s)

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


def enumerate_terminating(env: DagEnv, cap: int = DEFAULT_STATE_CAP) -> List[Tuple[int, float]]:
    """All (state, reward) pairs for terminating states; exact partition sum source."""
    if env.num_states > cap:
        raise EnumerationCapError(
            f"environment has {env.num_states} states, above the cap {cap}"
        )
    return [(int(x), float(env.reward_table[x])) for x in env.terminating_states]


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
        return Hypergrid(
            int(spec["dimension"]),
            int(spec["side"]),
            spec["r0"],
            float(spec["r1"]),
            float(spec["r2"]),
        )
    prev, new = one_more_mode_tree(
        int(spec["branching"]), int(spec["depth"]), float(spec["epsilon"])
    )
    return new if spec["stage"] == "new" else prev
