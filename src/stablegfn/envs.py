"""Finite-DAG environments: regular trees, hypergrids and the one-more-mode tree pair.

Every environment is an immutable DAG with a unique source (index 0), a unique
sink (``env.sink``), and a set of terminating states whose only child is the
sink.  Terminating states carry a positive reward; all other states have
reward zero.  Action "slots" give each edge a stable logit index so a single
policy head can score all states of an environment.

States are described only by arrays built with the graph, never by
per-state methods: ``features`` lists each state's one-hot feature columns,
``reward_table`` its reward and ``mode_mask`` whether it is a mode.

One graph layout: the edge arrays (``edge_src``/``edge_dst``/``edge_fslot``/
``edge_bslot``) and the slot matrices (``child_matrix``/``parent_matrix``).
A builder hands :class:`DagEnv` the edge columns and its terminating states'
rewards as arrays, the ones it keeps: no reward dict and no stack of edge rows.
The move table ``_moves`` holds the same edges per state, as Python lists,
only at the states a rollout has visited (see :func:`stablegfn.policy.rollout`).
``forward_choice``/``backward_choice`` list the states with more than one
child/parent: the only states whose policy rows a sampler evaluates.
``forward_has_choice``/``backward_has_choice`` mark the same states in a
per-state boolean array.
One graph order, the level order: ``levels`` groups states by their longest
distance from the source, ``level_edges`` groups edges by their source's
level.  Every whole-graph pass walks it, one array step per level.
The build is sorts and linear passes: numpy 2.x's plain ``np.unique`` hashes,
2 ms on 12,000 ints against 0.13 ms for a sort and a neighbour compare.

An environment does not describe itself: it keeps no kind, size or reward
parameter, and the resolved config's ``env`` section is the one description
of it.  :data:`ENV_KEYS` is that section's one schema, a table per kind of
each key's type, default and allowed values; ``config.resolve`` reads it and
fills the defaults, :func:`make_env` builds from the result, and a
checkpoint keeps it.
"""

from __future__ import annotations

import math
import numbers
import os
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

# Environments larger than this refuse exact whole-graph passes (see
# check_state_cap); callers must use sampling-based paths instead.
STATE_CAP = 2_000_000

# The env config section's table per kind: key -> (annotation, default), with
# no default for a required key, read by config._section.  A None annotation
# leaves the key to a rule in config (leaf_rewards is a list of numbers), and
# a null r0 follows the side (hypergrid_default_r0).
ENV_KEYS: Dict[str, Dict[str, tuple]] = {
    "tree": {"branching": ("int",), "depth": ("int",), "leaf_rewards": (None, None)},
    "hypergrid": {"dimension": ("int",), "side": ("int",), "r0": ("Optional[float]", None),
                  "r1": ("float", 0.5), "r2": ("float", 2.0)},
}


# Bytes (1 GiB) the one-hot cache may hold, one a cell: its entries are 0 and
# 1, which uint8 holds exactly.  A tree has a column per state, so its cache
# grows as S**2: T(2,13) needs 268M cells, T(2,14) 1 GiB.  A net reads the
# cache through a gather of its rows, and its first matmul casts them to a
# float64 copy: in a cache-free block (policy._log_policy) fewer than
# 2 * ceil(BLAS_EXACT_CELLS / A) rows x feature_dim, A the net's output width.
ENCODING_CELL_CAP = 1 << 30


class EnumerationCapError(RuntimeError):
    """Raised when an exact computation is requested on too large a graph."""


def check_state_cap(num_states: int, need: str = "an exact pass") -> None:
    """Refuse ``need``, an exact pass over ``num_states`` states, above :data:`STATE_CAP`."""
    if num_states > STATE_CAP:
        raise EnumerationCapError(f"{need}: {num_states} states exceed STATE_CAP = {STATE_CAP}")


def check_memory(need: int, what: str, of: str) -> None:
    """Refuse ``what`` when ``need`` bytes of ``of`` exceed physical memory."""
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        raise EnumerationCapError(f"{what} need {need / 2**30:.4g} GiB "
                                  f"of {of}, above {have / 2**30:.4g} GiB of memory")


def _check_slot_memory(num_states: int, slots: int, what: str) -> None:
    """Refuse to build ``what`` when its slot matrices alone, ``num_states`` x
    ``slots`` int64 cells, exceed physical memory: a lower bound on the build."""
    check_memory(8 * num_states * slots, f"{what}: {num_states} states", "slot matrices")


def check_walk_memory(env: DagEnv, walks: int, key: str) -> None:
    """Refuse ``walks`` sampled paths, set by ``key``, when their walk matrix
    alone, ``walks`` x ``len(env.levels)`` int64 cells, exceeds physical memory."""
    check_memory(8 * walks * len(env.levels), f"{key}: {walks} walks", "walk matrix")


def check_terminating(env: DagEnv, states, what: str) -> np.ndarray:
    """``states`` as an int64 array, else a ValueError naming the first, as
    ``what``, that is not a terminating state of ``env`` (out of range, not
    an integer, a bool or not a number too)."""
    raw = np.asarray(states)
    if raw.dtype.kind not in "iuf":  # bools, strings or other objects: name the first no state
        for x in np.asarray(states, dtype=object).flat:
            if isinstance(x, bool) or not isinstance(x, numbers.Real):
                raise ValueError(f"{what} {x!r} is not a terminating state")
        raw = raw.astype(np.float64)  # numbers that no int64 holds
    ok = (raw >= 0) & (raw < env.num_states) & (raw == np.floor(raw))
    xs = np.where(ok, raw, 0).astype(np.int64)
    ok[ok] = env.terminating_mask[xs[ok]]
    if not ok.all():
        raise ValueError(f"{what} {raw[~ok][0]} is not a terminating state")
    return xs


def sorted_unique(x: np.ndarray) -> np.ndarray:
    """``np.unique(x)`` of a 1-D array, by a sort and a neighbour compare."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if len(x) else x


def _fill_slots(matrix: np.ndarray, at: np.ndarray, slots: np.ndarray,
                values: np.ndarray, side: str) -> np.ndarray:
    """``matrix[at, slots] = values``, returning ``matrix >= 0``; a slot used
    twice at one state is an error, seen as fewer filled cells than edges."""
    matrix[at, slots] = values
    filled = matrix >= 0
    if np.count_nonzero(filled) < len(at):  # a repeat, or a negative value
        first = np.unique(at * matrix.shape[1] + slots, return_index=True)[1]
        i = np.setdiff1d(np.arange(len(at)), first)[:1]  # the first repeat, in edge order
        if len(i):
            raise ValueError(f"duplicate {side} slot {slots[i[0]]} at state {at[i[0]]}")
    return filled


class DagEnv:
    """Dense finite-DAG environment.

    Subclasses supply the arrays it keeps: the four int64 edge columns
    (source, target, forward slot, backward slot), the terminating states
    with their finite positive rewards, and the features: an (S, k) integer
    array, S the state count, whose row ``s`` lists the one-hot columns
    (below ``feature_dim``) set for state ``s``, -1 meaning none.  The edge
    arrays and the slot matrices are the one graph layout; this base class
    fills the matrices and masks, computes the level order, validates the
    DAG invariants and marks the modes (:meth:`_modes`).
    """

    def __init__(self, sink: int, src: np.ndarray, dst: np.ndarray, fslot: np.ndarray,
                 bslot: np.ndarray, terminals: np.ndarray, rewards: np.ndarray,
                 features: np.ndarray, feature_dim: int):
        features = np.asarray(features, dtype=np.int64)
        self.num_states = S = len(features)
        self.initial_state = 0
        self.sink = sink
        self.features = features.reshape(S, -1)
        self.feature_dim = feature_dim

        self.edge_src, self.edge_dst = src, dst
        self.edge_fslot, self.edge_bslot = fslot, bslot
        self.num_edges = len(src)

        self.num_forward_slots = int(fslot.max()) + 1 if len(src) else 1
        self.num_backward_slots = int(bslot.max()) + 1 if len(src) else 1

        AF, AB = self.num_forward_slots, self.num_backward_slots
        self.child_matrix = np.full((S, AF), -1, dtype=np.int64)
        self.parent_matrix = np.full((S, AB), -1, dtype=np.int64)
        self.forward_mask = _fill_slots(self.child_matrix, src, fslot, dst, "forward")
        inner = dst != sink
        self.backward_mask = _fill_slots(self.parent_matrix, dst[inner], bslot[inner],
                                         src[inner], "backward")
        indeg = np.bincount(dst, minlength=S)
        indeg[sink] = 0  # edges into the sink have no backward slot
        outdeg, to_sink = np.bincount(src, minlength=S), np.bincount(src[~inner], minlength=S) > 0
        self.forward_has_choice = outdeg > 1
        self.backward_has_choice = indeg > 1
        self.forward_choice = np.flatnonzero(self.forward_has_choice)
        self.backward_choice = np.flatnonzero(self.backward_has_choice)

        bad = np.flatnonzero(~(np.isfinite(rewards) & (rewards > 0)))
        if len(bad):
            raise ValueError(f"terminating state {terminals[bad[0]]} must have a finite "
                             f"positive reward, got {rewards[bad[0]]}")
        self.reward_table = np.zeros(S, dtype=np.float64)
        self.reward_table[terminals] = rewards
        self.terminating_mask = self.reward_table > 0
        self.terminating_states = np.flatnonzero(self.terminating_mask)
        with np.errstate(over="ignore"):  # the total every oracle divides by
            total = self.reward_table[self.terminating_states].sum()
        if not np.isfinite(total):
            raise ValueError(f"the terminating states' rewards must have a finite total, got {total}")

        self.levels, self.level_edges = self._level_order()
        self._encoding_matrix: Optional[np.ndarray] = None
        # (forward, backward): state -> (slots, next states as a list, index in
        # _move_choices or -1 without a choice), filled by policy.rollout at
        # the states it visits; never built whole
        self._moves: Tuple[Dict, Dict] = ({}, {})
        self._move_choices: Tuple[List[int], List[int]] = ([], [])
        # filled on first use by losses.terminal_reach_counts
        self._reach_counts: Optional[np.ndarray] = None
        self._validate(outdeg, to_sink)
        self.mode_mask = self._modes()

    # -- structure ---------------------------------------------------------

    def _level_order(self) -> Tuple[List[np.ndarray], List[np.ndarray]]:
        """States grouped by their longest distance from a parentless state,
        frontier by frontier, and edges grouped by their source's level.

        Each level's states are ascending, each level's edges in edge order.
        Every edge goes to a higher level, so a pass that walks the levels in
        order (reversed) sees every state after (before) all its parents.
        Frontiers dedupe by :func:`sorted_unique` (63 plain ``np.unique`` calls
        took 35 of 66 ms on H(4,16)); levels take the smallest unsigned dtype.
        """
        S = self.num_states
        indeg = np.bincount(self.edge_dst, minlength=S)
        frontier = np.flatnonzero(indeg == 0)
        levels = []
        while len(frontier):
            levels.append(frontier)
            kids = self.child_matrix[frontier][self.forward_mask[frontier]]
            np.subtract.at(indeg, kids, 1)
            frontier = sorted_unique(kids[indeg[kids] == 0])
        sizes = [len(lv) for lv in levels]
        if sum(sizes) != S:
            raise ValueError("environment graph contains a cycle")
        level_of = np.empty(S, dtype=np.min_scalar_type(len(levels)))  # radix-sortable
        level_of[np.concatenate(levels)] = np.repeat(np.arange(len(levels)), sizes)
        edge_level = level_of[self.edge_src]
        order = np.argsort(edge_level, kind="stable")
        bounds = np.cumsum(np.bincount(edge_level, minlength=len(levels)))[:-1]
        return levels, np.split(order, bounds)

    def _validate(self, outdeg: np.ndarray, to_sink: np.ndarray) -> None:
        if self.initial_state not in self.levels[0]:
            raise ValueError("initial state must have no parents")
        if len(self.levels[0]) > 1:  # ascending, from the initial state 0
            raise ValueError(f"state {self.levels[0][1]} has no parents; only the initial state may")
        if outdeg[self.sink]:
            raise ValueError("sink must have no children")
        dead = np.flatnonzero(outdeg == 0)
        if len(dead) > 1:
            raise ValueError(f"state {dead[dead != self.sink][0]} has no children; only the sink may")
        term = self.terminating_states
        bad = term[(outdeg[term] != 1) | ~to_sink[term]]
        if len(bad):
            raise ValueError(f"terminating state {bad[0]} must have the sink as its only child")
        if (to_sink & ~self.terminating_mask).any():
            raise ValueError("only terminating states may connect to the sink")

    # -- features and modes --------------------------------------------------

    @property
    def encoding_matrix(self) -> np.ndarray:
        """Dense one-hot features, one uint8 a cell: row ``s`` is 1 at the
        columns ``features[s]`` lists; built lazily, cached, refused above
        ``ENCODING_CELL_CAP`` bytes.  Built one feature column at a time, so
        its int64 index temporaries cover one column's states, not all of
        ``features`` at once (24 bytes a state per column, which would
        outweigh the cache)."""
        if self._encoding_matrix is None:
            if self.num_states * self.feature_dim > ENCODING_CELL_CAP:
                raise EnumerationCapError(
                    f"one-hot features of {self.num_states} x {self.feature_dim} cells are "
                    f"above the cap {ENCODING_CELL_CAP} bytes; use a tabular model")
            mat = np.zeros((self.num_states, self.feature_dim), dtype=np.uint8)
            for col in self.features.T:
                rows = np.flatnonzero(col >= 0)
                mat[rows, col[rows]] = 1
            self._encoding_matrix = mat
        return self._encoding_matrix

    def _modes(self) -> np.ndarray:
        """Mode mask: the terminating states within 1e-12 of the largest reward."""
        rmax = self.reward_table[self.terminating_states].max()
        return self.terminating_mask & (self.reward_table >= rmax - 1e-12)


def _check_tree(g: int, h: int) -> None:
    """Refuse a g-ary tree of depth h that is degenerate or too large to build."""
    if g < 2:
        raise ValueError("branching must be >= 2")
    if h < 1:
        raise ValueError("depth must be >= 1")
    # forward slots: one per child; backward: the one parent
    _check_slot_memory((g ** (h + 1) - 1) // (g - 1) + 1, g + 1, f"tree({g}, {h})")


class RegularTree(DagEnv):
    """Perfect g-ary tree of depth h; the g**h leaves are the terminating states.

    Every non-root state has exactly one parent, so the backward policy is
    deterministic.  Leaf rewards default to 1; the leaves are ``terminating_states``.
    """

    def __init__(self, branching: int, depth: int, leaf_rewards: Optional[Sequence[float]] = None):
        _check_tree(branching, depth)
        g, h = branching, depth
        level_sizes = [g**k for k in range(h + 1)]
        level_offsets = np.cumsum([0] + level_sizes)
        n_tree = int(level_offsets[-1])
        sink = n_tree
        leaves = np.arange(level_offsets[h], n_tree)

        if leaf_rewards is None:
            leaf_rewards = np.ones(len(leaves))
        leaf_rewards = np.asarray(leaf_rewards, dtype=np.float64)
        if leaf_rewards.shape != leaves.shape:
            raise ValueError(f"expected {len(leaves)} leaf rewards")

        # breadth-first numbering: internal node i has children g*i+1 .. g*i+g
        inner = np.repeat(np.arange(int(level_offsets[h]), dtype=np.int64), g)
        action = np.tile(np.arange(g, dtype=np.int64), len(inner) // g)
        src = np.concatenate([inner, leaves])
        dst = np.concatenate([g * inner + 1 + action, np.full_like(leaves, sink)])
        fslot = np.concatenate([action, np.zeros_like(leaves)])
        features = np.r_[np.arange(n_tree), -1]  # one column per state, none at the sink
        super().__init__(sink, src, dst, fslot, np.zeros_like(src), leaves, leaf_rewards,
                         features, feature_dim=n_tree + 1)


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

    Features are one-hot per coordinate (column ``i*H + x_i``) on both copies.
    Modes follow the max-reward rule of every environment: with the default
    rewards they are the corners, the r0+r1+r2 plateau (Bengio et al. 2021,
    arXiv:2106.04399); the far corner's terminal copy is ``sink - 1``.
    """

    def __init__(self, dimension: int, side: int, r0: Optional[float] = None,
                 r1: float = ENV_KEYS["hypergrid"]["r1"][1],
                 r2: float = ENV_KEYS["hypergrid"]["r2"][1]):
        if dimension < 1 or side < 2:
            raise ValueError("need dimension >= 1 and side >= 2")
        r0 = hypergrid_default_r0(side) if r0 is None else float(r0)
        if r0 <= 0:
            raise ValueError("r0 must be positive")

        D, H = dimension, side
        n_grid = H**D
        # forward slots: an increment per coordinate and the exit; backward: a decrement
        _check_slot_memory(2 * n_grid + 1, 2 * D + 1, f"hypergrid({D}, {H})")
        sink = 2 * n_grid
        strides = np.array([H ** (D - 1 - i) for i in range(D)], dtype=np.int64)

        # per grid point, in this order: an increment per coordinate below
        # the far side, the exit to the terminal copy, its edge to the sink
        idx = np.arange(n_grid, dtype=np.int64)[:, None]
        coords = idx // strides % H
        term = n_grid + idx
        valid = np.hstack([coords < H - 1, np.ones((n_grid, 2), dtype=bool)])
        src = np.hstack([np.repeat(idx, D, axis=1), idx, term])[valid]
        dst = np.hstack([idx + strides, term, np.full_like(idx, sink)])[valid]
        fslot = np.broadcast_to(np.r_[np.arange(D), D, 0], valid.shape)[valid]
        bslot = np.broadcast_to(np.r_[np.arange(D), 0, 0], valid.shape)[valid]
        reward = hypergrid_reward(coords, H, r0, float(r1), float(r2))
        cols = coords + H * np.arange(D)
        features = np.vstack([cols, cols, np.full((1, D), -1)])

        super().__init__(sink, src, dst, fslot, bslot, term[:, 0], reward, features,
                         feature_dim=D * H)


def check_added(env: DagEnv, added: Dict[int, float]) -> np.ndarray:
    """The states of an increment ``added`` (state -> extra reward) as an
    int64 array, in its order; refuses one off ``env``'s terminating states
    (:func:`check_terminating`), a reward that is negative or NaN, or one that
    leaves a reward not finite."""
    xs = check_terminating(env, list(added), "increment state")
    for x, r in zip(xs.tolist(), added.values()):
        if not r >= 0:
            raise ValueError("added reward must be nonnegative")
        if not math.isfinite(env.reward_table[x] + r):
            raise ValueError(f"terminating state {x} must have a finite positive reward, "
                             f"got {env.reward_table[x] + r}")
    return xs


def one_more_mode_tree(branching: int, depth: int,
                       epsilon: float) -> Tuple[RegularTree, RegularTree]:
    """Incremental-coverage pair: a tree with one negligible leaf, then promoted.

    The previous environment gives the last leaf reward ``epsilon`` and every
    other leaf reward 1; the new environment promotes that leaf by ``1 - epsilon``
    to reward 1 (in floats too: ``epsilon + (1 - epsilon)`` rounds to 1).
    """
    if not 0 < epsilon <= 1:
        raise ValueError("epsilon must be in (0, 1]")
    _check_tree(branching, depth)  # before the leaf rewards are allocated
    rewards = np.ones(branching**depth)
    rewards[-1] = epsilon
    return RegularTree(branching, depth, rewards), RegularTree(branching, depth)


def true_partition(env: DagEnv) -> float:
    """Exact partition value: the sum of all terminating rewards."""
    return float(env.reward_table[env.terminating_states].sum())


def target_distribution(env: DagEnv) -> np.ndarray:
    """Reward-proportional target over ``env.terminating_states``."""
    r = env.reward_table[env.terminating_states]
    return r / r.sum()


def make_env(spec: Dict[str, object]) -> DagEnv:
    """Build an environment from a resolved ``env`` config section, every
    key present (see :func:`stablegfn.config.resolve`)."""
    if spec["kind"] == "tree":
        return RegularTree(spec["branching"], spec["depth"], spec["leaf_rewards"])
    return Hypergrid(spec["dimension"], spec["side"], spec["r0"], spec["r1"], spec["r2"])
