"""Forward/backward policies over a DAG environment, with trajectory sampling.

A :class:`PolicyModel` wraps approximators into a forward policy (masked
softmax over child slots), a backward policy (masked softmax over parent
slots, learned or the fixed-uniform :class:`~stablegfn.approximator.Uniform`),
a learnable log partition value, and an optional state-flow head.
Valid-action logits are clamped to [-50, 50] before normalization so every
valid edge keeps strictly positive probability.  The model has no per-edge
or per-state lookup: those, and the per-object losses built on them, live in
the test suite's reference module, and :func:`stablegfn.losses.batch_loss`
is the package's one loss implementation.

Paths live in one :class:`PathBatch`, a padded state matrix; every path
producer returns one.  :func:`rollout` walks training trajectories one after
another: a step costs its draw, and a choice state's row is computed once per
call.  Bulk samplers walk in lockstep, one matrix column per step, over flat
(state, slot) cells and only the walkers still moving.
:func:`score_paths` takes a batch's log-probs from one :class:`EdgeBatch` over
its edges, so they are bit-reproducible given seed and batch; a table walk
records the same bits while it draws.  The batch is the one path record, the
replay buffer's too: ``states``, ``lengths``, ``rewards`` and, once scored,
``log_pf``/``log_pb``.

Where each rule lives, stated once with its measured reason:

* rows: every policy row is :func:`_masked_rows` over its side's whole
  width, by :func:`_log_softmax`; :func:`_log_policy` evaluates many rows,
  cache-free and in blocks, and :data:`BLAS_EXACT_CELLS` says when an MLP
  row keeps its bits; :func:`_row` is a training rollout's single row;
* tables: :func:`_table` gives a side's (S, A) log-prob matrix by its rule
  and keeps it on the model; only :func:`_walk` and
  :func:`exact_terminal_distribution` ask for one;
* draws: :func:`proportional_draw` is the one draw rule, over cumulative
  rows (:func:`_cumulative`) in :func:`_draw_rows`, on a listed row in
  :func:`rollout`, over terminating states in :func:`draw_terminals`;
* walks: :func:`_walk` walks both bulk samplers and records their
  log-probs where it can, else :func:`score_paths` scores them;
* training: :class:`EdgeBatch` and :class:`FlowBatch` are the only net
  passes that keep backward caches;
* :func:`exact_terminal_distribution` pushes mass along the environment's
  level order, one array step per level (see :mod:`stablegfn.envs`).
"""

from __future__ import annotations

import hashlib
import math
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .approximator import Mlp, ParamVector, Tabular, Uniform
from .envs import DagEnv, check_memory, check_state_cap, check_terminating

LOGIT_CLAMP = 50.0
# Cells (block rows x output width A) from which an MLP block gives the
# whole-batch values.  OpenBLAS rounds smaller products differently (a
# small-matrix kernel): the boundary is a cell count, not a row count.  With
# OpenBLAS 0.3.31's SkylakeX kernel, blocks of up to 1,200 cells moved the
# last bits at hidden widths 64 and 256 and every larger one matched, for
# A = 2, 3, 5 and 8; this keeps a third in hand.  Its Haswell kernel keeps no
# such floor: blocks of any size may differ from the whole call (ROADMAP
# item 9).  So a walk's smaller per-step calls may move an MLP side's
# log-probs in their last bits against its table and, when a uniform lands
# within rounding of a cumulative boundary, a draw (see _walk and rollout);
# tabular and uniform rows are gathers or zeros, the same bits in any call.
# Blocks hold fewer than
# twice ceil(BLAS_EXACT_CELLS / A) rows, the memory bound of a block: at
# A = 5, under 640 rows, whose 256-wide activation (under 1.25 MiB) stays
# within a 2 MiB L2 cache.
BLAS_EXACT_CELLS = 1600
# A bulk walk over an MLP side without its table builds it once this many
# times the rows of its per-step calls reach the side's choice states.  On the
# bench's trained H(4,8) 256x256 model (4,095 forward, 4,067 backward choice
# states), a 1,000 + 1,000-path certificate then the 16,384-path evaluation
# with its exact DP took 69 + 49 ms with no switch, and 77 + 33, 89 + 19,
# 81 + 19 and 74 + 18 ms at 1, 2, 4 and 8 (median of 9, 2-vCPU host, BLAS at
# 1 thread).  At 2 the forward walk switches near its end (row 2,048 of its
# 2,143); at 4 it switches at about row 1,100, while the bench's walks on
# H(4,16) evaluate at most 1,870 rows, under an eighth of their 16,384.
TABLE_SWITCH_FACTOR = 4
# Bytes a training rollout holds per state of a walk, a floor: tracemalloc
# measured 50 (T(3,4)) to 94 (H(4,8)) per visited state over 50,000 walks, in
# the walk's list, its flattened copy and the padded batch
ROLLOUT_STATE_BYTES = 48


class PathBatch:
    """Source-to-sink paths as one padded (N, L) int64 state matrix.

    Row i of ``states`` holds path i in its first ``lengths[i]`` columns and
    -1 after them.  ``terminals``, ``rewards`` and ``log_rewards`` (the one
    log-reward every loss and certificate reads) belong to each path's
    terminating state, the one before the sink.  Once scored (by
    :func:`score_paths`, or by the bulk walk that drew it), ``log_pf`` sums
    every edge's log-prob (the hop into the sink adds 0) and ``log_pb`` every
    edge's but that hop's.  A slice, mask or index array
    gives a batch, and ``a + b`` appends one batch to another.
    """

    def __init__(self, states: np.ndarray, lengths: np.ndarray, rewards: np.ndarray,
                 log_pf: Optional[np.ndarray] = None, log_pb: Optional[np.ndarray] = None):
        self.states, self.lengths, self.rewards = states, lengths, rewards
        self.terminals = states[np.arange(len(states)), lengths - 2]
        self.log_rewards = np.log(rewards)
        self.log_pf, self.log_pb = log_pf, log_pb

    @classmethod
    def of_matrix(cls, env: DagEnv, states: np.ndarray, lengths: np.ndarray) -> "PathBatch":
        """Paths through ``env``, rewarded by their terminating states."""
        return cls(states, lengths, env.reward_table[states[np.arange(len(states)), lengths - 2]])

    @classmethod
    def of_lists(cls, env: DagEnv, paths: Sequence[Sequence[int]]) -> "PathBatch":
        """Paths through ``env`` given as lists of states, padded with -1."""
        lengths = np.array([len(p) for p in paths], dtype=np.int64)
        states = np.full((len(paths), lengths.max(initial=2)), -1, dtype=np.int64)
        states[np.arange(states.shape[1]) < lengths[:, None]] = [s for p in paths for s in p]
        return cls.of_matrix(env, states, lengths)

    def _columns(self) -> list:
        return [self.lengths, self.rewards, self.log_pf, self.log_pb]

    def __len__(self) -> int:
        return len(self.states)

    def __iter__(self):
        return map(PathView, self.terminals.tolist())

    def __getitem__(self, key) -> "PathBatch":
        return PathBatch(self.states[key], *(None if c is None else c[key] for c in self._columns()))

    def __add__(self, other: "PathBatch") -> "PathBatch":
        (n, a), (m, b) = self.states.shape, other.states.shape
        states = np.full((n + m, max(a, b)), -1, dtype=np.int64)
        states[:n, :a], states[n:, :b] = self.states, other.states
        return PathBatch(states, *(None if x is None or y is None else np.concatenate([x, y])
                                   for x, y in zip(self._columns(), other._columns())))


class PathView:
    """What iterating a :class:`PathBatch` yields, only for the benchmark's row read."""

    __slots__ = ("terminating_state",)

    def __init__(self, terminating_state: int):
        self.terminating_state = terminating_state


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted log-softmax over the last axis; -inf entries get probability 0."""
    # the transpose broadcasts without keepdims, which is slow on single rows
    zt = z.T
    m = zt.max(0)
    return (zt - (m + np.log(np.exp(zt - m).sum(0)))).T


def _clamp(logits: np.ndarray) -> np.ndarray:
    """np.clip to ±LOGIT_CLAMP, bit for bit, minus the Python wrapper that doubles its cost."""
    return np.minimum(np.maximum(logits, -LOGIT_CLAMP), LOGIT_CLAMP)


def _masked_rows(logits: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Clamped masked log-softmax over rows, -inf at invalid slots (whose
    ``np.exp`` is exactly 0): every policy row, over its side's whole width,
    so a row depends only on its logits and a table row has the bits of the
    same state's row in any other call."""
    return _log_softmax(np.where(mask, _clamp(logits), -np.inf))


def proportional_draw(rng: np.random.Generator, weights: np.ndarray, size=None):
    """Indices drawn with probability proportional to nonnegative ``weights``.

    The package's one draw rule.  With ``c`` the cumulative sums, a uniform
    ``u`` picks the index ``i`` with ``c[i-1] <= u * c[-1] < c[i]``: ``u``
    scaled by the total is located in the sums with ``side="right"``, so a
    zero-weight entry is never picked.  Only the sums but the last are
    searched, so the last index is picked when rounding puts the scaled
    uniform at the total (possible with subnormal totals).  :func:`rollout`
    applies the rule as ``bisect_right`` on a row's listed sums,
    :func:`_draw_rows` to rows of flat cumulative sums, one slot column at a
    time.  ``size=None`` draws one index.
    """
    c = np.cumsum(weights)
    return np.searchsorted(c[:-1], rng.random(size) * c[-1], side="right")


def draw_terminals(rng: np.random.Generator, rewards: np.ndarray, scope: np.ndarray,
                   count: int) -> np.ndarray:
    """``count`` states of the int array ``scope``, with replacement, by :func:`proportional_draw`
    over their rewards in ``scope``'s order (``rewards`` is indexed by state)."""
    return scope[proportional_draw(rng, rewards[scope], count)]


def _draw_rows(rng: np.random.Generator, cum: np.ndarray, base: np.ndarray,
               width: int) -> np.ndarray:
    """One :func:`proportional_draw` per row of ``width`` cumulative sums (each
    row its weights' ``np.cumsum``) at the offsets ``base`` of the flat array
    ``cum``, one uniform per row: the package's one row-wise draw.

    A row's slot is the count of its sums but the last that are at most its
    scaled uniform, added up one slot column at a time: a gather and a
    compare per column, and no (rows x ``width``) matrix.  A one-wide row
    draws slot 0 and still takes its uniform."""
    u = rng.random(len(base)) * cum[base + (width - 1)]
    drawn = np.zeros(len(base), dtype=np.int64)
    for j in range(width - 1):
        drawn += cum[base + j] <= u
    return drawn


def check_param_memory(nets, size: int, vectors: int) -> None:
    """Refuse ``vectors`` float64 vectors of ``size`` parameters, those of a
    model of ``nets``, when they exceed physical memory, naming the key that
    sizes them: ``model.hidden`` for an MLP model, else ``model.kind``."""
    mlp = next((n for n in nets if isinstance(n, Mlp)), None)
    key = "model.kind tabular" if mlp is None else f"model.hidden {mlp.dims[1:3]}"
    check_memory(8 * vectors * size, f"{key}: {size} parameters", "parameter vectors")


class PolicyModel:
    """Parameterized forward/backward policies plus logZ and optional flow head,
    and each side's kept table (see :func:`_table`)."""

    def __init__(self, forward_net, backward_net, flow_net=None):
        self.forward_net, self.backward_net, self.flow_net = forward_net, backward_net, flow_net
        self._nets = [n for n in (forward_net, backward_net, flow_net) if n is not None]
        spec = [("logz", ())] + [p for n in self._nets for p in n.param_spec()]
        # the values and their gradients, refused before either is allocated
        check_param_memory(self._nets, sum(math.prod(shape) for _, shape in spec), 2)
        # logZ starts at 0, as every parameter of a new ParamVector
        self.params = ParamVector(spec)
        for net in self._nets:
            net.bind(self.params)
        # per side (forward, backward), its net's one contiguous range of
        # params.values, empty for a uniform net, and the last table a walk
        # built (see _table)
        bounds = [[self.params.slice_bounds(name) for name, _ in net.param_spec()]
                  for net in (forward_net, backward_net)]
        self._ranges = [slice(b[0][0], b[-1][1]) if b else slice(0, 0) for b in bounds]
        self._kept: List[Optional[tuple]] = [None, None]

    def __getstate__(self) -> dict:  # a copy or a pickle keeps no table, so no env
        return {**vars(self), "_kept": [None, None]}

    def __setstate__(self, state: dict) -> None:  # its nets read its own params
        vars(self).update(state)
        for net in self._nets:
            net.bind(self.params)

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        env: DagEnv,
        kind: str,
        hidden: Sequence[int] = (),
        learn_backward: bool = True,
        flow_head: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> "PolicyModel":
        rng = rng or np.random.default_rng(0)
        af, ab = env.num_forward_slots, env.num_backward_slots
        if kind == "tabular":
            fnet = Tabular(env.num_states, af, "pf")
            bnet = Tabular(env.num_states, ab, "pb") if learn_backward else Uniform(ab)
            flnet = Tabular(env.num_states, 1, "flow") if flow_head else None
        elif kind == "mlp":
            env.encoding_matrix  # built, or refused by its cap, at set-up
            fnet = Mlp(env.feature_dim, hidden, af, "pf")
            bnet = Mlp(env.feature_dim, hidden, ab, "pb") if learn_backward else Uniform(ab)
            flnet = Mlp(env.feature_dim, hidden, 1, "flow") if flow_head else None
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        model = cls(fnet, bnet, flnet)
        for net in model._nets:
            net.init_params(rng)
        return model

    # -- parameter access ------------------------------------------------

    @property
    def logz(self) -> float:
        return float(self.params.view("logz")[()])

    def set_logz(self, value: float) -> None:
        self.params.view("logz")[...] = value

    def add_logz_grad(self, g: float) -> None:
        self.params.grad_view("logz")[...] += g


def _eval_rows(net, states: np.ndarray, env: DagEnv, cache: bool = True):
    """(net outputs at ``states``, what the net's ``backward`` needs), from one
    call on tabular indices or one-hot rows.

    One-hot rows are a uint8 gather from the cache, and stay uint8 in a
    training batch's backward cache: the net's matmuls cast them to float64
    before BLAS runs, and 0 and 1 cast exactly, so they keep every bit."""
    return net.forward(states if net.wants_indices else env.encoding_matrix[states], cache=cache)


def _row(net, s: int, mask: np.ndarray, env: DagEnv) -> np.ndarray:
    """One state's row of the side with slot mask ``mask``, over its whole
    width and -inf at invalid slots, as a table holds it."""
    out, _ = _eval_rows(net, np.array([s]), env, cache=False)
    return _masked_rows(out[0], mask[s])


def _log_policy(net, mask: np.ndarray, states: np.ndarray, env: DagEnv) -> np.ndarray:
    """The policy table of ``net`` at ``states``: their clamped masked
    log-softmax rows, -inf at invalid slots.

    The package's one cache-free evaluator, for the exact DP, the walks'
    tables and per-step rows, and the scoring of bulk and enumerated batches;
    a rollout's single rows (:func:`_row`) are the one exception.  With
    ``floor`` = ⌈:data:`BLAS_EXACT_CELLS` / A⌉, a call of fewer than
    ``2 * floor`` rows is one net call, whose masked rows it returns as they
    are.  A longer one is built one near-equal block of ``floor`` to
    ``2 * floor - 1`` rows at a time: large enough for the whole-batch bits,
    small enough to stay in cache, so it holds ``len(states)`` x A floats plus
    one block, not a net's activations over every row.  Tabular rows are
    gathers, the same bits at any block size.
    """
    n, width = len(states), mask.shape[1]
    floor = -(-BLAS_EXACT_CELLS // width)
    if n < 2 * floor:
        out, _ = _eval_rows(net, states, env, cache=False)
        return _masked_rows(out, mask[states])
    logp = np.empty((n, width))
    lo = 0
    for block in np.array_split(states, n // floor):
        out, _ = _eval_rows(net, block, env, cache=False)
        logp[lo:lo + len(block)] = _masked_rows(out, mask[block])
        lo += len(block)
    return logp


def _table(model: PolicyModel, env: DagEnv, forward: bool, n: int, rows: int = 0,
           keep: bool = True) -> Optional[np.ndarray]:
    """The forward or backward side's (S, A) log-prob matrix for a walk of ``n``
    paths whose per-step calls have evaluated ``rows`` rows of that side: the
    :func:`_log_policy` rows at its choice states, 0 at a single slot and
    -inf at invalid ones; None where the rule refuses it.

    The rule reads nothing but the walk's path count and rows.  A side has a
    table when ``n`` is at least its number of choice states: the walk's
    lockstep steps would then evaluate about that many rows or more, while
    fewer paths visit a small part of a large graph, where the table would
    cost more than it saves.  A side evaluated by rows (an MLP) also gets its
    table mid-walk, for the steps left, once :data:`TABLE_SWITCH_FACTOR` x
    ``rows`` reaches its choice states.  A side read by state index (tabular
    or uniform) does not: its rows are gathers, which cost little per step and
    nothing to keep, while a table costs its whole side (on a tabular
    H(4,16), with 65,535 forward choice states, bulk calls of 1,000 forward
    and 1,000 backward paths took 28 ms without tables and 43 ms when tabular
    sides switched at a quarter, median of 9 on a 2-vCPU host).

    Past the rule, it is the side's kept table while its env is ``env`` and
    its net's parameters, the side's range of ``params.values`` that the
    model found once, have the bits they had when it was kept; else the kept
    one is dropped and a table built, and kept read-only when ``keep`` is
    set.  A kept table has a rebuilt one's bits, so no result depends on the
    order of calls.  A side read by state index keeps the sha256 of its
    parameters, which are the size of its table, so a copy would double what
    it keeps.  An MLP side keeps a copy of them and a bool buffer as long, and
    a lookup compares their bits in place as uint64: -0.0 against 0.0 is a
    change, and nothing is allocated.  On H(2,16)'s 256x256 forward side of
    75,011 parameters, a lookup took 28 µs, against 44 µs when each lookup
    rebuilt the range from the net's ``param_spec`` by ``np.prod`` and about
    460 µs with the hash (best of 9 x 500 calls, 2-vCPU host)."""
    net, mask, choice = ((model.forward_net, env.forward_mask, env.forward_choice) if forward else
                         (model.backward_net, env.backward_mask, env.backward_choice))
    if n < len(choice) and (net.wants_indices or TABLE_SWITCH_FACTOR * rows < len(choice)):
        return None
    side = 0 if forward else 1
    bits = model.params.values[model._ranges[side]].view(np.uint64)
    key = hashlib.sha256(bits).digest() if net.wants_indices else None
    kept = model._kept[side]
    if kept is not None and kept[0] is env and (kept[1] == key if net.wants_indices else
                                                np.equal(bits, kept[1][0], out=kept[1][1]).all()):
        return kept[2]
    model._kept[side] = None
    logp = np.where(mask, 0.0, -np.inf)
    logp[choice] = _log_policy(net, mask, choice, env)
    if keep:
        logp.flags.writeable = False
        key = key if net.wants_indices else (bits.copy(), np.empty(len(bits), dtype=bool))
        model._kept[side] = (env, key, logp)
    return logp


def _cumulative(p: np.ndarray) -> np.ndarray:
    """``np.cumsum(p, axis=1)`` in place, one column add at a time: the same
    sums, and several times faster than numpy's on a narrow matrix.  A row's
    sums add its entries in order, so rows summed once per walk, per step or
    per listed state are the same sums (an invalid slot adds exactly 0)."""
    for j in range(1, p.shape[1]):
        p[:, j] += p[:, j - 1]
    return p


def rollout(model: PolicyModel, env: DagEnv, rng: np.random.Generator, starts: Sequence[int],
            forward: bool = True, epsilon: float = 0.0) -> "PathBatch":
    """Source-to-sink paths walked from ``starts`` one after another: forward,
    or backward from terminating states.

    No draw at a single-choice state; else, with ε > 0, ``rng.random() < ε``
    picks a uniform choice and reads no row, or one uniform draws from the
    policy row by the rule of :func:`proportional_draw`.  Exploration never
    enters the log-probs a batch records.

    A step pays for its draw and two dictionary lookups.  Per environment
    (the graph is fixed), the move table ``env._moves`` gives a visited
    state's slots and next states as a list, filled at its first visit, and
    ``env._move_choices`` lists its states with a choice.  Per call (the
    parameters are fixed), a choice state's row is kept from its first drawn
    visit as its cumulative sums but the last, as a list, and its total;
    ``bisect_right`` locates the scaled uniform in them as
    ``searchsorted(..., side="right")`` does.  A net read by state index
    computes one table over the listed choice states and its running sums
    (:func:`_cumulative`), and a listed state's row is its table row at its
    slots; a state listed during the call or an MLP computes the row alone
    (:func:`_row`).  A tabular or uniform row has the same bits either way
    (:func:`_masked_rows`), and a rollout never reads an MLP table.  Neither
    draws, so every path takes the same uniforms, in the
    same order, as a row evaluated and drawn from at every step.  A start
    off the walk's side (not the initial state forward, not terminating
    backward) raises ``ValueError`` before any move is listed.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    if forward:
        net, mask, step, end = model.forward_net, env.forward_mask, env.child_matrix, env.sink
        off = np.flatnonzero(np.asarray(starts, dtype=np.int64) != env.initial_state)
        if len(off):
            raise ValueError(f"start {starts[off[0]]} is not the initial state")
    else:
        net, mask, step, end = model.backward_net, env.backward_mask, env.parent_matrix, env.initial_state
        check_terminating(env, starts, "start")
    moves, listed = env._moves[0 if forward else 1], env._move_choices[0 if forward else 1]
    n_table = 0
    if net.wants_indices and listed:
        n_table = len(listed)
        cum = _cumulative(np.exp(_log_policy(net, mask, np.array(listed), env)))
    rows: Dict[int, Tuple[List[float], float]] = {}  # choice state -> (cumulative sums, total)
    paths = []
    for s in starts:
        s = int(s)
        seq = [s]
        while s != end:
            move = moves.get(s)
            if move is None:
                slots = np.flatnonzero(mask[s])
                k = -1 if len(slots) == 1 else len(listed)
                if k >= 0:
                    listed.append(s)
                move = moves[s] = slots, step[s, slots].tolist(), k
            slots, nxt, k = move
            if len(nxt) == 1:
                s = nxt[0]
            elif epsilon > 0.0 and rng.random() < epsilon:
                s = nxt[int(rng.integers(len(nxt)))]
            else:
                row = rows.get(s)
                if row is None:
                    c = cum[k, slots] if k < n_table else np.cumsum(
                        np.exp(_row(net, s, mask, env)[slots]))
                    row = rows[s] = c[:-1].tolist(), float(c[-1])
                s = nxt[bisect_right(row[0], rng.random() * row[1])]
            seq.append(s)
        paths.append(seq if forward else seq[::-1] + [env.sink])
    return PathBatch.of_lists(env, paths)


# -- batched transition evaluation ------------------------------------------


def _side(env: DagEnv, net, mask: np.ndarray, matrix: np.ndarray, has_choice: np.ndarray,
          at: np.ndarray, other: np.ndarray, cache: bool):
    """(Log-prob of each edge ``at`` - ``other`` under the policy at ``at``,
    0 where ``at`` has one slot or none (``has_choice`` false), as the sink on
    the backward side; what :func:`_backprop_side` needs, or None without a
    cached net pass)."""
    logp_edges = np.zeros(len(at))
    idx = np.flatnonzero(has_choice[at])
    if not len(idx):
        return logp_edges, None
    rows = at[idx]
    slot = np.argmax(matrix[rows] == other[idx, None], axis=1)  # edge's slot at its row
    states, inv = np.unique(rows, return_inverse=True)
    if not cache:
        logp_edges[idx] = _log_policy(net, mask, states, env)[inv, slot]
        return logp_edges, None
    raw, net_cache = _eval_rows(net, states, env)
    logp = _masked_rows(raw, mask[states])
    logp_edges[idx] = logp[inv, slot]
    return logp_edges, (net, net_cache, raw, logp, inv, slot, idx, mask[states])


def _backprop_side(side, coeff: np.ndarray) -> None:
    """Accumulate the gradients of ``sum(coeff * log-prob)`` over one cached
    :func:`_side`, through the masked softmax, the clamp and the net."""
    if side is None or not np.any(coeff):
        return
    net, cache, raw, logp, inv, slot, idx, mask = side
    dlogits = np.zeros_like(raw)
    np.add.at(dlogits, inv, coeff[idx, None] * (-np.exp(logp)[inv]))
    np.add.at(dlogits, (inv, slot), coeff[idx])
    dlogits *= (np.abs(raw) <= LOGIT_CLAMP) & mask
    net.backward(cache, dlogits)


class EdgeBatch:
    """Forward/backward log-probs for a flat list of edges, with backprop.

    Values are computed once at construction, one :func:`_side` per side;
    the batch keeps no other state.  :meth:`backprop` takes the per-edge
    coefficients (d loss / d log-prob) and hands each side's to
    :func:`_backprop_side`.  ``tid`` numbers each edge's trajectory.
    ``cache=False`` builds a batch that refuses to backprop: a side evaluates
    its distinct choice states with :func:`_log_policy`.  A cached batch and
    :class:`FlowBatch` are the only net passes that keep backward caches: a
    training step's, built by :func:`stablegfn.losses.batch_loss` or the
    stabilized round.  Flow matching, reading only forward log-probs, calls
    one :func:`_side` / :func:`_backprop_side` pair alone.
    """

    def __init__(self, model: PolicyModel, env: DagEnv, src: np.ndarray, dst: np.ndarray,
                 tid: np.ndarray, cache: bool = True):
        self.src, self.dst, self.tid, self.cache = src, dst, tid, cache
        self.log_pf, self._fwd = _side(env, model.forward_net, env.forward_mask, env.child_matrix,
                                       env.forward_has_choice, src, dst, cache)
        self.log_pb, self._bwd = _side(env, model.backward_net, env.backward_mask, env.parent_matrix,
                                       env.backward_has_choice, dst, src, cache)

    @classmethod
    def of_paths(cls, model: PolicyModel, env: DagEnv, paths: PathBatch,
                 cache: bool = True) -> "EdgeBatch":
        """One batch over every edge of ``paths``, grouped by path, in path order."""
        s = paths.states
        edge = s[:, 1:] >= 0
        return cls(model, env, s[:, :-1][edge], s[:, 1:][edge], np.nonzero(edge)[0], cache)

    def per_trajectory(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(log P_F, log P_B) summed over each of ``n`` trajectories' edges."""
        return (np.bincount(self.tid, weights=self.log_pf, minlength=n),
                np.bincount(self.tid, weights=self.log_pb, minlength=n))

    def backprop(self, pf_coeff: np.ndarray, pb_coeff: np.ndarray) -> None:
        """Accumulate the gradients of ``sum(pf_coeff * log_pf + pb_coeff * log_pb)``."""
        if not self.cache:
            raise ValueError("this EdgeBatch was built without backward caches")
        _backprop_side(self._fwd, pf_coeff)
        _backprop_side(self._bwd, pb_coeff)


class FlowBatch:
    """State-flow head values for a flat list of states, with backprop; the
    batch keeps only its values and the net's backward cache."""

    def __init__(self, model: PolicyModel, env: DagEnv, states: np.ndarray):
        if model.flow_net is None:
            raise ValueError("model has no state-flow head")
        self._net = model.flow_net
        self._uniq, self._inv = np.unique(states, return_inverse=True)
        out, self._cache = _eval_rows(self._net, self._uniq, env)
        self.log_flow = out[self._inv, 0]

    def backprop(self, coeff: np.ndarray) -> None:
        """Accumulate the gradients of ``sum(coeff * log_flow)``."""
        if not np.any(coeff):
            return
        dout = np.zeros((len(self._uniq), 1))
        np.add.at(dout[:, 0], self._inv, coeff)
        self._net.backward(self._cache, dout)


def score_paths(model: PolicyModel, env: DagEnv, paths: PathBatch) -> EdgeBatch:
    """Store ``paths``' log-probs from one cache-free :class:`EdgeBatch` over
    their edges, and return it (the paths keep no reference to it).

    Each side evaluates the distinct choice states of its edges in one
    :func:`_log_policy` call.  For every pass that does not train: the batch
    cannot backprop.  A training round builds its own cached batch with
    :meth:`EdgeBatch.of_paths`.
    """
    edges = EdgeBatch.of_paths(model, env, paths, cache=False)
    paths.log_pf, paths.log_pb = edges.per_trajectory(len(paths))
    return edges


# -- bulk samplers (certification) -------------------------------------------


def _walk(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
          starts: np.ndarray, forward: bool) -> PathBatch:
    """Scored source-to-sink paths walked from every start state in lockstep,
    forward to the sink or backward from a terminating state to the source.

    The walk works in flat (state, slot) cells, ``state * A + slot`` for its
    A-slot side, and keeps only its moving walkers: their ids and states, in
    walker order.  Each step draws one uniform per moving walker, by
    :func:`_draw_rows` over the cumulative rows of the walkers' states, reads
    each walker's next state at its drawn cell of the flat ``step`` matrix,
    fills one column of the state matrix, and drops the walkers that reached
    the end, counting each one's length as it stops (a step where none
    stopped copies nothing: a tree's walkers all stop at once).  When the
    walking side has a table by :func:`_table`'s rule, those rows
    are its ``exp``'s running sums, built once per walk (:func:`_cumulative`);
    else a step evaluates its distinct states and sums their rows alike, and
    counts them.  Before each step, a walk without its table asks
    :func:`_table` again with the rows counted so far: an MLP side gets its
    table, kept on the model, once they reach the rule's share, and draws
    its steps left from that table's running sums.
    Backward paths are turned source-to-sink by one masked copy.

    A walk whose two sides both have a table from the start records both as
    it draws; the other side's table is built only when the walking side has
    one, since only recording reads it.  Each side is recorded from one
    log-prob matrix over the walking side's (state, slot) cells: the walking
    side's table itself, and the other side's filled by one scatter over the
    environment's edge columns from its table at each edge's other end (an
    edge into the sink has no backward slot and a backward log-prob of 0).
    A step gathers both at its walkers' drawn cells, the entries
    :func:`score_paths` reads.  Each path sums its steps in path order from
    0.0, which is the order of :meth:`EdgeBatch.per_trajectory`'s
    ``bincount``: a forward walk adds each step as it goes, since its step
    order is the path order, into sums kept by moving walker and written out
    to each path as it stops; a backward walk keeps its steps' records and
    adds them in reverse step order once it ends.  Every other walk, one
    that switched to its table too, is scored by :func:`score_paths` once its
    batch exists: per-step net rows may differ from a table's in the last
    bits (:data:`BLAS_EXACT_CELLS`).

    Memory: besides the walk matrix, a backward walk's per-step records and
    the other side's table while it is scattered, a walk keeps at most three
    float64 arrays of S x A cells for its A-slot side (its table, the rows
    and the other recorded side; the flat cells are views of them), the
    size class of ``env.child_matrix``; its tables stay kept on the model
    until one is built for other parameters, an MLP side's with a copy of its
    net's parameters and a bool per parameter.  Per walker it keeps two sums
    and a length, per moving walker an id, a state and, in a forward walk
    that records, two running sums; a step adds a few words per moving
    walker and no (walkers x A) matrix.
    """
    if forward:
        net, mask, step, end = model.forward_net, env.forward_mask, env.child_matrix, env.sink
    else:
        net, mask, step, end = model.backward_net, env.backward_mask, env.parent_matrix, env.initial_state
    n, width = len(starts), mask.shape[1]
    table, recorded = _table(model, env, forward, n), ()
    theirs = None if table is None else _table(model, env, not forward, n)
    if theirs is not None:
        me = 0 if forward else 1
        inner = env.edge_dst != env.sink  # an edge into the sink has no backward slot
        edges = [(at[inner], slot[inner]) for at, slot in
                 ((env.edge_src, env.edge_fslot), (env.edge_dst, env.edge_bslot))]
        other = np.zeros(mask.shape)
        other[edges[me]] = theirs[edges[1 - me]]
        recorded = (table.ravel(), other.ravel())  # (log P_F, log P_B) by cell
        recorded = recorded if forward else recorded[::-1]
    cum = None if table is None else _cumulative(np.exp(table)).ravel()
    step = step.ravel()
    sums = np.zeros((2, n))  # (log P_F, log P_B) per path
    steps: List[Tuple[np.ndarray, List[np.ndarray]]] = []  # a backward walk's records
    walked = np.full((n, len(env.levels)), -1, dtype=np.int64)  # no path is longer
    walked[:, 0] = starts
    lengths = np.ones(n, dtype=np.int64)
    ids = np.flatnonzero(walked[:, 0] != end)  # the walkers still moving
    states = walked[ids, 0]
    running = [np.zeros(len(ids)) for _ in recorded] if forward else []  # by moving walker
    t = rows = 0  # rows: those the walk's per-step calls evaluated
    while len(ids):
        base = states * width
        if cum is None and rows:  # the rule may give its table to a walk without one
            table = _table(model, env, forward, n, rows)
            cum = None if table is None else _cumulative(np.exp(table)).ravel()
        if cum is None:
            uniq, inv = np.unique(states, return_inverse=True)
            uniq_cum = _cumulative(np.exp(_log_policy(net, mask, uniq, env))).ravel()
            rows += len(uniq)
            cells = base + _draw_rows(rng, uniq_cum, inv * width, width)
        else:
            cells = base + _draw_rows(rng, cum, base, width)
        nxt = step[cells]
        if forward:  # a forward walk's step order is its path order
            for run, logp in zip(running, recorded):
                run += logp[cells]
        elif recorded:
            steps.append((ids, [logp[cells] for logp in recorded]))
        t += 1
        walked[:, t][ids] = nxt
        moving = nxt != end
        if not moving.all():
            stopped = ids[~moving]
            lengths[stopped] = t + 1
            for run, out in zip(running, sums):
                out[stopped] = run[~moving]
            ids, nxt, running = ids[moving], nxt[moving], [run[moving] for run in running]
        states = nxt
    for walkers, logps in steps[::-1]:
        for out, logp in zip(sums, logps):
            out[walkers] += logp
    scored = bool(recorded)
    del cum, recorded, steps  # not read past here: free them before the batch exists
    if forward:
        paths = PathBatch.of_matrix(env, walked[:, : t + 1], lengths)
    else:  # each path's states in reverse, path after path, fill the rows bottom up
        rows = np.full((n, t + 2), -1, dtype=np.int64)
        rows[::-1][np.arange(t + 2) < lengths[::-1, None]] = walked[walked >= 0][::-1]
        rows[np.arange(n), lengths] = env.sink
        paths = PathBatch.of_matrix(env, rows, lengths + 1)
    if scored:
        paths.log_pf, paths.log_pb = sums
    else:
        score_paths(model, env, paths)
    return paths


def sample_forward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                         count: int) -> PathBatch:
    """Sample ``count`` trajectories from the pure forward policy in lockstep,
    their starts one int64 column of the initial state."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return _walk(model, env, rng, np.full(count, env.initial_state, dtype=np.int64), forward=True)


def sample_backward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                          xs: np.ndarray) -> PathBatch:
    """Walk backward from given terminating states in lockstep."""
    return _walk(model, env, rng, check_terminating(env, xs, "start"), forward=False)


def exact_terminal_distribution(model: PolicyModel, env: DagEnv) -> Tuple[np.ndarray, np.ndarray]:
    """Exact terminal sampling distribution by dynamic programming.

    Returns (terminating states, their probabilities), aligned with
    ``env.terminating_states``.  Mass flows through the forward policy one
    level at a time.  The forward table is the one a walk kept at these
    parameters by :func:`_table`'s rule, else one built and dropped after: on
    H(4,16) it is 131,073 x 5 floats, and keeping it raised the bench's
    ``grid16-eval`` peak RSS by 2.5 and 4.7 MB (two seeds, 2-vCPU host).  The
    net runs only at states with a choice: a single child is taken with
    probability exactly 1.
    """
    check_state_cap(env.num_states)
    # a side has fewer choice states than the graph has states: the rule gives the table
    p_edge = np.exp(_table(model, env, True, env.num_states, keep=False)[
        env.edge_src, env.edge_fslot])

    mass = np.zeros(env.num_states)
    mass[env.initial_state] = 1.0
    for e in env.level_edges:
        np.add.at(mass, env.edge_dst[e], mass[env.edge_src[e]] * p_edge[e])
    # P_T(x) = mass(x) * P_F(x -> sink); the sink edge is each terminating
    # state's only action, so its probability is exactly 1.
    return env.terminating_states, mass[env.terminating_states]
