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
call.  Bulk samplers walk in lockstep, one matrix column per step.
:func:`score_paths` takes a batch's log-probs from one :class:`EdgeBatch` over
its edges, so they are bit-reproducible given seed and batch; a table walk
records the same bits while it draws.  The batch is the one path record, the
replay buffer's too: ``states``, ``lengths``, ``rewards`` and, once scored,
``log_pf``/``log_pb``.  Which sampler made a path is not a column: that label
exists only in the trajectory log.

One policy table per walk side.  A bulk walk (:func:`_walk`) over ``n``
paths may evaluate a side's policy once, as one (S, A) log-prob matrix
(:func:`_table`: the :func:`_log_policy` rows at that side's choice states,
0 at a single slot, -inf at invalid ones), and draw and record by gathering
from it; besides walks, only the exact DP reads a table, the forward one.
The rule, for every net: a side's table is built when ``n`` is at least its
number of choice states.  Then the walk's lockstep steps would evaluate
about that many rows or more; with fewer paths they visit a small part of a
large graph, where the table would cost more than it saves (on a tabular
H(4,16), with 65,535 forward choice states, bulk calls of 1,000 forward and
1,000 backward paths took 46 ms without tables and 71 ms with them on a
2-vCPU host).  The walking side's
table follows the rule; the other side's is built only when the walking side
has one, since only recording reads it.  Such a walk sums its table's
``exp`` into cumulative rows once and records each side that has a table
from one log-prob matrix per side; a step is gathers and one uniform per
walker, and each path sums its log-probs as :func:`score_paths` would (see
:func:`_walk`).  Every other side is scored after the walk by one cache-free
:func:`_side` over its edges, since per-step net rows need not have a
table's bits.  A training :func:`rollout` reads a table only for a net read
by state index (tabular or uniform), over the choice states already in its
move table, and only on a side of fewer than :data:`_ORDERED_SUM_WIDTH`
slots.  Why the bits hold:

* a tabular or uniform row is a gather or zeros, and a matrix row of
  :func:`_masked_rows` depends only on that row, so table rows are the rows
  of a per-step or per-batch evaluation bit for bit;
* a row's running sums add its entries in order, by ``np.cumsum`` or one
  column at a time (:func:`_cumulative`), so cumulative rows built once per
  walk, per step or per listed state are the same sums;
* a listed rollout row is the table row's cumulative sums at the state's
  slots.  :func:`_log_softmax` over the valid slots and over the whole
  masked width (zeros at the invalid ones) agree while numpy sums in order,
  below 8 entries; wider sides keep per-state rows;
* an MLP row has the same bits in any call of more than 1,200 / A rows, A
  the net's output width: smaller calls round their products differently
  (OpenBLAS' small-matrix kernel; the boundary is a count of b x A cells,
  not of rows).  So the per-step rows of a walk may move bulk log-probs in
  their last bits against a table and, when a uniform lands within rounding
  of a cumulative boundary, a draw.  Training rollouts never read an MLP table.

One cache-free evaluator.  Net evaluations that never backprop keep no
backward caches and run in near-equal row blocks, all through
:func:`_log_policy`, sized by the net's output width A: at least
⌈:data:`BLAS_EXACT_CELLS` / A⌉ rows when the call has that many, and
fewer than twice that.  That covers the exact DP,
the walks' policy tables and per-step rows, and the scoring of bulk and
enumerated batches (:func:`score_paths`).  A rollout's single rows
(:func:`_row`) are the one exception.
:func:`_eval_rows` is a plain net call.  Only the edges and flows of a
training step (:class:`EdgeBatch` and :class:`FlowBatch`, built by
:func:`stablegfn.losses.batch_loss` or the stabilized round) keep caches;
both are stateless past their values, and ``backprop`` takes the loss's
coefficients.  An edge batch is two :func:`_side` / :func:`_backprop_side`
pairs; flow matching, reading only forward log-probs, calls that pair alone.

One implementation each: :func:`_log_softmax` for every policy row,
the rule of :func:`proportional_draw` for every reward-proportional draw in the
package (over cumulative rows in :func:`_draw_rows`, on a listed row in :func:`rollout`,
over terminating states in :func:`draw_terminals`),
:func:`_walk` for both bulk samplers, :func:`_log_policy` for every table.
:func:`exact_terminal_distribution` pushes mass along the environment's level
order, one array step per level (see :mod:`stablegfn.envs`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .approximator import Mlp, ParamVector, Tabular, Uniform
from .envs import DagEnv, check_state_cap

LOGIT_CLAMP = 50.0
# Cells (block rows x output width A) from which an MLP block gives the
# whole-batch values.  OpenBLAS rounds smaller products differently (a
# small-matrix kernel): the boundary is a cell count, not a row count.  With
# OpenBLAS 0.3.31's SkylakeX kernel, blocks of up to 1,200 cells moved the
# last bits at hidden widths 64 and 256 and every larger one matched, for
# A = 2, 3, 5 and 8; this keeps a third in hand.  Its Haswell kernel keeps no
# such floor: blocks of any size may differ from the whole call (ROADMAP
# item 9).  Blocks hold fewer than
# twice ceil(BLAS_EXACT_CELLS / A) rows, the memory bound of a block: at
# A = 5, under 640 rows, whose 256-wide activation (under 1.25 MiB) stays
# within a 2 MiB L2 cache.
BLAS_EXACT_CELLS = 1600
# Bytes a training rollout holds per state of a walk, a floor: tracemalloc
# measured 50 (T(3,4)) to 94 (H(4,8)) per visited state over 50,000 walks, in
# the walk's list, its flattened copy and the padded batch
ROLLOUT_STATE_BYTES = 48
# numpy's pairwise sum adds fewer than 8 entries in order, so a masked row
# of fewer slots sums its valid entries as the row of those entries alone
_ORDERED_SUM_WIDTH = 8


def _pad(paths: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """(state matrix padded with -1, lengths) of lists of states."""
    lengths = np.array([len(p) for p in paths], dtype=np.int64)
    states = np.full((len(paths), lengths.max(initial=2)), -1, dtype=np.int64)
    states[np.arange(states.shape[1]) < lengths[:, None]] = [s for p in paths for s in p]
    return states, lengths


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
        return cls.of_matrix(env, *_pad(paths))

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


def write_trajectory_log(path: str, backward: PathBatch, forward: PathBatch) -> None:
    """One JSON line per path, the backward-sampled first, labelled by half."""
    keys = ("states", "log_pf", "log_pb", "reward", "provenance")
    with open(path, "w", encoding="utf-8") as fh:
        for paths, label in ((backward, "backward-sampled"), (forward, "forward-sampled")):
            columns = (paths.states, paths.lengths, paths.log_pf, paths.log_pb, paths.rewards)
            fh.writelines(json.dumps(dict(zip(keys, (s[:n], *row, label)))) + "\n"
                          for s, n, *row in zip(*(c.tolist() for c in columns)))


def read_trajectory_log(path: str) -> Tuple[PathBatch, PathBatch]:
    """The (backward-sampled, forward-sampled) paths of a JSON-lines log: an
    unlabelled record is forward-sampled, one of another label is skipped.  A
    line that is not a record (a positive finite reward, finite log-probs)
    raises ``ValueError`` naming the file and the line."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    d = json.loads(line)
                    values = [float(d[k]) for k in ("reward", "log_pf", "log_pb")]
                    if not (values[0] > 0 and np.all(np.isfinite(values))):
                        raise ValueError(f"reward, log_pf, log_pb {values}")
                    docs.append(([int(s) for s in d["states"]], *values,
                                 str(d.get("provenance", "forward-sampled"))))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}, line {n}: not a trajectory record "
                                     f"({type(exc).__name__}: {exc})") from None
    states, rewards, log_pf, log_pb, labels = zip(*docs) if docs else ([],) * 5
    logged = PathBatch(*_pad(states), *(np.array(c, dtype=float)
                                        for c in (rewards, log_pf, log_pb)))
    labels = np.array(labels, dtype=str)
    return logged[labels == "backward-sampled"], logged[labels == "forward-sampled"]


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
    ``np.exp`` is exactly 0)."""
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
    :func:`_draw_rows` to every row of a matrix of cumulative sums.
    ``size=None`` draws one index.
    """
    c = np.cumsum(weights)
    return np.searchsorted(c[:-1], rng.random(size) * c[-1], side="right")


def draw_terminals(rng: np.random.Generator, rewards: np.ndarray, scope: np.ndarray,
                   count: int) -> np.ndarray:
    """``count`` states of the int array ``scope``, with replacement, by :func:`proportional_draw`
    over their rewards in ``scope``'s order (``rewards`` is indexed by state)."""
    return scope[proportional_draw(rng, rewards[scope], count)]


def _draw_rows(rng: np.random.Generator, cum: np.ndarray) -> np.ndarray:
    """One :func:`proportional_draw` per row of cumulative sums ``cum`` (each
    row its weights' ``np.cumsum``), one uniform per row: the package's one
    row-wise draw."""
    u = rng.random(len(cum)) * cum[:, -1]
    return (cum[:, :-1] <= u[:, None]).sum(axis=1)


class PolicyModel:
    """Parameterized forward/backward policies plus logZ and optional flow head."""

    def __init__(self, forward_net, backward_net, flow_net=None):
        self.forward_net, self.backward_net, self.flow_net = forward_net, backward_net, flow_net
        self._nets = [n for n in (forward_net, backward_net, flow_net) if n is not None]
        # logZ starts at 0, as every parameter of a new ParamVector
        self.params = ParamVector([("logz", ())] + [p for n in self._nets for p in n.param_spec()])
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


def _row(net, s: int, slots: np.ndarray, env: DagEnv) -> np.ndarray:
    """Log-probs over ``slots`` at one state."""
    if len(slots) <= 1:
        return np.zeros(len(slots))
    out, _ = _eval_rows(net, np.array([s]), env, cache=False)
    return _log_softmax(_clamp(out[0][slots]))


def _log_policy(net, mask: np.ndarray, states: np.ndarray, env: DagEnv) -> np.ndarray:
    """The policy table of ``net`` at ``states``: their clamped masked
    log-softmax rows, -inf at invalid slots.

    The package's one cache-free evaluator: built one near-equal block at a
    time, so it holds ``len(states)`` x A floats plus one block, not a net's
    activations over every row.  With ``floor`` =
    ⌈:data:`BLAS_EXACT_CELLS` / A⌉, a call of fewer than ``2 * floor`` rows
    is one block, and a longer one runs in blocks of ``floor`` to
    ``2 * floor - 1`` rows: large enough for the whole-batch bits, small
    enough to stay in cache.  Tabular rows are gathers, the same bits at any
    block size.
    """
    n, width = len(states), mask.shape[1]
    logp = np.empty((n, width))
    floor = -(-BLAS_EXACT_CELLS // width)
    lo = 0
    for block in np.array_split(states, max(n // floor, 1)) if n else ():
        out, _ = _eval_rows(net, block, env, cache=False)
        logp[lo:lo + len(block)] = _masked_rows(out, mask[block])
        lo += len(block)
    return logp


def _table(model: PolicyModel, env: DagEnv, forward: bool, n: int) -> Optional[np.ndarray]:
    """The forward or backward side's (S, A) log-prob matrix for a walk of ``n``
    paths, -inf at invalid slots; None where the module docstring's rule refuses it."""
    net, mask, choice = ((model.forward_net, env.forward_mask, env.forward_choice) if forward else
                         (model.backward_net, env.backward_mask, env.backward_choice))
    if n < len(choice):
        return None
    logp = np.where(mask, 0.0, -np.inf)
    logp[choice] = _log_policy(net, mask, choice, env)
    return logp


def _cumulative(p: np.ndarray) -> np.ndarray:
    """``np.cumsum(p, axis=1)`` in place, one column add at a time: the same
    sums, and several times faster than numpy's on a narrow matrix."""
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
    slots; a state listed during the call, a wider side or an MLP computes
    the row alone (see the module
    docstring for why both give the same bits).  Neither draws, so every
    path takes the same uniforms, in the same order, as a row evaluated and
    drawn from at every step.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    if forward:
        net, mask, step, end = model.forward_net, env.forward_mask, env.child_matrix, env.sink
    else:
        net, mask, step, end = model.backward_net, env.backward_mask, env.parent_matrix, env.initial_state
    moves, listed = env._moves[0 if forward else 1], env._move_choices[0 if forward else 1]
    n_table = 0
    if net.wants_indices and mask.shape[1] < _ORDERED_SUM_WIDTH and listed:
        n_table = len(listed)
        cum = _cumulative(np.exp(_log_policy(net, mask, np.array(listed), env)))
    rows: Dict[int, Tuple[List[float], float]] = {}  # choice state -> (cumulative sums, total)
    paths = []
    for s in starts:
        s = int(s)
        if not forward and not env.terminating_mask[s]:
            raise ValueError(f"state {s} is not terminating")
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
                        np.exp(_row(net, s, slots, env)))
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


def _backprop_side(side, coeff: Optional[np.ndarray]) -> None:
    """Accumulate the gradients of ``sum(coeff * log-prob)`` over one cached
    :func:`_side`, through the masked softmax, the clamp and the net."""
    if side is None or coeff is None or not np.any(coeff):
        return
    net, cache, raw, logp, inv, slot, idx, mask = side
    dlogits = np.zeros_like(raw)
    np.add.at(dlogits, inv, coeff[idx, None] * (-np.exp(logp)[inv]))
    np.add.at(dlogits, (inv, slot), coeff[idx])
    dlogits *= (np.abs(raw) <= LOGIT_CLAMP) & mask
    net.backward(cache, dlogits)


def _path_edges(paths: PathBatch) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sources, destinations, path of each) of every edge of ``paths``,
    grouped by path, in path order."""
    s = paths.states
    edge = s[:, 1:] >= 0
    return s[:, :-1][edge], s[:, 1:][edge], np.nonzero(edge)[0]


class EdgeBatch:
    """Forward/backward log-probs for a flat list of edges, with backprop.

    Values are computed once at construction, one :func:`_side` per side;
    the batch keeps no other state.  :meth:`backprop` takes the per-edge
    coefficients (d loss / d log-prob) and hands each side's to
    :func:`_backprop_side`.  ``tid`` numbers each edge's trajectory.
    ``cache=False`` builds a batch that refuses to backprop: a side evaluates
    its distinct choice states with :func:`_log_policy`.
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
        return cls(model, env, *_path_edges(paths), cache)

    def per_trajectory(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(log P_F, log P_B) summed over each of ``n`` trajectories' edges."""
        return (np.bincount(self.tid, weights=self.log_pf, minlength=n),
                np.bincount(self.tid, weights=self.log_pb, minlength=n))

    def backprop(self, pf_coeff: np.ndarray, pb_coeff: Optional[np.ndarray] = None) -> None:
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
          starts: Sequence[int], forward: bool) -> PathBatch:
    """Scored source-to-sink paths walked from every start state in lockstep,
    forward to the sink or backward from a terminating state to the source.

    Each step draws one uniform per walker still moving, by :func:`_draw_rows`
    over the cumulative rows of the walkers' states, and fills one column of
    the state matrix.  When the walking side has a table by the rule of the
    module docstring, those rows are its ``exp``'s running sums, built once
    per walk (:func:`_cumulative`); else a step evaluates its distinct states
    and sums their rows alike.  Backward paths are turned source-to-sink by
    one masked copy.

    A walk with a table records its own side from it, and the other side
    when that has a table too, which is built only then, since only
    recording reads it.  A recorded side is one log-prob matrix over the
    walking side's (state, slot) cells: the walking side's table itself, and
    the other side's filled by one scatter over the environment's edge
    columns from its table at each edge's other end (an edge into the sink
    has no backward slot and a backward log-prob of 0).  A step gathers each
    recorded side at its walkers' (state, drawn slot) cells, the entries
    :func:`score_paths` reads.  Each path sums its steps in path order from
    0.0, which is the order of :meth:`EdgeBatch.per_trajectory`'s
    ``bincount``: a forward walk adds each step as it goes, since its step
    order is the path order, and a backward walk keeps its steps' records
    and adds them in reverse step order once it ends.  Every other
    side (both sides of a walk without a table) is scored after the walk by
    one cache-free :func:`_side` over the walked edges, as
    :func:`score_paths` would: per-step net rows may differ from a table's in
    the last bits.

    Memory: besides the walk matrix, a backward walk's per-step records and
    the other side's table while it is scattered, a walk keeps at most three
    float64 arrays of S x A cells for its A-slot side (its table, the rows and
    the other recorded side), the size class of ``env.child_matrix``.
    """
    sides = ((model.forward_net, env.forward_mask, env.child_matrix, env.forward_has_choice),
             (model.backward_net, env.backward_mask, env.parent_matrix, env.backward_has_choice))
    me = 0 if forward else 1
    net, mask, step, _ = sides[me]
    end = env.sink if forward else env.initial_state
    n = len(starts)
    table, cum = _table(model, env, forward, n), None
    recorded = {}  # side -> its log-probs over the walking side's (state, slot)
    if table is not None:
        cum, recorded[me] = _cumulative(np.exp(table)), table
        theirs = _table(model, env, not forward, n)
        if theirs is not None:
            inner = env.edge_dst != env.sink  # an edge into the sink has no backward slot
            edges = [(at[inner], slot[inner]) for at, slot in
                     ((env.edge_src, env.edge_fslot), (env.edge_dst, env.edge_bslot))]
            recorded[1 - me] = np.zeros(mask.shape)
            recorded[1 - me][edges[me]] = theirs[edges[1 - me]]
        del theirs
    sums = np.zeros((2, n))  # (log P_F, log P_B) per path
    steps: List[Tuple[np.ndarray, List[np.ndarray]]] = []  # a backward walk's records
    cur = np.array(starts, dtype=np.int64)
    walked = np.full((n, len(env.levels)), -1, dtype=np.int64)  # no path is longer
    walked[:, 0] = cur
    alive = np.flatnonzero(cur != end)
    t = 0
    while len(alive):
        states = cur[alive]
        if cum is None:
            uniq, inv = np.unique(states, return_inverse=True)
            drawn = _draw_rows(rng, _cumulative(np.exp(_log_policy(net, mask, uniq, env)))[inv])
        else:
            drawn = _draw_rows(rng, cum[states])
        nxt = step[states, drawn]
        if forward:  # a forward walk's step order is its path order
            for side, logp in recorded.items():
                sums[side, alive] += logp[states, drawn]
        elif recorded:
            steps.append((alive, [logp[states, drawn] for logp in recorded.values()]))
        t += 1
        walked[alive, t] = nxt
        cur[alive] = nxt
        alive = alive[nxt != end]
    for walkers, logps in steps[::-1]:
        for side, logp in zip(recorded, logps):
            sums[side, walkers] += logp
    unscored = [side for side in (0, 1) if side not in recorded]
    del table, cum, recorded, steps  # not read past here: free them before the batch exists
    valid = walked >= 0
    lengths = valid.sum(axis=1)
    if forward:
        paths = PathBatch.of_matrix(env, walked[:, : t + 1], lengths)
    else:  # each path's states in reverse, path after path, fill the rows bottom up
        rows = np.full((n, t + 2), -1, dtype=np.int64)
        rows[::-1][np.arange(t + 2) < lengths[::-1, None]] = walked[valid][::-1]
        rows[np.arange(n), lengths] = env.sink
        paths = PathBatch.of_matrix(env, rows, lengths + 1)
    if unscored:
        src, dst, tid = _path_edges(paths)
        for side in unscored:
            at, to = (src, dst) if side == 0 else (dst, src)
            logp, _ = _side(env, *sides[side], at, to, cache=False)
            sums[side] = np.bincount(tid, weights=logp, minlength=n)
    paths.log_pf, paths.log_pb = sums
    return paths


def sample_forward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                         count: int) -> PathBatch:
    """Sample many trajectories from the pure forward policy in lockstep."""
    return _walk(model, env, rng, [env.initial_state] * count, forward=True)


def sample_backward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                          xs: np.ndarray) -> PathBatch:
    """Walk backward from given terminating states in lockstep."""
    return _walk(model, env, rng, xs, forward=False)


def exact_terminal_distribution(model: PolicyModel, env: DagEnv) -> Tuple[np.ndarray, np.ndarray]:
    """Exact terminal sampling distribution by dynamic programming.

    Returns (terminating states, their probabilities), aligned with
    ``env.terminating_states``.  Mass flows through the forward policy one
    level at a time.  The net runs only at states with a choice: a single
    child is taken with probability exactly 1.
    """
    check_state_cap(env.num_states)
    # a side has fewer choice states than the graph has states: the rule gives the table
    p_edge = np.exp(_table(model, env, True, env.num_states)[env.edge_src, env.edge_fslot])

    mass = np.zeros(env.num_states)
    mass[env.initial_state] = 1.0
    for e in env.level_edges:
        np.add.at(mass, env.edge_dst[e], mass[env.edge_src[e]] * p_edge[e])
    # P_T(x) = mass(x) * P_F(x -> sink); the sink edge is each terminating
    # state's only action, so its probability is exactly 1.
    return env.terminating_states, mass[env.terminating_states]
