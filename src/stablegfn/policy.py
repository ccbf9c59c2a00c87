"""Forward/backward policies over a DAG environment, with trajectory sampling.

A :class:`PolicyModel` wraps approximators into a forward policy (masked
softmax over child slots), a backward policy (masked softmax over parent
slots, or fixed-uniform), a learnable log partition value, and an optional
state-flow head.  Valid-action logits are clamped to [-50, 50] before
normalization so every valid edge keeps strictly positive probability.
The model has no per-edge or per-state lookup: those, and the per-object
losses built on them, live in the test suite's reference module, and
:func:`stablegfn.losses.batch_loss` is the package's one loss implementation.

Paths live in one :class:`PathBatch`, a padded state matrix; every path
producer returns one.  :func:`rollout` walks training trajectories one after
another: a step costs its draw, and a choice state's row is computed once per
call.  Bulk samplers walk in lockstep, one matrix column per step.
:func:`score_paths` takes a batch's log-probs from one :class:`EdgeBatch` over
its edges, so they are bit-reproducible given seed and batch.  The batch is
the one path record: the replay buffer keeps one, the trajectory log one.

Net evaluations that never backprop keep no backward caches and run in
near-equal row blocks of at most :data:`EVAL_BLOCK_ROWS` rows, all through
:meth:`PolicyModel._eval_rows`: the exact DP, both walkers, and the scoring
of bulk and enumerated batches (:func:`score_paths`).  Only the edges and
flows of a training step (:meth:`EdgeBatch.of_paths` and :class:`FlowBatch`,
built by the trainer and :func:`stablegfn.losses.batch_loss`) keep caches.

One implementation each: :func:`_log_softmax` for every policy row,
the rule of :func:`proportional_draw` for every reward-proportional draw in the
package (row-wise in :func:`_draw_rows`, on a listed row in :func:`rollout`),
:func:`_walk` for both bulk samplers.
:func:`exact_terminal_distribution` pushes mass along the environment's level
order, one array step per level (see :mod:`stablegfn.envs`).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .approximator import Mlp, ParamVector, Tabular
from .envs import DagEnv, EnumerationCapError, DEFAULT_STATE_CAP

LOGIT_CLAMP = 50.0
# Row cap of one cache-free net call.  Near-equal blocks hold at least half
# of it; OpenBLAS rounds products of fewer than about 640 rows differently (a
# small-matrix kernel), so blocks this large give the whole-batch values.
EVAL_BLOCK_ROWS = 2048


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
    terminating state, the one before the sink.  Once :func:`score_paths` ran,
    ``log_pf`` sums every edge's log-prob (the hop into the sink adds 0) and
    ``log_pb`` every edge's but that hop's.  A slice, mask or index array
    gives a batch, and ``a + b`` appends one batch to another.
    """

    def __init__(self, states: np.ndarray, lengths: np.ndarray, rewards: np.ndarray,
                 provenance: np.ndarray, log_pf: Optional[np.ndarray] = None,
                 log_pb: Optional[np.ndarray] = None):
        self.states, self.lengths, self.rewards = states, lengths, rewards
        self.terminals = states[np.arange(len(states)), lengths - 2]
        self.log_rewards = np.log(rewards)
        self.provenance, self.log_pf, self.log_pb = provenance, log_pf, log_pb

    @classmethod
    def of_matrix(cls, env: DagEnv, states: np.ndarray, lengths: np.ndarray,
                  provenance: str) -> "PathBatch":
        """Paths through ``env``, rewarded by their terminating states."""
        rewards = env.reward_table[states[np.arange(len(states)), lengths - 2]]
        return cls(states, lengths, rewards, np.full(len(states), provenance))

    @classmethod
    def of_lists(cls, env: DagEnv, paths: Sequence[Sequence[int]], provenance: str) -> "PathBatch":
        return cls.of_matrix(env, *_pad(paths), provenance)

    def _columns(self) -> list:
        return [self.lengths, self.rewards, self.provenance, self.log_pf, self.log_pb]

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


def write_trajectory_log(path: str, paths: PathBatch) -> None:
    keys = ("states", "log_pf", "log_pb", "reward", "provenance")
    columns = (paths.states, paths.lengths, paths.log_pf, paths.log_pb, paths.rewards,
               paths.provenance)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(dict(zip(keys, (s[:n], *row)))) + "\n"
                      for s, n, *row in zip(*(c.tolist() for c in columns)))


def read_trajectory_log(path: str) -> PathBatch:
    """The paths of a JSON-lines log; a line that is not a record raises
    ``ValueError`` naming the file and the line."""
    docs = []
    with open(path, encoding="utf-8") as fh:
        for n, line in enumerate(fh, 1):
            if line.strip():
                try:
                    d = json.loads(line)
                    docs.append(([int(s) for s in d["states"]],
                                 *(float(d[k]) for k in ("reward", "log_pf", "log_pb")),
                                 str(d.get("provenance", "forward-sampled"))))
                except (ValueError, KeyError, TypeError) as exc:
                    raise ValueError(f"{path}, line {n}: not a trajectory record "
                                     f"({type(exc).__name__}: {exc})") from None
    states, rewards, log_pf, log_pb, provenance = zip(*docs) if docs else ([],) * 5
    return PathBatch(*_pad(states), np.array(rewards, dtype=float),
                     np.array(provenance, dtype=str), np.array(log_pf, dtype=float),
                     np.array(log_pb, dtype=float))


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted log-softmax over the last axis; -inf entries get probability 0."""
    # the transpose broadcasts without keepdims, which is slow on single rows
    zt = z.T
    m = zt.max(0)
    return (zt - (m + np.log(np.exp(zt - m).sum(0)))).T


def _clamp(logits: np.ndarray) -> np.ndarray:
    """np.clip to ±LOGIT_CLAMP, bit for bit, minus the Python wrapper that doubles its cost."""
    return np.minimum(np.maximum(logits, -LOGIT_CLAMP), LOGIT_CLAMP)


def _masked_rows(logits: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped masked log-softmax over rows.

    Returns (logprob rows with -inf at invalid slots, probability rows with 0
    at invalid slots).
    """
    logp = _log_softmax(np.where(mask, _clamp(logits), -np.inf))
    return logp, np.where(mask, np.exp(logp), 0.0)


def proportional_draw(rng: np.random.Generator, weights: np.ndarray, size=None):
    """Indices drawn with probability proportional to nonnegative ``weights``.

    The package's one draw rule.  With ``c`` the cumulative sums, a uniform
    ``u`` picks the index ``i`` with ``c[i-1] <= u * c[-1] < c[i]``: ``u``
    scaled by the total is located in the sums with ``side="right"``, so a
    zero-weight entry is never picked.  Only the sums but the last are
    searched, so the last index is picked when rounding puts the scaled
    uniform at the total (possible with subnormal totals).  :func:`rollout`
    applies the rule as ``bisect_right`` on a row's listed sums,
    :func:`_draw_rows` to every row of a matrix.  ``size=None`` draws one index.
    """
    c = np.cumsum(weights)
    return np.searchsorted(c[:-1], rng.random(size) * c[-1], side="right")


def _draw_rows(rng: np.random.Generator, probs: np.ndarray) -> np.ndarray:
    """One :func:`proportional_draw` per row of ``probs``, one uniform per row."""
    c = np.cumsum(probs, axis=1)
    u = rng.random(len(probs)) * c[:, -1]
    return (c[:, :-1] <= u[:, None]).sum(axis=1)


class PolicyModel:
    """Parameterized forward/backward policies plus logZ and optional flow head."""

    def __init__(
        self,
        env: DagEnv,
        forward_net,
        backward_net=None,
        flow_net=None,
        logz_init: float = 0.0,
        meta: Optional[Dict[str, object]] = None,
    ):
        self.env = env
        self.forward_net = forward_net
        self.backward_net = backward_net
        self.flow_net = flow_net
        self.uniform_backward = backward_net is None
        self.meta = meta or {}

        self._nets = [n for n in (forward_net, backward_net, flow_net) if n is not None]
        self.params = ParamVector([("logz", ())] + [p for n in self._nets for p in n.param_spec()])
        for net in self._nets:
            net.bind(self.params)
        self.params.view("logz")[...] = logz_init

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        env: DagEnv,
        kind: str = "tabular",
        hidden: Sequence[int] = (256, 256),
        learn_backward: bool = True,
        flow_head: bool = False,
        rng: Optional[np.random.Generator] = None,
    ) -> "PolicyModel":
        rng = rng or np.random.default_rng(0)
        af, ab = env.num_forward_slots, env.num_backward_slots
        if kind == "tabular":
            fnet = Tabular(env.num_states, af, "pf")
            bnet = Tabular(env.num_states, ab, "pb") if learn_backward else None
            flnet = Tabular(env.num_states, 1, "flow") if flow_head else None
        elif kind == "mlp":
            env.encoding_matrix  # built, or refused by its cap, at set-up
            fnet = Mlp(env.feature_dim, hidden, af, "pf")
            bnet = Mlp(env.feature_dim, hidden, ab, "pb") if learn_backward else None
            flnet = Mlp(env.feature_dim, hidden, 1, "flow") if flow_head else None
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        meta = {"kind": kind, "hidden": list(hidden), "learn_backward": learn_backward,
                "flow_head": flow_head}
        model = cls(env, fnet, bnet, flnet, meta=meta)
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

    # -- evaluation ---------------------------------------------------------

    def _eval_rows(self, net, states: np.ndarray, env: DagEnv, cache: bool = True):
        """(net outputs at ``states``, what the net's ``backward`` needs).

        Without ``cache`` (a pass that never backprops) an MLP keeps nothing
        and runs over near-equal blocks of at most :data:`EVAL_BLOCK_ROWS`
        rows, so its memory is bounded by the block, not by ``len(states)``.
        """
        if net.wants_indices or cache or len(states) <= EVAL_BLOCK_ROWS:
            return net.forward(states if net.wants_indices else env.encoding_matrix[states],
                               cache=cache)
        blocks = np.array_split(states, -(-len(states) // EVAL_BLOCK_ROWS))
        return np.concatenate([net.forward(env.encoding_matrix[b], cache=False)[0]
                               for b in blocks]), None

    def _row(self, net, s: int, slots: np.ndarray, env: DagEnv) -> np.ndarray:
        """Log-probs over ``slots`` at one state; ``net`` None is the uniform policy."""
        k = len(slots)
        if k <= 1:
            return np.zeros(k)
        if net is None:
            return np.full(k, -np.log(k))
        out, _ = self._eval_rows(net, np.array([s]), env, cache=False)
        return _log_softmax(_clamp(out[0][slots]))


def rollout(model: PolicyModel, env: DagEnv, rng: np.random.Generator, starts: Sequence[int],
            forward: bool = True, epsilon: float = 0.0) -> "PathBatch":
    """Source-to-sink paths walked from ``starts`` one after another: forward,
    or backward from terminating states.

    No draw at a single-choice state; else, with ε > 0, ``rng.random() < ε``
    picks a uniform choice, or one uniform draws from the policy row by the
    rule of :func:`proportional_draw`.  Exploration never enters the
    log-probs a batch records.

    A step pays for its draw and two dictionary lookups.  Per environment
    (the graph is fixed), the move table ``env._moves`` gives a visited
    state's slots and next states as a list, filled at its first visit.  Per
    call (the parameters are fixed), a choice state's row is computed at its
    first visit and kept as its cumulative sums but the last, as a list, and
    its total; ``bisect_right`` locates the scaled uniform in them as
    ``searchsorted(..., side="right")`` does.  Filling either draws nothing,
    so every path takes the same uniforms, in the same order, as a row
    evaluated and drawn from at every step.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    if forward:
        net, slots_at, end = model.forward_net, env.forward_slots, env.sink
    else:
        net, slots_at, end = model.backward_net, env.backward_slots, env.initial_state
    moves = env._moves[0 if forward else 1]
    rows: Dict[int, Tuple[List[float], float]] = {}  # choice state -> (cumulative sums, total)
    paths = []
    for s in starts:
        s = int(s)
        if not forward and not env.is_terminating(s):
            raise ValueError(f"state {s} is not terminating")
        seq = [s]
        while s != end:
            move = moves.get(s)
            if move is None:
                slots, nxt = slots_at(s)
                move = moves[s] = slots, nxt.tolist()
            slots, nxt = move
            if len(nxt) == 1:
                s = nxt[0]
            else:
                row = rows.get(s)
                if row is None:
                    c = np.cumsum(np.exp(model._row(net, s, slots, env)))
                    row = rows[s] = c[:-1].tolist(), float(c[-1])
                if epsilon > 0.0 and rng.random() < epsilon:
                    s = nxt[int(rng.integers(len(nxt)))]
                else:
                    s = nxt[bisect_right(row[0], rng.random() * row[1])]
            seq.append(s)
        paths.append(seq if forward else seq[::-1] + [env.sink])
    return PathBatch.of_lists(env, paths, "forward-sampled" if forward else "backward-sampled")


# -- batched transition evaluation ------------------------------------------


def _slot_of(matrix: np.ndarray, rows: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Slot index such that matrix[rows, slot] == targets, vectorized."""
    return np.argmax(matrix[rows] == targets[:, None], axis=1)


class EdgeBatch:
    """Forward/backward log-probs for a flat list of edges, with backprop.

    Values are computed once at construction.  Callers accumulate per-edge
    coefficients (d loss / d log-prob) and invoke :meth:`backprop` once, which
    pushes gradients through the masked softmax, the clamp, and the nets.
    ``tid`` (optional) numbers the trajectory each edge belongs to.
    ``cache=False`` evaluates the nets without backward caches, in row blocks
    (see :meth:`PolicyModel._eval_rows`); such a batch refuses to backprop.
    """

    def __init__(self, model: PolicyModel, env: DagEnv, src: np.ndarray, dst: np.ndarray,
                 tid: Optional[np.ndarray] = None, cache: bool = True):
        self.model, self.env = model, env
        self.src, self.dst, self.tid, self.cache = src, dst, tid, cache
        self._pf_coeff = np.zeros(len(src))
        self._pb_coeff = np.zeros(len(src))

        # forward side: states with a single child contribute exactly 0
        fidx = np.flatnonzero(env.forward_mask[src].sum(axis=1) > 1)
        self.log_pf, self._fwd = self._side(model.forward_net, env.forward_mask,
                                            env.child_matrix, src, dst, fidx)
        # backward side: edges into the sink are excluded; single parents are 0
        inner = dst != env.sink
        bidx = np.flatnonzero(inner & (env.backward_mask[np.where(inner, dst, 0)].sum(axis=1) > 1))
        self.log_pb, self._bwd = self._side(model.backward_net, env.backward_mask,
                                            env.parent_matrix, dst, src, bidx)

    def _side(self, net, mask, matrix, at, other, idx):
        """Log-probs of edges ``idx`` under the policy at states ``at[idx]``.

        Returns (log-prob per edge, 0 outside ``idx``; what :meth:`backprop`
        needs, or None when no net was evaluated).
        """
        logp_edges = np.zeros(len(at))
        if not len(idx):
            return logp_edges, None
        rows = at[idx]
        if net is None:  # fixed-uniform backward policy
            logp_edges[idx] = -np.log(mask[rows].sum(axis=1))
            return logp_edges, None
        states, inv = np.unique(rows, return_inverse=True)
        raw, cache = self.model._eval_rows(net, states, self.env, cache=self.cache)
        logp, probs = _masked_rows(raw, mask[states])
        slot = _slot_of(matrix, rows, other[idx])
        logp_edges[idx] = logp[inv, slot]
        if not self.cache:
            return logp_edges, None
        return logp_edges, (net, cache, raw, probs, inv, slot, idx, mask[states])

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

    def add_pf_coeff(self, coeff: np.ndarray) -> None:
        self._pf_coeff += coeff

    def add_pb_coeff(self, coeff: np.ndarray) -> None:
        self._pb_coeff += coeff

    def backprop(self) -> None:
        if not self.cache:
            raise ValueError("this EdgeBatch was built without backward caches")
        for side, coeff in ((self._fwd, self._pf_coeff), (self._bwd, self._pb_coeff)):
            if side is None or not np.any(coeff):
                continue
            net, cache, raw, probs, inv, slot, idx, mask = side
            dlogits = np.zeros_like(raw)
            np.add.at(dlogits, inv, coeff[idx, None] * (-probs[inv]))
            np.add.at(dlogits, (inv, slot), coeff[idx])
            dlogits *= (np.abs(raw) <= LOGIT_CLAMP) & mask
            net.backward(cache, dlogits)


class FlowBatch:
    """State-flow head values for a flat list of states, with backprop."""

    def __init__(self, model: PolicyModel, env: DagEnv, states: np.ndarray):
        if model.flow_net is None:
            raise ValueError("model has no state-flow head")
        self.model, self.env = model, env
        self.states = states
        self._uniq, self._inv = np.unique(states, return_inverse=True)
        out, self._cache = model._eval_rows(model.flow_net, self._uniq, env)
        self.log_flow = out[self._inv, 0]
        self._coeff = np.zeros(len(states))

    def add_coeff(self, coeff: np.ndarray) -> None:
        self._coeff += coeff

    def backprop(self) -> None:
        if not np.any(self._coeff):
            return
        dout = np.zeros((len(self._uniq), 1))
        np.add.at(dout[:, 0], self._inv, self._coeff)
        self.model.flow_net.backward(self._cache, dout)


def score_paths(model: PolicyModel, env: DagEnv, paths: PathBatch) -> EdgeBatch:
    """Store ``paths``' log-probs from one cache-free :class:`EdgeBatch` over
    their edges, and return it (the paths keep no reference to it).

    For every pass that does not train: the batch cannot backprop.  A
    training round builds its own cached batch with :meth:`EdgeBatch.of_paths`.
    """
    edges = EdgeBatch.of_paths(model, env, paths, cache=False)
    paths.log_pf, paths.log_pb = edges.per_trajectory(len(paths))
    return edges


# -- bulk samplers (certification) -------------------------------------------


def _walk(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
          starts: Sequence[int], forward: bool) -> PathBatch:
    """Source-to-sink paths walked from every start state in lockstep, forward
    to the sink or backward from a terminating state to the source.

    Each step evaluates the policy once per distinct current state, draws
    one uniform per walker still moving and fills one column of the state
    matrix.  Backward rows are turned source-to-sink by one index gather.
    """
    if forward:
        net, mask, step, end = model.forward_net, env.forward_mask, env.child_matrix, env.sink
    else:
        net, mask, step, end = model.backward_net, env.backward_mask, env.parent_matrix, env.initial_state
    cur = np.array(starts, dtype=np.int64)
    n = len(cur)
    walked = np.full((n, len(env.levels)), -1, dtype=np.int64)  # no path is longer
    walked[:, 0] = cur
    alive = np.flatnonzero(cur != end)
    t = 0
    while len(alive):
        states = cur[alive]
        if net is None:  # fixed-uniform backward policy
            k = mask[states].sum(axis=1)
            p = mask[states] / k[:, None]
        else:
            uniq, inv = np.unique(states, return_inverse=True)
            out, _ = model._eval_rows(net, uniq, env, cache=False)
            p = _masked_rows(out, mask[uniq])[1][inv]
        nxt = step[states, _draw_rows(rng, p)]
        t += 1
        walked[alive, t] = nxt
        cur[alive] = nxt
        alive = alive[nxt != end]
    lengths = (walked >= 0).sum(axis=1)
    if forward:
        return PathBatch.of_matrix(env, walked[:, : t + 1], lengths, "forward-sampled")
    back = lengths[:, None] - 1 - np.arange(t + 2)  # column of walked read by each column
    paths = np.where(back >= 0, np.take_along_axis(walked, np.maximum(back, 0), axis=1), -1)
    paths[np.arange(n), lengths] = env.sink
    return PathBatch.of_matrix(env, paths, lengths + 1, "backward-sampled")


def sample_forward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                         count: int) -> PathBatch:
    """Sample many trajectories from the pure forward policy in lockstep."""
    paths = _walk(model, env, rng, [env.initial_state] * count, forward=True)
    score_paths(model, env, paths)
    return paths


def sample_backward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                          xs: np.ndarray) -> PathBatch:
    """Walk backward from given terminating states in lockstep."""
    paths = _walk(model, env, rng, xs, forward=False)
    score_paths(model, env, paths)
    return paths


def exact_terminal_distribution(model: PolicyModel, env: DagEnv,
                                cap: int = DEFAULT_STATE_CAP) -> Tuple[np.ndarray, np.ndarray]:
    """Exact terminal sampling distribution by dynamic programming.

    Returns (terminating states, their probabilities), aligned with
    ``env.terminating_states``.  Mass flows through the forward policy one
    level at a time.  The net runs only at states with a choice: a single
    child is taken with probability exactly 1.
    """
    if env.num_states > cap:
        raise EnumerationCapError(f"{env.num_states} states exceed the cap {cap}")
    choice = np.flatnonzero(env.forward_mask.sum(axis=1) > 1)
    out, _ = model._eval_rows(model.forward_net, choice, env, cache=False)
    probs = np.ones(env.child_matrix.shape)
    probs[choice] = _masked_rows(out, env.forward_mask[choice])[1]
    p_edge = probs[env.edge_src, env.edge_fslot]

    mass = np.zeros(env.num_states)
    mass[env.initial_state] = 1.0
    for e in env.level_edges:
        np.add.at(mass, env.edge_dst[e], mass[env.edge_src[e]] * p_edge[e])
    # P_T(x) = mass(x) * P_F(x -> sink); the sink edge is each terminating
    # state's only action, so its probability is exactly 1.
    return env.terminating_states, mass[env.terminating_states]
