"""Forward/backward policies over a DAG environment, with trajectory sampling.

A :class:`PolicyModel` wraps approximators into a forward policy (masked
softmax over child slots), a backward policy (masked softmax over parent
slots, or fixed-uniform), a learnable log partition value, and an optional
state-flow head.  Valid-action logits are clamped to [-50, 50] before
normalization so every valid edge keeps strictly positive probability.

:func:`rollout` walks training trajectories one after another, computing each
state's policy row once per call.  Cached log-probs come from one
:class:`EdgeBatch` over a batch's edges (:func:`trajectories_from_paths`), so
they are bit-reproducible given seed and batch.  Bulk samplers walk in lockstep.

One implementation each: :func:`_log_softmax` for every policy row,
:func:`proportional_draw` (row-wise: :func:`_draw_rows`) for every
reward-proportional draw in the package, :func:`_walk` for both bulk samplers.
:func:`exact_terminal_distribution` pushes mass along the environment's level
order, one array step per level (see :mod:`stablegfn.envs`).
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .approximator import Mlp, ParamVector, Tabular
from .envs import DagEnv, EnumerationCapError, DEFAULT_STATE_CAP

LOGIT_CLAMP = 50.0


@dataclass
class Trajectory:
    """A complete path from the source to the sink with cached log-probs.

    ``log_pf`` sums forward log-probabilities over every edge (the final
    hop into the sink contributes exactly 0); ``log_pb`` sums backward
    log-probabilities over every edge except the hop into the sink.
    """

    states: List[int]
    log_pf: float
    log_pb: float
    reward: float
    provenance: str = "forward-sampled"

    @property
    def terminating_state(self) -> int:
        return self.states[-2]

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self))


def write_trajectory_log(path: str, trajectories: Sequence[Trajectory]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for t in trajectories:
            fh.write(t.to_json() + "\n")


def read_trajectory_log(path: str) -> List[Trajectory]:
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                d = json.loads(line)
                out.append(
                    Trajectory(
                        [int(s) for s in d["states"]],
                        float(d["log_pf"]),
                        float(d["log_pb"]),
                        float(d["reward"]),
                        d.get("provenance", "forward-sampled"),
                    )
                )
    return out


def _log_softmax(z: np.ndarray) -> np.ndarray:
    """Max-shifted log-softmax over the last axis; -inf entries get probability 0."""
    # the transpose broadcasts without keepdims, which is slow on single rows
    zt = z.T
    m = zt.max(0)
    return (zt - (m + np.log(np.exp(zt - m).sum(0)))).T


def _masked_rows(logits: np.ndarray, mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Clamped masked log-softmax over rows.

    Returns (logprob rows with -inf at invalid slots, probability rows with 0
    at invalid slots).
    """
    logp = _log_softmax(np.where(mask, np.clip(logits, -LOGIT_CLAMP, LOGIT_CLAMP), -np.inf))
    return logp, np.where(mask, np.exp(logp), 0.0)


def proportional_draw(rng: np.random.Generator, weights: np.ndarray, size=None):
    """Indices drawn with probability proportional to nonnegative ``weights``.

    One uniform per draw, scaled by the total, is located in the cumulative
    sums with ``side="right"``, so a zero-weight entry is never picked.
    Searching all but the last sum clamps the index to the last entry when
    rounding puts the scaled uniform at the total.  ``size=None`` draws one
    index (the path :func:`rollout` takes: no extra numpy call per state).
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
            fnet = Mlp(env.feature_dim, hidden, af, "pf")
            bnet = Mlp(env.feature_dim, hidden, ab, "pb") if learn_backward else None
            flnet = Mlp(env.feature_dim, hidden, 1, "flow") if flow_head else None
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        meta = {
            "kind": kind,
            "hidden": list(hidden),
            "learn_backward": learn_backward,
            "flow_head": flow_head,
        }
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

    # -- single-state evaluation ------------------------------------------

    def _eval_rows(self, net, states: np.ndarray, env: DagEnv):
        return net.forward(states if net.wants_indices else env.encoding_matrix[states])

    def _row(self, net, s: int, slots: np.ndarray, env: DagEnv) -> np.ndarray:
        """Log-probs over ``slots`` at one state; ``net`` None is the uniform policy."""
        k = len(slots)
        if k <= 1:
            return np.zeros(k)
        if net is None:
            return np.full(k, -np.log(k))
        out, _ = self._eval_rows(net, np.array([s]), env)
        return _log_softmax(np.clip(out[0][slots], -LOGIT_CLAMP, LOGIT_CLAMP))

    def forward_row(self, s: int, env: Optional[DagEnv] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slots, children, log-probs) of the forward policy at one state."""
        env = env or self.env
        slots, children = env.forward_slots(s)
        return slots, children, self._row(self.forward_net, s, slots, env)

    def backward_row(self, s: int, env: Optional[DagEnv] = None) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(slots, parents, log-probs) of the backward policy at one state."""
        env = env or self.env
        slots, parents = env.backward_slots(s)
        return slots, parents, self._row(self.backward_net, s, slots, env)

    def log_pf_edge(self, src: int, dst: int, env: Optional[DagEnv] = None) -> float:
        _, children, lp = self.forward_row(src, env)
        (i,) = np.nonzero(children == dst)[0]
        return float(lp[i])

    def log_pb_edge(self, src: int, dst: int, env: Optional[DagEnv] = None) -> float:
        """log P_B(src | dst); zero when dst is the sink (not part of the product)."""
        env = env or self.env
        if dst == env.sink:
            return 0.0
        _, parents, lp = self.backward_row(dst, env)
        (i,) = np.nonzero(parents == src)[0]
        return float(lp[i])

    def log_state_flow(self, s: int, env: Optional[DagEnv] = None) -> float:
        if self.flow_net is None:
            raise ValueError("model has no state-flow head")
        env = env or self.env
        out, _ = self._eval_rows(self.flow_net, np.array([s]), env)
        return float(out[0, 0])


def rollout(model: PolicyModel, env: DagEnv, rng: np.random.Generator, starts: Sequence[int],
            forward: bool = True, epsilon: float = 0.0) -> List[List[int]]:
    """Source-to-sink paths walked from ``starts`` one after another: forward,
    or backward from terminating states.

    No draw at a single-choice state; else, with ε > 0, ``rng.random() < ε``
    picks a uniform choice, or :func:`proportional_draw` draws from the policy
    row.  Rows are computed once per state per call (parameters are fixed in
    it).  Exploration never enters the log-probs trajectories record.
    """
    if not 0.0 <= epsilon < 1.0:
        raise ValueError("epsilon must be in [0, 1)")
    row_at = model.forward_row if forward else model.backward_row
    end = env.sink if forward else env.initial_state
    rows: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}  # state -> (next states, probabilities)
    paths = []
    for s in starts:
        s = int(s)
        if not forward and not env.is_terminating(s):
            raise ValueError(f"state {s} is not terminating")
        seq = [s]
        while s != end:
            if s not in rows:
                _, nxt, lp = row_at(s, env)
                rows[s] = nxt, np.exp(lp)
            nxt, p = rows[s]
            if len(nxt) == 1:
                i = 0
            elif epsilon > 0.0 and rng.random() < epsilon:
                i = int(rng.integers(len(nxt)))
            else:
                i = int(proportional_draw(rng, p))
            s = int(nxt[i])
            seq.append(s)
        paths.append(seq if forward else seq[::-1] + [env.sink])
    return paths


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
    """

    def __init__(self, model: PolicyModel, env: DagEnv, src: np.ndarray, dst: np.ndarray,
                 tid: Optional[np.ndarray] = None):
        self.model, self.env = model, env
        self.src, self.dst, self.tid = src, dst, tid
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
        raw, cache = self.model._eval_rows(net, states, self.env)
        logp, probs = _masked_rows(raw, mask[states])
        slot = _slot_of(matrix, rows, other[idx])
        logp_edges[idx] = logp[inv, slot]
        return logp_edges, (net, cache, raw, probs, inv, slot, idx, mask[states])

    @classmethod
    def of_trajectories(cls, model: PolicyModel, env: DagEnv,
                        trajs: Sequence[Trajectory]) -> "EdgeBatch":
        """One batch over every edge of ``trajs``, grouped by trajectory."""
        tid, src, dst = collect_transitions(trajs)
        return cls(model, env, src, dst, tid)

    def per_trajectory(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """(log P_F, log P_B) summed over each of ``n`` trajectories' edges."""
        return (np.bincount(self.tid, weights=self.log_pf, minlength=n),
                np.bincount(self.tid, weights=self.log_pb, minlength=n))

    def add_pf_coeff(self, coeff: np.ndarray) -> None:
        self._pf_coeff += coeff

    def add_pb_coeff(self, coeff: np.ndarray) -> None:
        self._pb_coeff += coeff

    def backprop(self) -> None:
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


def collect_transitions(trajs: Sequence[Trajectory]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten trajectories into (trajectory id, edge source, edge target) arrays."""
    tid, src, dst = [], [], []
    for i, t in enumerate(trajs):
        for a, b in zip(t.states[:-1], t.states[1:]):
            tid.append(i)
            src.append(a)
            dst.append(b)
    return (
        np.array(tid, dtype=np.int64),
        np.array(src, dtype=np.int64),
        np.array(dst, dtype=np.int64),
    )


def trajectory_log_probs(model: PolicyModel, env: DagEnv,
                         trajs: Sequence[Trajectory]) -> Tuple[np.ndarray, np.ndarray]:
    """Recompute (log P_F, log P_B) per trajectory under current parameters."""
    return EdgeBatch.of_trajectories(model, env, trajs).per_trajectory(len(trajs))


def trajectories_from_paths(model: PolicyModel, env: DagEnv, paths: Sequence[List[int]],
                            provenance: str) -> Tuple[List[Trajectory], EdgeBatch]:
    """Trajectories along source-to-sink ``paths`` and the one :class:`EdgeBatch`
    their log-probs come from (they keep no reference to it)."""
    trajs = [Trajectory(p, 0.0, 0.0, env.reward(p[-2]), provenance) for p in paths]
    batch = EdgeBatch.of_trajectories(model, env, trajs)
    for t, f, b in zip(trajs, *batch.per_trajectory(len(trajs))):
        t.log_pf, t.log_pb = float(f), float(b)
    return trajs, batch


# -- bulk samplers (certification) -------------------------------------------


def _walk(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
          starts: Sequence[int], forward: bool) -> List[List[int]]:
    """Source-to-sink paths walked from every start state in lockstep, forward
    to the sink or backward from a terminating state to the source.

    Each step evaluates the policy once per distinct current state and draws
    one uniform per walker still moving.
    """
    if forward:
        net, mask, step, end = model.forward_net, env.forward_mask, env.child_matrix, env.sink
    else:
        net, mask, step, end = model.backward_net, env.backward_mask, env.parent_matrix, env.initial_state
    seqs: List[List[int]] = [[int(s)] for s in starts]
    cur = np.array(starts, dtype=np.int64)
    alive = np.flatnonzero(cur != end)
    while len(alive):
        states = cur[alive]
        if net is None:  # fixed-uniform backward policy
            k = mask[states].sum(axis=1)
            p = mask[states] / k[:, None]
        else:
            uniq, inv = np.unique(states, return_inverse=True)
            out, _ = model._eval_rows(net, uniq, env)
            p = _masked_rows(out, mask[uniq])[1][inv]
        nxt = step[states, _draw_rows(rng, p)]
        for j, t in enumerate(alive):
            seqs[t].append(int(nxt[j]))
        cur[alive] = nxt
        alive = alive[nxt != end]
    return seqs if forward else [s[::-1] + [env.sink] for s in seqs]


def sample_forward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                         count: int) -> List[Trajectory]:
    """Sample many trajectories from the pure forward policy in lockstep."""
    paths = _walk(model, env, rng, [env.initial_state] * count, forward=True)
    return trajectories_from_paths(model, env, paths, "forward-sampled")[0]


def sample_backward_batch(model: PolicyModel, env: DagEnv, rng: np.random.Generator,
                          xs: np.ndarray) -> List[Trajectory]:
    """Walk backward from given terminating states in lockstep."""
    paths = _walk(model, env, rng, xs, forward=False)
    return trajectories_from_paths(model, env, paths, "backward-sampled")[0]


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
    out, _ = model._eval_rows(model.forward_net, choice, env)
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
