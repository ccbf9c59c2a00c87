"""Training objectives: FM, DB, TB, SubTB, weighted-DB, and the capped variant.

Per-object losses (one trajectory, edge, state, or span at a time) mirror the
mathematical definitions and serve as oracles; they read a ``Trajectory`` or
any row of a ``PathBatch``.  :func:`batch_loss` is the vectorized engine the
trainers use: it reads a ``PathBatch``'s arrays (edges, occurrences and flow
positions by mask over its state matrix), computes per-item losses and, on
request, accumulates analytic gradients into the model's parameter vector.

The reference-flow machinery injects a nonnegative mass ``delta`` into both
sides of the trajectory-balance ratio, capping each item's loss at
``threshold**2``.  ``delta`` is always treated as a constant in gradients.
:func:`reference_flow_log_deltas` is the package's one implementation of it.
Flow matching sums flows in log space, so tiny flows stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .envs import DagEnv, EnumerationCapError
from .policy import EdgeBatch, FlowBatch, PathBatch, PolicyModel, Trajectory

WDB_REACH_CELL_CAP = 50_000_000


# -- per-object losses --------------------------------------------------------


def tb_loss(traj: Trajectory, logz: float) -> float:
    """Squared log-ratio of the model trajectory flow to the target flow."""
    if traj.reward <= 0:
        raise ValueError("trajectory balance needs a positive terminal reward")
    r = logz + traj.log_pf - math.log(traj.reward) - traj.log_pb
    return r * r


def db_loss(edge: Tuple[int, int], model: PolicyModel, env: DagEnv) -> float:
    """Squared log-ratio of forward to backward flow on one edge (not into the sink)."""
    s, t = edge
    if t == env.sink:
        raise ValueError("detailed balance is undefined on edges into the sink")
    if t not in env.children(s):
        raise ValueError(f"{s}->{t} is not an edge")
    end = math.log(env.reward(t)) if env.is_terminating(t) else model.log_state_flow(t, env)
    r = (
        model.log_state_flow(s, env)
        + model.log_pf_edge(s, t, env)
        - end
        - model.log_pb_edge(s, t, env)
    )
    return r * r


def fm_loss(state: int, model: PolicyModel, env: DagEnv) -> float:
    """Squared log-ratio of in-flow to reward-plus-out-flow at one intermediate state."""
    if state == env.initial_state or state == env.sink:
        raise ValueError("flow matching applies to intermediate states only")
    log_in = [model.log_state_flow(p, env) + model.log_pf_edge(p, state, env)
              for p in env.parents(state)]
    log_out = [math.log(env.reward(state))] if env.is_terminating(state) else []
    for c in env.children(state):
        if c != env.sink:
            log_out.append(model.log_state_flow(state, env) + model.log_pf_edge(state, c, env))
    r = float(np.logaddexp.reduce(log_in) - np.logaddexp.reduce(log_out))
    return r * r


def subtb_loss(traj: Trajectory, t1: int, t2: int, model: PolicyModel, env: DagEnv) -> float:
    """Squared log-ratio over the span states[t1..t2] of a trajectory.

    The terminal index is the trajectory's last non-sink position; a span
    ending there replaces the state flow with the terminal reward.
    """
    seq = traj.states[:-1]
    n = len(seq) - 1
    if not 0 <= t1 < t2 <= n:
        raise ValueError(f"degenerate or out-of-range span ({t1}, {t2})")
    start = model.log_state_flow(seq[t1], env)
    if t2 == n:
        end = math.log(env.reward(seq[n]))
    else:
        end = model.log_state_flow(seq[t2], env)
    r = start - end
    for u in range(t1, t2):
        r += model.log_pf_edge(seq[u], seq[u + 1], env)
        r -= model.log_pb_edge(seq[u], seq[u + 1], env)
    return r * r


# -- reachable-terminal reweighting -------------------------------------------


def terminal_reach_counts(env: DagEnv) -> np.ndarray:
    """Number of terminating states reachable from each state (self included).

    Reach sets are merged one level at a time, walking the level order back.
    Cached on the environment, so the cache lives exactly as long as it does.
    """
    n_term = len(env.terminating_states)
    if env.num_states * n_term > WDB_REACH_CELL_CAP:
        raise EnumerationCapError("environment too large for reachability reweighting")
    if env._reach_counts is not None:
        return env._reach_counts
    reach = np.zeros((env.num_states, n_term), dtype=bool)
    reach[env.terminating_states, np.arange(n_term)] = True
    inner = env.edge_dst != env.sink
    for e in env.level_edges[::-1]:  # children sit on later levels
        e = e[inner[e]]
        np.logical_or.at(reach, env.edge_src[e], reach[env.edge_dst[e]])
    env._reach_counts = reach.sum(axis=1)
    return env._reach_counts


def wdb_weights(traj: Trajectory, env: DagEnv) -> np.ndarray:
    """Per-transition weights inverse to reachable-terminal counts, summing to 1.

    The final hop into the sink counts exactly its own terminating state.
    """
    counts = terminal_reach_counts(env)
    raw = []
    for a, b in zip(traj.states[:-1], traj.states[1:]):
        raw.append(1.0 if b == env.sink else 1.0 / counts[b])
    raw = np.array(raw)
    return raw / raw.sum()


# -- reference flow ------------------------------------------------------------


def reference_flow_log_deltas(log_model: np.ndarray, log_target: np.ndarray,
                              threshold: float) -> np.ndarray:
    """log of the minimum reference flow capping each item's loss at threshold**2.

    Elementwise over (log model flow, log target flow) arrays.  -inf where no
    flow is needed (|log ratio| <= threshold), +inf elsewhere at threshold 0.
    Computed with log1p/expm1 so that widely separated flows never overflow.
    """
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    log_model = np.asarray(log_model, dtype=np.float64)
    log_target = np.asarray(log_target, dtype=np.float64)
    r = log_model - log_target
    out = np.full(r.shape, -np.inf)
    if threshold == 0.0:
        out[r != 0.0] = np.inf
        return out
    log_em1 = math.log(math.expm1(threshold))
    hi, lo = r > threshold, r < -threshold
    out[hi] = log_model[hi] + np.log1p(-np.exp(threshold - r[hi])) - log_em1
    out[lo] = log_target[lo] + np.log1p(-np.exp(threshold + r[lo])) - log_em1
    return out


def reference_flow_delta(log_model_flow: float, log_target_flow: float,
                         threshold: float) -> float:
    """Minimum reference flow (in linear scale) capping the loss at threshold**2."""
    return math.exp(reference_flow_log_deltas([log_model_flow], [log_target_flow], threshold)[0])


def reference_flow_ratio(log_model_flow: float, log_target_flow: float,
                         threshold: float) -> float:
    """delta divided by the target flow; the quantity the sampling bounds track."""
    return math.exp(reference_flow_log_deltas([log_model_flow], [log_target_flow], threshold)[0]
                    - log_target_flow)


def augmented_log_ratio(log_model_flow: float, log_target_flow: float, delta: float) -> float:
    if delta == 0.0:
        return log_model_flow - log_target_flow
    if math.isinf(delta):
        return 0.0
    ld = math.log(delta)
    return np.logaddexp(log_model_flow, ld) - np.logaddexp(log_target_flow, ld)


def augmented_loss(traj: Trajectory, logz: float, delta: float) -> float:
    """Squared log-ratio after injecting ``delta`` into both flows."""
    if delta < 0:
        raise ValueError("reference flow must be nonnegative")
    r = augmented_log_ratio(logz + traj.log_pf, math.log(traj.reward) + traj.log_pb, delta)
    return r * r


def reduction_factor_gamma(log_model_flow: float, log_target_flow: float,
                           delta: float) -> float:
    """Factor by which the reference flow shrinks the loss: sqrt(raw / augmented)."""
    r = log_model_flow - log_target_flow
    if r == 0.0:
        raise ValueError("reduction factor is undefined at zero raw loss")
    ra = augmented_log_ratio(log_model_flow, log_target_flow, delta)
    if ra == 0.0:
        return math.inf
    return abs(r) / abs(ra)


# -- batched engine -------------------------------------------------------------


@dataclass
class LossBatchReport:
    """Per-item losses for one batch plus the summary statistics the CSV logs."""

    kind: str
    per_item: np.ndarray
    log_ratios: Optional[np.ndarray] = None
    deltas: Optional[np.ndarray] = None

    @property
    def mean(self) -> float:
        return float(self.per_item.mean())

    @property
    def max_item(self) -> float:
        return float(self.per_item.max())

    @property
    def max_to_rest(self) -> float:
        i = int(np.argmax(self.per_item))
        rest = float(self.per_item.sum() - self.per_item[i])
        if rest == 0.0:
            return math.inf
        return float(self.per_item[i]) / rest

    @property
    def mean_delta(self) -> float:
        return float(self.deltas.mean()) if self.deltas is not None else 0.0

    @property
    def active_delta_frac(self) -> float:
        if self.deltas is None or len(self.deltas) == 0:
            return 0.0
        return float((self.deltas > 0).mean())


def batch_loss(
    model: PolicyModel,
    env: DagEnv,
    paths: PathBatch,
    objective: str = "tb",
    backprop: bool = False,
    deltas: Optional[np.ndarray] = None,
    subtb_lambda: float = 0.9,
    edges: Optional[EdgeBatch] = None,
) -> LossBatchReport:
    """Per-path losses for a batch; optionally accumulate mean-loss gradients.

    ``deltas`` (constants, one per path) select the capped variant of
    the trajectory objective.  Gradients are of the batch mean and are added
    into ``model.params.grads`` without zeroing.  The trajectory objective
    and the edge objectives (db, wdb, subtb) reuse ``edges``, an unused
    EdgeBatch over exactly ``paths``' edges at the current parameters (see
    :func:`~stablegfn.policy.score_paths`), if given; fm evaluates the in- and
    out-edges of the visited states in a batch of its own.
    """
    if deltas is not None and objective not in ("tb", "augmented"):
        raise ValueError("reference flow only applies to the trajectory objective")
    if objective == "fm":
        return _batch_fm(model, env, paths, backprop)
    if objective not in ("tb", "augmented", "db", "wdb", "subtb"):
        raise ValueError(f"unknown objective {objective!r}")
    if edges is None:
        edges = EdgeBatch.of_paths(model, env, paths)
    if objective in ("db", "wdb"):
        return _batch_db(model, env, paths, backprop, edges, weighted=objective == "wdb")
    if objective == "subtb":
        return _batch_subtb(model, env, paths, backprop, subtb_lambda, edges)
    return _batch_tb(model, env, paths, backprop, deltas, edges)


def _batch_tb(model, env, paths, backprop, deltas, batch):
    n = len(paths)
    log_pf, log_pb = batch.per_trajectory(n)
    log_model = model.logz + log_pf
    log_target = paths.log_rewards + log_pb
    raw_ratio = log_model - log_target

    # sa, sb: d(augmented log flow)/d(raw log flow) on each side
    ratio, sa, sb = raw_ratio.copy(), np.ones(n), np.ones(n)
    kind = "tb"
    if deltas is not None:
        kind = "augmented"
        deltas = np.asarray(deltas, dtype=np.float64)
        capped = np.isinf(deltas)
        ratio[capped] = sa[capped] = sb[capped] = 0.0
        mid = (deltas > 0.0) & ~capped
        ld = np.log(deltas[mid])
        la = np.logaddexp(log_model[mid], ld)
        lb = np.logaddexp(log_target[mid], ld)
        ratio[mid] = la - lb
        sa[mid] = np.exp(log_model[mid] - la)
        sb[mid] = np.exp(log_target[mid] - lb)

    per_item = ratio * ratio
    if backprop:
        coeff_a = 2.0 * ratio * sa / n
        coeff_b = 2.0 * ratio * sb / n
        batch.add_pf_coeff(coeff_a[batch.tid])
        batch.add_pb_coeff(-coeff_b[batch.tid])
        model.add_logz_grad(float(coeff_a.sum()))
        batch.backprop()
    return LossBatchReport(kind, per_item, log_ratios=raw_ratio, deltas=deltas)


def _batch_db(model, env, paths, backprop, batch, weighted):
    n = len(paths)
    if weighted:  # each path's last edge, and no other, goes into the sink
        weights = np.concatenate([np.empty(0)] + [wdb_weights(t, env)[:-1] for t in paths])
    keep = batch.dst != env.sink  # detailed balance skips the edges into the sink
    tid, src, dst = batch.tid[keep], batch.src[keep], batch.dst[keep]

    term = env.terminating_mask[dst]
    fb = FlowBatch(model, env, np.concatenate([src, dst[~term]]))
    flow_src = fb.log_flow[: len(src)]
    end = np.empty(len(dst))
    end[~term] = fb.log_flow[len(src):]
    end[term] = np.log(env.reward_table[dst[term]])

    rho = flow_src + batch.log_pf[keep] - end - batch.log_pb[keep]
    if weighted:
        edge_w = weights
    else:
        edge_w = 1.0 / np.bincount(tid, minlength=n)[tid]
    per_item = np.bincount(tid, weights=edge_w * rho * rho, minlength=n)

    if backprop:
        coeff = 2.0 * rho * edge_w / n
        edge_coeff = np.zeros(len(keep))
        edge_coeff[keep] = coeff
        batch.add_pf_coeff(edge_coeff)
        batch.add_pb_coeff(-edge_coeff)
        fcoeff = np.concatenate([coeff, -coeff[~term]])
        fb.add_coeff(fcoeff)
        batch.backprop()
        fb.backprop()
    return LossBatchReport("wdb" if weighted else "db", per_item)


def _batch_fm(model, env, paths, backprop):
    n = len(paths)
    # every state but the source and the sink, path by path, in path order
    after = paths.states[:, 1:]
    occ = (after >= 0) & (after != env.sink)
    occ_traj, occ_state = np.nonzero(occ)[0], after[occ]
    n_occ = len(occ_state)

    # in-edges from the parent slots, out-edges (but the one into the sink)
    # from the child slots: occurrence by occurrence, in slot order
    par = env.parent_matrix[occ_state]
    in_occ, in_slot = np.nonzero(par >= 0)
    kid = env.child_matrix[occ_state]
    out_occ, out_slot = np.nonzero((kid >= 0) & (kid != env.sink))
    src = np.concatenate([par[in_occ, in_slot], occ_state[out_occ]])
    dst = np.concatenate([occ_state[in_occ], kid[out_occ, out_slot]])
    batch = EdgeBatch(model, env, src, dst)
    fb = FlowBatch(model, env, src)
    n_in = len(in_occ)
    log_terms = fb.log_flow + batch.log_pf

    # flows are summed in log space (pairwise max-shifted logaddexp), so
    # state flows far below exp's range still give finite values
    log_in = np.full(n_occ, -np.inf)
    np.logaddexp.at(log_in, in_occ, log_terms[:n_in])
    with np.errstate(divide="ignore"):
        log_out = np.log(env.reward_table[occ_state])
    np.logaddexp.at(log_out, out_occ, log_terms[n_in:])
    rho = log_in - log_out

    occ_w = 1.0 / np.bincount(occ_traj, minlength=n)[occ_traj]
    per_item = np.bincount(occ_traj, weights=occ_w * rho * rho, minlength=n)

    if backprop:
        base = 2.0 * rho * occ_w / n
        share_in = np.exp(log_terms[:n_in] - log_in[in_occ])
        share_out = np.exp(log_terms[n_in:] - log_out[out_occ])
        coeff = np.concatenate([base[in_occ] * share_in, -base[out_occ] * share_out])
        batch.add_pf_coeff(coeff)
        fb.add_coeff(coeff)
        batch.backprop()
        fb.backprop()
    return LossBatchReport("fm", per_item)


def _batch_subtb(model, env, paths, backprop, lam, batch):
    n = len(paths)
    per_item = np.zeros(n)
    edge_coeff = np.zeros(len(batch.src))
    # edges are grouped by path; each group ends with the edge into the sink
    offsets = np.concatenate([[0], np.cumsum(np.bincount(batch.tid, minlength=n))]).astype(int)

    # flow head at every position before the terminating state (0..L-1) of every path
    spans = paths.lengths - 2
    fb = FlowBatch(model, env, paths.states[np.arange(paths.states.shape[1]) < spans[:, None]])
    foffsets = np.concatenate([[0], np.cumsum(spans)])
    flow_coeff = np.zeros(len(fb.states))

    for i, L in enumerate(spans.tolist()):
        if L == 0:
            continue
        e0, f0 = offsets[i], foffsets[i]
        pref = np.concatenate(
            [[0.0], np.cumsum(batch.log_pf[e0:e0 + L] - batch.log_pb[e0:e0 + L])]
        )
        logf = fb.log_flow[f0:f0 + L]
        end_reward = paths.log_rewards[i]

        t1, t2 = np.triu_indices(L + 1, k=1)
        start = logf[t1]
        end = np.where(t2 == L, end_reward, logf[np.minimum(t2, L - 1)])
        rho = start + (pref[t2] - pref[t1]) - end
        w = lam ** (t2 - t1).astype(np.float64)
        w = w / w.sum()
        per_item[i] = float((w * rho * rho).sum())

        if backprop:
            c = 2.0 * w * rho / n
            dif = np.zeros(L + 1)
            np.add.at(dif, t1, c)
            np.add.at(dif, t2, -c)
            edge_coeff[e0:e0 + L] += np.cumsum(dif[:-1])
            np.add.at(flow_coeff, f0 + t1, c)
            interior = t2 < L
            np.add.at(flow_coeff, f0 + t2[interior], -c[interior])

    if backprop:
        batch.add_pf_coeff(edge_coeff)
        batch.add_pb_coeff(-edge_coeff)
        fb.add_coeff(flow_coeff)
        batch.backprop()
        fb.backprop()
    return LossBatchReport("subtb", per_item)
