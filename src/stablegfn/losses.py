"""Training objectives: FM, DB, TB, SubTB, weighted-DB, and the capped variant.

:func:`batch_loss` is the package's one loss implementation.  It reads a
``PathBatch``'s arrays (edges, occurrences and flow positions by mask over its
state matrix), computes the log-ratio of every term and each path's loss and,
on request, accumulates analytic gradients into the model's parameter vector.
The per-object definitions it must agree with (one trajectory, edge, state or
span at a time) live in the test suite's reference module, ``tests/loss_reference.py``.

The reference-flow machinery injects a nonnegative mass ``delta`` into both
sides of the trajectory-balance ratio, capping each item's loss at
``threshold**2``.  ``delta`` is always treated as a constant in gradients.
:func:`reference_flow_log_deltas` is the package's one implementation of it,
and :func:`augmented_log_ratios` the one of the ratios it leaves.
Flow matching sums flows in log space, so tiny flows stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .envs import DagEnv, EnumerationCapError
from .policy import EdgeBatch, FlowBatch, PathBatch, PolicyModel, _backprop_side, _side

WDB_REACH_CELL_CAP = 50_000_000


# -- reachable-terminal reweighting -------------------------------------------


def check_reach_cap(num_states: int, num_terminals: int, need: str = "wdb") -> None:
    """Refuse ``need``, whose reach sets hold ``num_states * num_terminals``
    cells, above :data:`WDB_REACH_CELL_CAP`."""
    cells = num_states * num_terminals
    if cells > WDB_REACH_CELL_CAP:
        raise EnumerationCapError(f"{need}: reachability reweighting needs {cells} cells, "
                                  f"above WDB_REACH_CELL_CAP = {WDB_REACH_CELL_CAP}")


def terminal_reach_counts(env: DagEnv) -> np.ndarray:
    """Number of terminating states reachable from each state (self included).

    Reach sets are merged one level at a time, walking the level order back.
    Cached on the environment, so the cache lives exactly as long as it does.
    """
    n_term = len(env.terminating_states)
    check_reach_cap(env.num_states, n_term)
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


# -- reference flow ------------------------------------------------------------


def check_threshold(threshold: float) -> None:
    """Refuse a loss threshold that is NaN or negative; +inf is valid (its bound is 1)."""
    if not threshold >= 0:
        raise ValueError("threshold must be nonnegative")


def reference_flow_log_deltas(log_model: np.ndarray, log_target: np.ndarray,
                              threshold: float) -> np.ndarray:
    """log of the minimum reference flow capping each item's loss at threshold**2.

    Elementwise over (log model flow, log target flow) arrays.  -inf where no
    flow is needed (|log ratio| <= threshold) or the flow needed rounds to 0,
    +inf elsewhere at threshold 0.
    Computed with log1p/expm1 so that widely separated flows never overflow,
    and thresholds past log(DBL_MAX) ≈ 709.78 neither.
    """
    check_threshold(threshold)
    log_model = np.asarray(log_model, dtype=np.float64)
    log_target = np.asarray(log_target, dtype=np.float64)
    r = log_model - log_target
    out = np.full(r.shape, -np.inf)
    if threshold == 0.0:
        out[r != 0.0] = np.inf
        return out
    try:
        log_em1 = math.log(math.expm1(threshold))
    except OverflowError:  # e^c past DBL_MAX: log(e^c - 1) = c + log1p(-e^-c)
        log_em1 = threshold + math.log1p(-math.exp(-threshold))
    hi, lo = r > threshold, r < -threshold
    with np.errstate(divide="ignore"):  # -inf where exp(c - |r|) rounds to 1: |r| - c < 1e-16
        out[hi] = log_model[hi] + np.log1p(-np.exp(threshold - r[hi])) - log_em1
        out[lo] = log_target[lo] + np.log1p(-np.exp(threshold + r[lo])) - log_em1
    return out


def augmented_log_ratios(log_model: np.ndarray, log_target: np.ndarray,
                         deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log-ratios after injecting the constant flows ``deltas`` into both sides.

    Returns (ratio, sa, sb), where sa and sb are d(augmented log flow)/d(raw
    log flow) on the model and the target side.  A zero delta leaves the raw
    ratio; an infinite one gives ratio 0 and no gradient.
    """
    ratio, n = log_model - log_target, len(log_model)
    sa, sb = np.ones(n), np.ones(n)
    capped = np.isinf(deltas)
    ratio[capped] = sa[capped] = sb[capped] = 0.0
    mid = (deltas > 0.0) & ~capped
    ld = np.log(deltas[mid])
    la = np.logaddexp(log_model[mid], ld)
    lb = np.logaddexp(log_target[mid], ld)
    ratio[mid] = la - lb
    sa[mid] = np.exp(log_model[mid] - la)
    sb[mid] = np.exp(log_target[mid] - lb)
    return ratio, sa, sb


# -- batched engine -------------------------------------------------------------


@dataclass
class LossBatchReport:
    """Per-item losses for one batch plus the summary statistics the CSV logs.

    ``log_ratios`` holds the log-ratio of every term, in batch order: one per
    path for tb (before any reference flow), one per edge not into the sink
    for db and wdb, one per visited state (source and sink excluded) for fm,
    and one per span for subtb, each path's spans ordered by start, then end.
    A path's loss is the (weighted) mean of its terms' squares.
    """

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
    :meth:`~stablegfn.policy.EdgeBatch.of_paths`), if given; fm evaluates the
    forward log-probs of the in- and out-edges of the visited states alone.
    """
    if deltas is not None and objective != "tb":
        raise ValueError("reference flow only applies to the trajectory objective")
    if objective == "fm":
        return _batch_fm(model, env, paths, backprop)
    if objective not in ("tb", "db", "wdb", "subtb"):
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
    ratio, sa, sb, kind = raw_ratio, 1.0, 1.0, "tb"
    if deltas is not None:
        kind = "augmented"
        deltas = np.asarray(deltas, dtype=np.float64)
        ratio, sa, sb = augmented_log_ratios(log_model, log_target, deltas)

    per_item = ratio * ratio
    if backprop:
        coeff_a = 2.0 * ratio * sa / n
        coeff_b = 2.0 * ratio * sb / n
        model.add_logz_grad(float(coeff_a.sum()))
        batch.backprop(coeff_a[batch.tid], -coeff_b[batch.tid])
    return LossBatchReport(kind, per_item, log_ratios=raw_ratio, deltas=deltas)


def _batch_db(model, env, paths, backprop, batch, weighted):
    n = len(paths)
    keep = batch.dst != env.sink  # detailed balance skips the edges into the sink
    tid, src, dst = batch.tid[keep], batch.src[keep], batch.dst[keep]

    term = env.terminating_mask[dst]
    fb = FlowBatch(model, env, np.concatenate([src, dst[~term]]))
    flow_src = fb.log_flow[: len(src)]
    end = np.empty(len(dst))
    end[~term] = fb.log_flow[len(src):]
    end[term] = np.log(env.reward_table[dst[term]])

    rho = flow_src + batch.log_pf[keep] - end - batch.log_pb[keep]
    if weighted:  # inverse reachable-terminal counts, the hop into the sink counting 1
        raw = np.ones(len(keep))
        raw[keep] = 1.0 / terminal_reach_counts(env)[dst]
        edge_w = (raw / np.bincount(batch.tid, weights=raw, minlength=n)[batch.tid])[keep]
    else:
        edge_w = 1.0 / np.bincount(tid, minlength=n)[tid]
    per_item = np.bincount(tid, weights=edge_w * rho * rho, minlength=n)

    if backprop:
        coeff = 2.0 * rho * edge_w / n
        edge_coeff = np.zeros(len(keep))
        edge_coeff[keep] = coeff
        batch.backprop(edge_coeff, -edge_coeff)
        fb.backprop(np.concatenate([coeff, -coeff[~term]]))
    return LossBatchReport("wdb" if weighted else "db", per_item, log_ratios=rho)


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
    # the forward side alone: fm reads no backward log-prob
    log_pf, fwd = _side(env, model.forward_net, env.forward_mask, env.child_matrix,
                        env.forward_has_choice, src, dst, cache=True)
    fb = FlowBatch(model, env, src)
    n_in = len(in_occ)
    log_terms = fb.log_flow + log_pf

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
        _backprop_side(fwd, coeff)
        fb.backprop(coeff)
    return LossBatchReport("fm", per_item, log_ratios=rho)


def _batch_subtb(model, env, paths, backprop, lam, batch):
    n = len(paths)
    # every span t1 < t2 <= L of every path, where position L is the
    # terminating state: by path, then start, then end
    spans = paths.lengths - 2
    t1, t2 = np.triu_indices(spans.max(initial=0) + 1, k=1)
    pid, j = np.nonzero(t2 <= spans[:, None])
    t1, t2 = t1[j], t2[j]

    # (N, W) matrices over path positions: prefix sums of log P_F - log P_B
    # along each path's edges (as EdgeBatch.of_paths orders them), and the
    # flow head at every position before the terminating state
    width = paths.states.shape[1]
    edge = paths.states[:, 1:] >= 0
    diff = np.zeros(edge.shape)
    diff[edge] = batch.log_pf - batch.log_pb
    pref = np.zeros((n, width))
    np.cumsum(diff, axis=1, out=pref[:, 1:])
    before = np.arange(width) < spans[:, None]
    fb = FlowBatch(model, env, paths.states[before])
    logf = np.zeros((n, width))
    logf[before] = fb.log_flow

    end = np.where(t2 == spans[pid], paths.log_rewards[pid], logf[pid, t2])
    rho = logf[pid, t1] + (pref[pid, t2] - pref[pid, t1]) - end
    w = lam ** (t2 - t1).astype(np.float64)
    w /= np.bincount(pid, weights=w, minlength=n)[pid]
    per_item = np.bincount(pid, weights=w * rho * rho, minlength=n)

    if backprop:
        c = 2.0 * w * rho / n
        # d rho / d pref is +1 at t2 and -1 at t1; at positions before L the
        # same sums are d rho / d log F (an end at L is the reward)
        cell = pid * width
        dif = np.bincount(np.concatenate([cell + t1, cell + t2]),
                          weights=np.concatenate([c, -c]), minlength=n * width).reshape(n, width)
        edge_coeff = np.where(before[:, :-1], np.cumsum(dif[:, :-1], axis=1), 0.0)[edge]
        batch.backprop(edge_coeff, -edge_coeff)
        fb.backprop(dif[before])
    return LossBatchReport("subtb", per_item, log_ratios=rho)
