"""Total-variation certificates from bounded losses and sampled trajectories.

Bound families
  * deterministic loss-to-TV conversion over trajectory-scope losses,
  * PAC sampling certificates from forward- and backward-sampled trajectories,
  * the reference-flow variant whose main term depends on the largest
    injected-flow-to-target ratio, with a one-dimensional threshold search,
  * incremental-reward sandwich bounds and the worst-case loss supremum,
  * a Monte-Carlo estimator for the fidelity trade-off factor.

All reported bounds are clamped to [0, 1]; the raw value is kept alongside.
Losses come from :func:`stablegfn.losses.batch_loss`, the package's one loss
implementation; the scalar per-object definitions live in the test reference.
Reference flows come from ``losses.reference_flow_log_deltas``, the one
implementation of the formula; :func:`delta_ratios` only rescales them.
Sampled trajectories arrive as :class:`~stablegfn.policy.PathBatch` arrays:
records read their log-probs and log-rewards, and a subgraph certificate
keeps forward paths, and counts its scope's states and reward mass, by one
mask over the scope.  :func:`sample_certificate` is the one certificate attempt
from a model: the trainer's gate, both CLI commands and ``verify``'s coverage
suite draw through it.  :func:`optimize_certificate` is the one routine from
records to a :class:`CertificateReport`, at a given threshold or a searched one.
"""

from __future__ import annotations

import dataclasses
import math
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .envs import DagEnv, check_added, check_terminating, true_partition
from .losses import check_threshold, reference_flow_log_deltas
from .policy import (PathBatch, PolicyModel, draw_terminals, sample_backward_batch,
                     sample_forward_batch)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# optimize_certificate's search: pre-scan points, then golden-section width and iterations
SEARCH_PRESCAN, SEARCH_TOL, SEARCH_MAX_ITER = 32, 1e-8, 200


class ReferenceConditionError(ValueError):
    """The max flow ratio is too large for the requested threshold."""


def check_samples(m: int, n: int, alpha: float) -> None:
    """Refuse an alpha outside (0, 0.5) or an empty sample set, as every certificate does."""
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must lie in (0, 0.5), got {alpha}")
    if m < 1 or n < 1:
        raise ValueError("need at least one sample on each side")


def tv_bound_from_loss(threshold: float) -> float:
    """Deterministic TV bound 1 - exp(-2c) from a uniform trajectory-loss cap of c**2."""
    check_threshold(threshold)
    return 1.0 - math.exp(-2.0 * threshold)


def pac_tv_bound(threshold: float, m: int, n: int, alpha: float) -> float:
    """Sampling certificate: exp(2c) - 1 plus one concentration term per sample set.

    Valid when every one of the m backward-sampled and n forward-sampled
    trajectories had loss at most threshold**2; holds with confidence
    1 - 2*alpha.  Clamped to [0, 1].
    """
    check_samples(m, n, alpha)
    check_threshold(threshold)
    raw = (_or_inf(math.expm1, 2.0 * threshold) + math.log(1.0 / alpha) / m
           + math.log(1.0 / alpha) / n)
    return min(1.0, max(0.0, raw))


def _or_inf(f, x: float) -> float:
    """``f(x)`` for ``math.exp`` or ``math.expm1``, but +inf where it overflows
    (x above log(DBL_MAX) ≈ 709.78)."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


def reference_main_term(threshold: float, max_ratio: float) -> float:
    """Main contrast term of the reference-flow certificate (unclamped).

    Requires max_ratio < 1/(exp(c) - 1); raises otherwise.  A term past the
    float range is +inf, so its certificate is vacuous.
    """
    check_threshold(threshold)
    if max_ratio < 0:
        raise ValueError("max flow ratio must be nonnegative")
    if max_ratio == 0.0:
        # reduces exactly to the plain sampling certificate's main term
        return _or_inf(math.expm1, 2.0 * threshold)
    limit = math.inf if threshold == 0.0 else 1.0 / _or_inf(math.expm1, threshold)
    emc = math.exp(-threshold)
    denom = emc - (1.0 - emc) * max_ratio
    if not max_ratio < limit or denom <= 0.0:
        raise ReferenceConditionError(
            f"max ratio {max_ratio} is not below 1/(exp({threshold}) - 1)"
        )
    ec = math.exp(threshold)  # after the condition: it overflows where the limit is 0
    return (ec + (ec - 1.0) * max_ratio) / denom - 1.0


# -- certificates over sampled records ----------------------------------------


@dataclass
class CertificateReport:
    """A computed TV bound together with everything that went into it."""

    theorem: str
    bound: Optional[float]
    raw_bound: Optional[float]
    threshold: Optional[float]
    m: int
    n: int
    alpha: float
    scope: str = "global"
    max_ratio: Optional[float] = None
    main_term: Optional[float] = None
    condition_violated: bool = False
    subset_size: Optional[int] = None
    captured_reward_mass: Optional[float] = None
    partition_estimate: Optional[float] = None
    search: Optional[Dict[str, object]] = None
    note: Optional[str] = None
    wall_clock_s: float = 0.0

    @property
    def confidence(self) -> float:
        return 1.0 - 2.0 * self.alpha

    def to_dict(self) -> Dict[str, object]:
        """The fields in order, ``confidence`` after ``alpha``; infinite values are None."""
        d: Dict[str, object] = {}
        for k, v in dataclasses.asdict(self).items():
            d[k] = None if isinstance(v, float) and math.isinf(v) else v
            if k == "alpha":
                d["confidence"] = self.confidence
        return d


def records_from_trajectories(paths: PathBatch, logz: float) -> Tuple[np.ndarray, np.ndarray]:
    """(log model flow, log target flow) arrays from a scored batch's log-probs."""
    return logz + paths.log_pf, paths.log_rewards + paths.log_pb


def delta_ratios(log_model: np.ndarray, log_target: np.ndarray, threshold: float) -> np.ndarray:
    """Vectorized delta(tau)/target-flow at a given threshold (0 where capped)."""
    with np.errstate(over="ignore"):
        return np.exp(reference_flow_log_deltas(log_model, log_target, threshold) - log_target)


def _objective(log_model: np.ndarray, log_target: np.ndarray, threshold: float,
               m: int, n: int, alpha: float) -> Tuple[float, float, float, bool]:
    """(raw bound, max ratio, main term, condition violated) at one threshold;
    the bound and the term are +inf when the condition fails or the term overflows."""
    ratios = delta_ratios(log_model, log_target, threshold)
    max_ratio = float(ratios.max()) if len(ratios) else 0.0
    if not math.isfinite(max_ratio):
        return math.inf, max_ratio, math.inf, True
    try:
        main = reference_main_term(threshold, max_ratio)
    except ReferenceConditionError:
        return math.inf, max_ratio, math.inf, True
    raw = main + math.log(1.0 / alpha) / m + math.log(1.0 / alpha) / n
    return raw, max_ratio, main, False


def golden_section_minimize(f, lo: float, hi: float) -> Tuple[float, float, int]:
    """Minimize a scalar function on [lo, hi]; returns (x, f(x), iterations)."""
    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > SEARCH_TOL and it < SEARCH_MAX_ITER:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x), it


def feasibility_floor(log_model: np.ndarray, log_target: np.ndarray) -> float:
    """Smallest threshold at which every sample satisfies the ratio condition.

    Per sample the condition is c > log(ratio - 1) with ratio the larger of
    model/target and target/model; ratios at or below 2 impose nothing.
    """
    r = np.abs(log_model - log_target)
    active = r > math.log(2.0)
    if not active.any():
        return 0.0
    r = r[active]
    with np.errstate(over="ignore"):
        floor = np.log(np.expm1(r))
    big = np.isinf(floor)  # e^r past DBL_MAX: log(e^r - 1) = r + log1p(-e^-r)
    floor[big] = r[big] + np.log1p(-np.exp(-r[big]))
    return float(floor.max())


def optimize_certificate(backward: Tuple[np.ndarray, np.ndarray],
                         forward: Tuple[np.ndarray, np.ndarray], alpha: float,
                         scope: str = "global",
                         threshold: Optional[float] = None) -> CertificateReport:
    """Reference-flow certificate at ``threshold``, or at the tightest one (None).

    ``backward``/``forward`` are (log model flow, log target flow) records of
    trajectories sampled from the reward-weighted backward process and from
    the forward policy.  The search interval runs from the feasibility floor
    to the largest observed root-loss; a coarse pre-scan guards against
    non-unimodal stretches before golden-section refinement.
    """
    t0 = time.perf_counter()
    m, n = len(backward[0]), len(forward[0])
    check_samples(m, n, alpha)
    log_model = np.concatenate([backward[0], forward[0]])
    log_target = np.concatenate([backward[1], forward[1]])
    search = None
    if threshold is None:
        threshold, search = _search_threshold(log_model, log_target, m, n, alpha)
    raw, max_ratio, main, violated = _objective(log_model, log_target, threshold, m, n, alpha)
    bound = min(1.0, max(0.0, raw)) if math.isfinite(raw) else 1.0
    return CertificateReport("pac-reference", bound, raw, threshold, m, n, alpha, scope,
                             max_ratio=max_ratio, main_term=main, condition_violated=violated,
                             search=search, wall_clock_s=time.perf_counter() - t0)


def _search_threshold(log_model: np.ndarray, log_target: np.ndarray, m: int, n: int,
                      alpha: float) -> Tuple[float, Dict[str, object]]:
    """(threshold, search record) minimizing the raw bound over the records."""
    c_hi = float(np.abs(log_model - log_target).max())
    c_lo = max(0.0, feasibility_floor(log_model, log_target))

    def f(c: float) -> float:
        return _objective(log_model, log_target, c, m, n, alpha)[0]

    if c_lo >= c_hi:
        best_c, iters = c_hi, 0
        trace = [(best_c, f(best_c))]
    else:
        grid = np.linspace(c_lo, c_hi, SEARCH_PRESCAN)
        vals = [f(c) for c in grid]
        trace = list(zip(grid.tolist(), vals))
        i = int(np.argmin(vals))
        a = grid[max(0, i - 1)]
        b = grid[min(SEARCH_PRESCAN - 1, i + 1)]
        best_c, best_v, iters = golden_section_minimize(f, float(a), float(b))
        if vals[i] < best_v:
            best_c = float(grid[i])
    return best_c, {
        "lo": c_lo,
        "hi": c_hi,
        "iterations": iters,
        "prescan": [[float(a), None if math.isinf(v) else float(v)] for a, v in trace],
    }


def subgraph_certificate(
    env: DagEnv,
    subset: Sequence[int],
    backward_trajs: PathBatch,
    forward_trajs: PathBatch,
    logz: float,
    alpha: float,
    threshold: Optional[float] = None,
) -> CertificateReport:
    """Certificate restricted to trajectories ending in a terminal subset.

    Backward samples must already be drawn reward-proportionally within the
    subset; forward samples are filtered to those landing in it.  Reports the
    captured reward mass against the model's partition estimate.  With a fixed
    ``threshold`` no search is run (the trainer's cheap path); otherwise the
    one-dimensional optimization applies.
    """
    in_subset = np.zeros(env.num_states, dtype=bool)
    in_subset[np.asarray(subset, dtype=np.int64)] = True
    scope = "global" if in_subset[env.terminating_states].all() else "subgraph"
    kept = forward_trajs[in_subset[forward_trajs.terminals]]
    backward = records_from_trajectories(backward_trajs, logz)
    forward = records_from_trajectories(kept, logz)
    if not len(kept):
        report = CertificateReport("pac-reference", None, None, threshold, len(backward_trajs), 0,
                                   alpha, scope, note="no forward samples reached the subset")
    else:
        report = optimize_certificate(backward, forward, alpha, scope, threshold)
    report.subset_size = int(in_subset.sum())
    report.captured_reward_mass = float(env.reward_table[in_subset].sum())
    report.partition_estimate = _or_inf(math.exp, logz)  # to_dict writes +inf as null
    return report


def sample_certificate(model: PolicyModel, env: DagEnv, scope: np.ndarray, m: int, n: int,
                       rng_b: np.random.Generator, rng_f: np.random.Generator, alpha: float,
                       threshold: Optional[float] = None) -> CertificateReport:
    """One certificate attempt over the terminal states ``scope`` (an int array):
    ``m`` terminals drawn reward-proportionally in ``scope``'s order and walked
    back with ``rng_b``, ``n`` forward paths walked with ``rng_f``, then
    :func:`subgraph_certificate` at ``threshold`` (None: searched).  An empty
    scope, or one with a state that is not terminating, raises ``ValueError``."""
    scope = check_terminating(env, scope, "scope state")
    if not len(scope):
        raise ValueError("scope is empty: a certificate needs a terminal state to draw")
    xs = draw_terminals(rng_b, env.reward_table, scope, m)
    bwd = sample_backward_batch(model, env, rng_b, xs)
    fwd = sample_forward_batch(model, env, rng_f, n)
    return subgraph_certificate(env, scope, bwd, fwd, model.logz, alpha, threshold)


# -- fidelity trade-off ---------------------------------------------------------


def mc_delta_over_zstar(log_model: np.ndarray, log_target: np.ndarray,
                        threshold: float) -> Tuple[float, float]:
    """Monte-Carlo estimate of total-injected-flow / partition, with standard error.

    Inputs are records of trajectories sampled from the reward-weighted
    backward process; the estimand is the mean of delta/target-flow.
    """
    if len(log_model) == 0:
        raise ValueError("need at least one sample")
    ratios = delta_ratios(np.asarray(log_model), np.asarray(log_target), threshold)
    se = float(ratios.std(ddof=1) / math.sqrt(len(ratios))) if len(ratios) > 1 else math.inf
    return float(ratios.mean()), se


# -- incremental reward-change bounds -------------------------------------------


def incremental_tv_sandwich(env_prev: DagEnv, added: Dict[int, float]) -> Tuple[float, float, Optional[float]]:
    """(lower, upper, exact) TV between the converged-previous law and the new target.

    The bounds use only reward masses; the exact value sums over terminating
    states when the environment is enumerable.
    """
    states = check_added(env_prev, added)
    zstar = true_partition(env_prev)
    z_sub = sum(env_prev.reward_table[states].tolist())
    xs = env_prev.terminating_states
    r_prev = env_prev.reward_table[xs]
    z_y = sum(r_prev.tolist())
    lam = z_y / (z_y + sum(added.get(x, 0.0) for x in xs.tolist()))  # old mass over new
    lower = (zstar - z_sub) / zstar * (1.0 - lam)
    upper = 1.0 - lam

    rewards = env_prev.reward_table.copy()
    rewards[states] += list(added.values())
    r_new = rewards[xs]
    exact = 0.5 * float(np.abs(r_prev / r_prev.sum() - r_new / r_new.sum()).sum())
    return lower, upper, exact


def loss_supremum(env_prev: DagEnv, added: Dict[int, float]) -> float:
    """Worst-case loss after an incremental change: squared log of the smallest
    single-state contrast ratio r / (r + extra), 1 when nothing is added."""
    worst = 1.0
    for x, extra in zip(check_added(env_prev, added).tolist(), added.values()):
        r = float(env_prev.reward_table[x])
        worst = min(worst, r / (r + extra))
    return math.log(worst) ** 2
