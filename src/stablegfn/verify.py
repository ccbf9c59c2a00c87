"""Executable property suites for every bound and invariant in the library.

Each suite is a fixed check with no parameters: it draws randomized instances
from fixed seeds, checks a theorem-level property against exact-enumeration
oracles, and returns its violations and a short diagnostic.  :func:`run_suite`
runs, times and judges it for the CLI ``verify`` subcommand and the acceptance
tests.  Losses come from :func:`stablegfn.losses.batch_loss`, the package's one
loss implementation, as per-term log-ratios over every enumerated path; the
scalar per-object definitions live in the test suite's reference module.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import certify, losses, oracle
from .approximator import grad_check
from .envs import (DagEnv, Hypergrid, RegularTree, check_added, one_more_mode_tree,
                   true_partition)
from .policy import PolicyModel, draw_terminals, rollout, sample_backward_batch, score_paths
from .trainer import rng_for

Z99 = 2.3263478740408408  # standard normal 99% quantile

Check = Tuple[List[str], str]  # a suite's violations and its diagnostic


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str
    seconds: float

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.detail} ({self.seconds:.2f}s)"


def _random_tabular(env: DagEnv, rng: np.random.Generator, noise: float,
                    around_balanced: bool = False) -> PolicyModel:
    """Random tabular policy; optionally a perturbation of the balanced solution."""
    if around_balanced:
        model = oracle.balanced_tabular_model(env, flow_head=False)
        t = model.forward_net.table
        t += rng.normal(0.0, noise, size=t.shape)
        model.set_logz(model.logz + float(rng.normal(0.0, noise)))
        return model
    model = PolicyModel.build(env, "tabular", learn_backward=True, flow_head=False, rng=rng)
    model.forward_net.table[...] = rng.normal(0.0, noise, size=model.forward_net.table.shape)
    model.backward_net.table[...] = rng.normal(0.0, noise, size=model.backward_net.table.shape)
    model.set_logz(math.log(true_partition(env)) + float(rng.uniform(-1.0, 1.0)))
    return model


def _small_envs() -> List[DagEnv]:
    return [
        RegularTree(2, 2),
        RegularTree(3, 2, leaf_rewards=np.linspace(0.2, 2.0, 9)),
        Hypergrid(2, 3, r0=0.1, r1=0.5, r2=2.0),
    ]


# -- criterion 1: reference-flow cap -----------------------------------------


def suite_reference_flow_cap() -> Check:
    draws = 10_000
    rng = rng_for(20_240, "cap")
    log_model, log_target, caps, log_deltas = (np.empty(draws) for _ in range(4))
    for k in range(draws):
        log_model[k] = rng.uniform(-20, 20)
        log_target[k] = rng.uniform(-20, 20)
        caps[k] = 0.0 if k % 20 == 0 else rng.uniform(0.0, 5.0)
        log_deltas[k] = losses.reference_flow_log_deltas(
            log_model[k:k + 1], log_target[k:k + 1], caps[k])[0]
    deltas = np.exp(log_deltas)
    augmented, _, _ = losses.augmented_log_ratios(log_model, log_target, deltas)
    bad: List[str] = []
    rows = zip((log_model - log_target).tolist(), caps.tolist(), deltas.tolist(),
               augmented.tolist())
    for k, (r, c, delta, ra) in enumerate(rows):
        aug = ra * ra
        if aug > c * c + 1e-9:
            bad.append(f"draw {k}: augmented {aug} exceeds cap {c*c}")
        if delta > 0 and abs(aug - c * c) > 1e-9:
            bad.append(f"draw {k}: active flow but loss {aug} != cap {c*c}")
        if (delta == 0.0) != (abs(r) <= c):
            bad.append(f"draw {k}: zero-flow test mismatch at ratio {r}, cap {c}")
        if delta > 0 and math.isfinite(delta) and r != 0.0:
            gamma = abs(r) / abs(ra) if ra != 0.0 else math.inf  # sqrt(raw / augmented)
            if not gamma > 1.0:
                bad.append(f"draw {k}: reduction factor {gamma} not above 1")
    return bad, f"{draws} randomized draws, {len(bad)} violations"


# -- criterion 2: incremental promotion losses --------------------------------


def _loss_terms(model: PolicyModel, env: DagEnv):
    """(label, state whose flow or reward ends it, loss) for every tb, db, fm and
    subtb term that :func:`losses.batch_loss` computes over every enumerated trajectory.

    Every edge and every intermediate state of a valid DAG lies on some path,
    so the terms cover every DB edge and FM state (once per path through it).
    """
    paths = oracle.enumerate_trajectories(model, env)
    hop = paths.states[:, 1:] >= 0
    src, dst = paths.states[:, :-1][hop], paths.states[:, 1:][hop]
    inner = dst != env.sink
    src, dst = src[inner].tolist(), dst[inner].tolist()  # FM visits the ends of DB's edges
    rows = [p[:n] for p, n in zip(paths.states.tolist(), paths.lengths.tolist())]
    spans = [(p, t1, t2) for p in rows for t1 in range(len(p) - 2)
             for t2 in range(t1 + 1, len(p) - 1)]
    terms = {
        "tb": [(f"tb {p}", p[-2]) for p in rows],
        "db": [(f"db {a}->{b}", b) for a, b in zip(src, dst)],
        "fm": [(f"fm {b}", b) for b in dst],
        "subtb": [(f"subtb {p} [{t1},{t2}]", p[t2]) for p, t1, t2 in spans],
    }
    for objective, labels in terms.items():
        ratios = losses.batch_loss(model, env, paths, objective).log_ratios
        for (label, end), r in zip(labels, ratios.tolist(), strict=True):
            yield label, end, r * r


def suite_one_more_mode_losses() -> Check:
    epsilon = 1e-3
    env_prev, env_new = one_more_mode_tree(3, 3, epsilon)
    promoted = int(env_prev.terminating_states[-1])
    model = oracle.balanced_tabular_model(env_prev, flow_head=True)
    expected = math.log(epsilon) ** 2
    bad: List[str] = []
    for what, state, value in _loss_terms(model, env_new):
        if state == promoted:
            if abs(value - expected) > 1e-8:
                bad.append(f"{what}: {value} != {expected}")
        elif value >= 1e-10:
            bad.append(f"{what}: unexpected loss {value}")
    return bad, (f"promoted-leaf losses equal (ln {epsilon})^2 = {expected:.4f}; "
                 f"{len(bad)} violations")


# -- criterion 3: closed-form TV -----------------------------------------------


def suite_closed_form_tv() -> Check:
    bad: List[str] = []
    for g in (2, 3):
        for h in (1, 2, 3):
            for eps in (1e-3, 1e-2, 0.1, 0.5):
                env_prev, env_new = one_more_mode_tree(g, h, eps)
                model = oracle.balanced_tabular_model(env_prev, flow_head=False)
                enumerated = oracle.exact_tv(model, env_new)
                closed = oracle.one_more_mode_tv_closed_form(g, h, eps)
                if abs(enumerated - closed) > 1e-12:
                    bad.append(f"g={g} h={h} eps={eps}: {enumerated} vs {closed}")
    return bad, f"24 (branching, depth, epsilon) cells, {len(bad)} mismatches"


# -- criterion 4: loss-to-TV soundness ------------------------------------------


def suite_loss_to_tv_soundness() -> Check:
    trials = 200
    envs = _small_envs()
    bad: List[str] = []
    for i in range(trials):
        rng = rng_for(20_241, f"tv_sound.{i}")
        env = envs[i % len(envs)]
        noisy = i % 2 == 0
        noise = (0.01, 0.1, 0.5, 1.5)[i % 4]
        model = _random_tabular(env, rng, noise, around_balanced=noisy)
        trajs = oracle.enumerate_trajectories(model, env)
        c = float(np.abs(losses.batch_loss(model, env, trajs, "tb").log_ratios).max())
        bound = certify.tv_bound_from_loss(c)
        tv = oracle.exact_tv(model, env)
        if tv > bound + 1e-12:
            bad.append(f"trial {i}: TV {tv} above bound {bound} at c={c}")
    return bad, f"{trials} random tabular policies, {len(bad)} violations"


# -- criterion 5: PAC coverage ---------------------------------------------------


def suite_pac_coverage() -> Check:
    trials, alpha = 1000, 0.05
    envs = _small_envs()[:2]
    violations = nonvacuous = 0
    for i in range(trials):
        rng = rng_for(20_242, f"pac.{i}")
        env = envs[i % len(envs)]
        model = _random_tabular(env, rng, (0.05, 0.3, 1.0)[i % 3],
                                around_balanced=i % 2 == 0)
        report = certify.sample_certificate(model, env, env.terminating_states, 25, 25, rng, rng,
                                            alpha)
        tv = oracle.exact_tv(model, env)
        if report.bound is not None and report.bound < tv - 1e-12:
            violations += 1
        nonvacuous += report.bound is not None and report.bound < 1.0
    budget = 2 * alpha + Z99 * math.sqrt(2 * alpha * (1 - 2 * alpha) / trials)
    allowed = int(budget * trials)
    bad = [] if violations <= allowed else [f"{violations} coverage violations, {allowed} allowed"]

    # exact reduction at zero flow ratio, and monotonicity of the main term
    sub_bad: List[str] = []
    for c in np.linspace(0.0, 2.0, 9):
        for mm, nn in ((10, 10), (100, 1000)):
            zero = (np.zeros(mm), np.zeros(mm)), (np.zeros(nn), np.zeros(nn))  # ratio 0
            for a in (0.025, 0.05, 0.2):
                report = certify.optimize_certificate(*zero, a, threshold=float(c))
                if report.bound != certify.pac_tv_bound(c, mm, nn, a):
                    sub_bad.append(f"reduction mismatch at c={c}")
    cs = np.linspace(0.01, 1.0, 50)
    limit = 1.0 / math.expm1(cs[-1])
    ms = np.linspace(0.0, 0.999 * limit, 50)
    grid = np.array([[certify.reference_main_term(c, mv) for mv in ms] for c in cs])
    if not np.all(np.diff(grid, axis=1) >= -1e-12):
        sub_bad.append("main term not monotone in the flow ratio")
    if not np.all(np.diff(grid, axis=0) >= -1e-12):
        sub_bad.append("main term not monotone in the threshold")

    return bad + sub_bad, (f"{violations}/{trials} coverage violations (allowed {allowed}), "
                           f"{nonvacuous} non-vacuous bounds; {len(sub_bad)} structural failures")


# -- criterion 6: incremental sandwich -------------------------------------------


def suite_incremental_sandwich() -> Check:
    instances = 100
    objectives = ("tb", "db", "fm", "subtb")
    bad: List[str] = []
    for i in range(instances):
        rng = rng_for(20_243, f"sandwich.{i}")
        pick = i % 3
        if pick == 0:
            env_prev: DagEnv = RegularTree(2, 2, leaf_rewards=rng.uniform(0.1, 2.0, 4))
        elif pick == 1:
            env_prev = RegularTree(3, 2, leaf_rewards=rng.uniform(0.1, 2.0, 9))
        else:
            env_prev = Hypergrid(2, 3, r0=0.1, r1=0.5, r2=2.0)
        xs = env_prev.terminating_states
        k = int(rng.integers(1, max(2, len(xs) // 2)))
        subset = rng.choice(xs, size=k, replace=False)
        added = {int(x): float(rng.uniform(0.0, 3.0)) for x in subset}
        added[int(subset[0])] = float(rng.uniform(0.5, 3.0))  # at least one real change

        lower, upper, exact = certify.incremental_tv_sandwich(env_prev, added)
        if not (lower <= exact + 1e-12 and exact <= upper + 1e-12):
            bad.append(f"instance {i}: sandwich {lower} / {exact} / {upper}")

        rewards = env_prev.reward_table.copy()
        rewards[check_added(env_prev, added)] += list(added.values())
        env_new = DagEnv(env_prev.sink, env_prev.edge_src, env_prev.edge_dst, env_prev.edge_fslot,
                         env_prev.edge_bslot, xs, rewards[xs], env_prev.features,
                         env_prev.feature_dim)
        model = oracle.balanced_tabular_model(env_prev, flow_head=True)
        sup = certify.loss_supremum(env_prev, added)
        worst = dict.fromkeys(objectives, 0.0)
        for label, _, value in _loss_terms(model, env_new):
            objective = label.split()[0]
            worst[objective] = max(worst[objective], value)
        bad += [f"instance {i}: supremum {sup} vs enumerated {objective} {value}"
                for objective, value in worst.items() if abs(value - sup) > 1e-8]
    return bad, (f"{instances} randomized reward increments, largest {'/'.join(objectives)} "
                 f"term each against the supremum, {len(bad)} failures")


# -- criterion 7: Monte-Carlo flow estimator ---------------------------------------


def suite_mc_estimator() -> Check:
    rng = rng_for(20_244, "mc")
    env = RegularTree(2, 3, leaf_rewards=rng.uniform(0.2, 2.0, 8))
    model = _random_tabular(env, rng, 0.8, around_balanced=True)

    trajs = oracle.enumerate_trajectories(model, env)
    log_model, log_target = certify.records_from_trajectories(trajs, model.logz)
    threshold = 0.5 * float(np.abs(log_model - log_target).max())
    deltas = np.exp(losses.reference_flow_log_deltas(log_model, log_target, threshold))
    exact = float(deltas.sum()) / true_partition(env)
    if not exact > 0:
        return ["instance has no active reference flow"], f"exact flow ratio {exact}"

    xs = draw_terminals(rng, env.reward_table, env.terminating_states, 10_000)
    bwd = sample_backward_batch(model, env, rng, xs)
    lm, lt = certify.records_from_trajectories(bwd, model.logz)
    est, se = certify.mc_delta_over_zstar(lm, lt, threshold)
    rel = abs(est - exact) / exact
    bad = [] if rel < 0.05 else [f"relative error {rel:.4f} not below 0.05"]
    return bad, (f"exact flow ratio {exact:.6f}, estimate {est:.6f} (se {se:.2g}), "
                 f"relative error {rel:.4f}")


# -- criterion 8: gradients ---------------------------------------------------------


def suite_gradients() -> Check:
    instances, seed = 10, 20_245
    objectives = ["tb", "db", "fm", "subtb", "augmented"]
    bad: List[str] = []
    worst_overall = 0.0
    for i in range(instances):
        rng = rng_for(seed, f"grad.{i}")
        env: DagEnv = RegularTree(2, 2, leaf_rewards=rng.uniform(0.3, 2.0, 4)) \
            if i % 2 == 0 else Hypergrid(2, 3, r0=0.1, r1=0.5, r2=2.0)
        kind = "tabular" if i % 3 == 0 else "mlp"
        model = PolicyModel.build(env, kind, hidden=(8, 8), learn_backward=True,
                                  flow_head=True, rng=rng)
        if kind == "tabular":
            model.forward_net.table += rng.normal(0, 0.5, model.forward_net.table.shape)
            model.backward_net.table += rng.normal(0, 0.5, model.backward_net.table.shape)
            model.flow_net.table += rng.normal(0, 0.5, model.flow_net.table.shape)
        model.set_logz(float(rng.normal(0.0, 0.5)))
        trajs = rollout(model, env, rng, [env.initial_state] * 3)
        score_paths(model, env, trajs)

        objective = objectives[i % len(objectives)]
        deltas = None
        if objective == "augmented":
            lm, lt = certify.records_from_trajectories(trajs, model.logz)
            cap = 0.5 * float(np.abs(lm - lt).max()) + 1e-6
            deltas = np.exp(losses.reference_flow_log_deltas(lm, lt, cap))
            objective = "tb"

        def value_and_grad() -> float:
            model.params.zero_grad()
            rep = losses.batch_loss(model, env, trajs, objective,
                                    backprop=True, deltas=deltas)
            return rep.mean

        err = grad_check(model.params, value_and_grad, rng_for(seed, f"grad.pick.{i}"))
        worst_overall = max(worst_overall, err)
        if err >= 1e-4:
            bad.append(f"instance {i} ({objectives[i % len(objectives)]}, {kind}): rel err {err:.2e}")
    return bad, f"{instances} instances, worst relative error {worst_overall:.2e}"


# -- certificate optimizer vs grid scan ----------------------------------------------


def suite_optimizer_grid() -> Check:
    cases = 20
    bad: List[str] = []
    for i in range(cases):
        rng = rng_for(20_246, f"optgrid.{i}")
        m, n = int(rng.integers(5, 40)), int(rng.integers(5, 40))
        spread = (0.05, 0.5, 2.0, 5.0)[i % 4]
        backward = (rng.normal(0.0, spread, m), rng.normal(0.0, spread, m))
        forward = (rng.normal(0.0, spread, n), rng.normal(0.0, spread, n))
        report = certify.optimize_certificate(backward, forward, alpha=0.05)
        lo, hi = report.search["lo"], report.search["hi"]
        if lo >= hi:
            continue
        grid_best = min(  # the same routine at each fixed threshold
            certify.optimize_certificate(backward, forward, 0.05, threshold=float(c)).raw_bound
            for c in np.linspace(lo, hi, 200)
        )
        if report.raw_bound > grid_best + 1e-6:
            bad.append(f"case {i}: optimizer {report.raw_bound} vs grid {grid_best}")
    return bad, f"{cases} record sets vs 200-point scans, {len(bad)} regressions"


# each suite under the name it prints: its function's without ``suite_``
SUITES: Dict[str, Callable[[], Check]] = {
    suite.__name__.removeprefix("suite_"): suite
    for suite in (suite_reference_flow_cap, suite_one_more_mode_losses, suite_closed_form_tv,
                  suite_loss_to_tv_soundness, suite_pac_coverage, suite_incremental_sandwich,
                  suite_mc_estimator, suite_gradients, suite_optimizer_grid)
}


def run_suite(name: str) -> SuiteResult:
    """Run and time ``SUITES[name]``: it passes with no violations, and a
    failure quotes the first."""
    t0 = time.perf_counter()
    bad, detail = SUITES[name]()
    detail += "; first: " + bad[0] if bad else ""
    return SuiteResult(name, not bad, detail, time.perf_counter() - t0)


def run_suites(names: Optional[Sequence[str]]) -> List[SuiteResult]:
    """Every suite, or the named ones in order; an unknown name is refused before any runs."""
    chosen = list(SUITES) if not names else list(names)
    unknown = [name for name in chosen if name not in SUITES]
    if unknown:
        raise KeyError(f"unknown suite {unknown[0]!r}; available: {', '.join(SUITES)}")
    return [run_suite(name) for name in chosen]
