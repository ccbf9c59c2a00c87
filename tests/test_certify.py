import math

import numpy as np
import pytest

from stablegfn.certify import (
    CertificateReport,
    ReferenceConditionError,
    bound_at_threshold,
    delta_ratios,
    feasibility_floor,
    golden_section_minimize,
    incremental_tv_sandwich,
    loss_supremum,
    mc_delta_over_zstar,
    optimize_certificate,
    pac_tv_bound,
    pac_tv_bound_with_reference,
    records_from_trajectories,
    reference_main_term,
    subgraph_certificate,
    tv_bound_from_loss,
)
from stablegfn.envs import Hypergrid, RegularTree, one_more_mode_tree
from stablegfn.oracle import balanced_tabular_model, exact_terminal_distribution
from stablegfn.policy import sample_backward_batch, sample_forward_batch
from stablegfn.trainer import rng_for


# -- closed-form bounds ------------------------------------------------------


def test_tv_bound_zero_threshold():
    assert tv_bound_from_loss(0.0) == 0.0


def test_tv_bound_trajectory_scope():
    assert tv_bound_from_loss(math.log(2.0)) == pytest.approx(0.75)


def test_tv_bound_transition_scope():
    assert tv_bound_from_loss(0.1, "transition", 5) == pytest.approx(1 - math.exp(-1.0))


def test_tv_bound_transition_needs_length():
    with pytest.raises(ValueError):
        tv_bound_from_loss(0.1, "transition")


def test_pac_bound_example_value():
    assert pac_tv_bound(0.01, 1000, 1000, 0.025) == pytest.approx(0.027579, abs=1e-6)


def test_pac_bound_clamps_to_one():
    raw = math.exp(1.0) - 1 + 2 * math.log(20) / 100
    assert raw > 1
    assert pac_tv_bound(0.5, 100, 100, 0.05) == 1.0


def test_pac_bound_rejects_bad_alpha():
    with pytest.raises(ValueError):
        pac_tv_bound(0.1, 10, 10, 0.5)
    with pytest.raises(ValueError):
        pac_tv_bound(0.1, 10, 10, 0.0)


def test_reference_bound_example_value():
    v = pac_tv_bound_with_reference(0.1, 0.05, 1000, 1000, 0.025)
    assert v == pytest.approx(0.24108, abs=1e-5)


def test_reference_bound_reduces_exactly_at_zero_ratio():
    for c in np.linspace(0.0, 2.0, 21):
        for m, n, a in ((10, 10, 0.05), (1000, 50, 0.025)):
            assert pac_tv_bound_with_reference(c, 0.0, m, n, a) == pac_tv_bound(c, m, n, a)


def test_reference_bound_condition_boundary():
    c = 0.1
    bad = 1.0 / math.expm1(c)
    with pytest.raises(ReferenceConditionError):
        reference_main_term(c, bad)
    # just below the boundary is fine
    assert math.isfinite(reference_main_term(c, bad * 0.999))


def test_main_term_monotone():
    cs = np.linspace(0.01, 1.0, 50)
    limit = 1.0 / math.expm1(cs[-1])
    ms = np.linspace(0.0, 0.99 * limit, 50)
    grid = np.array([[reference_main_term(c, m) for m in ms] for c in cs])
    assert np.all(np.diff(grid, axis=0) >= -1e-12)
    assert np.all(np.diff(grid, axis=1) >= -1e-12)


# -- delta ratios and the estimator -----------------------------------------


def test_delta_ratios_zero_inside_band():
    lm = np.array([0.1, -0.2, 0.0])
    lt = np.zeros(3)
    assert np.array_equal(delta_ratios(lm, lt, 0.5), np.zeros(3))


def test_mc_delta_all_capped_is_zero():
    est, se = mc_delta_over_zstar(np.zeros(10), np.zeros(10), 0.5)
    assert est == 0.0 and se == 0.0


def test_mc_delta_single_sample():
    # one sample with ratio (e^r - e^c)/(e^c - 1)
    r, c = 1.0, 0.5
    expected = (math.exp(r) - math.exp(c)) / (math.exp(c) - 1.0)
    est, se = mc_delta_over_zstar(np.array([r]), np.array([0.0]), c)
    assert est == pytest.approx(expected)
    assert math.isinf(se)


def test_mc_delta_rejects_empty():
    with pytest.raises(ValueError):
        mc_delta_over_zstar(np.array([]), np.array([]), 0.5)


# -- golden section ------------------------------------------------------------


def test_golden_section_quadratic():
    x, fx, _ = golden_section_minimize(lambda x: (x - 1.3) ** 2, 0.0, 5.0)
    assert x == pytest.approx(1.3, abs=1e-6)
    assert fx == pytest.approx(0.0, abs=1e-10)


def test_feasibility_floor_skips_small_ratios():
    # |log ratios| below ln 2 impose no constraint
    lm = np.array([0.1, 0.6])
    lt = np.zeros(2)
    assert feasibility_floor(lm, lt) == 0.0
    lm = np.array([1.5])
    assert feasibility_floor(lm, np.zeros(1)) == pytest.approx(
        math.log(math.expm1(1.5))
    )


# -- optimized certificate -------------------------------------------------------


def test_optimizer_with_tight_losses():
    rng = np.random.default_rng(0)
    r = rng.uniform(-0.01, 0.01, 40)
    lm, lt = r, np.zeros(40)
    report = optimize_certificate((lm[:20], lt[:20]), (lm[20:], lt[20:]), alpha=0.025)
    assert report.threshold <= 0.01 + 1e-9
    assert report.bound <= pac_tv_bound(0.01, 20, 20, 0.025) + 1e-9
    assert not report.condition_violated


def test_optimizer_interior_optimum_beats_endpoints_and_grid():
    # a model-heavy and a slightly larger target-heavy outlier trade off:
    # the required flow of the first shrinks with the threshold while the
    # second's inflates the main term, putting the optimum strictly inside
    rng = np.random.default_rng(1)
    lm = np.concatenate([rng.uniform(-0.01, 0.01, 38), [0.5, -0.6]])
    lt = np.zeros(40)
    backward = (lm[:20], lt[:20])
    forward = (lm[20:], lt[20:])
    report = optimize_certificate(backward, forward, alpha=0.05)
    lo, hi = report.search["lo"], report.search["hi"]
    assert lo < report.threshold < hi

    from stablegfn.certify import _objective

    log_model = np.concatenate([backward[0], forward[0]])
    log_target = np.concatenate([backward[1], forward[1]])

    def f(c):
        return _objective(log_model, log_target, float(c), 20, 20, 0.05)[0]

    grid = [f(c) for c in np.linspace(lo, hi, 50)]
    assert report.raw_bound <= min(grid) + 1e-6
    assert report.raw_bound < f(hi) - 1e-9
    assert report.raw_bound < f(lo) - 1e-9 or math.isinf(f(lo))


def test_optimizer_single_outlier_matches_grid():
    # a lone model-heavy outlier pins the optimum at the interval's top
    rng = np.random.default_rng(2)
    lm = np.concatenate([rng.uniform(-0.05, 0.05, 39), [3.0]])
    lt = np.zeros(40)
    report = optimize_certificate((lm[:20], lt[:20]), (lm[20:], lt[20:]), alpha=0.05)

    from stablegfn.certify import _objective

    lo, hi = report.search["lo"], report.search["hi"]
    grid = [
        _objective(lm, lt, float(c), 20, 20, 0.05)[0] for c in np.linspace(lo, hi, 200)
    ]
    assert report.raw_bound <= min(grid) + 1e-6


def test_optimizer_single_balanced_sample():
    z = np.zeros(1)
    report = optimize_certificate((z, z), (z, z), alpha=0.05)
    assert report.threshold == 0.0
    # sampling terms only; with one sample per side the clamp kicks in
    assert report.raw_bound == pytest.approx(2 * math.log(20.0), abs=1e-12)
    assert report.bound == 1.0
    assert report.main_term == 0.0

    z10 = np.zeros(10)
    report = optimize_certificate((z10, z10), (z10, z10), alpha=0.05)
    assert report.bound == pytest.approx(2 * math.log(20.0) / 10, abs=1e-12)


def test_optimizer_rejects_empty():
    z = np.zeros(0)
    with pytest.raises(ValueError):
        optimize_certificate((z, z), (np.zeros(1), np.zeros(1)), alpha=0.05)


# -- subgraph certificates ----------------------------------------------------------


def _grid_model_and_samples(subset=None, seed=0):
    env = Hypergrid(2, 3, r0=0.5, r1=0.5, r2=2.0)
    model = balanced_tabular_model(env, flow_head=False)
    t = model.forward_net.table
    rng = np.random.default_rng(seed)
    t += rng.normal(0, 0.2, t.shape)
    scope = subset if subset is not None else [int(x) for x in env.terminating_states]
    rng2 = rng_for(seed, "cert")
    rewards = env.reward_table[np.array(scope)]
    probs = rewards / rewards.sum()
    xs = np.array(scope)[
        np.minimum(np.searchsorted(np.cumsum(probs), rng2.random(64), side="right"), len(scope) - 1)
    ]
    bwd = sample_backward_batch(model, env, rng2, xs)
    fwd = sample_forward_batch(model, env, rng2, 64)
    return env, model, scope, bwd, fwd


def test_subgraph_full_set_matches_global():
    env, model, scope, bwd, fwd = _grid_model_and_samples()
    report = subgraph_certificate(env, scope, bwd, fwd, model.logz, alpha=0.05)
    direct = optimize_certificate(
        records_from_trajectories(bwd, model.logz),
        records_from_trajectories(fwd, model.logz),
        alpha=0.05,
    )
    assert report.bound == pytest.approx(direct.bound, abs=1e-12)
    assert report.scope == "global"
    assert report.captured_reward_mass == pytest.approx(float(env.reward_table.sum()))


def test_subgraph_single_state_sound():
    env = RegularTree(3, 2)
    model = balanced_tabular_model(env, flow_head=False)
    rng = np.random.default_rng(2)
    model.forward_net.table += rng.normal(0, 0.05, model.forward_net.table.shape)
    top = [int(env.leaves[0])]
    rng2 = rng_for(3, "sub")
    xs = np.full(32, top[0], dtype=np.int64)
    bwd = sample_backward_batch(model, env, rng2, xs)
    fwd = sample_forward_batch(model, env, rng2, 300)
    report = subgraph_certificate(env, top, bwd, fwd, model.logz, alpha=0.05)
    assert report.scope == "subgraph"
    assert report.n == int((fwd.terminals == top[0]).sum())
    # renormalized TV over a singleton subset is 0; any bound is sound
    assert report.bound >= 0.0
    assert report.subset_size == 1


def test_subgraph_sentinel_when_forward_misses():
    env, model, scope, bwd, fwd = _grid_model_and_samples()
    # an impossible subset for the forward filter: pretend subset with no hits
    never = [int(env.terminating_states[0])]
    missed = fwd[fwd.terminals != never[0]]
    report = subgraph_certificate(env, never, bwd, missed[:0], model.logz, alpha=0.05)
    assert report.bound is None
    assert report.n == 0
    assert report.note is not None


def test_bound_at_threshold_matches_objective():
    rng = np.random.default_rng(4)
    lm = rng.normal(0, 0.5, 30)
    lt = np.zeros(30)
    rep = bound_at_threshold((lm[:15], lt[:15]), (lm[15:], lt[15:]), 1.0, 0.05)
    ratios = delta_ratios(lm, lt, 1.0)
    main = reference_main_term(1.0, float(ratios.max()))
    assert rep.main_term == pytest.approx(main, abs=1e-12)
    assert rep.raw_bound == pytest.approx(main + 2 * math.log(20) / 15, abs=1e-12)


def test_bound_at_threshold_reports_violation():
    lm = np.array([5.0, 0.0])
    lt = np.zeros(2)
    rep = bound_at_threshold((lm[:1], lt[:1]), (lm[1:], lt[1:]), 0.05, 0.05)
    assert rep.condition_violated
    assert rep.bound == 1.0


# -- incremental-change bounds ----------------------------------------------------------


def test_sandwich_no_change_is_zero():
    env = RegularTree(3, 2)
    lower, upper, exact = incremental_tv_sandwich(env, {})
    assert (lower, upper, exact) == (0.0, 0.0, 0.0)


def test_sandwich_spec_instance():
    env_prev, _ = one_more_mode_tree(3, 2, 0.1)
    promoted = int(env_prev.leaves[-1])
    lower, upper, exact = incremental_tv_sandwich(env_prev, {promoted: 0.9})
    assert upper == pytest.approx(0.1)
    assert lower == pytest.approx(8.0 / 8.1 * 0.1)
    assert exact == pytest.approx(0.0987654, abs=1e-6)
    assert lower - 1e-12 <= exact <= upper + 1e-12


def test_sandwich_reward_doubling_keeps_target():
    env = RegularTree(2, 2, leaf_rewards=[1.0, 2.0, 0.5, 1.5])
    added = {int(x): env.reward(int(x)) for x in env.terminating_states}
    lower, upper, exact = incremental_tv_sandwich(env, added)
    assert upper == pytest.approx(0.5)
    assert exact == pytest.approx(0.0, abs=1e-15)
    assert lower == pytest.approx(0.0, abs=1e-15)  # subset covers everything


def test_loss_supremum_values():
    env = RegularTree(2, 1)
    assert loss_supremum(env, {}) == 0.0
    x = int(env.leaves[0])
    assert loss_supremum(env, {x: 3.0}) == pytest.approx(math.log(0.25) ** 2)


def test_loss_supremum_promotion_matches_contrast():
    eps = 0.05
    env_prev, _ = one_more_mode_tree(3, 2, eps)
    promoted = int(env_prev.leaves[-1])
    assert loss_supremum(env_prev, {promoted: 1 - eps}) == pytest.approx(
        math.log(eps) ** 2
    )
