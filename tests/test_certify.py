import json
import math

import numpy as np
import pytest

from stablegfn.certify import (
    ReferenceConditionError,
    delta_ratios,
    feasibility_floor,
    golden_section_minimize,
    incremental_tv_sandwich,
    loss_supremum,
    mc_delta_over_zstar,
    optimize_certificate,
    pac_tv_bound,
    records_from_trajectories,
    reference_main_term,
    sample_certificate,
    subgraph_certificate,
    tv_bound_from_loss,
)
from stablegfn.envs import Hypergrid, RegularTree, one_more_mode_tree
from stablegfn.losses import reference_flow_log_deltas
from stablegfn.oracle import balanced_tabular_model
from stablegfn.policy import sample_backward_batch, sample_forward_batch
from stablegfn.trainer import rng_for


# -- closed-form bounds ------------------------------------------------------


def test_tv_bound_zero_threshold():
    assert tv_bound_from_loss(0.0) == 0.0


def test_tv_bound_trajectory_scope():
    assert tv_bound_from_loss(math.log(2.0)) == pytest.approx(0.75)


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


def _zero_ratio(m, n):
    """Backward and forward records of ``m`` and ``n`` paths whose log-ratios are all 0."""
    return (np.zeros(m), np.zeros(m)), (np.zeros(n), np.zeros(n))


def test_reference_bound_example_value():
    v = reference_main_term(0.1, 0.05) + 2 * math.log(1 / 0.025) / 1000
    assert v == pytest.approx(0.24108, abs=1e-5)


def test_reference_bound_reduces_exactly_at_zero_ratio():
    for c in np.linspace(0.0, 2.0, 21):
        for m, n, a in ((10, 10, 0.05), (1000, 50, 0.025)):
            report = optimize_certificate(*_zero_ratio(m, n), a, threshold=float(c))
            assert report.max_ratio == 0.0 and not report.condition_violated
            assert report.bound == pac_tv_bound(c, m, n, a)


def test_reference_bound_condition_boundary():
    c = 0.1
    bad = 1.0 / math.expm1(c)
    with pytest.raises(ReferenceConditionError):
        reference_main_term(c, bad)
    # just below the boundary is fine
    assert math.isfinite(reference_main_term(c, bad * 0.999))


def test_reference_condition_past_the_float_range_is_violated():
    # 1/(exp(c) - 1) is 0 past log(DBL_MAX) = 709.78, so a positive ratio fails
    # the condition; exp(c) itself would overflow
    with pytest.raises(ReferenceConditionError):
        reference_main_term(720.0, 0.5)
    assert reference_main_term(720.0, 0.0) == math.inf
    lm, lt = np.array([750.5, 0.0]), np.zeros(2)  # the first record's ratio is 0.649 at 750
    rep = optimize_certificate((lm[:1], lt[:1]), (lm[1:], lt[1:]), 0.05, threshold=750.0)
    assert rep.condition_violated and rep.bound == 1.0 and rep.max_ratio == pytest.approx(0.6487, abs=1e-4)


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


def test_feasibility_floor_matches_a_scan_from_zero():
    # the first threshold of a grid from 0 at which every sample's ratio
    # (the larger of model/target and target/model) is at most 1 + e^c
    rng = np.random.default_rng(3)
    step = 1e-3
    for size in (1, 2, 5, 30, 30, 30):
        lm, lt = rng.normal(2.0, 1.5, size), rng.normal(2.0, 1.5, size)
        worst = max(max(math.exp(a - b), math.exp(b - a)) for a, b in zip(lm.tolist(), lt.tolist()))
        k = 0
        while worst > 1.0 + math.exp(k * step):
            k += 1
        floor = feasibility_floor(lm, lt)
        if k == 0:
            assert floor == 0.0
        else:
            assert (k - 1) * step < floor <= k * step


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
    top = [int(env.terminating_states[0])]
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


def test_fixed_threshold_matches_objective():
    rng = np.random.default_rng(4)
    lm = rng.normal(0, 0.5, 30)
    lt = np.zeros(30)
    rep = optimize_certificate((lm[:15], lt[:15]), (lm[15:], lt[15:]), 0.05, threshold=1.0)
    assert rep.threshold == 1.0 and rep.search is None
    ratios = delta_ratios(lm, lt, 1.0)
    main = reference_main_term(1.0, float(ratios.max()))
    assert rep.main_term == pytest.approx(main, abs=1e-12)
    assert rep.raw_bound == pytest.approx(main + 2 * math.log(20) / 15, abs=1e-12)


def test_fixed_threshold_reports_violation():
    lm = np.array([5.0, 0.0])
    lt = np.zeros(2)
    rep = optimize_certificate((lm[:1], lt[:1]), (lm[1:], lt[1:]), 0.05, threshold=0.05)
    assert rep.condition_violated
    assert rep.bound == 1.0


def _strict_json(d):
    """``json.dumps`` that refuses the non-JSON constants NaN and Infinity."""
    return json.dumps(d, allow_nan=False)


def test_certificate_with_log_z_past_the_float_range_reports_an_infinite_partition():
    # exp(800) overflows: the estimate is +inf, written as null
    env = RegularTree(2, 1, [8e307, 8e307])
    model = balanced_tabular_model(env, flow_head=False)
    model.set_logz(800.0)
    report = sample_certificate(model, env, env.terminating_states, 20, 20, rng_for(0, "b"),
                                rng_for(0, "f"), 0.05)
    assert report.partition_estimate == math.inf and report.bound is not None
    doc = report.to_dict()
    assert doc["partition_estimate"] is None
    _strict_json(doc)


def test_log_ratios_past_the_float_range_give_a_vacuous_certificate():
    # e^c overflows above log(DBL_MAX) = 709.78...: a searched threshold of 800
    lm, lt = np.array([800.0, 0.0, 0.1]), np.zeros(3)
    report = optimize_certificate((lm[:1], lt[:1]), (lm[1:], lt[1:]), 0.05)
    assert (report.threshold, report.bound, report.max_ratio) == (800.0, 1.0, 0.0)
    assert math.isinf(report.raw_bound) and math.isinf(report.main_term)
    assert not report.condition_violated  # the ratio condition holds; the term overflows
    assert feasibility_floor(np.array([800.0]), np.zeros(1)) == 800.0
    assert pac_tv_bound(400.0, 10, 10, 0.05) == optimize_certificate(
        *_zero_ratio(10, 10), 0.05, threshold=400.0).bound == 1.0
    # past the limit log(e^c - 1) is c + log1p(-e^-c); below it, the bits of log(expm1(c))
    log_model, log_target = np.array([1000.0, -3.0, 5.0]), np.array([0.0, 998.0, 1.0])
    r = log_model - log_target
    for c in (0.3, 2.0, 354.0, 709.78):
        hi, lo = r > c, r < -c
        want = np.full(3, -np.inf)
        want[hi] = log_model[hi] + np.log1p(-np.exp(c - r[hi])) - math.log(math.expm1(c))
        want[lo] = log_target[lo] + np.log1p(-np.exp(c + r[lo])) - math.log(math.expm1(c))
        assert reference_flow_log_deltas(log_model, log_target, c).tobytes() == want.tobytes()
    got = reference_flow_log_deltas(log_model, log_target, 800.0)
    assert got[0] == 1000.0 + math.log1p(-math.exp(-200.0)) - 800.0
    assert got[1] == 998.0 + math.log1p(-math.exp(-201.0)) - 800.0 and got[2] == -np.inf


def test_report_writes_infinite_values_as_null():
    lm, lt = np.array([800.0, 0.0]), np.zeros(2)
    report = optimize_certificate((lm[:1], lt[:1]), (lm[1:], lt[1:]), 0.05, threshold=1.0)
    assert report.condition_violated and math.isinf(report.max_ratio)
    d = report.to_dict()
    assert d["max_ratio"] is None and d["raw_bound"] is None and d["main_term"] is None
    assert json.loads(_strict_json(d))["bound"] == 1.0
    searched = optimize_certificate((lm[:1], lt[:1]), (lm[1:], lt[1:]), 0.05)
    assert json.loads(_strict_json(searched.to_dict()))["search"]["prescan"] == [[800.0, None]]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("graph", ["graded_tree_3_4", "grid_2_8"])
def test_a_balanced_model_certifies_at_the_sampling_terms_without_warnings(graph, seed):
    # a balanced model's log-ratios are 0 up to rounding (about 1e-16), and the
    # searched threshold's deltas there are -inf without a divide warning
    env = (RegularTree(3, 4, leaf_rewards=[1 + i % 9 for i in range(81)])
           if graph == "graded_tree_3_4" else Hypergrid(2, 8))
    report = sample_certificate(balanced_tabular_model(env), env, env.terminating_states,
                                1000, 1000, rng_for(seed, "cert.backward"),
                                rng_for(seed, "cert.forward"), 0.025)
    assert report.bound == pytest.approx(2 * math.log(40) / 1000, rel=1e-12)  # 0.0073778


def _without_search(report):
    return {k: v for k, v in report.to_dict().items() if k not in ("search", "wall_clock_s")}


@pytest.mark.parametrize("spread", [0.05, 0.5, 2.0, 5.0])
def test_searched_certificate_is_the_fixed_one_at_its_threshold(spread):
    rng = np.random.default_rng(5)
    backward = (rng.normal(0, spread, 17), rng.normal(0, spread, 17))
    forward = (rng.normal(0, spread, 23), rng.normal(0, spread, 23))
    searched = optimize_certificate(backward, forward, 0.05, scope="subgraph")
    fixed = optimize_certificate(backward, forward, 0.05, "subgraph", searched.threshold)
    assert searched.search is not None and fixed.search is None
    assert _without_search(fixed) == _without_search(searched)


def test_subgraph_searched_certificate_is_the_fixed_one_at_its_threshold():
    env = RegularTree(3, 2)
    model = balanced_tabular_model(env, flow_head=False)
    model.forward_net.table += np.random.default_rng(6).normal(0, 0.3,
                                                               model.forward_net.table.shape)
    scope = env.terminating_states[:4]
    rng = rng_for(6, "sub")
    bwd = sample_backward_batch(model, env, rng, rng.choice(scope, 40))
    fwd = sample_forward_batch(model, env, rng, 200)
    searched = subgraph_certificate(env, scope, bwd, fwd, model.logz, alpha=0.05)
    fixed = subgraph_certificate(env, scope, bwd, fwd, model.logz, 0.05, searched.threshold)
    assert searched.scope == "subgraph" and 0 < searched.n < 200
    assert searched.search is not None and fixed.search is None
    assert _without_search(fixed) == _without_search(searched)


# -- incremental-change bounds ----------------------------------------------------------


@pytest.mark.parametrize("scope, message", [
    ([], "scope is empty"),
    ([0], "scope state 0 is not a terminating state"),  # the source
    ([3, 4, 7], "scope state 7 is not a terminating state"),  # the sink
], ids=["empty", "source", "sink"])
def test_sample_certificate_refuses_an_empty_or_non_terminating_scope(scope, message):
    env = RegularTree(2, 2)  # leaves 3..6, sink 7
    model = balanced_tabular_model(env, flow_head=False)
    rng_b, rng_f = np.random.default_rng(0), np.random.default_rng(1)
    before = rng_b.bit_generator.state, rng_f.bit_generator.state
    with pytest.raises(ValueError, match=f"^{message}"):
        sample_certificate(model, env, scope, 10, 10, rng_b, rng_f, 0.05)
    assert (rng_b.bit_generator.state, rng_f.bit_generator.state) == before  # nothing drawn


def test_sandwich_no_change_is_zero():
    env = RegularTree(3, 2)
    lower, upper, exact = incremental_tv_sandwich(env, {})
    assert (lower, upper, exact) == (0.0, 0.0, 0.0)


def test_sandwich_spec_instance():
    env_prev, _ = one_more_mode_tree(3, 2, 0.1)
    promoted = int(env_prev.terminating_states[-1])
    lower, upper, exact = incremental_tv_sandwich(env_prev, {promoted: 0.9})
    assert upper == pytest.approx(0.1)
    assert lower == pytest.approx(8.0 / 8.1 * 0.1)
    assert exact == pytest.approx(0.0987654, abs=1e-6)
    assert lower - 1e-12 <= exact <= upper + 1e-12


def test_sandwich_reward_doubling_keeps_target():
    env = RegularTree(2, 2, leaf_rewards=[1.0, 2.0, 0.5, 1.5])
    xs = env.terminating_states
    added = dict(zip(xs.tolist(), env.reward_table[xs].tolist()))
    lower, upper, exact = incremental_tv_sandwich(env, added)
    assert upper == pytest.approx(0.5)
    assert exact == pytest.approx(0.0, abs=1e-15)
    assert lower == pytest.approx(0.0, abs=1e-15)  # subset covers everything


def test_loss_supremum_values():
    env = RegularTree(2, 1)
    assert loss_supremum(env, {}) == 0.0
    x = int(env.terminating_states[0])
    assert loss_supremum(env, {x: 3.0}) == pytest.approx(math.log(0.25) ** 2)


def test_loss_supremum_promotion_matches_contrast():
    eps = 0.05
    env_prev, _ = one_more_mode_tree(3, 2, eps)
    promoted = int(env_prev.terminating_states[-1])
    assert loss_supremum(env_prev, {promoted: 1 - eps}) == pytest.approx(
        math.log(eps) ** 2
    )


def test_tv_bound_refuses_a_negative_threshold():
    for threshold in (-0.1, math.nan, -math.inf):
        with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
            tv_bound_from_loss(threshold)


def test_reference_main_term_refuses_negative_ratio():
    with pytest.raises(ValueError, match="^max flow ratio must be nonnegative$"):
        reference_main_term(0.1, -1e-3)


_Z2 = (np.zeros(2), np.ones(2))
# the bounds that read a threshold; negative cases go to the first five
_BOUNDS = {
    "pac": lambda c: pac_tv_bound(c, 10, 10, 0.05),
    "pac_many": lambda c: pac_tv_bound(c, 10**9, 10**9, 0.4),
    "reference_ratio_0": lambda c: optimize_certificate(*_zero_ratio(10, 10), 0.05, threshold=c),
    "reference": lambda c: reference_main_term(c, 0.5),
    "main_term": lambda c: reference_main_term(c, 0.0),
    "mc_delta": lambda c: mc_delta_over_zstar(*_Z2, c),
    "optimizer": lambda c: optimize_certificate(_Z2, _Z2, 0.05, threshold=c),
}
_REFUSED = [(name, math.nan) for name in _BOUNDS] + [
    (name, c) for name in list(_BOUNDS)[:5] for c in (-1.0, -10.0, -math.inf)]


@pytest.mark.parametrize("name, threshold", _REFUSED,
                         ids=[f"{name}-{c}" for name, c in _REFUSED])
def test_a_nan_or_negative_threshold_is_refused(name, threshold):
    # such a threshold would certify a TV of 0, or inject no flow
    with pytest.raises(ValueError, match="^threshold must be nonnegative$"):
        _BOUNDS[name](threshold)


def test_an_infinite_threshold_gives_the_vacuous_bound():
    assert pac_tv_bound(math.inf, 10, 10, 0.05) == 1.0
    assert optimize_certificate(*_zero_ratio(10, 10), 0.05, threshold=math.inf).bound == 1.0
    assert tv_bound_from_loss(math.inf) == 1.0
    assert optimize_certificate(_Z2, _Z2, 0.05, threshold=math.inf).bound == 1.0


def test_sandwich_refuses_negative_or_misplaced_additions():
    env = RegularTree(2, 2)
    with pytest.raises(ValueError, match="^added reward must be nonnegative$"):
        incremental_tv_sandwich(env, {int(env.terminating_states[0]): -0.5})
    with pytest.raises(ValueError, match="^increment state 0 is not a terminating state$"):
        incremental_tv_sandwich(env, {0: 1.0})


@pytest.mark.parametrize("added, message", [
    ({3: -0.5}, "added reward must be nonnegative"),
    ({3: math.nan}, "added reward must be nonnegative"),
    ({0: 1.0}, "increment state 0 is not a terminating state"),
    ({0: 0.0}, "increment state 0 is not a terminating state"),
    ({99: 1.0}, "increment state 99 is not a terminating state"),
    ({-2: 1.0}, "increment state -2 is not a terminating state"),
    ({3: math.inf}, "terminating state 3 must have a finite positive reward, got inf"),
    ({3.5: 1.0}, "increment state 3.5 is not a terminating state"),
], ids=["negative", "nan", "root", "root_zero", "past_the_graph", "negative_index", "infinite",
        "non_integer"])
def test_increment_functions_refuse_a_bad_increment_alike(added, message):
    # T(2,2): leaves 3..6, sink 7; every function refuses by the one check
    env = RegularTree(2, 2)
    for call in (incremental_tv_sandwich, loss_supremum):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(env, added)
