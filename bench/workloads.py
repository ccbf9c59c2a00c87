"""The four benchmark workloads and the pipeline each one runs.

Every workload runs what ``stablegfn train`` followed by ``stablegfn
evaluate`` does, at its own scale, in one process with one Python thread:

1. set-up: resolve the config, build the environment, encode its features
   (MLP only; the lazy cache is filled here so that it shows in set-up),
   build the model and the ``Trainer``;
2. training: ``Trainer.run`` for a fixed number of rounds, or until the
   certificate gate fires;
3. certificate: the searched certificate ``stablegfn train`` writes at the
   end, over the trainer's top-K buffer; the time to a certificate runs from
   round 0 until this certificate exists;
4. evaluate: exact TV by dynamic programming plus bulk forward samples.

One *unit* of work runs this pipeline once per training seed and objective
of the workload.  The training seed is fixed, so every unit of every run
repeats identical work; ``--seed`` sets the certificate and evaluation
sampling streams.  A run repeats units until its time is spent
and at least three set-ups were timed.  It reports the median set-up and
the medians over units of training, certificate and evaluation time, and
percentiles over the pooled rounds; round counts are checked to repeat
exactly between units.  Every interval is kept as a pair of ``perf_counter``
stamps and measured at the end of the run in host-normalised seconds (see
``hostclock``).  Output checks run outside the timed regions; a failed check
is counted, never dropped.
"""

from __future__ import annotations

import contextlib
import gc
import math
import resource
import statistics
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from stablegfn import certify, config, oracle, policy
from stablegfn.approximator import NonFiniteError
from stablegfn.trainer import Trainer, rng_for

import tracing
from hostclock import HostClock

# name -> unit of every end-to-end metric, in report order
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "round_ms_p50": "ms",
    "round_ms_p95": "ms",
    "train_s": "s",
    "cert_s": "s",
    "cert_rounds": "count",
    "evaluate_s": "s",
    "peak_rss_mb": "MB",
}
MIN_SETUPS = 3
# One fixed training seed for every workload: a unit stays short, so a run
# holds several identical repeats, and the rounds' work does not vary with
# --seed (rounds to a certificate vary 2x between training seeds).
TRAIN_SEEDS = (0,)
# an untraced run has a repeat to check its round counts against; a traced
# run compares two traced units' counts and times one untraced unit
MIN_UNITS = 2
MIN_TRACE_UNITS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    env: Dict[str, object]
    model: Dict[str, object]
    train: Dict[str, object]
    objectives: Tuple[Optional[str], ...] = (None,)
    eval_samples: int = 16384
    # the gate must certify within max_rounds, and the certified bound must hold
    certifies: bool = False


MLP = {"kind": "mlp", "hidden": [256, 256]}
FLOW_OBJECTIVES = ("db", "fm", "subtb", "wdb")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        # per-state sampling and single-row MLP calls dominate a round; the
        # default tv_target 0.01 is never reached, so the length is fixed
        Workload(
            "grid-mlp-stable",
            env={"kind": "hypergrid", "dimension": 4, "side": 8},
            model=MLP,
            train={"stabilize": True, "batch_size": 32, "max_rounds": 80},
        ),
        # the paper's deliverable: time to a certificate; tabular nets make
        # the approximator nearly free
        Workload(
            "tree-tab-cert",
            env={"kind": "tree", "branching": 3, "depth": 4},
            model={"kind": "tabular"},
            train={"stabilize": True, "tv_target": 0.05, "batch_size": 32,
                   "max_rounds": 5000},
            certifies=True,
        ),
        # the only workload with the flow objectives, FlowBatch, replay and
        # Adam over three MLPs; it never certifies in the loop
        Workload(
            "grid-mlp-flow",
            env={"kind": "hypergrid", "dimension": 2, "side": 16},
            model=MLP,
            train={"batch_size": 32, "replay_batch": 16, "max_rounds": 40},
            objectives=FLOW_OBJECTIVES,
        ),
        # whole-graph passes (build, encoding, exact DP) at 131,073 states;
        # the few training rounds only keep every end-to-end metric defined
        Workload(
            "grid16-eval",
            env={"kind": "hypergrid", "dimension": 4, "side": 16},
            model=MLP,
            train={"batch_size": 32, "max_rounds": 70},
        ),
    ]
}

_TINY_MLP = {"kind": "mlp", "hidden": [16, 16]}
_TINY_CERT = {"cert_m": 64, "cert_n": 64}
# Same code paths at a size that runs in well under a second (smoke test).
TINY: Dict[str, Dict[str, object]] = {
    "grid-mlp-stable": dict(
        env={"kind": "hypergrid", "dimension": 2, "side": 4}, model=_TINY_MLP,
        train={"stabilize": True, "batch_size": 8, "max_rounds": 12, "patience": 3,
               **_TINY_CERT},
        eval_samples=64,
    ),
    "tree-tab-cert": dict(
        env={"kind": "tree", "branching": 2, "depth": 2},
        train={"stabilize": True, "tv_target": 0.3, "batch_size": 8, "patience": 3,
               "max_rounds": 2000, **_TINY_CERT},
        eval_samples=64,
    ),
    "grid-mlp-flow": dict(
        env={"kind": "hypergrid", "dimension": 2, "side": 4}, model=_TINY_MLP,
        train={"batch_size": 8, "replay_batch": 4, "max_rounds": 3, **_TINY_CERT},
        eval_samples=64,
    ),
    "grid16-eval": dict(
        env={"kind": "hypergrid", "dimension": 2, "side": 6}, model=_TINY_MLP,
        train={"batch_size": 8, "max_rounds": 12, **_TINY_CERT},
        eval_samples=64,
    ),
}


def get(name: str, tiny: bool = False) -> Workload:
    w = WORKLOADS[name]
    return replace(w, **TINY[name]) if tiny else w


class Checks:
    """Output checks: every attempt is counted, every failure kept."""

    def __init__(self) -> None:
        self.attempted: Dict[str, int] = {}
        self.failed: Dict[str, int] = {}
        self.messages: List[str] = []

    def expect(self, kind: str, ok: bool, message: str = "") -> None:
        self.attempted[kind] = self.attempted.get(kind, 0) + 1
        if not ok:
            self.failed[kind] = self.failed.get(kind, 0) + 1
            if len(self.messages) < 20:
                self.messages.append(f"{kind}: {message}")

    @property
    def total_attempted(self) -> int:
        return sum(self.attempted.values())

    @property
    def total_failed(self) -> int:
        return sum(self.failed.values())


Interval = Tuple[float, float]  # perf_counter stamps at start and end


@dataclass
class UnitResult:
    """The timed intervals of one unit; a unit's train, cert and evaluate
    figures are the sums over its segments."""

    span: Interval = (0.0, 0.0)
    setups: List[Interval] = field(default_factory=list)
    rounds: List[Interval] = field(default_factory=list)
    train: List[Interval] = field(default_factory=list)
    cert: List[Interval] = field(default_factory=list)
    evaluate: List[Interval] = field(default_factory=list)
    cert_rounds: int = 0

    @property
    def wall_s(self) -> float:
        return self.span[1] - self.span[0]


@contextlib.contextmanager
def _timed_rounds(trainer: Trainer, tracer, rounds: List[Interval]) -> Iterator[None]:
    """Time each round ``Trainer.run`` makes, through the instance's round method.

    The wrapper is removed on exit: it refers back to the trainer, and the
    cycle would keep the segment's environment alive into the next segment.
    """
    attr = "stable_round" if trainer.config.stabilize else "baseline_round"
    inner = getattr(trainer, attr)

    def timed():
        t0 = perf_counter()
        with tracer.span("trainer.round"):
            row = inner()
        rounds.append((t0, perf_counter()))
        return row

    setattr(trainer, attr, timed)
    try:
        yield
    finally:
        delattr(trainer, attr)


def _setup(raw: Dict[str, object], tracer) -> Tuple[object, object, Trainer]:
    with tracer.span("setup"):
        resolved = config.resolve(raw)
        with tracer.span("envs.build"):
            env = config.build_env(resolved)
        if resolved["model"]["kind"] == "mlp":
            with tracer.span("envs.encode"):
                env.encoding_matrix
        model = config.build_model(resolved, env)
        trainer = Trainer(model, env, config.build_train_config(resolved))
    tracer.gauge("envs.states", env.num_states)
    tracer.gauge("envs.edges", env.num_edges)
    return env, model, trainer


def _certificate(trainer: Trainer, seed: int):
    """The searched certificate ``stablegfn train`` writes after training."""
    cfg = trainer.config
    scope = trainer.buffer.states()
    if not scope:
        return None
    rng_b = rng_for(seed, "bench.cert.backward")
    rng_f = rng_for(seed, "bench.cert.forward")
    xs = trainer.buffer.sample(rng_b, cfg.cert_m)
    bwd = policy.sample_backward_batch(trainer.model, trainer.env, rng_b, xs)
    fwd = policy.sample_forward_batch(trainer.model, trainer.env, rng_f, cfg.cert_n)
    return certify.subgraph_certificate(
        trainer.env, scope, bwd, fwd, trainer.model.logz, cfg.alpha
    )


def _evaluate(model, env, seed: int, samples: int):
    """The ``stablegfn evaluate`` path: bulk samples, exact TV, L1 and modes."""
    rng = rng_for(seed, "bench.evaluate")
    trajs = policy.sample_forward_batch(model, env, rng, samples)
    xs = [t.terminating_state for t in trajs]
    tv = oracle.exact_tv(model, env)
    oracle.empirical_total_l1(xs, env)
    oracle.count_modes(xs, env)
    return tv, xs


def _segment(w: Workload, seed: int, eval_seed: int, objective: Optional[str],
             tracer, checks: Checks, res: UnitResult):
    """One set-up, training run, certificate and evaluation."""
    train = dict(w.train)
    if objective is not None:
        train["objective"] = objective
    raw = {"seed": seed, "env": w.env, "model": w.model, "train": train}

    t0 = perf_counter()
    env, model, trainer = _setup(raw, tracer)
    res.setups.append((t0, perf_counter()))
    tracer.tv_target = trainer.config.tv_target

    t1 = perf_counter()
    try:
        with tracer.span("train"), _timed_rounds(trainer, tracer, res.rounds):
            state = trainer.run()
        train = (t1, perf_counter())
        with tracer.span("certificate"):
            report = _certificate(trainer, eval_seed)
    except NonFiniteError as exc:
        checks.expect("round.finite", False, f"{w.name} seed {seed}: {exc}")
        return None
    cert = (t1, perf_counter())

    t2 = perf_counter()
    with tracer.span("evaluate"):
        tv, xs = _evaluate(model, env, eval_seed, w.eval_samples)
    res.evaluate.append((t2, perf_counter()))
    res.train.append(train)
    res.cert.append(cert)
    res.cert_rounds += state.round
    tracer.count("trainer.skip_rounds", state.skip_rounds)
    tracer.count("trainer.fallback_rounds", state.fallback_rounds)

    for row in trainer.rows:
        checks.expect(
            "round.finite",
            math.isfinite(row["mean_loss"]) and math.isfinite(row["max_loss"]),
            f"{w.name} seed {seed} round {row['round']}: loss {row['mean_loss']}",
        )
    checks.expect("params.finite", bool(np.all(np.isfinite(model.params.values))))
    checks.expect(
        "certificate.valid",
        report is not None and (report.bound is None or 0.0 <= report.bound <= 1.0),
        f"{w.name} seed {seed}: certificate {report}",
    )
    checks.expect(
        "evaluate.valid",
        0.0 <= tv <= 1.0 and len(xs) == w.eval_samples
        and bool(np.all(env.terminating_mask[xs])),
        f"{w.name} seed {seed}: exact TV {tv}",
    )
    if w.certifies:
        checks.expect("cert.within_max_rounds", state.certified,
                      f"{w.name} seed {seed}: no certificate in {state.round} rounds")
        checks.expect("cert.holds", state.certified and tv <= state.bound,
                      f"{w.name} seed {seed}: exact TV {tv} > bound {state.bound}")
    return env, model


def graph_checks(env, model, checks: Checks) -> None:
    """Exact-oracle checks on the environment of a workload (once per run)."""
    _, p = policy.exact_terminal_distribution(model, env)
    checks.expect("dp.sums_to_one", abs(float(p.sum()) - 1.0) <= 1e-9,
                  f"terminal distribution sums to {float(p.sum())!r}")
    tv = oracle.exact_tv(oracle.balanced_tabular_model(env), env)
    checks.expect("balanced.tv_zero", tv <= 1e-9, f"balanced model exact TV {tv!r}")


def run_unit(w: Workload, seed: int, train_seeds: Sequence[int], tracer,
             checks: Checks) -> Tuple[UnitResult, Optional[tuple]]:
    """One unit of work; also returns the last (env, model) it trained."""
    res = UnitResult()
    t0 = perf_counter()
    last = None
    for s in train_seeds:
        for objective in w.objectives:
            last = None  # the previous segment's env is freed before the next is built
            last = _segment(w, s, seed, objective, tracer, checks, res)
    res.span = (t0, perf_counter())
    return res, last


def _unit_plan(units: List[UnitResult], seconds: float, elapsed: float,
               min_units: int) -> bool:
    """Whether to start another unit: until the time is spent and enough set-ups ran."""
    if len(units) < min_units or sum(len(u.setups) for u in units) < MIN_SETUPS:
        return True
    next_unit = statistics.median(u.wall_s for u in units)
    return elapsed + next_unit <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _lengths(intervals: Sequence[Interval], seconds) -> np.ndarray:
    """Lengths of intervals, measured by ``seconds(t0s, t1s)``."""
    if not intervals:
        return np.zeros(0)
    t = np.array(intervals, dtype=float)
    return np.asarray(seconds(t[:, 0], t[:, 1]), dtype=float)


def _wall(t0, t1):
    return np.asarray(t1) - np.asarray(t0)


def unit_figures(units: List[UnitResult], seconds=_wall) -> Dict[str, List[float]]:
    """Per-unit and per-round figures, every time measured by ``seconds``."""
    return {
        "setup_s": [float(x) for u in units for x in _lengths(u.setups, seconds)],
        "round_ms": [float(x) * 1e3 for u in units for x in _lengths(u.rounds, seconds)],
        "unit_s": [float(_lengths([u.span], seconds).sum()) for u in units],
        "train_s": [float(_lengths(u.train, seconds).sum()) for u in units],
        "cert_s": [float(_lengths(u.cert, seconds).sum()) for u in units],
        "evaluate_s": [float(_lengths(u.evaluate, seconds).sum()) for u in units],
    }


def end_to_end(units: List[UnitResult], clock: HostClock) -> Dict[str, float]:
    """The gated metrics, in host-normalised time (see hostclock)."""
    f = unit_figures(units, clock.seconds)
    return {
        "setup_s": statistics.median(f["setup_s"]),
        "round_ms_p50": float(np.percentile(f["round_ms"], 50)),
        "round_ms_p95": float(np.percentile(f["round_ms"], 95)),
        "train_s": statistics.median(f["train_s"]),
        "cert_s": statistics.median(f["cert_s"]),
        "cert_rounds": units[0].cert_rounds,
        "evaluate_s": statistics.median(f["evaluate_s"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def run(w: Workload, seed: int, seconds: float, trace: bool,
        train_seeds: Optional[Sequence[int]] = None):
    """Run one workload; returns (metrics, checks, details, traced tracers)."""
    seeds = list(train_seeds if train_seeds is not None else TRAIN_SEEDS)
    checks = Checks()
    units: List[UnitResult] = []
    tracers: List[tracing.Tracer] = []
    traced_units: List[UnitResult] = []
    t0 = perf_counter()
    with HostClock() as clock:
        while _unit_plan(units + traced_units, seconds, perf_counter() - t0,
                         MIN_TRACE_UNITS if trace else MIN_UNITS):
            # traced and untraced units alternate on identical inputs; their
            # time ratio is the tracing overhead
            if trace and len(traced_units) <= len(units):
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    res, last = run_unit(w, seed, seeds, tracer, checks)
                traced_units.append(res)
                tracers.append(tracer)
            else:
                res, last = run_unit(w, seed, seeds, tracing.NullTracer(), checks)
                units.append(res)
            if len(units) + len(traced_units) == 1 and last is not None:
                graph_checks(*last, checks)
            del last
            gc.collect()  # one unit's garbage is not collected inside the next one
    first = (units + traced_units)[0]
    for u in (units + traced_units)[1:]:
        checks.expect("rounds.repeat", (u.cert_rounds, len(u.rounds))
                      == (first.cert_rounds, len(first.rounds)),
                      f"{w.name}: {first.cert_rounds} rounds, then {u.cert_rounds}")
    if trace:
        metrics = traced_metrics(tracers, checks, clock)
        unit_s = [unit_figures(us, clock.seconds)["unit_s"] for us in (traced_units, units)]
        metrics[tracing.OVERHEAD_METRIC] = (
            statistics.median(unit_s[0]) / statistics.median(unit_s[1]) - 1.0
        )
    else:
        metrics = end_to_end(units, clock)
    slowness = clock.slowness()
    details = {
        "units": len(units) + len(traced_units),
        "traced_units": len(traced_units),
        "rounds_timed": sum(len(u.rounds) for u in units),
        "setups_timed": sum(len(u.setups) for u in units),
        "train_seeds": seeds,
        "host_samples": len(slowness),
        "host_slowness_p10_p50_p90": [float(np.percentile(slowness, q)) for q in (10, 50, 90)],
        # the samples behind the untraced figures, normalised and as wall time
        "normalised": unit_figures(units, clock.seconds),
        "wall": unit_figures(units),
    }
    return metrics, checks, details, tracers


def traced_metrics(tracers: List[tracing.Tracer], checks: Checks,
                   clock: HostClock) -> Dict[str, float]:
    """Counts from the first traced unit (checked to repeat); medians of timings."""
    per_unit = [tracing.layer_metrics(t, clock.seconds) for t in tracers]
    first = per_unit[0]
    out: Dict[str, float] = {}
    for name in first:
        if tracing.is_timing(name):
            out[name] = statistics.median(m[name] for m in per_unit)
        else:
            out[name] = first[name]
            for m in per_unit[1:]:
                checks.expect("trace.counts_repeat", m[name] == first[name],
                              f"{name}: {first[name]} then {m[name]}")
    return out
