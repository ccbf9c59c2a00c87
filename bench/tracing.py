"""Span tracer for the traced benchmark run.

The traced run wraps the public functions and methods of each ``stablegfn``
layer from outside the package.  A wrapper records one span (name, start,
end, parent) per call plus exact work counts (rows, trajectories, edges,
attempts), keeps everything in memory, and the harness writes the spans out
when the run ends.  Nothing is patched in an untraced run.

Module-level functions are patched in every ``stablegfn`` module that holds
them, because callers look them up there: ``trainer`` imports the samplers
by name, so patching ``stablegfn.policy`` alone would miss its calls.
Methods are patched on their class.  A target that a later version of the
package no longer has is skipped and its metrics read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

# Per-layer metrics: (name, unit, which end-to-end metric it should move on
# which workload).  "ms" values are the inclusive host-normalised time (see
# hostclock) of the layer's calls in one traced unit of work; every other value is an exact count or a ratio
# of exact counts, and must repeat exactly between traced units.
LAYERS: List[Tuple[str, str, str]] = [
    ("envs.build.ms", "ms", "setup_s on grid16-eval"),
    ("envs.encode.ms", "ms", "setup_s on grid16-eval"),
    ("envs.states", "count", "setup_s on grid16-eval"),
    ("envs.edges", "count", "setup_s on grid16-eval"),
    ("approximator.mlp_forward.calls", "count", "round_ms_p50 on grid-mlp-stable and grid-mlp-flow; none on tree-tab-cert"),
    ("approximator.mlp_forward.rows", "count", "round_ms_p50 on grid-mlp-stable and grid-mlp-flow; none on tree-tab-cert"),
    ("approximator.mlp_forward.ms", "ms", "round_ms_p50 on grid-mlp-stable and grid-mlp-flow; none on tree-tab-cert"),
    ("approximator.mlp_backward.calls", "count", "round_ms_p50 on grid-mlp-stable and grid-mlp-flow; none on tree-tab-cert"),
    ("approximator.mlp_backward.ms", "ms", "round_ms_p50 on grid-mlp-stable and grid-mlp-flow; none on tree-tab-cert"),
    ("approximator.tabular_forward.calls", "count", "cert_s on tree-tab-cert"),
    ("approximator.tabular_forward.ms", "ms", "cert_s on tree-tab-cert"),
    ("approximator.adam_step.calls", "count", "round_ms_p50 on grid-mlp-flow"),
    ("approximator.adam_step.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("policy.sample_forward.calls", "count", "round_ms_p50 on grid-mlp-stable, cert_s on tree-tab-cert"),
    ("policy.sample_forward.ms", "ms", "round_ms_p50 on grid-mlp-stable, cert_s on tree-tab-cert"),
    ("policy.sample_backward.calls", "count", "round_ms_p50 on grid-mlp-stable, cert_s on tree-tab-cert"),
    ("policy.sample_backward.ms", "ms", "round_ms_p50 on grid-mlp-stable, cert_s on tree-tab-cert"),
    ("policy.sample_forward_batch.trajs", "count", "cert_s and evaluate_s"),
    ("policy.sample_forward_batch.ms", "ms", "cert_s and evaluate_s"),
    ("policy.sample_backward_batch.trajs", "count", "cert_s and evaluate_s"),
    ("policy.sample_backward_batch.ms", "ms", "cert_s and evaluate_s"),
    ("policy.edge_batch.edges", "count", "round_ms_p50 on grid-mlp-flow, cert_s and evaluate_s"),
    ("policy.edge_batch.ms", "ms", "round_ms_p50 on grid-mlp-flow, cert_s and evaluate_s"),
    ("policy.edge_batch_backprop.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("policy.traj_len.mean", "edges", "round_ms_p50 on grid-mlp-stable"),
    ("policy.exact_dp.ms", "ms", "evaluate_s on grid16-eval"),
    ("oracle.exact_tv.ms", "ms", "evaluate_s on grid16-eval"),
    ("losses.batch_loss.tb.calls", "count", "round_ms_p50 on grid-mlp-stable and grid16-eval"),
    ("losses.batch_loss.tb.ms", "ms", "round_ms_p50 on grid-mlp-stable and grid16-eval"),
    ("losses.batch_loss.augmented.calls", "count", "round_ms_p50 on grid-mlp-stable, cert_s on tree-tab-cert"),
    ("losses.batch_loss.augmented.ms", "ms", "round_ms_p50 on grid-mlp-stable, cert_s on tree-tab-cert"),
    ("losses.batch_loss.db.calls", "count", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.db.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.fm.calls", "count", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.fm.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.subtb.calls", "count", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.subtb.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.wdb.calls", "count", "round_ms_p50 on grid-mlp-flow"),
    ("losses.batch_loss.wdb.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("losses.nonfinite", "count", "fail_frac on every workload"),
    ("certify.attempts", "count", "cert_s on tree-tab-cert"),
    ("certify.certified", "count", "cert_s and cert_rounds on tree-tab-cert (useful ratio: certified/attempts)"),
    ("certify.condition_violated", "count", "cert_s on tree-tab-cert"),
    ("certify.subgraph_certificate.ms", "ms", "cert_s on tree-tab-cert"),
    ("certify.search_iters", "count", "cert_s on every workload (the final searched certificate)"),
    ("trainer.rounds", "count", "cert_rounds on tree-tab-cert"),
    ("trainer.round.self_ms", "ms", "cert_s on tree-tab-cert and round_ms_p50"),
    ("trainer.topk_merge.ms", "ms", "cert_s on tree-tab-cert and round_ms_p50"),
    ("trainer.topk_merge.changed_frac", "ratio", "cert_rounds on tree-tab-cert (certificates fire after patience unchanged merges)"),
    ("trainer.replay.ms", "ms", "round_ms_p50 on grid-mlp-flow"),
    ("trainer.skip_rounds", "count", "cert_s on tree-tab-cert"),
    ("trainer.fallback_rounds", "count", "round_ms_p50 on grid-mlp-stable and tree-tab-cert"),
    ("trace.spans", "count", "none; size of the trace"),
    ("trace.overhead.frac", "ratio", "none; traced over untraced unit time, minus 1"),
]

OVERHEAD_METRIC = "trace.overhead.frac"
_UNIT = {name: unit for name, unit, _ in LAYERS}


class NullTracer:
    """Stand-in for the untraced run: spans and counts cost nothing."""

    def span(self, name: str):
        return contextlib.nullcontext()

    def count(self, key: str, n: float = 1) -> None:
        pass

    def gauge(self, key: str, value: float) -> None:
        pass


class Tracer:
    """In-memory spans of one traced unit of work, plus exact counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counts: Counter = Counter()
        self.gauges: Dict[str, float] = {}
        self.tv_target = math.nan
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        i = self.open(name)
        try:
            yield
        finally:
            self.close(i)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def gauge(self, key: str, value: float) -> None:
        self.gauges[key] = value


# -- post-call hooks: exact work counts ----------------------------------------


def _mlp_rows(t: Tracer, i: int, args, out) -> None:
    t.count("approximator.mlp_forward.rows", len(args[1]))


def _traj_len(t: Tracer, i: int, args, out) -> None:
    t.count("policy.traj_len.sum", len(out.states) - 1)
    t.count("policy.traj_len.n")


def _batch_trajs(t: Tracer, i: int, args, out) -> None:
    t.count(t.names[i] + ".trajs", len(out))


def _edges(t: Tracer, i: int, args, out) -> None:
    t.count("policy.edge_batch.edges", len(args[3]))


def _loss_kind(t: Tracer, i: int, args, out) -> None:
    # the report's kind tells the capped ("augmented") trajectory loss apart
    t.names[i] = f"losses.batch_loss.{out.kind}"
    if not np.all(np.isfinite(out.per_item)):
        t.count("losses.nonfinite")


def _cert_outcome(t: Tracer, i: int, args, out) -> None:
    t.count("certify.attempts")
    t.count("certify.condition_violated", int(out.condition_violated))
    t.count("certify.certified", int(out.bound is not None and out.bound <= t.tv_target))
    if out.search:
        t.count("certify.search_iters", int(out.search["iterations"]))


def _merge_changed(t: Tracer, i: int, args, out) -> None:
    t.count("trainer.topk_merge.changed", int(out))


Hook = Optional[Callable[[Tracer, int, tuple, object], None]]

# (module, attribute or Class.method, span name, post-call hook)
TARGETS: List[Tuple[str, str, str, Hook]] = [
    ("stablegfn.approximator", "Mlp.forward", "approximator.mlp_forward", _mlp_rows),
    ("stablegfn.approximator", "Mlp.backward", "approximator.mlp_backward", None),
    ("stablegfn.approximator", "Tabular.forward", "approximator.tabular_forward", None),
    ("stablegfn.approximator", "AdamOptimizer.step", "approximator.adam_step", None),
    ("stablegfn.policy", "sample_forward", "policy.sample_forward", _traj_len),
    ("stablegfn.policy", "sample_backward", "policy.sample_backward", _traj_len),
    ("stablegfn.policy", "sample_forward_batch", "policy.sample_forward_batch", _batch_trajs),
    ("stablegfn.policy", "sample_backward_batch", "policy.sample_backward_batch", _batch_trajs),
    ("stablegfn.policy", "EdgeBatch.__init__", "policy.edge_batch", _edges),
    ("stablegfn.policy", "EdgeBatch.backprop", "policy.edge_batch_backprop", None),
    ("stablegfn.policy", "exact_terminal_distribution", "policy.exact_dp", None),
    ("stablegfn.oracle", "exact_tv", "oracle.exact_tv", None),
    ("stablegfn.losses", "batch_loss", "losses.batch_loss", _loss_kind),
    ("stablegfn.certify", "subgraph_certificate", "certify.subgraph_certificate", _cert_outcome),
    ("stablegfn.trainer", "TopKBuffer.merge", "trainer.topk_merge", _merge_changed),
    ("stablegfn.trainer", "ReplayBuffer.insert", "trainer.replay", None),
    ("stablegfn.trainer", "ReplayBuffer.sample", "trainer.replay", None),
]


def _wrap(tracer: Tracer, name: str, fn, post: Hook):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if post is not None:
            post(tracer, i, args, out)
        return out

    return traced


def _call_sites(orig) -> List[Tuple[object, str]]:
    """Every (stablegfn module, attribute name) through which ``orig`` is reached."""
    sites = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "stablegfn" or mod_name.startswith("stablegfn."):
            sites += [(mod, k) for k, v in vars(mod).items() if v is orig]
    return sites


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Patch every target to record into ``tracer``; restore them on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for module, path, name, post in TARGETS:
            owner = importlib.import_module(module)
            *cls, attr = path.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            orig = vars(owner).get(attr) if owner is not None else None
            if orig is None:
                continue
            wrapped = _wrap(tracer, name, orig, post)
            for site, key in [(owner, attr)] if cls else _call_sites(orig):
                setattr(site, key, wrapped)
                undo.append((site, key, orig))
        yield
    finally:
        for site, key, orig in reversed(undo):
            setattr(site, key, orig)


# -- aggregation ------------------------------------------------------------------


def span_arrays(tracer: Tracer) -> Dict[str, np.ndarray]:
    names = sorted(set(tracer.names))
    ids = {n: k for k, n in enumerate(names)}
    return {
        "names": np.array(names),
        "name_id": np.array([ids[n] for n in tracer.names], dtype=np.int32),
        "start": np.array(tracer.starts),
        "end": np.array(tracer.ends),
        "parent": np.array(tracer.parents, dtype=np.int64),
    }


def layer_metrics(tracer: Tracer, seconds=None) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (everything in LAYERS but the overhead).

    Span lengths are measured by ``seconds(starts, ends)`` when given (the
    host-normalised clock), else as wall time.
    """
    starts, ends = np.array(tracer.starts), np.array(tracer.ends)
    dur = seconds(starts, ends) if seconds is not None else ends - starts
    parent = np.array(tracer.parents, dtype=np.int64)
    names = np.array(tracer.names, dtype=object)
    has_parent = parent >= 0
    covered = np.zeros(len(dur))
    np.add.at(covered, parent[has_parent], dur[has_parent])
    self_time = dur - covered

    def calls(name: str) -> int:
        return int(np.count_nonzero(names == name))

    def ms(name: str, values: np.ndarray = dur) -> float:
        return float(values[names == name].sum()) * 1e3

    c = tracer.counts
    out: Dict[str, float] = {}
    for name, unit, _ in LAYERS:
        if name == OVERHEAD_METRIC:
            continue
        if name in c:
            out[name] = c[name]
        elif name in tracer.gauges:
            out[name] = tracer.gauges[name]
        elif name.endswith(".calls"):
            out[name] = calls(name[: -len(".calls")])
        elif name.endswith(".self_ms"):
            out[name] = ms(name[: -len(".self_ms")], self_time)
        elif unit == "ms":
            out[name] = ms(name[: -len(".ms")])
        else:
            out[name] = 0
    out["trainer.rounds"] = calls("trainer.round")
    out["trace.spans"] = len(dur)
    n_traj = c["policy.traj_len.n"]
    out["policy.traj_len.mean"] = c["policy.traj_len.sum"] / n_traj if n_traj else 0.0
    merges = calls("trainer.topk_merge")
    out["trainer.topk_merge.changed_frac"] = (
        c["trainer.topk_merge.changed"] / merges if merges else 0.0
    )
    return out


def is_timing(name: str) -> bool:
    """Timings may differ between traced units; every other metric must repeat."""
    return _UNIT[name] == "ms" or name == OVERHEAD_METRIC
