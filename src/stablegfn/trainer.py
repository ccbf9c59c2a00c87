"""Training loops: the certificate-gated stabilized trainer and plain baselines.

The stabilized trainer samples forward paths (with ε-greedy exploration) and
at most a half batch backward from high-reward terminal states, maintains a
top-K terminal buffer (one state array) with a patience counter, periodically
certifies a TV bound at the current adaptive threshold (an exponential moving
average of each batch's largest root-loss, :func:`update_threshold`), skips
gradient steps once the certificate's main term clears the target, and
otherwise trains on the capped objective with per-trajectory reference flows.
The backward half and the certificates draw over one scope, the buffer's
states or all terminating ones (:meth:`Trainer.certification_scope`), through
:func:`~stablegfn.policy.draw_terminals` and
:func:`~stablegfn.certify.sample_certificate`.  A round walks ``batch_size``
forward paths while the scope is empty, else ``batch_size - batch_size // 2``
and ``batch_size // 2`` backward only if something reads them: the gradient,
or, with exact sourcing, the buffer merge (a buffer-drawn half would only
re-merge states the buffer holds).  So by default (buffer sourcing,
``backward_in_gradient`` auto) no round walks backward.  ``metrics.csv`` is
written one line per round.

Baselines train any of the plain objectives on forward samples, optionally
mixed with a reward-prioritized replay buffer.

A round walks its trajectories with :func:`~stablegfn.policy.rollout` into
one ``PathBatch`` (replayed paths appended) and evaluates the edges of the
paths its loss reads once, in one ``EdgeBatch``: a stabilized round builds it
for the reference flows and the loss to reuse, a baseline round leaves it to
:func:`~stablegfn.losses.batch_loss` (fm evaluates only forward log-probs).  A
backward half that only feeds the buffer merge is never scored: the merge
reads terminal states.  Only the gradient step keeps backward caches: a
skipped round and certificate samples are scored cache-free.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from . import certify, losses, oracle, output
from .approximator import AdamOptimizer
from .envs import DagEnv, check_memory, check_state_cap, check_walk_memory, sorted_unique
from .policy import (
    ROLLOUT_STATE_BYTES,
    EdgeBatch,
    PathBatch,
    PolicyModel,
    check_param_memory,
    draw_terminals,
    proportional_draw,
    rollout,
)


def rng_for(seed: int, label: str) -> np.random.Generator:
    """Independent deterministic stream derived from (global seed, label)."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    words = [int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4)]
    return np.random.default_rng(np.random.SeedSequence([seed, *words]))


_ADMITS = {"int": ((int,), "an integer"), "float": ((int, float), "a number"),
           "Optional[float]": ((int, float, type(None)), "a number or null"),
           "bool": ((bool,), "a boolean"), "str": ((str,), "a string")}


def check_type(key: str, value, annotation: str):
    """``value`` if ``annotation`` admits it, else a ValueError; no bool passes as a number."""
    types, name = _ADMITS[annotation]
    if not isinstance(value, types) or (isinstance(value, bool) and annotation != "bool"):
        raise ValueError(f"{key} must be {name}, got {value!r}")
    return value


@dataclass
class TrainConfig:
    objective: str = "tb"
    stabilize: bool = False
    tv_target: float = 0.01
    confidence: float = 0.95
    patience: int = 10
    buffer_size: int = 1000
    batch_size: int = 32
    ema_beta: float = 0.05
    epsilon: float = 0.05
    learning_rate: float = 1e-3
    logz_lr_mult: float = 100.0
    max_grad_norm: Optional[float] = 10.0  # None: no clipping
    replay_size: int = 1000
    replay_batch: int = 0
    max_rounds: int = 1000
    seed: int = 0
    backward_source: str = "buffer"
    backward_in_gradient: str = "auto"
    cert_m: int = 1000
    cert_n: int = 1000
    subtb_lambda: float = 0.9
    oracle_every: int = 0

    def __post_init__(self) -> None:
        for f in fields(self):
            check_type(f.name, getattr(self, f.name), f.type)
        if self.objective not in ("tb", "db", "fm", "subtb", "wdb"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.stabilize and self.objective != "tb":
            raise ValueError("stabilization applies to the trajectory objective only")
        for key, inside, interval in (("tv_target", 0.0 < self.tv_target < 1.0, "(0, 1)"),
                                      ("ema_beta", 0.0 < self.ema_beta <= 1.0, "(0, 1]"),
                                      # check_samples' alpha rule: (1 - c) / 2 is 0.5 at c <= 2**-54
                                      ("confidence", 0.0 < self.alpha < 0.5,
                                       "(0, 1) with (1 - confidence) / 2 in (0, 0.5)"),
                                      ("epsilon", 0.0 <= self.epsilon < 1.0, "[0, 1)")):
            if not inside:
                raise ValueError(f"{key} must be in {interval}, got {getattr(self, key)!r}")
        if self.backward_source not in ("buffer", "exact"):
            raise ValueError("backward_source must be buffer or exact")
        if self.backward_in_gradient not in ("auto", "always", "never"):
            raise ValueError("backward_in_gradient must be auto, always or never")
        for key, least in (("seed", 0), ("max_rounds", 0), ("patience", 0), ("replay_batch", 0),
                           ("oracle_every", 0), ("batch_size", 1), ("buffer_size", 1),
                           ("cert_m", 1), ("cert_n", 1)):
            if getattr(self, key) < least:
                raise ValueError(f"{key} must be >= {least}, got {getattr(self, key)!r}")
        # a negative clip norm would flip the gradient's sign: training would ascend
        for key in ("learning_rate", "logz_lr_mult", "subtb_lambda", "max_grad_norm"):
            value = getattr(self, key)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value!r}")
        if self.replay_batch > 0 and self.replay_size < 1:
            raise ValueError("replay_size must be >= 1 when replay_batch > 0, "
                             f"got {self.replay_size!r}")

    @property
    def alpha(self) -> float:
        return (1.0 - self.confidence) / 2.0

    @property
    def use_backward_gradient(self) -> bool:
        if self.backward_in_gradient == "auto":
            return self.backward_source == "exact"
        return self.backward_in_gradient == "always"


def update_threshold(threshold: float, batch_losses: Sequence[float], beta: float) -> float:
    """Exponential moving average toward the batch's largest root-loss."""
    if len(batch_losses) == 0:
        raise ValueError("cannot update the threshold from an empty batch")
    if not 0.0 < beta <= 1.0:
        raise ValueError("beta must be in (0, 1]")
    a = float(np.sqrt(np.asarray(batch_losses, dtype=np.float64)).max())
    return (1.0 - beta) * threshold + beta * a


class TopKBuffer:
    """Up to K highest-reward terminal states, deduplicated: one int64 array,
    ``members``, ordered by (-reward, state) under the reward table ``rewards``."""

    def __init__(self, capacity: int, rewards: np.ndarray):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity, self.rewards = capacity, rewards
        self.members = np.zeros(0, dtype=np.int64)

    def __len__(self) -> int:
        return len(self.members)

    def states(self) -> List[int]:
        return self.members.tolist()

    def min_reward(self) -> float:
        return float(self.rewards[self.members[-1]]) if len(self) else math.nan

    def merge(self, xs: np.ndarray) -> bool:
        """Keep the top-K of the union with states ``xs``; returns whether membership changed."""
        union = sorted_unique(np.concatenate([self.members, xs]))  # ascending: ties go by state
        kept = union[np.argsort(-self.rewards[union], kind="stable")[: self.capacity]]
        changed = not np.array_equal(kept, self.members)
        self.members = kept
        return changed

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Reward-proportional draw (with replacement) in buffer order."""
        if not len(self):
            raise ValueError("cannot sample from an empty buffer")
        return draw_terminals(rng, self.rewards, self.members, count)


class ReplayBuffer:
    """Reward-prioritized path replay: the highest-reward paths, in one ``PathBatch``."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.paths: Optional[PathBatch] = None

    def __len__(self) -> int:
        return 0 if self.paths is None else len(self.paths)

    def insert(self, paths: PathBatch) -> None:
        """Append a round's paths; one stable sort by reward keeps the best, earlier first."""
        self.paths = paths if self.paths is None else self.paths + paths
        if len(self.paths) > self.capacity:
            self.paths = self.paths[np.argsort(-self.paths.rewards, kind="stable")[: self.capacity]]

    def sample(self, rng: np.random.Generator, count: int) -> PathBatch:
        """Reward-proportional draw (with replacement), without log-probs: a round scores it."""
        if not len(self):
            raise ValueError("cannot sample from an empty replay buffer")
        p = self.paths
        idx = proportional_draw(rng, p.rewards, count)
        return PathBatch(p.states[idx], p.lengths[idx], p.rewards[idx])


@dataclass
class TrainState:
    round: int = 0
    threshold: Optional[float] = None
    patience_count: int = 0
    bound: float = 1.0
    certified: bool = False
    skip_rounds: int = 0
    modes_found: Set[int] = field(default_factory=set)
    fallback_rounds: int = 0


CSV_COLUMNS = [
    "round", "objective", "mean_loss", "max_loss", "max_to_rest", "mean_delta",
    "active_delta_frac", "threshold", "buffer_size", "buffer_min_reward",
    "n_backward", "cert_bound", "cert_main", "skip", "exact_tv", "modes_discovered",
]


class Trainer:
    """Single-threaded deterministic training loop over one model/environment."""

    def __init__(self, model: PolicyModel, env: DagEnv, config: TrainConfig,
                 metrics_path: Optional[str] = None):
        # refused at set-up from sizes alone, not at the round that needs them
        if config.oracle_every > 0:
            check_state_cap(env.num_states, "oracle_every")
        if config.objective == "wdb":
            losses.check_reach_cap(env.num_states, len(env.terminating_states), "objective wdb")
        for key in ("cert_m", "cert_n", "batch_size"):
            check_walk_memory(env, getattr(config, key), f"train.{key}")
        # a training batch is also walked in Python lists, each holding at
        # least its walk's start and the sink, before it is padded (on a tree
        # into the whole walk matrix; a stable round copies it once more)
        check_memory(2 * ROLLOUT_STATE_BYTES * config.batch_size,
                     f"train.batch_size: {config.batch_size} walks", "rollout lists")
        # the model's values and gradients, then Adam's m, v and two scratch rows
        check_param_memory(model._nets, model.params.size, 6)
        self.model, self.env, self.config = model, env, config
        lr = config.learning_rate
        self.optimizer = AdamOptimizer(
            model.params,
            lr,
            lr_overrides={"logz": lr * config.logz_lr_mult},
            max_grad_norm=config.max_grad_norm,
        )
        self.state = TrainState()
        self.buffer = TopKBuffer(config.buffer_size, env.reward_table)
        self.replay = ReplayBuffer(config.replay_size) if config.replay_batch > 0 else None
        seed = config.seed
        self.rng_forward = rng_for(seed, "train.forward")
        self.rng_backward = rng_for(seed, "train.backward")
        self.rng_replay = rng_for(seed, "train.replay")
        self.rng_cert_f = rng_for(seed, "cert.forward")
        self.rng_cert_b = rng_for(seed, "cert.backward")
        self.metrics_path = metrics_path
        self.rows: List[Dict[str, object]] = []  # one per round, as metrics.csv has them

    def certification_scope(self) -> np.ndarray:
        """Terminal states a certificate covers and the backward half starts
        from: all of them, or the buffer's, in buffer order."""
        if self.config.backward_source == "exact":
            return self.env.terminating_states
        return self.buffer.members

    # -- rounds ---------------------------------------------------------------

    def _merge_discovered(self, paths: PathBatch) -> bool:
        xs = paths.terminals
        self.state.modes_found.update(xs[self.env.mode_mask[xs]].tolist())
        return self.buffer.merge(xs)

    def _certify(self) -> certify.CertificateReport:
        cfg, scope = self.config, self.certification_scope()  # holds this round's terminals
        threshold = max(self.state.threshold or 0.0, 1e-12)
        return certify.sample_certificate(self.model, self.env, scope, cfg.cert_m, cfg.cert_n,
                                          self.rng_cert_b, self.rng_cert_f, cfg.alpha, threshold)

    def _gradient_step(self, paths: PathBatch, deltas: Optional[np.ndarray] = None,
                       edges: Optional[EdgeBatch] = None) -> losses.LossBatchReport:
        self.model.params.zero_grad()
        report = losses.batch_loss(
            self.model, self.env, paths, self.config.objective,
            backprop=True, deltas=deltas, subtb_lambda=self.config.subtb_lambda, edges=edges,
        )
        self.optimizer.step()
        return report

    def stable_round(self) -> Dict[str, object]:
        cfg, st = self.config, self.state
        half = cfg.batch_size // 2
        n_fwd = cfg.batch_size - half
        exact = cfg.backward_source == "exact"
        backward_ready = exact or len(self.buffer) > 0

        starts = [self.env.initial_state] * (n_fwd if backward_ready else cfg.batch_size)
        batch = rollout(self.model, self.env, self.rng_forward, starts, epsilon=cfg.epsilon)
        n_paths = len(batch)
        # unread outside the gradient: a buffer-drawn half ends in buffered states
        if backward_ready and (cfg.use_backward_gradient or exact):
            xs = draw_terminals(self.rng_backward, self.env.reward_table,
                                self.certification_scope(), half)
            batch += rollout(self.model, self.env, self.rng_backward, xs, forward=False)
        if not backward_ready:
            st.fallback_rounds += 1
        n_bwd = len(batch) - n_paths

        changed = self._merge_discovered(batch)
        st.patience_count = 0 if changed else st.patience_count + 1

        cert: Optional[certify.CertificateReport] = None
        if st.patience_count >= cfg.patience:
            cert = self._certify()
            st.patience_count = 0
            if cert.bound is not None:
                st.bound = cert.bound
                if cert.bound <= cfg.tv_target:
                    st.certified = True

        # a main term is never -inf, and +inf fails the comparison
        skip = cert is not None and cert.main_term is not None and cert.main_term < cfg.tv_target

        if n_bwd and not cfg.use_backward_gradient:  # the half only fed the buffer merge
            batch = batch[:n_paths]
        # one batch over what the gradient reads; a skipped round reads only values
        edges = EdgeBatch.of_paths(self.model, self.env, batch, cache=not skip)
        batch.log_pf, batch.log_pb = edges.per_trajectory(len(batch))
        if skip:
            st.skip_rounds += 1
            report = losses.batch_loss(self.model, self.env, batch, "tb", edges=edges)
        else:
            # reference flows come from the freshly sampled trajectories'
            # cached log-probs, which reflect the current parameters
            log_model, log_target = certify.records_from_trajectories(
                batch, self.model.logz
            )
            if st.threshold is None:
                st.threshold = float(np.abs(log_model - log_target).max())
            cap = max(st.threshold, 1e-12)
            deltas = np.exp(losses.reference_flow_log_deltas(log_model, log_target, cap))
            report = self._gradient_step(batch, deltas, edges)
            raw = report.log_ratios
            st.threshold = update_threshold(st.threshold, raw * raw, cfg.ema_beta)

        return self._row(report, cert, skip, n_bwd)

    def baseline_round(self) -> Dict[str, object]:
        cfg = self.config
        starts = [self.env.initial_state] * cfg.batch_size
        batch = rollout(self.model, self.env, self.rng_forward, starts, epsilon=cfg.epsilon)
        n_fresh = len(batch)
        if self.replay is not None and len(self.replay) > 0:
            batch += self.replay.sample(self.rng_replay, cfg.replay_batch)
        report = self._gradient_step(batch)
        fresh = batch[:n_fresh]
        if self.replay is not None:
            self.replay.insert(fresh)
        self._merge_discovered(fresh)
        return self._row(report, None, False, 0)

    # -- bookkeeping ------------------------------------------------------------

    def _row(self, report: losses.LossBatchReport,
             cert: Optional[certify.CertificateReport], skip: bool,
             n_backward: int) -> Dict[str, object]:
        st = self.state
        exact_tv = None
        k = self.config.oracle_every
        if k > 0 and ((st.round + 1) % k == 0 or st.round == 0):
            exact_tv = oracle.exact_tv(self.model, self.env)
        return {
            "round": st.round,
            "objective": "stable" if self.config.stabilize else self.config.objective,
            "mean_loss": report.mean,
            "max_loss": report.max_item,
            "max_to_rest": report.max_to_rest,
            "mean_delta": report.mean_delta,
            "active_delta_frac": report.active_delta_frac,
            "threshold": st.threshold,
            "buffer_size": len(self.buffer),
            "buffer_min_reward": None if len(self.buffer) == 0 else self.buffer.min_reward(),
            "n_backward": n_backward,
            "cert_bound": None if cert is None else cert.bound,
            "cert_main": None if cert is None or cert.main_term is None
            or not math.isfinite(cert.main_term) else cert.main_term,
            "skip": int(skip),
            "exact_tv": exact_tv,
            "modes_discovered": len(st.modes_found),
        }

    def run(self) -> TrainState:
        """Train until ``max_rounds`` or a certificate, streaming ``metrics_path``."""
        cfg = self.config
        self._append_metrics("w", CSV_COLUMNS)
        for _ in range(cfg.max_rounds):
            row = self.stable_round() if cfg.stabilize else self.baseline_round()
            self.rows.append(row)
            self._append_metrics("a", [row[c] for c in CSV_COLUMNS])
            self.state.round += 1
            if cfg.stabilize and self.state.certified:
                break
        return self.state

    def _append_metrics(self, mode: str, values: Sequence[object]) -> None:
        """Write one CSV line as ``csv.writer`` does: None empty, CRLF-ended; no
        value holds a comma, a quote or a line break, so none is quoted."""
        if self.metrics_path is not None:
            line = ",".join("" if v is None else str(v) for v in values) + "\r\n"
            output.append_lines(self.metrics_path, [line], mode)
