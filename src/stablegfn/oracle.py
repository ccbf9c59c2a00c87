"""Exact ground-truth computations on enumerable environments.

Everything here is reference-grade: terminal distributions by dynamic
programming, total-variation and total-L1 errors, exhaustive trajectory
enumeration, and the balanced tabular construction whose losses vanish
everywhere.  These are the oracles the certificate suites are checked against.
Balanced flows walk the environment's level order backward, one array step
per level (see :mod:`stablegfn.envs`).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .envs import (DagEnv, EnumerationCapError, check_state_cap, check_terminating, sorted_unique,
                   target_distribution, true_partition)
from .policy import PathBatch, PolicyModel, exact_terminal_distribution, score_paths

# Trajectory enumeration refuses graphs with more source-to-sink paths.
TRAJECTORY_CAP = 5_000_000


def check_trajectory_cap(count: int) -> None:
    """Refuse enumerating ``count`` trajectories above :data:`TRAJECTORY_CAP`."""
    if count > TRAJECTORY_CAP:
        raise EnumerationCapError(f"more than TRAJECTORY_CAP = {TRAJECTORY_CAP} trajectories")


def exact_tv(model: PolicyModel, env: DagEnv) -> float:
    """Exact total variation between the model's terminal law and the target:
    half their total L1."""
    _, p_t = exact_terminal_distribution(model, env)
    return 0.5 * float(np.abs(p_t - target_distribution(env)).sum())


def empirical_total_l1(samples: Sequence[int], env: DagEnv) -> float:
    """Total L1 between sample frequencies and the target, over the full support.

    States never sampled contribute their full target mass.  Every sample
    must be a terminating state.
    """
    xs = check_terminating(env, samples, "sample")
    if len(xs) == 0:
        raise ValueError("need at least one sample")
    counts = np.bincount(xs, minlength=env.num_states)[env.terminating_states]
    return float(np.abs(counts / len(xs) - target_distribution(env)).sum())


def count_modes(samples: Sequence[int], env: DagEnv) -> int:
    """Number of distinct mode states (``env.mode_mask``) present in the
    samples.  Every sample must be a terminating state."""
    xs = check_terminating(env, samples, "sample")
    return len(sorted_unique(xs[env.mode_mask[xs]]))


@dataclass
class EvalReport:
    exact_tv: Optional[float]
    empirical_total_l1: float
    mode_count: int
    sample_count: int

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


# -- balanced construction ----------------------------------------------------


@dataclass
class ExactFlows:
    """Reward-matched flows with a uniform backward split; ``edge_flows``
    aligns with the environment's edge arrays."""

    partition: float
    state_flows: np.ndarray
    edge_flows: np.ndarray


def balanced_flows(env: DagEnv) -> ExactFlows:
    """Flows proportional to reward, split uniformly over parents going backward."""
    check_state_cap(env.num_states)
    state = np.zeros(env.num_states)
    edge = np.zeros(env.num_edges)
    zstar = true_partition(env)
    state[env.sink] = zstar
    state[env.terminating_states] = env.reward_table[env.terminating_states]
    npar = env.backward_mask.sum(axis=1)
    into_sink = env.edge_dst == env.sink
    edge[into_sink] = state[env.edge_src[into_sink]]
    # children sit on later levels: walking back, each level's out-flows are ready
    for e in env.level_edges[::-1]:
        e = e[~into_sink[e]]
        c = env.edge_dst[e]
        edge[e] = state[c] / npar[c]
        np.add.at(state, env.edge_src[e], edge[e])
    return ExactFlows(zstar, state, edge)


def balanced_tabular_model(env: DagEnv, flow_head: bool = True) -> PolicyModel:
    """Tabular model with zero loss under every objective: logits are exact log-flows.

    The backward policy is fixed-uniform (any valid split balances; uniform is
    canonical) and logZ is the exact log partition value.
    """
    flows = balanced_flows(env)
    model = PolicyModel.build(env, "tabular", learn_backward=False, flow_head=flow_head)
    src = env.edge_src
    model.forward_net.table[src, env.edge_fslot] = (np.log(flows.edge_flows)
                                                   - np.log(flows.state_flows[src]))
    if flow_head:
        has = flows.state_flows > 0
        has[env.sink] = False
        model.flow_net.table[has, 0] = np.log(flows.state_flows[has])
    model.set_logz(math.log(flows.partition))
    return model


# -- trajectory enumeration -----------------------------------------------------


def enumerate_trajectory_states(env: DagEnv) -> List[List[int]]:
    """All complete paths from the source to the sink, depth-first in slot
    order, on an explicit stack: no recursion limit bounds a path's length."""
    out: List[List[int]] = []
    path: List[int] = []
    todo = [(env.initial_state, 0)]
    while todo:
        s, depth = todo.pop()
        del path[depth:]
        path.append(s)
        if s == env.sink:
            check_trajectory_cap(len(out) + 1)
            out.append(path.copy())
            continue
        row = env.child_matrix[s]
        todo.extend((c, depth + 1) for c in row[row >= 0][::-1].tolist())
    return out


def enumerate_trajectories(model: PolicyModel, env: DagEnv) -> PathBatch:
    """Every complete trajectory with exact log-probs under the model."""
    paths = PathBatch.of_lists(env, enumerate_trajectory_states(env))
    score_paths(model, env, paths)
    return paths


def one_more_mode_tv_closed_form(branching: int, depth: int, epsilon: float) -> float:
    """Exact TV between a converged tree with one epsilon leaf and the promoted target."""
    total = branching**depth
    prev_z = total - 1 + epsilon
    return (total - 1) / 2 * (1.0 / prev_z - 1.0 / total) + 0.5 * (1.0 / total - epsilon / prev_z)
