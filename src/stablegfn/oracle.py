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
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .envs import DagEnv, EnumerationCapError, DEFAULT_STATE_CAP, target_distribution, true_partition
from .policy import PolicyModel, Trajectory, exact_terminal_distribution, trajectories_from_paths

DEFAULT_TRAJECTORY_CAP = 5_000_000


def exact_tv(model: PolicyModel, env: DagEnv, cap: int = DEFAULT_STATE_CAP) -> float:
    """Exact total variation between the model's terminal law and the target."""
    return 0.5 * exact_total_l1(model, env, cap)


def exact_total_l1(model: PolicyModel, env: DagEnv, cap: int = DEFAULT_STATE_CAP) -> float:
    _, p_t = exact_terminal_distribution(model, env, cap)
    return float(np.abs(p_t - target_distribution(env)).sum())


def empirical_total_l1(samples: Sequence[int], env: DagEnv) -> float:
    """Total L1 between sample frequencies and the target, over the full support.

    States never sampled contribute their full target mass.
    """
    if len(samples) == 0:
        raise ValueError("need at least one sample")
    pos = {int(x): i for i, x in enumerate(env.terminating_states)}
    counts = np.zeros(len(pos))
    for s in samples:
        counts[pos[int(s)]] += 1
    freq = counts / len(samples)
    return float(np.abs(freq - target_distribution(env)).sum())


def default_mode_predicate(env: DagEnv) -> Callable[[int], bool]:
    """Mode test for an environment: peak-plateau cells on grids, max reward otherwise."""
    if hasattr(env, "mode_states"):
        modes = set(int(x) for x in env.mode_states())
        return lambda s: s in modes
    xs = env.terminating_states
    rmax = float(env.reward_table[xs].max())
    return lambda s: env.reward_table[s] >= rmax - 1e-12


def count_modes(samples: Iterable[int], env: DagEnv,
                predicate: Optional[Callable[[int], bool]] = None) -> int:
    """Number of distinct mode states present in the samples."""
    pred = predicate or default_mode_predicate(env)
    return len({int(s) for s in samples if pred(int(s))})


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
    """Reward-matched flows with a uniform backward split.

    ``edge_flows`` aligns with the environment's edge arrays; ``traj_flows``
    (when trajectories were enumerated) aligns with ``trajectories``.
    """

    partition: float
    state_flows: np.ndarray
    edge_flows: np.ndarray
    trajectories: Optional[List[List[int]]] = None
    traj_flows: Optional[np.ndarray] = None


def balanced_flows(env: DagEnv, cap: int = DEFAULT_STATE_CAP,
                   enumerate_paths: bool = False) -> ExactFlows:
    """Flows proportional to reward, split uniformly over parents going backward."""
    if env.num_states > cap:
        raise EnumerationCapError(f"{env.num_states} states exceed the cap {cap}")
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

    flows = ExactFlows(zstar, state, edge)
    if enumerate_paths:
        paths = enumerate_trajectory_states(env)
        tf = np.empty(len(paths))
        for i, p in enumerate(paths):
            x = p[-2]
            f = env.reward(x)
            for a, b in zip(p[:-2], p[1:-1]):
                f /= npar[b]
            tf[i] = f
        flows.trajectories = paths
        flows.traj_flows = tf
    return flows


def balanced_tabular_model(env: DagEnv, cap: int = DEFAULT_STATE_CAP,
                           flow_head: bool = True) -> PolicyModel:
    """Tabular model with zero loss under every objective: logits are exact log-flows.

    The backward policy is fixed-uniform (any valid split balances; uniform is
    canonical) and logZ is the exact log partition value.
    """
    flows = balanced_flows(env, cap)
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


def enumerate_trajectory_states(env: DagEnv, cap: int = DEFAULT_TRAJECTORY_CAP) -> List[List[int]]:
    """All complete paths from the source to the sink, by depth-first search."""
    out: List[List[int]] = []
    stack: List[int] = [env.initial_state]

    def dfs(s: int) -> None:
        if s == env.sink:
            if len(out) >= cap:
                raise EnumerationCapError(f"more than {cap} trajectories")
            out.append(stack.copy())
            return
        for c in env.children(s):
            stack.append(int(c))
            dfs(int(c))
            stack.pop()

    dfs(env.initial_state)
    return out


def enumerate_trajectories(model: PolicyModel, env: DagEnv,
                           cap: int = DEFAULT_TRAJECTORY_CAP) -> List[Trajectory]:
    """Every complete trajectory with exact log-probs under the model."""
    paths = enumerate_trajectory_states(env, cap)
    return trajectories_from_paths(model, env, paths, "enumerated")[0]


def one_more_mode_tv_closed_form(branching: int, depth: int, epsilon: float) -> float:
    """Exact TV between a converged tree with one epsilon leaf and the promoted target."""
    total = branching**depth
    prev_z = total - 1 + epsilon
    return (total - 1) / 2 * (1.0 / prev_z - 1.0 / total) + 0.5 * (1.0 / total - epsilon / prev_z)
