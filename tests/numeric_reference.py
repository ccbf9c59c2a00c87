"""Reference formulas for the training step's numeric kernels and for paths.

These are the straightforward allocating versions of ``AdamOptimizer.step``,
``clip_grad_norm`` and ``Mlp.forward``/``backward``: every intermediate is a
fresh array and LeakyReLU is a ``np.where``.  The package computes the same
values in place and branch-free; the tests require the two to agree bit for
bit, so any change to the operation order shows up here.

The path half keeps paths as Python lists and ``Trajectory`` records, a
type of its own: the lockstep walker appends one state per walker per step,
edges are flattened one by one, and certificate records take ``math.log`` of
each reward.  The package's ``PathBatch`` must give the same paths, edges
and values; :func:`records` reads a batch into records, row by row.
:func:`enumerate_paths` lists every path by recursion, one call per state
on a path; the package's enumeration keeps an explicit stack.

The exact terminal DP here evaluates the forward net in one call over every
choice state; the package's cache-free passes run it in row blocks and must
give the same values bit for bit.
"""

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import List

import numpy as np

from stablegfn.approximator import LEAKY_SLOPE, NonFiniteError
from stablegfn.oracle import check_trajectory_cap
from stablegfn.policy import EdgeBatch, _eval_rows, _masked_rows


def clip_grad_norm(grad, max_norm):
    if not np.all(np.isfinite(grad)):
        raise NonFiniteError("gradient contains non-finite entries")
    norm = float(np.linalg.norm(grad))
    if norm > max_norm:
        return grad * (max_norm / norm)
    return grad


class AdamReference:
    """Adam with global-norm clipping, one fresh array per intermediate."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, values, lr_vector, max_grad_norm=10.0):
        self.values = np.array(values, dtype=np.float64)
        self.lr_vector = np.array(lr_vector, dtype=np.float64)
        self.max_grad_norm = max_grad_norm
        self.step_count = 0
        self.m = np.zeros(self.values.size)
        self.v = np.zeros(self.values.size)

    def step(self, grads):
        g = grads
        if self.max_grad_norm is not None:
            g = clip_grad_norm(g, self.max_grad_norm)
        self.step_count += 1
        self.m = self.beta1 * self.m + (1 - self.beta1) * g
        self.v = self.beta2 * self.v + (1 - self.beta2) * g * g
        mhat = self.m / (1 - self.beta1**self.step_count)
        vhat = self.v / (1 - self.beta2**self.step_count)
        update = self.lr_vector * mhat / (np.sqrt(vhat) + self.eps)
        if not np.all(np.isfinite(update)):
            raise NonFiniteError("optimizer update is non-finite; step rejected")
        self.values -= update


def mlp_forward(w, b, x):
    """Two LeakyReLU hidden layers; returns the output and the backward cache."""
    h0 = x @ w[0].T + b[0]
    a0 = np.where(h0 > 0, h0, LEAKY_SLOPE * h0)
    h1 = a0 @ w[1].T + b[1]
    a1 = np.where(h1 > 0, h1, LEAKY_SLOPE * h1)
    out = a1 @ w[2].T + b[2]
    return out, (x, h0, a0, h1, a1)


def eval_rows(net, states, env):
    """MLP outputs at ``states`` from one call over all of them."""
    return mlp_forward(net._w, net._b, env.encoding_matrix[states])[0]


def masked_probs(out, mask):
    """Policy probability rows of net outputs, 0 at invalid slots."""
    return np.where(mask, np.exp(_masked_rows(out, mask)), 0.0)


def exact_terminal_distribution(model, env):
    """(terminating states, P_T) by pushing mass edge by edge in level order."""
    choice = np.flatnonzero(env.forward_mask.sum(axis=1) > 1)
    probs = np.ones(env.child_matrix.shape)
    out = eval_rows(model.forward_net, choice, env)
    probs[choice] = masked_probs(out, env.forward_mask[choice])
    mass = np.zeros(env.num_states)
    mass[env.initial_state] = 1.0
    for level in env.level_edges:
        for e in level.tolist():
            src = env.edge_src[e]
            mass[env.edge_dst[e]] += mass[src] * probs[src, env.edge_fslot[e]]
    return env.terminating_states, mass[env.terminating_states]


def mlp_backward(w, gw, gb, cache, dout):
    """Accumulate the gradients of ``sum(dout * out)`` into ``gw``/``gb``."""
    x, h0, a0, h1, a1 = cache
    gw[2] += dout.T @ a1
    gb[2] += dout.sum(axis=0)
    da1 = dout @ w[2]
    dh1 = da1 * np.where(h1 > 0, 1.0, LEAKY_SLOPE)
    gw[1] += dh1.T @ a0
    gb[1] += dh1.sum(axis=0)
    da0 = dh1 @ w[1]
    dh0 = da0 * np.where(h0 > 0, 1.0, LEAKY_SLOPE)
    gw[0] += dh0.T @ x
    gb[0] += dh0.sum(axis=0)


def draw_rows(rng, probs):
    """One slot per row of ``probs``, one uniform per row: the uniform scaled
    by the row's total, against the row's running sums added one by one, picks
    the slot after the last sum it reaches (the last slot when it reaches all)."""
    picks = []
    for row, u in zip(probs.tolist(), rng.random(len(probs)).tolist()):
        sums = list(accumulate(row))
        x = u * sums[-1]
        picks.append(sum(c <= x for c in sums[:-1]))
    return np.array(picks, dtype=np.int64)


def walk(model, env, rng, starts, forward):
    """Lockstep walks as lists of states, source to sink."""
    if forward:
        net, mask, step, end = model.forward_net, env.forward_mask, env.child_matrix, env.sink
    else:
        net, mask, step, end = model.backward_net, env.backward_mask, env.parent_matrix, env.initial_state
    seqs = [[int(s)] for s in starts]
    cur = np.array(starts, dtype=np.int64)
    alive = np.flatnonzero(cur != end)
    while len(alive):
        states = cur[alive]
        uniq, inv = np.unique(states, return_inverse=True)
        out, _ = _eval_rows(net, uniq, env)
        p = masked_probs(out, mask[uniq])[inv]
        nxt = step[states, draw_rows(rng, p)]
        for j, t in enumerate(alive):
            seqs[t].append(int(nxt[j]))
        cur[alive] = nxt
        alive = alive[nxt != end]
    return seqs if forward else [s[::-1] + [env.sink] for s in seqs]


def enumerate_paths(env):
    """Every source-to-sink path as a list of states, depth-first in slot
    order, by recursion, checking the trajectory cap before each path."""
    out, path = [], [env.initial_state]

    def dfs(s):
        if s == env.sink:
            check_trajectory_cap(len(out) + 1)
            out.append(path.copy())
            return
        row = env.child_matrix[s]
        for c in row[row >= 0].tolist():
            path.append(c)
            dfs(c)
            path.pop()

    dfs(env.initial_state)
    return out


@dataclass
class Trajectory:
    """One source-to-sink path with its log-probs, as a single record.

    ``log_pf`` sums forward log-probabilities over every edge (the final
    hop into the sink contributes exactly 0); ``log_pb`` sums backward
    log-probabilities over every edge except the hop into the sink.
    """

    states: List[int]
    log_pf: float
    log_pb: float
    reward: float

    @property
    def terminating_state(self) -> int:
        return self.states[-2]


def path_lists(paths):
    """The states of every path of a ``PathBatch``, as lists."""
    return [s[:n] for s, n in zip(paths.states.tolist(), paths.lengths.tolist())]


def records(paths):
    """One ``Trajectory`` per row of a scored ``PathBatch``."""
    columns = (paths.log_pf, paths.log_pb, paths.rewards)
    return [Trajectory(*row) for row in zip(path_lists(paths), *(c.tolist() for c in columns))]


def collect_transitions(trajs):
    """(trajectory id, edge source, edge target) arrays, edge by edge."""
    tid, src, dst = [], [], []
    for i, t in enumerate(trajs):
        for a, b in zip(t.states[:-1], t.states[1:]):
            tid.append(i)
            src.append(a)
            dst.append(b)
    return (np.array(tid, dtype=np.int64), np.array(src, dtype=np.int64),
            np.array(dst, dtype=np.int64))


def trajectories_from_paths(model, env, paths):
    """One ``Trajectory`` per path, log-probs from one EdgeBatch over their edges."""
    trajs = [Trajectory(p, 0.0, 0.0, float(env.reward_table[p[-2]])) for p in paths]
    tid, src, dst = collect_transitions(trajs)
    batch = EdgeBatch(model, env, src, dst, tid)
    for t, f, b in zip(trajs, *batch.per_trajectory(len(trajs))):
        t.log_pf, t.log_pb = float(f), float(b)
    return trajs, batch


def records_from_trajectories(trajs, logz):
    """(log model flow, log target flow), one ``math.log`` per reward."""
    return (np.array([logz + t.log_pf for t in trajs]),
            np.array([math.log(t.reward) + t.log_pb for t in trajs]))
