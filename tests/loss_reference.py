"""Per-object definitions of the training objectives: the oracle of ``batch_loss``.

Each objective is written one trajectory, edge, state or span at a time,
straight from its definition: flow matching and detailed balance (Bengio et
al. 2021), trajectory balance (Malkin et al. 2022), subtrajectory balance
(Madan et al. 2023) and the reachable-terminal weights of weighted DB.  The
package computes every objective in one batched engine,
:func:`stablegfn.losses.batch_loss`; the tests require the two to agree term
by term.  A ``*_log_ratio`` is one term's log-ratio, its loss the square.

The per-edge and per-state model lookups are built on ``policy._row`` and
``policy._eval_rows``, the single-row evaluation ``rollout`` uses.
The scalar reference-flow helpers wrap the package's one vectorized formula,
``reference_flow_log_deltas``.
"""

import math

import numpy as np

from stablegfn.losses import reference_flow_log_deltas, terminal_reach_counts
from stablegfn.policy import _eval_rows, _row


# -- per-state views of the graph arrays -------------------------------------------


def forward_slots(env, s):
    """(valid forward slots, children) of one state, as parallel arrays."""
    slots = np.flatnonzero(env.forward_mask[s])
    return slots, env.child_matrix[s, slots]


def backward_slots(env, s):
    """(valid backward slots, parents) of one state, as parallel arrays."""
    slots = np.flatnonzero(env.backward_mask[s])
    return slots, env.parent_matrix[s, slots]


def children(env, s):
    return forward_slots(env, s)[1]


def parents(env, s):
    return backward_slots(env, s)[1]


def log_reward(env, s):
    """``math.log`` of one terminating state's reward."""
    return math.log(float(env.reward_table[s]))


# -- model lookups, one state at a time -----------------------------------------


def _valid_row(net, s, mask, slots, env):
    """Log-probs over ``slots`` at one state: 0 at a single slot, none at none."""
    return _row(net, s, mask, env)[slots] if len(slots) > 1 else np.zeros(len(slots))


def forward_row(model, s, env):
    """(slots, children, log-probs) of the forward policy at one state."""
    slots, kids = forward_slots(env, s)
    return slots, kids, _valid_row(model.forward_net, s, env.forward_mask, slots, env)


def backward_row(model, s, env):
    """(slots, parents, log-probs) of the backward policy at one state."""
    slots, pars = backward_slots(env, s)
    return slots, pars, _valid_row(model.backward_net, s, env.backward_mask, slots, env)


def log_pf_edge(model, src, dst, env):
    _, children, lp = forward_row(model, src, env)
    (i,) = np.nonzero(children == dst)[0]
    return float(lp[i])


def log_pb_edge(model, src, dst, env):
    """log P_B(src | dst); zero when dst is the sink (not part of the product)."""
    if dst == env.sink:
        return 0.0
    _, parents, lp = backward_row(model, dst, env)
    (i,) = np.nonzero(parents == src)[0]
    return float(lp[i])


def log_state_flow(model, s, env):
    if model.flow_net is None:
        raise ValueError("model has no state-flow head")
    out, _ = _eval_rows(model.flow_net, np.array([s]), env)
    return float(out[0, 0])


# -- per-object losses ------------------------------------------------------------


def tb_log_ratio(traj, logz):
    """Log-ratio of the model trajectory flow to the target flow."""
    if traj.reward <= 0:
        raise ValueError("trajectory balance needs a positive terminal reward")
    return logz + traj.log_pf - math.log(traj.reward) - traj.log_pb


def tb_loss(traj, logz):
    r = tb_log_ratio(traj, logz)
    return r * r


def db_log_ratio(edge, model, env):
    """Log-ratio of forward to backward flow on one edge (not into the sink)."""
    s, t = edge
    if t == env.sink:
        raise ValueError("detailed balance is undefined on edges into the sink")
    if t not in children(env, s):
        raise ValueError(f"{s}->{t} is not an edge")
    end = log_reward(env, t) if env.terminating_mask[t] else log_state_flow(model, t, env)
    return (log_state_flow(model, s, env) + log_pf_edge(model, s, t, env) - end
            - log_pb_edge(model, s, t, env))


def db_loss(edge, model, env):
    r = db_log_ratio(edge, model, env)
    return r * r


def fm_log_ratio(state, model, env):
    """Log-ratio of in-flow to reward-plus-out-flow at one intermediate state."""
    if state == env.initial_state or state == env.sink:
        raise ValueError("flow matching applies to intermediate states only")
    log_in = [log_state_flow(model, p, env) + log_pf_edge(model, p, state, env)
              for p in parents(env, state)]
    log_out = [log_reward(env, state)] if env.terminating_mask[state] else []
    for c in children(env, state):
        if c != env.sink:
            log_out.append(log_state_flow(model, state, env) + log_pf_edge(model, state, c, env))
    return float(np.logaddexp.reduce(log_in) - np.logaddexp.reduce(log_out))


def fm_loss(state, model, env):
    r = fm_log_ratio(state, model, env)
    return r * r


def subtb_log_ratio(traj, t1, t2, model, env):
    """Log-ratio over the span states[t1..t2] of a trajectory.

    The terminal index is the trajectory's last non-sink position; a span
    ending there replaces the state flow with the terminal reward.
    """
    seq = traj.states[:-1]
    n = len(seq) - 1
    if not 0 <= t1 < t2 <= n:
        raise ValueError(f"degenerate or out-of-range span ({t1}, {t2})")
    start = log_state_flow(model, seq[t1], env)
    if t2 == n:
        end = log_reward(env, seq[n])
    else:
        end = log_state_flow(model, seq[t2], env)
    r = start - end
    for u in range(t1, t2):
        r += log_pf_edge(model, seq[u], seq[u + 1], env)
        r -= log_pb_edge(model, seq[u], seq[u + 1], env)
    return r


def subtb_loss(traj, t1, t2, model, env):
    r = subtb_log_ratio(traj, t1, t2, model, env)
    return r * r


def wdb_weights(traj, env):
    """Per-transition weights inverse to reachable-terminal counts, summing to 1.

    The final hop into the sink counts exactly its own terminating state.
    """
    counts = terminal_reach_counts(env)
    raw = []
    for a, b in zip(traj.states[:-1], traj.states[1:]):
        raw.append(1.0 if b == env.sink else 1.0 / counts[b])
    raw = np.array(raw)
    return raw / raw.sum()


# -- reference flow -----------------------------------------------------------------


def reference_flow_delta(log_model_flow, log_target_flow, threshold):
    """Minimum reference flow (in linear scale) capping the loss at threshold**2."""
    return math.exp(reference_flow_log_deltas([log_model_flow], [log_target_flow], threshold)[0])


def reference_flow_ratio(log_model_flow, log_target_flow, threshold):
    """delta divided by the target flow; the quantity the sampling bounds track."""
    return math.exp(reference_flow_log_deltas([log_model_flow], [log_target_flow], threshold)[0]
                    - log_target_flow)


def augmented_log_ratio(log_model_flow, log_target_flow, delta):
    if delta == 0.0:
        return log_model_flow - log_target_flow
    if math.isinf(delta):
        return 0.0
    ld = math.log(delta)
    return np.logaddexp(log_model_flow, ld) - np.logaddexp(log_target_flow, ld)


def augmented_loss(traj, logz, delta):
    """Squared log-ratio after injecting ``delta`` into both flows."""
    if delta < 0:
        raise ValueError("reference flow must be nonnegative")
    r = augmented_log_ratio(logz + traj.log_pf, math.log(traj.reward) + traj.log_pb, delta)
    return r * r


def reduction_factor_gamma(log_model_flow, log_target_flow, delta):
    """Factor by which the reference flow shrinks the loss: sqrt(raw / augmented)."""
    r = log_model_flow - log_target_flow
    if r == 0.0:
        raise ValueError("reduction factor is undefined at zero raw loss")
    ra = augmented_log_ratio(log_model_flow, log_target_flow, delta)
    if ra == 0.0:
        return math.inf
    return abs(r) / abs(ra)
