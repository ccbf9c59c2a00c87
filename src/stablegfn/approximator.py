"""Differentiable function approximators with hand-written reverse-mode gradients.

Three parameterizations share one contract: a tabular table (one logit row
per state, exact at desk scale), a two-hidden-layer LeakyReLU MLP, and a
parameter-free net whose logits are all 0 (the fixed-uniform policy).
Parameters live in a single flat float64 vector with named slices so the
optimizer can apply per-slice learning rates and checkpoints can round-trip
bit-exactly.
"""

from __future__ import annotations

import base64
import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

LEAKY_SLOPE = 0.01


class NonFiniteError(ValueError):
    """An update or gradient produced NaN/inf values."""


class ParamVector:
    """Flat float64 parameter storage plus a parallel gradient buffer.

    Slices are declared once as ``(name, shape)`` pairs; ``view``/``grad_view``
    return writable ndarray views into the flat buffers.
    """

    def __init__(self, spec: Sequence[Tuple[str, Tuple[int, ...]]]):
        self._layout: Dict[str, Tuple[int, Tuple[int, ...]]] = {}
        total = 0
        for name, shape in spec:
            if name in self._layout:
                raise ValueError(f"duplicate parameter slice {name!r}")
            self._layout[name] = (total, tuple(shape))
            total += int(np.prod(shape))
        self.size = total
        self.values = np.zeros(total)
        self.grads = np.zeros(total)

    @property
    def names(self) -> List[str]:
        return list(self._layout)

    def slice_bounds(self, name: str) -> Tuple[int, int]:
        off, shape = self._layout[name]
        return off, off + int(np.prod(shape))

    def view(self, name: str) -> np.ndarray:
        lo, hi = self.slice_bounds(name)
        return self.values[lo:hi].reshape(self._layout[name][1])

    def grad_view(self, name: str) -> np.ndarray:
        lo, hi = self.slice_bounds(name)
        return self.grads[lo:hi].reshape(self._layout[name][1])

    def zero_grad(self) -> None:
        self.grads[:] = 0.0

    def check_finite(self) -> None:
        if not _all_finite(self.values, self.values.sum()):
            raise NonFiniteError("parameter vector contains non-finite entries")


class Tabular:
    """One logit row per state; evaluation is an exact table lookup."""

    wants_indices = True

    def __init__(self, num_states: int, out_dim: int, prefix: str):
        self.num_states, self.out_dim, self.prefix = num_states, out_dim, prefix
        self.table: Optional[np.ndarray] = None
        self._gtable: Optional[np.ndarray] = None

    def param_spec(self) -> List[Tuple[str, Tuple[int, ...]]]:
        return [(f"{self.prefix}.table", (self.num_states, self.out_dim))]

    def bind(self, params: ParamVector) -> None:
        self.table = params.view(f"{self.prefix}.table")
        self._gtable = params.grad_view(f"{self.prefix}.table")

    def init_params(self, rng: np.random.Generator) -> None:
        self.table[...] = 0.0

    def forward(self, idx: np.ndarray, cache: bool = True) -> Tuple[np.ndarray, object]:
        return self.table[idx], idx

    def backward(self, cache: object, dout: np.ndarray) -> None:
        np.add.at(self._gtable, cache, dout)


class Uniform:
    """No parameters and every logit 0: a masked log-softmax row is -log k over k slots."""

    wants_indices = True

    def __init__(self, out_dim: int):
        self.out_dim = out_dim

    def param_spec(self) -> List[Tuple[str, Tuple[int, ...]]]:
        return []

    def bind(self, params: ParamVector) -> None:
        pass

    def init_params(self, rng: np.random.Generator) -> None:
        pass

    def forward(self, idx: np.ndarray, cache: bool = True) -> Tuple[np.ndarray, object]:
        return np.zeros((len(idx), self.out_dim)), None

    def backward(self, cache: object, dout: np.ndarray) -> None:
        pass


class Mlp:
    """Two-hidden-layer MLP with LeakyReLU activations.

    Weights initialize uniformly in [-1/sqrt(fan_in), 1/sqrt(fan_in)].
    ``forward`` returns an opaque cache consumed by ``backward``, which
    accumulates gradients into the bound gradient views.

    LeakyReLU and its slope are computed branch-free: the activation is
    ``maximum(h, LEAKY_SLOPE * h)`` and the slope comes from ``_leaky_slope``.
    Pre-activations have random signs, so a per-element select would
    mispredict about half the time.  Both give the select's values bit for
    bit, signed zeros, NaN and infinities included.  Bias adds and the
    activation run in place, so a forward pass over many rows holds no
    full-size temporary beyond what it caches.  ``cache=False`` (for passes
    that never call ``backward``) keeps nothing: each layer's input is dropped
    once its output exists.  The policy runs such passes one row block at a
    time, so at most two (block x width) arrays are alive, however many rows
    the pass covers.  Under OpenBLAS 0.3.31's SkylakeX kernel, a block of at
    least ``policy.BLAS_EXACT_CELLS`` / ``out_dim`` rows gives every row the
    bits of one call over all of them, and the policy keeps blocks under
    twice that; its Haswell kernel keeps no such floor.

    ``x`` may be uint8, as the one-hot rows of ``DagEnv.encoding_matrix``
    are.  ``x @ W0.T`` and ``backward``'s ``dh0.T @ x`` then cast it to a
    float64 copy before BLAS runs, and 0 and 1 are exact in both types, so
    every product has the bits of the same rows given as float64.
    """

    wants_indices = False

    def __init__(self, in_dim: int, hidden: Sequence[int], out_dim: int, prefix: str):
        if len(hidden) != 2:
            raise ValueError("expected exactly two hidden layer widths")
        self.dims = [in_dim, int(hidden[0]), int(hidden[1]), out_dim]
        self.prefix = prefix
        self._w: List[np.ndarray] = []
        self._b: List[np.ndarray] = []
        self._gw: List[np.ndarray] = []
        self._gb: List[np.ndarray] = []

    def param_spec(self) -> List[Tuple[str, Tuple[int, ...]]]:
        spec = []
        for i in range(3):
            spec.append((f"{self.prefix}.w{i}", (self.dims[i + 1], self.dims[i])))
            spec.append((f"{self.prefix}.b{i}", (self.dims[i + 1],)))
        return spec

    def bind(self, params: ParamVector) -> None:
        self._w = [params.view(f"{self.prefix}.w{i}") for i in range(3)]
        self._b = [params.view(f"{self.prefix}.b{i}") for i in range(3)]
        self._gw = [params.grad_view(f"{self.prefix}.w{i}") for i in range(3)]
        self._gb = [params.grad_view(f"{self.prefix}.b{i}") for i in range(3)]

    def init_params(self, rng: np.random.Generator) -> None:
        for i in range(3):
            bound = 1.0 / math.sqrt(self.dims[i])
            self._w[i][...] = rng.uniform(-bound, bound, size=self._w[i].shape)
            self._b[i][...] = rng.uniform(-bound, bound, size=self._b[i].shape)

    def forward(self, x: np.ndarray, cache: bool = True) -> Tuple[np.ndarray, object]:
        # each layer allocates only the arrays it keeps for the backward pass
        h0 = x @ self._w[0].T
        h0 += self._b[0]
        a0 = np.multiply(h0, LEAKY_SLOPE)
        np.maximum(h0, a0, out=a0)
        kept = (x, h0, a0) if cache else ()
        del h0  # without a cache, each layer's input goes once its output exists
        h1 = a0 @ self._w[1].T
        del a0
        h1 += self._b[1]
        a1 = np.multiply(h1, LEAKY_SLOPE)
        np.maximum(h1, a1, out=a1)
        out = a1 @ self._w[2].T
        out += self._b[2]
        return out, kept + (h1, a1) if cache else None

    def backward(self, cache: object, dout: np.ndarray) -> None:
        x, h0, a0, h1, a1 = cache
        self._gw[2] += dout.T @ a1
        self._gb[2] += dout.sum(axis=0)
        dh1 = dout @ self._w[2]
        dh1 *= _leaky_slope(h1)
        self._gw[1] += dh1.T @ a0
        self._gb[1] += dh1.sum(axis=0)
        dh0 = dh1 @ self._w[1]
        dh0 *= _leaky_slope(h0)
        self._gw[0] += dh0.T @ x
        self._gb[0] += dh0.sum(axis=0)


def _leaky_slope(h: np.ndarray) -> np.ndarray:
    """LeakyReLU's derivative at ``h``: 1.0 where ``h > 0``, else LEAKY_SLOPE.

    Exact in float64: ``(1 - L) + L == 1.0`` and ``0 * (1 - L) + L == L``.
    """
    s = (h > 0).astype(np.float64)
    s *= 1.0 - LEAKY_SLOPE
    s += LEAKY_SLOPE
    return s


def _all_finite(a: np.ndarray, total: float) -> bool:
    """Whether every entry of ``a`` is finite, given a sum or norm over it.

    A finite total proves it, so the entrywise check runs only when the total
    is not finite, which finite entries can also give by overflowing.
    """
    return math.isfinite(total) or bool(np.isfinite(a).all())


def clip_grad_norm(grad: np.ndarray, max_norm: float,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Rescale ``grad`` to L2 norm ``max_norm`` when it exceeds it, else pass through.

    The rescaled copy is written into ``out`` when given (a fresh array
    otherwise); ``grad`` itself is never modified.  A finite gradient whose
    norm overflows is scaled by ``max_norm / inf``, to zero.
    """
    norm = float(np.linalg.norm(grad))
    if not _all_finite(grad, norm):
        raise NonFiniteError("gradient contains non-finite entries")
    if norm > max_norm:
        return np.multiply(grad, max_norm / norm, out=out)
    return grad


class AdamOptimizer:
    """Adaptive-moment optimizer over a ParamVector with per-slice learning rates.

    The whole flat gradient is norm-clipped before the moment update; any step
    that would produce non-finite parameters is rejected.

    The moments ``m``/``v`` and two scratch vectors are allocated once and
    updated in place, in the operation order of the textbook formula, so the
    values are those of the allocating form bit for bit.  The learning rate
    is a scalar outside the slices of ``lr_overrides``.  Each finiteness
    check reads a norm or a sum and looks at the entries only when that is
    not finite, so a step allocates nothing unless a check fails or a total
    overflows.  What a rejected step leaves behind:

    * a non-finite gradient (caught by the clip) changes nothing;
    * a non-finite update leaves the parameters as they were, but
      ``step_count`` is incremented and ``m``/``v`` hold the new moments;
    * an update that overflows a parameter leaves the non-finite values in
      the parameters (``ParamVector.check_finite`` raises).
    """

    def __init__(
        self,
        params: ParamVector,
        lr: float,
        lr_overrides: Optional[Dict[str, float]] = None,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        max_grad_norm: Optional[float] = 10.0,
    ):
        self.params = params
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.max_grad_norm = max_grad_norm
        self.step_count = 0
        self.m = np.zeros(params.size)
        self.v = np.zeros(params.size)
        self._scratch = np.empty((2, params.size))
        self.lr = lr
        # (start, end, rate) of every slice with a rate of its own
        self._overrides = [(*params.slice_bounds(name), rate)
                           for name, rate in (lr_overrides or {}).items()]

    def step(self) -> None:
        u, w = self._scratch
        g = self.params.grads
        if self.max_grad_norm is not None:
            g = clip_grad_norm(g, self.max_grad_norm, out=u)
        self.step_count += 1
        # m = b1*m + (1-b1)*g and v = b2*v + ((1-b2)*g)*g; g*g first would round differently
        np.multiply(g, 1 - self.beta1, out=w)
        self.m *= self.beta1
        self.m += w
        np.multiply(g, 1 - self.beta2, out=w)
        w *= g
        self.v *= self.beta2
        self.v += w
        # update = (lr * (m/c1)) / (sqrt(v/c2) + eps), built in u (the clipped g is spent)
        c1 = 1 - self.beta1**self.step_count
        np.divide(self.m, c1, out=u)
        u *= self.lr
        for lo, hi, rate in self._overrides:
            np.divide(self.m[lo:hi], c1, out=u[lo:hi])
            u[lo:hi] *= rate
        np.divide(self.v, 1 - self.beta2**self.step_count, out=w)
        np.sqrt(w, out=w)
        w += self.eps
        u /= w
        if not _all_finite(u, u.sum()):
            raise NonFiniteError("optimizer update is non-finite; step rejected")
        self.params.values -= u
        self.params.check_finite()


def grad_check(params: ParamVector, value_and_grad: Callable[[], float],
               rng: np.random.Generator) -> float:
    """Max relative error between analytic gradients and central differences.

    ``value_and_grad`` must zero and refill ``params.grads`` and return the
    loss at the current parameters; it must be deterministic.
    """
    max_checks, step = 200, 1e-5
    value_and_grad()
    analytic = params.grads.copy()
    idx = np.arange(params.size)
    if params.size > max_checks:
        idx = rng.choice(params.size, size=max_checks, replace=False)
    worst = 0.0
    for i in idx:
        orig = params.values[i]
        params.values[i] = orig + step
        hi = value_and_grad()
        params.values[i] = orig - step
        lo = value_and_grad()
        params.values[i] = orig
        fd = (hi - lo) / (2 * step)
        denom = max(abs(fd), abs(analytic[i]), 1e-6)
        worst = max(worst, abs(fd - analytic[i]) / denom)
    value_and_grad()  # restore gradient state at the original parameters
    return worst


# -- checkpointing -----------------------------------------------------------

CHECKPOINT_FORMAT = "stablegfn-checkpoint"
CHECKPOINT_VERSION = 2


def _encode_array(a: np.ndarray) -> Dict[str, object]:
    shape = list(np.asarray(a).shape)  # before ascontiguousarray, which promotes 0-d
    a = np.ascontiguousarray(a, dtype=np.float64)
    return {"shape": shape, "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: Dict[str, object]) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    return np.frombuffer(raw, dtype=np.float64).reshape(d["shape"]).copy()


def save_checkpoint(
    path: str,
    params: ParamVector,
    optimizer: Optional[AdamOptimizer],
    model: Dict[str, object],
    env: Dict[str, object],
) -> None:
    """Write a bit-exact JSON checkpoint (float64 payloads are base64-encoded)
    with the run's resolved ``model`` and ``env`` config sections."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "model": model,
        "env": env,
        "params": {name: _encode_array(params.view(name)) for name in params.names},
    }
    if optimizer is not None:
        doc["optimizer"] = {"step_count": optimizer.step_count,
                            "m": _encode_array(optimizer.m), "v": _encode_array(optimizer.v)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def load_checkpoint(path: str) -> Dict[str, object]:
    """A checkpoint's document with its parameter slices decoded; every fault
    of the file raises a ValueError that starts with its name."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # a JSONDecodeError or UnicodeDecodeError
            raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {doc.get('version')}")
    for key in ("model", "env", "params"):
        if key not in doc:
            raise ValueError(f"{path}: no {key!r} in the checkpoint")
    if not isinstance(doc["params"], dict):
        raise ValueError(f"{path}: 'params' is not a mapping of parameter slices")
    for name, enc in doc["params"].items():
        try:
            doc["params"][name] = _decode_array(enc)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: parameter slice {name!r} does not decode ({exc})") from None
    return doc
