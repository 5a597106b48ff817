"""Decoupled-weight-decay Adam, global-norm clipping, LR schedules.

``AdamW`` owns its parameters' storage: it copies them into one flat data
buffer and one flat gradient buffer, and rebinds each ``Parameter.data``
and ``Parameter.grad`` to a view of its slice.  From then on every writer
of parameters or gradients writes in place (``p.data[...] = x``,
``p.grad += g``); ``step`` raises ``ValueError`` naming a parameter whose
``data`` or ``grad`` was rebound.  The moments are flat too, and the
update runs over all parameters at once in L2-sized chunks.
"""

from __future__ import annotations

import math

import numpy as np

from .autodiff import NonFiniteError

# elements per chunk of the update: the chunk's slices of the five flat
# arrays and three scratch arrays stay in a 2 MB L2 at float32
_CHUNK = 1 << 15
BETA1 = 0.9     # first-moment decay
EPS = 1e-8      # added to the second-moment root


class AdamW:
    """First/second-moment update with bias correction; weight decay is
    applied directly to parameters, not through the gradient.

    ``data``, ``m`` and ``v`` are the flat parameter and moment buffers,
    in ``params`` order.  All parameters must share one dtype.  A
    ``clip_norm`` of 0 disables clipping."""

    def __init__(self, params: list, *, beta2: float = 0.999,
                 weight_decay: float = 0.01, clip_norm: float = 1.0):
        self.params = list(params)
        self.beta2, self.weight_decay = beta2, weight_decay
        self.clip_norm = clip_norm
        self.t = 0
        first = {}
        for p in self.params:
            first.setdefault(p.data.dtype, p)
        if len(first) > 1:
            raise ValueError("AdamW: parameters of mixed dtypes: " + ", "
                             .join(f"{p.name} is {dtype}"
                                   for dtype, p in first.items()))
        dtype = next(iter(first), np.dtype(np.float32))
        self._offsets = np.cumsum([0] + [p.data.size for p in self.params])
        n = int(self._offsets[-1])
        self.data = np.empty(n, dtype)
        self._grad = np.empty(n, dtype)
        self.m = np.zeros(n, dtype)
        self.v = np.zeros(n, dtype)
        self._views = []
        for p, lo, hi in zip(self.params, self._offsets, self._offsets[1:]):
            data = self.data[lo:hi].reshape(p.data.shape)
            grad = self._grad[lo:hi].reshape(p.data.shape)
            data[...] = p.data
            grad[...] = p.grad
            p.data, p.grad = data, grad
            self._views.append((p, data, grad))
        chunk = min(n, _CHUNK)
        self._scaled = np.empty(chunk, dtype)
        self._a = np.empty(chunk, dtype)
        self._b = np.empty(chunk, dtype)
        self._squares = np.empty(chunk, np.float64)

    def zero_grad(self) -> None:
        self._grad.fill(0)

    def global_grad_norm(self) -> float:
        """The L2 norm of all gradients, summed in float64 chunk by chunk;
        inf or nan if a gradient is not finite."""
        total = 0.0
        with np.errstate(over="ignore"):
            for lo in range(0, self._grad.size, _CHUNK):
                g = self._grad[lo:lo + _CHUNK]
                sq = np.square(g, out=self._squares[:g.size],
                               dtype=np.float64)
                total += float(sq.sum())
        return math.sqrt(total)

    def _non_finite_error(self) -> NonFiniteError:
        bad = np.flatnonzero(~np.isfinite(self._grad))
        if bad.size == 0:
            # a float64 gradient can be finite and still overflow the sum
            return NonFiniteError("gradient norm overflows float64; "
                                  "aborting optimizer step")
        owner = self.params[int(np.searchsorted(self._offsets, bad[0],
                                                side="right")) - 1]
        return NonFiniteError(f"non-finite gradient in parameter "
                              f"{owner.name}; aborting optimizer step")

    def check_views(self) -> None:
        """Raise ``ValueError`` naming the first parameter whose ``data`` or
        ``grad`` is no longer this optimizer's view, since the update
        would not reach it."""
        for p, data, grad in self._views:
            if p.data is not data or p.grad is not grad:
                raise ValueError(
                    f"parameter {p.name}: data or grad was rebound after the "
                    "optimizer was built; write parameters and gradients "
                    "in place")

    def step(self, lr: float) -> None:
        self.check_views()
        norm = self.global_grad_norm()
        if not math.isfinite(norm):
            raise self._non_finite_error()
        grad_scale = 1.0
        if self.clip_norm > 0 and norm > self.clip_norm:
            grad_scale = self.clip_norm / norm
        self.t += 1
        bc1 = 1.0 - BETA1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        # each element takes the ops, in the order and dtype, of
        #   g = grad * scale; m = b1*m + (1-b1)*g; v = b2*v + (1-b2)*g*g
        #   x -= lr * (m/bc1 / (sqrt(v/bc2) + eps) + wd*x)
        for lo in range(0, self.data.size, _CHUNK):
            x = self.data[lo:lo + _CHUNK]
            g = self._grad[lo:lo + _CHUNK]
            m = self.m[lo:lo + _CHUNK]
            v = self.v[lo:lo + _CHUNK]
            a, b = self._a[:x.size], self._b[:x.size]
            if grad_scale != 1.0:
                g = np.multiply(g, grad_scale, out=self._scaled[:x.size])
            m *= BETA1
            m += np.multiply(g, 1.0 - BETA1, out=a)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += EPS
            a /= b
            a += np.multiply(x, self.weight_decay, out=b)
            a *= lr
            x -= a


def lr_schedule(step: int, total_steps: int, peak_lr: float,
                warmup_frac: float, kind: str = "linear") -> float:
    """Linear ramp 0 -> peak over the warmup, then decay to 0.

    ``kind`` selects the decay: "linear" (pre-training) or "cosine"
    (fine-tuning).  ``step`` counts from 1 (first update) to total_steps.
    """
    if not 0.0 <= warmup_frac <= 1.0:
        raise ValueError(f"warmup_frac {warmup_frac} not in [0,1]")
    if step > total_steps:
        raise ValueError(f"step {step} beyond total {total_steps}")
    warmup_steps = int(round(warmup_frac * total_steps))
    if warmup_steps > 0 and step <= warmup_steps:
        return peak_lr * step / warmup_steps
    span = total_steps - warmup_steps
    if span <= 0:
        return peak_lr
    progress = (step - warmup_steps) / span
    if kind == "linear":
        return peak_lr * (1.0 - progress)
    if kind == "cosine":
        return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
    raise ValueError(f"unknown schedule kind {kind!r}")
