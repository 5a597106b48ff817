"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import NonFiniteError

# Relative error uses max(|analytic|, |numeric|, REL_FLOOR) as denominator,
# so coordinates whose true gradient is ~0 are judged on absolute error.
REL_FLOOR = 1e-3


@dataclass
class GradCheckReport:
    max_relative_error: float
    per_param: dict = field(default_factory=dict)

    def __str__(self):
        lines = [f"max_relative_error={self.max_relative_error:.3e}"]
        for name, err in sorted(self.per_param.items()):
            lines.append(f"  {name}: {err:.3e}")
        return "\n".join(lines)


def grad_check(loss_fn, params, epsilon: float = 1e-5,
               coords_per_param: int = 100, seed: int = 0) -> GradCheckReport:
    """Compare reverse-mode gradients against (f(t+e)-f(t-e)) / 2e.

    ``loss_fn`` must rebuild its graph from ``params`` on every call and be
    deterministic (fix any RNG before constructing the closure).  Parameters
    must be float64; finite differences at epsilon=1e-5 are meaningless in
    float32.  At most ``coords_per_param`` coordinates are sampled per
    parameter (all coordinates when the parameter is smaller).
    """
    params = list(params)
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError(
                f"grad_check requires float64 parameters, {p.name} is "
                f"{p.data.dtype}")
    for p in params:
        p.zero_grad()
    loss = loss_fn()
    if not np.isfinite(loss.data):
        raise NonFiniteError("grad_check: loss is not finite")
    loss.backward()
    analytic = {p.name: p.grad.copy() for p in params}

    rng = np.random.default_rng(seed)
    per_param = {}
    for p in params:
        flat = p.data.reshape(-1)
        size = flat.size
        if size <= coords_per_param:
            coords = np.arange(size)
        else:
            coords = rng.choice(size, size=coords_per_param, replace=False)
        worst = 0.0
        a_flat = analytic[p.name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + epsilon
            f_plus = loss_fn().item()
            flat[c] = orig - epsilon
            f_minus = loss_fn().item()
            flat[c] = orig
            fd = (f_plus - f_minus) / (2.0 * epsilon)
            a = float(a_flat[c])
            rel = abs(a - fd) / max(abs(a), abs(fd), REL_FLOOR)
            worst = max(worst, rel)
        per_param[p.name] = worst
    return GradCheckReport(
        max_relative_error=max(per_param.values()) if per_param else 0.0,
        per_param=per_param)
