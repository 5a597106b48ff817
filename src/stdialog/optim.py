"""Decoupled-weight-decay Adam, global-norm clipping, LR schedules."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import NonFiniteError


@dataclass(frozen=True)
class AdamWConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    clip_norm: float = 1.0       # 0 disables clipping


class AdamW:
    """First/second-moment update with bias correction; weight decay is
    applied directly to parameters, not through the gradient."""

    def __init__(self, params: list, config: AdamWConfig = AdamWConfig()):
        self.params = list(params)
        self.config = config
        self.t = 0
        self.m = {p.name: np.zeros_like(p.data) for p in self.params}
        self.v = {p.name: np.zeros_like(p.data) for p in self.params}

    def global_grad_norm(self) -> float:
        total = 0.0
        for p in self.params:
            total += float((p.grad.astype(np.float64) ** 2).sum())
        return math.sqrt(total)

    def step(self, lr: float) -> None:
        cfg = self.config
        for p in self.params:
            if not np.all(np.isfinite(p.grad)):
                raise NonFiniteError(
                    f"non-finite gradient in parameter {p.name}; aborting "
                    f"optimizer step")
        grad_scale = 1.0
        if cfg.clip_norm > 0:
            norm = self.global_grad_norm()
            if norm > cfg.clip_norm:
                grad_scale = cfg.clip_norm / norm
        self.t += 1
        bc1 = 1.0 - cfg.beta1 ** self.t
        bc2 = 1.0 - cfg.beta2 ** self.t
        for p in self.params:
            g = p.grad * grad_scale
            m = self.m[p.name]
            v = self.v[p.name]
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            m_hat = m / bc1
            v_hat = v / bc2
            update = m_hat / (np.sqrt(v_hat) + cfg.eps) \
                + cfg.weight_decay * p.data
            p.data = p.data - (lr * update).astype(p.data.dtype)

    def load_state_dict(self, state: dict) -> None:
        self.t = int(state["t"])
        for p in self.params:
            self.m[p.name] = np.asarray(state["m"][p.name]).copy()
            self.v[p.name] = np.asarray(state["v"][p.name]).copy()


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
