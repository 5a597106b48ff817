"""Span masking of acoustic frames, a short-span baseline, and a rate simulator.

The span masker scans frame indices left to right.  One span length n is
drawn per call from ``span_range`` (inclusive).  At each index the scan
triggers with ``trigger_prob``; on a trigger, frames [i, i+n) are marked
masked (clipped at the sequence end) and the scan jumps to i+n, so spans
never re-trigger inside themselves.  Each masked frame is then zeroed with
probability 0.8, replaced by a random frame of the same sequence with
probability 0.1, and kept unchanged otherwise (split configurable).

Masking is meant to run on extractor output, before feature projection.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, gather_rows, mul

ZERO, REPLACE, KEEP = 0, 1, 2
UNMASKED = -1


@dataclass(frozen=True)
class AcousticMaskConfig:
    trigger_prob: float = 0.15
    span_range: tuple = (20, 50)
    corruption: tuple = (0.8, 0.1, 0.1)

    def __post_init__(self):
        if not 0.0 <= self.trigger_prob <= 1.0:
            raise ValueError(f"trigger_prob {self.trigger_prob} not in [0,1]")
        lo, hi = self.span_range
        if not (1 <= lo <= hi):
            raise ValueError(f"empty span_range {self.span_range}")
        if abs(sum(self.corruption) - 1.0) > 1e-9:
            raise ValueError(f"corruption split {self.corruption} must sum to 1")


def baseline_config(span_len: int = 3, trigger_prob: float = 0.05,
                    corruption: tuple = (0.8, 0.1, 0.1)) -> AcousticMaskConfig:
    """Short fixed spans tuned to ~14% coverage (3 masked per 19-frame gap)."""
    return AcousticMaskConfig(trigger_prob=trigger_prob,
                              span_range=(span_len, span_len),
                              corruption=corruption)


DEFAULT_SPAN_CONFIG = AcousticMaskConfig()
DEFAULT_BASELINE_CONFIG = baseline_config()


@dataclass
class MaskPlan:
    """Per-frame mask decisions for one feature sequence."""

    length: int
    span_length: int
    mask: np.ndarray                 # bool [length]
    actions: np.ndarray              # int [length]; UNMASKED where mask is False
    replacement_sources: np.ndarray  # int [length]; source frame where REPLACE
    span_starts: list = field(default_factory=list)

    @property
    def masked_fraction(self) -> float:
        return float(self.mask.mean()) if self.length else 0.0

    def masked_indices(self) -> np.ndarray:
        return np.flatnonzero(self.mask)


def draw_mask_plan(length: int, rng: np.random.Generator,
                   config: AcousticMaskConfig = DEFAULT_SPAN_CONFIG) -> MaskPlan:
    """Draw a mask plan for ``length`` frames.

    Trigger draws are batched into one uniform vector per call (the scan
    consumes entries only at tested indices, so the induced plan
    distribution is identical to drawing at each step), and corruption
    draws into one vector over masked frames in scan order.
    """
    if length < 1:
        raise ValueError(f"need at least one frame, got length {length}")
    lo, hi = config.span_range
    n = int(rng.integers(lo, hi + 1))
    triggers = rng.random(length)
    mask = np.zeros(length, dtype=bool)
    actions = np.full(length, UNMASKED, dtype=np.int64)
    sources = np.full(length, -1, dtype=np.int64)
    span_starts = []
    i = 0
    while i < length:
        if triggers[i] < config.trigger_prob:
            span_starts.append(i)
            mask[i:i + n] = True
            i += n
        else:
            i += 1
    masked_idx = np.flatnonzero(mask)
    if masked_idx.size:
        p_zero, p_replace, _ = config.corruption
        t = rng.random(masked_idx.size)
        act = np.where(t < p_zero, ZERO,
                       np.where(t < p_zero + p_replace, REPLACE, KEEP))
        actions[masked_idx] = act
        replace_at = masked_idx[act == REPLACE]
        if replace_at.size:
            sources[replace_at] = rng.integers(0, length, size=replace_at.size)
    return MaskPlan(length=length, span_length=n, mask=mask, actions=actions,
                    replacement_sources=sources, span_starts=span_starts)


def apply_mask_plan(features: Tensor, plan: MaskPlan) -> Tensor:
    """Differentiable corruption: zero / swap-in-random-frame / keep."""
    if features.shape[0] != plan.length:
        raise ValueError(
            f"plan length {plan.length} != features rows {features.shape[0]}")
    if not plan.mask.any():
        return features
    dim = features.shape[1]
    keep_rows = (plan.actions != ZERO) & (plan.actions != REPLACE)
    keep_mask = np.repeat(keep_rows.astype(features.dtype)[:, None], dim, axis=1)
    out = mul(features, Tensor(keep_mask))
    replace_rows = plan.actions == REPLACE
    if replace_rows.any():
        src = np.where(replace_rows, plan.replacement_sources, 0)
        donor = gather_rows(features, src)
        sel = np.repeat(replace_rows.astype(features.dtype)[:, None], dim, axis=1)
        out = out + mul(donor, Tensor(sel))
    return out


def estimate_mask_rate(config: AcousticMaskConfig, length: int, trials: int,
                       seed: int = 0) -> tuple:
    """Monte Carlo mean masked fraction over ``trials`` plans, with stderr.

    Runs the actual plan kernel per trial, so the estimate measures the
    masker as implemented; ``expected_mask_rate`` is the independent check.
    """
    if trials < 10_000:
        raise ValueError(f"need at least 10^4 trials, got {trials}")
    rng = np.random.default_rng(seed)
    total = 0.0
    total_sq = 0.0
    for _ in range(trials):
        frac = draw_mask_plan(length, rng, config).masked_fraction
        total += frac
        total_sq += frac * frac
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
    stderr = float(np.sqrt(var / trials))
    return mean, stderr


def expected_mask_rate(config: AcousticMaskConfig, length: int) -> float:
    """Exact expected masked fraction by backward recursion over scan states.

    Independent of the Monte Carlo path; used to cross-check the simulator.
    """
    lo, hi = config.span_range
    p = config.trigger_prob
    acc = 0.0
    for n in range(lo, hi + 1):
        expect = [0.0] * (length + n + 1)
        for i in range(length - 1, -1, -1):
            expect[i] = p * (min(n, length - i) + expect[i + n]) \
                + (1 - p) * expect[i + 1]
        acc += expect[0] / length
    return acc / (hi - lo + 1)
