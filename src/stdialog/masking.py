"""Span masking of acoustic frames, a short-span baseline, and a rate simulator.

The span masker scans frame indices left to right.  One span length n is
drawn per turn from ``span_range`` (inclusive).  At each index the scan
triggers with ``trigger_prob``; on a trigger, frames [i, i+n) are marked
masked (clipped at the turn's end) and the scan jumps to i+n, so spans
never re-trigger inside themselves.  Each masked frame is then zeroed with
probability 0.8, replaced by a random frame of the same turn with
probability 0.1, and kept unchanged otherwise.

One kernel, ``span_masks``, runs the scan for a batch of sequences at once:
``draw_mask_plan`` calls it once for all the speech turns of a training
batch, and ``estimate_mask_rate`` once per chunk of Monte Carlo trials.

``frontend.project_features`` applies a plan's corruption to extractor
output, before the projection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ZERO, REPLACE, KEEP = 0, 1, 2
UNMASKED = -1
# the chances that a masked frame is zeroed or replaced; KEEP takes the rest
P_ZERO, P_REPLACE = 0.8, 0.1
# Monte Carlo trials per span_masks call: peak memory stays flat in trials
_MC_CHUNK = 256


@dataclass(frozen=True)
class AcousticMaskConfig:
    trigger_prob: float = 0.15
    span_range: tuple = (20, 50)

    def __post_init__(self):
        if not 0.0 <= self.trigger_prob <= 1.0:
            raise ValueError(f"trigger_prob {self.trigger_prob} not in [0,1]")
        # a float span would be drawn as the integers below it
        if len(self.span_range) != 2 or not all(
                isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                for n in self.span_range):
            raise ValueError(f"span_range {self.span_range} is not two "
                             f"integers")
        lo, hi = self.span_range
        if not (1 <= lo <= hi):
            raise ValueError(f"span_range {self.span_range} is empty")


DEFAULT_SPAN_CONFIG = AcousticMaskConfig()
# short fixed spans tuned to ~14% coverage (3 masked per 19-frame gap)
DEFAULT_BASELINE_CONFIG = AcousticMaskConfig(trigger_prob=0.05,
                                             span_range=(3, 3))


@dataclass
class MaskPlan:
    """Per-frame mask decisions over the frames of a batch's turns, packed
    back to back."""

    mask: np.ndarray                 # bool [frames]
    actions: np.ndarray              # int [frames]; UNMASKED where not masked
    replacement_sources: np.ndarray  # int [frames]; source frame, else -1


def span_masks(triggers: np.ndarray, n: np.ndarray, p: float) -> tuple:
    """Run the span scan on each row of ``triggers`` [T, L] at once.

    Row r fires at index i when ``triggers[r, i] < p``; the scan takes the
    first firing index as a span start, masks ``n[r]`` frames from it
    (clipped at L) and resumes after the span.  Returns (mask, starts),
    both bool [T, L]; ``starts`` marks the span starts.

    The firing indices of all rows, flattened with one always-firing
    sentinel column per row, are sorted, so one ``searchsorted`` finds every
    row's next firing index at or after its query, and the sentinel keeps
    the answer inside the row.  The scan jumps from span start to span
    start, all rows per step, until every row has reached its sentinel:
    one step more than the most spans in any row, at most
    ceil(L / min(n)) + 1 steps.  Spans are marked by a +1 at each start
    and a -1 at each end summed along the row; an end can fall on the next
    span's start, so the ends are subtracted after all starts are set.
    """
    # method calls and few temporaries: at a training batch's few short
    # turns the cost is per numpy call, not per element
    t, length = triggers.shape
    width = length + 1
    fires = np.empty((t, width), dtype=bool)
    fires[:, length] = True
    np.less(triggers, p, out=fires[:, :length])
    fired = fires.ravel().nonzero()[0]
    row_end = np.arange(length, t * width, width)  # each row's sentinel
    pos = fired[fired.searchsorted(row_end - length)]
    found = [pos]
    while (pos < row_end).any():
        pos = fired[fired.searchsorted(np.minimum(pos + n, row_end))]
        found.append(pos)
    found = np.array(found)  # [jumps, T] flat indices; row_end once done
    starts = np.zeros((t, width), dtype=bool)
    starts.ravel()[found] = True
    edges = starts.view(np.int8).copy()
    edges.ravel()[np.minimum(found + n, row_end)] -= 1
    mask = np.add.accumulate(edges, axis=1, dtype=np.int8)
    return mask[:, :length].view(bool), starts[:, :length]


def draw_mask_plan(lengths, rng: np.random.Generator,
                   config: AcousticMaskConfig = DEFAULT_SPAN_CONFIG) -> MaskPlan:
    """One mask plan over the packed frames of turns of ``lengths`` frames.

    Draws, in this order: one span length per turn; the triggers [turns,
    longest turn], one uniform per frame (the scan reads entries only at
    tested indices, so the induced plan distribution is identical to
    drawing at each step), set to 1.0 past a turn's end so they never
    fire; one uniform per masked frame, in packed order, for its
    corruption; one source frame per replaced frame, within its own turn.
    One ``span_masks`` call scans all turns; spans are cut at turn ends.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
        raise ValueError(f"need at least one frame per turn, got lengths "
                         f"{lengths.tolist()}")
    lo, hi = config.span_range
    n = rng.integers(lo, hi + 1, size=lengths.size)
    inside = np.arange(lengths.max()) < lengths[:, None]
    triggers = rng.random(inside.shape)
    triggers[~inside] = 1.0
    masks, _ = span_masks(triggers, n, config.trigger_prob)
    mask = masks[inside]
    masked = np.flatnonzero(mask)
    t = rng.random(masked.size)
    act = np.where(t < P_ZERO, ZERO,
                   np.where(t < P_ZERO + P_REPLACE, REPLACE, KEEP))
    actions = np.full(mask.size, UNMASKED, dtype=np.int64)
    actions[masked] = act
    replaced = masked[act == REPLACE]
    turn = np.repeat(np.arange(lengths.size), lengths)[replaced]
    sources = np.full(mask.size, -1, dtype=np.int64)
    sources[replaced] = (np.cumsum(lengths) - lengths)[turn] \
        + rng.integers(0, lengths[turn])
    return MaskPlan(mask=mask, actions=actions, replacement_sources=sources)


def estimate_mask_rate(config: AcousticMaskConfig, length: int, trials: int,
                       seed: int = 0) -> tuple:
    """Monte Carlo mean masked fraction over ``trials`` plans, with stderr.

    Trials run in chunks of ``_MC_CHUNK`` (the last one shorter); each
    chunk draws its span lengths ``n`` [T], then its triggers [T, length],
    and runs ``span_masks``, the scan that training plans use, so the
    estimate measures the masker as implemented.  It keeps its own draws
    rather than ``draw_mask_plan``'s: its trials share one length and need
    no corruption draws.  Masked-frame counts are summed as integers, so
    the result depends only on the draws.
    ``expected_mask_rate`` is the independent check.
    """
    if trials < 10_000:
        raise ValueError(f"need at least 10^4 trials, got {trials}")
    if length < 1:
        raise ValueError(f"need at least one frame, got length {length}")
    rng = np.random.default_rng(seed)
    lo, hi = config.span_range
    total = total_sq = 0
    for done in range(0, trials, _MC_CHUNK):
        t = min(_MC_CHUNK, trials - done)
        n = rng.integers(lo, hi + 1, size=t)
        mask, _ = span_masks(rng.random((t, length)), n,
                             config.trigger_prob)
        counts = np.count_nonzero(mask, axis=1)
        total += int(counts.sum())
        total_sq += int((counts * counts).sum())
    mean = total / (trials * length)
    # variance of the mean fraction, exact up to one rounding
    var = (trials * total_sq - total * total) / (trials ** 3 * length ** 2)
    return mean, math.sqrt(var)


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
