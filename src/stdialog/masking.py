"""Span masking of acoustic frames, a short-span baseline, and a rate simulator.

The span masker scans frame indices left to right.  One span length n is
drawn per turn from ``span_range`` (inclusive).  At each index the scan
triggers with ``trigger_prob``; on a trigger, frames [i, i+n) are marked
masked (clipped at the turn's end) and the scan jumps to i+n, so spans
never re-trigger inside themselves.  Each masked frame is then zeroed with
probability 0.8, replaced by a random frame of the same turn with
probability 0.1, and kept unchanged otherwise.

One kernel, ``draw_spans``, draws the scan's spans directly, one geometric
gap per span rather than one trigger per frame, for a batch of sequences
at once: ``draw_mask_plan`` calls it once for all the speech turns of a
training batch, and ``estimate_mask_rate`` once per chunk of Monte Carlo
trials.

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
# Monte Carlo trials per draw_spans call: memory grows with the spans, a
# few per trial, and the per-call cost is a few numpy calls per round
_MC_CHUNK = 1 << 14


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


def draw_spans(begin: np.ndarray, end: np.ndarray, n: np.ndarray, p: float,
               rng: np.random.Generator) -> tuple:
    """Draw the span scan of each sequence [begin[s], end[s]) at once.

    The scan tests each index at most once and each test fires with
    probability ``p`` independently, so the count of indices it tests from
    where it resumes up to its next firing one is geometric(p): drawing
    that count gives the same law of spans as one trigger per index.  In
    each round, every sequence still scanning draws its gap
    ``rng.geometric(p) - 1``, in sequence order.  A start at or past its end
    ends its scan; else sequence s masks ``n[s]`` frames from it (cut at its
    end) and scans on from after them while that is before its end.  ``p``
    0 draws nothing.  Returns (seq, start, stop), int [spans] in round
    order: sequence ``seq`` masks [start, stop).
    """
    seq = np.arange(begin.size)
    room = end - begin  # frames from each scan's resume point to its end
    found, rooms = [seq[:0]], [room[:0]]
    while p > 0 and seq.size:
        # a gap of steps - 1 starts a span inside iff steps <= room;
        # compared before adding, since steps can be 2^63 - 1 for tiny p
        steps = rng.geometric(p, size=seq.size)
        hit = steps <= room
        seq = seq[hit]
        room = room[hit] - steps[hit] + 1  # frames from the span start
        found.append(seq)
        rooms.append(room)
        room = room - n[seq]
        more = room > 0
        seq, room = seq[more], room[more]
    seq = np.concatenate(found)
    room = np.concatenate(rooms)
    start = end[seq] - room
    return seq, start, start + np.minimum(n[seq], room)


def draw_mask_plan(lengths, rng: np.random.Generator,
                   config: AcousticMaskConfig = DEFAULT_SPAN_CONFIG) -> MaskPlan:
    """One mask plan over the packed frames of turns of ``lengths`` frames.

    Draws, in this order: one span length per turn; the gaps of
    ``draw_spans`` over all turns at once; one uniform per masked frame,
    in packed order, for its corruption; one source frame per replaced
    frame, within its own turn.  The mask is a +1 at each span start and
    a -1 at each span end, summed along the packed frames.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    if lengths.ndim != 1 or not lengths.size or lengths.min() < 1:
        raise ValueError(f"need at least one frame per turn, got lengths "
                         f"{lengths.tolist()}")
    lo, hi = config.span_range
    n = rng.integers(lo, hi + 1, size=lengths.size)
    ends = np.cumsum(lengths)
    firsts = ends - lengths
    _, start, stop = draw_spans(firsts, ends, n, config.trigger_prob, rng)
    # starts are distinct and so are stops; a stop can fall on a start
    edges = np.zeros(ends[-1] + 1, dtype=np.int8)
    edges[start] = 1
    edges[stop] -= 1
    mask = np.add.accumulate(edges[:-1], dtype=np.int8).view(bool)
    masked = np.flatnonzero(mask)
    t = rng.random(masked.size)
    act = np.where(t < P_ZERO, ZERO,
                   np.where(t < P_ZERO + P_REPLACE, REPLACE, KEEP))
    actions = np.full(mask.size, UNMASKED, dtype=np.int64)
    actions[masked] = act
    replaced = masked[act == REPLACE]
    turn = np.repeat(np.arange(lengths.size), lengths)[replaced]
    sources = np.full(mask.size, -1, dtype=np.int64)
    sources[replaced] = firsts[turn] + rng.integers(0, lengths[turn])
    return MaskPlan(mask=mask, actions=actions, replacement_sources=sources)


def estimate_mask_rate(config: AcousticMaskConfig, length: int, trials: int,
                       seed: int = 0) -> tuple:
    """Monte Carlo mean masked fraction over ``trials`` plans, with stderr.

    Trials run in chunks of ``_MC_CHUNK`` (the last one shorter); each
    chunk draws its span lengths ``n`` [T], then runs ``draw_spans``, the
    kernel that training plans use, so the estimate measures the masker as
    implemented.  It keeps its own draws rather than ``draw_mask_plan``'s:
    its trials share one length and need no corruption draws.  Each
    trial's ``stop - start`` are summed as integers, so the result depends
    only on the draws.  ``expected_mask_rate`` is the independent check.
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
        seq, start, stop = draw_spans(np.zeros(t, np.intp),
                                      np.full(t, length), n,
                                      config.trigger_prob, rng)
        counts = np.zeros(t, dtype=np.int64)
        np.add.at(counts, seq, stop - start)
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
