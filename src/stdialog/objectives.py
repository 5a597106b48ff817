"""Pre-training losses and the joint objective.

Four components over one fused forward pass:

* time-alignment regression (per word of the last two turns, squared error
  on normalized start/end times read at the word's first/last token),
* response selection (4-way classification on the fused <s> state:
  intact / speech substituted / text substituted / both substituted),
* masked language modeling (cross-entropy on masked text positions),
* masked acoustic modeling (mean absolute error reconstructing masked
  extractor frames from fused speech states).

Joint objective: alpha * time_alignment + response_selection + mlm + mam.

Substituted content breaks word-time alignment, so corrupted samples keep
alignment supervision only on turns whose text AND speech are both
original; both-substituted samples contribute response selection and MLM
only.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (Parameter, Tensor, add, cross_entropy, gather_rows,
                       linear, mae, matmul, mul, register, reshape, scale,
                       sub, reduce_sum)
from .corpus import Sample
from .encoders import FusedRepresentation
from .masking import MaskPlan
from .text import TextMaskPlan

CRS_POSITIVE = 0
CRS_SPEECH_SUBSTITUTED = 1
CRS_TEXT_SUBSTITUTED = 2
CRS_BOTH_SUBSTITUTED = 3


@dataclass(frozen=True)
class LossWeights:
    alpha: float = 1.0      # weight of the time-alignment term

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")


@dataclass
class TppHead:
    w_start: Parameter      # [d_h, 1]
    w_end: Parameter        # [d_h, 1]
    max_seconds: float = 10.0


def init_tpp_head(registry: dict, rng: np.random.Generator, d_h: int,
                  max_seconds: float = 10.0, dtype=np.float32,
                  scale: float = 0.02) -> TppHead:
    def mk(name):
        return register(registry, name,
                        (scale * rng.standard_normal((d_h, 1))).astype(dtype))

    return TppHead(w_start=mk("tpp.w_start"), w_end=mk("tpp.w_end"),
                   max_seconds=max_seconds)


def _zero(dtype) -> Tensor:
    return Tensor(np.zeros((), dtype=dtype))


def tpp_predictions(fused: FusedRepresentation, boundaries: list,
                    head: TppHead) -> tuple:
    """(pred_start, pred_end) tensors [w] read at each word's first/last
    token, and their targets (start, end over max_seconds) as arrays."""
    dtype = fused.hidden.dtype
    firsts = np.array([b.first_token_index for b in boundaries], dtype=np.intp)
    lasts = np.array([b.last_token_index for b in boundaries], dtype=np.intp)
    if boundaries and (firsts.min() < 0 or lasts.max() >= fused.n_text):
        raise IndexError(
            f"word boundary outside text span [0, {fused.n_text}): "
            f"first={firsts.min()}, last={lasts.max()}")
    la = head.max_seconds
    t_start = np.array([b.start_time / la for b in boundaries], dtype=dtype)
    t_end = np.array([b.end_time / la for b in boundaries], dtype=dtype)
    w = len(boundaries)
    pred_start = reshape(matmul(gather_rows(fused.hidden, firsts),
                                head.w_start), (w,))
    pred_end = reshape(matmul(gather_rows(fused.hidden, lasts),
                              head.w_end), (w,))
    return pred_start, pred_end, t_start, t_end


def tpp_loss(fused: FusedRepresentation, boundaries: list,
             head: TppHead) -> Tensor:
    """Mean over words of 0.5 * [(pred_start - s/L)^2 + (pred_end - e/L)^2]."""
    if not boundaries:
        return _zero(fused.hidden.dtype)
    pred_start, pred_end, t_start, t_end = tpp_predictions(fused, boundaries,
                                                           head)
    ds = sub(pred_start, Tensor(t_start))
    de = sub(pred_end, Tensor(t_end))
    total = add(reduce_sum(mul(ds, ds)), reduce_sum(mul(de, de)))
    return scale(total, 0.5 / len(boundaries))


def _random_turn(dialogs: list, exclude_dialog_id: str,
                 rng: np.random.Generator):
    pool = [d for d in dialogs if d.dialog_id != exclude_dialog_id]
    if not pool:
        raise ValueError(
            "response-selection negatives need at least 2 dialogs in the "
            "corpus")
    d = pool[int(rng.integers(0, len(pool)))]
    return d, d.turns[int(rng.integers(0, len(d.turns)))]


def make_crs_sample(sample: Sample, dialogs: list, rng: np.random.Generator,
                    class_probs=(0.25, 0.25, 0.25, 0.25)) -> tuple:
    """Draw a response-selection class and corrupt the sample accordingly.

    Returns (possibly substituted sample, class label).  Substitutions are
    drawn uniformly from the turns of other dialogs.  The positive class
    returns the sample object untouched.
    """
    probs = np.asarray(class_probs, dtype=np.float64)
    if probs.shape != (4,) or abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError(f"class_probs must be 4 probabilities summing to 1, "
                         f"got {class_probs}")
    label = int(rng.choice(4, p=probs))
    if label == CRS_POSITIVE:
        return sample, label

    prev_tpp = [w for w in sample.tpp_words if w.turn_flag == 0]
    if label == CRS_SPEECH_SUBSTITUTED:
        _, turn = _random_turn(dialogs, sample.dialog_id, rng)
        corrupted = replace(
            sample, speech_cur=turn.waveform, tpp_words=prev_tpp,
            cmam_turns=(True, False))
    elif label == CRS_TEXT_SUBSTITUTED:
        _, turn = _random_turn(dialogs, sample.dialog_id, rng)
        text_turns = [list(t) for t in sample.text_turns]
        text_turns[-1] = turn.transcript
        corrupted = replace(
            sample, text_turns=text_turns, tpp_words=prev_tpp,
            cmam_turns=(True, True))
    else:  # both substituted; both-substituted samples carry no alignment
        _, text_turn = _random_turn(dialogs, sample.dialog_id, rng)
        _, speech_turn = _random_turn(dialogs, sample.dialog_id, rng)
        text_turns = [list(t) for t in sample.text_turns]
        text_turns[-1] = text_turn.transcript
        corrupted = replace(
            sample, text_turns=text_turns, speech_cur=speech_turn.waveform,
            tpp_words=[], cmam_turns=(False, False))
    return corrupted, label


def crs_logits(fused: FusedRepresentation, weight: Parameter,
               bias: Parameter) -> Tensor:
    """[1, 4] logits of a linear classifier on the fused <s> state."""
    return linear(gather_rows(fused.hidden, np.array([0])), weight, bias)


def crs_loss(fused: FusedRepresentation, label: int, weight: Parameter,
             bias: Parameter) -> Tensor:
    """Cross-entropy of the 4-way response-selection logits."""
    return cross_entropy(crs_logits(fused, weight, bias), np.array([label]))


def cmlm_loss(fused: FusedRepresentation, plan: TextMaskPlan,
              weight: Parameter, bias: Parameter) -> Tensor:
    """Mean cross-entropy of the vocabulary head on masked text positions."""
    if plan is None or plan.is_empty:
        return _zero(fused.hidden.dtype)
    if plan.positions.max() >= fused.n_text:
        raise IndexError(
            f"masked position {plan.positions.max()} outside text span "
            f"[0, {fused.n_text})")
    states = gather_rows(fused.hidden, plan.positions)
    logits = linear(states, weight, bias)
    return cross_entropy(logits, plan.labels)


def cmam_loss(fused: FusedRepresentation, plan_prev: MaskPlan | None,
              plan_cur: MaskPlan | None, target_prev, target_cur,
              weight: Parameter, bias: Parameter) -> Tensor:
    """Mean absolute error reconstructing masked extractor frames.

    Targets are the pre-mask extractor outputs at masked positions, passed
    as plain arrays (constants).  Plans map frame indices to fused
    positions through the sequence layout; a plan whose length disagrees
    with the fused layout is an error.
    """
    dtype = fused.hidden.dtype
    indices = []
    targets = []
    for plan, target, m, to_fused in (
            (plan_prev, target_prev, fused.m_prev, fused.prev_frame_index),
            (plan_cur, target_cur, fused.m_cur, fused.cur_frame_index)):
        if plan is None:
            continue
        if plan.length != m:
            raise IndexError(
                f"mask plan covers {plan.length} frames but the fused "
                f"sequence holds {m}")
        masked = plan.masked_indices()
        if masked.size == 0:
            continue
        if target is None or len(target) != masked.size:
            raise IndexError(
                f"need {masked.size} target frames, got "
                f"{0 if target is None else len(target)}")
        indices.append(to_fused(masked))
        targets.append(np.asarray(target, dtype=dtype))
    if not indices:
        return _zero(dtype)
    states = gather_rows(fused.hidden, np.concatenate(indices))
    preds = linear(states, weight, bias)
    return mae(preds, np.concatenate(targets, axis=0))


def joint_loss(tpp: Tensor, crs: Tensor | None, cmlm: Tensor, cmam: Tensor,
               weights: LossWeights) -> Tensor:
    """alpha * alignment + selection + mlm + mam (selection optional)."""
    total = scale(tpp, weights.alpha)
    if crs is not None:
        total = add(total, crs)
    return add(add(total, cmlm), cmam)
