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

Each objective takes the batch's ``encoders.FusedBatch``, maps the rows
it needs from all samples through the batch's packed layout at once
(``text_rows`` or ``frame_rows``), runs its head once and ends in one loss
node: a [b] tensor of each sample's mean loss over its own rows, 0 for a
sample with none.  Each objective's ``*_rows`` function names its layout
rows; the loss reads through it, and ``model.compute_losses`` asks the
fusion layer for the union of the four before the forward.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (Init, Parameter, Tensor, add, concat, cross_entropy,
                       linear, mae, matmul, mse, scale)
from .corpus import MAX_TURN_SECONDS, Sample
from .encoders import FusedBatch
from .text import TextMaskPlan

CRS_POSITIVE = 0
CRS_SPEECH_SUBSTITUTED = 1
CRS_TEXT_SUBSTITUTED = 2
CRS_BOTH_SUBSTITUTED = 3


@dataclass
class TppHead:
    w_start: Parameter      # [d_h, 1]
    w_end: Parameter        # [d_h, 1]


def init_tpp_head(init: Init, d_h: int) -> TppHead:
    return TppHead(w_start=init.normal("tpp.w_start", (d_h, 1)),
                   w_end=init.normal("tpp.w_end", (d_h, 1)))


def tpp_rows(fused: FusedBatch, word_tokens: np.ndarray) -> tuple:
    """The layout rows of each aligned word's first token, then of each
    word's last token (``word_tokens``, [w, 2] positions in the packed
    text), and each row's sample."""
    return fused.text_rows(word_tokens.T.ravel(), "word boundary")


def tpp_predictions(fused: FusedBatch, word_tokens: np.ndarray,
                    word_times: np.ndarray, head: TppHead) -> tuple:
    """Over the batch's aligned words (``word_tokens``, the [w, 2] first
    and last positions of each in the packed text, and ``word_times``,
    its start and end time), the [2w, 1] predictions read at each word's
    first token, then at each word's last token; their targets (start,
    then end, over ``MAX_TURN_SECONDS``); and each row's sample."""
    rows, sample = tpp_rows(fused, word_tokens)
    target = (word_times.T / MAX_TURN_SECONDS).astype(
        fused.hidden.dtype).reshape(-1, 1)
    w = len(word_tokens)
    pred = concat([
        matmul(fused.gather(rows[:w], "word boundary"), head.w_start),
        matmul(fused.gather(rows[w:], "word boundary"), head.w_end)])
    return pred, target, sample


def tpp_loss(fused: FusedBatch, word_tokens: np.ndarray,
             word_times: np.ndarray, head: TppHead) -> Tensor:
    """Each sample's mean over its words of 0.5 * [(pred_start - s/L)^2 +
    (pred_end - e/L)^2]; 0 for a sample without words."""
    pred, target, sample = tpp_predictions(fused, word_tokens, word_times,
                                           head)
    return mse(pred, target, sample, len(fused))


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

    prev_aligned = (sample.word_times[0], None)
    if label == CRS_SPEECH_SUBSTITUTED:
        _, turn = _random_turn(dialogs, sample.dialog_id, rng)
        corrupted = replace(
            sample, speech_cur=turn.waveform, word_times=prev_aligned,
            cmam_turns=(True, False))
    elif label == CRS_TEXT_SUBSTITUTED:
        _, turn = _random_turn(dialogs, sample.dialog_id, rng)
        text_turns = [list(t) for t in sample.text_turns]
        text_turns[-1] = turn.transcript
        corrupted = replace(
            sample, text_turns=text_turns, word_times=prev_aligned,
            cmam_turns=(True, True))
    else:  # both substituted; both-substituted samples carry no alignment
        _, text_turn = _random_turn(dialogs, sample.dialog_id, rng)
        _, speech_turn = _random_turn(dialogs, sample.dialog_id, rng)
        text_turns = [list(t) for t in sample.text_turns]
        text_turns[-1] = text_turn.transcript
        corrupted = replace(
            sample, text_turns=text_turns, speech_cur=speech_turn.waveform,
            word_times=(None, None), cmam_turns=(False, False))
    return corrupted, label


def crs_logits(fused: FusedBatch, weight: Parameter,
               bias: Parameter) -> Tensor:
    """[b, 4] logits of a linear classifier on each fused <s> state."""
    return linear(fused.gather(fused.start, "response selection"), weight,
                  bias)


def crs_rows(fused: FusedBatch, labels: list) -> tuple:
    """The <s> layout rows of the samples whose selection label is not
    None, and those samples."""
    sample = np.array([i for i, label in enumerate(labels)
                       if label is not None], dtype=np.intp)
    return fused.start[sample], sample


def crs_loss(fused: FusedBatch, labels: list, weight: Parameter,
             bias: Parameter) -> Tensor:
    """Each sample's cross-entropy of the 4-way response-selection logits
    against its label; 0 for a sample whose label is None."""
    rows, sample = crs_rows(fused, labels)
    states = fused.gather(rows, "response selection")
    return cross_entropy(linear(states, weight, bias),
                         [labels[i] for i in sample], sample, len(fused))


def cmlm_rows(fused: FusedBatch, plan: TextMaskPlan | None) -> tuple:
    """The layout rows of the masked text positions of ``plan`` (none
    when it is None), and each row's sample."""
    positions = np.zeros(0, np.intp) if plan is None else plan.positions
    return fused.text_rows(positions, "masked position")


def cmlm_loss(fused: FusedBatch, plan: TextMaskPlan | None,
              weight: Parameter, bias: Parameter) -> Tensor:
    """Each sample's mean cross-entropy of the vocabulary head on its
    masked text positions, of the batch's ``plan`` over its packed text;
    0 for a sample without any, or for all when ``plan`` is None."""
    rows, sample = cmlm_rows(fused, plan)
    logits = linear(fused.gather(rows, "masked position"), weight, bias)
    return cross_entropy(logits, [] if plan is None else plan.labels,
                         sample, len(fused))


def cmam_rows(fused: FusedBatch, keep: np.ndarray) -> tuple:
    """The layout rows of the speech frames flagged in ``keep``, a bool
    over the batch's frames in ``FusedBatch.frame_rows`` order, and each
    row's sample; a ``keep`` of another length than the batch's frames
    raises ``IndexError``."""
    rows = fused.frame_rows()
    if keep.shape != rows.shape:
        raise IndexError(f"keep covers {keep.size} frames but the fused "
                         f"batch holds {rows.size}")
    sample = np.repeat(np.arange(len(fused)), fused.m_prev + fused.m_cur)
    return rows[keep], sample[keep]


def cmam_loss(fused: FusedBatch, keep: np.ndarray, targets: np.ndarray,
              weight: Parameter, bias: Parameter) -> Tensor:
    """Each sample's mean absolute error reconstructing its scored
    extractor frames; 0 for a sample without any.

    ``keep`` is a bool over the batch's speech frames in
    ``FusedBatch.frame_rows`` order, true at each frame scored, and
    ``targets`` the pre-mask extractor outputs at those frames, in order,
    as a plain array (constants).  A ``keep`` of another length than the
    batch's frames raises ``IndexError``.
    """
    rows, sample = cmam_rows(fused, keep)
    preds = linear(fused.gather(rows, "masked frame"), weight, bias)
    return mae(preds, targets, sample, len(fused))


def joint_loss(tpp: Tensor, crs: Tensor | None, cmlm: Tensor, cmam: Tensor,
               alpha: float) -> Tensor:
    """alpha * alignment + selection + mlm + mam (selection optional), per
    sample."""
    total = scale(tpp, alpha)
    if crs is not None:
        total = add(total, crs)
    return add(add(total, cmlm), cmam)
