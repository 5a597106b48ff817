"""Prediction head, task evaluation, and a synthetic cross-modal task.

The head is two fully-connected layers with a GELU between them, applied
to the fused <s> state.  Regression tasks use squared error and a binary
accuracy thresholded at 0; classification uses cross-entropy and argmax
accuracy.

The synthetic 4-class task encodes one label bit in the transcript (which
marker word opens the current turn) and one bit only in the audio (a tone
signature rendered before the first word, absent from the transcript), so
the text-only ceiling is 2 of 4 classes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import corpus as cp
from .autodiff import (Init, Parameter, Tensor, cross_entropy, gelu, linear,
                       mse)
from .encoders import FusedBatch

REGRESSION = "regression"
CLASSIFICATION = "classification"


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    num_classes: int = 1          # d_o; 1 for regression

    def __post_init__(self):
        if self.kind not in (REGRESSION, CLASSIFICATION):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.kind == REGRESSION and self.num_classes != 1:
            raise ValueError("regression tasks have a single output")
        if self.kind == CLASSIFICATION and self.num_classes < 2:
            raise ValueError("classification needs >= 2 classes")

    @property
    def metric(self) -> str:
        return ("binary accuracy" if self.kind == REGRESSION
                else "multiclass accuracy")


@dataclass
class PredictionHead:
    w1: Parameter      # [d_h, d_h]
    b1: Parameter      # [d_h]
    w2: Parameter      # [d_h, d_o]
    b2: Parameter      # [d_o]

    @property
    def task(self) -> TaskSpec:   # one output regresses, more classify
        d_o = self.b2.data.size
        return TaskSpec(REGRESSION if d_o == 1 else CLASSIFICATION, d_o)


def init_prediction_head(init: Init, d_h: int, d_o: int) -> PredictionHead:
    return PredictionHead(
        w1=init.normal("head.w1", (d_h, d_h)), b1=init.zeros("head.b1", d_h),
        w2=init.normal("head.w2", (d_h, d_o)), b2=init.zeros("head.b2", d_o))


def predict_rows(fused: FusedBatch) -> np.ndarray:
    """The fused layout rows ``predict`` reads: each sample's <s> row."""
    return fused.start


def predict(fused: FusedBatch, head: PredictionHead) -> Tensor:
    """W2 gelu(W1 h + b1) + b2 on each sample's fused <s> state; output
    [b, d_o]."""
    h0 = fused.gather(predict_rows(fused), "prediction head")
    return linear(gelu(linear(h0, head.w1, head.b1)), head.w2, head.b2)


def task_loss(output: Tensor, labels: list, task: TaskSpec) -> Tensor:
    """Each sample's loss of its [b, d_o] output row against its label."""
    sample = np.arange(len(labels))
    if task.kind == REGRESSION:
        target = np.asarray(labels, dtype=output.dtype).reshape(-1, 1)
        return mse(output, target, sample, len(labels))
    return cross_entropy(output, labels, sample, len(labels))


def evaluate(task: TaskSpec, forward_fn, dataset: list) -> float:
    """Accuracy of ``forward_fn(sample) -> np.ndarray`` over (sample, label)
    pairs.  Regression counts sign agreement around 0; classification
    counts argmax hits."""
    if not dataset:
        raise ValueError("cannot evaluate on an empty dataset")
    hits = 0
    for sample, label in dataset:
        out = np.asarray(forward_fn(sample))
        if task.kind == REGRESSION:
            hits += int((out[0] >= 0.0) == (float(label) >= 0.0))
        else:
            hits += int(int(out.argmax()) == int(label))
    return hits / len(dataset)


# synthetic cross-modal task ---------------------------------------------

# the word id opening the current turn, by text bit
TEXT_MARKER_IDS = (0, 1)
# signature id of the audio-only tone, outside any vocabulary
TONE_ID = 1000


@dataclass
class CrossModalTaskConfig:
    num_dialogs: int = 64
    vocab_size: int = 24
    frame_rate: int = 100
    noise_std: float = 0.05

    @property
    def task_spec(self) -> TaskSpec:
        return TaskSpec(kind=CLASSIFICATION, num_classes=4)


def make_cross_modal_task(cfg: CrossModalTaskConfig, seed: int) -> tuple:
    """Two-turn dialogs whose label joins a text bit and an audio-only bit.

    Returns (dialogs, labels, TaskSpec), labels keyed by (dialog_id,
    target_turn_index) as in a labels manifest.  label =
    2*text_bit + speech_bit; text_bit is which marker word opens turn 2,
    speech_bit is whether a tone signature precedes the words in turn 2's
    waveform (never surfaced in the transcript).
    """
    rng = np.random.default_rng((seed, 0xF1E7))
    base = cp.SyntheticConfig(
        num_dialogs=1, turns_per_dialog=(1, 1), vocab_size=cfg.vocab_size,
        words_per_turn=(2, 4), frame_rate=cfg.frame_rate,
        noise_std=cfg.noise_std, word_duration=(0.15, 0.35))
    dialogs = []
    labels = {}
    tone_samples = int(round(0.3 * cfg.frame_rate))  # 0.3 s of tone or silence
    for i in range(cfg.num_dialogs):
        text_bit = int(rng.integers(0, 2))
        speech_bit = int(rng.integers(0, 2))
        context = cp.render_turn(1, base, rng)
        body = cp.render_turn(2, base, rng)
        marker_id = TEXT_MARKER_IDS[text_bit]
        marker_dur = int(round(rng.uniform(*base.word_duration)
                               * cfg.frame_rate))
        reps = -(-marker_dur // cp.SIGNATURE_PERIOD)
        marker_wave = np.tile(cp.word_signature(marker_id), reps)[:marker_dur]
        if cfg.noise_std > 0:
            marker_wave = marker_wave + rng.normal(
                0, cfg.noise_std, marker_wave.shape).astype(np.float32)
        if speech_bit:
            prefix = np.tile(cp.word_signature(TONE_ID),
                             -(-tone_samples // cp.SIGNATURE_PERIOD))
            prefix = prefix[:tone_samples].astype(np.float32)
        else:
            prefix = np.zeros(tone_samples, np.float32)
        if cfg.noise_std > 0:
            prefix = prefix + rng.normal(
                0, cfg.noise_std, prefix.shape).astype(np.float32)
        offset = (tone_samples + marker_dur) / cfg.frame_rate
        words = [cp.WordAlignment(base.word_text(marker_id),
                                  tone_samples / cfg.frame_rate,
                                  (tone_samples + marker_dur) / cfg.frame_rate)]
        words += [cp.WordAlignment(w.word, w.start_time + offset,
                                   w.end_time + offset) for w in body.words]
        waveform = np.concatenate(
            [prefix, marker_wave, body.waveform]).astype(np.float32)
        current = cp.Turn(turn_index=2, waveform=waveform, words=words,
                          sample_rate=cfg.frame_rate)
        dialog = cp.Dialog(dialog_id=f"task{seed:03d}_{i:04d}",
                           turns=[context, current])
        dialogs.append(dialog)
        labels[(dialog.dialog_id, current.turn_index)] = \
            2 * text_bit + speech_bit
    return dialogs, labels, cfg.task_spec


def task_samples(dialogs: list, labels: dict) -> list:
    """(Sample, label) pairs for the k=1 samples whose (dialog_id,
    target_turn_index) has a label."""
    return [(s, labels[(s.dialog_id, s.target_turn_index)])
            for d in dialogs for s in cp.build_samples(d, k=1)
            if (s.dialog_id, s.target_turn_index) in labels]


def replace_speech_with_noise(items: list, rng: np.random.Generator,
                              std: float = 1.0) -> list:
    """Text-only control: both speech turns become pure Gaussian noise."""
    out = []
    for sample, label in items:
        noisy = replace(
            sample,
            speech_prev=rng.normal(0, std, len(sample.speech_prev))
            .astype(np.float32),
            speech_cur=rng.normal(0, std, len(sample.speech_cur))
            .astype(np.float32))
        out.append((noisy, label))
    return out


def write_labels_manifest(path, labels: dict) -> None:
    """JSON lines of {dialog_id, target_turn_index, label}."""
    with open(path, "w") as fh:
        for (dialog_id, turn), label in sorted(labels.items()):
            fh.write(json.dumps({"dialog_id": dialog_id,
                                 "target_turn_index": turn,
                                 "label": int(label)}) + "\n")


def read_labels_manifest(path) -> dict:
    """{(dialog_id, target_turn_index): label} from the rows
    ``write_labels_manifest`` writes; a row that is not one, or whose label
    is not an integer or is negative, raises ``ValueError`` naming the
    file and line."""
    labels = {}
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
            label = rec["label"]
            labels[(rec["dialog_id"], rec["target_turn_index"])] = label
        except (ValueError, TypeError, KeyError):
            raise ValueError(f"{path} line {number}: not a labels row: "
                             f"{line[:60]}") from None
        if isinstance(label, bool) or not isinstance(label, int):
            raise ValueError(f"{path} line {number}: label {label!r} is not "
                             "an integer")
        if label < 0:
            raise ValueError(f"{path} line {number}: label {label} is "
                             "negative")
    return labels
