"""Aligned spoken-dialog data model, sample construction, synthetic corpus.

A dialog is an ordered list of turns; each turn pairs a waveform with a
word-level transcript whose start/end times are relative to that turn's
own waveform.  Pre-training samples take the current turn plus up to k
turns of text history and exactly the last two turns of speech.

The synthetic generator renders each vocabulary word as a characteristic
periodic signature tiled over a per-word duration, so word identity (and
therefore time alignment) is recoverable from the waveform by
construction.  Generation is a pure function of the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SIGNATURE_SEED_SALT = 0x5EED
SIGNATURE_PERIOD = 10              # samples per signature cycle
# the longest turn: generation cuts turns here, validation rejects longer
# ones, and alignment targets are normalised by it
MAX_TURN_SECONDS = 10.0


@dataclass(frozen=True)
class WordAlignment:
    word: str
    start_time: float
    end_time: float


@dataclass
class Turn:
    turn_index: int
    waveform: np.ndarray          # 1-d float32
    words: list                   # list[WordAlignment], sorted by start_time
    sample_rate: int

    @property
    def duration(self) -> float:
        return len(self.waveform) / self.sample_rate

    @property
    def transcript(self) -> list:
        return [w.word for w in self.words]


@dataclass
class Dialog:
    dialog_id: str
    turns: list


@dataclass
class Sample:
    dialog_id: str
    target_turn_index: int
    text_turns: list              # list[list[str]], oldest history first
    speech_prev: np.ndarray
    speech_cur: np.ndarray
    # (prev, cur): each turn's float [words, 2] start and end times,
    # relative to its own turn; None for a turn without alignment
    word_times: tuple
    cmam_turns: tuple = (True, True)   # which speech turns feed reconstruction
    sample_rate: int | None = None     # Hz of both speech turns, if known


@dataclass
class SyntheticConfig:
    num_dialogs: int = 8
    turns_per_dialog: tuple = (3, 6)
    vocab_size: int = 24
    words_per_turn: tuple = (3, 6)
    frame_rate: int = 100          # waveform samples per second
    noise_std: float = 0.05
    word_duration: tuple = (0.15, 0.4)

    def __post_init__(self):
        if self.vocab_size < 8:
            raise ValueError(f"vocab_size must be >= 8, got {self.vocab_size}")
        if self.frame_rate < 10:
            raise ValueError(f"frame_rate must be >= 10, got {self.frame_rate}")
        for name in ("turns_per_dialog", "words_per_turn", "word_duration"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name} ({lo}, {hi}): low exceeds high")
        # validate_dialog rejects an empty turn, and render_turn would
        # stretch a word of no duration to one signature period
        if self.words_per_turn[0] < 1:
            raise ValueError(f"words_per_turn low must be >= 1, got "
                             f"{self.words_per_turn[0]}")
        if not self.word_duration[0] > 0:
            raise ValueError(f"word_duration low must be > 0, got "
                             f"{self.word_duration[0]}")
        if not self.noise_std >= 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        # infinite noise would write waveforms no model can read
        if self.noise_std == float("inf"):
            raise ValueError("noise_std must be finite, got inf")

    def word_text(self, word_id: int) -> str:
        return f"w{word_id:03d}"

    def vocabulary(self) -> list:
        return [self.word_text(v) for v in range(self.vocab_size)]


def word_signature(word_id: int) -> np.ndarray:
    """Deterministic per-word base pattern, one cycle of
    ``SIGNATURE_PERIOD`` samples."""
    rng = np.random.default_rng((SIGNATURE_SEED_SALT, word_id))
    return rng.uniform(-1.0, 1.0, size=SIGNATURE_PERIOD).astype(np.float32)


def render_turn(turn_index: int, cfg: SyntheticConfig,
                rng: np.random.Generator) -> Turn:
    sr = cfg.frame_rate
    max_samples = int(round(MAX_TURN_SECONDS * sr))
    n_words = int(rng.integers(cfg.words_per_turn[0], cfg.words_per_turn[1] + 1))
    pieces = []
    words = []
    cursor = 0
    for _ in range(n_words):
        gap = int(round(rng.uniform(0.0, 0.05) * sr))  # 0-50 ms of silence
        dur = max(SIGNATURE_PERIOD,
                  int(round(rng.uniform(*cfg.word_duration) * sr)))
        if cursor + gap + dur > max_samples and words:
            break  # truncate at a word boundary rather than exceed the cap
        word_id = int(rng.integers(0, cfg.vocab_size))
        sig = word_signature(word_id)
        reps = -(-dur // SIGNATURE_PERIOD)
        rendered = np.tile(sig, reps)[:dur]
        if gap:
            pieces.append(np.zeros(gap, dtype=np.float32))
        pieces.append(rendered)
        start = cursor + gap
        words.append(WordAlignment(cfg.word_text(word_id),
                                   start / sr, (start + dur) / sr))
        cursor = start + dur
    waveform = np.concatenate(pieces) if pieces else np.zeros(0, np.float32)
    if cfg.noise_std > 0:
        waveform = waveform + rng.normal(
            0.0, cfg.noise_std, size=waveform.shape).astype(np.float32)
    return Turn(turn_index=turn_index, waveform=waveform.astype(np.float32),
                words=words, sample_rate=sr)


def generate_synthetic(cfg: SyntheticConfig, seed: int) -> list:
    """Generate ``cfg.num_dialogs`` dialogs, a pure function of ``seed``."""
    rng = np.random.default_rng((seed, 0xD1A1))
    dialogs = []
    for d in range(cfg.num_dialogs):
        n_turns = int(rng.integers(cfg.turns_per_dialog[0],
                                   cfg.turns_per_dialog[1] + 1))
        turns = [render_turn(i, cfg, rng) for i in range(1, n_turns + 1)]
        dialogs.append(Dialog(dialog_id=f"dlg{d:04d}", turns=turns))
    return dialogs


def validate_alignment(turn: Turn) -> list:
    """All word-alignment invariant violations for one turn, as strings."""
    violations = []
    duration = turn.duration
    for j, w in enumerate(turn.words):
        if not 0.0 <= w.start_time:
            violations.append(f"word {j} ({w.word!r}): start {w.start_time} < 0")
        if not w.start_time < w.end_time:
            violations.append(
                f"word {j} ({w.word!r}): start {w.start_time} >= end {w.end_time}")
        if w.end_time > duration + 1e-9:
            violations.append(
                f"word {j} ({w.word!r}): end {w.end_time} exceeds duration "
                f"{duration:.6f}")
    for j in range(len(turn.words) - 1):
        a, b = turn.words[j], turn.words[j + 1]
        if b.start_time < a.start_time:
            violations.append(f"words {j}, {j + 1}: not sorted by start time")
        if b.start_time < a.end_time - 1e-9:
            violations.append(f"words {j}, {j + 1}: overlap at {j}, {j + 1}")
    return violations


def validate_dialog(dialog: Dialog) -> list:
    violations = []
    for t in dialog.turns:
        if not t.words:
            violations.append(
                f"{dialog.dialog_id} turn {t.turn_index}: empty transcript")
        if t.duration > MAX_TURN_SECONDS + 1e-9:
            violations.append(
                f"{dialog.dialog_id} turn {t.turn_index}: duration "
                f"{t.duration:.3f}s exceeds cap {MAX_TURN_SECONDS}s")
        for v in validate_alignment(t):
            violations.append(f"{dialog.dialog_id} turn {t.turn_index}: {v}")
    rates = sorted({t.sample_rate for t in dialog.turns})
    if len(rates) > 1:
        violations.append(f"{dialog.dialog_id}: turns sampled at different "
                          f"rates {rates} Hz")
    return violations


class AlignmentError(ValueError):
    pass


def build_samples(dialog: Dialog, k: int) -> list:
    """One sample per turn index i in 2..n: current turn, min(k, i-1) turns
    of text history, and the previous turn's speech.  A corpus with D
    dialogs and N total turns therefore yields N - D samples.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    problems = validate_dialog(dialog)
    if problems:
        raise AlignmentError("; ".join(problems))
    samples = []
    turns = dialog.turns
    times = [np.array([(w.start_time, w.end_time) for w in t.words])
             for t in turns]
    for idx in range(1, len(turns)):
        cur, prev = turns[idx], turns[idx - 1]
        history = min(k, idx)  # turn_index is idx+1, so i-1 == idx
        text_turns = [t.transcript for t in turns[idx - history: idx + 1]]
        samples.append(Sample(
            dialog_id=dialog.dialog_id,
            target_turn_index=cur.turn_index,
            text_turns=text_turns,
            speech_prev=prev.waveform,
            speech_cur=cur.waveform,
            word_times=(times[idx - 1], times[idx]),
            sample_rate=cur.sample_rate))
    return samples
