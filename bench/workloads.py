"""The four closed-loop workloads and their output checks.

Each workload is built from the benchmark seed alone.  ``setup`` makes the
program's inputs (and is timed as ``setup_s``); ``episode`` runs one
stretch of the closed loop through the program's public API, one caller,
each op starting when the previous one has finished.  Episode ``i`` draws
its randomness from its own seed, so an episode run twice must give the
same outputs bit for bit.

Op boundaries are taken from outside the program: a training step ends
when ``AdamW.step`` returns, an eval item is one call of the forward
function that ``finetune.evaluate`` receives, and a Monte Carlo batch is
one ``estimate_mask_rate`` call.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from stdialog import corpus, finetune, masking, presets, shards, trainer
from stdialog.model import SpeechTextModel
from stdialog.optim import AdamW
from stdialog.text import Vocab

from tracer import Tracer

# Episode lengths: long enough that the first step of an episode (which
# also pays for model construction inside ``pretrain``/``finetune`` and is
# not timed as a step) is a small share, short enough that a run holds
# many distinct episodes.
PRETRAIN_SHORT_STEPS = 10
PRETRAIN_LONG_STEPS = 10
FINETUNE_STEPS = 20
EVAL_DIALOGS = 32
MC_TRIALS = 10_000        # per batch: the least estimate_mask_rate accepts
MC_LENGTH = 99            # frames of a 10 s turn at full scale


# Host-speed reference.  On a shared host the same code runs up to 1.8 times
# as slowly for tens of seconds at a time, longer than a run can average
# out.  A fixed loop, timed right after each op, measures how fast the host
# runs at that moment, and the op's time is scaled to the speed at which the
# loop takes REFERENCE_S (about its time right after an op on an unloaded
# host of this kind).  The loop is made of what the program is made of:
# small Python graph nodes over small float32 arrays, built forward and
# walked backward.  Of the loops tried (bare interpreter work, mid-size
# attention matmuls, memory streaming, mixes of these), it tracked the
# slow-downs of all four workloads most closely: ops taken in slow and fast
# spells of one run differ by at most 7% once scaled, against 23-63% unscaled.
REFERENCE_S = 0.0015
REFERENCE_NODES = 120
_REFERENCE_RNG = np.random.default_rng(1)
_REFERENCE_X = _REFERENCE_RNG.standard_normal((24, 32)).astype(np.float32)
_REFERENCE_W = _REFERENCE_RNG.standard_normal((32, 32)).astype(np.float32)


class _Node:
    __slots__ = ("data", "parents", "grad")

    def __init__(self, data, parents=()):
        self.data, self.parents, self.grad = data, parents, None


def reference_loop() -> float:
    """The same chain of REFERENCE_NODES graph nodes on every call."""
    weight = _Node(_REFERENCE_W)
    node = _Node(_REFERENCE_X)
    chain, total = [], 0.0
    for _ in range(REFERENCE_NODES):
        node = _Node(np.tanh(node.data @ weight.data) + node.data * 0.5,
                     (node, weight))
        total += float(node.data.sum())
        chain.append(node)
    for node in reversed(chain):
        grad = np.ones_like(node.data)
        for parent in node.parents:
            parent.grad = grad if parent.grad is None else parent.grad + grad
    return total


@dataclass
class Ops:
    """Timed ops by kind, as (op id, seconds), and the count of all ops.

    With ``calibrate``, the reference loop runs after every timed op,
    outside its time, and ``scaled`` gives op times at reference speed."""
    tracer: Tracer
    calibrate: bool = False
    records: dict = field(default_factory=dict)
    scales: dict = field(default_factory=dict)
    attempted: int = 0
    _last_step_end: float | None = None

    def seconds(self, kind: str) -> list:
        return [s for _, s in self.records.get(kind, ())]

    def scaled(self, kind: str) -> list:
        return [s * k for s, k in zip(self.seconds(kind),
                                      self.scales.get(kind, ()))]

    def host_scale(self) -> float:
        """REFERENCE_S over the reference loop's time now: below 1 while
        the host runs slowly."""
        start = perf_counter()
        reference_loop()
        return REFERENCE_S / (perf_counter() - start)

    def reset_timing(self) -> None:
        self.records = {}
        self.scales = {}

    def new_episode(self) -> None:
        """The next step's start is unknown (it shares the interval with
        the program's own per-call set-up), so it is not measured."""
        self._last_step_end = None

    def _record(self, kind: str, op: int, seconds: float) -> None:
        self.records.setdefault(kind, []).append((op, seconds))
        if self.calibrate:
            self.scales.setdefault(kind, []).append(self.host_scale())

    def step_done(self) -> None:
        op = self.tracer.op
        now = self.tracer.end_op()
        self.attempted += 1
        if self._last_step_end is not None:
            self._record("step", op, now - self._last_step_end)
            if self.calibrate:
                now = perf_counter()
        self._last_step_end = now

    def call(self, kind: str, fn, *args):
        """Run ``fn`` as one op of its own."""
        self.tracer.end_op()
        op = self.tracer.op
        self.attempted += 1
        start = perf_counter()
        out = fn(*args)
        self._record(kind, op, perf_counter() - start)
        self.tracer.end_op()
        return out


def step_boundaries(ops: Ops) -> dict:
    """Patch that marks the end of every optimizer step."""
    def make(original):
        def step(opt, lr):
            original(opt, lr)
            ops.step_done()
        return step
    return {("stdialog.optim", "AdamW.step"): make}


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def episode_seed(seed: int, index: int) -> int:
    """Seed of episode ``index``: episodes differ, so a run samples many
    distinct steps, and an index run twice must repeat exactly."""
    return 1000 * seed + index


class Pretrain:
    """Joint pre-training episodes of ``steps`` steps from a fresh model."""

    def __init__(self, name: str, corpus_config, train_config):
        self.name = name
        self.corpus_config = corpus_config
        self.train_config = train_config
        self.samples_per_step = train_config.batch_size

    def setup(self, seed: int, workdir: Path):
        dialogs = corpus.generate_synthetic(self.corpus_config, seed)
        manifest = workdir / "manifest.json"
        shards.write_shards(dialogs, manifest)
        data = shards.load_corpus(manifest)
        return data, trainer.build_vocab(data), seed

    def patches(self, ops: Ops) -> dict:
        return step_boundaries(ops)

    def episode(self, state, ops: Ops, index: int) -> tuple:
        data, vocab, seed = state
        cfg = replace(self.train_config, seed=episode_seed(seed, index))
        ops.new_episode()
        result = trainer.pretrain(cfg, data, vocab=vocab)
        return tuple(tuple(row[k] for k in ("joint", "tpp", "crs", "cmlm",
                                            "cmam"))
                     for row in result.metrics)

    def check(self, state, episodes: list) -> tuple:
        """(problems, failed steps): every step's losses are finite and the
        joint loss falls over each episode."""
        problems, failed = [], 0
        for rows in episodes:
            bad = sum(not _finite(row) for row in rows)
            third = max(1, len(rows) // 3)
            early = np.mean([row[0] for row in rows[:third]])
            late = np.mean([row[0] for row in rows[-third:]])
            if bad:
                problems.append(f"{bad} steps with a non-finite loss")
                failed += bad
            elif not late < early:
                problems.append(f"joint loss did not fall: first steps "
                                f"{early:.4f}, last steps {late:.4f}")
                failed += len(rows)
        return problems, failed


def pretrain_short() -> Pretrain:
    """The overfit preset at batch 32: ~1 s turns, a few words each, so a
    step is dominated by per-op Python overhead.  The corpus has four times
    the preset's 8 dialogs, drawn the same way, so that its mean turn
    length, and so the step time, stays close across seeds."""
    return Pretrain(
        "pretrain-short",
        replace(presets.overfit_corpus_config(), num_dialogs=32),
        replace(presets.overfit_train_config(steps=PRETRAIN_SHORT_STEPS),
                batch_size=32))


def pretrain_long() -> Pretrain:
    """Long turns (12-20 words of 0.3-0.45 s, ~50-80 frames per turn, a
    ~150-position speech sequence) and text near max_text_len, at batch 8:
    the quadratic attention arithmetic dominates.  24 dialogs keep the
    corpus-level mean length, and so the step time, close across seeds."""
    syn = corpus.SyntheticConfig(
        num_dialogs=24, turns_per_dialog=(4, 4), vocab_size=24,
        words_per_turn=(12, 20), frame_rate=100, noise_std=0.005,
        word_duration=(0.3, 0.45))
    return Pretrain(
        "pretrain-long", syn,
        replace(presets.overfit_train_config(steps=PRETRAIN_LONG_STEPS),
                batch_size=8, k=3))


class FinetuneEval:
    """Fine-tune a reloaded checkpoint at batch 8, then evaluate held-out
    items with clean forwards."""

    name = "finetune-eval"

    def __init__(self):
        self.task_config = presets.cross_modal_task_config()
        self.config = presets.finetune_config(steps=FINETUNE_STEPS)
        self.samples_per_step = self.config.batch_size
        self._logits: list = []

    def setup(self, seed: int, workdir: Path):
        train_d, labels, task = finetune.make_cross_modal_task(
            self.task_config, 2 * seed)
        eval_d, eval_labels, _ = finetune.make_cross_modal_task(
            replace(self.task_config, num_dialogs=EVAL_DIALOGS), 2 * seed + 1)
        manifest = workdir / "task" / "manifest.json"
        shards.write_shards(train_d, manifest)
        train_items = finetune.task_samples(
            shards.load_corpus(manifest).dialogs, labels)
        eval_items = finetune.task_samples(eval_d, eval_labels)
        words = corpus.SyntheticConfig(
            vocab_size=self.task_config.vocab_size).vocabulary()
        vocab = Vocab.from_tokens(words)
        model = SpeechTextModel(
            replace(presets.desk_model_config(), vocab_size=vocab.size),
            seed=seed)
        checkpoint = workdir / "checkpoint.npz"
        trainer.save_checkpoint(checkpoint, model, vocab,
                                AdamW(model.parameters()), 0, None)
        model, vocab, _ = trainer.model_from_checkpoint(checkpoint)
        return model, vocab, task, train_items, eval_items, seed

    def patches(self, ops: Ops) -> dict:
        def make(original):
            def evaluate(task, forward_fn, dataset):
                def timed_forward(sample):
                    out = ops.call("eval", forward_fn, sample)
                    self._logits.append(tuple(np.asarray(out).tolist()))
                    return out
                return original(task, timed_forward, dataset)
            return evaluate
        return {**step_boundaries(ops),
                ("stdialog.finetune", "evaluate"): make}

    def episode(self, state, ops: Ops, index: int) -> tuple:
        model, vocab, task, train_items, eval_items, seed = state
        cfg = replace(self.config, seed=episode_seed(seed, index))
        model = copy.deepcopy(model)
        ops.new_episode()
        result = trainer.finetune(cfg, model, vocab, task, list(train_items))
        self._logits = []
        accuracy = trainer.evaluate_task(model, vocab, result.head, task,
                                         eval_items)
        losses = tuple(row["loss"] for row in result.metrics)
        return losses, accuracy, tuple(self._logits)

    def check(self, state, episodes: list) -> tuple:
        """(problems, failed ops): losses and logits are finite and the
        accuracy is a rate."""
        problems, failed = [], 0
        for losses, accuracy, logits in episodes:
            bad = sum(not math.isfinite(v) for v in losses) + sum(
                not _finite(row) for row in logits)
            if bad or not 0.0 <= accuracy <= 1.0:
                problems.append(f"{bad} ops with non-finite losses or logits,"
                                f" accuracy {accuracy}")
                failed += max(bad, 1)
        return problems, failed


class MaskingMC:
    """Monte Carlo estimate of the span masker's rate at length 99, one
    batch of 10^4 trials per episode."""

    name = "masking-mc"
    samples_per_step = MC_TRIALS

    def setup(self, seed: int, workdir: Path):
        """The exact expected rate that the estimate is checked against."""
        return masking.expected_mask_rate(masking.DEFAULT_SPAN_CONFIG,
                                          MC_LENGTH), seed

    def patches(self, ops: Ops) -> dict:
        return {}

    def episode(self, state, ops: Ops, index: int) -> tuple:
        _, seed = state
        return ops.call("step", masking.estimate_mask_rate,
                        masking.DEFAULT_SPAN_CONFIG, MC_LENGTH, MC_TRIALS,
                        episode_seed(seed, index))

    def check(self, state, episodes: list) -> tuple:
        """(problems, failed batches): each batch estimate is a finite rate
        and the pooled estimate lies within 4 stderr of the exact rate."""
        exact, _ = state
        means = np.array([m for m, _ in episodes])
        errs = np.array([s for _, s in episodes])
        valid = np.isfinite(means) & np.isfinite(errs) & (means >= 0) \
            & (means <= 1)
        if not valid.all():
            return ["a batch estimate is not a finite rate in [0, 1]"], \
                int((~valid).sum())
        # equal-sized independent batches: the pooled mean's stderr
        pooled = float(means.mean())
        pooled_err = float(np.sqrt((errs ** 2).sum()) / len(errs))
        if abs(pooled - exact) > 4 * pooled_err:
            return [f"estimate {pooled:.5f} +/- {pooled_err:.5f} is more "
                    f"than 4 stderr from the exact rate {exact:.5f}"], \
                len(episodes)
        return [], 0


WORKLOADS = {"pretrain-short": pretrain_short, "pretrain-long": pretrain_long,
             "finetune-eval": FinetuneEval, "masking-mc": MaskingMC}
