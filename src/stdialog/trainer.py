"""The training loop, checkpointing, and metrics logging.

Determinism contract: parameter init draws from stream (seed, 0) and every
training step draws batch selection, corruption, and masking from its own
stream (seed, 1, step).  Per-step randomness is therefore stateless, so a
checkpoint (parameters + optimizer moments + step counter) resumes the
exact uninterrupted trajectory.
"""

from __future__ import annotations

import json
import math
import os
import time
import zipfile
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .autodiff import Init, NonFiniteError, reduce_sum, scale
from .finetune import (PredictionHead, TaskSpec, evaluate,
                       init_prediction_head, predict, predict_rows,
                       replace_speech_with_noise, task_loss)
from .frontend import check_sample_rate
from .masking import AcousticMaskConfig
from .model import (ModelConfig, SpeechTextModel, config_kwargs,
                    prepare_sample)
from .objectives import make_crs_sample
from .optim import AdamW, lr_schedule
from .shards import Corpus
from .text import Vocab, WhitespaceTokenizer

CHECKPOINT_VERSION = 6


def _check_optimization(cfg) -> None:
    """Reject, by field name, the settings a ``TrainConfig`` and a
    ``FinetuneConfig`` share that could not train as asked: an empty
    batch, an unknown schedule (``lr_schedule`` would meet it only after
    the warmup), a warmup share outside [0, 1], a negative or NaN peak
    rate (ascent), clip norm (clipping off) or weight decay (growth), and
    an infinite peak rate or weight decay, whose first update writes
    non-finite parameters; an infinite clip norm means clipping off."""
    if cfg.batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.schedule not in ("linear", "cosine"):
        raise ValueError(f"schedule must be 'linear' or 'cosine', got "
                         f"{cfg.schedule!r}")
    if not 0 <= cfg.warmup_frac <= 1:
        raise ValueError(f"warmup_frac must be in [0, 1], got "
                         f"{cfg.warmup_frac}")
    for name in ("peak_lr", "clip_norm", "weight_decay"):
        value = getattr(cfg, name)
        if not value >= 0:
            raise ValueError(f"{name} must be >= 0, got {value}")
        if value == math.inf and name != "clip_norm":
            raise ValueError(f"{name} must be finite, got inf")


def _check_speech_noise_std(value) -> None:
    """Reject a negative or NaN noise std, and an infinite one, whose noise
    the frontend would turn into non-finite features."""
    if not value >= 0:
        raise ValueError(f"speech_noise_std must be >= 0, got {value}")
    if value == math.inf:
        raise ValueError("speech_noise_std must be finite, got inf")


@dataclass
class TrainConfig:
    seed: int = 0
    steps: int = 300
    batch_size: int = 8
    peak_lr: float = 1e-3
    warmup_frac: float = 0.01
    schedule: str = "linear"
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    adam_beta2: float = 0.999
    k: int = 7
    alpha: float = 1.0
    crs_enabled: bool = True
    acoustic_trigger_prob: float = 0.15
    acoustic_span: tuple = (2, 4)     # desk turns hold ~5-20 frames
    corpus_fraction: float = 1.0
    checkpoint_every: int = 0         # 0 = final checkpoint only
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        _check_optimization(self)
        if not 0 < self.corpus_fraction <= 1:
            raise ValueError(f"corpus_fraction must be in (0, 1], got "
                             f"{self.corpus_fraction}")
        if not self.alpha >= 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.alpha == math.inf:   # the joint loss would be inf
            raise ValueError("alpha must be finite, got inf")
        # 1 divides by a zero bias correction; outside, no Adam second moment
        if not 0 <= self.adam_beta2 < 1:
            raise ValueError(f"adam_beta2 must be in [0, 1), got "
                             f"{self.adam_beta2}")
        # a negative interval would checkpoint every step
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got "
                             f"{self.checkpoint_every}")
        try:    # refused when built, not after the run directory is made
            self.acoustic_config()
        except ValueError as exc:   # named as this config names the field
            raise ValueError("acoustic_" + str(exc).replace(
                "span_range", "span")) from None

    def acoustic_config(self) -> AcousticMaskConfig:
        return AcousticMaskConfig(trigger_prob=self.acoustic_trigger_prob,
                                  span_range=tuple(self.acoustic_span))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """The config ``to_dict`` wrote, or a part of it over the defaults
        at each level; an unknown key raises ``ValueError``."""
        d = config_kwargs(cls, d, "train")
        if "model" in d:
            d["model"] = ModelConfig.from_dict(d["model"])
        if "acoustic_span" in d:
            d["acoustic_span"] = tuple(d["acoustic_span"])
        return cls(**d)

    @classmethod
    def from_json(cls, path) -> "TrainConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


class MetricsLog:
    """Append-only per-step records with monotone step numbers.

    A log that starts after ``start_step`` (a resumed run) keeps the file's
    rows up to that step and appends after them; ``rows`` holds only the
    records appended through this log.  The file's rows after that step
    are dropped unread, so a row torn by a crash after the checkpoint does
    no harm, but a bad row up to it raises ``ValueError`` naming the file
    and line.
    """

    def __init__(self, path=None, start_step: int = 0):
        self.path = Path(path) if path else None
        self.rows: list = []
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            kept = []
            if start_step and self.path.exists():
                kept = self._rows_through(start_step)
            self.path.write_text("".join(json.dumps(r) + "\n" for r in kept))

    def _rows_through(self, step: int) -> list:
        kept = []
        for number, line in enumerate(self.path.read_text().splitlines(), 1):
            if kept and kept[-1]["step"] >= step:
                break
            try:
                row = json.loads(line)
                if row["step"] > step:
                    break
            except (ValueError, TypeError, KeyError):
                raise ValueError(f"{self.path} line {number}: not a metrics "
                                 f"row: {line[:60]}") from None
            kept.append(row)
        return kept

    def append(self, record: dict) -> None:
        if self.rows and record["step"] <= self.rows[-1]["step"]:
            raise ValueError(
                f"metrics step {record['step']} not after "
                f"{self.rows[-1]['step']}")
        self.rows.append(record)
        if self.path:
            with open(self.path, "a") as fh:
                fh.write(json.dumps(record) + "\n")

    @staticmethod
    def read(path) -> list:
        return [json.loads(line)
                for line in Path(path).read_text().splitlines() if line]


def build_vocab(corpus: Corpus) -> Vocab:
    return Vocab.from_tokens(WhitespaceTokenizer().vocabulary_tokens(
        corpus.vocabulary_words()))


def batch_indices(rng: np.random.Generator, n_samples: int,
                  batch_size: int) -> np.ndarray:
    """Without replacement; a batch larger than the pool takes whole
    permutations, i.e. several differently-masked passes per sample."""
    if batch_size <= n_samples:
        return rng.choice(n_samples, size=batch_size, replace=False)
    parts = []
    need = batch_size
    while need > 0:
        perm = rng.permutation(n_samples)
        parts.append(perm[:need])
        need -= len(parts[-1])
    return np.concatenate(parts)


@dataclass
class TrainResult:
    model: SpeechTextModel
    vocab: Vocab
    metrics: list
    checkpoint_path: Path | None = None
    head: PredictionHead | None = None


def _train(cfg, opt: AdamW, start_step: int, stream: int, n_samples: int,
           batch_size: int, batch_losses, loss_key: str, metrics_path,
           on_step=None) -> list:
    """Steps ``start_step + 1`` to ``cfg.steps`` of ``opt``'s parameters;
    step t draws all its randomness from (cfg.seed, stream, t).

    Each step draws ``batch_size`` of the ``n_samples`` indices, and
    ``batch_losses(indices, rng)`` gives the batch's [b] tensor of
    per-sample losses, in index order, and {component: batch mean}.  The
    step minimizes the mean of the losses and logs it with the components.
    A ``NonFiniteError`` is raised again naming the step; the checkpoints
    of earlier steps are left as they were.  Returns the metric rows of
    these steps.
    """
    if cfg.steps <= start_step:
        raise ValueError(f"nothing to train: steps {cfg.steps} <= start "
                         f"step {start_step}")
    metrics = MetricsLog(metrics_path, start_step)
    for step in range(start_step + 1, cfg.steps + 1):
        rng = np.random.default_rng((cfg.seed, stream, step))
        idx = batch_indices(rng, n_samples, batch_size)
        opt.zero_grad()
        t0 = time.monotonic()
        lr = lr_schedule(step, cfg.steps, cfg.peak_lr, cfg.warmup_frac,
                         cfg.schedule)
        try:
            losses, components = batch_losses(idx.tolist(), rng)
            batch_loss = scale(reduce_sum(losses), 1.0 / len(idx))
            batch_loss.backward()
            opt.step(lr)
        except NonFiniteError as exc:
            raise NonFiniteError(f"step {step}: {exc}") from exc
        metrics.append({"step": step, loss_key: float(batch_loss.data),
                        **components, "lr": lr,
                        "wall_time": time.monotonic() - t0})
        if on_step is not None:
            on_step(step)
    return metrics.rows


def pretrain(cfg: TrainConfig, corpus: Corpus, out_dir=None,
             resume_from=None, vocab: Vocab | None = None) -> TrainResult:
    """Joint pre-training over all samples of the corpus."""
    samples = corpus.all_samples(k=cfg.k)
    check_sample_rate(samples, cfg.model.frontend)
    if cfg.corpus_fraction < 1.0:
        keep = max(1, int(len(samples) * cfg.corpus_fraction))
        samples = samples[:keep]
    if not samples:
        raise ValueError("corpus yields no samples (all dialogs too short?)")
    out_dir = Path(out_dir) if out_dir else None
    if vocab is None:
        vocab = build_vocab(corpus)
    state = None
    if resume_from is None:
        model = SpeechTextModel(replace(cfg.model, vocab_size=vocab.size),
                                seed=cfg.seed)
    else:
        model, saved_vocab, state = model_from_checkpoint(resume_from)
        if saved_vocab.id_to_token != vocab.id_to_token:
            raise ValueError("checkpoint vocabulary does not match corpus")
        _check_resume_config(cfg, state["train_config"])
    opt = AdamW(model.parameters(), beta2=cfg.adam_beta2,
                weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm)
    start_step = 0
    if state is not None:
        opt.m[...], opt.v[...], opt.t = state["m"], state["v"], state["opt_t"]
        start_step = state["step"]
    acfg = cfg.acoustic_config()

    def batch_losses(idx, rng):
        batch, labels = [samples[i] for i in idx], None
        if cfg.crs_enabled:
            batch, labels = zip(*[make_crs_sample(sample, corpus.dialogs, rng)
                                  for sample in batch])
        losses = model.compute_losses(prepare_sample(
            batch, vocab, model.config, rng=rng, crs_labels=labels,
            acoustic_config=acfg), cfg.alpha)
        return losses["joint"], {
            key: 0.0 if losses[key] is None
            else float(losses[key].data.mean(dtype=np.float64))
            for key in ("tpp", "crs", "cmlm", "cmam")}

    def save_periodic(step):
        if out_dir and cfg.checkpoint_every and \
                step % cfg.checkpoint_every == 0 and step < cfg.steps:
            save_checkpoint(out_dir / f"checkpoint-{step:06d}.npz", model,
                            vocab, opt, step, cfg)

    rows = _train(cfg, opt, start_step, 1, len(samples),
                  cfg.batch_size, batch_losses, "joint",
                  out_dir / "metrics.jsonl" if out_dir else None,
                  save_periodic)
    path = None
    if out_dir:
        path = out_dir / "checkpoint-final.npz"
        save_checkpoint(path, model, vocab, opt, cfg.steps, cfg)
    return TrainResult(model=model, vocab=vocab, metrics=rows,
                       checkpoint_path=path)


def _check_resume_config(cfg: TrainConfig,
                         saved: TrainConfig | None) -> None:
    """Resuming continues the saved trajectory only under its own config;
    ``checkpoint_every`` alone does not change the trajectory."""
    if saved is None:
        raise ValueError("checkpoint has no pre-training config to resume")
    differ = [f.name for f in fields(TrainConfig)
              if f.name != "checkpoint_every"
              and getattr(saved, f.name) != getattr(cfg, f.name)]
    if differ:
        raise ValueError("resume config differs from the checkpoint's in: "
                         + ", ".join(differ))


@dataclass
class FinetuneConfig:
    seed: int = 0
    steps: int = 300
    batch_size: int = 8
    peak_lr: float = 5e-4
    warmup_frac: float = 0.1
    schedule: str = "cosine"
    weight_decay: float = 0.01
    clip_norm: float = 1.0
    speech_noise_std: float = 0.0   # > 0 runs the text-only control

    def __post_init__(self):
        _check_optimization(self)
        _check_speech_noise_std(self.speech_noise_std)


def finetune(cfg: FinetuneConfig, model: SpeechTextModel, vocab: Vocab,
             task: TaskSpec, train_items: list, out_dir=None) -> TrainResult:
    """Supervised fine-tuning of the whole model and ``model.head``, drawn
    fresh if it is None; a head of another size than ``task`` raises."""
    if not train_items:
        raise ValueError("cannot fine-tune on an empty dataset")
    check_sample_rate((sample for sample, _ in train_items),
                      model.config.frontend)
    out_dir = Path(out_dir) if out_dir else None
    if model.head is None:
        model.head = init_prediction_head(
            Init(model.params, model.config.np_dtype,
                 np.random.default_rng((cfg.seed, 2))),
            model.config.d_h, task.num_classes)
    elif model.head.task.num_classes != task.num_classes:
        raise ValueError(f"the model's head has {model.head.task.num_classes}"
                         f" outputs, the task {task.num_classes}")
    if cfg.speech_noise_std > 0:
        train_items = replace_speech_with_noise(
            train_items, np.random.default_rng((cfg.seed, 3)),
            cfg.speech_noise_std)
    opt = AdamW(model.parameters(), weight_decay=cfg.weight_decay,
                clip_norm=cfg.clip_norm)

    def batch_losses(idx, rng):
        items = [train_items[i] for i in idx]
        fused, _ = model.forward(prepare_sample(
            [sample for sample, _ in items], vocab, model.config,
            train=False), rows=predict_rows)
        return task_loss(predict(fused, model.head),
                         [label for _, label in items], task), {}

    rows = _train(cfg, opt, 0, 4, len(train_items),
                  min(cfg.batch_size, len(train_items)), batch_losses, "loss",
                  out_dir / "finetune-metrics.jsonl" if out_dir else None)
    path = None
    if out_dir:
        path = out_dir / "checkpoint-finetuned.npz"
        save_checkpoint(path, model, vocab, opt, cfg.steps, None)
    return TrainResult(model=model, vocab=vocab, metrics=rows,
                       checkpoint_path=path, head=model.head)


# the noise that replaces eval speech is the same for every checkpoint
EVAL_NOISE_SEED = 99


def evaluate_task(model: SpeechTextModel, vocab: Vocab, head: PredictionHead,
                  task: TaskSpec, items: list,
                  speech_noise_std: float = 0.0) -> float:
    _check_speech_noise_std(speech_noise_std)
    check_sample_rate((sample for sample, _ in items), model.config.frontend)
    if speech_noise_std > 0:
        items = replace_speech_with_noise(
            items, np.random.default_rng((EVAL_NOISE_SEED, 5)),
            speech_noise_std)

    def forward_fn(sample):
        return predict(model.eval_fused(sample, vocab, rows=predict_rows),
                       head).data[0]

    return evaluate(task, forward_fn, items)


# checkpointing ------------------------------------------------------------

# the meta keys ``load_checkpoint`` reads first; ``task`` is optional
_META_KEYS = {"version", "step", "opt_t", "model_config", "train_config",
              "vocab"}


def save_checkpoint(path, model: SpeechTextModel, vocab: Vocab, opt: AdamW,
                    step: int, train_cfg: TrainConfig | None) -> None:
    """Write ``opt``'s flat ``params``, ``m`` and ``v`` and their layout,
    and the task of ``model.head`` if it has one; ``opt`` must own exactly
    ``model.params``, in order."""
    for mine, owned in zip_longest(model.parameters(), opt.params):
        if mine is not owned:
            raise ValueError(f"optimizer does not own the model's parameters "
                             f"in order, from {(mine or owned).name}")
    opt.check_views()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {"version": CHECKPOINT_VERSION, "step": int(step),
            "opt_t": int(opt.t), "model_config": model.config.to_dict(),
            "train_config": train_cfg.to_dict() if train_cfg else None,
            "vocab": vocab.id_to_token,
            "layout": [[p.name, list(p.data.shape)] for p in opt.params]}
    if model.head is not None:
        meta["task"] = asdict(model.head.task)
    # a crash mid-write leaves any earlier checkpoint at ``path`` intact
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, params=opt.data, m=opt.m, v=opt.v,
                     meta=np.frombuffer(json.dumps(meta).encode(), np.uint8))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> dict:
    """The checkpoint's state.  A file that cannot be read as one (missing,
    not a zip archive, a single ``.npy`` array, truncated, failing a CRC,
    or without ``meta`` or one of its keys) raises ``ValueError`` naming
    the path, chained from the cause.  So does, naming the key too, a
    ``step`` or ``opt_t`` that is not a non-negative int, a ``vocab`` that
    is not a list of str, a ``task`` meta without a str ``kind`` and an
    int ``num_classes``, or a ``layout`` that does not describe the flat
    ``params``, ``m`` and ``v`` of the model dtype.  ``task`` is the
    fine-tuned ``TaskSpec``, or None."""
    path = Path(path)
    try:
        with np.load(path) as blob:
            meta = json.loads(bytes(blob["meta"].tobytes()).decode())
            if not (isinstance(meta, dict) and _META_KEYS <= meta.keys()):
                raise ValueError("checkpoint meta lacks a key")
            if meta["version"] == CHECKPOINT_VERSION:
                arrays = {key: blob[key] for key in ("params", "m", "v")}
    except (OSError, KeyError, TypeError, ValueError,
            zipfile.BadZipFile) as exc:
        raise ValueError(
            f"not a readable stdialog checkpoint: {path}") from exc
    if meta["version"] != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint version {meta['version']} not supported")
    for key in ("step", "opt_t"):   # a bool is no count
        if type(meta[key]) is not int or meta[key] < 0:
            raise ValueError(f"checkpoint {path}: meta key {key!r} is not a "
                             f"non-negative integer")
    if not (isinstance(meta["vocab"], list)
            and all(isinstance(token, str) for token in meta["vocab"])):
        raise ValueError(f"checkpoint {path}: meta key 'vocab' is not a list "
                         f"of strings")
    task = meta.get("task")
    if task is not None:
        for key, kind in (("kind", str), ("num_classes", int)):
            value = task.get(key) if isinstance(task, dict) else None
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(f"checkpoint {path}: task meta key {key!r} "
                                 f"missing or not of type {kind.__name__}")
        task = TaskSpec(kind=task["kind"], num_classes=task["num_classes"])
    model_config = ModelConfig.from_dict(meta["model_config"])
    layout = meta.get("layout")
    if not (isinstance(layout, list) and all(
            isinstance(e, list) and len(e) == 2 and isinstance(e[0], str)
            and isinstance(e[1], list)
            and all(type(n) is int and n >= 0 for n in e[1]) for e in layout)
            and len({e[0] for e in layout}) == len(layout)):
        raise ValueError(f"checkpoint {path}: meta key 'layout' is not a list "
                         f"of [name, shape] pairs with distinct names")
    layout = [(name, tuple(shape)) for name, shape in layout]
    size = sum(math.prod(shape) for _, shape in layout)
    for key, array in arrays.items():
        if array.dtype != model_config.np_dtype or array.shape != (size,):
            raise ValueError(f"checkpoint {path}: {key} is not the {size} "
                             f"{model_config.dtype} values its layout lists")
    return {"step": meta["step"], "opt_t": meta["opt_t"], "layout": layout,
            "model_config": model_config, "vocab": Vocab(meta["vocab"]),
            "train_config": (TrainConfig.from_dict(meta["train_config"])
                             if meta["train_config"] else None),
            "task": task, **arrays}


def model_from_checkpoint(path) -> tuple:
    """(model, vocab, state): the model, and the head of the checkpoint's
    task if it has one, built from views of the saved parameters, which
    must list these and only these, in build order."""
    state = load_checkpoint(path)
    init = Init({}, checkpoint=state)
    model = SpeechTextModel(state["model_config"], init=init)
    if state["task"] is not None:
        model.head = init_prediction_head(init, model.config.d_h,
                                          state["task"].num_classes)
    init.check_layout()
    return model, state["vocab"], state
