"""Command-line surface: generate / pretrain / finetune / evaluate /
simulate-masking / export-attention."""

import os

# STDIALOG_NUM_THREADS overrides the BLAS variables, exported or not
_threads = os.environ.get("STDIALOG_NUM_THREADS")
if _threads:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ[var] = _threads

import argparse
import json
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path


def _with_flags(cfg, args):
    """``cfg`` with each field that the user gave as a flag of the same
    name replaced; an unset flag (None) keeps the config's default."""
    given = {f.name: tuple(v) if isinstance(v, list) else v
             for f in fields(cfg)
             if (v := getattr(args, f.name, None)) is not None}
    return replace(cfg, **given)


def _cmd_generate(args):
    from .corpus import SyntheticConfig, generate_synthetic
    from .shards import write_shards
    from .text import Vocab

    cfg = _with_flags(SyntheticConfig(), args)
    dialogs = generate_synthetic(cfg, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest = write_shards(dialogs, out / "manifest.json",
                            sample_rate=cfg.frame_rate)
    Vocab.from_tokens(cfg.vocabulary()).save(out / "vocab.txt")
    n_turns = sum(len(d.turns) for d in dialogs)
    print(f"wrote {len(dialogs)} dialogs / {n_turns} turns to {out}")
    print(f"shard checksum {manifest['shard_checksum'][:16]}...")
    return 0


def _cmd_pretrain(args):
    from .shards import load_corpus
    from .trainer import TrainConfig, pretrain

    cfg = _with_flags(TrainConfig.from_json(args.config) if args.config
                      else TrainConfig(), args)
    corpus = load_corpus(args.corpus)
    vocab = None
    if args.vocab:
        from .text import Vocab
        vocab = Vocab.load(args.vocab)
    result = pretrain(cfg, corpus, out_dir=args.out, resume_from=args.resume,
                      vocab=vocab)
    last = result.metrics[-1]
    print(f"pretrained {cfg.steps} steps; final joint loss "
          f"{last['joint']:.4f} (tpp {last['tpp']:.4f} crs {last['crs']:.4f} "
          f"cmlm {last['cmlm']:.4f} cmam {last['cmam']:.4f})")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _load_task_items(corpus_path, labels_path):
    from .finetune import read_labels_manifest, task_samples
    from .shards import load_corpus

    items = task_samples(load_corpus(corpus_path).dialogs,
                         read_labels_manifest(labels_path))
    if not items:
        raise SystemExit("no labeled samples found for this corpus")
    return items


def _cmd_finetune(args):
    from .finetune import TaskSpec
    from .trainer import FinetuneConfig, finetune, model_from_checkpoint

    cfg = _with_flags(FinetuneConfig(), args)
    model, vocab, state = model_from_checkpoint(args.checkpoint)
    items = _load_task_items(args.task_corpus, args.labels)
    top = max(label for _, label in items)
    # a fine-tuned checkpoint keeps its head, whatever labels occur here
    task = state["task"] or TaskSpec(kind="classification",
                                     num_classes=top + 1)
    if task.kind == "classification" and top >= task.num_classes:
        raise SystemExit(f"{args.labels}: label {top} is not below the "
                         f"checkpoint's {task.num_classes} classes")
    result = finetune(cfg, model, vocab, task, items, out_dir=args.out)
    print(f"fine-tuned {cfg.steps} steps; final loss "
          f"{result.metrics[-1]['loss']:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_evaluate(args):
    from .trainer import evaluate_task, model_from_checkpoint

    model, vocab, state = model_from_checkpoint(args.checkpoint)
    task = state["task"]
    if task is None:
        raise SystemExit("checkpoint carries no fine-tuned task head")
    items = _load_task_items(args.task_corpus, args.labels)
    acc = evaluate_task(model, vocab, model.head, task, items,
                        speech_noise_std=args.speech_noise_std)
    print(f"{task.metric}: {acc:.4f} over {len(items)} samples")
    return 0


def _cmd_simulate_masking(args):
    from .masking import (DEFAULT_BASELINE_CONFIG, DEFAULT_SPAN_CONFIG,
                          estimate_mask_rate)

    cfg = _with_flags(DEFAULT_SPAN_CONFIG if args.masker == "spectra"
                      else DEFAULT_BASELINE_CONFIG, args)
    mean, stderr = estimate_mask_rate(cfg, args.length, args.trials,
                                      seed=args.seed)
    print(f"masker={args.masker} length={args.length} trials={args.trials}")
    print(f"mean masked fraction: {mean:.6f}")
    print(f"stderr: {stderr:.6f}")
    return 0


def _cmd_export_attention(args):
    from .corpus import build_samples
    from .encoders import export_attention
    from .frontend import check_sample_rate
    from .shards import load_corpus
    from .trainer import model_from_checkpoint

    model, vocab, _ = model_from_checkpoint(args.checkpoint)
    corpus = load_corpus(args.corpus)
    if not 0 <= args.dialog_index < len(corpus.dialogs):
        raise SystemExit(f"dialog index {args.dialog_index} out of range "
                         f"(0..{len(corpus.dialogs) - 1})")
    dialog = corpus.dialogs[args.dialog_index]
    samples = build_samples(dialog, k=args.k)
    check_sample_rate(samples, model.config.frontend)
    wanted = [s for s in samples if s.target_turn_index == args.turn_index]
    if not wanted:
        raise SystemExit(
            f"dialog {dialog.dialog_id} has no sample for turn "
            f"{args.turn_index} (valid: 2..{len(dialog.turns)})")
    fused = model.eval_fused(wanted[0], vocab, capture_attention=True)
    paths = export_attention(fused, args.out)
    meta = json.loads(Path(paths["meta"]).read_text())
    mass = meta["cross_modal_mass"]
    print(f"wrote {len(paths)} files under {args.out}*")
    print(f"cross-modal mass: text->speech {mass['text_to_speech']:.4f}, "
          f"speech->text {mass['speech_to_text']:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stdialog",
        description="Speech-text dialog pre-training at desk scale")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic aligned corpus")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--num-dialogs", type=int)
    p.add_argument("--out", required=True)
    p.add_argument("--turns-per-dialog", type=int, nargs=2)
    p.add_argument("--vocab-size", type=int)
    p.add_argument("--words-per-turn", type=int, nargs=2)
    p.add_argument("--word-duration", type=float, nargs=2)
    p.add_argument("--frame-rate", type=int)
    p.add_argument("--noise-std", type=float)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("pretrain", help="run joint pre-training")
    p.add_argument("--corpus", required=True, help="manifest.json path")
    p.add_argument("--out", required=True)
    p.add_argument("--config", help="TrainConfig JSON file")
    p.add_argument("--vocab", help="vocabulary file (default: from corpus)")
    p.add_argument("--steps", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--peak-lr", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--no-crs", action="store_false", dest="crs_enabled",
                   default=None)
    p.add_argument("--corpus-fraction", type=float)
    p.add_argument("--resume", help="checkpoint to resume from")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune on a labeled task")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task-corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--peak-lr", type=float)
    p.add_argument("--speech-noise-std", type=float)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("evaluate", help="accuracy of a fine-tuned checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--task-corpus", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--speech-noise-std", type=float, default=0.0)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("simulate-masking",
                       help="Monte Carlo masked-fraction estimate")
    p.add_argument("--length", type=int, default=99)
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--masker", choices=("spectra", "baseline"),
                   default="spectra")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trigger-prob", type=float)
    p.add_argument("--span", type=int, nargs=2, dest="span_range")
    p.set_defaults(func=_cmd_simulate_masking)

    p = sub.add_parser("export-attention",
                       help="dump fusion attention matrices + metadata")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--dialog-index", type=int, default=0)
    p.add_argument("--turn-index", type=int, default=2)
    p.add_argument("--k", type=int, default=7)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=_cmd_export_attention)
    return parser


def main(argv=None) -> int:
    """Run one command.  A ValueError (bad input, config or checkpoint), an
    OSError (unreadable or unwritable file) or a FloatingPointError
    (training diverged to non-finite values) ends it with its message on
    stderr and exit status 1, not a traceback."""
    args = build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            # every op checks its result, so numpy's overflow warnings
            # would only repeat that error
            warnings.simplefilter("ignore", RuntimeWarning)
            return args.func(args)
    except (OSError, ValueError, FloatingPointError) as exc:
        raise SystemExit(str(exc)) from None


if __name__ == "__main__":
    sys.exit(main())
