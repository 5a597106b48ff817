#!/usr/bin/env python3
"""How far float32 training drifts from float64, or from another checkout.

Pre-trains the overfit preset (``presets.overfit_train_config`` on
``presets.overfit_corpus``, its seed included) for ``--steps`` steps at
``--batch`` in float32, and again with ``ModelConfig.dtype = "float64"``
and nothing else changed.  For each logged loss it prints the largest
relative gap between the two runs over all steps, |a - b| / max(|a|, |b|),
and the step where it occurs; the last line is the gaps as one JSON
object.  A kernel that loses float32 accuracy shows as a larger gap.

Those gaps grow along the trajectory, as training amplifies rounding,
so they depend on the seed.  ``--local SEED ...`` measures the error of
one step instead, along the float32 run of the preset with each train
seed (``TrainConfig.seed``): before each update it copies the float32
parameters into a float64 model, runs the step's prepared batch through
both, and takes the relative gap of the joint loss and the relative L2
gap of the full gradient.  It prints each seed's largest gaps over the
steps; the last line is {seed: {"joint": gap, "grad": gap}} as JSON.

``--against OTHER/src`` compares with the float32 run of the stdialog
package under another checkout's source tree instead, run in a child
interpreter: a change that keeps float32 training bit for bit prints
gaps of 0.  ``--src`` picks the tree this run imports (by default this
checkout's ``src/``), so ``--src PARENT/src`` gives another checkout's
float64 gap.  ``--curves`` prints the float32 run's losses as JSON and
nothing else; ``--against`` reads them that way.

Usage: python scripts/drift.py [--steps 30] [--batch 32] [--src SRC]
                               [--against OTHER_SRC | --local SEED ...]
"""

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

LOSSES = ("joint", "tpp", "crs", "cmlm", "cmam")


def loss_curves(dtype: str, steps: int, batch: int) -> dict:
    """{loss: [value at each step]} of the overfit preset in ``dtype``."""
    from stdialog import presets
    from stdialog.trainer import pretrain

    cfg = replace(presets.overfit_train_config(steps=steps), batch_size=batch)
    cfg = replace(cfg, model=replace(cfg.model, dtype=dtype))
    rows = pretrain(cfg, presets.overfit_corpus()).metrics
    return {key: [row[key] for row in rows] for key in LOSSES}


def curves_of_tree(src, steps: int, batch: int) -> dict:
    """The float32 ``loss_curves`` of the stdialog package under ``src``."""
    child = subprocess.run(
        [sys.executable, __file__, "--src", str(src), "--curves",
         "--steps", str(steps), "--batch", str(batch)],
        capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


def max_relative_gaps(curves: dict, reference: dict) -> dict:
    """{loss: (largest relative gap, its step counted from 1)}."""
    out = {}
    for key in LOSSES:
        gaps = [abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                for a, b in zip(curves[key], reference[key], strict=True)]
        worst = max(range(len(gaps)), key=gaps.__getitem__)
        out[key] = (gaps[worst], worst + 1)
    return out


def one_step_gaps(seed: int, steps: int, batch: int) -> dict:
    """{"joint": largest relative gap, "grad": largest relative L2 gap}
    between float32 and float64 over the steps of the float32 run of the
    overfit preset with train seed ``seed``, each step's float64 model
    holding that step's float32 parameters."""
    from stdialog import presets
    from stdialog.autodiff import reduce_sum, scale
    from stdialog.model import SpeechTextModel, prepare_sample
    from stdialog.objectives import make_crs_sample
    from stdialog.optim import AdamW, lr_schedule
    from stdialog.trainer import batch_indices, build_vocab

    cfg = replace(presets.overfit_train_config(steps=steps), seed=seed,
                  batch_size=batch)
    corpus = presets.overfit_corpus()
    samples, vocab = corpus.all_samples(k=cfg.k), build_vocab(corpus)
    model_cfg = replace(cfg.model, vocab_size=vocab.size)
    model = SpeechTextModel(model_cfg, seed=seed)
    exact = SpeechTextModel(replace(model_cfg, dtype="float64"), seed=seed)
    opt = AdamW(model.parameters(), beta2=cfg.adam_beta2,
                weight_decay=cfg.weight_decay, clip_norm=cfg.clip_norm)
    worst = {"joint": 0.0, "grad": 0.0}
    for step in range(1, steps + 1):
        # the trainer's own draws of the step, in its order
        rng = np.random.default_rng((seed, 1, step))
        drawn = [samples[i] for i in batch_indices(rng, len(samples), batch)]
        labels = None
        if cfg.crs_enabled:
            drawn, labels = zip(*[make_crs_sample(sample, corpus.dialogs, rng)
                                  for sample in drawn])
        prepared = prepare_sample(drawn, vocab, model_cfg, rng=rng,
                                  crs_labels=labels,
                                  acoustic_config=cfg.acoustic_config())
        for p, p32 in zip(exact.parameters(), model.parameters(),
                          strict=True):
            p.data[...] = p32.data
        joint, grad = [], []
        for m in (model, exact):
            params = m.parameters()
            for p in params:
                p.zero_grad()
            loss = scale(reduce_sum(m.compute_losses(prepared, cfg.alpha)
                                    ["joint"]), 1.0 / batch)
            loss.backward()
            joint.append(float(loss.data))
            grad.append(np.concatenate([p.grad.ravel() for p in params])
                        .astype(np.float64))
        gaps = {"joint": abs(joint[0] - joint[1]) / abs(joint[1]),
                "grad": float(np.linalg.norm(grad[0] - grad[1])
                              / np.linalg.norm(grad[1]))}
        worst = {key: max(worst[key], gaps[key]) for key in worst}
        opt.step(lr_schedule(step, steps, cfg.peak_lr, cfg.warmup_frac,
                             cfg.schedule))
    return worst


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    against = parser.add_mutually_exclusive_group()
    against.add_argument("--against", type=Path,
                         help="another checkout's src/ to compare float32 with")
    against.add_argument("--local", type=int, nargs="+", metavar="SEED",
                         help="one-step float32 error along each train seed")
    parser.add_argument("--curves", action="store_true",
                        help="print the float32 losses as JSON and exit")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

    if args.local:
        print(f"one-step float32 against float64 ({args.src}): overfit "
              f"preset, {args.steps} steps at batch {args.batch}")
        print("seed   max joint gap  max grad gap")
        gaps = {}
        for seed in args.local:
            gaps[seed] = one_step_gaps(seed, args.steps, args.batch)
            print(f"{seed:<6} {gaps[seed]['joint']:13.2e}  "
                  f"{gaps[seed]['grad']:12.2e}")
        print(json.dumps(gaps))
        return
    curves = loss_curves("float32", args.steps, args.batch)
    if args.curves:
        print(json.dumps(curves))
        return
    if args.against:
        reference = curves_of_tree(args.against.resolve(), args.steps,
                                   args.batch)
        what = f"float32 of {args.src} against float32 of {args.against}"
    else:
        reference = loss_curves("float64", args.steps, args.batch)
        what = f"float32 against float64 ({args.src})"
    gaps = max_relative_gaps(curves, reference)
    print(f"{what}: overfit preset, {args.steps} steps at batch {args.batch}")
    print("loss   max rel gap  at step")
    for key, (gap, step) in gaps.items():
        print(f"{key:<6} {gap:11.2e}  {step:7d}")
    print(json.dumps({key: gap for key, (gap, _) in gaps.items()}))


if __name__ == "__main__":
    main()
