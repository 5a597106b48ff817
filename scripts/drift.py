#!/usr/bin/env python3
"""How far float32 training drifts from float64, or from another checkout.

Pre-trains the overfit preset (``presets.overfit_train_config`` on
``presets.overfit_corpus``, its seed included) for ``--steps`` steps at
``--batch`` in float32, and again with ``ModelConfig.dtype = "float64"``
and nothing else changed.  For each logged loss it prints the largest
relative gap between the two runs over all steps, |a - b| / max(|a|, |b|),
and the step where it occurs; the last line is the gaps as one JSON
object.  A kernel that loses float32 accuracy shows as a larger gap.

``--against OTHER/src`` compares with the float32 run of the stdialog
package under another checkout's source tree instead, run in a child
interpreter: a change that keeps float32 training bit for bit prints
gaps of 0.  ``--src`` picks the tree this run imports (by default this
checkout's ``src/``), so ``--src PARENT/src`` gives another checkout's
float64 gap.  ``--curves`` prints the float32 run's losses as JSON and
nothing else; ``--against`` reads them that way.

Usage: python scripts/drift.py [--steps 30] [--batch 32] [--src SRC]
                               [--against OTHER_SRC]
"""

import argparse
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

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


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=30)
    parser.add_argument("--batch", type=int, default=32)
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    parser.add_argument("--against", type=Path,
                        help="another checkout's src/ to compare float32 with")
    parser.add_argument("--curves", action="store_true",
                        help="print the float32 losses as JSON and exit")
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))

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
