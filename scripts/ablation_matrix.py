#!/usr/bin/env python3
"""Run the ablation config axes end-to-end and print loss-component traces.

Axes: alignment weight alpha=0, response selection off, history depth
k=1 vs 7, corpus fraction.  Short runs; the point is that every axis is
reachable purely through configuration.
"""

import argparse
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stdialog import corpus as cp
from stdialog import presets
from stdialog.shards import Corpus
from stdialog.trainer import pretrain


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=30)
    args = parser.parse_args()

    syn = replace(presets.overfit_corpus_config(), turns_per_dialog=(8, 8))
    corpus = Corpus(cp.generate_synthetic(syn, seed=5))
    base = replace(presets.overfit_train_config(steps=args.steps),
                   batch_size=16, k=7)
    axes = {
        "full": base,
        "no-alignment (alpha=0)": replace(base, alpha=0.0),
        "no-response-selection": replace(base, crs_enabled=False),
        "history k=1": replace(base, k=1),
        "half corpus": replace(base, corpus_fraction=0.5),
    }
    for name, cfg in axes.items():
        result = pretrain(cfg, corpus)
        last = result.metrics[-1]
        print(f"{name:24s} joint {last['joint']:.4f}  tpp {last['tpp']:.5f}  "
              f"crs {last['crs']:.4f}  cmlm {last['cmlm']:.4f}  "
              f"cmam {last['cmam']:.4f}")


if __name__ == "__main__":
    main()
