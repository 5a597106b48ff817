#!/usr/bin/env python3
"""32-sample overfit run: loss trajectory, alignment MAE beside that of a
constant predictor, selection accuracy.

Usage: python scripts/overfit_sanity.py [--steps 500]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

from stdialog import presets
from stdialog.model import prepare_sample
from stdialog.objectives import (crs_rows, make_crs_sample, tpp_predictions,
                                 tpp_rows)
from stdialog.trainer import pretrain


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--steps", type=int, default=500)
    parser.add_argument("--out", help="optional metrics/checkpoint directory")
    args = parser.parse_args()

    corpus = presets.overfit_corpus()
    cfg = presets.overfit_train_config(steps=args.steps)
    t0 = time.monotonic()
    result = pretrain(cfg, corpus, out_dir=args.out)
    elapsed = time.monotonic() - t0
    m = result.metrics
    for step in (1, 10, 50, 100, 250, args.steps):
        if step <= len(m):
            r = m[step - 1]
            print(f"step {r['step']:4d}: joint {r['joint']:.4f}  "
                  f"tpp {r['tpp']:.5f} crs {r['crs']:.4f} "
                  f"cmlm {r['cmlm']:.4f} cmam {r['cmam']:.4f}")
    ref = min(10, args.steps)
    reduction = 1 - m[-1]["joint"] / m[ref - 1]["joint"]
    print(f"joint-loss reduction from step {ref}: {reduction:.2%}")

    model, vocab = result.model, result.vocab
    samples = corpus.all_samples(k=cfg.k)
    batch = prepare_sample(samples, vocab, model.config, train=False)
    # the fusion layer computes only the word-boundary rows read here
    fused = model.forward(batch, rows=lambda layout: tpp_rows(
        layout, batch.word_tokens)[0])[0]
    errors = model.tpp_absolute_errors(fused, batch)
    print(f"alignment MAE (normalized times): {float(errors.mean()):.4f}")
    # the [2w, 1] targets hold every word's start, then every word's end
    _, target, _ = tpp_predictions(fused, batch.word_tokens,
                                   batch.word_times, model.tpp_head)
    starts, ends = target.reshape(2, -1)
    constant = np.concatenate([np.abs(starts - np.median(starts)),
                               np.abs(ends - np.median(ends))])
    print(f"constant-predictor alignment MAE (median start and end): "
          f"{float(constant.mean()):.4f}")

    rng = np.random.default_rng(123)
    trials = 400
    corrupted, labels = [], []
    for _ in range(trials):
        s = samples[int(rng.integers(len(samples)))]
        sample, label = make_crs_sample(s, corpus.dialogs, rng)
        corrupted.append(sample)
        labels.append(label)
    batch = prepare_sample(corrupted, vocab, model.config, train=False)
    fused = model.forward(batch, rows=lambda layout: crs_rows(
        layout, labels)[0])[0]
    hits = model.crs_predict(fused) == labels
    print(f"response-selection accuracy: {hits.mean():.3f}")
    print(f"wall time: {elapsed:.0f}s")


if __name__ == "__main__":
    main()
