#!/usr/bin/env python3
"""Same-seed fingerprint of the training trajectories, as one JSON object.

Each run gives the sha256 of its metric rows (``wall_time`` left out, key
order kept) and of its final parameters: pre-training with response
selection on and off (overfit preset, 4 steps, batch 8), then fine-tuning
a fresh model on the cross-modal task at batch 8 and at a batch larger
than the item count, each followed by the fine-tuned model's eval
accuracy.  ``mask_plans`` digests the acoustic masker on its own: the
mask, actions and replacement sources of a one-turn ``draw_mask_plan``
for lengths 1-120 and seeds 0-9 under the span and the baseline configs.
Two checkouts that print the same object train bit for bit alike.

Usage: python scripts/fingerprint.py
"""

import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stdialog import presets
from stdialog.corpus import SyntheticConfig
from stdialog.finetune import make_cross_modal_task, task_samples
from stdialog.masking import (DEFAULT_BASELINE_CONFIG, DEFAULT_SPAN_CONFIG,
                              draw_mask_plan)
from stdialog.model import SpeechTextModel
from stdialog.text import Vocab
from stdialog.trainer import evaluate_task, finetune, pretrain

STEPS = 4
BATCH = 8
TASK_DIALOGS = 16


def rows_digest(rows: list) -> str:
    kept = [{k: v for k, v in row.items() if k != "wall_time"}
            for row in rows]
    return hashlib.sha256(json.dumps(kept).encode()).hexdigest()


def params_digest(params: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(params):
        data = params[name].data
        h.update(f"{name}:{data.dtype.str}:{data.shape}".encode())
        h.update(data.tobytes())
    return h.hexdigest()


def digests(result) -> dict:
    return {"metrics": rows_digest(result.metrics),
            "params": params_digest(result.model.params)}


def mask_plans_digest() -> str:
    h = hashlib.sha256()
    for config in (DEFAULT_SPAN_CONFIG, DEFAULT_BASELINE_CONFIG):
        for length in range(1, 121):
            for seed in range(10):
                plan = draw_mask_plan([length], np.random.default_rng(seed),
                                      config)
                for data in (plan.mask, plan.actions,
                             plan.replacement_sources):
                    h.update(data.tobytes())
    return h.hexdigest()


def main():
    out = {"mask_plans": mask_plans_digest()}
    corpus = presets.overfit_corpus()
    for crs in (True, False):
        cfg = replace(presets.overfit_train_config(steps=STEPS),
                      batch_size=BATCH, crs_enabled=crs)
        result = pretrain(cfg, corpus)
        out[f"pretrain_crs_{'on' if crs else 'off'}"] = digests(result)

    task_cfg = presets.cross_modal_task_config(num_dialogs=TASK_DIALOGS)
    train_d, train_l, task = make_cross_modal_task(
        task_cfg, presets.FINETUNE_TASK_SEED)
    eval_d, eval_l, _ = make_cross_modal_task(
        task_cfg, presets.FINETUNE_EVAL_SEED)
    train_items = task_samples(train_d, train_l)
    eval_items = task_samples(eval_d, eval_l)
    vocab = Vocab.from_tokens(
        SyntheticConfig(vocab_size=task_cfg.vocab_size).vocabulary())
    for batch in (BATCH, len(train_items) + 24):
        model = SpeechTextModel(
            presets.desk_model_config(vocab_size=vocab.size), seed=0)
        cfg = replace(presets.finetune_config(steps=STEPS), batch_size=batch)
        result = finetune(cfg, model, vocab, task, list(train_items))
        out[f"finetune_batch_{batch}"] = digests(result)
        out[f"eval_accuracy_batch_{batch}"] = evaluate_task(
            model, vocab, result.head, task, eval_items)
    print(json.dumps(out, indent=1))


if __name__ == "__main__":
    main()
