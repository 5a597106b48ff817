"""Pinned desk-scale setups used by the verification suite and scripts.

These are the calibrated configurations behind the repeatable experiments:
a 32-sample overfit run, the cross-modal fine-tune pair, and the masking
rate simulation.  Everything is a pure function of the seeds recorded here.
"""

from __future__ import annotations

from dataclasses import replace

from . import corpus as cp
from . import frontend as fe
from .finetune import CrossModalTaskConfig
from .model import ModelConfig
from .shards import Corpus
from .trainer import FinetuneConfig, TrainConfig

OVERFIT_CORPUS_SEED = 42
OVERFIT_TRAIN_SEED = 1
FINETUNE_CORPUS_SEED = 11
FINETUNE_TASK_SEED = 21
FINETUNE_EVAL_SEED = 22


def overfit_corpus_config() -> cp.SyntheticConfig:
    """8 dialogs x 5 turns = 32 pre-training samples."""
    return cp.SyntheticConfig(
        num_dialogs=8, turns_per_dialog=(5, 5), vocab_size=8,
        words_per_turn=(2, 3), frame_rate=100, noise_std=0.005,
        word_duration=(0.3, 0.4))


def overfit_corpus() -> Corpus:
    return Corpus(
        cp.generate_synthetic(overfit_corpus_config(), OVERFIT_CORPUS_SEED))


def desk_model_config(vocab_size: int = 0) -> ModelConfig:
    return ModelConfig(
        d_h=64, vocab_size=vocab_size, max_text_len=64, text_layers=2,
        speech_layers=2, num_heads=8, ffn_dim=256, init_scale=0.1,
        frontend=fe.desk_config(channels=8))


def overfit_train_config(steps: int = 500) -> TrainConfig:
    return TrainConfig(
        seed=OVERFIT_TRAIN_SEED, steps=steps, batch_size=128, peak_lr=5e-3,
        warmup_frac=0.15, schedule="cosine", weight_decay=0.0,
        clip_norm=10.0, adam_beta2=0.98, k=1, acoustic_trigger_prob=0.06,
        acoustic_span=(2, 3), model=desk_model_config())


def finetune_pretrain_setup() -> tuple:
    """Corpus + config for the checkpoint feeding the cross-modal task."""
    syn = cp.SyntheticConfig(
        num_dialogs=8, turns_per_dialog=(4, 5), vocab_size=12,
        words_per_turn=(2, 4), frame_rate=100, noise_std=0.01,
        word_duration=(0.25, 0.4))
    corpus = Corpus(cp.generate_synthetic(syn, FINETUNE_CORPUS_SEED))
    cfg = replace(overfit_train_config(steps=200), batch_size=32)
    return corpus, cfg


def cross_modal_task_config(num_dialogs: int = 64) -> CrossModalTaskConfig:
    return CrossModalTaskConfig(num_dialogs=num_dialogs, vocab_size=12,
                                noise_std=0.01)


def finetune_config(steps: int = 300, control: bool = False) -> FinetuneConfig:
    return FinetuneConfig(
        seed=OVERFIT_TRAIN_SEED + 1, steps=steps, batch_size=8, peak_lr=1e-3,
        warmup_frac=0.1, schedule="cosine", weight_decay=0.0, clip_norm=10.0,
        speech_noise_std=1.0 if control else 0.0)
