import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, check=True):
    result = subprocess.run(
        [sys.executable, "-m", "stdialog", *map(str, args)],
        capture_output=True, text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    if check and result.returncode != 0:
        raise AssertionError(f"cli failed: {result.stderr}")
    return result


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    run_cli("generate", "--seed", 3, "--num-dialogs", 4, "--out", out,
            "--vocab-size", 10, "--turns-per-dialog", 2, 3,
            "--words-per-turn", 2, 3, "--word-duration", 0.2, 0.35)
    return out


def test_generate_writes_loadable_corpus(corpus_dir):
    from stdialog.shards import load_corpus
    assert (corpus_dir / "manifest.json").exists()
    assert (corpus_dir / "vocab.txt").exists()
    corpus = load_corpus(corpus_dir / "manifest.json")
    assert len(corpus.dialogs) == 4


def test_generate_deterministic(tmp_path):
    run_cli("generate", "--seed", 9, "--num-dialogs", 2, "--out",
            tmp_path / "a")
    run_cli("generate", "--seed", 9, "--num-dialogs", 2, "--out",
            tmp_path / "b")
    blob_a = (tmp_path / "a" / "shard-000.bin").read_bytes()
    blob_b = (tmp_path / "b" / "shard-000.bin").read_bytes()
    assert blob_a == blob_b


def test_simulate_masking_output_parses():
    result = run_cli("simulate-masking", "--length", 99, "--trials", 20000,
                     "--masker", "baseline", "--seed", 5)
    lines = result.stdout.splitlines()
    mean = float(lines[1].split(":")[1])
    stderr = float(lines[2].split(":")[1])
    assert 0.10 < mean < 0.20
    assert stderr < 0.001


def test_simulate_masking_bad_input_fails_cleanly():
    result = run_cli("simulate-masking", "--trials", 100, check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.strip() == "need at least 10^4 trials, got 100"
    result = run_cli("simulate-masking", "--trigger-prob", 2, check=False)
    assert result.returncode == 1
    assert result.stderr.strip() == "trigger_prob 2.0 not in [0,1]"


def test_simulate_masking_spectra_choice():
    result = run_cli("simulate-masking", "--length", 99, "--trials", 20000,
                     "--masker", "spectra", "--seed", 5)
    mean = float(result.stdout.splitlines()[1].split(":")[1])
    assert 0.0 < mean <= 1.0


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory, corpus_dir):
    out = tmp_path_factory.mktemp("run")
    run_cli("pretrain", "--corpus", corpus_dir / "manifest.json",
            "--vocab", corpus_dir / "vocab.txt",
            "--out", out, "--steps", 5, "--seed", 1, "--batch-size", 4,
            "--k", 2)
    return out


def test_pretrain_writes_checkpoint_and_metrics(pretrained):
    assert (pretrained / "checkpoint-final.npz").exists()
    rows = [json.loads(l) for l in
            (pretrained / "metrics.jsonl").read_text().splitlines()]
    assert [r["step"] for r in rows] == [1, 2, 3, 4, 5]


def test_export_attention_writes_files(pretrained, corpus_dir, tmp_path):
    prefix = tmp_path / "attn"
    result = run_cli("export-attention", "--checkpoint",
                     pretrained / "checkpoint-final.npz",
                     "--corpus", corpus_dir / "manifest.json",
                     "--dialog-index", 0, "--turn-index", 2,
                     "--out", prefix)
    assert "cross-modal mass" in result.stdout
    meta = json.loads((tmp_path / "attn_meta.json").read_text())
    mean = np.loadtxt(tmp_path / "attn_mean.csv", delimiter=",")
    assert mean.shape == (meta["length"], meta["length"])


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    from stdialog.finetune import (CrossModalTaskConfig,
                                   make_cross_modal_task,
                                   write_labels_manifest)
    from stdialog.shards import write_shards

    cfg = CrossModalTaskConfig(num_dialogs=8, vocab_size=10)
    dialogs, labels, _ = make_cross_modal_task(cfg, seed=2)
    task_dir = tmp_path_factory.mktemp("task")
    write_shards(dialogs, task_dir / "manifest.json",
                 sample_rate=cfg.frame_rate)
    write_labels_manifest(task_dir / "labels.jsonl", labels)
    return task_dir


def test_finetune_and_evaluate_cycle(pretrained, task_dir, tmp_path):
    out = tmp_path / "ft"
    run_cli("finetune", "--checkpoint", pretrained / "checkpoint-final.npz",
            "--task-corpus", task_dir / "manifest.json",
            "--labels", task_dir / "labels.jsonl",
            "--out", out, "--steps", 3, "--batch-size", 4)
    assert (out / "checkpoint-finetuned.npz").exists()
    result = run_cli("evaluate", "--checkpoint",
                     out / "checkpoint-finetuned.npz",
                     "--task-corpus", task_dir / "manifest.json",
                     "--labels", task_dir / "labels.jsonl")
    assert "accuracy" in result.stdout


def snapshot(directory):
    return {p.name: (p.read_bytes(), p.stat().st_mtime_ns)
            for p in directory.iterdir()}


def test_pretrain_without_steps_writes_nothing(corpus_dir, tmp_path):
    out = tmp_path / "run"
    result = run_cli("pretrain", "--corpus", corpus_dir / "manifest.json",
                     "--out", out, "--steps", 0, check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "nothing to train: steps 0 <= start step 0" in result.stderr
    assert not out.exists()


def test_resume_from_final_checkpoint_writes_nothing(pretrained, corpus_dir):
    before = snapshot(pretrained)
    result = run_cli("pretrain", "--corpus", corpus_dir / "manifest.json",
                     "--vocab", corpus_dir / "vocab.txt",
                     "--out", pretrained, "--steps", 5, "--seed", 1,
                     "--batch-size", 4, "--k", 2,
                     "--resume", pretrained / "checkpoint-final.npz",
                     check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "nothing to train: steps 5 <= start step 5" in result.stderr
    assert snapshot(pretrained) == before


def test_resume_with_different_config_fails_cleanly(pretrained, corpus_dir,
                                                    tmp_path):
    out = tmp_path / "run"
    result = run_cli("pretrain", "--corpus", corpus_dir / "manifest.json",
                     "--vocab", corpus_dir / "vocab.txt",
                     "--out", out, "--steps", 8, "--seed", 2,
                     "--batch-size", 4, "--k", 2,
                     "--resume", pretrained / "checkpoint-final.npz",
                     check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.strip() == \
        "resume config differs from the checkpoint's in: seed, steps"
    assert not out.exists()


def test_resume_over_bad_metrics_row_fails_cleanly(corpus_dir, tmp_path):
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"checkpoint_every": 1}))
    args = ("pretrain", "--corpus", corpus_dir / "manifest.json",
            "--config", config, "--out", out, "--steps", 3,
            "--batch-size", 2, "--k", 2)
    run_cli(*args)
    log = out / "metrics.jsonl"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text('{"step": 1, "joint": 1.\n' + "".join(lines[1:]))
    before = snapshot(out)
    result = run_cli(*args, "--resume", out / "checkpoint-000002.npz",
                     check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.strip() == \
        f'{log} line 1: not a metrics row: {{"step": 1, "joint": 1.'
    assert snapshot(out) == before


def test_diverged_pretrain_fails_in_one_line(corpus_dir, tmp_path):
    """Non-finite values end the command with one line naming the step;
    the checkpoints of earlier steps stay loadable."""
    from stdialog.trainer import load_checkpoint
    out = tmp_path / "run"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"checkpoint_every": 1}))
    result = run_cli("pretrain", "--corpus", corpus_dir / "manifest.json",
                     "--config", config, "--out", out, "--steps", 6,
                     "--batch-size", 2, "--k", 2, "--peak-lr", 1e30,
                     check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    message = result.stderr.strip()
    assert "\n" not in message and "non-finite" in message
    step = int(message.split(":")[0].removeprefix("step "))
    assert 1 < step <= 6
    for done in range(1, step):
        state = load_checkpoint(out / f"checkpoint-{done:06d}.npz")
        assert state["step"] == done
    assert not (out / f"checkpoint-{step:06d}.npz").exists()


def test_finetune_without_steps_writes_nothing(pretrained, task_dir,
                                               tmp_path):
    out = tmp_path / "ft"
    result = run_cli("finetune", "--checkpoint",
                     pretrained / "checkpoint-final.npz",
                     "--task-corpus", task_dir / "manifest.json",
                     "--labels", task_dir / "labels.jsonl",
                     "--out", out, "--steps", 0, check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert "nothing to train: steps 0 <= start step 0" in result.stderr
    assert not out.exists()


def test_bad_subcommand_fails():
    result = run_cli("frobnicate", check=False)
    assert result.returncode != 0


def test_missing_corpus_fails_cleanly(pretrained, task_dir, tmp_path):
    # evaluate reads its task corpus through the same path as finetune
    missing = tmp_path / "missing.json"
    commands = (
        ("pretrain", "--corpus", missing, "--out", tmp_path / "run"),
        ("finetune", "--checkpoint", pretrained / "checkpoint-final.npz",
         "--task-corpus", missing, "--labels", task_dir / "labels.jsonl",
         "--out", tmp_path / "ft"),
        ("export-attention", "--checkpoint",
         pretrained / "checkpoint-final.npz", "--corpus", missing,
         "--out", tmp_path / "attn"))
    for args in commands:
        result = run_cli(*args, check=False)
        assert result.returncode == 1, args[0]
        assert "Traceback" not in result.stderr, args[0]
        assert result.stderr.startswith(f"cannot read manifest {missing}:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("case", ["missing-config", "unknown-config-key",
                                  "incomplete-frontend-layer",
                                  "wrong-type-config-value",
                                  "bad-conv-pos-groups", "missing-vocab",
                                  "vocab-without-specials", "missing-labels",
                                  "one-class-labels"])
def test_bad_input_file_fails_in_one_line(case, corpus_dir, pretrained,
                                          task_dir, tmp_path):
    missing = tmp_path / "missing"
    unknown_key = tmp_path / "config.json"
    unknown_key.write_text(json.dumps({"steps": 1, "stepz": 2}))
    incomplete_layer = tmp_path / "layer.json"
    incomplete_layer.write_text(json.dumps(
        {"model": {"frontend": {"layers": [{"channels": 4, "kernel": 5}]}}}))
    wrong_type = tmp_path / "type.json"
    wrong_type.write_text(json.dumps({"model": {"d_h": "64"}}))
    bad_groups = tmp_path / "groups.json"
    bad_groups.write_text(json.dumps({"model": {"conv_pos_groups": 3}}))
    no_specials = tmp_path / "vocab.txt"
    no_specials.write_text("alpha\nbeta\n")
    one_class = tmp_path / "labels.jsonl"
    one_class.write_text("".join(
        json.dumps({**json.loads(line), "label": 0}) + "\n"
        for line in (task_dir / "labels.jsonl").read_text().splitlines()))
    pretrain = ("pretrain", "--corpus", corpus_dir / "manifest.json",
                "--out", tmp_path / "run")
    finetune = ("finetune", "--checkpoint",
                pretrained / "checkpoint-final.npz",
                "--task-corpus", task_dir / "manifest.json",
                "--out", tmp_path / "ft")
    args, message = {
        "missing-config": ((*pretrain, "--config", missing), str(missing)),
        "unknown-config-key": ((*pretrain, "--config", unknown_key),
                               "unknown train config key(s): stepz"),
        "incomplete-frontend-layer": (
            (*pretrain, "--config", incomplete_layer),
            "missing frontend layer config key(s): stride"),
        "wrong-type-config-value": (
            (*pretrain, "--config", wrong_type),
            "model config key d_h must be an integer, got '64'"),
        "bad-conv-pos-groups": ((*pretrain, "--config", bad_groups),
                                "conv_pos_groups 3 must be >= 1 and divide"),
        "missing-vocab": ((*pretrain, "--vocab", missing), str(missing)),
        "vocab-without-specials": ((*pretrain, "--vocab", no_specials),
                                   "vocabulary must start with specials"),
        "missing-labels": ((*finetune, "--labels", missing), str(missing)),
        "one-class-labels": ((*finetune, "--labels", one_class),
                             "classification needs >= 2 classes"),
    }[case]
    result = run_cli(*args, check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert message in result.stderr
    assert not (tmp_path / "run").exists() and not (tmp_path / "ft").exists()


def test_unreadable_checkpoint_fails_cleanly(corpus_dir, tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_text("not a zip")
    result = run_cli("export-attention", "--checkpoint", bad,
                     "--corpus", corpus_dir / "manifest.json",
                     "--out", tmp_path / "attn", check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert result.stderr.strip() == \
        f"not a readable stdialog checkpoint: {bad}"
