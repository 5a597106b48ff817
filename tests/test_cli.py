import hashlib
import json
import signal
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
    # every row of the fusion layer, in every head
    for h in range(meta["num_heads"]):
        head = np.loadtxt(tmp_path / f"attn_head{h}.csv", delimiter=",")
        assert head.shape == (meta["length"], meta["length"])


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


@pytest.fixture(scope="module")
def finetuned(tmp_path_factory, pretrained, task_dir):
    out = tmp_path_factory.mktemp("ft")
    run_cli("finetune", "--checkpoint", pretrained / "checkpoint-final.npz",
            "--task-corpus", task_dir / "manifest.json",
            "--labels", task_dir / "labels.jsonl",
            "--out", out, "--steps", 1, "--batch-size", 4)
    return out / "checkpoint-finetuned.npz"


@pytest.fixture(scope="module")
def rate_200hz_dirs(tmp_path_factory):
    """A corpus and a labelled task corpus sampled at 200 Hz, twice the
    rate of the default model frontend."""
    from stdialog.finetune import (CrossModalTaskConfig,
                                   make_cross_modal_task,
                                   write_labels_manifest)
    from stdialog.shards import write_shards

    corpus = tmp_path_factory.mktemp("corpus-200hz")
    run_cli("generate", "--seed", 3, "--num-dialogs", 2, "--out", corpus,
            "--vocab-size", 10, "--turns-per-dialog", 2, 2,
            "--frame-rate", 200)
    cfg = CrossModalTaskConfig(num_dialogs=2, vocab_size=10, frame_rate=200)
    dialogs, labels, _ = make_cross_modal_task(cfg, seed=2)
    task = tmp_path_factory.mktemp("task-200hz")
    write_shards(dialogs, task / "manifest.json", sample_rate=cfg.frame_rate)
    write_labels_manifest(task / "labels.jsonl", labels)
    return corpus, task


@pytest.fixture(scope="module")
def unknown_words_dir(tmp_path_factory, task_dir):
    """The task corpus with every word renamed out of the vocabulary."""
    from stdialog.corpus import WordAlignment
    from stdialog.shards import load_corpus, write_shards

    corpus = load_corpus(task_dir / "manifest.json")
    for dialog in corpus.dialogs:
        for turn in dialog.turns:
            turn.words = [WordAlignment(f"x{w.word}", w.start_time,
                                        w.end_time) for w in turn.words]
    out = tmp_path_factory.mktemp("unknown")
    write_shards(corpus.dialogs, out / "manifest.json")
    return out


@pytest.fixture(scope="module")
def nan_corpus_dir(tmp_path_factory, corpus_dir):
    """The corpus with one NaN sample in the second turn of its last
    dialog."""
    from stdialog.shards import load_corpus, write_shards

    corpus = load_corpus(corpus_dir / "manifest.json")
    corpus.dialogs[-1].turns[1].waveform[3] = np.nan
    out = tmp_path_factory.mktemp("nan")
    write_shards(corpus.dialogs, out / "manifest.json")
    return out, corpus.dialogs[-1].dialog_id


def rewrite_checkpoint(src, dst, drop_meta=None, set_meta=None,
                       set_arrays=None):
    """``src`` saved as ``dst`` without the meta key ``drop_meta``, with the
    meta entries of ``set_meta`` and the arrays of ``set_arrays`` set (an
    array of None is left out)."""
    with np.load(src) as blob:
        arrays = {k: blob[k] for k in blob.files}
    meta = json.loads(arrays["meta"].tobytes())
    meta.pop(drop_meta, None)
    meta.update(set_meta or {})
    arrays.update(set_arrays or {})
    arrays = {k: v for k, v in arrays.items() if v is not None}
    arrays["meta"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    np.savez(dst, **arrays)
    return dst


@pytest.fixture(scope="module")
def broken_checkpoints(tmp_path_factory, pretrained, finetuned):
    out = tmp_path_factory.mktemp("broken")
    return {
        "no-version": rewrite_checkpoint(pretrained / "checkpoint-final.npz",
                                         out / "no-version.npz",
                                         drop_meta="version"),
        "version-4": rewrite_checkpoint(pretrained / "checkpoint-final.npz",
                                        out / "version-4.npz",
                                        set_meta={"version": 4}),
        # version 5 saved each parameter and moment by name, with no layout
        "version-5": rewrite_checkpoint(
            pretrained / "checkpoint-final.npz", out / "version-5.npz",
            drop_meta="layout", set_meta={"version": 5},
            set_arrays=dict.fromkeys(("params", "m", "v"))),
        # a pre-trained model labelled with a task, so without its head
        "no-head": rewrite_checkpoint(
            pretrained / "checkpoint-final.npz", out / "no-head.npz",
            set_meta={"task": {"kind": "classification", "num_classes": 4}}),
        "task-without-classes": rewrite_checkpoint(
            finetuned, out / "task-without-classes.npz",
            set_meta={"task": {"kind": "classification"}}),
        "task-kind-not-str": rewrite_checkpoint(
            finetuned, out / "task-kind-not-str.npz",
            set_meta={"task": {"kind": 1, "num_classes": 4}}),
        **{f"{key}-{name}": rewrite_checkpoint(
            pretrained / "checkpoint-final.npz", out / f"{key}-{name}.npz",
            set_meta={key: value})
           for key, name, value in (
               ("step", "str", "2"), ("step", "float", 2.5),
               ("step", "negative", -3), ("opt_t", "list", [1]),
               ("opt_t", "negative", -5), ("vocab", "int", 5))},
    }


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


def test_refinetune_keeps_the_checkpoint_class_count(finetuned, task_dir,
                                                     tmp_path):
    """A 4-class checkpoint fine-tuned on labels in which class 3 does not
    occur keeps its 4-way head."""
    from stdialog.trainer import load_checkpoint
    rows = [json.loads(line) for line in
            (task_dir / "labels.jsonl").read_text().splitlines()]
    assert load_checkpoint(finetuned)["task"].num_classes == 4
    without_3 = tmp_path / "without-3.jsonl"
    without_3.write_text("".join(json.dumps(row) + "\n" for row in rows
                                 if row["label"] != 3))
    out = tmp_path / "ft"
    run_cli("finetune", "--checkpoint", finetuned,
            "--task-corpus", task_dir / "manifest.json",
            "--labels", without_3, "--out", out, "--steps", 1,
            "--batch-size", 4)
    state = load_checkpoint(out / "checkpoint-finetuned.npz")
    assert state["task"].num_classes == 4


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


def test_stdialog_thread_count_overrides_exported_blas_threads():
    result = subprocess.run(
        [sys.executable, "-c", "import os, stdialog.cli; "
         "print(os.environ['OPENBLAS_NUM_THREADS'])"],
        capture_output=True, text=True, check=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin",
             "OPENBLAS_NUM_THREADS": "2", "STDIALOG_NUM_THREADS": "1"})
    assert result.stdout.strip() == "1"


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
                                  "removed-train-config-key",
                                  "removed-model-config-key",
                                  "incomplete-frontend-layer",
                                  "wrong-type-config-value",
                                  "bad-conv-pos-groups",
                                  "unknown-schedule",
                                  "negative-checkpoint-every",
                                  "negative-clip-norm",
                                  "evaluate-negative-speech-noise-std",
                                  "missing-vocab",
                                  "vocab-without-specials", "missing-labels",
                                  "one-class-labels", "small-vocab-size",
                                  "evaluate-unknown-word",
                                  "export-unknown-word",
                                  "export-out-under-a-file",
                                  "manifest-without-shard-file",
                                  "labels-row-without-label",
                                  "labels-row-not-json",
                                  "label-not-an-integer", "label-negative",
                                  "meta-without-version",
                                  "resume-checkpoint-version-4",
                                  "resume-checkpoint-version-5",
                                  "checkpoint-without-head",
                                  "refinetune-label-beyond-head",
                                  "task-meta-without-num-classes",
                                  "task-meta-kind-not-a-string",
                                  "resume-step-not-an-integer",
                                  "resume-step-a-float",
                                  "resume-step-negative",
                                  "resume-opt-t-a-list",
                                  "resume-opt-t-negative",
                                  "export-vocab-not-a-list",
                                  "pretrain-corpus-at-200hz",
                                  "finetune-corpus-at-200hz",
                                  "evaluate-corpus-at-200hz",
                                  "export-corpus-at-200hz",
                                  "pretrain-corpus-with-nan",
                                  "acoustic-span-not-integers"])
def test_bad_input_file_fails_in_one_line(case, corpus_dir, pretrained,
                                          task_dir, finetuned,
                                          unknown_words_dir,
                                          broken_checkpoints,
                                          rate_200hz_dirs, nan_corpus_dir,
                                          tmp_path):
    missing = tmp_path / "missing"
    unknown_key = tmp_path / "config.json"
    unknown_key.write_text(json.dumps({"steps": 1, "stepz": 2}))
    removed_train_key = tmp_path / "removed-train.json"
    removed_train_key.write_text(json.dumps(
        {"text_corruption": [0.8, 0.1, 0.1]}))
    removed_model_key = tmp_path / "removed-model.json"
    removed_model_key.write_text(json.dumps({"model": {"tpp_max_seconds": 5}}))
    incomplete_layer = tmp_path / "layer.json"
    incomplete_layer.write_text(json.dumps(
        {"model": {"frontend": {"layers": [{"channels": 4, "kernel": 5}]}}}))
    wrong_type = tmp_path / "type.json"
    wrong_type.write_text(json.dumps({"model": {"d_h": "64"}}))
    bad_groups = tmp_path / "groups.json"
    bad_groups.write_text(json.dumps({"model": {"conv_pos_groups": 3}}))
    bad_schedule = tmp_path / "schedule.json"
    bad_schedule.write_text(json.dumps(
        {"schedule": "bogus", "warmup_frac": 0.5, "checkpoint_every": 1}))
    bad_interval = tmp_path / "interval.json"
    bad_interval.write_text(json.dumps({"checkpoint_every": -1}))
    bad_clip = tmp_path / "clip.json"
    bad_clip.write_text(json.dumps({"clip_norm": -1.0}))
    bad_span = tmp_path / "span.json"
    bad_span.write_text(json.dumps({"acoustic_span": [2, float("inf")]}))
    no_specials = tmp_path / "vocab.txt"
    no_specials.write_text("alpha\nbeta\n")
    rows = [json.loads(line) for line in
            (task_dir / "labels.jsonl").read_text().splitlines()]
    one_class = tmp_path / "labels.jsonl"
    one_class.write_text("".join(
        json.dumps({**row, "label": 0}) + "\n" for row in rows))
    finetuned_classes = max(row["label"] for row in rows) + 1
    beyond_head = tmp_path / "beyond-head.jsonl"
    beyond_head.write_text(json.dumps(
        {**rows[0], "label": finetuned_classes}) + "\n")
    no_shard_file = tmp_path / "manifest.json"
    no_shard_file.write_text(json.dumps({"version": 1}))
    no_label = tmp_path / "no-label.jsonl"
    no_label.write_text('{"dialog_id": "d", "target_turn_index": 2}\n')
    not_json = tmp_path / "not-json.jsonl"
    not_json.write_text("dialog d turn 2 label 1\n")
    str_label = tmp_path / "str-label.jsonl"
    str_label.write_text(
        '{"dialog_id": "d", "target_turn_index": 2, "label": "x"}\n')
    negative_label = tmp_path / "negative-label.jsonl"
    negative_label.write_text(
        '{"dialog_id": "d", "target_turn_index": 2, "label": -1}\n')
    pretrain = ("pretrain", "--corpus", corpus_dir / "manifest.json",
                "--out", tmp_path / "run")
    finetune = ("finetune", "--checkpoint",
                pretrained / "checkpoint-final.npz",
                "--task-corpus", task_dir / "manifest.json",
                "--out", tmp_path / "ft")
    evaluate = ("evaluate", "--checkpoint", finetuned,
                "--task-corpus", task_dir / "manifest.json")
    export = ("export-attention", "--checkpoint",
              pretrained / "checkpoint-final.npz")
    corpus_200hz, task_200hz = rate_200hz_dirs
    task_200hz_args = ("--task-corpus", task_200hz / "manifest.json",
                       "--labels", task_200hz / "labels.jsonl")
    rates = "corpus sample rate 200 Hz differs from the model frontend's " \
        "100 Hz"
    args, message = {
        "missing-config": ((*pretrain, "--config", missing), str(missing)),
        "unknown-config-key": ((*pretrain, "--config", unknown_key),
                               "unknown train config key(s): stepz"),
        "removed-train-config-key": (
            (*pretrain, "--config", removed_train_key),
            "unknown train config key(s): text_corruption"),
        "removed-model-config-key": (
            (*pretrain, "--config", removed_model_key),
            "unknown model config key(s): tpp_max_seconds"),
        "incomplete-frontend-layer": (
            (*pretrain, "--config", incomplete_layer),
            "missing frontend layer config key(s): stride"),
        "wrong-type-config-value": (
            (*pretrain, "--config", wrong_type),
            "model config key d_h must be an integer, got '64'"),
        "bad-conv-pos-groups": ((*pretrain, "--config", bad_groups),
                                "conv_pos_groups 3 must be >= 1 and divide"),
        "unknown-schedule": (
            (*pretrain, "--config", bad_schedule),
            "schedule must be 'linear' or 'cosine', got 'bogus'"),
        "negative-checkpoint-every": (
            (*pretrain, "--config", bad_interval),
            "checkpoint_every must be >= 0, got -1"),
        "negative-clip-norm": ((*pretrain, "--config", bad_clip),
                               "clip_norm must be >= 0, got -1.0"),
        "evaluate-negative-speech-noise-std": (
            (*evaluate, "--labels", task_dir / "labels.jsonl",
             "--speech-noise-std", -1),
            "speech_noise_std must be >= 0, got -1.0"),
        "missing-vocab": ((*pretrain, "--vocab", missing), str(missing)),
        "vocab-without-specials": ((*pretrain, "--vocab", no_specials),
                                   "vocabulary must start with specials"),
        "missing-labels": ((*finetune, "--labels", missing), str(missing)),
        "one-class-labels": ((*finetune, "--labels", one_class),
                             "classification needs >= 2 classes"),
        "small-vocab-size": (("generate", "--vocab-size", 3,
                              "--out", tmp_path / "run"),
                             "vocab_size must be >= 8, got 3"),
        "evaluate-unknown-word": (
            ("evaluate", "--checkpoint", finetuned, "--task-corpus",
             unknown_words_dir / "manifest.json",
             "--labels", task_dir / "labels.jsonl"),
            "not in vocabulary"),
        "export-unknown-word": (
            (*export, "--corpus", unknown_words_dir / "manifest.json",
             "--out", tmp_path / "attn"),
            "not in vocabulary"),
        "export-out-under-a-file": (
            (*export, "--corpus", corpus_dir / "manifest.json",
             "--out", no_specials / "sub" / "attn"),
            f"Not a directory: '{no_specials / 'sub'}'"),
        "manifest-without-shard-file": (
            ("pretrain", "--corpus", no_shard_file, "--out", tmp_path / "run"),
            f"manifest {no_shard_file}: key 'shard_file' missing"),
        "labels-row-without-label": (
            (*evaluate, "--labels", no_label),
            f"{no_label} line 1: not a labels row: {{\"dialog_id\""),
        "labels-row-not-json": (
            (*finetune, "--labels", not_json),
            f"{not_json} line 1: not a labels row: dialog d turn 2"),
        "label-not-an-integer": (
            (*finetune, "--labels", str_label),
            f"{str_label} line 1: label 'x' is not an integer"),
        "label-negative": (
            (*finetune, "--labels", negative_label),
            f"{negative_label} line 1: label -1 is negative"),
        "meta-without-version": (
            ("export-attention", "--checkpoint",
             broken_checkpoints["no-version"], "--corpus",
             corpus_dir / "manifest.json", "--out", tmp_path / "attn"),
            "not a readable stdialog checkpoint: "
            f"{broken_checkpoints['no-version']}"),
        **{f"resume-checkpoint-version-{v}": (
            (*pretrain, "--resume", broken_checkpoints[f"version-{v}"]),
            f"checkpoint version {v} not supported") for v in (4, 5)},
        "checkpoint-without-head": (
            ("evaluate", "--checkpoint", broken_checkpoints["no-head"],
             "--task-corpus", task_dir / "manifest.json",
             "--labels", task_dir / "labels.jsonl"),
            "checkpoint is missing parameter head.w1"),
        "refinetune-label-beyond-head": (
            ("finetune", "--checkpoint", finetuned, "--task-corpus",
             task_dir / "manifest.json", "--labels", beyond_head,
             "--out", tmp_path / "ft"),
            f"{beyond_head}: label {finetuned_classes} is not below the "
            f"checkpoint's {finetuned_classes} classes"),
        "task-meta-without-num-classes": (
            ("evaluate", "--checkpoint",
             broken_checkpoints["task-without-classes"],
             "--task-corpus", task_dir / "manifest.json",
             "--labels", task_dir / "labels.jsonl"),
            "task meta key 'num_classes' missing or not of type int"),
        "task-meta-kind-not-a-string": (
            ("evaluate", "--checkpoint",
             broken_checkpoints["task-kind-not-str"],
             "--task-corpus", task_dir / "manifest.json",
             "--labels", task_dir / "labels.jsonl"),
            "task meta key 'kind' missing or not of type str"),
        **{f"resume-{what}": (
            (*pretrain, "--resume", broken_checkpoints[name]),
            f"checkpoint {broken_checkpoints[name]}: meta key {key!r} is "
            f"not a non-negative integer")
           for what, name, key in (
               ("step-not-an-integer", "step-str", "step"),
               ("step-a-float", "step-float", "step"),
               ("step-negative", "step-negative", "step"),
               ("opt-t-a-list", "opt_t-list", "opt_t"),
               ("opt-t-negative", "opt_t-negative", "opt_t"))},
        "export-vocab-not-a-list": (
            ("export-attention", "--checkpoint",
             broken_checkpoints["vocab-int"], "--corpus",
             corpus_dir / "manifest.json", "--out", tmp_path / "attn"),
            f"checkpoint {broken_checkpoints['vocab-int']}: meta key 'vocab' "
            f"is not a list of strings"),
        "pretrain-corpus-at-200hz": (
            ("pretrain", "--corpus", corpus_200hz / "manifest.json",
             "--out", tmp_path / "run"), rates),
        "finetune-corpus-at-200hz": (
            (*finetune[:3], *task_200hz_args, "--out", tmp_path / "ft"),
            rates),
        "evaluate-corpus-at-200hz": (
            ("evaluate", "--checkpoint", finetuned, *task_200hz_args),
            rates),
        "export-corpus-at-200hz": (
            (*export, "--corpus", corpus_200hz / "manifest.json",
             "--out", tmp_path / "attn"), rates),
        "pretrain-corpus-with-nan": (
            ("pretrain", "--corpus", nan_corpus_dir[0] / "manifest.json",
             "--out", tmp_path / "run"),
            f"dialog {nan_corpus_dir[1]} turn 2: non-finite waveform "
            f"samples in shard {nan_corpus_dir[0] / 'shard-000.bin'}"),
        "acoustic-span-not-integers": (
            (*pretrain, "--config", bad_span),
            "acoustic_span (2, inf) is not two integers"),
    }[case]
    result = run_cli(*args, check=False)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    assert len(result.stderr.strip().splitlines()) == 1
    assert message in result.stderr
    assert not (tmp_path / "run").exists() and not (tmp_path / "ft").exists()
    assert not missing.exists() and not list(tmp_path.glob("attn*"))


@pytest.mark.parametrize("args, message", [
    (("generate", "--turns-per-dialog", 3, 1),
     "turns_per_dialog (3, 1): low exceeds high"),
    (("generate", "--words-per-turn", 4, 2),
     "words_per_turn (4, 2): low exceeds high"),
    (("generate", "--word-duration", 0.4, 0.1),
     "word_duration (0.4, 0.1): low exceeds high"),
    (("generate", "--noise-std", -1), "noise_std must be >= 0, got -1.0"),
    (("pretrain", "--corpus-fraction", 0),
     "corpus_fraction must be in (0, 1], got 0.0"),
    (("pretrain", "--corpus-fraction", -1),
     "corpus_fraction must be in (0, 1], got -1.0"),
    (("pretrain", "--corpus-fraction", 1.5),
     "corpus_fraction must be in (0, 1], got 1.5"),
    (("pretrain", "--batch-size", -2), "batch_size must be >= 1, got -2"),
    (("pretrain", "--alpha", -1), "alpha must be >= 0, got -1.0"),
    (("finetune", "--batch-size", 0), "batch_size must be >= 1, got 0"),
    (("generate", "--words-per-turn", 0, 0),
     "words_per_turn low must be >= 1, got 0"),
    (("generate", "--word-duration", -1, -1),
     "word_duration low must be > 0, got -1.0"),
    (("pretrain", "--peak-lr", -1), "peak_lr must be >= 0, got -1.0"),
    (("finetune", "--peak-lr", -1), "peak_lr must be >= 0, got -1.0"),
    (("pretrain", "--peak-lr", "inf"), "peak_lr must be finite, got inf"),
    (("finetune", "--speech-noise-std", -1),
     "speech_noise_std must be >= 0, got -1.0"),
    (("finetune", "--speech-noise-std", "inf"),
     "speech_noise_std must be finite, got inf"),
], ids=["turns-per-dialog", "words-per-turn", "word-duration", "noise-std",
        "corpus-fraction-zero", "corpus-fraction-negative",
        "corpus-fraction-above-one", "batch-size", "alpha",
        "finetune-batch-size", "no-words-per-turn", "negative-word-duration",
        "peak-lr", "finetune-peak-lr", "peak-lr-inf",
        "finetune-speech-noise-std", "finetune-speech-noise-std-inf"])
def test_out_of_range_flag_fails_in_one_line(args, message, corpus_dir,
                                             tmp_path):
    """Checked before any file is read or written; the command functions
    run in this process, under the same error boundary as ``stdialog``."""
    from stdialog import cli

    files = {"generate": (),
             "pretrain": ("--corpus", corpus_dir / "manifest.json"),
             "finetune": ("--checkpoint", tmp_path / "missing.npz",
                          "--task-corpus", tmp_path / "missing.json",
                          "--labels", tmp_path / "missing.jsonl")}[args[0]]
    with pytest.raises(SystemExit) as info:
        cli.main([*map(str, (*args, *files, "--out", tmp_path / "out"))])
    assert info.value.code == message
    assert list(tmp_path.iterdir()) == []


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


# Runs ``stdialog`` with its first argument naming where to SIGKILL itself:
# "after-row" once step 3's metrics row is written (before its checkpoint),
# "in-write" once step 3's checkpoint is written to its ``.tmp`` (before the
# rename), "none" never.
KILL_LAUNCHER = """
import os, signal, sys
from stdialog import cli, trainer

point = sys.argv[1]
append, rename = trainer.MetricsLog.append, trainer.os.replace

def append_then_kill(self, record):
    append(self, record)
    if point == "after-row" and record["step"] == 3:
        os.kill(os.getpid(), signal.SIGKILL)

def kill_or_rename(src, dst):
    if point == "in-write" and str(dst).endswith("checkpoint-000003.npz"):
        os.kill(os.getpid(), signal.SIGKILL)
    rename(src, dst)

trainer.MetricsLog.append = append_then_kill
trainer.os.replace = kill_or_rename
sys.exit(cli.main(sys.argv[2:]))
"""


def test_pretrain_resumes_after_kill(corpus_dir, tmp_path):
    """A run SIGKILLed between a step's metrics row and its checkpoint, or
    inside the checkpoint write, resumed from its newest checkpoint, ends
    with the uninterrupted run's metric rows and parameters."""
    from stdialog.trainer import load_checkpoint
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"checkpoint_every": 1}))

    def launch(point, out, *extra):
        args = ("pretrain", "--corpus", corpus_dir / "manifest.json",
                "--config", config, "--out", out, "--steps", 5,
                "--batch-size", 2, "--k", 2, *extra)
        return subprocess.Popen(
            [sys.executable, "-c", KILL_LAUNCHER, point, *map(str, args)],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})

    def rows(out):
        lines = (out / "metrics.jsonl").read_text().splitlines()
        return [{k: v for k, v in json.loads(line).items()
                 if k != "wall_time"} for line in lines]

    def digest(out):
        state = load_checkpoint(out / "checkpoint-final.npz")
        return hashlib.sha256(json.dumps(state["layout"]).encode()
                              + state["params"].tobytes()).hexdigest()

    points = ("after-row", "in-write")
    runs = {point: launch(point, tmp_path / point)
            for point in ("none", *points)}
    for point, proc in runs.items():
        assert proc.wait() == (0 if point == "none" else -signal.SIGKILL), \
            proc.stderr.read()
    assert (tmp_path / "in-write" / "checkpoint-000003.npz.tmp").exists()
    resumed = []
    for point in points:
        out = tmp_path / point
        assert not (out / "checkpoint-final.npz").exists()
        newest = sorted(out.glob("checkpoint-*.npz"))[-1]
        assert newest.name == "checkpoint-000002.npz"
        resumed.append(launch("none", out, "--resume", newest))
    for proc in resumed:
        assert proc.wait() == 0, proc.stderr.read()
    expected = rows(tmp_path / "none")
    assert [row["step"] for row in expected] == [1, 2, 3, 4, 5]
    for point in points:
        out = tmp_path / point
        assert rows(out) == expected
        assert digest(out) == digest(tmp_path / "none")
        assert not list(out.glob("*.tmp"))
