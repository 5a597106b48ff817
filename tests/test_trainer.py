import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from stdialog import corpus as cp
from stdialog import finetune as ft
from stdialog import frontend as fe
from stdialog import presets
from stdialog import trainer as tr
from stdialog.autodiff import Init, NonFiniteError, Parameter
from stdialog.model import ModelConfig, SpeechTextModel
from stdialog.optim import AdamW
from stdialog.shards import Corpus
from stdialog.text import Vocab

from test_cli import rewrite_checkpoint


def small_corpus(seed=0, num_dialogs=4):
    cfg = cp.SyntheticConfig(num_dialogs=num_dialogs, turns_per_dialog=(2, 4),
                             vocab_size=10, words_per_turn=(2, 4),
                             frame_rate=100, noise_std=0.05,
                             word_duration=(0.15, 0.3))
    return Corpus(cp.generate_synthetic(cfg, seed=seed))


def small_config(steps=10, **kw):
    model = ModelConfig(d_h=16, text_layers=1, speech_layers=1, num_heads=2,
                        ffn_dim=32, max_text_len=64,
                        frontend=fe.desk_config(channels=8))
    defaults = dict(seed=7, steps=steps, batch_size=4, peak_lr=5e-3,
                    warmup_frac=0.1, k=3, model=model)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


@pytest.mark.parametrize("make, message", [
    (lambda: tr.TrainConfig(corpus_fraction=0.0),
     "corpus_fraction must be in (0, 1], got 0.0"),
    (lambda: tr.TrainConfig(corpus_fraction=-1.0),
     "corpus_fraction must be in (0, 1], got -1.0"),
    (lambda: tr.TrainConfig.from_dict({"corpus_fraction": 1.5}),
     "corpus_fraction must be in (0, 1], got 1.5"),
    (lambda: tr.TrainConfig(batch_size=-2), "batch_size must be >= 1, got -2"),
    (lambda: tr.TrainConfig.from_dict({"alpha": -0.5}),
     "alpha must be >= 0, got -0.5"),
    (lambda: tr.TrainConfig(alpha=float("inf")),
     "alpha must be finite, got inf"),
    (lambda: tr.TrainConfig.from_dict({"acoustic_span": [1.5, 2.5]}),
     "acoustic_span (1.5, 2.5) is not two integers"),
    (lambda: tr.TrainConfig.from_dict({"acoustic_span": [2, float("inf")]}),
     "acoustic_span (2, inf) is not two integers"),
    (lambda: tr.TrainConfig(acoustic_span=(True, 2)),
     "acoustic_span (True, 2) is not two integers"),
    (lambda: tr.TrainConfig.from_dict({"acoustic_span": [2, 3, 4]}),
     "acoustic_span (2, 3, 4) is not two integers"),
    (lambda: tr.TrainConfig(acoustic_span=(4, 2)),
     "acoustic_span (4, 2) is empty"),
    (lambda: tr.TrainConfig(acoustic_trigger_prob=1.5),
     "acoustic_trigger_prob 1.5 not in [0,1]"),
    (lambda: tr.FinetuneConfig(batch_size=0),
     "batch_size must be >= 1, got 0"),
    (lambda: tr.TrainConfig.from_dict({"schedule": "bogus"}),
     "schedule must be 'linear' or 'cosine', got 'bogus'"),
    (lambda: tr.FinetuneConfig(schedule="step"),
     "schedule must be 'linear' or 'cosine', got 'step'"),
    (lambda: tr.TrainConfig(warmup_frac=1.5),
     "warmup_frac must be in [0, 1], got 1.5"),
    (lambda: tr.FinetuneConfig(warmup_frac=-0.1),
     "warmup_frac must be in [0, 1], got -0.1"),
    (lambda: tr.TrainConfig(peak_lr=-1.0), "peak_lr must be >= 0, got -1.0"),
    (lambda: tr.FinetuneConfig(peak_lr=float("nan")),
     "peak_lr must be >= 0, got nan"),
    (lambda: tr.TrainConfig(clip_norm=-1.0),
     "clip_norm must be >= 0, got -1.0"),
    (lambda: tr.FinetuneConfig(clip_norm=-0.5),
     "clip_norm must be >= 0, got -0.5"),
    (lambda: tr.TrainConfig.from_dict({"checkpoint_every": -1}),
     "checkpoint_every must be >= 0, got -1"),
    (lambda: tr.FinetuneConfig(speech_noise_std=-1.0),
     "speech_noise_std must be >= 0, got -1.0"),
    (lambda: tr.FinetuneConfig(speech_noise_std=float("inf")),
     "speech_noise_std must be finite, got inf"),
    (lambda: tr.TrainConfig(adam_beta2=1.0),
     "adam_beta2 must be in [0, 1), got 1.0"),
    (lambda: tr.TrainConfig.from_dict({"adam_beta2": -0.5}),
     "adam_beta2 must be in [0, 1), got -0.5"),
    (lambda: tr.TrainConfig(adam_beta2=1.5),
     "adam_beta2 must be in [0, 1), got 1.5"),
    (lambda: tr.TrainConfig.from_dict({"adam_beta2": float("nan")}),
     "adam_beta2 must be in [0, 1), got nan"),
    (lambda: tr.TrainConfig.from_dict({"weight_decay": float("nan")}),
     "weight_decay must be >= 0, got nan"),
    (lambda: tr.FinetuneConfig(weight_decay=-0.01),
     "weight_decay must be >= 0, got -0.01"),
    (lambda: tr.TrainConfig(peak_lr=float("inf")),
     "peak_lr must be finite, got inf"),
    (lambda: tr.FinetuneConfig(peak_lr=float("inf")),
     "peak_lr must be finite, got inf"),
    (lambda: tr.TrainConfig.from_dict({"weight_decay": float("inf")}),
     "weight_decay must be finite, got inf"),
    (lambda: tr.FinetuneConfig(weight_decay=float("inf")),
     "weight_decay must be finite, got inf"),
    # checked before the model or the items are read
    (lambda: tr.evaluate_task(None, None, None, None, [],
                              speech_noise_std=-1.0),
     "speech_noise_std must be >= 0, got -1.0"),
    (lambda: tr.evaluate_task(None, None, None, None, [],
                              speech_noise_std=float("inf")),
     "speech_noise_std must be finite, got inf"),
], ids=["fraction-zero", "fraction-negative", "fraction-above-one",
        "batch-size", "alpha", "alpha-inf", "acoustic-span-floats",
        "acoustic-span-inf", "acoustic-span-bool", "acoustic-span-three",
        "acoustic-span-empty", "acoustic-trigger-prob",
        "finetune-batch-size", "schedule",
        "finetune-schedule", "warmup-above-one", "finetune-warmup-negative",
        "peak-lr", "finetune-peak-lr-nan", "clip-norm", "finetune-clip-norm",
        "checkpoint-every", "finetune-speech-noise-std",
        "finetune-speech-noise-std-inf",
        "adam-beta2-one", "adam-beta2-negative", "adam-beta2-above-one",
        "adam-beta2-nan", "weight-decay-nan", "finetune-weight-decay",
        "peak-lr-inf", "finetune-peak-lr-inf", "weight-decay-inf",
        "finetune-weight-decay-inf", "evaluate-speech-noise-std",
        "evaluate-speech-noise-std-inf"])
def test_out_of_range_config_rejected(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_infinite_clip_norm_is_accepted():
    assert tr.TrainConfig(clip_norm=float("inf")).clip_norm == float("inf")
    assert tr.FinetuneConfig(clip_norm=float("inf")).clip_norm == float("inf")


def strip_wall(rows):
    return [{k: v for k, v in r.items() if k != "wall_time"} for r in rows]


class TestPretrainLoop:
    def test_same_seed_identical_metrics(self):
        corpus = small_corpus()
        a = tr.pretrain(small_config(), corpus)
        b = tr.pretrain(small_config(), corpus)
        assert strip_wall(a.metrics) == strip_wall(b.metrics)

    def test_different_seed_differs(self):
        corpus = small_corpus()
        a = tr.pretrain(small_config(), corpus)
        b = tr.pretrain(small_config(seed=8), corpus)
        assert strip_wall(a.metrics) != strip_wall(b.metrics)

    def test_metrics_fields_and_monotone_steps(self):
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=6), corpus)
        steps = [r["step"] for r in result.metrics]
        assert steps == list(range(1, 7))
        for row in result.metrics:
            for key in ("joint", "tpp", "crs", "cmlm", "cmam", "lr",
                        "wall_time"):
                assert key in row

    def test_metrics_log_rejects_non_monotone(self):
        log = tr.MetricsLog()
        log.append({"step": 1})
        with pytest.raises(ValueError):
            log.append({"step": 1})

    def test_k_flag_changes_text_turn_counts(self):
        corpus = small_corpus()
        s1 = corpus.all_samples(k=1)
        s3 = corpus.all_samples(k=3)
        max1 = max(len(s.text_turns) for s in s1)
        max3 = max(len(s.text_turns) for s in s3)
        assert max1 == 2
        assert max3 > 2
        for s, t in zip(s1, s3):
            assert len(s.text_turns) == min(1, s.target_turn_index - 1) + 1
            assert len(t.text_turns) == min(3, t.target_turn_index - 1) + 1

    def test_corpus_fraction_reduces_pool(self):
        corpus = small_corpus()
        full = tr.pretrain(small_config(steps=3), corpus)
        frac = tr.pretrain(small_config(steps=3, corpus_fraction=0.3), corpus)
        assert strip_wall(full.metrics) != strip_wall(frac.metrics)

    def test_ablation_axes_run_and_differ(self):
        corpus = small_corpus()
        base = tr.pretrain(small_config(steps=4), corpus)
        no_tpp = tr.pretrain(small_config(steps=4, alpha=0.0), corpus)
        no_crs = tr.pretrain(small_config(steps=4, crs_enabled=False), corpus)
        assert all(r["crs"] == 0.0 for r in no_crs.metrics)
        base_last = base.metrics[-1]
        assert no_tpp.metrics[-1]["joint"] != base_last["joint"]
        # alpha=0 still reports the alignment component, just unweighted
        assert no_tpp.metrics[-1]["tpp"] > 0.0

    def test_empty_corpus_rejected(self):
        cfg = cp.SyntheticConfig(num_dialogs=2, turns_per_dialog=(2, 2),
                                 vocab_size=8, frame_rate=100)
        dialogs = cp.generate_synthetic(cfg, seed=0)
        for d in dialogs:
            d.turns = d.turns[:1]
        with pytest.raises(ValueError, match="no samples"):
            tr.pretrain(small_config(steps=2), Corpus(dialogs))

    def test_nan_in_layer_weight_names_transformer_layer(self, monkeypatch):
        class PoisonedModel(tr.SpeechTextModel):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.speech_layers[0].ff1_w.data[3, 5] = np.nan

        monkeypatch.setattr(tr, "SpeechTextModel", PoisonedModel)
        with pytest.raises(NonFiniteError, match="transformer_layer"):
            tr.pretrain(small_config(steps=2), small_corpus())


class TestCheckpointing:
    def test_roundtrip_bitwise(self, tmp_path):
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=4), corpus,
                             out_dir=tmp_path)
        model, vocab, state = tr.model_from_checkpoint(result.checkpoint_path)
        assert vocab.id_to_token == result.vocab.id_to_token
        for name, p in result.model.params.items():
            np.testing.assert_array_equal(p.data, model.params[name].data)
            assert model.params[name].data.dtype == p.data.dtype
        assert state["step"] == 4

    def test_finetuned_roundtrip_bitwise(self, tmp_path, built_optimizers):
        # loading builds the head of the checkpoint's task after the
        # model's parameters, from their slices, and builds no optimizer
        items, task, vocab = task_items(ft.CrossModalTaskConfig(
            num_dialogs=4, vocab_size=10))
        model = SpeechTextModel(
            replace(small_config().model, vocab_size=vocab.size), seed=0)
        result = tr.finetune(tr.FinetuneConfig(steps=2, batch_size=2), model,
                             vocab, task, items, out_dir=tmp_path)
        built_optimizers.clear()
        loaded, loaded_vocab, state = tr.model_from_checkpoint(
            result.checkpoint_path)
        assert built_optimizers == []
        assert list(loaded.params) == list(model.params)
        assert "head.w1" in model.params
        for name, p in model.params.items():
            assert loaded.params[name].data.dtype == p.data.dtype
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), \
                name
        assert state["task"] == task and state["step"] == 2
        assert tr.evaluate_task(loaded, loaded_vocab, loaded.head, task,
                                items) == \
            tr.evaluate_task(model, vocab, result.head, task, items)

    def test_resume_matches_uninterrupted(self, tmp_path):
        corpus = small_corpus()
        full = tr.pretrain(small_config(steps=12, checkpoint_every=6), corpus,
                           out_dir=tmp_path / "half")
        resumed = tr.pretrain(small_config(steps=12), corpus,
                              resume_from=tmp_path / "half"
                              / "checkpoint-000006.npz")
        tail_full = strip_wall(full.metrics)[6:]
        tail_resumed = strip_wall(resumed.metrics)
        assert tail_resumed == tail_full
        for name, p in full.model.params.items():
            np.testing.assert_array_equal(p.data,
                                          resumed.model.params[name].data)

    def test_resume_keeps_earlier_metrics_rows(self, tmp_path):
        corpus = small_corpus()
        tr.pretrain(small_config(steps=6, checkpoint_every=3), corpus,
                    out_dir=tmp_path)
        log = tmp_path / "metrics.jsonl"
        uninterrupted = tr.MetricsLog.read(log)
        resumed = tr.pretrain(small_config(steps=6), corpus, out_dir=tmp_path,
                              resume_from=tmp_path / "checkpoint-000003.npz")
        assert [r["step"] for r in resumed.metrics] == [4, 5, 6]
        assert strip_wall(tr.MetricsLog.read(log)) == \
            strip_wall(uninterrupted)

    @pytest.mark.parametrize("whole_rows", [2, 4])
    def test_resume_drops_row_torn_after_checkpoint(self, tmp_path,
                                                    whole_rows):
        # a kill while a row after step 2's checkpoint is written leaves
        # the rows before it and a prefix of it; checkpoint 2 resumes the
        # uninterrupted run
        corpus = small_corpus()
        tr.pretrain(small_config(steps=4, checkpoint_every=2), corpus,
                    out_dir=tmp_path)
        log = tmp_path / "metrics.jsonl"
        uninterrupted = tr.MetricsLog.read(log)
        lines = log.read_text().splitlines(keepends=True)
        torn = json.dumps({"step": whole_rows + 1, "joint": 1.5})[:20]
        log.write_text("".join(lines[:whole_rows]) + torn)
        tr.pretrain(small_config(steps=4), corpus, out_dir=tmp_path,
                    resume_from=tmp_path / "checkpoint-000002.npz")
        assert strip_wall(tr.MetricsLog.read(log)) == \
            strip_wall(uninterrupted)

    def test_resume_config_mismatch_rejected(self, tmp_path):
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=4, checkpoint_every=2),
                             corpus, out_dir=tmp_path)
        with pytest.raises(ValueError, match="seed, peak_lr"):
            tr.pretrain(small_config(steps=4, seed=99, peak_lr=1.0), corpus,
                        resume_from=tmp_path / "checkpoint-000002.npz")
        bare = tmp_path / "no-train-config.npz"
        tr.save_checkpoint(bare, result.model, result.vocab,
                           AdamW(result.model.parameters()), 2, None)
        with pytest.raises(ValueError, match="no pre-training config"):
            tr.pretrain(small_config(steps=4), corpus, resume_from=bare)

    def test_failed_write_keeps_earlier_checkpoint(self, tmp_path,
                                                   monkeypatch):
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=2), corpus, out_dir=tmp_path)
        path = result.checkpoint_path
        calls = []

        def fail_on_second_array(fid, array, **kwargs):
            calls.append(array.shape)
            if len(calls) > 1:
                raise OSError("disk full")
            real_write_array(fid, array, **kwargs)

        real_write_array = np.lib.format.write_array
        monkeypatch.setattr(np.lib.format, "write_array",
                            fail_on_second_array)
        with pytest.raises(OSError, match="disk full"):
            tr.save_checkpoint(path, result.model, result.vocab,
                               AdamW(result.model.parameters()), 9, None)
        monkeypatch.undo()
        assert tr.load_checkpoint(path)["step"] == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["checkpoint-final.npz", "metrics.jsonl"]

    def test_corrupted_checkpoint_never_loads(self, tmp_path):
        # the npz container is a zip: a flipped byte fails the member's
        # CRC-32 and a truncated file loses its central directory; each
        # failure is one named error that keeps the zip error as its cause
        import zipfile
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=2), corpus, out_dir=tmp_path)
        raw = result.checkpoint_path.read_bytes()
        table = result.model.params["text.token_table"].data.tobytes()
        assert raw.find(table) > 0
        at = raw.find(table) + len(table) // 2
        flipped = raw[:at] + bytes([raw[at] ^ 0xFF]) + raw[at + 1:]
        not_zip = "File is not a zip file"
        for name, data, message in (
                ("flipped", flipped, "Bad CRC-32"),
                ("cut100", raw[:100], not_zip),
                ("half", raw[:len(raw) // 2], not_zip),
                ("short10", raw[:-10], not_zip)):
            bad = tmp_path / f"{name}.npz"
            bad.write_bytes(data)
            with pytest.raises(ValueError) as info:
                tr.load_checkpoint(bad)
            assert str(info.value) == \
                f"not a readable stdialog checkpoint: {bad}"
            assert isinstance(info.value.__cause__, zipfile.BadZipFile)
            assert message in str(info.value.__cause__)

    def test_unreadable_checkpoint_is_named(self, tmp_path):
        # a text file, a missing file, one .npy array, an archive without
        # its metadata and one whose metadata lacks a key
        text = tmp_path / "text.npz"
        text.write_text("not a zip")
        assert text.stat().st_size == 9
        array = tmp_path / "array.npz"
        with open(array, "wb") as fh:
            np.save(fh, np.zeros(2))
        no_meta = tmp_path / "no_meta.npz"
        np.savez(no_meta, **{"param/w": np.zeros(2)})
        no_version = tmp_path / "no_version.npz"
        np.savez(no_version, meta=np.frombuffer(b'{"step": 1}', np.uint8))
        for bad, cause in ((text, ValueError),
                           (tmp_path / "missing.npz", FileNotFoundError),
                           (array, TypeError),
                           (no_meta, KeyError),
                           (no_version, ValueError)):
            with pytest.raises(ValueError) as info:
                tr.load_checkpoint(bad)
            assert str(info.value) == \
                f"not a readable stdialog checkpoint: {bad}"
            assert isinstance(info.value.__cause__, cause)

    def test_unknown_version_rejected(self, tmp_path):
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=2), corpus, out_dir=tmp_path)
        # 4 is the version before the config fields that became constants;
        # 5 saved each parameter and moment as a member of its own, and no
        # layout: the version is refused before any array is looked for
        for version in (4, 5, 42):
            bad = rewrite_checkpoint(
                result.checkpoint_path, tmp_path / "bad.npz",
                drop_meta="layout", set_meta={"version": version},
                set_arrays=dict.fromkeys(("params", "m", "v")))
            with pytest.raises(ValueError, match=f"checkpoint version "
                                                 f"{version} not supported"):
                tr.load_checkpoint(bad)

    def test_bad_meta_value_is_named(self, tmp_path):
        result = tr.pretrain(small_config(steps=1), small_corpus(),
                             out_dir=tmp_path)
        with np.load(result.checkpoint_path) as blob:
            arrays = {k: blob[k] for k in blob.files}
        meta = json.loads(arrays["meta"].tobytes())
        count, words = "a non-negative integer", "a list of strings"
        for key, value, what in (
                ("step", "2", count), ("step", 2.5, count),
                ("step", True, count), ("step", -3, count),
                ("opt_t", [1], count), ("opt_t", -5, count),
                ("vocab", 5, words), ("vocab", meta["vocab"] + [7], words)):
            bad = tmp_path / "bad.npz"
            arrays["meta"] = np.frombuffer(
                json.dumps({**meta, key: value}).encode(), np.uint8)
            np.savez(bad, **arrays)
            with pytest.raises(ValueError) as info:
                tr.load_checkpoint(bad)
            assert str(info.value) == \
                f"checkpoint {bad}: meta key {key!r} is not {what}", value
        # zero steps taken is a count
        arrays["meta"] = np.frombuffer(
            json.dumps({**meta, "step": 0, "opt_t": 0}).encode(), np.uint8)
        np.savez(tmp_path / "zero.npz", **arrays)
        assert tr.load_checkpoint(tmp_path / "zero.npz")["step"] == 0

    @pytest.mark.parametrize("case, what", [
        ("layout-missing", "layout"), ("layout-not-a-list", "layout"),
        ("shape-not-a-list", "layout"), ("negative-size", "layout"),
        ("float-size", "layout"), ("bool-size", "layout"),
        ("name-not-a-string", "layout"), ("repeated-name", "layout"),
        ("sizes-short-of-params", "params"), ("m-shorter", "m"),
        ("v-longer", "v"), ("params-float64", "params"),
        ("params-not-flat", "params")])
    def test_bad_layout_is_named(self, tmp_path, case, what):
        # load_checkpoint refuses each, so no model is filled from it
        result = tr.pretrain(small_config(steps=1), small_corpus(),
                             out_dir=tmp_path)
        state = tr.load_checkpoint(result.checkpoint_path)
        layout = [[name, list(shape)] for name, shape in state["layout"]]
        name, shape = layout[0]
        first = {"shape-not-a-list": [name, 12],
                 "negative-size": [name, [-shape[0], *shape[1:]]],
                 "float-size": [name, [float(n) for n in shape]],
                 "bool-size": [name, [True] * len(shape)],
                 "name-not-a-string": [7, shape],
                 "repeated-name": [layout[1][0], shape]}
        rewrites = {
            "layout-missing": {"drop_meta": "layout"},
            "layout-not-a-list": {"set_meta": {"layout": {name: shape}}},
            **{key: {"set_meta": {"layout": [entry, *layout[1:]]}}
               for key, entry in first.items()},
            "sizes-short-of-params": {"set_meta": {"layout": layout[:-1]}},
            "m-shorter": {"set_arrays": {"m": state["m"][:-1]}},
            "v-longer": {"set_arrays": {"v": np.append(state["v"], 1)}},
            "params-float64": {"set_arrays": {
                "params": state["params"].astype(np.float64)}},
            "params-not-flat": {"set_arrays": {
                "params": state["params"].reshape(1, -1)}}}
        bad = rewrite_checkpoint(result.checkpoint_path, tmp_path / "bad.npz",
                                 **rewrites[case])
        size = state["params"].size
        if case == "sizes-short-of-params":
            size -= int(np.prod(layout[-1][1]))
        if what == "layout":
            message = "meta key 'layout' is not a list of [name, shape] " \
                "pairs with distinct names"
        else:
            message = f"{what} is not the {size} float32 values its " \
                "layout lists"
        with pytest.raises(ValueError) as info:
            tr.model_from_checkpoint(bad)
        assert str(info.value) == f"checkpoint {bad}: {message}"

    @pytest.mark.parametrize("entry", ["model_from_checkpoint", "resume"])
    @pytest.mark.parametrize("case", ["missing", "shape", "order"])
    def test_layout_other_than_the_model_is_named(self, tmp_path, case,
                                                  entry):
        # a well-formed layout that does not list the model's parameters;
        # loading a model and resuming share the one check
        corpus = small_corpus()
        tr.pretrain(small_config(steps=2, checkpoint_every=1), corpus,
                    out_dir=tmp_path)
        saved = tmp_path / "checkpoint-000001.npz"
        layout = [[name, list(shape)]
                  for name, shape in tr.load_checkpoint(saved)["layout"]]
        (name, shape), second = layout[0], layout[1]
        assert len(shape) == 2 and shape[0] != shape[1]
        if case == "missing":
            layout[0] = ["renamed", shape]
            message = f"checkpoint is missing parameter {name}"
        elif case == "shape":
            layout[0] = [name, shape[::-1]]
            message = f"checkpoint parameter {name} has shape " \
                f"{tuple(shape[::-1])}, model expects {tuple(shape)}"
        else:
            layout[:2] = [second, layout[0]]
            message = "checkpoint holds parameters the model does not " \
                "build, or lists them in another order"
        bad = rewrite_checkpoint(saved, tmp_path / "bad.npz",
                                 set_meta={"layout": layout})
        with pytest.raises(ValueError) as info:
            if entry == "resume":
                tr.pretrain(small_config(steps=2), corpus, resume_from=bad)
            else:
                tr.model_from_checkpoint(bad)
        assert str(info.value) == message

    def test_save_refuses_optimizer_of_other_parameters(self, tmp_path):
        result = tr.pretrain(small_config(steps=1), small_corpus())
        params = result.model.parameters()
        path = tmp_path / "checkpoint.npz"
        extra = Parameter(np.zeros(1, np.float32), "extra")
        for owned, first in ((params[:-1], params[-1].name),
                             (params[1:] + params[:1], params[0].name),
                             (params + [extra], "extra")):
            with pytest.raises(ValueError, match="optimizer does not own "
                               "the model's parameters in order, from "
                               f"{first}$"):
                tr.save_checkpoint(path, result.model, result.vocab,
                                   AdamW(owned), 1, None)
        # a rebound parameter's value is not in the optimizer's buffer
        opt = AdamW(params)
        params[2].data = params[2].data.copy()
        with pytest.raises(ValueError, match=f"{params[2].name}: .*in place"):
            tr.save_checkpoint(path, result.model, result.vocab, opt, 1, None)
        assert not path.exists()

    def test_vocab_mismatch_on_resume_rejected(self, tmp_path):
        corpus = small_corpus()
        result = tr.pretrain(small_config(steps=2), corpus, out_dir=tmp_path)
        other = small_corpus(seed=5)
        other.dialogs[0].turns[0].words[0] = cp.WordAlignment(
            "unheard", *[0.0, 0.1])
        with pytest.raises(ValueError, match="vocabulary"):
            tr.pretrain(small_config(steps=4), other,
                        resume_from=result.checkpoint_path)

    def test_periodic_checkpoints_written(self, tmp_path):
        corpus = small_corpus()
        tr.pretrain(small_config(steps=6, checkpoint_every=2), corpus,
                    out_dir=tmp_path)
        assert (tmp_path / "checkpoint-000002.npz").exists()
        assert (tmp_path / "checkpoint-000004.npz").exists()
        assert (tmp_path / "checkpoint-final.npz").exists()


@pytest.fixture
def built_optimizers(monkeypatch):
    """Every ``AdamW`` that the trainer builds, in order."""
    built = []

    class Recorded(AdamW):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(tr, "AdamW", Recorded)
    return built


def assert_owns_every_parameter(opt, model):
    """Each parameter of ``model`` is ``opt``'s, and its ``data`` and
    ``grad`` are still ``opt``'s views of its flat buffers."""
    assert [p.name for p in opt.params] == list(model.params)
    opt.check_views()


def task_items(task_config, seed=0):
    """A cross-modal task's (sample, label) items, its spec and a vocab of
    its words."""
    dialogs, labels, task = ft.make_cross_modal_task(task_config, seed)
    vocab = Vocab.from_tokens(cp.SyntheticConfig(
        vocab_size=task_config.vocab_size).vocabulary())
    return ft.task_samples(dialogs, labels), task, vocab


def finetuned_checkpoint(tmp_path):
    """A small model fine-tuned 2 steps on the 4-class cross-modal task,
    saved: (checkpoint path, items, task, vocab)."""
    items, task, vocab = task_items(ft.CrossModalTaskConfig(
        num_dialogs=4, vocab_size=10))
    model = SpeechTextModel(
        replace(small_config().model, vocab_size=vocab.size), seed=0)
    result = tr.finetune(tr.FinetuneConfig(steps=2, batch_size=2), model,
                         vocab, task, items, out_dir=tmp_path / "ft")
    return result.checkpoint_path, items, task, vocab


class TestTaskHead:
    @pytest.mark.parametrize("entry", ["model_from_checkpoint", "resume"])
    def test_stray_parameter_is_refused(self, tmp_path, entry):
        # a parameter after the model's own, and no task whose head it is
        corpus = small_corpus()
        tr.pretrain(small_config(steps=2, checkpoint_every=1), corpus,
                    out_dir=tmp_path)
        saved = tmp_path / "checkpoint-000001.npz"
        state = tr.load_checkpoint(saved)
        layout = [[name, list(shape)] for name, shape in state["layout"]]
        bad = rewrite_checkpoint(
            saved, tmp_path / "bad.npz",
            set_meta={"layout": layout + [["stray.w", [3]]]},
            set_arrays={key: np.append(state[key], np.ones(3, np.float32))
                        for key in ("params", "m", "v")})
        assert tr.load_checkpoint(bad)["layout"][-1] == ("stray.w", (3,))
        with pytest.raises(ValueError) as info:
            if entry == "resume":
                tr.pretrain(small_config(steps=2), corpus, resume_from=bad)
            else:
                tr.model_from_checkpoint(bad)
        assert str(info.value) == "checkpoint holds parameters the model " \
            "does not build, or lists them in another order"

    def test_task_of_another_class_count_is_refused(self, tmp_path):
        path, _, _, _ = finetuned_checkpoint(tmp_path)
        bad = rewrite_checkpoint(path, tmp_path / "bad.npz", set_meta={
            "task": {"kind": "classification", "num_classes": 3}})
        with pytest.raises(ValueError) as info:
            tr.model_from_checkpoint(bad)
        assert str(info.value) == "checkpoint parameter head.w2 has shape " \
            "(16, 4), model expects (16, 3)"

    def test_checkpoint_task_is_the_head_s(self, tmp_path):
        path, _, task, _ = finetuned_checkpoint(tmp_path)
        model, _, state = tr.model_from_checkpoint(path)
        assert state["task"] == task == model.head.task
        assert [p.name for p in vars(model.head).values()] == \
            list(model.params)[-4:]

    def test_finetune_on_head_of_another_size_writes_nothing(
            self, tmp_path, built_optimizers):
        path, items, _, _ = finetuned_checkpoint(tmp_path)
        model, vocab, _ = tr.model_from_checkpoint(path)
        built_optimizers.clear()
        two_way = ft.TaskSpec(kind=ft.CLASSIFICATION, num_classes=2)
        with pytest.raises(ValueError) as info:
            tr.finetune(tr.FinetuneConfig(steps=2, batch_size=2), model,
                        vocab, two_way, items, out_dir=tmp_path / "again")
        assert str(info.value) == "the model's head has 4 outputs, the task 2"
        assert built_optimizers == [] and not (tmp_path / "again").exists()
        assert model.head.task.num_classes == 4

    def test_refinetune_keeps_the_loaded_head(self, tmp_path):
        path, items, task, _ = finetuned_checkpoint(tmp_path)
        model, vocab, _ = tr.model_from_checkpoint(path)
        head = model.head
        result = tr.finetune(tr.FinetuneConfig(steps=1, batch_size=2), model,
                             vocab, task, items, out_dir=tmp_path / "again")
        assert result.head is model.head is head
        assert tr.load_checkpoint(result.checkpoint_path)["task"] == task


class TestFlatBufferViews:
    def test_after_steps(self, built_optimizers):
        result = tr.pretrain(small_config(steps=2), small_corpus())
        assert_owns_every_parameter(built_optimizers[-1], result.model)

    def test_after_resume(self, tmp_path, built_optimizers):
        # the model is built from the checkpoint; its one optimizer takes
        # over the loaded parameters
        corpus = small_corpus()
        tr.pretrain(small_config(steps=4, checkpoint_every=2), corpus,
                    out_dir=tmp_path)
        built_optimizers.clear()
        resumed = tr.pretrain(small_config(steps=4), corpus,
                              resume_from=tmp_path / "checkpoint-000002.npz")
        assert len(built_optimizers) == 1
        assert_owns_every_parameter(built_optimizers[0], resumed.model)

    def test_finetune_of_loaded_model_owns_its_head(self, tmp_path,
                                                    built_optimizers):
        items, task, vocab = task_items(ft.CrossModalTaskConfig(
            num_dialogs=4, vocab_size=10))
        model = SpeechTextModel(
            replace(small_config().model, vocab_size=vocab.size), seed=0)
        path = tmp_path / "checkpoint.npz"
        tr.save_checkpoint(path, model, vocab, AdamW(model.parameters()), 0,
                           None)
        model, vocab, _ = tr.model_from_checkpoint(path)
        assert built_optimizers == []
        result = tr.finetune(tr.FinetuneConfig(steps=2, batch_size=2), model,
                             vocab, task, items)
        opt = built_optimizers[-1]
        assert_owns_every_parameter(opt, model)
        assert {"head.w1", "head.b1", "head.w2", "head.b2"} <= \
            {p.name for p in opt.params}
        assert result.head.w1 is model.params["head.w1"]


def params_sha256(params) -> str:
    h = hashlib.sha256()
    for p in params:
        h.update(f"{p.name}:{p.data.dtype.str}:{p.data.shape}".encode())
        h.update(p.data.tobytes())
    return h.hexdigest()


def test_init_draws_are_pinned():
    # the model's init from stream (0, 0) and the head that finetune draws
    # from (seed, 2); a step at learning rate 0 leaves every value as drawn
    model = SpeechTextModel(presets.desk_model_config(vocab_size=16), seed=0)
    assert params_sha256(model.parameters()) == \
        "518651da9d149f29187d07576f4ba54d9dfd9f8a6d0c15bccfb046a111d7d7ba"
    items, task, vocab = task_items(presets.cross_modal_task_config(
        num_dialogs=2))
    assert vocab.size == 16
    head = tr.finetune(tr.FinetuneConfig(steps=1, batch_size=1, peak_lr=0.0),
                       model, vocab, task, items).head
    assert params_sha256([head.w1, head.b1, head.w2, head.b2]) == \
        "a62cdfb01bffb5425efa8f92a520d0769f40a8c98481d11aa68895581932ea1e"


def test_library_finetune_and_evaluate_check_the_sample_rate():
    items, task, vocab = task_items(replace(
        presets.cross_modal_task_config(num_dialogs=4), frame_rate=200))
    model = SpeechTextModel(presets.desk_model_config(vocab_size=vocab.size),
                            seed=0)
    rates = "corpus sample rate 200 Hz differs from the model frontend's " \
        "100 Hz"
    with pytest.raises(ValueError, match=rates):
        tr.finetune(presets.finetune_config(steps=2), model, vocab, task,
                    items)
    head = ft.init_prediction_head(
        Init(model.params, rng=np.random.default_rng(0)), model.config.d_h,
        task.num_classes)
    with pytest.raises(ValueError, match=rates):
        tr.evaluate_task(model, vocab, head, task, items)


def test_empty_finetune_set_rejected():
    _, task, vocab = task_items(presets.cross_modal_task_config(
        num_dialogs=4))
    model = SpeechTextModel(presets.desk_model_config(vocab_size=vocab.size),
                            seed=0)
    with pytest.raises(ValueError, match="cannot fine-tune on an empty "
                                         "dataset"):
        tr.finetune(presets.finetune_config(steps=2), model, vocab, task, [])
