import numpy as np
import pytest

from stdialog import corpus as cp
from stdialog import finetune as ft
from stdialog.autodiff import Init, Tensor
from stdialog.encoders import FusedBatch
from stdialog.gradcheck import grad_check

from oracles import dot


def fused_batch(hidden, starts=(0,)) -> FusedBatch:
    """Samples of 6 text rows and one prev and one cur frame, from rows
    ``starts`` of ``hidden``."""
    b = len(starts)
    return FusedBatch(Tensor(hidden), np.full(b, 6), np.ones(b, int),
                      np.ones(b, int), np.array(starts))


def make_fused(d=8, seed=0):
    rng = np.random.default_rng(seed)
    return fused_batch(rng.standard_normal((10, d)))


def make_head(d=8, d_o=4, seed=1, dtype=np.float64):
    registry = {}
    return ft.init_prediction_head(Init(registry, dtype,
                                        np.random.default_rng(seed)),
                                   d, d_o), registry


class TestTaskSpec:
    def test_regression_single_output(self):
        spec = ft.TaskSpec(kind="regression")
        assert spec.metric == "binary accuracy"
        with pytest.raises(ValueError):
            ft.TaskSpec(kind="regression", num_classes=3)

    def test_classification_needs_classes(self):
        spec = ft.TaskSpec(kind="classification", num_classes=4)
        assert spec.metric == "multiclass accuracy"
        with pytest.raises(ValueError):
            ft.TaskSpec(kind="classification", num_classes=1)


class TestPredict:
    def test_zero_w2_gives_bias(self):
        fused = make_fused()
        head, _ = make_head()
        head.w2.data[...] = 0.0
        head.b2.data[...] = [1.0, -2.0, 0.5, 3.0]
        out = ft.predict(fused, head)
        np.testing.assert_allclose(out.data[0], [1.0, -2.0, 0.5, 3.0],
                                   atol=1e-12)

    def test_zero_first_layer_gives_bias_through_gelu_zero(self):
        fused = make_fused()
        head, _ = make_head()
        head.w1.data[...] = 0.0
        head.b1.data[...] = 0.0
        head.b2.data[...] = [0.1, 0.2, 0.3, 0.4]
        out = ft.predict(fused, head)
        np.testing.assert_allclose(out.data[0], [0.1, 0.2, 0.3, 0.4],
                                   atol=1e-12)

    def test_scalar_oracle(self):
        import math
        rng = np.random.default_rng(2)
        for _ in range(100):
            fused = make_fused(seed=int(rng.integers(1e6)))
            head, _ = make_head(seed=int(rng.integers(1e6)))
            out = ft.predict(fused, head).data[0]
            h0 = fused.hidden.data[0].tolist()
            hidden = []
            for j in range(8):
                z = dot(h0, [row[j] for row in head.w1.data.tolist()]) \
                    + head.b1.data[j]
                hidden.append(z * 0.5 * (1 + math.erf(z / math.sqrt(2))))
            expected = [dot(hidden, [row[j] for row in head.w2.data.tolist()])
                        + head.b2.data[j] for j in range(4)]
            np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_w2_scaling_scales_output(self):
        fused = make_fused()
        head, _ = make_head()
        base = ft.predict(fused, head).data
        head.w2.data[...] *= 3.0
        head.b2.data[...] *= 3.0
        np.testing.assert_allclose(ft.predict(fused, head).data, 3 * base,
                                   rtol=1e-10)

    def test_gradients(self):
        fused_hidden = np.random.default_rng(3).standard_normal((10, 8))
        head, registry = make_head(seed=4)

        def loss():
            return ft.task_loss(ft.predict(fused_batch(fused_hidden), head),
                                [2], ft.TaskSpec("classification", 4))

        assert grad_check(loss, list(registry.values())).max_relative_error \
            < 1e-4

    def test_batch_rows_equal_one_sample_calls(self):
        a, b = make_fused(seed=5), make_fused(seed=6)
        batch = fused_batch(np.concatenate([a.hidden.data, b.hidden.data]),
                            (0, 10))
        head, _ = make_head()
        out = ft.predict(batch, head).data
        assert out.shape == (2, 4)
        for row, fused in zip(out, (a, b)):
            np.testing.assert_allclose(row, ft.predict(fused, head).data[0],
                                       rtol=1e-12)
        labels = [3, 1]
        task = ft.TaskSpec("classification", 4)
        losses = ft.task_loss(ft.predict(batch, head), labels, task).data
        for loss, fused, label in zip(losses, (a, b), labels):
            assert loss == pytest.approx(ft.task_loss(
                ft.predict(fused, head), [label], task).item(), rel=1e-12)

    def test_second_head_on_one_registry_rejected(self):
        _, registry = make_head()
        with pytest.raises(ValueError, match="duplicate parameter name"):
            ft.init_prediction_head(
                Init(registry, rng=np.random.default_rng(2)), 8, 4)


class TestEvaluate:
    def test_all_correct(self):
        task = ft.TaskSpec("classification", 4)
        data = [(i, i % 4) for i in range(8)]

        def forward(i):
            out = np.zeros(4)
            out[i % 4] = 5.0
            return out

        assert ft.evaluate(task, forward, data) == 1.0

    def test_binary_accuracy_sign_threshold(self):
        task = ft.TaskSpec("regression")
        data = [("a", 1.0), ("b", -1.0)]
        outs = {"a": np.array([0.3]), "b": np.array([-0.2])}
        assert ft.evaluate(task, lambda s: outs[s], data) == 1.0
        outs_bad = {"a": np.array([-0.3]), "b": np.array([-0.2])}
        assert ft.evaluate(task, lambda s: outs_bad[s], data) == 0.5

    def test_argmax_invariance_to_monotone_transform(self):
        task = ft.TaskSpec("classification", 3)
        rng = np.random.default_rng(5)
        logits = {i: rng.standard_normal(3) for i in range(20)}
        data = [(i, int(logits[i].argmax())) for i in range(20)]
        plain = ft.evaluate(task, lambda i: logits[i], data)
        warped = ft.evaluate(task, lambda i: np.exp(2 * logits[i]) + 7, data)
        assert plain == warped == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            ft.evaluate(ft.TaskSpec("classification", 2), lambda s: s, [])


class TestCrossModalTask:
    def test_deterministic_and_balanced(self):
        cfg = ft.CrossModalTaskConfig(num_dialogs=40)
        d1, l1, task = ft.make_cross_modal_task(cfg, seed=3)
        d2, l2, _ = ft.make_cross_modal_task(cfg, seed=3)
        assert l1 == l2
        assert task.num_classes == 4
        counts = np.bincount(list(l1.values()), minlength=4)
        assert counts.min() >= 3

    def test_label_encodes_text_and_audio_bits(self):
        cfg = ft.CrossModalTaskConfig(num_dialogs=30, noise_std=0.0)
        dialogs, labels, _ = ft.make_cross_modal_task(cfg, seed=4)
        tone = cp.word_signature(ft.TONE_ID)
        for d in dialogs:
            label = labels[(d.dialog_id, d.turns[-1].turn_index)]
            text_bit, speech_bit = label // 2, label % 2
            current = d.turns[-1]
            first_word = current.words[0].word
            assert first_word == f"w{ft.TEXT_MARKER_IDS[text_bit]:03d}"
            prefix = current.waveform[:10]
            if speech_bit:
                np.testing.assert_allclose(prefix, tone, atol=1e-6)
            else:
                np.testing.assert_allclose(prefix, np.zeros(10), atol=1e-6)

    def test_tone_never_in_transcript(self):
        cfg = ft.CrossModalTaskConfig(num_dialogs=20)
        dialogs, _, _ = ft.make_cross_modal_task(cfg, seed=5)
        for d in dialogs:
            for t in d.turns:
                for w in t.words:
                    assert int(w.word[1:]) < cfg.vocab_size

    def test_task_dialogs_validate_and_sample(self):
        cfg = ft.CrossModalTaskConfig(num_dialogs=10)
        dialogs, labels, _ = ft.make_cross_modal_task(cfg, seed=6)
        for d in dialogs:
            assert cp.validate_dialog(d) == []
        items = ft.task_samples(dialogs, labels)
        assert len(items) == 10
        for sample, label in items:
            assert 0 <= label < 4
            assert len(sample.text_turns) == 2

    def test_noise_control_replaces_speech(self):
        cfg = ft.CrossModalTaskConfig(num_dialogs=5)
        dialogs, labels, _ = ft.make_cross_modal_task(cfg, seed=7)
        items = ft.task_samples(dialogs, labels)
        noisy = ft.replace_speech_with_noise(items,
                                             np.random.default_rng(0))
        for (orig, _), (repl, _) in zip(items, noisy):
            assert len(orig.speech_cur) == len(repl.speech_cur)
            assert not np.array_equal(orig.speech_cur, repl.speech_cur)

    def test_labels_manifest_roundtrip(self, tmp_path):
        labels = {("d1", 2): 3, ("d2", 5): 0}
        ft.write_labels_manifest(tmp_path / "labels.jsonl", labels)
        loaded = ft.read_labels_manifest(tmp_path / "labels.jsonl")
        assert loaded == labels

    def test_bad_labels_row_is_named(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        good = '{"dialog_id": "d1", "target_turn_index": 2, "label": 3}'
        for bad in ('{"dialog_id": "d1", "target_turn_index": 3}',
                    "d1 3 label 1", "[1, 2]"):
            path.write_text(f"{good}\n\n{bad}\n")
            with pytest.raises(ValueError) as info:
                ft.read_labels_manifest(path)
            assert str(info.value) == \
                f"{path} line 3: not a labels row: {bad}"

    def test_non_integer_label_is_named(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        for label in ('"x"', "true", "1.0", "null"):
            path.write_text('{"dialog_id": "d1", "target_turn_index": 2, '
                            f'"label": {label}}}\n')
            with pytest.raises(ValueError) as info:
                ft.read_labels_manifest(path)
            assert str(info.value).startswith(f"{path} line 1: label ")
            assert str(info.value).endswith(" is not an integer")

    def test_negative_label_is_named(self, tmp_path):
        path = tmp_path / "labels.jsonl"
        path.write_text('{"dialog_id": "a", "target_turn_index": 2, '
                        '"label": 1}\n{"dialog_id": "a", '
                        '"target_turn_index": 3, "label": -1}\n')
        with pytest.raises(ValueError) as info:
            ft.read_labels_manifest(path)
        assert str(info.value) == f"{path} line 2: label -1 is negative"

    def test_task_samples_keep_only_labelled_turns(self):
        cfg = cp.SyntheticConfig(num_dialogs=2, turns_per_dialog=(4, 4))
        dialogs = cp.generate_synthetic(cfg, seed=8)
        labels = {(dialogs[0].dialog_id, 3): 1, (dialogs[1].dialog_id, 4): 2,
                  ("absent", 2): 0}
        items = ft.task_samples(dialogs, labels)
        assert [(s.dialog_id, s.target_turn_index, label)
                for s, label in items] == [
            (dialogs[0].dialog_id, 3, 1), (dialogs[1].dialog_id, 4, 2)]
        assert all(len(s.text_turns) == 2 for s, _ in items)
