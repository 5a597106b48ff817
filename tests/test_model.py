import json
from dataclasses import replace

import numpy as np
import pytest

from composed_speech import (assert_node_matches_reference,
                             composed_extract_features,
                             composed_project_features)
from stdialog import corpus as cp
from stdialog import frontend as fe
from stdialog import model as md
from stdialog import objectives as ob
from stdialog.gradcheck import grad_check
from stdialog.masking import AcousticMaskConfig
from stdialog.objectives import LossWeights, make_crs_sample
from stdialog.text import Vocab, WhitespaceTokenizer
from stdialog.trainer import TrainConfig


def tiny_setup(dtype="float64", seed=0, layers=1):
    syn = cp.SyntheticConfig(num_dialogs=2, turns_per_dialog=(2, 3),
                             vocab_size=8, words_per_turn=(2, 3),
                             frame_rate=100, noise_std=0.02,
                             word_duration=(0.15, 0.3))
    dialogs = cp.generate_synthetic(syn, seed=seed)
    vocab = Vocab.from_tokens(syn.vocabulary())
    config = md.ModelConfig(
        d_h=8, vocab_size=vocab.size, max_text_len=24, text_layers=layers,
        speech_layers=layers, num_heads=2, ffn_dim=8, dtype=dtype,
        conv_pos_kernel=3, conv_pos_groups=2,
        frontend=fe.desk_config(channels=4))
    model = md.SpeechTextModel(config, seed=seed)
    samples = [s for d in dialogs for s in cp.build_samples(d, k=2)]
    return model, vocab, dialogs, samples


def prepare(model, vocab, sample, label=None, seed=0, span=(2, 4),
            mask_prob=0.15, trigger=0.15):
    rng = np.random.default_rng(seed)
    return md.prepare_sample(
        sample, vocab, model.config, rng=rng, crs_label=label,
        text_mask_prob=mask_prob,
        acoustic_config=AcousticMaskConfig(trigger_prob=trigger,
                                           span_range=span))


class TestForward:
    def test_fused_length_identity_through_pipeline(self):
        model, vocab, dialogs, samples = tiny_setup()
        for sample in samples[:3]:
            fused = model.eval_fused(sample, vocab)
            n = len(md.tokenize_sample(sample, vocab).token_ids)
            m_prev = model.config.frontend.output_length(len(sample.speech_prev))
            m_cur = model.config.frontend.output_length(len(sample.speech_cur))
            assert fused.length == n + m_prev + m_cur + 2
            assert fused.hidden.shape == (fused.length, 8)

    def test_eval_forward_deterministic(self):
        model, vocab, _, samples = tiny_setup()
        a = model.eval_fused(samples[0], vocab).hidden.data
        b = model.eval_fused(samples[0], vocab).hidden.data
        np.testing.assert_array_equal(a, b)

    def test_losses_structure(self):
        model, vocab, dialogs, samples = tiny_setup()
        sample, label = make_crs_sample(samples[0], dialogs,
                                        np.random.default_rng(1))
        prepared = prepare(model, vocab, sample, label)
        losses = model.compute_losses([prepared])
        for key in ("tpp", "cmlm", "cmam", "joint"):
            assert np.isfinite(losses[key].data)
        assert losses["crs"] is not None

    def test_crs_disabled_drops_term(self):
        model, vocab, _, samples = tiny_setup()
        prepared = prepare(model, vocab, samples[0], label=None)
        losses = model.compute_losses([prepared])
        assert losses["crs"] is None
        total = losses["tpp"].item() + losses["cmlm"].item() + \
            losses["cmam"].item()
        assert losses["joint"].item() == pytest.approx(total, abs=1e-9)

    def test_readouts_match_losses(self):
        model, vocab, _, samples = tiny_setup()
        sample = samples[0]
        fused = model.eval_fused(sample, vocab)
        boundaries = md.tokenize_sample(sample, vocab).word_boundaries
        errors = model.tpp_absolute_errors(fused, boundaries)
        tpp = ob.tpp_loss([fused], [boundaries], model.tpp_head).item()
        assert tpp == pytest.approx(
            0.5 * float((errors ** 2).sum()) / len(boundaries), rel=1e-12)
        assert model.tpp_absolute_errors(fused, []).shape == (0,)
        crs = [ob.crs_loss([fused], [label], model.crs_w, model.crs_b).item()
               for label in range(4)]
        assert model.crs_predict(fused) == int(np.argmin(crs))

    def test_speech_path_matches_composed_reference(self):
        model, vocab, _, samples = tiny_setup()
        prepared = prepare(model, vocab, samples[0], seed=4, trigger=0.6)
        wave, plan = prepared.wave_cur, prepared.acoustic_plan_cur
        assert plan.mask.any()
        params = [*model.extract_ln, *model.proj_ln, model.proj_w,
                  model.proj_b, *(p for pair in model.conv_params for p in pair)]
        targets = {}

        def node():
            projected, targets["node"] = model._speech_path(wave, plan)
            return projected

        def composed():
            feats = composed_extract_features(
                wave.astype(np.float64), model.config.frontend,
                model.conv_params, *model.extract_ln)
            targets["composed"] = feats.data[plan.masked_indices()]
            return composed_project_features(
                feats, *model.proj_ln, model.proj_w, model.proj_b, plan)

        assert_node_matches_reference(node, composed, params)
        np.testing.assert_allclose(targets["node"], targets["composed"],
                                   rtol=1e-10, atol=1e-14)

    def test_capture_attention_available(self):
        model, vocab, _, samples = tiny_setup()
        fused = model.eval_fused(samples[0], vocab, capture_attention=True)
        assert fused.attention is not None
        assert fused.attention.shape[1] == fused.length


def graph_nodes(root) -> list:
    """Every tensor reachable from ``root`` through ``_parents``."""
    nodes, seen = [root], {id(root)}
    for node in nodes:
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                nodes.append(parent)
    return nodes


def transformer_layer_nodes(root) -> int:
    return sum(node._backward is not None and node._backward.__qualname__
               == "transformer_layer.<locals>.backward"
               for node in graph_nodes(root))


class TestBatch:
    """A batch runs each encoder layer once over the packed rows of all
    its samples; attention stays within a sample."""

    # graph nodes of a one-sample ``eval_fused`` on the tiny model when
    # each sample ran the encoders on its own
    PER_SAMPLE_EVAL_NODES = 85

    def prepared(self, model, vocab, samples):
        return [prepare(model, vocab, sample, label=i % 4, seed=10 + i,
                        mask_prob=0.4, trigger=0.5)
                for i, sample in enumerate(samples)]

    def test_no_cross_sample_leak(self):
        model, vocab, _, samples = tiny_setup()
        a, b, c = self.prepared(model, vocab, samples[:3])
        rng = np.random.default_rng(5)
        other_b = replace(
            b, input_token_ids=(b.input_token_ids + 1) % vocab.size,
            wave_prev=rng.standard_normal(len(b.wave_prev)),
            wave_cur=rng.standard_normal(len(b.wave_cur)))
        before = model.compute_losses([a, b, c])
        after = model.compute_losses([a, other_b, c])
        for key, loss in before.items():
            for i in (0, 2):
                assert loss.data[i].tobytes() == \
                    after[key].data[i].tobytes(), (i, key)
        assert before["joint"].data[1] != after["joint"].data[1]

    def test_batch_losses_equal_one_sample_calls(self):
        model, vocab, _, samples = tiny_setup(dtype="float32")
        prepared = self.prepared(model, vocab, samples[:4])
        batch = model.compute_losses(prepared)
        for i, p in enumerate(prepared):
            single = model.compute_losses([p])
            for key in ("tpp", "crs", "cmlm", "cmam", "joint"):
                assert batch[key].shape == (len(prepared),)
                np.testing.assert_allclose(batch[key].data[i],
                                           single[key].item(), rtol=1e-5,
                                           err_msg=key)

    def test_one_sample_eval_builds_no_extra_nodes(self):
        model, vocab, _, samples = tiny_setup()
        fused = model.eval_fused(samples[0], vocab)
        assert len(graph_nodes(fused.hidden)) <= self.PER_SAMPLE_EVAL_NODES

    def test_batch_runs_each_layer_once(self):
        model, vocab, _, samples = tiny_setup(layers=2)
        losses = model.compute_losses(self.prepared(model, vocab,
                                                    samples[:4]))
        assert transformer_layer_nodes(losses["joint"]) == 2 + 2 + 1

    def test_objective_nodes_do_not_grow_with_batch(self):
        model, vocab, _, samples = tiny_setup()
        forward, hidden = model.forward, []

        def spy(prepared):
            fused, targets = forward(prepared)
            hidden.append(fused[0].hidden)
            return fused, targets

        model.forward = spy
        counts = []
        for b in (2, 4):
            joint = model.compute_losses(self.prepared(model, vocab,
                                                       samples[:b]))["joint"]
            counts.append(len(graph_nodes(joint))
                          - len(graph_nodes(hidden[-1])))
        assert counts[0] == counts[1]

    def test_unmasked_batch_gives_zero_masking_losses(self):
        model, vocab, _, samples = tiny_setup()
        prepared = [md.prepare_sample(s, vocab, model.config, train=False)
                    for s in samples[:3]]
        losses = model.compute_losses(prepared)
        assert losses["crs"] is None
        for key in ("cmlm", "cmam"):
            np.testing.assert_array_equal(losses[key].data, np.zeros(3))
        np.testing.assert_allclose(losses["joint"].data, losses["tpp"].data,
                                   rtol=1e-12)


class TestGradientIntegrity:
    """Finite-difference checks of every loss on the tiny fused model."""

    def setup_method(self):
        self.model, self.vocab, dialogs, samples = tiny_setup(dtype="float64")
        sample, label = make_crs_sample(
            samples[0], dialogs, np.random.default_rng(3),
            class_probs=(0.0, 1.0, 0.0, 0.0))
        self.prepared = prepare(self.model, self.vocab, sample, label, seed=4,
                                mask_prob=0.5, trigger=0.6)
        assert self.prepared.text_plan.positions.size > 0
        assert self.prepared.acoustic_plan_prev.mask.any() or \
            self.prepared.acoustic_plan_cur.mask.any()

    def check(self, key, weights=LossWeights()):
        _, frozen = self.model.forward([self.prepared])

        def loss():
            return self.model.compute_losses([self.prepared], weights,
                                             frozen_cmam_targets=frozen)[key]

        report = grad_check(loss, self.model.parameters(), epsilon=1e-5,
                            coords_per_param=8, seed=0)
        assert report.max_relative_error < 1e-4, f"{key}: {report}"

    def test_joint_loss_gradients(self):
        self.check("joint")

    def test_tpp_gradients(self):
        self.check("tpp")

    def test_cmlm_gradients(self):
        self.check("cmlm")

    def test_cmam_gradients(self):
        self.check("cmam")

    def test_crs_gradients(self):
        self.check("crs")


class TestConfigRoundtrip:
    def test_invalid_model_config_rejected(self):
        with pytest.raises(ValueError, match="not divisible by num_heads 3"):
            md.ModelConfig(d_h=16, num_heads=3)
        with pytest.raises(ValueError, match="conv_pos_kernel must be odd"):
            md.ModelConfig(conv_pos_kernel=4)
        for groups in (0, 3):
            with pytest.raises(ValueError, match=(
                    f"conv_pos_groups {groups} must be >= 1 and divide "
                    f"d_h 64")):
                md.ModelConfig(d_h=64, conv_pos_groups=groups)

    def test_model_config_dict_roundtrip(self):
        cfg = md.ModelConfig(d_h=16, vocab_size=20, text_layers=3,
                             frontend=fe.desk_config(channels=8))
        again = md.ModelConfig.from_dict(cfg.to_dict())
        assert again == cfg
        # through JSON, as in a checkpoint: tuples come back as lists
        frontend = fe.FrontendConfig(
            layers=(fe.ConvLayerSpec(6, 4, 2), fe.ConvLayerSpec(5, 3, 3)),
            sample_rate=50, ln_eps=1e-6)
        train = TrainConfig(
            seed=3, crs_class_probs=(0.4, 0.2, 0.2, 0.2),
            text_corruption=(0.7, 0.2, 0.1), acoustic_span=(3, 5),
            checkpoint_every=2,
            model=md.ModelConfig(d_h=16, vocab_size=20, frontend=frontend))
        again = TrainConfig.from_dict(json.loads(json.dumps(train.to_dict())))
        assert again == train

    def test_partial_train_config_merges_over_defaults(self):
        assert TrainConfig.from_dict({"steps": 2}) == TrainConfig(steps=2)
        partial = TrainConfig.from_dict(
            {"acoustic_span": [3, 5],
             "model": {"d_h": 32, "frontend": {"sample_rate": 200}}})
        assert partial == TrainConfig(
            acoustic_span=(3, 5),
            model=md.ModelConfig(
                d_h=32, frontend=replace(fe.desk_config(), sample_rate=200)))

    @pytest.mark.parametrize("config, key", [
        ({"steps": 2, "stepz": 3}, "unknown train config key(s): stepz"),
        ({"model": {"d_h": 32, "dh": 16}}, "unknown model config key(s): dh"),
        ({"model": {"frontend": {"rate": 1}}},
         "unknown frontend config key(s): rate"),
        ({"model": {"frontend": {"layers": [{"channels": 4, "kernel": 5}]}}},
         "missing frontend layer config key(s): stride"),
    ], ids=["train", "model", "frontend", "frontend-layer-missing"])
    def test_unknown_config_key_rejected(self, config, key):
        with pytest.raises(ValueError) as err:
            TrainConfig.from_dict(config)
        assert str(err.value) == key

    @pytest.mark.parametrize("config, message", [
        ({"model": {"d_h": "64"}},
         "model config key d_h must be an integer, got '64'"),
        ({"steps": True},
         "train config key steps must be an integer, got True"),
        ({"peak_lr": "1e-3"},
         "train config key peak_lr must be a number, got '1e-3'"),
        ({"crs_enabled": 1},
         "train config key crs_enabled must be true or false, got 1"),
        ({"schedule": 2}, "train config key schedule must be a string, got 2"),
        ({"acoustic_span": 3},
         "train config key acoustic_span must be a list, got 3"),
        ({"model": [64]},
         "train config key model must be an object, got [64]"),
        ({"model": {"frontend": {"layers": 5}}},
         "frontend config key layers must be a list, got 5"),
        ({"model": {"frontend": {"layers": [
            {"channels": 4, "kernel": 5, "stride": 2.0}]}}},
         "frontend layer config key stride must be an integer, got 2.0"),
    ], ids=["int", "bool-for-int", "float", "bool", "str", "tuple", "nested",
            "frontend-layers", "frontend-layer"])
    def test_wrong_type_config_value_rejected(self, config, message):
        with pytest.raises(ValueError) as err:
            TrainConfig.from_dict(config)
        assert str(err.value) == message

    def test_int_for_float_config_value_accepted(self):
        assert TrainConfig.from_dict({"peak_lr": 1}).peak_lr == 1
