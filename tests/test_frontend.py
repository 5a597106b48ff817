import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from composed_speech import (assert_node_matches_reference,
                             composed_assemble_speech_sequences,
                             composed_extract_features,
                             composed_project_features, mul)
from stdialog import autodiff as ad
from stdialog import frontend as fe
from stdialog import masking as mk
from stdialog.autodiff import Parameter, ShapeError, Tensor
from stdialog.gradcheck import grad_check

# (kernel, stride) per conv layer
CONV_STACKS = st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4)),
                       min_size=1, max_size=4)


def stepped_length(layers, n):
    """Hand-stepped oracle: one layer at a time, valid conv arithmetic."""
    for spec in layers:
        if n < spec.kernel:
            return None
        n = (n - spec.kernel) // spec.stride + 1
    return n


def make_params(config, rng, scale=0.3):
    params = []
    c_in = 1
    for i, spec in enumerate(config.layers):
        w = Parameter(scale * rng.standard_normal(
            (spec.channels, c_in, spec.kernel)), f"conv{i}.w")
        b = Parameter(scale * rng.standard_normal(spec.channels), f"conv{i}.b")
        params.append((w, b))
        c_in = spec.channels
    gain = Parameter(np.ones(config.feature_dim), "ln.gain")
    bias = Parameter(np.zeros(config.feature_dim), "ln.bias")
    return params, gain, bias


class TestLengthArithmetic:
    def test_full_scale_10s_is_99_frames(self):
        cfg = fe.full_scale_config()
        assert cfg.output_length(10 * 16_000) == 99

    def test_full_scale_timing(self):
        cfg = fe.full_scale_config()
        hop = np.prod([spec.stride for spec in cfg.layers])
        assert hop == 1600
        assert hop / cfg.sample_rate == pytest.approx(0.1)
        # receptive field of the 16 kHz stack is 1680 samples (105 ms)
        assert cfg.receptive_field == 1680

    def test_full_scale_matches_stepped_oracle(self):
        cfg = fe.full_scale_config()
        for n in (160_000, 80_000, 16_000, 4_000):
            assert cfg.output_length(n) == stepped_length(cfg.layers, n)

    def test_desk_three_seconds(self):
        cfg = fe.desk_config()
        n = cfg.output_length(300)
        assert n == stepped_length(cfg.layers, 300)
        assert np.prod([spec.stride for spec in cfg.layers]) == 10

    def test_below_receptive_field_errors_with_minimum(self):
        cfg = fe.desk_config()
        with pytest.raises(ShapeError, match=str(cfg.receptive_field)):
            cfg.output_length(cfg.receptive_field - 1)

    @settings(max_examples=60, deadline=None)
    @given(CONV_STACKS, st.integers(0, 400))
    def test_random_configs_match_stepped_oracle(self, kernel_strides, extra):
        layers = tuple(fe.ConvLayerSpec(4, k, s) for k, s in kernel_strides)
        cfg = fe.FrontendConfig(layers=layers, sample_rate=100)
        n = cfg.receptive_field + extra
        assert cfg.output_length(n) == stepped_length(layers, n)

    def test_extraction_length_matches_formula(self):
        cfg = fe.desk_config(channels=8)
        rng = np.random.default_rng(0)
        params, gain, bias = make_params(cfg, rng)
        wav = rng.standard_normal(237).astype(np.float32)
        out = fe.extract_features([wav], cfg, params, gain, bias)
        assert out.shape == (cfg.output_length(237), cfg.feature_dim)

    @pytest.mark.parametrize("kernel,stride", [(5, 2), (3, 3), (2, 4), (1, 1)])
    def test_window_starts_stay_inside_each_sequence(self, kernel, stride):
        lengths = [kernel, 11, kernel + 1, 7]
        starts, counts = fe.window_starts(lengths, kernel, stride)
        assert counts.tolist() == [stepped_length(
            (fe.ConvLayerSpec(1, kernel, stride),), n) for n in lengths]
        offset, first = 0, 0
        for n, count in zip(lengths, counts):
            own = starts[first:first + count]
            np.testing.assert_array_equal(
                own, offset + stride * np.arange(count))
            assert own[-1] + kernel <= offset + n
            offset, first = offset + n, first + count


def extraction_case(kernel_strides, channels, extra, seed):
    """A random float64 conv stack, its parameters (the layer-norm gain
    and bias perturbed too) and a batch of three waveforms: ``extra``
    samples longer than its receptive field, exactly the receptive field,
    and ``2 * extra + 3`` samples longer."""
    layers = tuple(fe.ConvLayerSpec(channels, k, s) for k, s in kernel_strides)
    cfg = fe.FrontendConfig(layers=layers, sample_rate=100)
    rng = np.random.default_rng(seed)
    conv_params, gain, bias = make_params(cfg, rng)
    gain.data += 0.2 * rng.standard_normal(gain.shape)
    bias.data += 0.2 * rng.standard_normal(bias.shape)
    waves = [rng.standard_normal(cfg.receptive_field + n)
             for n in (extra, 0, 2 * extra + 3)]
    params = [gain, bias, *(p for pair in conv_params for p in pair)]
    return cfg, waves, conv_params, gain, bias, params


class TestExtractionNode:
    @settings(max_examples=40, deadline=None)
    @given(CONV_STACKS, st.integers(1, 4), st.integers(0, 60),
           st.integers(0, 1000))
    @example([(5, 2), (3, 1), (4, 2)], 3, 9, 0)   # overlapping windows
    @example([(2, 4), (1, 3)], 2, 11, 1)          # gaps between windows
    @example([(5, 2), (5, 5)], 3, 0, 2)           # exactly one frame
    def test_matches_composed_reference(self, kernel_strides, channels, extra,
                                        seed):
        cfg, waves, conv_params, gain, bias, params = extraction_case(
            kernel_strides, channels, extra, seed)
        assert_node_matches_reference(
            lambda: fe.extract_features(waves, cfg, conv_params, gain, bias),
            lambda: composed_extract_features(waves, cfg, conv_params, gain,
                                              bias),
            params)

    def test_grad_check(self):
        cfg, waves, conv_params, gain, bias, params = extraction_case(
            [(4, 2), (3, 1), (2, 2)], 3, 5, 3)
        frames = sum(cfg.output_length(len(w)) for w in waves)
        proj = Tensor(np.random.default_rng(4).standard_normal((frames, 3)))

        def loss():
            out = fe.extract_features(waves, cfg, conv_params, gain, bias)
            return ad.reduce_sum(mul(out, proj))

        report = grad_check(loss, params, coords_per_param=30)
        assert report.max_relative_error < 1e-6, str(report)

    def test_waveform_is_not_a_parent(self):
        cfg, waves, conv_params, gain, bias, params = extraction_case(
            [(5, 2), (5, 5)], 3, 4, 5)
        out = fe.extract_features(waves, cfg, conv_params, gain, bias)
        assert set(map(id, out._parents)) == set(map(id, params))

    def test_short_waveform_rejected_with_minimum(self):
        cfg, waves, conv_params, gain, bias, _ = extraction_case(
            [(5, 2), (5, 5)], 3, 2, 6)
        waves[1] = waves[1][:-1]
        with pytest.raises(ShapeError, match=str(cfg.receptive_field)):
            fe.extract_features(waves, cfg, conv_params, gain, bias)


class TestProjection:
    def test_zero_weights_bias_rows(self):
        feats = Tensor(np.random.default_rng(1).standard_normal((7, 8)))
        gain = Tensor(np.ones(8))
        ln_bias = Tensor(np.zeros(8))
        w = Tensor(np.zeros((8, 5)))
        b = Tensor(np.arange(5.0))
        out = fe.project_features(feats, gain, ln_bias, w, b)
        np.testing.assert_allclose(out.data, np.tile(np.arange(5.0), (7, 1)),
                                   atol=1e-12)

    def test_constant_row_layer_norm_degenerates_to_shift(self):
        feats = Tensor(np.full((3, 8), 4.2))
        gain = Tensor(np.full(8, 2.0))
        ln_bias = Tensor(np.linspace(0, 1, 8))
        w = Tensor(np.eye(8))
        b = Tensor(np.zeros(8))
        out = fe.project_features(feats, gain, ln_bias, w, b)
        np.testing.assert_allclose(out.data, np.tile(np.linspace(0, 1, 8), (3, 1)),
                                   atol=1e-10)

    def test_random_case_against_direct_recomputation(self):
        rng = np.random.default_rng(2)
        feats = rng.standard_normal((6, 8))
        gain = rng.standard_normal(8)
        ln_bias = rng.standard_normal(8)
        w = rng.standard_normal((8, 8))
        b = rng.standard_normal(8)
        out = fe.project_features(Tensor(feats), Tensor(gain), Tensor(ln_bias),
                                  Tensor(w), Tensor(b)).data
        mu = feats.mean(axis=1, keepdims=True)
        var = feats.var(axis=1, keepdims=True)
        normed = (feats - mu) / np.sqrt(var + 1e-5) * gain + ln_bias
        expected = normed @ w + b
        np.testing.assert_allclose(out, expected, atol=1e-10)


def hand_plan(actions, sources):
    """A one-turn mask plan with the given per-frame actions and
    replacement sources (-1 where a frame is not replaced)."""
    actions = np.array(actions)
    return mk.MaskPlan(mask=actions != mk.UNMASKED, actions=actions,
                       replacement_sources=np.array(sources))


def packed_plan(plans, lengths):
    """One plan over turns of ``lengths`` frames packed back to back: each
    turn's one-turn plan at its row offset, a None turn left unmasked."""
    plans = [hand_plan([U] * m, [-1] * m) if plan is None else plan
             for plan, m in zip(plans, lengths, strict=True)]
    firsts = np.cumsum(lengths) - lengths
    sources = [np.where(p.replacement_sources >= 0,
                        p.replacement_sources + first, -1)
               for p, first in zip(plans, firsts)]
    return mk.MaskPlan(np.concatenate([p.mask for p in plans]),
                       np.concatenate([p.actions for p in plans]),
                       np.concatenate(sources))


U, Z, R, K = mk.UNMASKED, mk.ZERO, mk.REPLACE, mk.KEEP
PLANS = {
    "none": None,
    "unmasked": hand_plan([U] * 8, [-1] * 8),
    "keep-only": hand_plan([U, K, K, U, U, K, U, U], [-1] * 8),
    # row 4 is replaced and is the donor of rows 2 and 7; row 5 is its own
    # donor; row 1 is zeroed and donates to row 6
    "all-actions": hand_plan([U, Z, R, K, R, R, R, R],
                             [-1, -1, 4, -1, 0, 5, 1, 4]),
}


class TestProjectionNode:
    """Three turns of 8, 5 and 8 frames, masked by one packed plan: the
    parametrized turn plan on the first, none on the second,
    ``all-actions`` on the third."""

    LENGTHS = [8, 5, 8]

    def case(self, seed=7):
        rng = np.random.default_rng(seed)
        feats = Parameter(rng.standard_normal((sum(self.LENGTHS), 5)),
                          "features")
        gain = Parameter(1 + 0.2 * rng.standard_normal(5), "ln.gain")
        ln_bias = Parameter(0.2 * rng.standard_normal(5), "ln.bias")
        w = Parameter(rng.standard_normal((5, 6)), "w")
        b = Parameter(rng.standard_normal(6), "b")
        return feats, gain, ln_bias, w, b

    @pytest.mark.parametrize("plan", PLANS.values(), ids=PLANS.keys())
    def test_matches_composed_reference(self, plan):
        params = self.case()
        plan = packed_plan([plan, None, PLANS["all-actions"]], self.LENGTHS)
        assert_node_matches_reference(
            lambda: fe.project_features(*params, plan),
            lambda: composed_project_features(*params, self.LENGTHS, plan),
            params)

    def test_matches_composed_reference_without_plans(self):
        params = self.case(seed=10)
        assert_node_matches_reference(
            lambda: fe.project_features(*params),
            lambda: composed_project_features(*params, self.LENGTHS),
            params)

    def test_grad_check(self):
        params = self.case(seed=8)
        proj = Tensor(np.random.default_rng(9).standard_normal((21, 6)))
        plan = packed_plan([PLANS["all-actions"], None, PLANS["all-actions"]],
                           self.LENGTHS)

        def loss():
            out = fe.project_features(*params, plan)
            return ad.reduce_sum(mul(out, proj))

        report = grad_check(loss, params)
        assert report.max_relative_error < 1e-6, str(report)

    def test_replacement_sources_stay_in_their_turn(self):
        params = self.case(seed=11)
        feats = params[0].data
        plan = PLANS["all-actions"]
        out = fe.project_features(*params, packed_plan([None, None, plan],
                                                       self.LENGTHS))
        alone = fe.project_features(Tensor(feats[13:]), *params[1:], plan)
        np.testing.assert_array_equal(out.data[13:], alone.data)

    def test_plan_length_mismatch_rejected(self):
        # turns of 8, 9 and 5 frames; the second turn's plan a frame short
        plan = packed_plan([PLANS["unmasked"]] * 2 + [None], [8, 8, 5])
        with pytest.raises(ShapeError, match="mask plan over 21 frames for "
                                             "22 feature rows"):
            fe.project_features(Tensor(np.zeros((22, 5))), *self.case()[1:],
                                plan)

    def test_lengths_must_cover_the_rows(self):
        plan = packed_plan([None, None, None], [8, 5, 9])
        with pytest.raises(ShapeError, match="over 22 frames for 21"):
            fe.project_features(*self.case(), plan)


class TestAssembly:
    """Three samples' [CLS] prev [SEP] cur layouts from one node."""

    FRAMES = [(5, 7), (1, 3), (4, 1)]

    def seq(self, frames=FRAMES, d=4, seed=3):
        rng = np.random.default_rng(seed)
        projected = Parameter(rng.standard_normal(
            (sum(m for pair in frames for m in pair), d)), "projected")
        cls_vec = Parameter(rng.standard_normal(d), "cls")
        sep_vec = Parameter(rng.standard_normal(d), "sep")
        return projected, frames, cls_vec, sep_vec

    def test_length_and_layout(self):
        s = fe.assemble_speech_sequences(*self.seq())
        assert s.shape == (14 + 6 + 7, 4)

    def test_rows_preserved_bit_exactly(self):
        projected, frames, cls_vec, sep_vec = self.seq()
        s = fe.assemble_speech_sequences(projected, frames, cls_vec, sep_vec)
        start, row = 0, 0
        for m_prev, m_cur in frames:
            f_prev = projected.data[row:row + m_prev]
            f_cur = projected.data[row + m_prev:row + m_prev + m_cur]
            seq = s.data[start:start + m_prev + m_cur + 2]
            np.testing.assert_array_equal(seq[1:m_prev + 1], f_prev)
            np.testing.assert_array_equal(seq[m_prev + 2:], f_cur)
            np.testing.assert_array_equal(seq[0], cls_vec.data)
            np.testing.assert_array_equal(seq[m_prev + 1], sep_vec.data)
            start += m_prev + m_cur + 2
            row += m_prev + m_cur
        assert start == s.shape[0]

    def test_matches_composed_reference(self):
        params = self.seq(seed=5)
        projected, frames, cls_vec, sep_vec = params
        assert_node_matches_reference(
            lambda: fe.assemble_speech_sequences(*params),
            lambda: composed_assemble_speech_sequences(*params),
            [projected, cls_vec, sep_vec])

    def test_empty_turn_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            fe.assemble_speech_sequences(*self.seq(
                frames=[(5, 7), (0, 3), (4, 1)]))
