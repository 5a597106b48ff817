import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdialog import frontend as fe
from stdialog.autodiff import ShapeError, Tensor


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
    for spec in config.layers:
        w = Tensor(scale * rng.standard_normal((spec.channels, c_in, spec.kernel)))
        b = Tensor(scale * rng.standard_normal(spec.channels))
        params.append((w, b))
        c_in = spec.channels
    gain = Tensor(np.ones(config.feature_dim))
    bias = Tensor(np.zeros(config.feature_dim))
    return params, gain, bias


class TestLengthArithmetic:
    def test_full_scale_10s_is_99_frames(self):
        cfg = fe.full_scale_config()
        assert cfg.output_length(10 * 16_000) == 99

    def test_full_scale_timing(self):
        cfg = fe.full_scale_config()
        assert cfg.stride_product == 1600
        assert cfg.stride_product / cfg.sample_rate == pytest.approx(0.1)
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
        assert cfg.stride_product == 10

    def test_below_receptive_field_errors_with_minimum(self):
        cfg = fe.desk_config()
        with pytest.raises(ShapeError, match=str(cfg.receptive_field)):
            cfg.output_length(cfg.receptive_field - 1)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 4)),
                    min_size=1, max_size=4),
           st.integers(0, 400))
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
        out = fe.extract_features(wav, cfg, params, gain, bias)
        assert out.shape == (cfg.output_length(237), cfg.feature_dim)


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


class TestAssembly:
    def seq(self, m_prev=5, m_cur=7, d=4, seed=3):
        rng = np.random.default_rng(seed)
        f_prev = Tensor(rng.standard_normal((m_prev, d)))
        f_cur = Tensor(rng.standard_normal((m_cur, d)))
        cls_vec = Tensor(rng.standard_normal(d))
        sep_vec = Tensor(rng.standard_normal(d))
        return f_prev, f_cur, cls_vec, sep_vec

    def test_length_and_layout(self):
        f_prev, f_cur, cls_vec, sep_vec = self.seq()
        s = fe.assemble_speech_sequence(f_prev, f_cur, cls_vec, sep_vec)
        assert s.shape == (14, 4)

    def test_rows_preserved_bit_exactly(self):
        f_prev, f_cur, cls_vec, sep_vec = self.seq()
        s = fe.assemble_speech_sequence(f_prev, f_cur, cls_vec, sep_vec)
        np.testing.assert_array_equal(s.data[1:6], f_prev.data)
        np.testing.assert_array_equal(s.data[7:], f_cur.data)
        np.testing.assert_array_equal(s.data[0], cls_vec.data)
        np.testing.assert_array_equal(s.data[6], sep_vec.data)

    def test_empty_turn_rejected(self):
        f_prev, f_cur, cls_vec, sep_vec = self.seq(m_prev=0)
        with pytest.raises(ValueError, match="non-empty"):
            fe.assemble_speech_sequence(f_prev, f_cur, cls_vec, sep_vec)
