import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_layer import composed_transformer_layer, softmax_forward
from composed_speech import (assert_node_matches_reference,
                             composed_conv_position_embedding, mul)
from stdialog import autodiff as ad
from stdialog import encoders as enc
from stdialog.autodiff import Parameter, Tensor
from stdialog.gradcheck import grad_check


def make_stack(num_layers=2, d_h=16, heads=4, ffn=32, seed=0, dtype=np.float64):
    cfg = SimpleNamespace(d_h=d_h, num_heads=heads, conv_pos_kernel=5,
                          conv_pos_groups=2)
    registry = {}
    rng = np.random.default_rng(seed)
    init = ad.Init(registry, dtype, rng)
    layers = enc.init_encoder_stack(init, "enc", num_layers, d_h, ffn)
    conv_pos = enc.init_conv_positional(init, "enc", d_h, cfg.conv_pos_kernel,
                                        cfg.conv_pos_groups)
    fusion = enc.init_transformer_layer(init, "fuse", d_h, ffn)
    modality = enc.Parameter(
        (0.02 * rng.standard_normal((2, d_h))).astype(dtype), "fuse.modality")
    registry["fuse.modality"] = modality
    return cfg, registry, layers, conv_pos, fusion, modality


def rand_x(n, d=16, seed=1, dtype=np.float64):
    return Tensor(np.random.default_rng(seed).standard_normal((n, d)).astype(dtype))


def layer_output_and_grads(layer_fn, n, seed=21):
    """Output, input gradient and all 16 parameter gradients of one layer
    under a fixed random projection of its output."""
    _, _, layers, _, _, _ = make_stack(num_layers=1, seed=seed)
    p = layers[0]
    rng = np.random.default_rng(seed + 1)
    for param in vars(p).values():   # non-trivial norms and biases too
        param.data += 0.1 * rng.standard_normal(param.shape)
    x = Tensor(rng.standard_normal((n, 16)), requires_grad=True)
    out = layer_fn(x, p, 4)
    ad.reduce_sum(mul(out, Tensor(rng.standard_normal(out.shape)))) \
        .backward()
    return out.data, x.grad, {name: param.grad
                              for name, param in vars(p).items()}


def packed_and_per_sequence(p, x, proj, lengths, heads) -> tuple:
    """Output, input gradient and the 16 parameter gradients of one
    ``transformer_layer`` call over the packed ``x``, then of one
    reference call per sequence, each under the projection ``proj``."""
    def run(layer_fn, parts):
        for param in vars(p).values():
            param.zero_grad()
        outs, dxs = [], []
        for part in parts:
            xt = Tensor(x[part], requires_grad=True)
            out = layer_fn(xt)
            ad.reduce_sum(mul(out, Tensor(proj[part]))).backward()
            outs.append(out.data)
            dxs.append(xt.grad)
        return np.concatenate(outs), np.concatenate(dxs), \
            {name: param.grad.copy() for name, param in vars(p).items()}

    ends = np.cumsum(lengths)
    return (run(lambda xt: enc.transformer_layer(xt, p, heads, lengths),
                [slice(None)]),
            run(lambda xt: composed_transformer_layer(xt, p, heads),
                [slice(end - n, end) for n, end in zip(lengths, ends)]))


class TestTransformerLayer:
    # 150 and 212 rows: speech and fusion sequences of pretrain-long
    @pytest.mark.parametrize("n", [1, 7, 20, 150, 212])
    def test_matches_composed_reference(self, n):
        out, dx, grads = layer_output_and_grads(
            lambda x, p, heads: enc.transformer_layer(x, p, heads,
                                                      lengths=(n,)), n)
        ref_out, ref_dx, ref_grads = layer_output_and_grads(
            composed_transformer_layer, n)
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=0)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-10, atol=0)
        assert len(grads) == 16
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-10,
                                       atol=1e-14, err_msg=name)

    def test_large_scores_match_reference(self):
        """Scores up to about +-60: the exps of a row span 50 decades."""
        lengths = (30, 61)
        _, _, layers, _, _, _ = make_stack(num_layers=1, seed=41)
        p = layers[0]
        p.wq.data *= 40
        p.wk.data *= 40
        rng = np.random.default_rng(42)
        x = rng.standard_normal((sum(lengths), 16))
        a = ad.layer_norm_forward(x, p.ln1_gain.data, p.ln1_bias.data)[0]
        q, k = ((a @ w.data).reshape(-1, 4, 4).transpose(1, 0, 2)
                for w in (p.wq, p.wk))
        ends = np.cumsum(lengths)
        scores = [q[:, end - n:end] @ k[:, end - n:end].transpose(0, 2, 1) / 2
                  for n, end in zip(lengths, ends)]
        assert 50 < max(np.abs(s).max() for s in scores) < 70

        captured = []
        enc.transformer_layer(Tensor(x), p, 4, lengths, capture=captured)
        for weights, s in zip(captured, scores, strict=True):
            np.testing.assert_allclose(weights, softmax_forward(s),
                                       rtol=1e-10, atol=1e-300)
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-12)

        (out, dx, grads), (ref_out, ref_dx, ref_grads) = \
            packed_and_per_sequence(p, x, rng.standard_normal(x.shape),
                                    lengths, 4)
        for name, got, want in [("out", out, ref_out), ("x", dx, ref_dx),
                                *((name, grads[name], ref_grads[name])
                                  for name in grads)]:
            assert np.isfinite(got).all(), name
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13,
                                       err_msg=name)

    def test_grad_check(self):
        _, _, layers, _, _, _ = make_stack(num_layers=1, d_h=8, heads=2,
                                           ffn=12, seed=23)
        p = layers[0]
        rng = np.random.default_rng(24)
        for param in vars(p).values():
            param.data += 0.3 * rng.standard_normal(param.shape)
        x = Parameter(rng.standard_normal((5, 8)), "x")
        proj = Tensor(rng.standard_normal((5, 8)))

        def loss():
            out = enc.transformer_layer(x, p, 2, lengths=(5,))
            return ad.reduce_sum(mul(out, proj))

        report = grad_check(loss, [x, *vars(p).values()], coords_per_param=30)
        assert report.max_relative_error < 1e-6, str(report)

    def test_capture_leaves_outputs_and_gradients_unchanged(self):
        def run(capture):
            cfg, _, layers, _, fusion, modality = make_stack(seed=25)
            h_t = Tensor(rand_x(4, seed=26).data, requires_grad=True)
            h_s = rand_x(9, seed=27)
            fused = enc.fuse(h_t, h_s, (4,), [(3, 4)], modality, fusion,
                             cfg.num_heads, capture_attention=capture)
            ad.reduce_sum(mul(fused.hidden, rand_x(13, seed=28))) \
                .backward()
            grads = [param.grad for param in vars(fusion).values()]
            return fused, h_t.grad, grads + [modality.grad]

        fused_on, dx_on, grads_on = run(True)
        fused_off, dx_off, grads_off = run(False)
        assert fused_on.attention is not None and fused_off.attention is None
        np.testing.assert_array_equal(fused_on.hidden.data,
                                      fused_off.hidden.data)
        np.testing.assert_array_equal(dx_on, dx_off)
        for on, off in zip(grads_on, grads_off):
            np.testing.assert_array_equal(on, off)


class TestPackedLayer:
    """One call over packed sequences against one reference call each."""

    LENGTHS = (1, 7, 20)

    def setup_method(self):
        _, _, layers, _, _, _ = make_stack(num_layers=1, seed=31)
        self.p = layers[0]
        rng = np.random.default_rng(32)
        for param in vars(self.p).values():
            param.data += 0.1 * rng.standard_normal(param.shape)
        n = sum(self.LENGTHS)
        self.x = rng.standard_normal((n, 16))
        self.proj = rng.standard_normal((n, 16))
        self.cuts = np.cumsum(self.LENGTHS)[:-1]

    def test_one_call_equals_one_reference_call_per_sequence(self):
        (out, dx, grads), (ref_out, ref_dx, ref_grads) = \
            packed_and_per_sequence(self.p, self.x, self.proj, self.LENGTHS,
                                    4)
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=0)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-10, atol=0)
        assert len(grads) == 16
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-10,
                                       atol=1e-14, err_msg=name)

    def test_capture_gives_each_sequence_its_weights(self):
        captured = []
        enc.transformer_layer(Tensor(self.x), self.p, 4, self.LENGTHS,
                              capture=captured)
        assert [w.shape for w in captured] == [(4, n, n) for n in self.LENGTHS]
        for weights in captured:
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-12)

    def test_grad_check(self):
        _, _, layers, _, _, _ = make_stack(num_layers=1, d_h=8, heads=2,
                                           ffn=12, seed=33)
        p = layers[0]
        rng = np.random.default_rng(34)
        for param in vars(p).values():
            param.data += 0.3 * rng.standard_normal(param.shape)
        x = Parameter(rng.standard_normal((6, 8)), "x")
        proj = Tensor(rng.standard_normal((6, 8)))

        def loss():
            out = enc.transformer_layer(x, p, 2, lengths=(2, 1, 3))
            return ad.reduce_sum(mul(out, proj))

        report = grad_check(loss, [x, *vars(p).values()], coords_per_param=30)
        assert report.max_relative_error < 1e-6, str(report)

    def test_lengths_must_cover_the_rows(self):
        with pytest.raises(ad.ShapeError, match=r"\(1, 7\) do not sum to "
                                                r"the 28 packed rows"):
            enc.transformer_layer(Tensor(self.x), self.p, 4, lengths=(1, 7))


def score_bounds(p, x, lengths, heads=4, rows=None):
    """Each sequence's score bound max_i |q_i| * max_j |k_j| over its rows,
    the largest over heads, and its largest |score|, both in float64; with
    ``rows``, i runs over the sequence's rows among them only (0 and 0
    for a sequence with none)."""
    p64 = {name: param.data.astype(np.float64)
           for name, param in vars(p).items()}
    a = ad.layer_norm_forward(np.asarray(x, np.float64), p64["ln1_gain"],
                              p64["ln1_bias"])[0]
    dk = a.shape[1] // heads
    q, k = ((a @ p64[w] + p64[b]).reshape(-1, heads, dk).transpose(1, 0, 2)
            for w, b in (("wq", "bq"), ("wk", "bk")))
    q /= np.sqrt(dk)
    bounds, peaks = [], []
    kept = np.arange(len(a)) if rows is None else np.asarray(rows)
    for end, n in zip(np.cumsum(lengths), lengths):
        own = kept[(end - n <= kept) & (kept < end)]
        if not own.size:
            bounds.append(0.0)
            peaks.append(0.0)
            continue
        qs, ks = q[:, own], k[:, end - n:end]
        bounds.append((np.linalg.norm(qs, axis=-1).max(axis=1)
                       * np.linalg.norm(ks, axis=-1).max(axis=1)).max())
        peaks.append(np.abs(qs @ ks.transpose(0, 2, 1)).max())
    return np.array(bounds), np.array(peaks)


def aligned_layer(lengths, aligned, bound, dtype, seed=51):
    """A layer of ``dtype`` and packed rows in which the scores of each
    sequence with a nonzero weight in ``aligned`` come near +-its bound,
    the largest of which is ``bound``: its rows are +-weight * u plus
    noise, and wq and wk map u onto one direction per head, so a smaller
    weight gives a smaller bound.  The other sequences' rows are
    orthogonal to u and to the ones vector, so LN1 keeps them orthogonal
    to u and only the 0.02-scale init weights reach their scores.  Also
    returns the layer's float64 twin, of the same rounded values."""
    _, _, (p,), _, _, _ = make_stack(num_layers=1, seed=seed, dtype=dtype)
    _, _, (p64,), _, _, _ = make_stack(num_layers=1, seed=seed)
    rng = np.random.default_rng(seed + 1)
    u = rng.standard_normal(16)
    u -= u.mean()
    u /= np.linalg.norm(u)
    parts = []
    for n, on in zip(lengths, aligned):
        noise = rng.standard_normal((n, 16))
        if on:
            parts.append(5 * on * rng.choice([-1.0, 1.0], (n, 1)) * u
                         + 0.3 * noise)
        else:
            noise -= noise.mean(axis=1, keepdims=True)
            parts.append(noise - np.outer(noise @ u, u))
    x = np.concatenate(parts)
    direction = np.outer(u, rng.standard_normal(16))
    p64.wq.data += direction
    p64.wk.data += direction
    grow = np.sqrt(bound / score_bounds(p64, x, lengths)[0].max())
    p64.wq.data *= grow
    p64.wk.data *= grow
    for name, param in vars(p).items():
        param.data[...] = getattr(p64, name).data
        getattr(p64, name).data[...] = param.data
    return p, p64, x.astype(dtype).astype(np.float64)


def output_and_grads(p, x, proj, lengths):
    """Output, input gradient and the 16 parameter gradients of one
    ``transformer_layer`` call in the dtype of ``p``, under the
    projection ``proj``."""
    for param in vars(p).values():
        param.zero_grad()
    dtype = p.wq.data.dtype
    xt = Tensor(x.astype(dtype), requires_grad=True)
    out = enc.transformer_layer(xt, p, 4, lengths)
    ad.reduce_sum(mul(out, Tensor(proj.astype(dtype)))).backward()
    return [("out", out.data), ("x", xt.grad),
            *((name, param.grad.copy()) for name, param in vars(p).items())]


class TestScoreBound:
    """``transformer_layer`` takes a sequence's exps unshifted when its
    score bound is at most ``SCORE_BOUND`` and shifts by the row max
    otherwise; ``test_large_scores_match_reference`` covers the shift path
    too."""

    def test_one_call_mixes_unshifted_and_shifted_sequences(self):
        lengths = (20, 30)
        p, _, x = aligned_layer(lengths, (False, True), 1000.0, np.float64)
        bounds, peaks = score_bounds(p, x, lengths)
        # unshifted, the second sequence's exps would overflow float64
        assert bounds[0] < 1 and 710 < peaks[1] <= bounds[1]
        captured = []
        enc.transformer_layer(Tensor(x), p, 4, lengths, capture=captured)
        for weights in captured:
            np.testing.assert_allclose(weights.sum(axis=-1), 1.0, rtol=1e-12)

        (out, dx, grads), (ref_out, ref_dx, ref_grads) = \
            packed_and_per_sequence(
                p, x, np.random.default_rng(53).standard_normal(x.shape),
                lengths, 4)
        for name, got, want in [("out", out, ref_out), ("x", dx, ref_dx),
                                *((name, grads[name], ref_grads[name])
                                   for name in grads)]:
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-13,
                                       err_msg=name)

    # 0.99 C takes the unshifted path; 2.5 C = 100 shifts, and its
    # unshifted exps would overflow float32 (largest finite e^88.7)
    @pytest.mark.parametrize("share", [0.99, 2.5])
    def test_float32_near_the_bound_matches_float64(self, share):
        """Scores of about +-bound in every row: the exps of a row span
        both ends of [e^-C, e^C].  Output and input gradient are within
        1e-6 of their largest float64 magnitude, each parameter gradient
        within 2e-3 (about 5 times the worst of 3 seeds, where float32
        rounding of the scores meets near-one-hot rows).  bk's exact
        gradient is 0, since softmax ignores a constant added to a row, so
        bk is measured against wk's largest gradient."""
        lengths = (12, 25)
        p, p64, x = aligned_layer(lengths, (True, True),
                                  share * enc.SCORE_BOUND, np.float32)
        bounds, peaks = score_bounds(p, x, lengths)
        assert abs(bounds.max() / enc.SCORE_BOUND - share) < 1e-6
        assert peaks.max() > 0.9 * bounds.max()
        proj = np.random.default_rng(54).standard_normal(x.shape)
        got = output_and_grads(p, x, proj, lengths)
        _, (out, dx, grads) = packed_and_per_sequence(p64, x, proj, lengths,
                                                      4)
        want = [("out", out), ("x", dx), *grads.items()]
        largest = {name: np.abs(w).max() for name, w in want}
        largest["bk"] = largest["wk"]
        for (name, g), (_, w) in zip(got, want, strict=True):
            assert g.dtype == np.float32, name
            tol = 1e-6 if name in ("out", "x") else 2e-3
            np.testing.assert_allclose(g, w, rtol=0, atol=tol * largest[name],
                                       err_msg=name)

    def test_tiny_output_gradient_scales_exactly(self):
        """An output gradient scaled by 2^-40 (about 1e-12) at a bound just
        under C: every float32 gradient is the unscaled one times 2^-40,
        bit for bit, so nothing in the backward, dctx / rowsum first,
        fell below the normal range."""
        lengths = (12, 25)
        p, _, x = aligned_layer(lengths, (True, True),
                                0.99 * enc.SCORE_BOUND, np.float32)
        proj = np.random.default_rng(55).standard_normal(x.shape)

        def grads(scale):
            return output_and_grads(p, x, proj * scale, lengths)[1:]

        for (name, tiny), (_, unit) in zip(grads(2.0 ** -40), grads(1.0),
                                           strict=True):
            np.testing.assert_array_equal(tiny, unit * 2.0 ** -40,
                                          err_msg=name)

    # the rows of (12, 25) kept in the second case: some of each sequence
    @pytest.mark.parametrize("rows", [None, np.r_[0:12:2, 12:37:3]])
    def test_only_a_sequence_over_the_bound_shifts(self, monkeypatch, rows):
        """Bounds of 0.9 C and 1.1 C (over the kept query rows) in one
        call: only the second sequence subtracts its row max, so only its
        inputs to ``np.exp2`` are all <= 0, where the first's unshifted
        scores reach up to near +0.9 C.  A threshold off by a factor of
        log2(e) either way, shifting from 27.7 or from 57.7, fails."""
        lengths = (12, 25)
        p, _, x = aligned_layer(lengths, (0.315, 1), 1.1 * enc.SCORE_BOUND,
                                np.float64)
        bounds, peaks = score_bounds(p, x, lengths, rows=rows)
        assert 0.85 < bounds[0] / enc.SCORE_BOUND < 0.95
        assert 1.05 < bounds[1] / enc.SCORE_BOUND < 1.15
        assert peaks[0] > 0.8 * enc.SCORE_BOUND
        exp2, inputs = np.exp2, []

        def spy(e, *args, **kwargs):
            inputs.append(e.copy())
            return exp2(e, *args, **kwargs)

        monkeypatch.setattr(np, "exp2", spy)
        enc.transformer_layer(Tensor(x), p, 4, lengths, rows=rows)
        assert [e.max() <= 0 for e in inputs] == [False, True]


def kept_and_all_rows(p, x, proj, lengths, rows, heads=4) -> tuple:
    """Output, input gradient and the 16 parameter gradients of one
    ``transformer_layer`` call that computes only ``rows``, then of the
    all-rows call with its output cut to ``rows``, each under the
    projection ``proj`` of those rows."""
    def run(layer_fn):
        for param in vars(p).values():
            param.zero_grad()
        xt = Tensor(x, requires_grad=True)
        out = layer_fn(xt)
        ad.reduce_sum(mul(out, Tensor(proj))).backward()
        return out.data, xt.grad, \
            {name: param.grad.copy() for name, param in vars(p).items()}

    return (run(lambda xt: enc.transformer_layer(xt, p, heads, lengths,
                                                 rows=rows)),
            run(lambda xt: ad.gather_rows(
                enc.transformer_layer(xt, p, heads, lengths), rows)))


class TestKeptRows:
    """A layer that computes some of its rows against the all-rows layer
    cut to them, in float64: the first sequence keeps none of its rows,
    the second all, the third some."""

    def check(self, p, x, lengths, rows, seed):
        proj = np.random.default_rng(seed).standard_normal((len(rows), 16))
        (out, dx, grads), (ref_out, ref_dx, ref_grads) = \
            kept_and_all_rows(p, x, proj, lengths, rows)
        assert out.shape == (len(rows), 16)
        np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=0)
        np.testing.assert_allclose(dx, ref_dx, rtol=1e-10, atol=0)
        # no output row of the first sequence: no gradient reaches its rows
        assert not dx[:lengths[0]].any()
        assert len(grads) == 16
        for name, grad in grads.items():
            np.testing.assert_allclose(grad, ref_grads[name], rtol=1e-10,
                                       atol=1e-14, err_msg=name)

    def test_matches_all_rows_layer(self):
        lengths = (6, 7, 20)
        _, _, (p,), _, _, _ = make_stack(num_layers=1, seed=61)
        rng = np.random.default_rng(62)
        for param in vars(p).values():
            param.data += 0.1 * rng.standard_normal(param.shape)
        x = rng.standard_normal((sum(lengths), 16))
        self.check(p, x, lengths, np.r_[6:13, 13, 17, 18, 30, 32], seed=63)

    def test_large_scores_match_all_rows_layer(self):
        """The scores of ``test_large_scores_match_reference``, about
        +-60, and a third sequence."""
        lengths = (30, 61, 12)
        _, _, (p,), _, _, _ = make_stack(num_layers=1, seed=41)
        p.wq.data *= 40
        p.wk.data *= 40
        x = np.random.default_rng(42).standard_normal((sum(lengths), 16))
        rows = np.r_[30:91, 91, 95, 102]
        assert 50 < score_bounds(p, x, lengths, rows=rows)[1].max() < 70
        self.check(p, x, lengths, rows, seed=64)

    def test_no_rows_gives_an_empty_output(self):
        _, _, (p,), _, _, _ = make_stack(num_layers=1, seed=65)
        x = rand_x(9, seed=66)
        out = enc.transformer_layer(x, p, 4, (4, 5), rows=np.zeros(0, int))
        assert out.shape == (0, 16)

    @pytest.mark.parametrize("rows", [[3, 1], [2, 2], [-1, 2], [0, 9]])
    def test_rows_must_be_sorted_distinct_rows(self, rows):
        _, _, (p,), _, _, _ = make_stack(num_layers=1, seed=67)
        with pytest.raises(ad.ShapeError, match="sorted, distinct rows of "
                                                "the 9 packed rows"):
            enc.transformer_layer(rand_x(9, seed=68), p, 4, (4, 5),
                                  rows=np.array(rows))


class TestTextEncoder:
    def test_zero_layers_is_identity(self):
        cfg, _, _, _, _, _ = make_stack(num_layers=0)
        x = rand_x(7)
        out = enc.encode_text(x, [], cfg.num_heads, lengths=(7,))
        np.testing.assert_array_equal(out.data, x.data)

    def test_shape_preserved(self):
        cfg, _, layers, _, _, _ = make_stack()
        for n in (1, 3, 11):
            out = enc.encode_text(rand_x(n, seed=n), layers, cfg.num_heads,
                                  lengths=(n,))
            assert out.shape == (n, cfg.d_h)

    def test_deterministic_without_dropout(self):
        cfg, _, layers, _, _, _ = make_stack()
        x = rand_x(5)
        a = enc.encode_text(x, layers, cfg.num_heads, lengths=(5,)).data
        b = enc.encode_text(x, layers, cfg.num_heads, lengths=(5,)).data
        np.testing.assert_array_equal(a, b)


class TestSpeechEncoder:
    def test_shape_preserved(self):
        cfg, _, layers, conv_pos, _, _ = make_stack()
        x = rand_x(12, seed=3)
        out = enc.encode_speech(x, (12,), conv_pos, layers, cfg.num_heads,
                                cfg.conv_pos_groups)
        assert out.shape == (12, cfg.d_h)

    def test_zero_conv_pos_reduces_to_plain_stack(self):
        cfg, _, layers, conv_pos, _, _ = make_stack()
        w, b = conv_pos
        w.data[...] = 0.0
        b.data[...] = 0.0
        x = rand_x(9, seed=4)
        out_speech = enc.encode_speech(x, (9,), conv_pos, layers,
                                       cfg.num_heads, cfg.conv_pos_groups).data
        out_text = enc.encode_text(x, layers, cfg.num_heads,
                                   lengths=(9,)).data
        np.testing.assert_allclose(out_speech, out_text, atol=1e-12)

    def test_conv_positional_shift_consistency(self):
        cfg, _, _, conv_pos, _, _ = make_stack()
        w, b = conv_pos
        x = rand_x(20, seed=5)
        shift = 4
        shifted = Tensor(np.concatenate(
            [np.random.default_rng(6).standard_normal((shift, cfg.d_h)),
             x.data]))
        pos = enc.conv_position_embedding(x, w, b, cfg.conv_pos_groups,
                                          (20,)).data
        pos_shifted = enc.conv_position_embedding(
            shifted, w, b, cfg.conv_pos_groups, (20 + shift,)).data
        k = cfg.conv_pos_kernel
        # away from boundaries the embedding must follow the content
        np.testing.assert_allclose(pos_shifted[shift + k: 20],
                                   pos[k: 20 - shift], atol=1e-10)


def conv_position_case(lengths, groups, seed, d_h=8, kernel=5):
    rng = np.random.default_rng(seed)
    w, b = enc.init_conv_positional(ad.Init({}, np.float64, rng, scale=0.3),
                                    "enc", d_h, kernel, groups)
    b.data += 0.3 * rng.standard_normal(d_h)
    x = Parameter(rng.standard_normal((sum(lengths), d_h)), "x")
    return x, w, b


class TestConvPositionEmbedding:
    """Packed sequences of n, 4 and n + 1 rows: each row's embedding sees
    only its own sequence."""

    @pytest.mark.parametrize("groups", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_matches_composed_reference(self, n, groups):
        lengths = (n, 4, n + 1)
        params = conv_position_case(lengths, groups, seed=30 + n)
        assert_node_matches_reference(
            lambda: enc.conv_position_embedding(*params, groups, lengths),
            lambda: composed_conv_position_embedding(*params, groups,
                                                     lengths), params)

    def test_grad_check(self):
        lengths = (6, 1, 3)
        params = conv_position_case(lengths, 4, seed=40)
        proj = rand_x(10, d=8, seed=41)

        def loss():
            return ad.reduce_sum(mul(
                enc.conv_position_embedding(*params, 4, lengths), proj))

        report = grad_check(loss, params, coords_per_param=40)
        assert report.max_relative_error < 1e-6, str(report)

    def test_no_window_crosses_a_sequence_boundary(self):
        lengths = (6, 3, 7)
        x, w, b = conv_position_case(lengths, 2, seed=42)
        before = enc.conv_position_embedding(x, w, b, 2, lengths).data
        x.data[6:9] += 1.0   # the middle sequence only
        after = enc.conv_position_embedding(x, w, b, 2, lengths).data
        # the rows beside each boundary of the middle sequence included
        np.testing.assert_array_equal(after[:6], before[:6])
        np.testing.assert_array_equal(after[9:], before[9:])
        assert not np.array_equal(after[6:9], before[6:9])

    def test_lengths_must_cover_the_rows(self):
        x, w, b = conv_position_case((5,), 2, seed=43)
        with pytest.raises(ad.ShapeError, match="do not sum to the 5"):
            enc.conv_position_embedding(x, w, b, 2, (2, 2))


class TestFusion:
    def fused(self, n=5, m_prev=3, m_cur=4, capture=False, seed=8):
        cfg, _, _, _, fusion, modality = make_stack()
        h_t = rand_x(n, seed=seed)
        h_s = rand_x(m_prev + m_cur + 2, seed=seed + 1)
        return enc.fuse(h_t, h_s, (n,), [(m_prev, m_cur)], modality, fusion,
                        cfg.num_heads, capture_attention=capture), \
            (h_t, h_s, modality, fusion, cfg)

    def test_output_length_identity(self):
        fused, _ = self.fused()
        assert len(fused) == 1
        assert fused.hidden.shape == (5 + 3 + 4 + 2, 16)

    def test_index_map(self):
        # n=5, m_prev=3, m_cur=4: text 0..4, CLS 5, prev 6..8, SEP 9,
        # cur 10..13
        fused, _ = self.fused()
        rows, sample = fused.text_rows([0, 4], "position")
        assert rows.tolist() == [0, 4]
        assert sample.tolist() == [0, 0]
        assert fused.frame_rows().tolist() == [6, 7, 8, 10, 11, 12, 13]

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 12), m_prev=st.integers(1, 10),
           m_cur=st.integers(1, 10), seed=st.integers(0, 1000))
    def test_fused_length_property(self, n, m_prev, m_cur, seed):
        cfg, _, _, _, fusion, modality = make_stack(d_h=8, heads=2, ffn=16,
                                                    seed=seed)
        h_t = rand_x(n, d=8, seed=seed)
        h_s = rand_x(m_prev + m_cur + 2, d=8, seed=seed + 1)
        fused = enc.fuse(h_t, h_s, (n,), [(m_prev, m_cur)], modality,
                         fusion, cfg.num_heads)
        assert len(fused) == 1
        assert fused.hidden.shape == (n + m_prev + m_cur + 2, 8)
        assert fused.start.tolist() == [0]
        assert (fused.n_text + fused.m_prev + fused.m_cur + 2).tolist() \
            == [n + m_prev + m_cur + 2]

    @settings(max_examples=40, deadline=None)
    @given(samples=st.lists(st.tuples(st.integers(1, 12), st.integers(1, 10),
                                      st.integers(1, 10)),
                            min_size=1, max_size=4),
           seed=st.integers(0, 1000), data=st.data())
    def test_row_maps_match_layout_oracle(self, samples, seed, data):
        cfg, _, _, _, fusion, modality = make_stack(d_h=8, heads=2, ffn=16,
                                                    seed=seed)
        text_lengths = tuple(n for n, _, _ in samples)
        frames = [(m_prev, m_cur) for _, m_prev, m_cur in samples]
        h_t = rand_x(sum(text_lengths), d=8, seed=seed)
        h_s = rand_x(sum(m_prev + m_cur + 2 for m_prev, m_cur in frames),
                     d=8, seed=seed + 1)
        fused = enc.fuse(h_t, h_s, text_lengths, frames, modality, fusion,
                         cfg.num_heads)
        # each row of the batch by name, sample by sample, in the
        # documented layout [text, CLS, prev, SEP, cur]
        layout = []
        for i, (n, m_prev, m_cur) in enumerate(samples):
            layout += ([("text", i, j) for j in range(n)] + [("cls", i)]
                       + [("prev", i, j) for j in range(m_prev)]
                       + [("sep", i)] + [("cur", i, j) for j in range(m_cur)])
        assert fused.hidden.shape == (len(layout), 8)
        # each sample's own text positions, counted over the packed text
        positions = [data.draw(st.lists(st.integers(0, n - 1), max_size=5))
                     for n in text_lengths]
        firsts = np.cumsum(text_lengths) - text_lengths
        rows, sample = fused.text_rows(
            [first + j for first, own in zip(firsts, positions) for j in own],
            "position")
        assert rows.tolist() == [layout.index(("text", i, j))
                                 for i, own in enumerate(positions)
                                 for j in own]
        assert sample.tolist() == [i for i, own in enumerate(positions)
                                   for _ in own]
        # extraction packs each sample's prev frames, then its cur frames
        assert fused.frame_rows().tolist() == [
            layout.index((turn, i, j)) for i, (_, m_prev, m_cur)
            in enumerate(samples)
            for turn, m in (("prev", m_prev), ("cur", m_cur))
            for j in range(m)]
        end = sum(text_lengths)
        for pos in (-1, end):
            with pytest.raises(IndexError, match=r"position outside packed "
                                                 rf"text \[0, {end}\)"):
                fused.text_rows([pos], "position")

    def test_modality_embedding_difference_before_attention(self):
        cfg, _, _, _, fusion, modality = make_stack()
        row = np.random.default_rng(11).standard_normal(16)
        h_t = Tensor(np.stack([row]))
        h_s = Tensor(np.stack([row, row, row]))
        x = enc.fusion_input(h_t, h_s, (1,), (3,), modality).data
        diff = x[1] - x[0]  # identical content, speech vs text modality
        expected = modality.data[1] - modality.data[0]
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    @pytest.mark.parametrize("text_lengths, speech_lengths",
                             [((4,), (6,)), ((2, 5, 1), (5, 6, 6))])
    def test_fusion_input_matches_composed_ops(self, text_lengths,
                                               speech_lengths):
        _, _, _, _, _, modality = make_stack(seed=14)
        rng = np.random.default_rng(15)
        text = Parameter(rng.standard_normal((sum(text_lengths), 16)), "t")
        speech = Parameter(rng.standard_normal((sum(speech_lengths), 16)),
                           "s")
        proj = Tensor(rng.standard_normal(
            (sum(text_lengths) + sum(speech_lengths), 16)))
        params = [text, speech, modality]

        def composed():
            parts, ids = [], []
            t_end, s_end = np.cumsum(text_lengths), np.cumsum(speech_lengths)
            for n, te, m, se in zip(text_lengths, t_end, speech_lengths,
                                    s_end):
                parts += [ad.gather_rows(text, np.arange(te - n, te)),
                          ad.gather_rows(speech, np.arange(se - m, se))]
                ids += [0] * n + [1] * m
            return ad.add(ad.concat(parts),
                          ad.gather_rows(modality, np.array(ids)))

        assert_node_matches_reference(
            lambda: enc.fusion_input(text, speech, text_lengths,
                                     speech_lengths, modality),
            composed, params)

    def test_attention_rows_sum_to_one(self):
        fused, _ = self.fused(capture=True)
        assert fused.attention is not None
        assert fused.attention[0].shape == (4, 14, 14)
        np.testing.assert_allclose(fused.attention[0].sum(axis=-1),
                                   np.ones((4, 14)), atol=1e-5)

    def test_batch_equals_one_call_per_sample(self):
        cfg, _, _, _, fusion, modality = make_stack(seed=12)
        text_lengths, frames = (2, 5, 1), [(1, 2), (3, 1), (2, 2)]
        speech_lengths = [m_prev + m_cur + 2 for m_prev, m_cur in frames]
        rng = np.random.default_rng(13)
        text = rng.standard_normal((sum(text_lengths), 16))
        speech = rng.standard_normal((sum(speech_lengths), 16))
        proj = [rng.standard_normal((n + m, 16))
                for n, m in zip(text_lengths, speech_lengths)]

        def run(parts):
            """Hidden states and gradients over calls on ``parts``, each a
            (text rows, speech rows, text lengths, frames) tuple."""
            modality.zero_grad()
            hidden, d_text, d_speech = [], [], []
            i = 0
            for t_rows, s_rows, lengths, turns in parts:
                h_t = Tensor(text[t_rows], requires_grad=True)
                h_s = Tensor(speech[s_rows], requires_grad=True)
                fused = enc.fuse(h_t, h_s, lengths, turns, modality, fusion,
                                 cfg.num_heads)
                h = fused.hidden
                ends = np.cumsum(fused.n_text + fused.m_prev + fused.m_cur + 2)
                hidden += np.split(h.data, ends[:-1])
                ad.reduce_sum(mul(h, Tensor(np.concatenate(
                    proj[i:i + len(fused)])))).backward()
                i += len(fused)
                d_text.append(h_t.grad)
                d_speech.append(h_s.grad)
            return hidden, np.concatenate(d_text), \
                np.concatenate(d_speech), modality.grad.copy()

        t_ends, s_ends = np.cumsum(text_lengths), np.cumsum(speech_lengths)
        batch = run([(slice(None), slice(None), text_lengths, frames)])
        single = run([(slice(te - n, te), slice(se - m, se), (n,), [turns])
                      for n, te, m, se, turns in zip(
                          text_lengths, t_ends, speech_lengths, s_ends,
                          frames)])
        for got, want in zip(batch[0], single[0], strict=True):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)
        for got, want in zip(batch[1:], single[1:]):
            np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-14)

    def test_packed_row_counts_checked(self):
        cfg, _, _, _, fusion, modality = make_stack()
        with pytest.raises(ValueError, match="9 packed speech rows for "
                                             "sample lengths summing to 12"):
            enc.fuse(rand_x(3), rand_x(9), (1, 2), [(3, 4), (1, 0)],
                     modality, fusion, cfg.num_heads)


class TestExportAttention:
    def test_requires_capture(self, tmp_path):
        cfg, _, _, _, fusion, modality = make_stack()
        fused = enc.fuse(rand_x(3, seed=16), rand_x(6, seed=17), (3,),
                          [(2, 2)], modality, fusion, cfg.num_heads,
                          capture_attention=False)
        with pytest.raises(enc.AttentionNotCaptured):
            enc.export_attention(fused, tmp_path / "attn")

    def test_written_files_and_metadata(self, tmp_path):
        cfg, _, _, _, fusion, modality = make_stack()
        fused = enc.fuse(rand_x(5, seed=18), rand_x(9, seed=19), (5,),
                          [(4, 3)], modality, fusion, cfg.num_heads,
                          capture_attention=True)
        paths = enc.export_attention(fused, tmp_path / "attn")
        mean = np.loadtxt(paths["mean"], delimiter=",")
        assert mean.shape == (14, 14)
        np.testing.assert_allclose(mean.sum(axis=1), np.ones(14),
                                   atol=1e-5)
        meta = json.loads((tmp_path / "attn_meta.json").read_text())
        assert meta["text_span"] == [0, 5]
        assert meta["length"] == 14
        # cross-modal mass matches a direct summation over the loaded matrix
        direct = mean[:5, 5:].sum(axis=1).mean()
        assert meta["cross_modal_mass"]["text_to_speech"] == pytest.approx(direct)
        for h in range(4):
            head = np.loadtxt(paths[f"head{h}"], delimiter=",")
            assert head.shape == (14, 14)
