import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from composed_layer import layer_norm, reshape, softmax, transpose
from composed_speech import conv1d, mul
from stdialog import autodiff as ad
from stdialog.autodiff import NonFiniteError, Parameter, ShapeError, Tensor
from stdialog.gradcheck import grad_check


def t64(data):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=True)


def fd_check_scalar(build, leaves, eps=1e-6, tol=1e-6):
    """Central finite differences for every coordinate of every leaf."""
    loss = build()
    for leaf in leaves:
        leaf.grad = None
    loss.backward()
    for leaf in leaves:
        analytic = leaf.grad.copy() if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        a_flat = analytic.reshape(-1)
        for c in range(flat.size):
            orig = flat[c]
            flat[c] = orig + eps
            fp = float(build().data)
            flat[c] = orig - eps
            fm = float(build().data)
            flat[c] = orig
            fd = (fp - fm) / (2 * eps)
            assert abs(a_flat[c] - fd) <= tol * max(1.0, abs(fd)), \
                f"coord {c}: analytic {a_flat[c]} vs fd {fd}"


def scalarize(t, rng):
    """Random fixed projection to a scalar so all outputs get exercised."""
    proj = Tensor(rng.standard_normal(t.shape).astype(np.float64))
    return ad.reduce_sum(mul(t, proj))


class TestForwardValues:
    def test_matmul_identity(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        out = ad.matmul(Tensor(a), Tensor(np.eye(4)))
        np.testing.assert_array_equal(out.data, a)

    def test_gelu_zero_is_zero(self):
        out = ad.gelu(Tensor(np.zeros(5)))
        np.testing.assert_array_equal(out.data, np.zeros(5))

    def test_gelu_matches_normal_cdf(self):
        x = np.linspace(-4, 4, 33)
        out = ad.gelu(Tensor(x))
        expected = x * np.array([0.5 * (1 + math.erf(v / math.sqrt(2))) for v in x])
        np.testing.assert_allclose(out.data, expected, atol=1e-12)

    def test_softmax_uniform(self):
        out = softmax(Tensor(np.full(4, 1.7)))
        np.testing.assert_allclose(out.data, [0.25] * 4, atol=1e-12)

    def test_cross_entropy_uniform_logits(self):
        logits = Tensor(np.zeros((1, 4)))
        loss = ad.cross_entropy(logits, [2], [0], 1)
        assert abs(loss.item() - math.log(4)) < 1e-12

    def test_layer_norm_constant_row_is_bias(self):
        x = Tensor(np.full((3, 8), 2.5))
        gain = Tensor(np.ones(8))
        bias = Tensor(np.arange(8, dtype=np.float64))
        out = layer_norm(x, gain, bias)
        np.testing.assert_allclose(out.data, np.tile(np.arange(8.0), (3, 1)),
                                   atol=1e-10)

    def test_forward_bit_reproducible(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((6, 5)).astype(np.float32)
        w = rng.standard_normal((5, 5)).astype(np.float32)

        def run():
            return ad.gelu(ad.matmul(Tensor(x), Tensor(w))).data

        np.testing.assert_array_equal(run(), run())


class TestFloat32Gelu:
    """The float32 kernel against float64, and its independence of the
    chunking and of the input's memory layout."""

    def test_error_against_float64_normal_cdf(self):
        x = np.linspace(-12, 12, 1_000_001, dtype=np.float32)
        out, deriv = ad.gelu_forward(x)
        x64 = x.astype(np.float64)
        phi = ndtr(x64)
        pdf = np.exp(-0.5 * x64 * x64) / math.sqrt(2 * math.pi)
        kernel_phi = ad._normal_cdf_f32(x, x * x, np.empty_like(x))
        assert out.dtype == deriv.dtype == np.float32
        assert np.abs(kernel_phi - phi).max() <= 1.2e-7
        assert np.abs(out - x64 * phi).max() <= 1e-6
        assert np.abs(deriv - (phi + x64 * pdf)).max() <= 3e-7

    def test_element_does_not_depend_on_chunk(self):
        rng = np.random.default_rng(3)
        x = (rng.standard_normal(3 * ad._CHUNK + 77) * 4).astype(np.float32)
        out, deriv = ad.gelu_forward(x)
        edges = np.arange(1, 4) * ad._CHUNK
        picks = np.concatenate([(edges[:, None] + np.arange(-2, 2)).ravel(),
                                rng.integers(0, x.size, 200), [x.size - 1]])
        for i in picks:
            one_out, one_deriv = ad.gelu_forward(x[i:i + 1])
            assert one_out[0] == out[i] and one_deriv[0] == deriv[i], i

    def test_non_contiguous_input_matches_contiguous_copy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((300, 257)).astype(np.float32).T
        assert not x.flags.c_contiguous
        for got, want in zip(ad.gelu_forward(x),
                             ad.gelu_forward(np.ascontiguousarray(x))):
            assert got.shape == x.shape
            np.testing.assert_array_equal(got, want)

    def test_empty_array(self):
        out, deriv = ad.gelu_forward(np.zeros((0, 8), dtype=np.float32))
        assert out.shape == deriv.shape == (0, 8)

    def test_zero_is_zero(self):
        out, deriv = ad.gelu_forward(np.zeros(3, dtype=np.float32))
        np.testing.assert_array_equal(out, np.zeros(3, dtype=np.float32))
        np.testing.assert_allclose(deriv, 0.5, atol=1e-7)


def layer_norm_and_grads(x, gain, bias, g, dtype):
    """Layer norm's output and its three gradients, all in ``dtype``."""
    out, saved = ad.layer_norm_forward(x.astype(dtype), gain.astype(dtype),
                                       bias.astype(dtype))
    return (out, *ad.layer_norm_backward(g.astype(dtype), gain.astype(dtype),
                                         saved))


class TestLayerNormHelpers:
    # 1696 rows of 64: a pretrain-long fusion layer's rows at batch 8
    @pytest.mark.parametrize("mean, std", [(0.0, 1.0), (1e3, 1e-2)])
    def test_float32_matches_float64(self, mean, std):
        """float32 against float64 on the same float32 rows.  Its row mean
        is off by a few eps |mean|, which moves xhat by that over std, so
        the output and dx are held within 4 eps (1 + |mean| / std) of
        their largest float64 magnitude, and dgain and dbias, sums over
        the 1696 rows, within 32 eps (1 + |mean| / std).  The worst of 20
        seeds: 1.8 eps (output and dx) and 6.4 eps (the sums) on unit rows,
        0.27 and 0.4 eps |mean| / std with the offset."""
        rng = np.random.default_rng(61)
        x = (mean + std * rng.standard_normal((1696, 64))) \
            .astype(np.float32).astype(np.float64)
        gain = 1 + 0.1 * rng.standard_normal(64)
        bias = 0.1 * rng.standard_normal(64)
        g = rng.standard_normal(x.shape)
        unit = np.finfo(np.float32).eps * (1 + abs(mean) / std)
        got = layer_norm_and_grads(x, gain, bias, g, np.float32)
        want = layer_norm_and_grads(x, gain, bias, g, np.float64)
        for name, tol, a, b in zip(("out", "dx", "dgain", "dbias"),
                                   (4, 4, 32, 32), got, want, strict=True):
            assert a.dtype == np.float32, name
            np.testing.assert_allclose(a, b, rtol=0,
                                       atol=tol * unit * np.abs(b).max(),
                                       err_msg=name)

    def test_rows_of_any_leading_shape(self):
        """A [2, 3, 8] input gives what its six rows give as [6, 8], with
        dgain and dbias summed over both leading axes, up to rounding: the
        BLAS row sums may add a row's terms in another order by its place
        among the rows."""
        rng = np.random.default_rng(62)
        x, g = rng.standard_normal((2, 2, 3, 8))
        gain, bias = rng.standard_normal((2, 8))
        for got, want in zip(
                layer_norm_and_grads(x, gain, bias, g, np.float64),
                layer_norm_and_grads(x.reshape(6, 8), gain, bias,
                                     g.reshape(6, 8), np.float64),
                strict=True):
            np.testing.assert_allclose(got.reshape(want.shape), want,
                                       rtol=1e-14, atol=1e-14)


class TestShapeAndFiniteErrors:
    def test_matmul_shape_error_names_both(self):
        with pytest.raises(ShapeError) as exc:
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)

    def test_add_rejects_middle_broadcast(self):
        with pytest.raises(ShapeError):
            ad.add(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 1))))

    def test_non_finite_surfaces(self):
        big = Tensor(np.array([1e300]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            mul(big, big)

    def test_backward_requires_scalar(self):
        x = t64(np.ones(3))
        with pytest.raises(ShapeError):
            mul(x, x).backward()


class TestGradCheckHarness:
    def test_sum_of_squares_gradient(self):
        v = Parameter(np.array([1.0, -2.0, 3.0]), "v")

        def loss():
            t = mul(v, v)
            return ad.reduce_sum(t)

        report = grad_check(loss, [v], epsilon=1e-5)
        assert report.max_relative_error < 1e-8
        np.testing.assert_allclose(v.grad, 2 * v.data, atol=1e-12)

    def test_requires_float64(self):
        p = Parameter(np.ones(3, dtype=np.float32), "p")
        with pytest.raises(ValueError):
            grad_check(lambda: ad.reduce_sum(p), [p])

    def test_non_finite_loss_rejected(self):
        p = Parameter(np.array([1e308]), "p")
        with np.errstate(over="ignore"), pytest.raises(NonFiniteError):
            grad_check(lambda: ad.reduce_sum(mul(p, p)), [p])

    def test_samples_at_most_requested_coords(self):
        p = Parameter(np.random.default_rng(0).standard_normal(500), "p")
        report = grad_check(lambda: ad.reduce_sum(mul(p, p)), [p],
                            coords_per_param=100)
        assert report.per_param["p"] < 1e-4


class TestOpGradients:
    """Every differentiable op against exhaustive finite differences."""

    rng = np.random.default_rng(123)

    def test_add_mul_scale(self):
        a = t64(self.rng.standard_normal((3, 4)))
        b = t64(self.rng.standard_normal((3, 4)))
        c = t64(self.rng.standard_normal((3, 4)))

        def build():
            out = ad.add(mul(a, b), ad.scale(c, 0.7))
            return scalarize(out, np.random.default_rng(0))

        fd_check_scalar(build, [a, b, c])

    def test_matmul_2d_and_batched(self):
        a = t64(self.rng.standard_normal((3, 4)))
        b = t64(self.rng.standard_normal((4, 2)))
        fd_check_scalar(
            lambda: scalarize(ad.matmul(a, b), np.random.default_rng(1)),
            [a, b])
        ab = t64(self.rng.standard_normal((2, 3, 4)))
        bb = t64(self.rng.standard_normal((2, 4, 3)))
        fd_check_scalar(
            lambda: scalarize(ad.matmul(ab, bb), np.random.default_rng(2)),
            [ab, bb])

    def test_softmax(self):
        x = t64(self.rng.standard_normal((2, 5)))
        fd_check_scalar(
            lambda: scalarize(softmax(x), np.random.default_rng(3)), [x])

    def test_layer_norm(self):
        x = t64(self.rng.standard_normal((4, 6)))
        gain = t64(self.rng.standard_normal(6))
        bias = t64(self.rng.standard_normal(6))

        def build():
            return scalarize(layer_norm(x, gain, bias),
                             np.random.default_rng(4))

        fd_check_scalar(build, [x, gain, bias], tol=1e-5)

    def test_gelu(self):
        x = t64(self.rng.standard_normal((3, 7)))
        fd_check_scalar(
            lambda: scalarize(ad.gelu(x), np.random.default_rng(5)), [x])

    def test_conv1d_valid(self):
        x = t64(self.rng.standard_normal((12, 3)))
        w = t64(self.rng.standard_normal((4, 3, 5)))
        b = t64(self.rng.standard_normal(4))

        def build():
            return scalarize(conv1d(x, w, b, stride=2, padding="valid"),
                             np.random.default_rng(6))

        fd_check_scalar(build, [x, w, b])

    def test_conv1d_same_grouped(self):
        x = t64(self.rng.standard_normal((9, 4)))
        w = t64(self.rng.standard_normal((4, 2, 3)))
        b = t64(self.rng.standard_normal(4))

        def build():
            return scalarize(
                conv1d(x, w, b, stride=1, padding="same", groups=2),
                np.random.default_rng(7))

        out = conv1d(x, w, b, stride=1, padding="same", groups=2)
        assert out.shape == (9, 4)
        fd_check_scalar(build, [x, w, b])

    def test_embedding_and_gather(self):
        table = t64(self.rng.standard_normal((10, 4)))
        ids = np.array([1, 3, 3, 0])

        def build():
            return scalarize(ad.gather_rows(table, ids),
                             np.random.default_rng(8))

        fd_check_scalar(build, [table])

    # rows of samples 0 and 2 of 3, interleaved; sample 1 has none
    SAMPLE = np.array([2, 0, 2, 2, 0])

    def check_sample_means(self, loss, pred, target, tol=1e-6):
        """``loss(pred, target, sample, b)`` gives each sample the one-sample
        loss of its rows, 0 for sample 1, and passes finite differences."""
        out = loss(pred, target, self.SAMPLE, 3).data
        assert out.shape == (3,) and out[1] == 0.0
        for i in (0, 2):
            rows = self.SAMPLE == i
            alone = loss(Tensor(pred.data[rows]), target[rows],
                         np.zeros(rows.sum(), int), 1)
            np.testing.assert_allclose(out[i], alone.item(), rtol=1e-12)
        fd_check_scalar(
            lambda: scalarize(loss(pred, target, self.SAMPLE, 3),
                              np.random.default_rng(11)), [pred], tol=tol)

    def test_cross_entropy(self):
        self.check_sample_means(ad.cross_entropy,
                                t64(self.rng.standard_normal((5, 4))),
                                np.array([0, 1, 3, 2, 1]))

    def test_mse_mae(self):
        pred = t64(self.rng.standard_normal((5, 3)))
        target = self.rng.standard_normal((5, 3))
        self.check_sample_means(ad.mse, pred, target)
        self.check_sample_means(ad.mae, pred, target, tol=1e-5)

    @pytest.mark.parametrize("loss, pred, target", [
        (ad.cross_entropy, np.zeros((0, 4)), np.zeros(0, int)),
        (ad.mse, np.zeros((0, 1)), np.zeros((0, 1))),
        (ad.mae, np.zeros((0, 5)), np.zeros((0, 5)))],
        ids=["cross_entropy", "mse", "mae"])
    def test_no_rows_gives_zeros(self, loss, pred, target):
        out = loss(t64(pred), target, np.zeros(0, int), 3)
        np.testing.assert_array_equal(out.data, np.zeros(3))
        ad.reduce_sum(out).backward()

    @pytest.mark.parametrize("target", [-1, 4])
    def test_cross_entropy_target_outside_classes_raises(self, target):
        with pytest.raises(ValueError, match="cross_entropy: target "
                                             rf"{target} outside \[0, 4\)"):
            ad.cross_entropy(t64(np.zeros((2, 4))), [1, target], [0, 0], 1)

    def test_sample_index_out_of_range_raises(self):
        with pytest.raises(ShapeError, match="sample indices"):
            ad.mse(t64(np.zeros((2, 1))), np.zeros((2, 1)), [0, 3], 3)

    def test_concat_transpose_reshape(self):
        a = t64(self.rng.standard_normal((2, 3)))
        b = t64(self.rng.standard_normal((4, 3)))

        def build():
            out = ad.concat([a, b], axis=0)
            out = transpose(out, (1, 0))
            out = reshape(out, (2, 9))
            return scalarize(out, np.random.default_rng(9))

        fd_check_scalar(build, [a, b])

    def test_linear(self):
        x = t64(self.rng.standard_normal((4, 3)))
        w = t64(self.rng.standard_normal((3, 5)))
        b = t64(self.rng.standard_normal(5))

        def build():
            return scalarize(ad.linear(x, w, b), np.random.default_rng(10))

        fd_check_scalar(build, [x, w, b])

    def test_linear_shape_errors(self):
        x = t64(self.rng.standard_normal((4, 3)))
        w = t64(self.rng.standard_normal((3, 5)))
        with pytest.raises(ShapeError, match="bias"):
            ad.linear(x, w, t64(np.zeros(4)))
        with pytest.raises(ShapeError, match="linear"):
            ad.linear(x, t64(self.rng.standard_normal((4, 5))),
                      t64(np.zeros(5)))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(2, 6), m=st.integers(2, 6), seed=st.integers(0, 10_000))
def test_random_small_tensor_fd_property(n, m, seed):
    rng = np.random.default_rng(seed)
    a = Parameter(rng.standard_normal((n, m)), "a")
    b = Parameter(rng.standard_normal((m, n)), "b")
    g = Parameter(rng.standard_normal(m), "g")
    bb = Parameter(rng.standard_normal(m), "bb")

    def loss():
        h = ad.gelu(ad.matmul(a, b))
        h = layer_norm(ad.matmul(h, a), g, bb)
        s = softmax(h)
        return ad.reduce_sum(mul(s, s))

    report = grad_check(loss, [a, b, g, bb], epsilon=1e-5, coords_per_param=20,
                        seed=seed)
    assert report.max_relative_error < 1e-4


class TestBackwardProtocol:
    """A rule returns one gradient per parent; ``backward`` adds them."""

    @pytest.mark.parametrize("grads", [(), (1.0, 2.0)],
                             ids=["too-few", "too-many"])
    def test_wrong_gradient_count_raises(self, grads):
        x = t64([1.0, 2.0])
        loss = ad.record(np.asarray(x.data.sum()), (x,), lambda g: grads,
                         "bad")
        with pytest.raises(ValueError, match="zip"):
            loss.backward()

    def test_constant_parent_gets_no_gradient(self):
        x = t64([1.0, 2.0])
        const = Tensor(np.array([3.0, 4.0]))
        ad.reduce_sum(mul(x, const)).backward()
        assert const.grad is None
        np.testing.assert_array_equal(x.grad, [3.0, 4.0])


def test_parameter_accumulates_and_resets():
    p = Parameter(np.ones(3), "p")
    loss1 = ad.reduce_sum(mul(p, p))
    loss1.backward()
    loss2 = ad.reduce_sum(mul(p, p))
    loss2.backward()
    np.testing.assert_allclose(p.grad, 4 * np.ones(3))
    p.zero_grad()
    np.testing.assert_array_equal(p.grad, np.zeros(3))
