from types import SimpleNamespace

import numpy as np
import pytest

from stdialog.autodiff import NonFiniteError, Parameter
from stdialog.optim import BETA1, EPS, AdamW, lr_schedule
from stdialog.optim import _CHUNK as CHUNK

from oracles import adamw_oracle, schedule_oracle


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = AdamW([p], weight_decay=0.0, clip_norm=0.0)
        before = p.data.copy()
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        p = Parameter(np.array([0.0]), "p")
        opt = AdamW([p], weight_decay=0.0, clip_norm=0.0)
        lr = 0.01
        prev = p.data.copy()
        for _ in range(300):
            p.grad[...] = np.array([3.7])
            opt.step(lr)
            delta = abs(float(prev[0] - p.data[0]))
            prev = p.data.copy()
        assert delta == pytest.approx(lr, rel=1e-3)

    def test_two_parameter_scalar_oracle(self):
        a = Parameter(np.array([0.5]), "a")
        b = Parameter(np.array([-1.5]), "b")
        opt = AdamW([a, b], beta2=0.999, weight_decay=0.02, clip_norm=0.0)
        state = {"a": (0.5, 0.0, 0.0), "b": (-1.5, 0.0, 0.0)}
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            ga, gb = rng.standard_normal(2)
            a.grad[...] = np.array([ga])
            b.grad[...] = np.array([gb])
            opt.step(lr=0.05)
            for name, grad in (("a", ga), ("b", gb)):
                theta, m, v = state[name]
                state[name] = adamw_oracle(theta, grad, m, v, step, 0.05,
                                           0.9, 0.999, 1e-8, 0.02)
        assert float(a.data[0]) == pytest.approx(state["a"][0], abs=1e-12)
        assert float(b.data[0]) == pytest.approx(state["b"][0], abs=1e-12)

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter(np.array([1.0]), "layer3.weird")
        opt = AdamW([p])
        p.grad[...] = np.array([np.inf])
        with pytest.raises(NonFiniteError, match="layer3.weird"):
            opt.step(lr=0.1)

    def test_clipping_bounds_update(self):
        p = Parameter(np.zeros(4), "p")
        opt = AdamW([p], weight_decay=0.0, clip_norm=1.0)
        p.grad[...] = np.full(4, 100.0)
        assert opt.global_grad_norm() == pytest.approx(200.0)
        opt.step(lr=0.1)
        opt2 = AdamW([Parameter(np.zeros(4), "q")], weight_decay=0.0,
                     clip_norm=0.0)
        q = opt2.params[0]
        q.grad[...] = np.full(4, 0.5)  # the clipped gradient
        opt2.step(lr=0.1)
        np.testing.assert_allclose(p.data, q.data, atol=1e-12)

    def test_state_roundtrip(self):
        # the flat buffers and the step count are the whole state: an
        # optimizer given them continues bit for bit
        p = Parameter(np.array([1.0, 2.0]), "p")
        opt = AdamW([p])
        p.grad[...] = np.array([0.1, -0.2])
        opt.step(0.01)
        p2 = Parameter(np.array([0.0, 0.0]), "p")
        opt2 = AdamW([p2])
        opt2.data[...], opt2.m[...], opt2.v[...] = opt.data, opt.m, opt.v
        opt2.t = opt.t
        for o, q in ((opt, p), (opt2, p2)):
            q.grad[...] = np.array([-0.3, 0.5])
            o.step(0.01)
        for a, b in ((p.data, p2.data), (opt.m, opt2.m), (opt.v, opt2.v)):
            assert a.tobytes() == b.tobytes()


def per_parameter_step(params, m, v, t, lr, cfg):
    """The update parameter by parameter, as whole-array numpy ops with
    the clip norm summed per parameter: the reference that the chunked
    pass over the flat buffers must match bit for bit."""
    total = sum(float((p.grad.astype(np.float64) ** 2).sum())
                for p in params)
    norm = total ** 0.5
    grad_scale = cfg.clip_norm / norm \
        if 0 < cfg.clip_norm < norm else 1.0
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    out = []
    for p in params:
        g = p.grad * grad_scale
        m[p.name] = BETA1 * m[p.name] + (1.0 - BETA1) * g
        v[p.name] = cfg.beta2 * v[p.name] + (1.0 - cfg.beta2) * g * g
        update = m[p.name] / bc1 / (np.sqrt(v[p.name] / bc2) + EPS) \
            + cfg.weight_decay * p.data
        out.append(p.data - lr * update)
    return out


class TestFlatBuffers:
    SHAPES = [(3, 5), (CHUNK + 7,), (0,), (129, 257), (4,), (2 * CHUNK - 3,)]

    def make(self, dtype, seed=0):
        rng = np.random.default_rng(seed)
        return [Parameter(rng.standard_normal(shape).astype(dtype), f"p{i}")
                for i, shape in enumerate(self.SHAPES)]

    @pytest.mark.parametrize("clip_norm", [0.0, 50.0, 1e9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_per_parameter_reference(self, dtype, clip_norm):
        # chunks straddle parameter boundaries; 50 clips every step
        cfg = SimpleNamespace(beta2=0.98, weight_decay=0.02,
                              clip_norm=clip_norm)
        params = self.make(dtype)
        ref = self.make(dtype)
        opt = AdamW(params, **vars(cfg))
        m = {p.name: np.zeros_like(p.data) for p in ref}
        v = {p.name: np.zeros_like(p.data) for p in ref}
        rng = np.random.default_rng(1)
        for t in range(1, 5):
            for p, r in zip(params, ref):
                r.grad = rng.standard_normal(r.shape).astype(dtype)
                p.grad[...] = r.grad
            opt.step(lr=1e-2 * t)
            for r, data in zip(ref, per_parameter_step(ref, m, v, t,
                                                       1e-2 * t, cfg)):
                r.data = data
            for p, r in zip(params, ref):
                assert p.data.dtype == dtype
                assert p.data.tobytes() == r.data.tobytes(), (t, p.name)
            assert opt.m.tobytes() == b"".join(m[p.name].tobytes()
                                               for p in ref)
            assert opt.v.tobytes() == b"".join(v[p.name].tobytes()
                                               for p in ref)

    @pytest.mark.parametrize("field", ["data", "grad"])
    def test_rebound_array_is_named(self, field):
        params = self.make(np.float64)
        opt = AdamW(params)
        setattr(params[3], field, np.zeros(params[3].shape))
        with pytest.raises(ValueError, match="p3: .*in place"):
            opt.step(lr=0.1)
        assert opt.t == 0

    def test_in_place_writes_reach_the_update(self):
        params = self.make(np.float64)
        opt = AdamW(params, weight_decay=0.0, clip_norm=0.0)
        params[1].data[...] = 2.0
        params[1].grad += 1.0
        opt.step(lr=0.5)
        # Adam's first step moves each coordinate by lr * sign(g)
        np.testing.assert_allclose(params[1].data, 1.5)
        opt.zero_grad()
        assert all(not p.grad.any() for p in params)
        opt.check_views()

    def test_mixed_dtypes_named(self):
        a = Parameter(np.zeros(2, np.float32), "enc.a")
        b = Parameter(np.zeros(2, np.float64), "head.b")
        with pytest.raises(ValueError, match="enc.a is float32, head.b is "
                                             "float64"):
            AdamW([a, b])

    def test_non_finite_names_the_parameter_holding_it(self):
        # the bad coordinate sits in a later chunk, after an empty parameter
        for i in (0, 1, 3, 5):
            params = self.make(np.float32)
            opt = AdamW(params)
            params[i].grad.reshape(-1)[-1] = np.nan
            with pytest.raises(NonFiniteError, match=f"parameter p{i};"):
                opt.step(lr=0.1)
            assert opt.t == 0

    def test_finite_float64_overflow_is_named(self):
        p = Parameter(np.zeros(2), "p")
        opt = AdamW([p])
        p.grad[...] = 1e200
        with pytest.raises(NonFiniteError, match="overflows float64"):
            opt.step(lr=0.1)


class TestSchedule:
    def test_ramp_endpoints(self):
        assert lr_schedule(0, 1000, 1e-3, 0.1) == 0.0
        assert lr_schedule(100, 1000, 1e-3, 0.1) == pytest.approx(1e-3)

    def test_linear_decays_to_zero(self):
        assert lr_schedule(1000, 1000, 1e-3, 0.1, "linear") == 0.0

    def test_cosine_midpoint_half_peak(self):
        # warmup 100, decay span 900, midpoint at 550
        assert lr_schedule(550, 1000, 2e-5, 0.1, "cosine") == \
            pytest.approx(1e-5)

    def test_cosine_decays_to_zero(self):
        assert lr_schedule(1000, 1000, 2e-5, 0.1, "cosine") == \
            pytest.approx(0.0, abs=1e-20)

    def test_step_beyond_total_rejected(self):
        with pytest.raises(ValueError):
            lr_schedule(1001, 1000, 1e-3, 0.1)

    @pytest.mark.parametrize("kind", ["linear", "cosine"])
    def test_full_curve_against_closed_form(self, kind):
        total, peak, frac = 977, 3e-4, 0.01
        warmup = int(round(frac * total))
        for step in np.linspace(0, total, 100, dtype=int):
            got = lr_schedule(int(step), total, peak, frac, kind)
            want = schedule_oracle(int(step), total, warmup, peak, kind)
            assert got == pytest.approx(want, abs=1e-15)
