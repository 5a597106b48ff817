import numpy as np
import pytest

from stdialog.autodiff import NonFiniteError, Parameter
from stdialog.optim import AdamW, AdamWConfig, lr_schedule

from oracles import adamw_oracle, schedule_oracle


class TestAdamW:
    def test_zero_grad_zero_decay_leaves_params(self):
        p = Parameter(np.array([1.0, -2.0]), "p")
        opt = AdamW([p], AdamWConfig(weight_decay=0.0, clip_norm=0.0))
        before = p.data.copy()
        opt.step(lr=0.1)
        np.testing.assert_array_equal(p.data, before)

    def test_constant_gradient_update_magnitude_approaches_lr(self):
        p = Parameter(np.array([0.0]), "p")
        opt = AdamW([p], AdamWConfig(weight_decay=0.0, clip_norm=0.0))
        lr = 0.01
        prev = p.data.copy()
        for _ in range(300):
            p.grad = np.array([3.7])
            opt.step(lr)
            delta = abs(float(prev[0] - p.data[0]))
            prev = p.data.copy()
        assert delta == pytest.approx(lr, rel=1e-3)

    def test_two_parameter_scalar_oracle(self):
        cfg = AdamWConfig(beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.02,
                          clip_norm=0.0)
        a = Parameter(np.array([0.5]), "a")
        b = Parameter(np.array([-1.5]), "b")
        opt = AdamW([a, b], cfg)
        state = {"a": (0.5, 0.0, 0.0), "b": (-1.5, 0.0, 0.0)}
        rng = np.random.default_rng(0)
        for step in range(1, 6):
            ga, gb = rng.standard_normal(2)
            a.grad = np.array([ga])
            b.grad = np.array([gb])
            opt.step(lr=0.05)
            for name, grad in (("a", ga), ("b", gb)):
                theta, m, v = state[name]
                state[name] = adamw_oracle(theta, grad, m, v, step, 0.05,
                                           cfg.beta1, cfg.beta2, cfg.eps,
                                           cfg.weight_decay)
        assert float(a.data[0]) == pytest.approx(state["a"][0], abs=1e-12)
        assert float(b.data[0]) == pytest.approx(state["b"][0], abs=1e-12)

    def test_non_finite_gradient_names_parameter(self):
        p = Parameter(np.array([1.0]), "layer3.weird")
        opt = AdamW([p])
        p.grad = np.array([np.inf])
        with pytest.raises(NonFiniteError, match="layer3.weird"):
            opt.step(lr=0.1)

    def test_clipping_bounds_update(self):
        p = Parameter(np.zeros(4), "p")
        opt = AdamW([p], AdamWConfig(weight_decay=0.0, clip_norm=1.0))
        p.grad = np.full(4, 100.0)
        assert opt.global_grad_norm() == pytest.approx(200.0)
        opt.step(lr=0.1)
        opt2 = AdamW([Parameter(np.zeros(4), "q")],
                     AdamWConfig(weight_decay=0.0, clip_norm=0.0))
        q = opt2.params[0]
        q.grad = np.full(4, 0.5)  # the clipped gradient
        opt2.step(lr=0.1)
        np.testing.assert_allclose(p.data, q.data, atol=1e-12)

    def test_state_roundtrip(self):
        p = Parameter(np.array([1.0, 2.0]), "p")
        opt = AdamW([p])
        p.grad = np.array([0.1, -0.2])
        opt.step(0.01)
        # the optimizer state as ``trainer.load_checkpoint`` returns it
        state = {"t": opt.t, "m": dict(opt.m), "v": dict(opt.v)}
        p2 = Parameter(np.array([1.0, 2.0]), "p")
        opt2 = AdamW([p2])
        opt2.load_state_dict(state)
        assert opt2.t == opt.t
        np.testing.assert_array_equal(opt2.m["p"], opt.m["p"])
        np.testing.assert_array_equal(opt2.v["p"], opt.v["p"])


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
