import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from composed_speech import apply_mask_plan
from oracles import mask_position_oracle, span_scan_oracle
from stdialog.autodiff import Tensor
from stdialog import masking as mk


def rand_features(l, d=6, seed=0):
    return Tensor(np.random.default_rng(seed).standard_normal((l, d)))


class TestPlanDrawing:
    def test_zero_trigger_masks_nothing(self):
        cfg = mk.AcousticMaskConfig(trigger_prob=0.0)
        feats = rand_features(99)
        plan = mk.draw_mask_plan([99], np.random.default_rng(0), cfg)
        masked = apply_mask_plan(feats, plan)
        assert not plan.mask.any()
        np.testing.assert_array_equal(masked.data, feats.data)

    def test_tiny_trigger_gaps_do_not_wrap(self):
        # geometric(5e-324) is 2^63 - 1, which wraps when added to a start
        cfg = mk.AcousticMaskConfig(trigger_prob=5e-324)
        plan = mk.draw_mask_plan([99, 40, 7], np.random.default_rng(0), cfg)
        assert not plan.mask.any()

    def test_clipping_at_sequence_end(self):
        # force a first gap of 90 with span 35: frames 90..98 masked
        cfg = mk.AcousticMaskConfig(trigger_prob=0.15, span_range=(35, 35))

        class ForcedRng:
            def __init__(self):
                self.inner = np.random.default_rng(0)
                self.first = True

            def integers(self, lo, hi, size=None):
                return self.inner.integers(lo, hi, size=size)

            def random(self, size=None):
                return self.inner.random(size)

            def geometric(self, p, size=None):
                assert self.first, "the span reaches the end: no more gaps"
                self.first = False
                return np.full(size, 91)

        plan = mk.draw_mask_plan([99], ForcedRng(), cfg)
        expected = np.zeros(99, dtype=bool)
        expected[90:] = True
        np.testing.assert_array_equal(plan.mask, expected)

    def test_saturation_full_coverage(self):
        cfg = mk.AcousticMaskConfig(trigger_prob=1.0, span_range=(99, 99))
        plan = mk.draw_mask_plan([99], np.random.default_rng(1), cfg)
        assert plan.mask.all()

    def test_determinism(self):
        rng_a = np.random.default_rng(42)
        rng_b = np.random.default_rng(42)
        pa = mk.draw_mask_plan([99, 40], rng_a)
        pb = mk.draw_mask_plan([99, 40], rng_b)
        np.testing.assert_array_equal(pa.mask, pb.mask)
        np.testing.assert_array_equal(pa.actions, pb.actions)
        np.testing.assert_array_equal(pa.replacement_sources,
                                      pb.replacement_sources)

    def test_rejects_empty_sequence(self):
        for lengths in ([0], [5, 0, 3], []):
            with pytest.raises(ValueError,
                               match="at least one frame per turn"):
                mk.draw_mask_plan(lengths, np.random.default_rng(0))

    def test_full_trigger_lays_spans_back_to_back(self):
        cfg = mk.AcousticMaskConfig(trigger_prob=1.0, span_range=(3, 9))
        lengths = np.array([99, 1, 20, 7, 30, 8])
        plan = mk.draw_mask_plan(lengths, np.random.default_rng(3), cfg)
        assert plan.mask.all()
        # the kernel over the plan's own draws: each turn's spans tile it
        rng = np.random.default_rng(3)
        n = rng.integers(3, 10, size=lengths.size)
        ends = np.cumsum(lengths)
        seq, start, stop = mk.draw_spans(ends - lengths, ends, n, 1.0, rng)
        spans = sorted(zip(seq.tolist(), start.tolist(), stop.tolist()))
        assert spans == [(s, i, min(i + n[s], end))
                         for s, end in enumerate(ends.tolist())
                         for i in range(end - lengths[s], end, n[s])]

    @settings(max_examples=60, deadline=None)
    @given(l=st.integers(1, 200), seed=st.integers(0, 10_000),
           trig=st.floats(0.0, 1.0), lo=st.integers(1, 30),
           extra=st.integers(0, 30))
    def test_plan_invariants(self, l, seed, trig, lo, extra):
        cfg = mk.AcousticMaskConfig(trigger_prob=trig,
                                    span_range=(lo, lo + extra))
        plan = mk.draw_mask_plan([l], np.random.default_rng(seed), cfg)
        assert plan.mask.dtype == bool and plan.mask.shape == (l,)
        # actions defined exactly where masked
        assert np.all((plan.actions != mk.UNMASKED) == plan.mask)
        # masked region is the clipped union of the spans that the scalar
        # scan, which never re-triggers inside a span, finds in the draws
        mask, _, _, _ = oracle_plan([l], np.random.default_rng(seed), cfg)
        assert plan.mask.tolist() == mask


def oracle_gaps(lengths, spans, p, rng):
    """``draw_spans``'s rounds in plain Python, each sequence scanning from
    0: one gap per sequence still scanning, in sequence order.  Returns,
    per sequence, the triggers that the scalar scan reads: one firing
    index at each span start and none at the other indices it tests."""
    resume = [0] * len(lengths)
    starts = [[] for _ in lengths]
    scanning = list(range(len(lengths))) if p > 0 else []
    while scanning:
        gaps = (rng.geometric(p, size=len(scanning)) - 1).tolist()
        still = []
        for s, gap in zip(scanning, gaps):
            start = resume[s] + gap
            if start < lengths[s]:
                starts[s].append(start)
                resume[s] = start + spans[s]
                if resume[s] < lengths[s]:
                    still.append(s)
        scanning = still
    triggers = [[1.0] * length for length in lengths]
    for row, first in zip(triggers, starts):
        for i in first:
            row[i] = 0.0
    return triggers


def oracle_plan(lengths, rng, cfg):
    """draw_mask_plan's draws in its order; each turn's mask is the scalar
    scan of its own triggers and span length, cut at its own end."""
    lo, hi = cfg.span_range
    spans = rng.integers(lo, hi + 1, size=len(lengths)).tolist()
    rows = oracle_gaps(lengths, spans, cfg.trigger_prob, rng)
    mask, starts, turn = [], [], []
    for t, (n, row) in enumerate(zip(spans, rows)):
        turn_mask, turn_starts = span_scan_oracle(row, n, cfg.trigger_prob)
        # the scan tests every start the gaps put a trigger at
        assert turn_starts == [i for i, u in enumerate(row) if u == 0.0]
        mask += turn_mask
        starts.append(turn_starts)
        turn += [t] * len(row)
    masked = [i for i, m in enumerate(mask) if m]
    actions = [mk.UNMASKED] * len(mask)
    sources = [-1] * len(mask)
    for i, u in zip(masked, rng.random(len(masked)).tolist()):
        actions[i] = (mk.ZERO if u < 0.8 else
                      mk.REPLACE if u < 0.8 + 0.1 else mk.KEEP)
    replaced = [i for i in masked if actions[i] == mk.REPLACE]
    own_lengths = np.array([lengths[turn[i]] for i in replaced], np.int64)
    for i, s in zip(replaced, rng.integers(0, own_lengths).tolist()):
        sources[i] = sum(lengths[:turn[i]]) + s
    return mask, starts, actions, sources


CONFIGS = {
    "span": mk.DEFAULT_SPAN_CONFIG,
    "baseline": mk.DEFAULT_BASELINE_CONFIG,
    "never": mk.AcousticMaskConfig(trigger_prob=0.0),
    "always": mk.AcousticMaskConfig(trigger_prob=1.0),
    "short": mk.AcousticMaskConfig(trigger_prob=0.5, span_range=(1, 4)),
    "longer": mk.AcousticMaskConfig(trigger_prob=0.15,
                                    span_range=(120, 150)),
}


class TestScanKernel:
    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
    def test_plans_equal_scalar_scan(self, cfg):
        for length in range(1, 121):
            for seed in range(10):
                plan = mk.draw_mask_plan([length],
                                         np.random.default_rng(seed), cfg)
                mask, starts, actions, sources = oracle_plan(
                    [length], np.random.default_rng(seed), cfg)
                assert plan.mask.tolist() == mask, (length, seed)
                # the kernel's span starts over the plan's own draws
                rng = np.random.default_rng(seed)
                n = rng.integers(cfg.span_range[0], cfg.span_range[1] + 1)
                _, kernel_starts, _ = mk.draw_spans(
                    np.array([0]), np.array([length]), np.array([n]),
                    cfg.trigger_prob, rng)
                assert kernel_starts.tolist() == starts[0], (length, seed)
                assert plan.actions.tolist() == actions, (length, seed)
                assert plan.replacement_sources.tolist() == sources, \
                    (length, seed)

    @pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
    def test_packed_plans_equal_scalar_scan_per_turn(self, cfg):
        picks = np.random.default_rng(1)
        for seed in range(200):
            lengths = picks.integers(1, 60, size=picks.integers(1, 9))
            plan = mk.draw_mask_plan(lengths, np.random.default_rng(seed),
                                     cfg)
            mask, _, actions, sources = oracle_plan(
                lengths.tolist(), np.random.default_rng(seed), cfg)
            assert plan.mask.tolist() == mask, (lengths, seed)
            assert plan.actions.tolist() == actions, (lengths, seed)
            assert plan.replacement_sources.tolist() == sources, \
                (lengths, seed)
            # every source row lies in its own turn
            ends = np.cumsum(lengths)
            rows = np.flatnonzero(plan.actions == mk.REPLACE)
            turn = np.repeat(np.arange(lengths.size), lengths)[rows]
            src = plan.replacement_sources[rows]
            assert ((ends - lengths)[turn] <= src).all()
            assert (src < ends[turn]).all()

    def test_estimate_equals_scalar_scan_over_same_draws(self):
        # a whole chunk plus a remainder chunk
        cfg, length, seed = mk.DEFAULT_SPAN_CONFIG, 99, 4
        trials = mk._MC_CHUNK + 1001
        rng = np.random.default_rng(seed)
        lo, hi = cfg.span_range
        counts = []
        for done in range(0, trials, mk._MC_CHUNK):
            t = min(mk._MC_CHUNK, trials - done)
            spans = rng.integers(lo, hi + 1, size=t).tolist()
            rows = oracle_gaps([length] * t, spans, cfg.trigger_prob, rng)
            for row, n in zip(rows, spans):
                mask, _ = span_scan_oracle(row, n, cfg.trigger_prob)
                counts.append(sum(mask))
        assert len(counts) == trials
        mean = Fraction(sum(counts), trials * length)
        var = Fraction(sum(c * c for c in counts),
                       trials * length ** 2) - mean * mean
        expect = (float(mean), math.sqrt(float(var / trials)))
        assert mk.estimate_mask_rate(cfg, length, trials, seed) == expect


class TestApplication:
    def test_zero_keep_replace_semantics(self):
        feats = rand_features(80, seed=3)
        plan = mk.draw_mask_plan([80], np.random.default_rng(5))
        masked = apply_mask_plan(feats, plan)
        out = masked.data
        src = feats.data
        for i in range(80):
            a = plan.actions[i]
            if a == mk.UNMASKED or a == mk.KEEP:
                np.testing.assert_array_equal(out[i], src[i])
            elif a == mk.ZERO:
                assert np.all(out[i] == 0.0)
            elif a == mk.REPLACE:
                np.testing.assert_array_equal(
                    out[i], src[plan.replacement_sources[i]])

    def test_gradient_flows_through_kept_and_replaced(self):
        feats = Tensor(np.random.default_rng(7).standard_normal((30, 4)),
                       requires_grad=True)
        plan = mk.draw_mask_plan([30], np.random.default_rng(11))
        masked = apply_mask_plan(feats, plan)
        from stdialog.autodiff import reduce_sum
        reduce_sum(masked).backward()
        zero_rows = plan.actions == mk.ZERO
        replaced_sources = set(
            plan.replacement_sources[plan.actions == mk.REPLACE].tolist())
        for i in range(30):
            if zero_rows[i] and i not in replaced_sources:
                assert np.all(feats.grad[i] == 0.0)

    def test_length_mismatch_error(self):
        plan = mk.draw_mask_plan([10], np.random.default_rng(0))
        with pytest.raises(ValueError):
            apply_mask_plan(rand_features(12), plan)


class TestRates:
    def test_estimate_is_deterministic(self):
        a = mk.estimate_mask_rate(mk.DEFAULT_SPAN_CONFIG, 99, 10_000, seed=9)
        b = mk.estimate_mask_rate(mk.DEFAULT_SPAN_CONFIG, 99, 10_000, seed=9)
        assert a == b

    def test_estimate_rejects_too_few_trials(self):
        with pytest.raises(ValueError):
            mk.estimate_mask_rate(mk.DEFAULT_SPAN_CONFIG, 99, 100)

    def test_estimate_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one frame"):
            mk.estimate_mask_rate(mk.DEFAULT_SPAN_CONFIG, 0, 10_000)

    def test_estimate_at_zero_trigger_draws_no_gaps(self, monkeypatch):
        class NoGaps:
            def __init__(self, seed):
                self.inner = default_rng(seed)

            def integers(self, lo, hi, size=None):
                return self.inner.integers(lo, hi, size=size)

            def geometric(self, p, size=None):
                raise AssertionError(f"gap drawn at trigger_prob {p}")

        default_rng = np.random.default_rng
        monkeypatch.setattr(np.random, "default_rng", NoGaps)
        cfg = mk.AcousticMaskConfig(trigger_prob=0.0)
        assert mk.estimate_mask_rate(cfg, 99, 10_000) == (0.0, 0.0)

    @pytest.mark.parametrize("span", [1, 7, 99, 150])
    def test_estimate_at_full_trigger_masks_everything(self, span):
        cfg = mk.AcousticMaskConfig(trigger_prob=1.0, span_range=(span, span))
        assert mk.estimate_mask_rate(cfg, 99, 10_000) == (1.0, 0.0)

    @pytest.mark.parametrize("cfg", [mk.DEFAULT_SPAN_CONFIG,
                                     mk.DEFAULT_BASELINE_CONFIG],
                             ids=["span", "baseline"])
    def test_position_law_mean_is_exact_recursion(self, cfg):
        rates = mask_position_oracle(cfg.trigger_prob, cfg.span_range, 99)
        assert abs(sum(rates) / 99 - mk.expected_mask_rate(cfg, 99)) < 1e-12

    def test_packed_plans_match_position_law(self):
        # 2 x 10^5 packed turns of 99 frames: every frame position within
        # 4.5 stderr of its exact masking chance
        cfg, length, turns, calls = mk.DEFAULT_SPAN_CONFIG, 99, 10_000, 20
        exact = np.array(mask_position_oracle(cfg.trigger_prob,
                                              cfg.span_range, length))
        rng = np.random.default_rng(8)
        hits = np.zeros(length, dtype=np.int64)
        for _ in range(calls):
            plan = mk.draw_mask_plan(np.full(turns, length), rng, cfg)
            hits += plan.mask.reshape(turns, length).sum(axis=0)
        n = turns * calls
        z = (hits / n - exact) / np.sqrt(exact * (1 - exact) / n)
        assert np.abs(z).max() < 4.5

    def test_monte_carlo_matches_exact_recursion_span(self):
        mean, se = mk.estimate_mask_rate(mk.DEFAULT_SPAN_CONFIG, 99, 20_000,
                                         seed=2)
        exact = mk.expected_mask_rate(mk.DEFAULT_SPAN_CONFIG, 99)
        assert abs(mean - exact) < 4 * se + 1e-4

    def test_packed_plans_match_exact_recursion(self):
        # 10^4 turns of 99 frames, packed beside shorter and longer turns
        cfg, length = mk.DEFAULT_SPAN_CONFIG, 99
        lengths = np.array([length, 150, length, 37] * 25)
        rng = np.random.default_rng(6)
        counts = np.concatenate([
            np.add.reduceat(mk.draw_mask_plan(lengths, rng, cfg).mask,
                            np.cumsum(lengths) - lengths)[lengths == length]
            for _ in range(200)])
        assert counts.size == 10_000
        rates = counts / length
        se = rates.std() / math.sqrt(rates.size)
        exact = mk.expected_mask_rate(cfg, length)
        assert abs(rates.mean() - exact) < 4 * se

    def test_estimate_pinned(self):
        assert mk.estimate_mask_rate(mk.DEFAULT_SPAN_CONFIG, 99, 10_000,
                                     seed=0) == (0.8356121212121213,
                                                 0.000939188120387493)

    def test_monte_carlo_matches_exact_recursion_baseline(self):
        mean, se = mk.estimate_mask_rate(mk.DEFAULT_BASELINE_CONFIG, 99,
                                         20_000, seed=2)
        exact = mk.expected_mask_rate(mk.DEFAULT_BASELINE_CONFIG, 99)
        assert abs(mean - exact) < 4 * se + 1e-4

    def test_baseline_rate_in_band(self):
        mean, _ = mk.estimate_mask_rate(mk.DEFAULT_BASELINE_CONFIG, 99,
                                        20_000, seed=3)
        assert 0.12 <= mean <= 0.18

    def test_exact_recursion_closed_form_sanity(self):
        # one-frame spans at trigger p on a long sequence approach p
        cfg = mk.AcousticMaskConfig(trigger_prob=0.2, span_range=(1, 1))
        assert abs(mk.expected_mask_rate(cfg, 500) - 0.2) < 1e-9


def test_span_range_must_be_two_integers():
    # a float span would be drawn as the integers below it
    assert mk.AcousticMaskConfig(span_range=(np.int64(2), 3)).span_range[0] == 2
    for span in ((2.0, 3), (2, 3.5), (True, 3), (2,), (1, 2, 3)):
        with pytest.raises(ValueError) as info:
            mk.AcousticMaskConfig(span_range=span)
        assert str(info.value) == f"span_range {span} is not two integers"
