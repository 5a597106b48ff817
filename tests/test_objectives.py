import math
import numpy as np
import pytest

from stdialog import corpus as cp
from stdialog import objectives as ob
from stdialog.autodiff import Init, Parameter, Tensor, reduce_sum
from stdialog.encoders import FusedBatch
from stdialog.gradcheck import grad_check
from stdialog.text import TextMaskPlan

from oracles import cmam_oracle, cmlm_oracle, crs_oracle, tpp_oracle


def one_sample(hidden, n_text, m_prev, m_cur) -> FusedBatch:
    """A batch of one sample over the rows of array ``hidden``."""
    return FusedBatch(Tensor(hidden), np.array([n_text]), np.array([m_prev]),
                      np.array([m_cur]), np.array([0]))


def make_fused(n_text=6, m_prev=3, m_cur=4, d=8, seed=0):
    rng = np.random.default_rng(seed)
    length = n_text + m_prev + m_cur + 2
    return one_sample(rng.standard_normal((length, d)), n_text, m_prev,
                      m_cur)


def make_head(d=8, seed=1):
    return ob.init_tpp_head(Init({}, np.float64, np.random.default_rng(seed)),
                            d)


def no_words():
    """``tpp_loss``'s spans and times of a batch without aligned words."""
    return np.zeros((0, 2), np.int64), np.zeros((0, 2))


class TestTppLoss:
    def test_exact_predictions_zero_loss(self):
        fused = make_fused()
        head = make_head()
        tokens = np.array([[1, 2]])
        pred, _, _ = ob.tpp_predictions(fused, tokens, np.zeros((1, 2)), head)
        loss = ob.tpp_loss(fused, tokens, pred.data.reshape(1, 2) * 10, head)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_single_word(self):
        # one word, pred_start 0.30 vs target 0.25, pred_end 0.50 on target
        d = 4
        hidden = np.zeros((6, d))
        hidden[1] = [1.0, 0, 0, 0]
        hidden[2] = [0, 1.0, 0, 0]
        fused = one_sample(hidden, n_text=4, m_prev=0, m_cur=0)
        w_start = Parameter(np.array([[0.30], [0], [0], [0]]), "ws")
        w_end = Parameter(np.array([[0], [0.50], [0], [0]]), "we")
        head = ob.TppHead(w_start, w_end)
        loss = ob.tpp_loss(fused, np.array([[1, 2]]), np.array([[2.5, 5.0]]),
                           head)
        assert loss.item() == pytest.approx(0.00125, abs=1e-12)

    def test_scalar_oracle_random_cases(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n_text = int(rng.integers(3, 9))
            fused = make_fused(n_text=n_text, seed=int(rng.integers(1e6)))
            head = make_head(seed=int(rng.integers(1e6)))
            n_words = int(rng.integers(1, n_text))
            words = []
            for _ in range(n_words):
                first = int(rng.integers(0, n_text))
                last = int(rng.integers(first, n_text))
                s = float(rng.uniform(0, 5))
                words.append((first, last, s, s + float(rng.uniform(0, 3))))
            spans = np.array([w[:2] for w in words])
            times = np.array([w[2:] for w in words])
            loss = ob.tpp_loss(fused, spans, times, head).item()
            oracle = tpp_oracle(
                fused.hidden.data.tolist(), words,
                head.w_start.data[:, 0].tolist(),
                head.w_end.data[:, 0].tolist(), 10.0, len(words))
            assert abs(loss - oracle) < 1e-10

    def test_duplicating_words_leaves_loss_unchanged(self):
        fused = make_fused(seed=3)
        head = make_head(seed=4)
        spans = np.array([[0, 1], [2, 3]])
        times = np.array([[0.5, 1.0], [1.0, 2.0]])
        single = ob.tpp_loss(fused, spans, times, head).item()
        doubled = ob.tpp_loss(fused, np.tile(spans, (2, 1)),
                              np.tile(times, (2, 1)), head).item()
        assert single == pytest.approx(doubled, abs=1e-12)

    def test_empty_boundaries_zero(self):
        assert ob.tpp_loss(make_fused(), *no_words(),
                           make_head()).item() == 0.0

    def test_boundary_outside_text_span_raises(self):
        fused = make_fused(n_text=4)
        head = make_head()
        with pytest.raises(IndexError, match=r"word boundary outside packed "
                                             r"text \[0, 4\): 2\.\.5"):
            ob.tpp_loss(fused, np.array([[2, 5]]), np.array([[0.1, 0.2]]),
                        head)

    def test_gradients_match_finite_differences(self):
        fused_hidden = np.random.default_rng(5).standard_normal((10, 8))
        registry = {}
        head = ob.init_tpp_head(
            Init(registry, np.float64, np.random.default_rng(6)), 8)
        spans = np.array([[1, 2], [3, 3]])
        times = np.array([[0.4, 1.1], [1.5, 2.0]])

        def loss():
            fused = one_sample(fused_hidden, 6, 1, 1)
            return ob.tpp_loss(fused, spans, times, head)

        report = grad_check(loss, list(registry.values()))
        assert report.max_relative_error < 1e-4


def corpus_dialogs(num=4, seed=0):
    cfg = cp.SyntheticConfig(num_dialogs=num, turns_per_dialog=(3, 5),
                             vocab_size=12, frame_rate=100, noise_std=0.02)
    return cp.generate_synthetic(cfg, seed=seed)


class TestMakeCrsSample:
    def test_positive_is_untouched_object(self):
        dialogs = corpus_dialogs()
        sample = cp.build_samples(dialogs[0], k=3)[0]
        out, label = ob.make_crs_sample(sample, dialogs,
                                        np.random.default_rng(0),
                                        class_probs=(1.0, 0.0, 0.0, 0.0))
        assert label == ob.CRS_POSITIVE
        assert out is sample

    def test_both_substituted_differs_and_drops_alignment(self):
        dialogs = corpus_dialogs()
        sample = cp.build_samples(dialogs[0], k=3)[0]
        out, label = ob.make_crs_sample(sample, dialogs,
                                        np.random.default_rng(1),
                                        class_probs=(0.0, 0.0, 0.0, 1.0))
        assert label == ob.CRS_BOTH_SUBSTITUTED
        assert out.text_turns[-1] != sample.text_turns[-1] or \
            not np.array_equal(out.speech_cur, sample.speech_cur)
        assert out.word_times == (None, None)
        assert out.cmam_turns == (False, False)
        # history turns and previous speech untouched
        assert out.text_turns[:-1] == sample.text_turns[:-1]
        np.testing.assert_array_equal(out.speech_prev, sample.speech_prev)

    def test_speech_substitution_keeps_prev_alignment(self):
        dialogs = corpus_dialogs()
        sample = cp.build_samples(dialogs[0], k=3)[0]
        out, label = ob.make_crs_sample(sample, dialogs,
                                        np.random.default_rng(2),
                                        class_probs=(0.0, 1.0, 0.0, 0.0))
        assert label == ob.CRS_SPEECH_SUBSTITUTED
        assert out.word_times[0] is sample.word_times[0]
        assert out.word_times[1] is None
        assert out.cmam_turns == (True, False)
        assert out.text_turns == sample.text_turns

    def test_text_substitution_updates_lengths(self):
        dialogs = corpus_dialogs()
        sample = cp.build_samples(dialogs[0], k=3)[0]
        out, label = ob.make_crs_sample(sample, dialogs,
                                        np.random.default_rng(3),
                                        class_probs=(0.0, 0.0, 1.0, 0.0))
        assert label == ob.CRS_TEXT_SUBSTITUTED
        assert out.cmam_turns == (True, True)
        assert out.word_times == (sample.word_times[0], None)
        np.testing.assert_array_equal(out.speech_cur, sample.speech_cur)

    def test_class_distribution_monte_carlo(self):
        dialogs = corpus_dialogs()
        sample = cp.build_samples(dialogs[0], k=3)[0]
        rng = np.random.default_rng(4)
        counts = np.zeros(4)
        trials = 100_000
        for _ in range(trials):
            _, label = ob.make_crs_sample(sample, dialogs, rng)
            counts[label] += 1
        np.testing.assert_allclose(counts / trials, [0.25] * 4, atol=0.01)

    def test_single_dialog_corpus_rejected(self):
        dialogs = corpus_dialogs(num=1)
        sample = cp.build_samples(dialogs[0], k=3)[0]
        with pytest.raises(ValueError, match="2 dialogs"):
            ob.make_crs_sample(sample, dialogs, np.random.default_rng(5),
                               class_probs=(0.0, 1.0, 0.0, 0.0))

    def test_substitutions_come_from_other_dialogs(self):
        dialogs = corpus_dialogs()
        own_words = {w.word for t in dialogs[0].turns for w in t.words}
        other_words = {w.word for d in dialogs[1:] for t in d.turns
                       for w in t.words}
        sample = cp.build_samples(dialogs[0], k=3)[0]
        rng = np.random.default_rng(6)
        for _ in range(50):
            out, _ = ob.make_crs_sample(sample, dialogs, rng,
                                        class_probs=(0.0, 0.0, 1.0, 0.0))
            assert set(out.text_turns[-1]) <= other_words | own_words


class TestCrsLoss:
    def test_uniform_logits_ln4(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 4)), "w")
        b = Parameter(np.zeros(4), "b")
        loss = ob.crs_loss(fused, [2], w, b)
        assert loss.item() == pytest.approx(math.log(4), abs=1e-12)

    def test_confident_correct_logit_lowers_loss(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 4)), "w")
        lo = ob.crs_loss(fused, [1], w, Parameter(
            np.array([0.0, 1.0, 0, 0]), "b1")).item()
        hi = ob.crs_loss(fused, [1], w, Parameter(
            np.array([0.0, 10.0, 0, 0]), "b2")).item()
        assert hi < lo < math.log(4)
        assert hi < 1e-3

    def test_scalar_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            fused = make_fused(seed=int(rng.integers(1e6)))
            w = Parameter(rng.standard_normal((8, 4)), "w")
            b = Parameter(rng.standard_normal(4), "b")
            label = int(rng.integers(0, 4))
            loss = ob.crs_loss(fused, [label], w, b).item()
            oracle = crs_oracle(fused.hidden.data[0].tolist(),
                                w.data.tolist(), b.data.tolist(), label)
            assert abs(loss - oracle) < 1e-10

    def test_gradients(self):
        hidden = np.random.default_rng(8).standard_normal((10, 8))
        w = Parameter(np.random.default_rng(9).standard_normal((8, 4)), "w")
        b = Parameter(np.zeros(4), "b")

        def loss():
            fused = one_sample(hidden, 6, 1, 1)
            return ob.crs_loss(fused, [3], w, b)

        assert grad_check(loss, [w, b]).max_relative_error < 1e-4


class TestCmlmLoss:
    def make_plan(self, positions, labels):
        positions = np.asarray(positions, dtype=np.int64)
        return TextMaskPlan(positions=positions,
                            actions=np.zeros(len(positions), np.int64),
                            replacement_ids=np.zeros(len(positions), np.int64),
                            labels=np.asarray(labels, dtype=np.int64))

    def test_empty_plan_zero(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 16)), "w")
        b = Parameter(np.zeros(16), "b")
        plan = self.make_plan([], [])
        assert ob.cmlm_loss(fused, plan, w, b).item() == 0.0

    def test_uniform_logits_ln16(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 16)), "w")
        b = Parameter(np.zeros(16), "b")
        plan = self.make_plan([1, 2], [5, 6])
        assert ob.cmlm_loss(fused, plan, w, b).item() == \
            pytest.approx(math.log(16), abs=1e-12)

    def test_scalar_oracle_five_tokens(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            fused = make_fused(seed=int(rng.integers(1e6)))
            w = Parameter(rng.standard_normal((8, 16)), "w")
            b = Parameter(rng.standard_normal(16), "b")
            plan = self.make_plan([0, 1, 2, 3, 4],
                                  rng.integers(0, 16, 5))
            loss = ob.cmlm_loss(fused, plan, w, b).item()
            states = fused.hidden.data[plan.positions].tolist()
            oracle = cmlm_oracle(states, w.data.tolist(), b.data.tolist(),
                                 plan.labels.tolist())
            assert abs(loss - oracle) < 1e-10

    def test_position_outside_text_span(self):
        fused = make_fused(n_text=4)
        w = Parameter(np.zeros((8, 16)), "w")
        b = Parameter(np.zeros(16), "b")
        with pytest.raises(IndexError):
            ob.cmlm_loss(fused, self.make_plan([5], [0]), w, b)


def keep_frames(fused, prev=(), cur=()):
    """``cmam_loss``'s keep over a one-sample batch's frames: true at its
    prev frames ``prev`` and its cur frames ``cur``."""
    m_prev = int(fused.m_prev[0])
    keep = np.zeros(m_prev + int(fused.m_cur[0]), dtype=bool)
    keep[list(prev)] = True
    keep[[m_prev + j for j in cur]] = True
    return keep


class TestCmamLoss:
    def test_perfect_reconstruction_zero(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 4)), "w")
        b = Parameter(np.full(4, 0.7), "b")
        targets = np.full((2, 4), 0.7)
        loss = ob.cmam_loss(fused, keep_frames(fused, prev=[0, 2]), targets,
                            w, b)
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    def test_constant_offset_mae(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 4)), "w")
        b = Parameter(np.zeros(4), "b")
        targets = np.full((1, 4), 0.5)
        loss = ob.cmam_loss(fused, keep_frames(fused, cur=[1]), targets, w,
                            b)
        assert loss.item() == pytest.approx(0.5, abs=1e-12)

    def test_scalar_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            fused = make_fused(seed=int(rng.integers(1e6)))
            n_text, m_prev, m_cur = 6, 3, 4
            w = Parameter(rng.standard_normal((8, 5)), "w")
            b = Parameter(rng.standard_normal(5), "b")
            prev_masked = sorted(set(rng.integers(0, m_prev, 2).tolist()))
            cur_masked = sorted(set(rng.integers(0, m_cur, 2).tolist()))
            t_p = rng.standard_normal((len(prev_masked), 5))
            t_c = rng.standard_normal((len(cur_masked), 5))
            loss = ob.cmam_loss(
                fused, keep_frames(fused, prev_masked, cur_masked),
                np.concatenate([t_p, t_c]), w, b).item()
            # rows of the layout [text, CLS, prev, SEP, cur]
            states = [fused.hidden.data[n_text + 1 + j].tolist()
                      for j in prev_masked]
            states += [fused.hidden.data[n_text + m_prev + 2 + j].tolist()
                       for j in cur_masked]
            targets = t_p.tolist() + t_c.tolist()
            oracle = cmam_oracle(states, w.data.tolist(), b.data.tolist(),
                                 targets)
            assert abs(loss - oracle) < 1e-10

    def test_plan_length_mismatch_raises(self):
        fused = make_fused(m_prev=3, m_cur=4)
        w = Parameter(np.zeros((8, 4)), "w")
        b = Parameter(np.zeros(4), "b")
        keep = np.zeros(5, dtype=bool)   # a plan's mask, not the 7 frames
        keep[0] = True
        with pytest.raises(IndexError, match="fused batch holds 7"):
            ob.cmam_loss(fused, keep, np.zeros((1, 4)), w, b)

    def test_no_masked_frames_zero(self):
        fused = make_fused()
        w = Parameter(np.zeros((8, 4)), "w")
        b = Parameter(np.zeros(4), "b")
        loss = ob.cmam_loss(fused, keep_frames(fused), np.zeros((0, 4)), w, b)
        assert loss.item() == 0.0


def packed(fused: list) -> FusedBatch:
    """The one-sample batches ``fused`` as one batch over one packed
    ``hidden``."""
    hidden = Tensor(np.concatenate([f.hidden.data for f in fused]))
    n_text, m_prev, m_cur = (np.concatenate([getattr(f, key) for f in fused])
                             for key in ("n_text", "m_prev", "m_cur"))
    lengths = n_text + m_prev + m_cur + 2
    return FusedBatch(hidden, n_text, m_prev, m_cur,
                      np.cumsum(lengths) - lengths)


def packed_text_plan(plans, n_text):
    """One text mask plan over a batch's packed text, from each sample's
    plan over its own text (None: nothing masked)."""
    plans = [TestCmlmLoss().make_plan([], []) if p is None else p
             for p in plans]
    firsts = np.cumsum(n_text) - n_text
    return TextMaskPlan(
        positions=np.concatenate([p.positions + first
                                  for p, first in zip(plans, firsts)]),
        **{key: np.concatenate([getattr(p, key) for p in plans])
           for key in ("actions", "replacement_ids", "labels")})


def packed_spans(spans, n_text):
    """Word spans over a batch's packed text, from each sample's spans
    over its own text."""
    firsts = np.cumsum(n_text) - n_text
    return np.array([(first + a, first + b)
                     for own, first in zip(spans, firsts) for a, b in own],
                    np.int64).reshape(-1, 2)


class TestBatchLosses:
    """Each objective gives a [b] tensor of per-sample losses from one
    head over the packed rows of the batch."""

    fused = [make_fused(6, 3, 4, seed=20), make_fused(4, 2, 5, seed=21),
             make_fused(5, 4, 3, seed=22)]

    def params(self, k, seed):
        rng = np.random.default_rng(seed)
        return (Parameter(rng.standard_normal((8, k)), f"w{k}"),
                Parameter(rng.standard_normal(k), f"b{k}"))

    def test_entries_equal_one_sample_calls(self):
        rng = np.random.default_rng(23)
        head = make_head()
        spans = [[(1, 2)], [], [(0, 0), (2, 4)]]
        times = [[(0.4, 1.1)], [], [(0.1, 0.3), (0.5, 0.9)]]
        labels = [1, None, 3]
        make_plan = TestCmlmLoss().make_plan
        text_plans = [make_plan([0, 5], [3, 7]), None, make_plan([4], [2])]
        f0, f1, f2 = self.fused
        keeps = [keep_frames(f0, [0, 2], [1]), keep_frames(f1),
                 keep_frames(f2, cur=[2])]
        targets = [rng.standard_normal((3, 5)), np.zeros((0, 5)),
                   rng.standard_normal((1, 5))]
        crs, lm, cmam = (self.params(4, 24), self.params(16, 25),
                         self.params(5, 26))
        losses = {
            "tpp": lambda f, i: ob.tpp_loss(
                f, packed_spans([spans[j] for j in i], f.n_text),
                np.array([t for j in i for t in times[j]]).reshape(-1, 2),
                head),
            "crs": lambda f, i: ob.crs_loss(f, [labels[j] for j in i], *crs),
            "cmlm": lambda f, i: ob.cmlm_loss(
                f, packed_text_plan([text_plans[j] for j in i], f.n_text),
                *lm),
            "cmam": lambda f, i: ob.cmam_loss(
                f, np.concatenate([keeps[j] for j in i]),
                np.concatenate([targets[j] for j in i]), *cmam)}
        for name, loss in losses.items():
            batch = loss(packed(self.fused), [0, 1, 2]).data
            assert batch.shape == (3,) and batch[1] == 0.0, name
            for i, fused in enumerate(self.fused):
                np.testing.assert_allclose(batch[i], loss(fused, [i]).item(),
                                           rtol=1e-12, err_msg=name)

    def test_nothing_to_score_gives_zeros(self):
        batch = packed(self.fused)
        w16, b16 = self.params(16, 27)
        w4, b4 = self.params(4, 28)
        empty = TestCmlmLoss().make_plan([], [])
        losses = [
            ob.tpp_loss(batch, *no_words(), make_head()),
            ob.crs_loss(batch, [None] * 3, w4, b4),
            ob.cmlm_loss(batch, None, w16, b16),
            ob.cmlm_loss(batch, empty, w16, b16),
            ob.cmam_loss(batch, np.zeros(21, dtype=bool), np.zeros((0, 4)),
                         w4, b4)]
        for loss in losses:
            np.testing.assert_array_equal(loss.data, np.zeros(3))
            reduce_sum(loss).backward()


class TestJointLoss:
    def consts(self, *values):
        return [Tensor(np.asarray(v, dtype=np.float64)) for v in values]

    def test_unit_alpha_sums(self):
        tpp, crs, cmlm, cmam = self.consts(0.1, 0.2, 0.3, 0.4)
        total = ob.joint_loss(tpp, crs, cmlm, cmam, 1.0)
        assert total.item() == pytest.approx(1.0, abs=1e-12)

    def test_alpha_zero_excludes_alignment_term(self):
        tpp, crs, cmlm, cmam = self.consts(123.0, 0.2, 0.3, 0.4)
        total = ob.joint_loss(tpp, crs, cmlm, cmam, 0.0)
        assert total.item() == pytest.approx(0.9, abs=1e-12)

    def test_alpha_two_doubles_alignment_only(self):
        tpp, crs, cmlm, cmam = self.consts(0.1, 0.2, 0.3, 0.4)
        total = ob.joint_loss(tpp, crs, cmlm, cmam, 2.0)
        assert total.item() == pytest.approx(1.1, abs=1e-12)

    def test_crs_disabled(self):
        tpp, _, cmlm, cmam = self.consts(0.1, 0.2, 0.3, 0.4)
        total = ob.joint_loss(tpp, None, cmlm, cmam, 1.0)
        assert total.item() == pytest.approx(0.8, abs=1e-12)
