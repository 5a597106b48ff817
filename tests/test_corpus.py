import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdialog import corpus as cp


def small_config(**kw):
    defaults = dict(num_dialogs=4, turns_per_dialog=(3, 8), vocab_size=12,
                    words_per_turn=(3, 5), frame_rate=100, noise_std=0.02)
    defaults.update(kw)
    return cp.SyntheticConfig(**defaults)


class TestSyntheticGenerator:
    def test_deterministic_given_seed(self):
        a = cp.generate_synthetic(small_config(), seed=0)
        b = cp.generate_synthetic(small_config(), seed=0)
        assert len(a) == len(b)
        for da, db in zip(a, b):
            assert da.dialog_id == db.dialog_id
            for ta, tb in zip(da.turns, db.turns):
                np.testing.assert_array_equal(ta.waveform, tb.waveform)
                assert ta.words == tb.words

    def test_different_seeds_differ(self):
        a = cp.generate_synthetic(small_config(), seed=0)
        b = cp.generate_synthetic(small_config(), seed=1)
        assert any(not np.array_equal(ta.waveform, tb.waveform)
                   for da, db in zip(a, b)
                   for ta, tb in zip(da.turns, db.turns))

    def test_noiseless_alignment_covers_signature_exactly(self):
        cfg = small_config(noise_std=0.0)
        dialogs = cp.generate_synthetic(cfg, seed=3)
        turn = dialogs[0].turns[0]
        assert turn.words
        for w in turn.words:
            word_id = int(w.word[1:])
            sig = cp.word_signature(word_id)
            lo = round(w.start_time * cfg.frame_rate)
            hi = round(w.end_time * cfg.frame_rate)
            dur = hi - lo
            reps = -(-dur // cp.SIGNATURE_PERIOD)
            expected = np.tile(sig, reps)[:dur]
            np.testing.assert_array_equal(turn.waveform[lo:hi], expected)

    @pytest.mark.parametrize("key, value, message", [
        ("turns_per_dialog", (3, 1), "turns_per_dialog (3, 1): low exceeds "
                                     "high"),
        ("words_per_turn", (4, 2), "words_per_turn (4, 2): low exceeds high"),
        ("word_duration", (0.4, 0.1), "word_duration (0.4, 0.1): low exceeds "
                                      "high"),
        ("words_per_turn", (0, 3), "words_per_turn low must be >= 1, got 0"),
        ("word_duration", (0.0, 0.2), "word_duration low must be > 0, got "
                                      "0.0"),
        ("noise_std", -1.0, "noise_std must be >= 0, got -1.0"),
        ("noise_std", float("inf"), "noise_std must be finite, got inf"),
    ])
    def test_out_of_range_config_rejected(self, key, value, message):
        with pytest.raises(ValueError) as info:
            small_config(**{key: value})
        assert str(info.value) == message

    def test_generated_dialogs_validate_clean(self):
        for d in cp.generate_synthetic(small_config(), seed=5):
            assert cp.validate_dialog(d) == []

    def test_turn_truncated_at_word_boundary(self):
        # 60-80 words of at least 0.3 s run past the cap in every turn
        cfg = small_config(words_per_turn=(60, 80), word_duration=(0.3, 0.5))
        dialogs = cp.generate_synthetic(cfg, seed=7)
        for d in dialogs:
            for t in d.turns:
                assert t.duration <= cp.MAX_TURN_SECONDS + 1e-9
                assert t.duration > cp.MAX_TURN_SECONDS - 0.6
                assert t.words, "truncation must keep at least one word"
                assert t.words[-1].end_time <= t.duration + 1e-9

    def test_linear_probe_recovers_word_identity(self):
        """Word signatures must be linearly separable from aligned windows.

        Oracle for cross-modal learnability: least-squares one-vs-all probe
        on one signature period per word instance, zero noise.
        """
        cfg = small_config(num_dialogs=10, noise_std=0.0, vocab_size=12)
        dialogs = cp.generate_synthetic(cfg, seed=11)
        feats, labels = [], []
        for d in dialogs:
            for t in d.turns:
                for w in t.words:
                    lo = round(w.start_time * cfg.frame_rate)
                    feats.append(t.waveform[lo:lo + cp.SIGNATURE_PERIOD])
                    labels.append(int(w.word[1:]))
        x = np.stack(feats).astype(np.float64)
        y = np.asarray(labels)
        assert len(y) > 50
        onehot = np.eye(cfg.vocab_size)[y]
        xb = np.hstack([x, np.ones((len(y), 1))])
        w, *_ = np.linalg.lstsq(xb, onehot, rcond=None)
        pred = (xb @ w).argmax(axis=1)
        assert (pred == y).mean() > 0.99


class TestValidation:
    def make_turn(self, words, duration=2.0, sr=100):
        return cp.Turn(turn_index=1,
                       waveform=np.zeros(int(duration * sr), np.float32),
                       words=words, sample_rate=sr)

    def test_clean_turn_ok(self):
        t = self.make_turn([cp.WordAlignment("a", 0.0, 0.5),
                            cp.WordAlignment("b", 0.5, 1.0)])
        assert cp.validate_alignment(t) == []

    def test_end_exceeds_duration(self):
        t = self.make_turn([cp.WordAlignment("a", 0.0, 5.0)])
        violations = cp.validate_alignment(t)
        assert any("exceeds duration" in v for v in violations)

    def test_overlap_reported_with_indices(self):
        t = self.make_turn([cp.WordAlignment("a", 0.0, 0.8),
                            cp.WordAlignment("b", 0.5, 1.0)])
        violations = cp.validate_alignment(t)
        assert any("overlap at 0, 1" in v for v in violations)

    def test_inverted_interval(self):
        t = self.make_turn([cp.WordAlignment("a", 0.9, 0.2)])
        assert any("start" in v for v in cp.validate_alignment(t))


class TestBuildSamples:
    def dialogs(self, **kw):
        return cp.generate_synthetic(small_config(**kw), seed=13)

    def test_eight_turns_k7(self):
        cfg = small_config(num_dialogs=1, turns_per_dialog=(8, 8))
        d = cp.generate_synthetic(cfg, seed=1)[0]
        samples = cp.build_samples(d, k=7)
        assert len(samples) == 7
        last = samples[-1]
        assert len(last.text_turns) == 8
        assert last.target_turn_index == 8

    def test_boundary_sample_i2(self):
        cfg = small_config(num_dialogs=1, turns_per_dialog=(8, 8))
        d = cp.generate_synthetic(cfg, seed=1)[0]
        first = cp.build_samples(d, k=7)[0]
        assert first.target_turn_index == 2
        assert len(first.text_turns) == 2

    def test_single_turn_dialog_yields_empty(self):
        cfg = small_config(num_dialogs=1, turns_per_dialog=(3, 3))
        d = cp.generate_synthetic(cfg, seed=2)[0]
        d.turns = d.turns[:1]
        assert cp.build_samples(d, k=3) == []

    def test_invalid_alignment_raises_naming_dialog(self):
        cfg = small_config(num_dialogs=1)
        d = cp.generate_synthetic(cfg, seed=3)[0]
        bad = d.turns[1].words[0]
        d.turns[1].words[0] = cp.WordAlignment(bad.word, 50.0, 60.0)
        with pytest.raises(cp.AlignmentError) as exc:
            cp.build_samples(d, k=2)
        assert d.dialog_id in str(exc.value)

    @pytest.mark.parametrize("rate", [100, 200])
    def test_samples_carry_the_turns_rate(self, rate):
        d = self.dialogs(frame_rate=rate)[0]
        assert {s.sample_rate for s in cp.build_samples(d, k=2)} == {rate}

    def test_mixed_rate_dialog_raises_naming_rates(self):
        d = self.dialogs()[0]
        d.turns[1].sample_rate = 200
        with pytest.raises(cp.AlignmentError, match=r"rates \[100, 200\] Hz"):
            cp.build_samples(d, k=2)

    def test_k_must_be_positive(self):
        d = self.dialogs()[0]
        with pytest.raises(ValueError):
            cp.build_samples(d, k=0)

    @settings(max_examples=30, deadline=None)
    @given(n_turns=st.integers(2, 9), k=st.integers(1, 8),
           seed=st.integers(0, 500))
    def test_sample_count_and_shape_properties(self, n_turns, k, seed):
        cfg = small_config(num_dialogs=1, turns_per_dialog=(n_turns, n_turns))
        d = cp.generate_synthetic(cfg, seed=seed)[0]
        samples = cp.build_samples(d, k=k)
        assert len(samples) == n_turns - 1
        for s in samples:
            i = s.target_turn_index
            assert len(s.text_turns) == min(k, i - 1) + 1
            # speech turns equal the waveforms of the last two text turns
            prev, cur = d.turns[i - 2], d.turns[i - 1]
            np.testing.assert_array_equal(s.speech_prev, prev.waveform)
            np.testing.assert_array_equal(s.speech_cur, cur.waveform)
            assert s.text_turns[-2] == prev.transcript
            assert s.text_turns[-1] == cur.transcript
            # word times cover exactly the words of turns i-1 and i, each
            # relative to its own turn
            for times, turn in zip(s.word_times, (prev, cur)):
                np.testing.assert_array_equal(
                    times, [(w.start_time, w.end_time) for w in turn.words])
