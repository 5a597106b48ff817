from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stdialog import corpus as cp
from stdialog import text as tx
from stdialog.autodiff import Tensor


def make_sample(turn_words):
    """Build a Sample from explicit word lists; the last two turns get
    word times."""
    turns = [list(w) for w in turn_words]
    prev, cur = turns[-2], turns[-1]
    times = tuple(np.array([(step * j, step * j + step / 2)
                            for j in range(len(words))]).reshape(-1, 2)
                  for step, words in ((0.1, prev), (0.2, cur)))
    return cp.Sample(dialog_id="d", target_turn_index=len(turns),
                     text_turns=turns,
                     speech_prev=np.zeros(50, np.float32),
                     speech_cur=np.zeros(50, np.float32),
                     word_times=times)


def packed_ids(*inputs):
    """The token, position and segment ids of ``inputs``, each packed back
    to back, as ``embed_text`` takes them."""
    return (np.concatenate([t.token_ids for t in inputs]),
            np.concatenate([t.position_ids for t in inputs]),
            np.concatenate([t.segment_ids for t in inputs]))


def vocab_for(words, tokenizer=None):
    tokenizer = tokenizer or tx.WhitespaceTokenizer()
    return tx.Vocab.from_tokens(tokenizer.vocabulary_tokens(words))


class TestVocab:
    def test_specials_first_and_distinct(self):
        v = vocab_for(["cat", "dog"])
        assert v.id_to_token[:4] == list(tx.SPECIALS)
        assert len(set(v.special_ids)) == 4

    def test_save_load_roundtrip(self, tmp_path):
        v = vocab_for(["alpha", "beta", "gamma"])
        path = tmp_path / "vocab.txt"
        v.save(path)
        loaded = tx.Vocab.load(path)
        assert loaded.id_to_token == v.id_to_token

    def test_rejects_missing_specials_header(self):
        with pytest.raises(tx.VocabError):
            tx.Vocab(["cat", "dog"])

    def test_oov_lookup_names_word(self):
        v = vocab_for(["cat"])
        with pytest.raises(tx.VocabError, match="zebra"):
            v.lookup("zebra")


class TestTokenizeSample:
    def test_two_turns_three_words_layout(self):
        sample = make_sample([["a", "b", "c"], ["d", "e", "f"]])
        v = vocab_for("abcdef")
        tok = tx.tokenize_sample(sample, v)
        assert tok.length == 9  # <s> a b c </s> d e f </s>
        assert tok.token_ids[0] == v.bos_id
        assert tok.token_ids[4] == v.eos_id
        assert tok.token_ids[-1] == v.eos_id
        np.testing.assert_array_equal(tok.segment_ids,
                                      [0, 0, 0, 0, 0, 1, 1, 1, 1])
        np.testing.assert_array_equal(tok.position_ids, np.arange(9))

    def test_eight_turns_eos_count(self):
        sample = make_sample([[f"t{i}"] for i in range(8)])
        v = vocab_for([f"t{i}" for i in range(8)])
        tok = tx.tokenize_sample(sample, v)
        assert (tok.token_ids == v.eos_id).sum() == 8
        assert (tok.token_ids == v.bos_id).sum() == 1

    def test_single_token_word_degenerate_span(self):
        sample = make_sample([["x"], ["y"]])
        v = vocab_for("xy")
        tok = tx.tokenize_sample(sample, v)
        np.testing.assert_array_equal(tok.word_tokens, [[1, 1], [3, 3]])

    def test_multi_token_words_span_correctly(self):
        tokenizer = tx.CharChunkTokenizer(2)
        sample = make_sample([["abcd", "ef"], ["ghijk"]])
        v = vocab_for(["abcd", "ef", "ghijk"], tokenizer)
        tok = tx.tokenize_sample(sample, v, tokenizer)
        # layout: <s> ab cd ef </s> gh ij k </s>
        assert tok.length == 9
        np.testing.assert_array_equal(tok.word_tokens,
                                      [[1, 2], [3, 3], [5, 7]])

    def test_boundaries_cover_exactly_tpp_words(self):
        sample = make_sample([["h1", "h2"], ["a", "b"], ["c", "d", "e"]])
        v = vocab_for(["h1", "h2", "a", "b", "c", "d", "e"])
        tok = tx.tokenize_sample(sample, v)
        # <s> h1 h2 </s> a b </s> c d e </s>: prev's words, then cur's
        np.testing.assert_array_equal(
            tok.word_tokens, [[4, 4], [5, 5], [7, 7], [8, 8], [9, 9]])
        for turn in (0, 1):
            unaligned = replace(sample, word_times=tuple(
                None if t == turn else times
                for t, times in enumerate(sample.word_times)))
            spans = tx.tokenize_sample(unaligned, v).word_tokens
            np.testing.assert_array_equal(
                spans, tok.word_tokens[2:] if turn == 0 else
                tok.word_tokens[:2])
        none = replace(sample, word_times=(None, None))
        assert tx.tokenize_sample(none, v).word_tokens.shape == (0, 2)

    @pytest.mark.parametrize("turn", [0, 1])
    def test_times_not_matching_words_raise(self, turn):
        sample = make_sample([["h1"], ["a", "b"], ["c", "d", "e"]])
        times = list(sample.word_times)
        times[turn] = times[turn][:-1]
        v = vocab_for(["h1", "a", "b", "c", "d", "e"])
        name = ("prev turn has 2 words but 1", "cur turn has 3 words but 2")
        with pytest.raises(ValueError,
                           match=f"sample d/3: {name[turn]} word times"):
            tx.tokenize_sample(replace(sample, word_times=tuple(times)), v)

    def test_oov_word_raises(self):
        sample = make_sample([["a"], ["zzz"]])
        v = vocab_for("a")
        with pytest.raises(tx.VocabError, match="zzz"):
            tx.tokenize_sample(sample, v)

    def test_truncation_drops_oldest_whole_turns(self):
        turns = [[f"h{i}a", f"h{i}b"] for i in range(6)] + [["p"], ["q"]]
        sample = make_sample(turns)
        words = [w for t in turns for w in t]
        v = vocab_for(words)
        full = tx.tokenize_sample(sample, v)
        capped = tx.tokenize_sample(sample, v, max_len=full.length - 1)
        assert capped.length < full.length
        # the oldest turn went whole, the next one stayed
        assert v.lookup("h0a") not in capped.token_ids
        assert v.lookup("h0b") not in capped.token_ids
        assert v.lookup("h1a") in capped.token_ids
        # last two turns intact
        assert capped.token_ids[-2] == v.lookup("q")

    def test_truncation_never_splits_last_two_turns(self):
        sample = make_sample([["a", "b", "c"], ["d", "e", "f"]])
        v = vocab_for("abcdef")
        with pytest.raises(ValueError, match="last two turns"):
            tx.tokenize_sample(sample, v, max_len=5)

    @settings(max_examples=30, deadline=None)
    @given(n_hist=st.integers(0, 6), prev=st.integers(1, 5),
           cur=st.integers(1, 5))
    def test_segment_one_count_property(self, n_hist, prev, cur):
        turns = [[f"x{i}"] for i in range(n_hist)]
        turns.append([f"p{j}" for j in range(prev)])
        turns.append([f"c{j}" for j in range(cur)])
        sample = make_sample(turns)
        v = vocab_for([w for t in turns for w in t])
        tok = tx.tokenize_sample(sample, v)
        # segment 1 exactly on tokens of the current turn plus final </s>
        assert int(tok.segment_ids.sum()) == cur + 1
        assert tok.segment_ids[-1] == 1


class TestEmbedText:
    def setup_method(self):
        self.sample = make_sample([["a", "b"], ["c"]])
        self.vocab = vocab_for("abc")
        self.tok = tx.tokenize_sample(self.sample, self.vocab)
        self.d = 6
        rng = np.random.default_rng(0)
        self.token_table = Tensor(rng.standard_normal((self.vocab.size, self.d)))
        self.pos_table = Tensor(rng.standard_normal((32, self.d)))
        self.seg_table = Tensor(rng.standard_normal((2, self.d)))

    def test_zero_tables_zero_output(self):
        z = Tensor(np.zeros((self.vocab.size, self.d)))
        zp = Tensor(np.zeros((32, self.d)))
        zs = Tensor(np.zeros((2, self.d)))
        out = tx.embed_text(*packed_ids(self.tok), z, zp, zs)
        np.testing.assert_array_equal(out.data, np.zeros((self.tok.length, self.d)))

    def test_segment_difference_is_embedding_difference(self):
        out = tx.embed_text(*packed_ids(self.tok), self.token_table,
                            self.pos_table, self.seg_table).data
        ids = self.tok.token_ids
        # rebuild a twin where one current-turn token is flipped to segment 0
        twin_seg = self.tok.segment_ids.copy()
        pos = int(np.flatnonzero(twin_seg == 1)[0])
        twin_seg[pos] = 0
        twin = tx.TokenizedInput(ids, twin_seg, self.tok.position_ids,
                                 self.tok.word_tokens)
        out2 = tx.embed_text(*packed_ids(twin), self.token_table,
                             self.pos_table, self.seg_table).data
        diff = out[pos] - out2[pos]
        expected = self.seg_table.data[1] - self.seg_table.data[0]
        np.testing.assert_allclose(diff, expected, atol=1e-12)

    def test_permuting_tokens_keeps_position_contribution(self):
        ids = self.tok.token_ids.copy()
        swapped = ids.copy()
        swapped[[1, 2]] = swapped[[2, 1]]
        twin = tx.TokenizedInput(swapped, self.tok.segment_ids,
                                 self.tok.position_ids, self.tok.word_tokens)
        out = tx.embed_text(*packed_ids(self.tok), self.token_table,
                            self.pos_table, self.seg_table).data
        out2 = tx.embed_text(*packed_ids(twin), self.token_table,
                             self.pos_table, self.seg_table).data
        tok_contrib = self.token_table.data[ids]
        tok_contrib2 = self.token_table.data[swapped]
        np.testing.assert_allclose(out - tok_contrib, out2 - tok_contrib2,
                                   atol=1e-12)

    def test_packed_inputs_equal_one_call_each(self):
        other = tx.tokenize_sample(make_sample([["c"], ["a", "b", "a"]]),
                                   self.vocab)
        assert other.length > self.tok.length
        tables = (self.token_table, self.pos_table, self.seg_table)
        out = tx.embed_text(*packed_ids(self.tok, other), *tables).data
        np.testing.assert_array_equal(out, np.concatenate(
            [tx.embed_text(*packed_ids(t), *tables).data
             for t in (self.tok, other)]))
        with pytest.raises(ValueError,
                           match=f"text length {other.length} exceeds"):
            tx.embed_text(*packed_ids(self.tok, other), *tables,
                          max_len=self.tok.length)

    def test_over_limit_raises(self):
        with pytest.raises(ValueError, match="exceeds maximum"):
            tx.embed_text(*packed_ids(self.tok), self.token_table,
                          self.pos_table, self.seg_table, max_len=3)


class TestMaskTokens:
    def big_tokenized(self, n_tokens=100_000, seed=0):
        """Packed token ids of ``n_tokens`` tokens, and their vocabulary."""
        rng = np.random.default_rng(seed)
        v = vocab_for([f"w{i}" for i in range(50)])
        ids = rng.integers(4, v.size, size=n_tokens)
        # sprinkle specials to prove they are never selected
        ids[::97] = v.eos_id
        ids[::101] = v.bos_id
        return ids.astype(np.int64), v

    def test_p_zero_empty_plan(self):
        ids, v = self.big_tokenized(1000)
        plan = tx.mask_tokens(ids, v, np.random.default_rng(0), p=0.0)
        assert plan.positions.size == 0

    def test_masking_fraction_monte_carlo(self):
        ids, v = self.big_tokenized()
        plan = tx.mask_tokens(ids, v, np.random.default_rng(1), p=0.15)
        eligible = (~np.isin(ids, v.special_ids)).sum()
        frac = len(plan.positions) / eligible
        assert abs(frac - 0.15) < 0.005

    def test_corruption_split_monte_carlo(self):
        ids, v = self.big_tokenized()
        plan = tx.mask_tokens(ids, v, np.random.default_rng(2), p=0.9)
        acts = plan.actions
        n = len(acts)
        assert abs((acts == tx.TextMaskPlan.MASK_TOKEN).sum() / n - 0.8) < 0.01
        assert abs((acts == tx.TextMaskPlan.RANDOM_TOKEN).sum() / n - 0.1) < 0.01
        assert abs((acts == tx.TextMaskPlan.KEEP).sum() / n - 0.1) < 0.01

    def test_specials_never_masked(self):
        ids, v = self.big_tokenized(10_000)
        plan = tx.mask_tokens(ids, v, np.random.default_rng(3), p=1.0)
        masked_ids = ids[plan.positions]
        assert not np.isin(masked_ids, v.special_ids).any()

    def test_apply_respects_actions(self):
        ids, v = self.big_tokenized(2000)
        plan = tx.mask_tokens(ids, v, np.random.default_rng(4), p=0.5)
        corrupted = plan.apply(ids, v)
        for pos, act, rep, label in zip(plan.positions, plan.actions,
                                        plan.replacement_ids, plan.labels):
            assert ids[pos] == label
            if act == tx.TextMaskPlan.MASK_TOKEN:
                assert corrupted[pos] == v.mask_id
            elif act == tx.TextMaskPlan.RANDOM_TOKEN:
                assert corrupted[pos] == rep
            else:
                assert corrupted[pos] == label
        untouched = np.setdiff1d(np.arange(2000), plan.positions)
        np.testing.assert_array_equal(corrupted[untouched],
                                      ids[untouched])

    def test_plan_deterministic_in_rng(self):
        ids, v = self.big_tokenized(5000)
        a = tx.mask_tokens(ids, v, np.random.default_rng(9))
        b = tx.mask_tokens(ids, v, np.random.default_rng(9))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.actions, b.actions)
        np.testing.assert_array_equal(a.replacement_ids, b.replacement_ids)
