"""Tokenization, the three-way embedding sum, and dynamic token masking.

The text input for a sample is the temporal concatenation
``<s> t_{i-k} </s> t_{i-k+1} </s> ... </s> t_i </s>``; segment id 1 marks
the tokens of the current turn plus the final ``</s>``, everything else
gets segment 0.  The first and last token of each time-aligned word of the
last two turns are kept through tokenization so time-alignment heads can
index fused hidden states.

The tokenizer is pluggable.  The default splits on whitespace (one token
per word); a chunking tokenizer exists to exercise multi-token words in
tests.  Out-of-vocabulary words are an error, never a silent UNK.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import Tensor, add, gather_rows
from .corpus import Sample

BOS, EOS, MASK, PAD = "<s>", "</s>", "<mask>", "<pad>"
SPECIALS = (BOS, EOS, MASK, PAD)
# the chances that a selected token becomes <mask> or a random token; the
# rest are kept
P_MASK, P_RANDOM = 0.8, 0.1


class VocabError(ValueError):
    pass


@dataclass
class Vocab:
    id_to_token: list

    def __post_init__(self):
        if tuple(self.id_to_token[:4]) != SPECIALS:
            raise VocabError(f"vocabulary must start with specials {SPECIALS}")
        self.token_to_id = {t: i for i, t in enumerate(self.id_to_token)}
        if len(self.token_to_id) != len(self.id_to_token):
            raise VocabError("duplicate tokens in vocabulary")

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    bos_id, eos_id, mask_id, pad_id = 0, 1, 2, 3

    @property
    def special_ids(self) -> tuple:
        return (self.bos_id, self.eos_id, self.mask_id, self.pad_id)

    def lookup(self, token: str) -> int:
        try:
            return self.token_to_id[token]
        except KeyError:
            raise VocabError(f"token {token!r} not in vocabulary")

    @classmethod
    def from_tokens(cls, tokens) -> "Vocab":
        ordered = sorted(set(tokens) - set(SPECIALS))
        return cls(list(SPECIALS) + ordered)

    def save(self, path) -> None:
        Path(path).write_text("\n".join(self.id_to_token) + "\n")

    @classmethod
    def load(cls, path) -> "Vocab":
        lines = Path(path).read_text().splitlines()
        return cls([ln for ln in lines if ln])


class WhitespaceTokenizer:
    """Word-level tokenizer: every corpus word is a single token."""

    def tokenize(self, word: str) -> list:
        return [word]

    def vocabulary_tokens(self, words) -> list:
        return list(words)


class CharChunkTokenizer:
    """Splits words into fixed-size character chunks (multi-token words)."""

    def __init__(self, chunk: int = 2):
        self.chunk = chunk

    def tokenize(self, word: str) -> list:
        return [word[i:i + self.chunk] for i in range(0, len(word), self.chunk)]

    def vocabulary_tokens(self, words) -> list:
        out = []
        for w in words:
            out.extend(self.tokenize(w))
        return out


@dataclass
class TokenizedInput:
    token_ids: np.ndarray        # int64 [n]
    segment_ids: np.ndarray      # int64 [n], 1 on current turn + final </s>
    position_ids: np.ndarray     # int64 [n]
    # int64 [w, 2]: the first and last token of each word of the aligned
    # turns among the last two, prev's words first
    word_tokens: np.ndarray

    @property
    def length(self) -> int:
        return len(self.token_ids)


def tokenize_sample(sample: Sample, vocab: Vocab, tokenizer=None,
                    max_len: int | None = None) -> TokenizedInput:
    """Lay out a sample's text turns with specials, segments and the token
    spans of its aligned words.

    If ``max_len`` is given and the layout is longer, whole oldest history
    turns are dropped (the last two turns are never touched); if it still
    does not fit, a ValueError is raised.  So is an aligned turn whose
    word times do not match its words one for one.
    """
    tokenizer = tokenizer or WhitespaceTokenizer()
    turns = sample.text_turns
    while True:
        ids, segments, spans = _layout(turns, sample, vocab, tokenizer)
        if max_len is None or len(ids) <= max_len:
            break
        if len(turns) <= 2:
            raise ValueError(
                f"sample {sample.dialog_id}/{sample.target_turn_index}: last "
                f"two turns alone need {len(ids)} tokens > max {max_len}")
        turns = turns[1:]
    n = len(ids)
    return TokenizedInput(
        token_ids=np.asarray(ids, dtype=np.int64),
        segment_ids=np.asarray(segments, dtype=np.int64),
        position_ids=np.arange(n, dtype=np.int64),
        word_tokens=np.array(spans, dtype=np.int64).reshape(-1, 2))


def _layout(turns, sample, vocab, tokenizer):
    ids = [vocab.bos_id]
    segments = [0]
    spans = []
    last_two_start = len(turns) - 2
    for ti, words in enumerate(turns):
        current = ti == len(turns) - 1
        word_spans = []
        for word in words:
            pieces = tokenizer.tokenize(word)
            first = len(ids)
            for piece in pieces:
                ids.append(vocab.lookup(piece))
                segments.append(1 if current else 0)
            word_spans.append((first, len(ids) - 1))
        ids.append(vocab.eos_id)
        segments.append(1 if current else 0)
        if ti >= last_two_start:
            times = sample.word_times[ti - last_two_start]
            if times is None:
                continue
            if len(times) != len(words):
                raise ValueError(
                    f"sample {sample.dialog_id}/{sample.target_turn_index}: "
                    f"{'cur' if current else 'prev'} turn has {len(words)} "
                    f"words but {len(times)} word times")
            spans += word_spans
    return ids, segments, spans


def embed_text(token_ids: np.ndarray, position_ids: np.ndarray,
               segment_ids: np.ndarray, token_table, position_table,
               segment_table, max_len: int = 512) -> Tensor:
    """Rowwise token + absolute-position + segment embedding sum of a
    batch's packed text: its samples' ids back to back."""
    if position_ids.size and position_ids.max() >= max_len:
        raise ValueError(
            f"text length {position_ids.max() + 1} exceeds maximum "
            f"{max_len}; drop oldest history turns before embedding")
    tok = gather_rows(token_table, token_ids)
    pos = gather_rows(position_table, position_ids)
    seg = gather_rows(segment_table, segment_ids)
    return add(add(tok, pos), seg)


@dataclass
class TextMaskPlan:
    """Masking of a batch's packed text: positions index its packed ids."""
    positions: np.ndarray       # int64, indices into token_ids
    actions: np.ndarray         # 0 = <mask>, 1 = random token, 2 = keep
    replacement_ids: np.ndarray  # vocab ids where action == 1
    labels: np.ndarray          # original ids at masked positions

    MASK_TOKEN, RANDOM_TOKEN, KEEP = 0, 1, 2

    def apply(self, token_ids: np.ndarray, vocab: Vocab) -> np.ndarray:
        out = token_ids.copy()
        out[self.positions[self.actions == self.MASK_TOKEN]] = vocab.mask_id
        random = self.actions == self.RANDOM_TOKEN
        out[self.positions[random]] = self.replacement_ids[random]
        return out


def mask_tokens(token_ids: np.ndarray, vocab: Vocab,
                rng: np.random.Generator, p: float = 0.15) -> TextMaskPlan:
    """Bernoulli(p) selection of non-special tokens of ``token_ids`` (a
    batch's packed ids) with 80/10/10 corruption.

    Draws one selection uniform per token, then one corruption uniform per
    selected token, then one replacement id per selected token, uniform
    over regular (non-special) vocabulary entries."""
    special = np.isin(token_ids, vocab.special_ids)
    draws = rng.random(token_ids.size)
    selected = np.flatnonzero((draws < p) & ~special)
    t = rng.random(selected.size)
    actions = np.where(t < P_MASK, TextMaskPlan.MASK_TOKEN,
                       np.where(t < P_MASK + P_RANDOM,
                                TextMaskPlan.RANDOM_TOKEN, TextMaskPlan.KEEP))
    n_regular = vocab.size - len(SPECIALS)
    if n_regular < 1:
        raise VocabError("vocabulary has no regular tokens to sample from")
    replacements = rng.integers(len(SPECIALS), vocab.size, size=selected.size)
    return TextMaskPlan(
        positions=selected.astype(np.int64),
        actions=actions.astype(np.int64),
        replacement_ids=replacements.astype(np.int64),
        labels=token_ids[selected].copy())
