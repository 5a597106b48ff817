"""Text/speech transformer encoders and the single-layer modality fusion.

Each encoder and the fusion run over a batch at once.  A batch's
sequences are packed: their rows are stacked back to back, with a tuple
of sequence lengths saying where each ends.  Both encoders are pre-norm
transformer stacks (zero layers = identity) whose layers each run as one
autodiff node over all packed rows; attention inside a layer runs per
sequence, so no sequence attends to another, and keeps its softmax as
unnormalised exps and their row sums.  The scores are in base 2, so the
exps are ``np.exp2``.  Each sequence's [H, L, L] scores are passed over
3 times forward (scores matmul, exp2, context matmul) and 5 times
backward: a sequence whose scores are bounded by ``SCORE_BOUND`` = 40
(in natural units) skips the row max, and the row sums ride the context
matmul.  Around that core, the row and column sums are BLAS matvecs
against constant vectors, and the bias and residual adds run in place.
A layer may compute some of its rows only: keys and values still come
from every row, and the rest runs over the rows it computes.
The speech encoder first adds a convolutional relative position
embedding to each sequence on its own: a grouped same-padding 1-d conv
over the sequence, GELU, residual add, also as one node over all
sequences.  Fusion interleaves each sample's text rows and speech rows,
adds learnable modality embeddings, and applies one transformer layer
attending across both modalities of a sample.  That layer computes only
the rows its readers read: ``fuse``'s caller names them by a function of
the batch's layout (``model.compute_losses`` the union of the four
objectives' rows, fine-tuning and task evaluation each sample's <s>
row), and with none it computes every row.  Its output is one
``FusedBatch``: the computed hidden states and their layout, [text, CLS,
prev, SEP, cur] per sample, which maps the text positions and speech
frames of all samples to their layout rows at once, and those to rows
of the hidden states, refusing a row that was not computed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .autodiff import (Init, Parameter, ShapeError, Tensor,
                       conv1d_backward, conv1d_forward, gather_rows,
                       gelu_backward, gelu_forward, layer_norm_backward,
                       layer_norm_forward, record, sum_rows)


@dataclass
class TransformerLayerParams:
    ln1_gain: Parameter
    ln1_bias: Parameter
    wq: Parameter
    bq: Parameter
    wk: Parameter
    bk: Parameter
    wv: Parameter
    bv: Parameter
    wo: Parameter
    bo: Parameter
    ln2_gain: Parameter
    ln2_bias: Parameter
    ff1_w: Parameter
    ff1_b: Parameter
    ff2_w: Parameter
    ff2_b: Parameter


def init_transformer_layer(init: Init, prefix: str, d_h: int,
                           ffn_dim: int) -> TransformerLayerParams:
    def w(name, shape):
        return init.normal(f"{prefix}.{name}", shape)

    def zeros(name, shape):
        return init.zeros(f"{prefix}.{name}", shape)

    def ones(name, shape):
        return init.ones(f"{prefix}.{name}", shape)

    return TransformerLayerParams(
        ln1_gain=ones("ln1.gain", d_h), ln1_bias=zeros("ln1.bias", d_h),
        wq=w("attn.wq", (d_h, d_h)), bq=zeros("attn.bq", d_h),
        wk=w("attn.wk", (d_h, d_h)), bk=zeros("attn.bk", d_h),
        wv=w("attn.wv", (d_h, d_h)), bv=zeros("attn.bv", d_h),
        wo=w("attn.wo", (d_h, d_h)), bo=zeros("attn.bo", d_h),
        ln2_gain=ones("ln2.gain", d_h), ln2_bias=zeros("ln2.bias", d_h),
        ff1_w=w("ffn.w1", (d_h, ffn_dim)), ff1_b=zeros("ffn.b1", ffn_dim),
        ff2_w=w("ffn.w2", (ffn_dim, d_h)), ff2_b=zeros("ffn.b2", d_h))


def init_encoder_stack(init: Init, prefix: str, num_layers: int, d_h: int,
                       ffn_dim: int) -> list:
    return [init_transformer_layer(init, f"{prefix}.layer{i}", d_h, ffn_dim)
            for i in range(num_layers)]


def init_conv_positional(init: Init, prefix: str, d_h: int, kernel: int,
                         groups: int) -> tuple:
    return (init.normal(f"{prefix}.conv_pos.w", (d_h, d_h // groups, kernel)),
            init.zeros(f"{prefix}.conv_pos.b", d_h))


def _with_ones(v: np.ndarray) -> np.ndarray:
    """[v, 1]: ``v`` with a column of ones after its last."""
    v1 = np.empty((*v.shape[:-1], v.shape[-1] + 1), dtype=v.dtype)
    v1[..., :-1] = v
    v1[..., -1] = 1
    return v1


# The largest per-sequence score bound (see ``transformer_layer``) whose
# exps are taken unshifted, in natural units: the layer takes each exp as
# 2^s' of the base-2 score s' = s log2(e) and holds its base-2 bound to
# C log2(e), so its exps are the e^s this derivation is about.  float32
# holds normal numbers from 1.2e-38 (about e^-87.3) to 3.4e38 (about
# e^88.7).  With every |s| <= C, each exp
# lies in [e^-C, e^C] and a row sum of L of them is normal and finite for
# L < e^(88.7 - C).  The backward divides by that row sum,
# dr = dctx / rowsum, and rowsum can reach L e^C; dr stays normal while
# |dctx| >= 1.2e-38 L e^C.  At C = 40 that floor is 2.8e-21 L, so an output
# gradient scaled by 1e-12 stays above it for L up to about 10^8; at C = 60
# it is 1.3e-12 L, which such gradients cross.  Over a 500-step overfit run
# at batch 32 the largest bound was 39.9, so none of its 80,000 sequences
# shifted; the bench's short episodes from a fresh init stay under 8.
SCORE_BOUND = 40.0
LOG2_E = float(np.log2(np.e))
LN_2 = float(np.log(2.0))


def transformer_layer(x: Tensor, p: TransformerLayerParams, num_heads: int,
                      lengths: tuple, capture: list | None = None,
                      rows: np.ndarray | None = None) -> Tensor:
    """One pre-norm layer over packed sequences, as a single autodiff node.

    ``x`` holds the rows of ``len(lengths)`` sequences back to back, the
    i-th of ``lengths[i]`` rows.  The output holds the layer's rows
    ``rows`` (sorted, distinct indices into ``x``), or all of them when
    ``rows`` is None.  LN1, k and v run over all rows; q, ``wo``, the
    residuals, LN2 and the GELU FFN run over the output rows only.
    Multi-head softmax attention runs per sequence, from its output rows
    to all its rows, so no sequence sees another, and a sequence with no
    output row has empty [H, 0, n] scores: its attention does no
    arithmetic.

    ``q`` carries the scores' 1/sqrt(dk) and log2(e), folded into its
    weight and bias, so its scores s' are in base 2 and each exp is
    2^s' = e^s.  Each sequence keeps its [H, r, n] unnormalised exps (r
    its output rows), and each such array is passed over 3 times forward
    (scores matmul, exp2, context matmul) and 5 times backward.  A
    sequence's scores are bounded by max_i |q_i| * max_j |k_j| over its
    output rows i, all its rows j and the heads; when that bound is at
    most ``SCORE_BOUND`` log2(e), 2^s' is taken unshifted, and only a
    sequence over it subtracts its row max first.  ``v`` carries a ones
    column, so the context matmul also yields the row sums, and the
    context is divided by them once over all rows.  The backward is
    written out by hand; its softmax row term rowsum(dP * P) is taken as
    rowsum(dctx * ctx), a sum over dk, and rides the ds matmul as
    [dr, -dot] @ [v, 1]^T = dr v^T - dot.  It multiplies the q and k
    gradients by ln 2 once, and the wq and bq gradients by the folded
    constant.  Row sums are matvecs against a constant vector, the bias
    gradients are ``ones @ M`` (``autodiff.sum_rows``), and the bias,
    residual and GELU-gradient products run in place.  When ``capture``
    is a list, each sequence's [H, r, n] attention weights are appended
    to it.
    """
    n, d = x.shape
    if sum(lengths) != n:
        raise ShapeError(f"sequence lengths {tuple(lengths)} do not sum to "
                         f"the {n} packed rows")
    ends = np.cumsum(lengths, dtype=np.intp)
    starts = ends - lengths
    segments = [slice(lo, hi)
                for lo, hi in zip(starts.tolist(), ends.tolist())]
    if rows is None:
        out_rows, q_segments, r = slice(None), segments, n
    else:
        out_rows = np.asarray(rows, dtype=np.intp)
        r = out_rows.size
        if r and (out_rows[0] < 0 or out_rows[-1] >= n
                  or (np.diff(out_rows) <= 0).any()):
            raise ShapeError(f"output rows must be sorted, distinct rows of "
                             f"the {n} packed rows")
        # sequence i's output rows are out_rows[q_ends[i-1]:q_ends[i]]
        q_ends = out_rows.searchsorted(ends).tolist()
        q_segments = [slice(lo, hi) for lo, hi in zip([0] + q_ends, q_ends)]
    dk = d // num_heads
    # q's weight and bias carry 1/sqrt(dk) and log2(e)
    q_scale = float(LOG2_E / np.sqrt(dk))
    w_q, b_q = p.wq.data * q_scale, p.bq.data * q_scale
    w_kv = np.concatenate([p.wk.data, p.wv.data], axis=1)
    b_kv = np.concatenate([p.bk.data, p.bv.data])

    a, ln1 = layer_norm_forward(x.data, p.ln1_gain.data, p.ln1_bias.data)
    a_q = a[out_rows]
    q = a_q @ w_q
    q += b_q
    kv = a @ w_kv
    kv += b_kv
    # [r, d] -> [H, r, dk] and [n, 2d] -> [2, H, n, dk]: split into heads
    q = q.reshape(r, num_heads, dk).transpose(1, 0, 2)
    k, v = kv.reshape(n, 2, num_heads, dk).transpose(1, 2, 0, 3)
    # each sequence's largest squared |q_i| and |k_j|; a sequence with no
    # output row takes no part
    live = [i for i, queries in enumerate(q_segments)
            if queries.start < queries.stop]
    q_peak = np.maximum.reduceat(
        np.einsum("hnd,hnd->hn", q, q),
        np.array([q_segments[i].start for i in live], dtype=np.intp), axis=1)
    k_peak = np.maximum.reduceat(np.einsum("hnd,hnd->hn", k, k), starts,
                                 axis=1)[:, live]
    shifted = np.zeros(len(lengths), dtype=bool)
    shifted[live] = (q_peak * k_peak).max(axis=0) \
        > (SCORE_BOUND * LOG2_E) ** 2
    v1 = _with_ones(v)
    ctx1 = np.empty((num_heads, r, dk + 1), dtype=a.dtype)
    exps = []   # each sequence's [H, r, n] unnormalised exps
    for keys, queries, shift in zip(segments, q_segments, shifted):
        e = q[:, queries] @ k[:, keys].transpose(0, 2, 1)
        if shift:
            e -= e.max(axis=-1, keepdims=True)
        np.exp2(e, out=e)
        np.matmul(e, v1[:, keys], out=ctx1[:, queries])
        exps.append(e)
    rowsum = ctx1[..., dk:].copy()
    merged = np.empty((r, num_heads, dk), dtype=a.dtype)
    ctx = merged.transpose(1, 0, 2)   # [H, r, dk] view of the heads' rows
    np.divide(ctx1[..., :dk], rowsum, out=ctx)
    del ctx1, v1   # before the FFN: a step's memory peaks in the last layer
    if capture is not None:
        capture.extend(e / rowsum[:, queries]
                       for queries, e in zip(q_segments, exps))
    merged = merged.reshape(r, d)
    h = merged @ p.wo.data
    h += p.bo.data
    h += x.data[out_rows]
    c, ln2 = layer_norm_forward(h, p.ln2_gain.data, p.ln2_bias.data)
    f1 = c @ p.ff1_w.data
    f1 += p.ff1_b.data
    f, dact = gelu_forward(f1)
    out = f @ p.ff2_w.data
    out += p.ff2_b.data
    out += h

    def backward(g):
        df1 = g @ p.ff2_w.data.T
        df1 *= dact
        dh, dln2_gain, dln2_bias = layer_norm_backward(
            df1 @ p.ff1_w.data.T, p.ln2_gain.data, ln2)
        dh += g
        dctx = (dh @ p.wo.data.T).reshape(r, num_heads, dk) \
            .transpose(1, 0, 2)
        dq_rows = np.empty((r, num_heads, dk), dtype=dctx.dtype)
        dq = dq_rows.transpose(1, 0, 2)
        dkv = np.empty((n, 2, num_heads, dk), dtype=dctx.dtype)
        dkey, dv = dkv.transpose(1, 2, 0, 3)
        # [dr, -dot]: dr the gradient of the unnormalised context
        dr1 = np.empty((num_heads, r, dk + 1), dtype=dctx.dtype)
        dr = np.divide(dctx, rowsum, out=dr1[..., :dk])
        dr1[..., dk] = (dr * ctx) @ np.full(dk, -1.0, dr.dtype)
        v1 = _with_ones(v)   # rebuilt, so that the node holds only v
        for keys, queries, e in zip(segments, q_segments, exps):
            ds = dr1[:, queries] @ v1[:, keys].transpose(0, 2, 1)
            ds *= e
            np.matmul(ds, k[:, keys], out=dq[:, queries])
            # zero for a sequence without output rows: ds and e are empty
            np.matmul(ds.transpose(0, 2, 1), q[:, queries], out=dkey[:, keys])
            np.matmul(e.transpose(0, 2, 1), dr[:, queries], out=dv[:, keys])
        dq_rows = dq_rows.reshape(r, d)
        dkv = dkv.reshape(n, 2 * d)
        # the scores' gradient in base 2 is ln 2 times that in base e
        dq_rows *= LN_2
        dkv[:, :d] *= LN_2
        da = dkv @ w_kv.T
        da[out_rows] += dq_rows @ w_q.T
        dx, dln1_gain, dln1_bias = layer_norm_backward(da, p.ln1_gain.data,
                                                       ln1)
        dx[out_rows] += dh
        dw_q = a_q.T @ dq_rows
        dw_q *= q_scale
        db_q = sum_rows(dq_rows)
        db_q *= q_scale
        dw_kv = a.T @ dkv
        db_kv = sum_rows(dkv)
        # x, then the parameters in TransformerLayerParams field order
        return (dx, dln1_gain, dln1_bias, dw_q, db_q, dw_kv[:, :d],
                db_kv[:d], dw_kv[:, d:], db_kv[d:],
                merged.T @ dh, sum_rows(dh), dln2_gain, dln2_bias,
                c.T @ df1, sum_rows(df1), f.T @ g, sum_rows(g))

    return record(out, (x, *vars(p).values()), backward, "transformer_layer")


def encode_text(x: Tensor, layers: list, num_heads: int,
                lengths: tuple) -> Tensor:
    """Pre-norm stack over packed [sum(lengths), d_h] embeddings; zero
    layers = identity."""
    h = x
    for p in layers:
        h = transformer_layer(h, p, num_heads, lengths)
    return h


def conv_position_embedding(x: Tensor, w: Parameter, b: Parameter,
                            groups: int, lengths: tuple) -> Tensor:
    """x + GELU(grouped same-padding conv over each sequence), over packed
    sequences of ``lengths`` rows, one node.  In the conv's input, K - 1
    zero rows pad each sequence (K the kernel), so no window crosses from
    one sequence into the next."""
    n = x.shape[0]
    if sum(lengths) != n:
        raise ShapeError(f"sequence lengths {tuple(lengths)} do not sum to "
                         f"the {n} packed rows")
    kernel = w.shape[2]
    left = (kernel - 1) // 2
    # row r of sequence i sits at row r + i * (K - 1) + left of the input
    rows = np.arange(n) + (kernel - 1) * np.repeat(np.arange(len(lengths)),
                                                   lengths) + left
    xp = np.zeros((n + (kernel - 1) * len(lengths), x.shape[1]), x.dtype)
    xp[rows] = x.data
    z, conv = conv1d_forward(xp, w.data, b.data, rows - left, groups=groups)
    act, dact = gelu_forward(z)

    def backward(g):
        dxp, dw, db = conv1d_backward(gelu_backward(g, dact), conv)
        return g + dxp[rows], dw, db

    return record(x.data + act, (x, w, b), backward, "conv_position_embedding")


def encode_speech(x: Tensor, lengths: tuple, conv_pos: tuple, layers: list,
                  num_heads: int, conv_groups: int) -> Tensor:
    """The conv position embedding of each of the packed sequences of
    ``lengths`` rows in ``x`` (the conv does not cross sequences), then
    the pre-norm stack over the packed rows."""
    h = conv_position_embedding(x, *conv_pos, conv_groups, lengths)
    for p in layers:
        h = transformer_layer(h, p, num_heads, lengths)
    return h


@dataclass
class FusedBatch:
    """A batch's fused hidden states and their packed layout.

    Sample i's rows of the layout start at row ``start[i]``: its text
    span [0, n_text[i]), then CLS, its m_prev[i] prev frames, SEP and its
    m_cur[i] cur frames.  The int arrays are [b].  The fusion layer
    computes the layout rows ``kept`` only (sorted; None: all of them),
    and ``hidden`` holds those in order, so readers take hidden states
    through ``gather``, which maps layout rows to rows of ``hidden``.
    ``fuse`` hands the layout, with no ``hidden`` yet, to the function
    that chooses ``kept``.  ``attention`` holds each sample's
    [num_heads, r, L] fusion attention of its r kept rows when captured.
    """
    hidden: Tensor | None
    n_text: np.ndarray
    m_prev: np.ndarray
    m_cur: np.ndarray
    start: np.ndarray
    attention: list | None = None
    kept: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.start)

    def gather(self, rows, what: str) -> Tensor:
        """The hidden states at layout rows ``rows``, as one node; a row
        that the fusion layer did not compute raises ``IndexError`` naming
        ``what``."""
        rows = np.asarray(rows, dtype=np.intp)
        if self.kept is not None:
            at = self.kept.searchsorted(rows)
            # -1 past the end: no row reads it
            missing = np.append(self.kept, -1)[at] != rows
            if missing.any():
                raise IndexError(
                    f"{what} reads fused rows {rows[missing].tolist()} that "
                    f"the fusion layer did not compute")
            rows = at
        return gather_rows(self.hidden, rows)

    def text_rows(self, positions: np.ndarray, what: str) -> tuple:
        """The layout rows at text positions counted over the
        batch's packed text (its samples' texts back to back), and each
        row's sample; a position outside the packed text raises
        ``IndexError`` naming ``what``."""
        ends = np.cumsum(self.n_text)
        pos = np.asarray(positions, dtype=np.intp)
        sample = ends.searchsorted(pos, side="right")
        if pos.size and (pos.min() < 0 or sample.max() == len(self)):
            raise IndexError(f"{what} outside packed text [0, {ends[-1]}): "
                             f"{pos.min()}..{pos.max()}")
        return self.start[sample] + pos - (ends - self.n_text)[sample], sample

    def frame_rows(self) -> np.ndarray:
        """The layout row of every speech frame, in the order
        ``frontend.extract_features`` packs them: each sample's prev
        frames, then its cur frames."""
        turns = np.stack([self.m_prev, self.m_cur], axis=1).ravel()
        first = np.stack([self.start + self.n_text + 1,
                          self.start + self.n_text + self.m_prev + 2],
                         axis=1).ravel()
        return np.repeat(first - (np.cumsum(turns) - turns), turns) \
            + np.arange(turns.sum())


def fusion_input(h_text: Tensor, h_speech: Tensor, text_lengths: tuple,
                 speech_lengths: tuple, modality_table: Parameter) -> Tensor:
    """Each sample's rows as [text_i; speech_i], from packed text and packed
    speech rows, each row plus its modality's embedding; one node."""
    n = h_text.shape[0]
    modality = np.repeat([0, 1] * len(text_lengths),
                         [m for pair in zip(text_lengths, speech_lengths)
                          for m in pair])
    # text rows, then speech rows, go to these rows of the output
    dest = np.argsort(modality, kind="stable")
    text_rows, speech_rows = dest[:n], dest[n:]
    text_emb, speech_emb = modality_table.data
    data = np.empty((n + h_speech.shape[0], h_text.shape[1]), h_text.dtype)
    data[text_rows] = h_text.data + text_emb
    data[speech_rows] = h_speech.data + speech_emb

    def backward(g):
        g_text, g_speech = g[text_rows], g[speech_rows]
        return g_text, g_speech, np.stack([sum_rows(g_text),
                                           sum_rows(g_speech)])

    return record(data, (h_text, h_speech, modality_table), backward,
                  "fusion_input")


def fuse(h_text: Tensor, h_speech: Tensor, text_lengths: tuple,
         speech_frames: list, modality_table: Parameter,
         layer: TransformerLayerParams, num_heads: int,
         capture_attention: bool = False, rows=None) -> FusedBatch:
    """The batch's fused representation, from packed text rows of
    ``text_lengths`` and packed speech rows of the (m_prev, m_cur) turns
    in ``speech_frames``: one layer attending across both modalities of
    a sample.  ``rows``, a function of the batch's layout (a
    ``FusedBatch`` without ``hidden``), names the layout rows that the
    batch's readers take; the layer computes only those, as
    ``FusedBatch.kept``.  None computes every row."""
    n_text = np.asarray(text_lengths, dtype=np.intp)
    m_prev, m_cur = np.asarray(speech_frames, dtype=np.intp).reshape(-1, 2).T
    speech_lengths = tuple(m_prev + m_cur + 2)
    for what, x, lengths in (("text", h_text, text_lengths),
                             ("speech", h_speech, speech_lengths)):
        if x.shape[0] != sum(lengths):
            raise ValueError(f"{x.shape[0]} packed {what} rows for sample "
                             f"lengths summing to {sum(lengths)}")
    x = fusion_input(h_text, h_speech, text_lengths, speech_lengths,
                     modality_table)
    lengths = n_text + m_prev + m_cur + 2
    layout = FusedBatch(None, n_text, m_prev, m_cur,
                        np.cumsum(lengths) - lengths)
    kept = None if rows is None else np.unique(
        np.asarray(rows(layout), dtype=np.intp))
    captured: list | None = [] if capture_attention else None
    h = transformer_layer(x, layer, num_heads, tuple(lengths.tolist()),
                          capture=captured, rows=kept)
    return replace(layout, hidden=h, attention=captured, kept=kept)


class AttentionNotCaptured(RuntimeError):
    pass


def cross_modal_mass(attention: np.ndarray, n_text: int) -> dict:
    """Average attention mass crossing modalities, from head-mean weights."""
    mean = attention.mean(axis=0)
    text_to_speech = float(mean[:n_text, n_text:].sum(axis=1).mean())
    speech_to_text = float(mean[n_text:, :n_text].sum(axis=1).mean())
    return {"text_to_speech": text_to_speech, "speech_to_text": speech_to_text}


def export_attention(fused: FusedBatch, out_prefix) -> dict:
    """Write the fusion attention of the batch's first sample: one CSV per
    head, the head mean, and JSON metadata with modality spans and
    cross-modal mass."""
    if fused.attention is None:
        raise AttentionNotCaptured(
            "forward pass was not run with capture_attention=True")
    attention = fused.attention[0]
    n, m_prev, m_cur = (int(fused.n_text[0]), int(fused.m_prev[0]),
                        int(fused.m_cur[0]))
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {}
    for h in range(attention.shape[0]):
        path = out_prefix.with_name(out_prefix.name + f"_head{h}.csv")
        np.savetxt(path, attention[h], delimiter=",")
        paths[f"head{h}"] = str(path)
    mean_path = out_prefix.with_name(out_prefix.name + "_mean.csv")
    np.savetxt(mean_path, attention.mean(axis=0), delimiter=",")
    paths["mean"] = str(mean_path)
    meta = {
        "length": n + m_prev + m_cur + 2,
        "num_heads": int(attention.shape[0]),
        "text_span": [0, n],
        "cls_index": n,
        "prev_frame_span": [n + 1, n + 1 + m_prev],
        "sep_index": n + m_prev + 1,
        "cur_frame_span": [n + m_prev + 2, n + m_prev + 2 + m_cur],
        "cross_modal_mass": cross_modal_mass(attention, n),
    }
    meta_path = out_prefix.with_name(out_prefix.name + "_meta.json")
    meta_path.write_text(json.dumps(meta, indent=1))
    paths["meta"] = str(meta_path)
    return paths
