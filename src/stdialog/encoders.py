"""Text/speech transformer encoders and the single-layer modality fusion.

Both encoders are pre-norm transformer stacks (zero layers = identity)
whose layers each run as one autodiff node.  The speech encoder first
adds a convolutional relative position embedding: a grouped same-padding
1-d conv over the sequence, GELU, residual add, also as one node.
Fusion concatenates text then speech, adds learnable modality embeddings,
and applies one transformer layer attending across both modalities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .autodiff import (Parameter, Tensor, add, concat, conv1d_backward,
                       conv1d_forward, gather_rows, gelu_backward,
                       gelu_forward, layer_norm_backward, layer_norm_forward,
                       record, register, softmax_backward, softmax_forward)


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


def init_transformer_layer(registry: dict, rng: np.random.Generator,
                           prefix: str, d_h: int, ffn_dim: int,
                           dtype=np.float32,
                           scale: float = 0.02) -> TransformerLayerParams:
    def w(name, shape):
        return register(registry, f"{prefix}.{name}",
                        (scale * rng.standard_normal(shape)).astype(dtype))

    def zeros(name, shape):
        return register(registry, f"{prefix}.{name}", np.zeros(shape, dtype))

    def ones(name, shape):
        return register(registry, f"{prefix}.{name}", np.ones(shape, dtype))

    return TransformerLayerParams(
        ln1_gain=ones("ln1.gain", d_h), ln1_bias=zeros("ln1.bias", d_h),
        wq=w("attn.wq", (d_h, d_h)), bq=zeros("attn.bq", d_h),
        wk=w("attn.wk", (d_h, d_h)), bk=zeros("attn.bk", d_h),
        wv=w("attn.wv", (d_h, d_h)), bv=zeros("attn.bv", d_h),
        wo=w("attn.wo", (d_h, d_h)), bo=zeros("attn.bo", d_h),
        ln2_gain=ones("ln2.gain", d_h), ln2_bias=zeros("ln2.bias", d_h),
        ff1_w=w("ffn.w1", (d_h, ffn_dim)), ff1_b=zeros("ffn.b1", ffn_dim),
        ff2_w=w("ffn.w2", (ffn_dim, d_h)), ff2_b=zeros("ffn.b2", d_h))


def init_encoder_stack(registry: dict, rng: np.random.Generator, prefix: str,
                       num_layers: int, d_h: int, ffn_dim: int,
                       dtype=np.float32, scale: float = 0.02) -> list:
    return [init_transformer_layer(registry, rng, f"{prefix}.layer{i}",
                                   d_h, ffn_dim, dtype, scale)
            for i in range(num_layers)]


def init_conv_positional(registry: dict, rng: np.random.Generator, prefix: str,
                         d_h: int, kernel: int, groups: int, dtype=np.float32,
                         scale: float = 0.02) -> tuple:
    shape = (d_h, d_h // groups, kernel)
    w = register(registry, f"{prefix}.conv_pos.w",
                 (scale * rng.standard_normal(shape)).astype(dtype))
    b = register(registry, f"{prefix}.conv_pos.b", np.zeros(d_h, dtype))
    return w, b


def transformer_layer(x: Tensor, p: TransformerLayerParams, num_heads: int,
                      capture: list | None = None) -> Tensor:
    """One pre-norm layer as a single autodiff node.

    LN1, q/k/v, multi-head softmax attention, ``wo``, residual, LN2, GELU
    FFN, residual, all in numpy; the backward is written out by hand.
    When ``capture`` is a list, the [H, n, n] attention weights are
    appended to it.
    """
    n, d = x.shape
    dk = d // num_heads
    scale = float(1.0 / np.sqrt(dk))
    w_qkv = np.concatenate([p.wq.data, p.wk.data, p.wv.data], axis=1)
    b_qkv = np.concatenate([p.bq.data, p.bk.data, p.bv.data])

    a, ln1 = layer_norm_forward(x.data, p.ln1_gain.data, p.ln1_bias.data)
    # [n, 3d] -> [3, H, n, dk]: q, k, v split into heads
    q, k, v = (a @ w_qkv + b_qkv).reshape(n, 3, num_heads, dk) \
        .transpose(1, 2, 0, 3)
    attn = softmax_forward((q @ k.transpose(0, 2, 1)) * scale)
    if capture is not None:
        capture.append(attn.copy())
    merged = (attn @ v).transpose(1, 0, 2).reshape(n, d)
    h = x.data + (merged @ p.wo.data + p.bo.data)
    c, ln2 = layer_norm_forward(h, p.ln2_gain.data, p.ln2_bias.data)
    f1 = c @ p.ff1_w.data + p.ff1_b.data
    f, phi = gelu_forward(f1)
    out = h + (f @ p.ff2_w.data + p.ff2_b.data)

    def backward(g):
        df1 = gelu_backward(g @ p.ff2_w.data.T, f1, phi)
        dh_ln, dln2_gain, dln2_bias = layer_norm_backward(
            df1 @ p.ff1_w.data.T, p.ln2_gain.data, ln2)
        dh = g + dh_ln
        dctx = (dh @ p.wo.data.T).reshape(n, num_heads, dk) \
            .transpose(1, 0, 2)
        dscores = softmax_backward(dctx @ v.transpose(0, 2, 1), attn) * scale
        dqkv = np.stack([dscores @ k, dscores.transpose(0, 2, 1) @ q,
                         attn.transpose(0, 2, 1) @ dctx]) \
            .transpose(2, 0, 1, 3).reshape(n, 3 * d)
        dx_ln, dln1_gain, dln1_bias = layer_norm_backward(
            dqkv @ w_qkv.T, p.ln1_gain.data, ln1)
        dw_qkv = a.T @ dqkv
        db_qkv = dqkv.sum(axis=0)
        # x, then the parameters in TransformerLayerParams field order
        return (dh + dx_ln, dln1_gain, dln1_bias,
                dw_qkv[:, :d], db_qkv[:d], dw_qkv[:, d:2 * d],
                db_qkv[d:2 * d], dw_qkv[:, 2 * d:], db_qkv[2 * d:],
                merged.T @ dh, dh.sum(axis=0), dln2_gain, dln2_bias,
                c.T @ df1, df1.sum(axis=0), f.T @ g, g.sum(axis=0))

    return record(out, (x, *vars(p).values()), backward, "transformer_layer")


def encode_text(x: Tensor, layers: list, num_heads: int) -> Tensor:
    """Pre-norm stack over [n, d_h] embeddings; zero layers = identity."""
    h = x
    for p in layers:
        h = transformer_layer(h, p, num_heads)
    return h


def conv_position_embedding(x: Tensor, w: Parameter, b: Parameter,
                            groups: int) -> Tensor:
    """x + GELU(grouped same-padding conv over the sequence), one node."""
    n = x.shape[0]
    kernel = w.shape[2]
    left = (kernel - 1) // 2
    xp = np.pad(x.data, ((left, kernel - 1 - left), (0, 0)))
    z, conv = conv1d_forward(xp, w.data, b.data, groups=groups)
    act, phi = gelu_forward(z)

    def backward(g):
        dxp, dw, db = conv1d_backward(gelu_backward(g, z, phi), conv)
        return g + dxp[left:left + n], dw, db

    return record(x.data + act, (x, w, b), backward, "conv_position_embedding")


def encode_speech(x: Tensor, conv_pos: tuple, layers: list, num_heads: int,
                  conv_groups: int) -> Tensor:
    w, b = conv_pos
    h = conv_position_embedding(x, w, b, conv_groups)
    for p in layers:
        h = transformer_layer(h, p, num_heads)
    return h


@dataclass
class FusedRepresentation:
    """Joint hidden states: text span [0, n_text), then CLS, prev frames,
    SEP, cur frames."""
    hidden: Tensor
    n_text: int
    m_prev: int
    m_cur: int
    attention: np.ndarray | None = None   # [num_heads, L, L] when captured

    @property
    def length(self) -> int:
        return self.n_text + self.m_prev + self.m_cur + 2

    @property
    def cls_speech_index(self) -> int:
        return self.n_text

    @property
    def sep_speech_index(self) -> int:
        return self.n_text + self.m_prev + 1

    def prev_frame_index(self, j: int | np.ndarray) -> int | np.ndarray:
        return self.n_text + 1 + j

    def cur_frame_index(self, j: int | np.ndarray) -> int | np.ndarray:
        return self.n_text + self.m_prev + 2 + j


def fusion_input(h_text: Tensor, h_speech: Tensor,
                 modality_table: Parameter) -> Tensor:
    """Concatenate text then speech and add per-modality embeddings."""
    n = h_text.shape[0]
    m = h_speech.shape[0]
    ids = np.concatenate([np.zeros(n, np.int64), np.ones(m, np.int64)])
    joint = concat([h_text, h_speech], axis=0)
    return add(joint, gather_rows(modality_table, ids))


def fuse(h_text: Tensor, h_speech: Tensor, m_prev: int, m_cur: int,
         modality_table: Parameter, layer: TransformerLayerParams,
         num_heads: int,
         capture_attention: bool = False) -> FusedRepresentation:
    n = h_text.shape[0]
    if h_speech.shape[0] != m_prev + m_cur + 2:
        raise ValueError(
            f"speech length {h_speech.shape[0]} != m_prev+m_cur+2 = "
            f"{m_prev + m_cur + 2}")
    x = fusion_input(h_text, h_speech, modality_table)
    captured: list = []
    h = transformer_layer(x, layer, num_heads,
                          capture=captured if capture_attention else None)
    return FusedRepresentation(
        hidden=h, n_text=n, m_prev=m_prev, m_cur=m_cur,
        attention=captured[0] if captured else None)


class AttentionNotCaptured(RuntimeError):
    pass


def cross_modal_mass(attention: np.ndarray, n_text: int) -> dict:
    """Average attention mass crossing modalities, from head-mean weights."""
    mean = attention.mean(axis=0)
    text_to_speech = float(mean[:n_text, n_text:].sum(axis=1).mean())
    speech_to_text = float(mean[n_text:, :n_text].sum(axis=1).mean())
    return {"text_to_speech": text_to_speech, "speech_to_text": speech_to_text}


def export_attention(fused: FusedRepresentation, out_prefix) -> dict:
    """Write fusion attention: one CSV per head, the head mean, and JSON
    metadata with modality spans and cross-modal mass."""
    if fused.attention is None:
        raise AttentionNotCaptured(
            "forward pass was not run with capture_attention=True")
    out_prefix = Path(out_prefix)
    out_prefix.parent.mkdir(parents=True, exist_ok=True)
    paths = {}
    for h in range(fused.attention.shape[0]):
        path = out_prefix.with_name(out_prefix.name + f"_head{h}.csv")
        np.savetxt(path, fused.attention[h], delimiter=",")
        paths[f"head{h}"] = str(path)
    mean_path = out_prefix.with_name(out_prefix.name + "_mean.csv")
    np.savetxt(mean_path, fused.attention.mean(axis=0), delimiter=",")
    paths["mean"] = str(mean_path)
    meta = {
        "length": fused.length,
        "num_heads": int(fused.attention.shape[0]),
        "text_span": [0, fused.n_text],
        "cls_index": fused.cls_speech_index,
        "prev_frame_span": [fused.prev_frame_index(0),
                            fused.prev_frame_index(0) + fused.m_prev],
        "sep_index": fused.sep_speech_index,
        "cur_frame_span": [fused.cur_frame_index(0),
                           fused.cur_frame_index(0) + fused.m_cur],
        "cross_modal_mass": cross_modal_mass(fused.attention, fused.n_text),
    }
    meta_path = out_prefix.with_name(out_prefix.name + "_meta.json")
    meta_path.write_text(json.dumps(meta, indent=1))
    paths["meta"] = str(meta_path)
    return paths
