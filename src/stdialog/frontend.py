"""Convolutional feature extractor, masked projection, and two-turn assembly.

The extractor is a stack of strided 1-d convolutions, each followed by a
GELU (valid padding only, so frame counts follow the closed-form length
arithmetic exposed here), then a single layer normalization over the
feature dimension.  Projection applies an acoustic mask plan's
corruption, then layer norm and an affine map to the model width.  Each
of the two runs as one autodiff node with a hand-written backward.  The
two-turn sequence is [CLS] f_prev [SEP] f_cur with learned CLS/SEP rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, concat, conv1d_backward,
                       conv1d_forward, gelu_backward, gelu_forward,
                       layer_norm_backward, layer_norm_forward, record,
                       reshape)
from .masking import REPLACE, ZERO, MaskPlan


@dataclass(frozen=True)
class ConvLayerSpec:
    channels: int
    kernel: int
    stride: int


@dataclass(frozen=True)
class FrontendConfig:
    layers: tuple                  # tuple[ConvLayerSpec, ...]
    sample_rate: int
    ln_eps: float = 1e-5

    def __post_init__(self):
        if not self.layers:
            raise ValueError("frontend needs at least one conv layer")
        for spec in self.layers:
            if spec.stride < 1 or spec.kernel < 1:
                raise ValueError(f"bad conv layer {spec}")

    @property
    def feature_dim(self) -> int:
        return self.layers[-1].channels

    @property
    def stride_product(self) -> int:
        out = 1
        for spec in self.layers:
            out *= spec.stride
        return out

    @property
    def receptive_field(self) -> int:
        rf = 1
        for spec in reversed(self.layers):
            rf = (rf - 1) * spec.stride + spec.kernel
        return rf

    def output_length(self, n_samples: int) -> int:
        """Frame count for an input of ``n_samples`` (valid convolutions)."""
        if n_samples < self.receptive_field:
            raise ShapeError(
                f"waveform of {n_samples} samples is below the receptive "
                f"field; minimum length is {self.receptive_field}")
        n = n_samples
        for spec in self.layers:
            n = (n - spec.kernel) // spec.stride + 1
        return n


def full_scale_config(sample_rate: int = 16_000) -> FrontendConfig:
    """16 kHz stack: the wav2vec 2.0 family extractor (7 layers, 512 ch,
    20 ms hop) plus a 512ch/k5/s5 reduction layer, for a 100 ms frame
    stride; 10 s of audio maps to exactly 99 frames.
    """
    sevens = [(10, 5), (3, 2), (3, 2), (3, 2), (3, 2), (2, 2), (2, 2)]
    layers = tuple(ConvLayerSpec(512, k, s) for k, s in sevens)
    layers += (ConvLayerSpec(512, 5, 5),)
    return FrontendConfig(layers=layers, sample_rate=sample_rate)


def desk_config(sample_rate: int = 100, channels: int = 16) -> FrontendConfig:
    """Low-rate synthetic-waveform stack: 10-sample hop (one frame per 0.1 s)."""
    return FrontendConfig(
        layers=(ConvLayerSpec(channels, 5, 2), ConvLayerSpec(channels, 5, 5)),
        sample_rate=sample_rate)


def extract_features(waveform, config: FrontendConfig, conv_params: list,
                     ln_gain, ln_bias) -> Tensor:
    """Run the conv stack over a 1-d waveform -> [m, feature_dim].

    ``conv_params`` is one (weight, bias) pair per configured layer.  One
    autodiff node: each conv is an im2col matmul, and the backward builds
    no gradient for the waveform, which is input data, not a parent.
    """
    if len(conv_params) != len(config.layers):
        raise ShapeError(
            f"{len(conv_params)} conv parameter pairs for "
            f"{len(config.layers)} configured layers")
    wav = np.asarray(waveform)
    config.output_length(wav.shape[0])  # raises with the minimum length
    x = wav[:, None]
    saved = []
    for spec, (w, b) in zip(config.layers, conv_params):
        z, conv = conv1d_forward(x, w.data, b.data, spec.stride)
        x, phi = gelu_forward(z)
        saved.append((z, phi, conv))
    out, ln = layer_norm_forward(x, ln_gain.data, ln_bias.data,
                                 config.ln_eps)

    def backward(g):
        dx, dgain, dbias = layer_norm_backward(g, ln_gain.data, ln)
        conv_grads = []
        for i in reversed(range(len(saved))):
            z, phi, conv = saved[i]
            dx, dw, db = conv1d_backward(gelu_backward(dx, z, phi), conv,
                                         input_grad=i > 0)
            conv_grads.append((dw, db))
        return (dgain, dbias,
                *(d for pair in reversed(conv_grads) for d in pair))

    parents = (ln_gain, ln_bias, *(p for pair in conv_params for p in pair))
    return record(out, parents, backward, "extract_features")


def project_features(features: Tensor, ln_gain, ln_bias, weight, bias,
                     plan: MaskPlan | None = None) -> Tensor:
    """Mask corruption, layer norm, then rowwise affine feature_dim -> d_h.

    With a ``plan``, each masked frame is zeroed (ZERO), swapped for the
    plan's source frame of the uncorrupted features (REPLACE) or kept
    (KEEP) before the layer norm.  One autodiff node.
    """
    f = features.data
    corrupted = f
    if plan is not None:
        if f.shape[0] != plan.length:
            raise ValueError(
                f"plan length {plan.length} != features rows {f.shape[0]}")
        replaced = plan.actions == REPLACE
        dropped = replaced | (plan.actions == ZERO)
        sources = plan.replacement_sources[replaced]
        if dropped.any():
            corrupted = f.copy()
            corrupted[dropped] = 0.0
            corrupted[replaced] = f[sources]
    normed, ln = layer_norm_forward(corrupted, ln_gain.data, ln_bias.data)
    out = normed @ weight.data + bias.data

    def backward(g):
        dx, dgain, dbias = layer_norm_backward(g @ weight.data.T,
                                               ln_gain.data, ln)
        if corrupted is not f:
            # donor gradients summed apart first: the same float32 sums as
            # the former mul/gather ops, so training stays bit-identical
            donors = np.zeros_like(dx)
            np.add.at(donors, sources, dx[replaced])
            dx[dropped] = 0.0
            dx += donors
        return dx, dgain, dbias, normed.T @ g, g.sum(axis=0)

    return record(out, (features, ln_gain, ln_bias, weight, bias), backward,
                  "project_features")


def assemble_speech_sequence(f_prev: Tensor, f_cur: Tensor, cls_vec: Tensor,
                             sep_vec: Tensor) -> Tensor:
    """[CLS] f_prev [SEP] f_cur as one [m_prev + m_cur + 2, d_h] tensor;
    ``encoders.FusedRepresentation`` indexes this layout."""
    m_prev, d = f_prev.shape
    m_cur, d2 = f_cur.shape
    if m_prev == 0 or m_cur == 0:
        raise ValueError(
            f"both speech turns must be non-empty, got {m_prev} and {m_cur} "
            f"frames")
    if d != d2:
        raise ShapeError(f"turn widths differ: {f_prev.shape} vs {f_cur.shape}")
    cls_row = reshape(cls_vec, (1, d))
    sep_row = reshape(sep_vec, (1, d))
    return concat([cls_row, f_prev, sep_row, f_cur], axis=0)
