"""Convolutional feature extractor, masked projection, and two-turn assembly.

The extractor is a stack of strided 1-d convolutions, each followed by a
GELU (valid padding only, so frame counts follow the closed-form length
arithmetic exposed here), then a single layer normalization over the
feature dimension.  Projection applies the batch's acoustic mask plan
corruption, then layer norm and an affine map to the model width.  The
two-turn sequence of a sample is [CLS] f_prev [SEP] f_cur with learned
CLS/SEP rows.  Each of the three runs once per batch, as one autodiff
node with a hand-written backward over the packed frames of all turns:
the frames of the turns back to back, prev then cur of each sample.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import (ShapeError, Tensor, conv1d_backward, conv1d_forward,
                       gelu_backward, gelu_forward, layer_norm_backward,
                       layer_norm_forward, record, sum_rows)
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


def check_sample_rate(samples, config: FrontendConfig) -> None:
    """Raise ``ValueError`` naming both rates if the speech of one of
    ``samples`` is sampled at another rate than the frontend ``config`` was
    built for, which would change the time each frame spans.  A sample
    built by hand, whose ``sample_rate`` is None, is not checked."""
    for sample in samples:
        if sample.sample_rate not in (None, config.sample_rate):
            raise ValueError(
                f"corpus sample rate {sample.sample_rate} Hz differs from "
                f"the model frontend's {config.sample_rate} Hz")


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


def window_starts(lengths, kernel: int, stride: int) -> tuple:
    """The first row of each valid ``kernel``-row window, ``stride`` apart,
    of sequences of ``lengths`` rows packed back to back, and each
    sequence's window count; no window crosses into the next sequence."""
    lengths = np.asarray(lengths, dtype=np.intp)
    counts = (lengths - kernel) // stride + 1
    firsts = np.cumsum(counts) - counts
    starts = np.repeat(np.cumsum(lengths) - lengths - stride * firsts,
                       counts) + stride * np.arange(counts.sum())
    return starts, counts


def extract_features(waveforms: list, config: FrontendConfig,
                     conv_params: list, ln_gain, ln_bias) -> Tensor:
    """Run the conv stack over each 1-d waveform -> their frames packed
    back to back, [sum of output_length(len(w)), feature_dim].

    ``conv_params`` is one (weight, bias) pair per configured layer; the
    waveforms are cast to the weights' dtype.  One autodiff node: each
    conv is one im2col matmul over the windows of all waveforms, none
    crossing into the next waveform, and the backward builds no gradient
    for the waveforms, which are input data, not parents.
    """
    if len(conv_params) != len(config.layers):
        raise ShapeError(
            f"{len(conv_params)} conv parameter pairs for "
            f"{len(config.layers)} configured layers")
    lengths = [len(w) for w in waveforms]
    for n in lengths:
        config.output_length(n)  # raises with the minimum length
    x = np.concatenate(waveforms).astype(conv_params[0][0].dtype,
                                         copy=False)[:, None]
    saved = []
    for spec, (w, b) in zip(config.layers, conv_params):
        starts, lengths = window_starts(lengths, spec.kernel, spec.stride)
        z, conv = conv1d_forward(x, w.data, b.data, starts)
        x, dact = gelu_forward(z)
        saved.append((dact, conv))
    out, ln = layer_norm_forward(x, ln_gain.data, ln_bias.data)

    def backward(g):
        dx, dgain, dbias = layer_norm_backward(g, ln_gain.data, ln)
        conv_grads = []
        for i in reversed(range(len(saved))):
            dact, conv = saved[i]
            dx, dw, db = conv1d_backward(gelu_backward(dx, dact), conv,
                                         input_grad=i > 0)
            conv_grads.append((dw, db))
        return (dgain, dbias,
                *(d for pair in reversed(conv_grads) for d in pair))

    parents = (ln_gain, ln_bias, *(p for pair in conv_params for p in pair))
    return record(out, parents, backward, "extract_features")


def project_features(features: Tensor, ln_gain, ln_bias, weight, bias,
                     plan: MaskPlan | None = None) -> Tensor:
    """Mask corruption, layer norm, then rowwise affine feature_dim -> d_h,
    over the packed frames of a batch's turns.

    ``plan`` is the batch's mask plan over those frames, None to leave them
    clean.  Each masked frame is zeroed (ZERO), swapped for the plan's
    source frame (of the same turn) of the uncorrupted features (REPLACE)
    or kept (KEEP) before the layer norm.  One autodiff node; a plan over
    another number of frames than ``features`` has rows raises
    ``ShapeError``.
    """
    f = features.data
    corrupted = f
    if plan is not None:
        if plan.actions.shape != f.shape[:1]:
            raise ShapeError(f"mask plan over {plan.actions.size} frames for "
                             f"{f.shape[0]} feature rows")
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
            # donor gradients summed apart first: each row gets the same
            # float32 sum as from the composed mul/gather ops
            donors = np.zeros_like(dx)
            np.add.at(donors, sources, dx[replaced])
            dx[dropped] = 0.0
            dx += donors
        return dx, dgain, dbias, normed.T @ g, sum_rows(g)

    return record(out, (features, ln_gain, ln_bias, weight, bias), backward,
                  "project_features")


def assemble_speech_sequences(projected: Tensor, speech_frames: list,
                              cls_vec: Tensor, sep_vec: Tensor) -> Tensor:
    """Each sample's [CLS] f_prev [SEP] f_cur, packed back to back, from
    the packed frames of its turns, as (m_prev, m_cur) in ``speech_frames``;
    one node.  ``encoders.FusedBatch`` maps rows through this layout."""
    turns = np.asarray(speech_frames, dtype=np.intp).ravel()
    if turns.min() == 0:
        raise ValueError(
            f"both speech turns must be non-empty, got frame counts "
            f"{[tuple(pair) for pair in speech_frames]}")
    n, d = projected.shape
    # the row before each turn: CLS before a prev turn, SEP before a cur
    marks = np.cumsum(turns) - turns + np.arange(turns.size)
    cls_rows, sep_rows = marks[0::2], marks[1::2]
    frame_rows = np.ones(n + turns.size, dtype=bool)
    frame_rows[marks] = False
    data = np.empty((n + turns.size, d), projected.dtype)
    data[frame_rows] = projected.data
    data[cls_rows] = cls_vec.data
    data[sep_rows] = sep_vec.data

    def backward(g):
        return g[frame_rows], sum_rows(g[cls_rows]), sum_rows(g[sep_rows])

    return record(data, (projected, cls_vec, sep_vec), backward,
                  "assemble_speech_sequences")
