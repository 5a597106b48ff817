"""Convolutional feature extractor, projection, and two-turn assembly.

The extractor is a stack of strided 1-d convolutions, each followed by a
GELU (valid padding only, so frame counts follow the closed-form length
arithmetic exposed here), then a single layer normalization over the
feature dimension.  Projection is layer norm plus an affine map to the
model width.  The two-turn sequence is [CLS] f_prev [SEP] f_cur with
learned CLS/SEP rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .autodiff import (ShapeError, Tensor, concat, conv1d, gelu,
                       layer_norm, linear, reshape)


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

    ``conv_params`` is one (weight, bias) pair per configured layer.
    """
    if len(conv_params) != len(config.layers):
        raise ShapeError(
            f"{len(conv_params)} conv parameter pairs for "
            f"{len(config.layers)} configured layers")
    wav = waveform if isinstance(waveform, Tensor) else Tensor(waveform)
    n = wav.shape[0]
    config.output_length(n)  # raises with the minimum length if too short
    x = reshape(wav, (n, 1))
    for spec, (w, b) in zip(config.layers, conv_params):
        x = gelu(conv1d(x, w, b, stride=spec.stride, padding="valid"))
    return layer_norm(x, ln_gain, ln_bias, eps=config.ln_eps)


def project_features(features: Tensor, ln_gain, ln_bias, weight, bias,
                     eps: float = 1e-5) -> Tensor:
    """Layer norm then rowwise affine map feature_dim -> d_h."""
    normed = layer_norm(features, ln_gain, ln_bias, eps=eps)
    return linear(normed, weight, bias)


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
