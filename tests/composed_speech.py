"""The speech input path composed from autodiff primitives.

The references that the four single-node stages of the speech path are
checked against (``assert_node_matches_reference``):
``frontend.extract_features`` (strided convs, GELU, layer norm),
``frontend.project_features`` (mask corruption, layer norm, linear),
``frontend.assemble_speech_sequences`` ([CLS] prev [SEP] cur) and
``encoders.conv_position_embedding`` (grouped same-padding conv, GELU,
residual).  The nodes run once over the packed rows of a whole batch;
each reference runs per waveform, turn or sequence and concatenates the
results.  ``conv1d`` builds its columns by fancy indexing and its input
gradient with ``np.add.at``, and ``apply_mask_plan`` corrupts with masks
and a row gather, so neither shares code with the im2col helpers or the
corruption inside the nodes.  ``mul``, which only these references and
the tests use, is defined here as an autodiff op.
"""

import numpy as np

from composed_layer import layer_norm, reshape
from stdialog import autodiff as ad
from stdialog import masking as mk


def mul(a, b):
    """Elementwise product of equal shapes as an autodiff op (the library
    itself needs none)."""
    if a.shape != b.shape:
        raise ad.ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return ad.record(a.data * b.data, (a, b),
                     lambda g: (g * b.data, g * a.data), "mul")


def split_rows(x, lengths):
    """The consecutive row blocks of ``lengths`` rows of ``x``, as
    autodiff row gathers."""
    ends = np.cumsum(lengths)
    return [ad.gather_rows(x, np.arange(end - n, end))
            for end, n in zip(ends, lengths)]


def _conv_geometry(length: int, kernel: int, stride: int, padding: str):
    if padding == "valid":
        if length < kernel:
            raise ad.ShapeError(
                f"conv1d input length {length} below kernel {kernel} "
                f"(minimum length {kernel})")
        return (length - kernel) // stride + 1, 0, 0
    if padding == "same":
        out_len = -(-length // stride)
        total = max(0, (out_len - 1) * stride + kernel - length)
        left = total // 2
        return out_len, left, total - left
    raise ValueError(f"conv1d padding must be 'valid' or 'same', got {padding!r}")


def conv1d(x, weight, bias, stride=1, padding="valid", groups=1):
    """1-d convolution over rows: x [T, C_in] -> [T_out, C_out].

    weight is [C_out, C_in/groups, K] and bias [C_out].  Explicit
    'valid'/'same' padding only, so output-length arithmetic stays
    auditable.
    """
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ad.ShapeError(
            f"conv1d: x must be [T, C_in] and weight [C_out, C_in/g, K], "
            f"got {x.data.shape} and {weight.data.shape}")
    length, c_in = x.data.shape
    c_out, c_in_g, kernel = weight.data.shape
    if c_in % groups or c_out % groups or c_in_g != c_in // groups:
        raise ad.ShapeError(
            f"conv1d groups={groups}: weight {weight.data.shape} does not "
            f"match input channels {c_in}")
    out_len, pad_l, pad_r = _conv_geometry(length, kernel, stride, padding)
    xp = np.pad(x.data, ((pad_l, pad_r), (0, 0))) if pad_l or pad_r else x.data
    idx = np.arange(out_len)[:, None] * stride + np.arange(kernel)[None, :]
    cols = xp[idx]                                # [T_out, K, C_in]
    c_out_g = c_out // groups
    outs = []
    flats = []
    for gi in range(groups):
        cg = cols[:, :, gi * c_in_g:(gi + 1) * c_in_g].reshape(out_len, -1)
        wg = weight.data[gi * c_out_g:(gi + 1) * c_out_g] \
            .transpose(0, 2, 1).reshape(c_out_g, -1)
        flats.append((cg, wg))
        outs.append(cg @ wg.T)
    out_data = np.concatenate(outs, axis=1) + bias.data

    def backward(g):
        dxp = np.zeros_like(xp)
        dw = np.zeros_like(weight.data)
        for gi in range(groups):
            gg = g[:, gi * c_out_g:(gi + 1) * c_out_g]
            cg, wg = flats[gi]
            dwg = gg.T @ cg
            dw[gi * c_out_g:(gi + 1) * c_out_g] = \
                dwg.reshape(c_out_g, kernel, c_in_g).transpose(0, 2, 1)
            dcols = (gg @ wg).reshape(out_len, kernel, c_in_g)
            np.add.at(dxp[:, gi * c_in_g:(gi + 1) * c_in_g], idx, dcols)
        dx = dxp[pad_l:pad_l + length] if (pad_l or pad_r) else dxp
        return dx, dw, g.sum(axis=0)

    return ad.record(out_data, (x, weight, bias), backward, "conv1d")


def apply_mask_plan(features, plan):
    """Differentiable corruption: zero / swap-in-random-frame / keep."""
    if features.shape[0] != plan.mask.size:
        raise ValueError(
            f"plan of {plan.mask.size} frames for {features.shape[0]} rows")
    if not plan.mask.any():
        return features
    dim = features.shape[1]
    keep_rows = (plan.actions != mk.ZERO) & (plan.actions != mk.REPLACE)
    keep_mask = np.repeat(keep_rows.astype(features.dtype)[:, None], dim, axis=1)
    out = mul(features, ad.Tensor(keep_mask))
    replace_rows = plan.actions == mk.REPLACE
    if replace_rows.any():
        src = np.where(replace_rows, plan.replacement_sources, 0)
        donor = ad.gather_rows(features, src)
        sel = np.repeat(replace_rows.astype(features.dtype)[:, None], dim, axis=1)
        out = ad.add(out, mul(donor, ad.Tensor(sel)))
    return out


def composed_extract_features(waveforms, config, conv_params, ln_gain,
                              ln_bias):
    """Each waveform's frames on its own, concatenated."""
    feats = []
    for waveform in waveforms:
        x = ad.Tensor(np.asarray(waveform)[:, None])
        for spec, (w, b) in zip(config.layers, conv_params):
            x = ad.gelu(conv1d(x, w, b, stride=spec.stride, padding="valid"))
        feats.append(layer_norm(x, ln_gain, ln_bias))
    return ad.concat(feats)


def turn_plan(plan, first, m):
    """Rows [first, first + m) of a packed mask plan as a plan of their
    own, its replacement sources counted from ``first``."""
    rows = slice(first, first + m)
    sources = plan.replacement_sources[rows]
    return mk.MaskPlan(plan.mask[rows], plan.actions[rows],
                       np.where(sources >= 0, sources - first, -1))


def composed_project_features(features, ln_gain, ln_bias, weight, bias,
                              lengths, plan=None):
    """Each turn's rows corrupted by its own rows of the packed ``plan``,
    then layer norm and the affine map."""
    turns = split_rows(features, lengths)
    if plan is not None:
        turns = [apply_mask_plan(t, turn_plan(plan, first, m))
                 for t, first, m in zip(turns, np.cumsum(lengths) - lengths,
                                        lengths)]
    return ad.linear(layer_norm(ad.concat(turns), ln_gain, ln_bias), weight,
                     bias)


def composed_assemble_speech_sequences(projected, speech_frames, cls_vec,
                                       sep_vec):
    """Each sample's [CLS] f_prev [SEP] f_cur by reshapes and a concat."""
    d = projected.shape[1]
    turns = split_rows(projected, [m for pair in speech_frames for m in pair])
    rows = []
    for f_prev, f_cur in zip(turns[0::2], turns[1::2]):
        rows += [reshape(cls_vec, (1, d)), f_prev, reshape(sep_vec, (1, d)),
                 f_cur]
    return ad.concat(rows)


def composed_conv_position_embedding(x, w, b, groups, lengths):
    """Each sequence's embedding on its own, concatenated."""
    return ad.concat([
        ad.add(s, ad.gelu(conv1d(s, w, b, stride=1, padding="same",
                                 groups=groups)))
        for s in split_rows(x, lengths)])


def output_and_grads(build, params, seed=0):
    """Output of ``build()`` and every parameter's gradient under a fixed
    random projection of that output."""
    for p in params:
        p.zero_grad()
    out = build()
    proj = ad.Tensor(np.random.default_rng(seed).standard_normal(out.shape))
    ad.reduce_sum(mul(out, proj)).backward()
    return out.data, [p.grad.copy() for p in params]


def assert_node_matches_reference(node, reference, params):
    """``node()`` and ``reference()`` agree on the output and on every
    parameter gradient to 1e-10 relative (float64)."""
    out, grads = output_and_grads(node, params)
    ref_out, ref_grads = output_and_grads(reference, params)
    np.testing.assert_allclose(out, ref_out, rtol=1e-10, atol=1e-14)
    for p, grad, ref in zip(params, grads, ref_grads):
        np.testing.assert_allclose(grad, ref, rtol=1e-10, atol=1e-14,
                                   err_msg=p.name)
