"""A transformer layer composed from autodiff primitives.

This is the reference that ``encoders.transformer_layer``, which runs the
whole layer as one autodiff node with a hand-written backward, is checked
against: same parameters and the same function, but every step is its
own op and every gradient comes from the primitives' backward rules.
Its softmax normalises the exps before the context matmul and takes the
backward's row term over the keys, so it shares no arithmetic with the
fused layer's unnormalised exps and ``dctx . ctx`` row term.  The ops
that the library runs only inside such nodes (``reshape``, ``transpose``,
``softmax``, ``layer_norm``) are defined here as standalone autodiff ops.
"""

import numpy as np

from stdialog import autodiff as ad


def reshape(a, shape):
    """Reshape as an autodiff op (the library itself needs none)."""
    old = a.shape
    return ad.record(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),),
                     "reshape")


def transpose(a, axes):
    """Axis permutation as an autodiff op (the library itself needs none)."""
    inv = tuple(int(i) for i in np.argsort(axes))
    return ad.record(a.data.transpose(axes), (a,),
                     lambda g: (g.transpose(inv),), "transpose")


def softmax_forward(z):
    """Softmax over the last axis of a plain array, normalised exps."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(g, y):
    """Input gradient of softmax output ``y`` for output gradient ``g``,
    through the row term ``(g * y).sum(-1)`` over the keys."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def softmax(x):
    """Softmax over the last axis as an autodiff op (the library runs it
    only inside the fused layer, on unnormalised exps)."""
    y = softmax_forward(x.data)
    return ad.record(y, (x,), lambda g: (softmax_backward(g, y),), "softmax")


def layer_norm(x, gain, bias, eps=1e-5):
    """Normalize the last axis to zero mean / unit variance, then affine,
    as an autodiff op (the library runs it only inside fused nodes).

    eps=1e-5 is added to the variance before the square root, so a
    constant row maps to exactly the bias (the normalized row is 0).
    """
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ad.ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} "
            f"must be ({d},)")
    out_data, saved = ad.layer_norm_forward(x.data, gain.data, bias.data, eps)
    return ad.record(out_data, (x, gain, bias),
                     lambda g: ad.layer_norm_backward(g, gain.data, saved),
                     "layer_norm")


def composed_transformer_layer(x, p, num_heads):
    n, d = x.shape
    dk = d // num_heads

    def split_heads(t):
        return transpose(reshape(t, (n, num_heads, dk)), (1, 0, 2))

    a = layer_norm(x, p.ln1_gain, p.ln1_bias)
    q = split_heads(ad.linear(a, p.wq, p.bq))
    k = split_heads(ad.linear(a, p.wk, p.bk))
    v = split_heads(ad.linear(a, p.wv, p.bv))
    scores = ad.scale(ad.matmul(q, transpose(k, (0, 2, 1))),
                      float(1.0 / np.sqrt(dk)))
    attn = softmax(scores)
    merged = reshape(transpose(ad.matmul(attn, v), (1, 0, 2)), (n, d))
    h = ad.add(x, ad.linear(merged, p.wo, p.bo))
    ff = ad.linear(ad.gelu(ad.linear(layer_norm(h, p.ln2_gain, p.ln2_bias),
                                     p.ff1_w, p.ff1_b)), p.ff2_w, p.ff2_b)
    return ad.add(h, ff)
