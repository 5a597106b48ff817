"""Dense tensors with reverse-mode automatic differentiation on numpy.

Sized for small transformer training on a CPU: every op materializes its
result eagerly, checks it for NaN/Inf and makes a graph node with
``record``.  A node's backward rule maps the output gradient to one
gradient per parent, in parent order, and touches no parent;
``Tensor.backward`` alone adds those gradients into the parents that
require one.  Shape rules are strict on purpose: ``add`` takes operands
of equal shape only, with no implicit broadcast.  The loss ops take the
rows of a whole batch and give each sample's mean loss over its own rows.

Layers that run as one node keep their arithmetic in plain-array
``*_forward``/``*_backward`` helpers: layer norm for the transformer
layer in ``encoders`` (whose attention softmax is written out inline);
the im2col convolution for the conv frontend in ``frontend`` and the
convolutional position embedding in ``encoders``; GELU for all of these
and for the ``gelu`` op.  Layer norm, softmax and conv1d have no op
here: the float64 references that the tests compose those layers from
define them.  Layer norm's row means, and every bias or gain gradient
that sums a gradient's rows (``sum_rows``), are BLAS matvecs against
constant vectors, which cost a fraction of numpy's ``sum`` over a short
axis.

GELU's forward returns its derivative with its output, so its backward
is one multiply.  A float32 input runs a float32 kernel built from
numpy's SIMD ufuncs (a tanh form of Phi, evaluated in L2-sized chunks);
a float64 input keeps scipy's ``erf``, which the gradient checks and the
float64 reference tests rely on.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

SQRT2 = float(np.sqrt(2.0))
INV_SQRT_2PI = float(1.0 / np.sqrt(2.0 * np.pi))


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible; names both shapes."""


class NonFiniteError(FloatingPointError):
    """Raised when an op produces NaN or Inf."""


def _check_finite(arr: np.ndarray, op: str) -> None:
    # any NaN/Inf propagates into the sum, so one reduction suffices
    # (an overflowing sum of huge finite values also trips this, loudly)
    with np.errstate(over="ignore", invalid="ignore"):
        if not math.isfinite(float(arr.sum())):
            raise NonFiniteError(f"{op} produced non-finite values")


class Tensor:
    """Immutable-by-convention dense array plus autodiff bookkeeping.

    ``data`` must never be mutated after the tensor is produced by an op;
    optimizers may rewrite leaf (Parameter) data in place between graphs.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad=False, _parents=(),
                 _backward=None):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        """The value of a one-element tensor."""
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"

    def backward(self) -> None:
        """Reverse-mode sweep from a scalar output."""
        if self.data.size != 1:
            raise ShapeError(
                f"backward() requires a scalar, got shape {self.data.shape}")
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is None:
                continue
            for parent, g in zip(node._parents, node._backward(node.grad),
                                 strict=True):
                if isinstance(parent, Parameter):
                    parent.grad += g
                elif parent.requires_grad:
                    parent.grad = g if parent.grad is None else parent.grad + g


class Parameter(Tensor):
    """Learnable leaf tensor with a persistent gradient buffer.

    ``Tensor.backward`` adds into ``grad`` in place and ``zero_grad``
    fills it, so an optimizer may own both arrays (see ``optim.AdamW``)."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad.fill(0)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


class Init:
    """Creates each parameter once, in ``registry``: a weight as ``scale *
    standard_normal(shape)`` drawn from ``rng`` in call order and cast to
    ``dtype``, a bias or gain as a constant that draws nothing; or, given
    a ``checkpoint`` (a ``layout`` of (name, shape) pairs over its flat
    ``params``), each as a view of its name's slice, drawing nothing."""

    def __init__(self, registry: dict, dtype=np.float32, rng=None,
                 scale: float = 0.02, checkpoint: dict | None = None):
        self.registry, self.dtype = registry, dtype
        self.rng, self.scale = rng, scale
        self._saved = None
        if checkpoint is not None:
            layout, params = checkpoint["layout"], checkpoint["params"]
            ends = np.cumsum([0] + [math.prod(s) for _, s in layout])
            self._saved = {name: (shape, params[lo:hi]) for (name, shape),
                           lo, hi in zip(layout, ends, ends[1:])}

    def normal(self, name: str, shape, scale=None) -> Parameter:
        scale = self.scale if scale is None else scale
        return self._create(name, shape, lambda s: (
            scale * self.rng.standard_normal(s)).astype(self.dtype))

    def zeros(self, name: str, shape) -> Parameter:
        return self._create(name, shape, lambda s: np.zeros(s, self.dtype))

    def ones(self, name: str, shape) -> Parameter:
        return self._create(name, shape, lambda s: np.ones(s, self.dtype))

    def _create(self, name: str, shape, draw) -> Parameter:
        if name in self.registry:
            raise ValueError(f"duplicate parameter name {name}")
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        if self._saved is None:
            value = draw(shape)
        elif name not in self._saved:
            raise ValueError(f"checkpoint is missing parameter {name}")
        else:
            saved, flat = self._saved[name]
            if saved != shape:
                raise ValueError(f"checkpoint parameter {name} has shape "
                                 f"{saved}, model expects {shape}")
            value = flat.reshape(shape)
        self.registry[name] = Parameter(value, name)
        return self.registry[name]

    def check_layout(self) -> None:
        """Raise unless the checkpoint lists the registry's parameters, and
        only them, in registry order."""
        if list(self._saved) != list(self.registry):
            raise ValueError("checkpoint holds parameters the model does not "
                             "build, or lists them in another order")


def record(data, parents, backward, op: str) -> Tensor:
    """The node for ``data``, the output of ``op`` on ``parents``.

    ``backward(g)`` takes the gradient of the output and returns one
    gradient per parent, in ``parents`` order, each of that parent's
    shape; ``Tensor.backward`` raises if the count differs.  Raises
    ``NonFiniteError`` if ``data`` holds NaN or Inf.
    """
    _check_finite(data, op)
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires,
                  _parents=tuple(parents) if requires else (),
                  _backward=backward if requires else None)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add: shapes {a.data.shape} and {b.data.shape} "
                         "differ")
    return record(a.data + b.data, (a, b), lambda g: (g, g), "add")


def scale(a: Tensor, c: float) -> Tensor:
    return record(a.data * c, (a,), lambda g: (g * c,), "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {sa} @ {sb}")
    if sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul leading dims differ: {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dims differ: {sa} @ {sb}")
    return record(a.data @ b.data, (a, b),
                  lambda g: (g @ np.swapaxes(b.data, -1, -2),
                             np.swapaxes(a.data, -1, -2) @ g), "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-d x [n, d] and w [d, k]; b broadcasts rowwise."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear bias {b.data.shape} != ({w.data.shape[1]},)")
    return record(x.data @ w.data + b.data, (x, w, b),
                  lambda g: (g @ w.data.T, x.data.T @ g, sum_rows(g)),
                  "linear")


def concat(tensors: list, axis: int = 0) -> Tensor:
    cuts = np.cumsum([t.data.shape[axis] for t in tensors])[:-1]
    return record(np.concatenate([t.data for t in tensors], axis=axis),
                  tuple(tensors), lambda g: np.split(g, cuts, axis=axis),
                  "concat")


def gather_rows(a: Tensor, indices) -> Tensor:
    """Select rows of a 2-d tensor by integer index list (with repeats)."""
    idx = np.asarray(indices, dtype=np.intp)
    if idx.ndim != 1:
        raise ShapeError(f"gather_rows wants 1-d indices, got {idx.shape}")
    if a.data.ndim < 1:
        raise ShapeError("gather_rows needs at least 1-d input")
    out_data = a.data[idx]

    def backward(g):
        buf = np.zeros_like(a.data)
        np.add.at(buf, idx, g)
        return (buf,)

    return record(out_data, (a,), backward, "gather_rows")


def sum_rows(m: np.ndarray) -> np.ndarray:
    """The sum of ``m`` over every axis but its last, as ``ones @ m``: one
    BLAS matvec, several times faster than ``m.sum(axis=0)`` on a
    layer's [rows, d] gradients."""
    rows = m.reshape(-1, m.shape[-1])
    return np.ones(rows.shape[0], m.dtype) @ rows


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5) -> tuple:
    """Layer norm of a plain array over its last axis.

    Returns the output and ``(xhat, inv)``, the normalized input and the
    reciprocal standard deviation that ``layer_norm_backward`` needs.  The
    mean and the variance are two-pass: the variance is the mean square of
    the centred rows, so a large common offset cancels before squaring.
    """
    # row means as matvecs against [1/d]: BLAS, not numpy's short-axis sum
    mean_w = np.full(x.shape[-1], 1.0 / x.shape[-1], x.dtype)
    xhat = x - (x @ mean_w)[..., None]
    inv = (1.0 / np.sqrt((xhat * xhat) @ mean_w + eps))[..., None]
    xhat *= inv
    out = xhat * gain
    out += bias
    return out, (xhat, inv)


def layer_norm_backward(g: np.ndarray, gain: np.ndarray, saved: tuple) -> tuple:
    """Gradients ``(dx, dgain, dbias)`` of layer norm for output gradient
    ``g``; ``saved`` is what ``layer_norm_forward`` returned with its output."""
    xhat, inv = saved
    mean_w = np.full(g.shape[-1], 1.0 / g.shape[-1], g.dtype)
    dxhat = g * gain
    dx = dxhat - (dxhat @ mean_w)[..., None]
    dx -= xhat * ((dxhat * xhat) @ mean_w)[..., None]
    dx *= inv
    return dx, sum_rows(g * xhat), sum_rows(g)


# float32 Phi(x) = 0.5 + 0.5 tanh(x P(min(x^2, 5.6^2))): P's coefficients,
# highest power first, fitted by reweighted least squares to
# atanh(erf(x / sqrt 2)) / x on [0, 5.6] (beyond 5.6, Phi rounds to 0 or 1)
_PHI_POLY = (1.7561730958348676e-09, -1.3226342332472996e-07,
             3.964745246776147e-06, -5.5306198191829026e-05,
             -3.259496588725597e-05, 0.03633308410644531,
             0.7978849411010742)
_PHI_CLAMP_SQ = 5.6 * 5.6
# elements per pass: a chunk's four float32 buffers (256 KB each) stay in
# a 2 MB L2
_CHUNK = 1 << 16


def _normal_cdf_f32(x: np.ndarray, x2: np.ndarray,
                    out: np.ndarray) -> np.ndarray:
    """Phi(x) of a float32 array into ``out``, given ``x2`` = x * x, which
    it clamps in place."""
    np.minimum(x2, _PHI_CLAMP_SQ, out=x2)
    np.multiply(x2, _PHI_POLY[0], out=out)
    for c in _PHI_POLY[1:-1]:
        out += c
        out *= x2
    out += _PHI_POLY[-1]
    out *= x
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5
    return out


def _gelu_f32(x: np.ndarray) -> tuple:
    """GELU and its derivative of a float32 array from numpy's float32
    ufuncs, chunk by chunk; each element's result depends on that element
    alone, so it does not depend on the chunking or the input's layout."""
    flat = np.ravel(x)
    out, deriv = np.empty_like(flat), np.empty_like(flat)
    x2_buf = np.empty(min(flat.size, _CHUNK), np.float32)
    for lo in range(0, flat.size, _CHUNK):
        xc = flat[lo:lo + _CHUNK]
        x2 = np.multiply(xc, xc, out=x2_buf[:xc.size])
        d = np.multiply(x2, -0.5, out=deriv[lo:lo + xc.size])
        np.exp(d, out=d)
        d *= xc
        d *= INV_SQRT_2PI
        phi = _normal_cdf_f32(xc, x2, out[lo:lo + xc.size])
        d += phi
        phi *= xc
    return out.reshape(x.shape), deriv.reshape(x.shape)


def gelu_forward(x: np.ndarray) -> tuple:
    """GELU x * Phi(x) of a plain array; returns it and its derivative
    Phi(x) + x * pdf(x).  float32 runs the chunked float32 kernel (Phi
    within 1.2e-7); other dtypes, float64 for the gradient checks among
    them, keep scipy's double-precision erf."""
    if x.dtype == np.float32:
        return _gelu_f32(x)
    phi = 0.5 * (1.0 + erf(x / SQRT2))
    return x * phi, phi + x * (INV_SQRT_2PI * np.exp(-0.5 * x * x))


def gelu_backward(g: np.ndarray, deriv: np.ndarray) -> np.ndarray:
    """Input gradient of GELU, given the derivative ``gelu_forward``
    returned."""
    return g * deriv


def gelu(x: Tensor) -> Tensor:
    """GELU x * Phi(x); GELU(0) == 0 identically."""
    out_data, deriv = gelu_forward(x.data)
    return record(out_data, (x,), lambda g: (gelu_backward(g, deriv),),
                  "gelu")


def conv1d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   starts: np.ndarray, groups: int = 1) -> tuple:
    """1-d convolution over the rows of a plain [T, C_in] array, one output
    row per window start.

    ``weight`` is [C_out, C_in/groups, K] and ``bias`` [C_out]; output row i
    is the window of the K input rows from ``starts[i]``, so one call runs
    over several sequences packed in ``x`` when no window crosses from one
    into the next (pad with zero rows for 'same' geometry).  im2col: the
    windows of each group become the rows of one [T_out, K * C_in/groups]
    column matrix, so each group is one matmul.  Returns the [T_out, C_out]
    output and what ``conv1d_backward`` needs.
    """
    length, c_in = x.shape
    c_out, c_in_g, kernel = weight.shape
    if c_in % groups or c_out % groups or c_in_g != c_in // groups:
        raise ShapeError(
            f"conv1d groups={groups}: weight {weight.shape} does not "
            f"match input channels {c_in}")
    out_len = len(starts)
    # [G, T, C_in/G] view, gathered to [G, T_out, K, C_in/G] windows
    cols = x.reshape(length, groups, c_in_g).transpose(1, 0, 2)[
        :, starts[:, None] + np.arange(kernel)] \
        .reshape(groups, out_len, kernel * c_in_g)
    # [G, K * C_in/G, C_out/G], tap-major like the columns
    w_cols = weight.reshape(groups, c_out // groups, c_in_g, kernel) \
        .transpose(0, 3, 2, 1).reshape(groups, kernel * c_in_g, -1)
    out = (cols @ w_cols).transpose(1, 0, 2).reshape(out_len, c_out) + bias
    return out, (cols, w_cols, weight.shape, length, starts)


def conv1d_backward(g: np.ndarray, saved: tuple,
                    input_grad: bool = True) -> tuple:
    """Gradients ``(dx, dweight, dbias)`` of ``conv1d_forward`` for output
    gradient ``g``; ``dx`` is None unless ``input_grad``.

    The input gradient is col2im: one row scatter-add per kernel tap, taps
    in reverse, which adds each input row's terms in the same order as
    ``np.add.at`` over the window index would.  The windows of one tap
    start at distinct rows, so each scatter-add is a plain ``+=``.
    """
    cols, w_cols, w_shape, length, starts = saved
    c_out, c_in_g, kernel = w_shape
    groups, out_len, _ = cols.shape
    gg = g.reshape(out_len, groups, c_out // groups).transpose(1, 0, 2)
    dw = (cols.transpose(0, 2, 1) @ gg) \
        .reshape(groups, kernel, c_in_g, -1).transpose(0, 3, 2, 1) \
        .reshape(w_shape)
    db = sum_rows(g)
    if not input_grad:
        return None, dw, db
    # [K, T_out, G, C_in/G]: tap k's share of every window
    dcols = (gg @ w_cols.transpose(0, 2, 1)) \
        .reshape(groups, out_len, kernel, c_in_g).transpose(2, 1, 0, 3)
    dx = np.zeros((length, groups, c_in_g), dtype=dcols.dtype)
    for k in reversed(range(kernel)):
        dx[starts + k] += dcols[k]
    return dx.reshape(length, groups * c_in_g), dw, db


def _sample_means(pred: Tensor, row_loss: np.ndarray, row_grad: np.ndarray,
                  sample, b: int, op: str) -> Tensor:
    """The [b] node of each sample's mean of ``row_loss``, one loss per row
    of ``pred``, over the rows that ``sample`` gives it; a sample with no
    rows gets 0.  ``row_grad`` is each row loss's gradient in its row."""
    sample = np.asarray(sample, dtype=np.intp)
    n = pred.data.shape[0]
    if sample.shape != (n,) or np.any((sample < 0) | (sample >= b)):
        raise ShapeError(f"{op}: sample indices {sample.shape} for {n} rows "
                         f"of {b} samples")
    count = np.maximum(np.bincount(sample, minlength=b), 1)
    out = np.bincount(sample, weights=row_loss, minlength=b) / count
    weight = (1.0 / count)[sample, None].astype(pred.dtype)
    return record(out.astype(pred.dtype), (pred,),
                  lambda g: (g[sample, None] * weight * row_grad,), op)


def cross_entropy(logits: Tensor, targets, sample, b: int) -> Tensor:
    """Each of ``b`` samples' mean cross-entropy over its rows of [n, C]
    logits against integer targets [n] in [0, C); row i belongs to
    ``sample[i]``.  A target outside [0, C) raises ``ValueError``."""
    t = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or t.ndim != 1 or t.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.data.shape} vs targets {t.shape}")
    classes = logits.data.shape[1]
    outside = (t < 0) | (t >= classes)
    if outside.any():
        raise ValueError(f"cross_entropy: target {t[outside][0]} outside "
                         f"[0, {classes})")
    rows = np.arange(t.shape[0])
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    p = np.exp(z - lse[:, None])
    p[rows, t] -= 1.0
    return _sample_means(logits, lse - z[rows, t], p, sample, b,
                         "cross_entropy")


def _as_const_array(target, like: np.ndarray) -> np.ndarray:
    arr = np.asarray(target)
    if arr.shape != like.shape:
        raise ShapeError(f"target shape {arr.shape} != prediction {like.shape}")
    return arr.astype(like.dtype, copy=False)


def mse(pred: Tensor, target, sample, b: int) -> Tensor:
    """Each of ``b`` samples' mean squared error over its rows of [n, k]
    ``pred`` against a constant target; row i belongs to ``sample[i]``."""
    diff = pred.data - _as_const_array(target, pred.data)
    k = diff.shape[1]
    return _sample_means(pred, (diff * diff).mean(axis=1), (2.0 / k) * diff,
                         sample, b, "mse")


def mae(pred: Tensor, target, sample, b: int) -> Tensor:
    """Each of ``b`` samples' mean absolute error over its rows of [n, k]
    ``pred`` against a constant target (sign subgradient); row i belongs to
    ``sample[i]``."""
    diff = pred.data - _as_const_array(target, pred.data)
    k = diff.shape[1]
    return _sample_means(pred, np.abs(diff).mean(axis=1), np.sign(diff) / k,
                         sample, b, "mae")


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.data.shape
    return record(np.asarray(a.data.sum(), dtype=a.data.dtype), (a,),
                  lambda g: (np.broadcast_to(g, shape).copy(),), "sum")
