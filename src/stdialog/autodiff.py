"""Dense tensors with reverse-mode automatic differentiation on numpy.

Sized for small transformer training on a CPU: every op materializes its
result eagerly, records a backward closure, and checks the output for
NaN/Inf.  Shape rules are strict on purpose; the only implicit broadcast
allowed is a trailing-suffix operand against leading batch axes
(e.g. adding a [d] bias to an [n, d] activation).

The layer-norm and GELU arithmetic lives in plain-array
``*_forward``/``*_backward`` helpers, shared by those ops and by the
single-node transformer layer in ``encoders``; the softmax helpers serve
only that layer.
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
    optimizers may rewrite leaf (Parameter) data between graphs.
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
        return float(self.data)

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
            if node._backward is not None:
                node._backward(node.grad)


class Parameter(Tensor):
    """Learnable leaf tensor with a persistent gradient buffer."""

    __slots__ = ("name",)

    def __init__(self, value, name: str):
        super().__init__(value, requires_grad=True)
        self.name = name
        self.grad = np.zeros_like(self.data)

    def zero_grad(self) -> None:
        self.grad = np.zeros_like(self.data)

    def __repr__(self):
        return f"Parameter({self.name}, shape={self.data.shape})"


def register(registry: dict, name: str, array: np.ndarray) -> Parameter:
    """Create the parameter ``name`` and add it to ``registry``."""
    if name in registry:
        raise ValueError(f"duplicate parameter name {name}")
    p = Parameter(array, name)
    registry[name] = p
    return p


def _accum(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _result(data, parents, backward, op):
    _check_finite(data, op)
    requires = any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=requires,
                  _parents=tuple(parents) if requires else (),
                  _backward=backward if requires else None)


def _suffix_reduce(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Collapse leading broadcast axes of ``g`` down to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    return g.sum(axis=tuple(range(extra)))


def _check_elementwise(a: Tensor, b: Tensor, op: str) -> None:
    sa, sb = a.data.shape, b.data.shape
    if sa == sb:
        return
    if len(sb) < len(sa) and sa[len(sa) - len(sb):] == sb:
        return
    raise ShapeError(f"{op}: shape {sa} does not accept operand {sb} "
                     "(only trailing-suffix broadcast is allowed)")


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "add")
    out_data = a.data + b.data

    def backward(g):
        _accum(a, g)
        _accum(b, _suffix_reduce(g, b.data.shape))

    return _result(out_data, (a, b), backward, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "sub")
    out_data = a.data - b.data

    def backward(g):
        _accum(a, g)
        _accum(b, -_suffix_reduce(g, b.data.shape))

    return _result(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_elementwise(a, b, "mul")
    out_data = a.data * b.data

    def backward(g):
        _accum(a, g * b.data)
        _accum(b, _suffix_reduce(g * a.data, b.data.shape))

    return _result(out_data, (a, b), backward, "mul")


def scale(a: Tensor, c: float) -> Tensor:
    def backward(g):
        _accum(a, g * c)

    return _result(a.data * c, (a,), backward, "scale")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    sa, sb = a.data.shape, b.data.shape
    if len(sa) < 2 or len(sb) < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {sa} @ {sb}")
    if sa[:-2] != sb[:-2]:
        raise ShapeError(f"matmul leading dims differ: {sa} @ {sb}")
    if sa[-1] != sb[-2]:
        raise ShapeError(f"matmul inner dims differ: {sa} @ {sb}")
    out_data = a.data @ b.data

    def backward(g):
        _accum(a, g @ np.swapaxes(b.data, -1, -2))
        _accum(b, np.swapaxes(a.data, -1, -2) @ g)

    return _result(out_data, (a, b), backward, "matmul")


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Fused x @ w + b for 2-d x [n, d] and w [d, k]; b broadcasts rowwise."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: {x.data.shape} @ {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"linear bias {b.data.shape} != ({w.data.shape[1]},)")
    out_data = x.data @ w.data + b.data

    def backward(g):
        _accum(x, g @ w.data.T)
        _accum(w, x.data.T @ g)
        _accum(b, g.sum(axis=0))

    return _result(out_data, (x, w, b), backward, "linear")


def reshape(a: Tensor, shape: tuple) -> Tensor:
    old = a.data.shape

    def backward(g):
        _accum(a, g.reshape(old))

    return _result(a.data.reshape(shape), (a,), backward, "reshape")


def concat(tensors: list, axis: int = 0) -> Tensor:
    sizes = [t.data.shape[axis] for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accum(t, g[tuple(sl)])

    return _result(out_data, tuple(tensors), backward, "concat")


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
        _accum(a, buf)

    return _result(out_data, (a,), backward, "gather_rows")


def softmax_forward(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of a plain array."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Input gradient of softmax output ``y`` for output gradient ``g``."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def layer_norm_forward(x: np.ndarray, gain: np.ndarray, bias: np.ndarray,
                       eps: float = 1e-5) -> tuple:
    """Layer norm of a plain array over its last axis.

    Returns the output and ``(xhat, inv)``, the normalized input and the
    reciprocal standard deviation that ``layer_norm_backward`` needs.
    """
    d = x.shape[-1]   # sum / d: the same values as mean(), with less overhead
    xc = x - x.sum(axis=-1, keepdims=True) / d
    var = (xc * xc).sum(axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    return xhat * gain + bias, (xhat, inv)


def layer_norm_backward(g: np.ndarray, gain: np.ndarray, saved: tuple) -> tuple:
    """Gradients ``(dx, dgain, dbias)`` of layer norm for output gradient
    ``g``; ``saved`` is what ``layer_norm_forward`` returned with its output."""
    xhat, inv = saved
    reduce_axes = tuple(range(g.ndim - 1))
    d = g.shape[-1]
    dxhat = g * gain
    term = dxhat - dxhat.sum(axis=-1, keepdims=True) / d \
        - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / d)
    return (inv * term, (g * xhat).sum(axis=reduce_axes),
            g.sum(axis=reduce_axes))


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor,
               eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    eps=1e-5 is added to the variance before the square root, so a
    constant row maps to exactly the bias (the normalized row is 0).
    """
    d = x.data.shape[-1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain {gain.data.shape} / bias {bias.data.shape} "
            f"must be ({d},)")
    out_data, saved = layer_norm_forward(x.data, gain.data, bias.data, eps)

    def backward(g):
        dx, dgain, dbias = layer_norm_backward(g, gain.data, saved)
        _accum(gain, dgain)
        _accum(bias, dbias)
        _accum(x, dx)

    return _result(out_data, (x, gain, bias), backward, "layer_norm")


def gelu_forward(x: np.ndarray) -> tuple:
    """Exact GELU x * Phi(x) of a plain array; returns it and Phi(x)."""
    phi = 0.5 * (1.0 + erf(x / SQRT2))
    return x * phi, phi


def gelu_backward(g: np.ndarray, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Input gradient of GELU at ``x`` (with ``phi`` = Phi(x))."""
    return g * (phi + x * (INV_SQRT_2PI * np.exp(-0.5 * x * x)))


def gelu(x: Tensor) -> Tensor:
    """Exact GELU x * Phi(x) via erf; GELU(0) == 0 identically."""
    out_data, phi = gelu_forward(x.data)

    def backward(g):
        _accum(x, gelu_backward(g, x.data, phi))

    return _result(out_data, (x,), backward, "gelu")


def _conv_geometry(length: int, kernel: int, stride: int, padding: str):
    if padding == "valid":
        if length < kernel:
            raise ShapeError(
                f"conv1d input length {length} below kernel {kernel} "
                f"(minimum length {kernel})")
        return (length - kernel) // stride + 1, 0, 0
    if padding == "same":
        out_len = -(-length // stride)
        total = max(0, (out_len - 1) * stride + kernel - length)
        left = total // 2
        return out_len, left, total - left
    raise ValueError(f"conv1d padding must be 'valid' or 'same', got {padding!r}")


def conv1d(x: Tensor, weight: Tensor, bias: Tensor, stride: int = 1,
           padding: str = "valid", groups: int = 1) -> Tensor:
    """1-d convolution over rows: x [T, C_in] -> [T_out, C_out].

    weight is [C_out, C_in/groups, K] and bias [C_out].  Explicit
    'valid'/'same' padding only, so output-length arithmetic stays
    auditable.
    """
    if x.data.ndim != 2 or weight.data.ndim != 3:
        raise ShapeError(
            f"conv1d: x must be [T, C_in] and weight [C_out, C_in/g, K], "
            f"got {x.data.shape} and {weight.data.shape}")
    length, c_in = x.data.shape
    c_out, c_in_g, kernel = weight.data.shape
    if c_in % groups or c_out % groups or c_in_g != c_in // groups:
        raise ShapeError(
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
        _accum(weight, dw)
        _accum(bias, g.sum(axis=0))
        dx = dxp[pad_l:pad_l + length] if (pad_l or pad_r) else dxp
        _accum(x, dx)

    return _result(out_data, (x, weight, bias), backward, "conv1d")


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean cross-entropy of [n, C] logits against integer targets [n]."""
    t = np.asarray(targets, dtype=np.intp)
    if logits.data.ndim != 2 or t.ndim != 1 or t.shape[0] != logits.data.shape[0]:
        raise ShapeError(
            f"cross_entropy: logits {logits.data.shape} vs targets {t.shape}")
    n = logits.data.shape[0]
    z = logits.data - logits.data.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    picked = z[np.arange(n), t]
    out_data = np.asarray((lse - picked).mean(), dtype=logits.data.dtype)

    def backward(g):
        p = np.exp(z - lse[:, None])
        p[np.arange(n), t] -= 1.0
        _accum(logits, p * (g / n))

    return _result(out_data, (logits,), backward, "cross_entropy")


def _as_const_array(target, like: np.ndarray) -> np.ndarray:
    arr = target.data if isinstance(target, Tensor) else np.asarray(target)
    if arr.shape != like.shape:
        raise ShapeError(f"target shape {arr.shape} != prediction {like.shape}")
    return arr.astype(like.dtype, copy=False)


def mse(pred: Tensor, target) -> Tensor:
    """Mean squared error against a constant target."""
    t = _as_const_array(target, pred.data)
    diff = pred.data - t
    out_data = np.asarray((diff * diff).mean(), dtype=pred.data.dtype)
    n = diff.size

    def backward(g):
        _accum(pred, (2.0 / n) * diff * g)

    return _result(out_data, (pred,), backward, "mse")


def mae(pred: Tensor, target) -> Tensor:
    """Mean absolute error against a constant target (sign subgradient)."""
    t = _as_const_array(target, pred.data)
    diff = pred.data - t
    out_data = np.asarray(np.abs(diff).mean(), dtype=pred.data.dtype)
    n = diff.size

    def backward(g):
        _accum(pred, np.sign(diff) * (g / n))

    return _result(out_data, (pred,), backward, "mae")


def reduce_sum(a: Tensor) -> Tensor:
    shape = a.data.shape

    def backward(g):
        _accum(a, np.broadcast_to(g, shape).copy())

    return _result(np.asarray(a.data.sum(), dtype=a.data.dtype),
                   (a,), backward, "sum")
