"""Dense tensors with reverse-mode automatic differentiation.

Every differentiable operation records its inputs and an adjoint closure on
the result tensor; ``Tensor.backward`` replays those closures in reverse
topological order and frees the graph as it goes. Arrays are plain numpy,
float32 by default; verification runs use float64 (``dtype="float64"`` at the
leaves propagates through).
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_DTYPE = np.float32
_BN_EPS = 1e-5  # BatchNorm: added to every variance before the inverse square root
FLOAT_DTYPES = ("float32", "float64")


def check_float_dtype(dtype) -> str:
    """The name of ``dtype``; ValueError unless it is one the library computes in."""
    try:
        name = np.dtype(dtype).name
    except TypeError:
        name = None
    if name not in FLOAT_DTYPES:
        raise ValueError(f"dtype must be one of {FLOAT_DTYPES}, got {dtype!r}")
    return name


# Off inside ``no_grad()``: ops then record no parents and no adjoint closure,
# so eval-only forwards build no graph and free each input once it is used.
_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Block in which op results never require gradients (nests; restores on exit)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class GraphError(ValueError):
    """Raised for backward() misuse: non-scalar loss, detached graph, or a graph that
    an earlier backward() released (it frees non-leaves as it goes; leaves keep grad)."""


def _as_array(data, dtype=None) -> np.ndarray:
    if dtype is not None:
        return np.asarray(data, dtype=dtype)
    if isinstance(data, np.ndarray) and data.dtype in (np.float32, np.float64):
        return data
    return np.asarray(data, dtype=DEFAULT_DTYPE)


class Tensor:
    """N-dimensional real array plus the recorded operation that produced it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_op")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = _as_array(data, dtype)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None
        self._op = "leaf"

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, op={self._op})"

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    # -- graph construction ------------------------------------------------

    @staticmethod
    def from_op(data: np.ndarray, parents, backward_fn, op: str = "op") -> "Tensor":
        """Wrap an op result, recording parents and the adjoint closure.

        ``backward_fn(grad)`` must accumulate into each requiring parent via
        ``accumulate_grad``. The closure is dropped when no parent needs it or
        inside ``no_grad()``.
        """
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out.requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = backward_fn if out.requires_grad else None
        out._op = op
        return out

    def backward(self) -> None:
        """Accumulate d(self)/d(leaf) into each leaf's ``grad``, freeing the graph as it goes.

        Each non-leaf drops its closure, parents and ``grad`` once its adjoint has
        run; leaves keep ``grad`` and every node keeps ``data``. A second backward
        through a released node raises ``GraphError``.
        """
        if self.data.size != 1:
            raise GraphError("backward() expects a scalar loss tensor")
        if not self.requires_grad:
            raise GraphError("loss is detached: no leaf in its graph requires gradients")
        order = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            if node._backward is None and node._op != "leaf":
                raise GraphError("graph already released by an earlier backward()")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        while order:
            node = order.pop()
            if node._backward is not None:
                node._backward(node.grad)
                node._backward, node._parents, node.grad = None, (), None

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_lift(other, self.dtype), self)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return mul(self, other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return scale(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def accumulate_grad(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        # The first gradient is stored as a copy in t's layout and dtype.
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _lift(x, dtype) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=dtype))


def _unbroadcast(grad: np.ndarray, shape) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# -- elementwise ----------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    out_data = a.data + b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g, a.data.shape))
        accumulate_grad(b, _unbroadcast(g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, "add")


def sub(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    out_data = a.data - b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g, a.data.shape))
        accumulate_grad(b, _unbroadcast(-g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, "sub")


def mul(a: Tensor, b) -> Tensor:
    b = _lift(b, a.dtype)
    out_data = a.data * b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g * b.data, a.data.shape))
        accumulate_grad(b, _unbroadcast(g * a.data, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, "mul")


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out_data = a.data * s

    def backward(g):
        accumulate_grad(a, g * s)

    return Tensor.from_op(out_data, (a,), backward, "scale")


def relu(a: Tensor) -> Tensor:
    out_data = np.maximum(a.data, 0)

    def backward(g):
        accumulate_grad(a, g * (a.data > 0))

    return Tensor.from_op(out_data, (a,), backward, "relu")


# -- shape manipulation ----------------------------------------------------


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out_data = a.data.reshape(shape)

    def backward(g):
        accumulate_grad(a, g.reshape(a.data.shape))

    return Tensor.from_op(out_data, (a,), backward, "reshape")


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = np.ascontiguousarray(a.data.transpose(axes))

    def backward(g):
        accumulate_grad(a, g.transpose(inverse))

    return Tensor.from_op(out_data, (a,), backward, "transpose")


def flip_spatial(a: Tensor) -> Tensor:
    """Reverse the last two axes."""
    out_data = a.data[..., ::-1, ::-1].copy()

    def backward(g):
        accumulate_grad(a, g[..., ::-1, ::-1])

    return Tensor.from_op(out_data, (a,), backward, "flip_spatial")


def rot90_spatial(a: Tensor, quarter_turns: int) -> Tensor:
    """Exact counter-clockwise quarter turns of the last two axes."""
    q = int(quarter_turns) % 4
    if a.data.shape[-1] != a.data.shape[-2]:
        raise ValueError("rot90_spatial needs square spatial extent, got "
                         f"{a.data.shape[-2]}x{a.data.shape[-1]}")
    out_data = np.ascontiguousarray(np.rot90(a.data, q, axes=(-2, -1)))

    def backward(g):
        accumulate_grad(a, np.rot90(g, -q, axes=(-2, -1)))

    return Tensor.from_op(out_data, (a,), backward, "rot90")


def roll_axis(a: Tensor, shift: int, axis: int) -> Tensor:
    """Cyclic shift along one axis; slice s of the result is input slice s - shift."""
    out_data = np.roll(a.data, shift, axis=axis)

    def backward(g):
        accumulate_grad(a, np.roll(g, -shift, axis=axis))

    return Tensor.from_op(out_data, (a,), backward, "roll")


def take_slot(a: Tensor, index: int) -> Tensor:
    """Index one slot of the first axis (gradient scatters back into that slot)."""
    index = int(index)
    # ``asarray`` keeps the slot of a 1-d tensor 0-d (``ascontiguousarray`` would make it 1-d)
    out_data = np.asarray(a.data[index, ...], order="C")

    def backward(g):
        if a.requires_grad:
            if a.grad is None:
                a.grad = np.zeros_like(a.data)
            a.grad[index] += g

    return Tensor.from_op(out_data, (a,), backward, "take_slot")


def concat(tensors) -> Tensor:
    """Join tensors along the first axis; each takes back its own slice of the gradient."""
    tensors = tuple(tensors)
    out_data = np.concatenate([t.data for t in tensors])
    splits = np.cumsum([t.data.shape[0] for t in tensors])[:-1]

    def backward(g):
        for t, part in zip(tensors, np.split(g, splits)):
            accumulate_grad(t, part)

    return Tensor.from_op(out_data, tensors, backward, "concat")


def _crop_slice(shape, margin: int) -> tuple:
    """The index of ``crop2d``'s interior of an array of ``shape``."""
    h, w = shape[-2:]
    if h - 2 * margin < 1 or w - 2 * margin < 1:
        raise ValueError(f"crop margin {margin} leaves no pixels of {h}x{w}")
    return (Ellipsis, slice(margin, h - margin), slice(margin, w - margin))


def crop2d(a: Tensor, margin: int) -> Tensor:
    """Cut ``margin`` rows and cols from every side of the last two axes."""
    sl = _crop_slice(a.data.shape, margin)
    out_data = a.data[sl].copy()

    def backward(g):
        full = np.zeros_like(a.data)
        full[sl] = g
        accumulate_grad(a, full)

    return Tensor.from_op(out_data, (a,), backward, "crop2d")


# -- contractions ----------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """a[..., n, p] @ b[..., p, m], the batch axes broadcast as in numpy."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul expects operands with at least 2 dimensions")
    out_data = a.data @ b.data

    def backward(g):
        accumulate_grad(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape))
        if b.requires_grad:
            accumulate_grad(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape))

    return Tensor.from_op(out_data, (a, b), backward, "matmul")


# -- reductions and losses ---------------------------------------------------


def l1_norm(a: Tensor) -> Tensor:
    """Sum of absolute values, as a scalar tensor."""
    out_data = np.asarray(np.abs(a.data).sum(), dtype=a.data.dtype).reshape(())

    def backward(g):
        accumulate_grad(a, g * np.sign(a.data))

    return Tensor.from_op(out_data, (a,), backward, "l1_norm")


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits[B, K]) against integer labels."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2:
        raise ValueError("softmax_cross_entropy expects logits of shape [batch, classes]")
    batch, classes = logits.data.shape
    if labels.shape != (batch,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= classes:
        raise ValueError(f"label out of range [0, {classes})")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1))
    picked = z[np.arange(batch), labels]
    out_data = np.asarray((lse - picked).mean(), dtype=logits.data.dtype).reshape(())

    def backward(g):
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(batch), labels] -= 1.0
        accumulate_grad(logits, g * p / batch)

    return Tensor.from_op(out_data, (logits,), backward, "softmax_cross_entropy")


# -- convolution -------------------------------------------------------------


# Upper bound on one im2col column buffer. A batch whose columns would exceed
# it is processed in chunks of whole samples (at least one per chunk), so the
# transient buffer stays the same size however large the batch grows.
_COLUMN_BYTES = 32 << 20


def _sample_chunks(n: int, sample_bytes: int) -> list:
    step = max(1, _COLUMN_BYTES // max(sample_bytes, 1))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _padded_chunks(x: np.ndarray, k: int):
    """Yield (sample slice, same-padded samples) in chunks whose columns fit ``_COLUMN_BYTES``;
    each chunk is padded on its own, so the batch is never padded whole."""
    n, c, h, w = x.shape
    p = k // 2
    for sl in _sample_chunks(n, c * k * k * h * w * x.itemsize):
        xp = np.zeros((sl.stop - sl.start, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
        xp[:, :, p:p + h, p:p + w] = x[sl]
        yield sl, xp


def _columns(xp: np.ndarray, k: int) -> np.ndarray:
    """im2col: padded [n,C,H+k-1,W+k-1] -> [C*k*k, n*H*W].

    Rows run over (c, u, v) like ``kernel.reshape(O, -1)``; columns over
    (sample, row, col).
    """
    c = xp.shape[1]
    win = sliding_window_view(xp, (k, k), axis=(2, 3))
    return np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3)).reshape(c * k * k, -1)


def _column_chunks(x: np.ndarray, k: int):
    """Yield (sample slice, im2col columns) of x[B,C,H,W] per ``_padded_chunks`` chunk.

    A caller that drops each chunk's columns before taking the next keeps one
    column buffer alive; ``list`` of it keeps them all, for reuse as ``columns``.
    """
    for sl, xp in _padded_chunks(x, k):
        yield sl, _columns(xp, k)


def _correlate(x: np.ndarray, w: np.ndarray, columns=None) -> np.ndarray:
    """Same-padded stride-1 correlation of arrays x[B,C,H,W] and w[O,C,k,k], over x's
    kept ``columns`` when given."""
    o = w.shape[0]
    n, _, h, wd = x.shape
    w2 = w.reshape(o, -1)
    out = np.empty((n, o, h, wd), dtype=x.dtype)
    for sl, cols in columns if columns is not None else _column_chunks(x, w.shape[2]):
        out[sl] = (w2 @ cols).reshape(o, -1, h, wd).transpose(1, 0, 2, 3)
        del cols  # a rebuilt chunk's columns go before the next chunk's are built
    return out


def _check_conv_args(x: Tensor, kernel: Tensor):
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ValueError("correlate2d expects input [B,C,H,W] and kernel [O,C,k,k]")
    k = kernel.data.shape[2]
    if k != kernel.data.shape[3] or k % 2 == 0:
        raise ValueError(f"kernel must be square with odd size, got {kernel.data.shape[2:]}")
    if x.data.shape[1] != kernel.data.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.data.shape[1]}, "
                         f"kernel expects {kernel.data.shape[1]}")


def _correlate_grad_x(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """grad-x of ``_correlate(x, w)``: the same kernel run on g with the adjoint filter
    (spatially flipped, channel axes swapped)."""
    return _correlate(g, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))


def _correlate_grad_w(g: np.ndarray, x: np.ndarray, k: int, columns=None) -> np.ndarray:
    """grad-w of ``_correlate(x, w)`` as [O, C*k*k]: ``g @ cols.T``, over x's kept
    ``columns`` when given, else with the columns rebuilt chunk by chunk."""
    o = g.shape[1]
    gw = np.zeros((o, x.shape[1] * k * k), dtype=x.dtype)
    for sl, cols in columns if columns is not None else _column_chunks(x, k):
        g2 = np.ascontiguousarray(g[sl].transpose(1, 0, 2, 3)).reshape(o, -1)
        gw += g2 @ cols.T
        del cols
    return gw


def correlate2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Sliding inner products of x[B,C,H,W] with kernel[O,C,k,k], zero padded to [B,O,H,W].

    im2col + GEMM: each chunk of samples becomes a column matrix
    [C*k*k, n*H*W]; the forward pass is ``W @ cols`` and grad-w is
    ``g @ cols.T``, with the columns rebuilt in backward rather than kept on
    the graph. grad-x is the same kernel run on ``g`` with the adjoint filter
    (spatially flipped, channel axes swapped).
    """
    _check_conv_args(x, kernel)
    k = kernel.data.shape[2]
    out_data = _correlate(x.data, kernel.data)

    def backward(g):
        if kernel.requires_grad:
            accumulate_grad(kernel, _correlate_grad_w(g, x.data, k).reshape(kernel.data.shape))
        if x.requires_grad:
            accumulate_grad(x, _correlate_grad_x(g, kernel.data))

    return Tensor.from_op(out_data, (x, kernel), backward, "correlate2d")


def transpose_correlate2d(x: Tensor, kernel: Tensor) -> Tensor:
    """Adjoint of ``f -> correlate2d(f, kernel)``.

    Equals correlate2d with the kernel flipped in both spatial axes and its
    channel axes swapped, so x[B,O,H,W] with kernel[O,C,k,k] maps to [B,C,H,W].
    """
    if kernel.data.ndim != 4:
        raise ValueError("transpose_correlate2d expects kernel [O,C,k,k]")
    flipped = flip_spatial(transpose(kernel, (1, 0, 2, 3)))
    return correlate2d(x, flipped)


# -- pooling -----------------------------------------------------------------


def _check_even(a: np.ndarray) -> None:
    h, w = a.shape[-2:]
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2x2 needs even extents, got {h}x{w}")


def _pool2x2(a: np.ndarray) -> tuple:
    """2x2/stride-2 max over the last two axes -> (pooled, uint8 index of the first max)."""
    _check_even(a)
    h, w = a.shape[-2:]
    lead = a.shape[:-2]
    blocks = a.reshape(lead + (h // 2, 2, w // 2, 2)).swapaxes(-3, -2)
    blocks = blocks.reshape(lead + (h // 2, w // 2, 4))
    idx = blocks.argmax(axis=-1)[..., None]
    return np.take_along_axis(blocks, idx, axis=-1)[..., 0], idx.astype(np.uint8)


def _unpool2x2(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Adjoint of ``_pool2x2``: each pooled gradient goes to its block's first max."""
    gb = np.zeros(g.shape + (4,), dtype=g.dtype)
    np.put_along_axis(gb, idx, g[..., None], axis=-1)
    gb = gb.reshape(g.shape + (2, 2)).swapaxes(-3, -2)
    return gb.reshape(g.shape[:-2] + (2 * g.shape[-2], 2 * g.shape[-1]))


def _pool2x2_max(a: np.ndarray) -> np.ndarray:
    """``_pool2x2``'s pooled values without the index: the max of the four stride-2 phases.

    On a tie numpy's maximum returns its second argument, so each earlier phase
    goes second and a block of mixed -0.0 and +0.0 keeps its first value's sign,
    as the index path does.
    """
    _check_even(a)
    out = np.maximum(a[..., 0::2, 1::2], a[..., 0::2, 0::2])
    np.maximum(a[..., 1::2, 0::2], out, out=out)
    np.maximum(a[..., 1::2, 1::2], out, out=out)
    return out


def maxpool2x2(a: Tensor) -> Tensor:
    """2x2/stride-2 max over the last two axes; gradient to the first max.

    Only a recorded backward needs the uint8 index of each block's first max;
    without one (``no_grad`` or no input requiring gradients) no index is made.
    """
    if not (_GRAD_ENABLED and a.requires_grad):
        return Tensor.from_op(_pool2x2_max(a.data), (a,), None, "maxpool2x2")
    out_data, idx = _pool2x2(a.data)

    def backward(g):
        accumulate_grad(a, _unpool2x2(g, idx))

    return Tensor.from_op(out_data, (a,), backward, "maxpool2x2")


def global_maxpool(a: Tensor) -> Tensor:
    """Max over all axes past the first two (gradient to first max)."""
    lead = a.data.shape[:2]
    flat = a.data.reshape(lead + (-1,))
    idx = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gf = np.zeros_like(flat)
        np.put_along_axis(gf, idx[..., None], g[..., None], axis=-1)
        accumulate_grad(a, gf.reshape(a.data.shape))

    return Tensor.from_op(out_data, (a,), backward, "global_maxpool")


# -- normalization -----------------------------------------------------------


def _bn_param_shape(x: np.ndarray, axes) -> tuple:
    return tuple(1 if ax in axes else x.shape[ax] for ax in range(x.ndim))


def _check_bn_params(x: Tensor, gamma: Tensor, beta: Tensor, axes):
    kept = [ax for ax in range(x.data.ndim) if ax not in axes]
    if len(kept) != 1:
        raise ValueError("batchnorm expects exactly one non-reduced (channel) axis")
    c = x.data.shape[kept[0]]
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ValueError(f"gamma/beta length must be {c}, got "
                         f"{gamma.data.shape} / {beta.data.shape}")
    return kept[0]


def _bn_forward(x: Tensor, gamma: Tensor, beta: Tensor, axes) -> tuple:
    """Batch statistics and ``gamma * xhat + beta`` -> (out, mean, var, inv_std), keepdims."""
    _check_bn_params(x, gamma, beta, axes)
    pshape = _bn_param_shape(x.data, axes)
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    out = x.data - mu
    out *= inv
    out *= gamma.data.reshape(pshape)
    out += beta.data.reshape(pshape)
    return out, mu, var, inv


def _bn_backward(g: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor, axes,
                 mu: np.ndarray, inv: np.ndarray) -> None:
    """The BatchNorm adjoint, with ``xhat`` recomputed from the saved mean and inverse std."""
    xhat = x.data - mu
    xhat *= inv
    if gamma.requires_grad:
        accumulate_grad(gamma, (g * xhat).sum(axis=axes).reshape(gamma.data.shape))
    if beta.requires_grad:
        accumulate_grad(beta, g.sum(axis=axes).reshape(beta.data.shape))
    if x.requires_grad:
        m = int(np.prod([x.data.shape[ax] for ax in axes]))
        gxhat = g * gamma.data.reshape(mu.shape)
        s1 = gxhat.sum(axis=axes, keepdims=True)
        s2 = (gxhat * xhat).sum(axis=axes, keepdims=True)
        gx = m * gxhat
        del gxhat
        gx -= s1
        xhat *= s2
        gx -= xhat
        gx *= inv / m
        accumulate_grad(x, gx)


def batchnorm_train(x: Tensor, gamma: Tensor, beta: Tensor, axes):
    """Normalize over ``axes`` with batch statistics, by 1 / sqrt(var + ``_BN_EPS``).

    Returns (out, batch_mean, batch_var) with the statistics as plain arrays
    (biased variance) so the caller can maintain running estimates.
    """
    axes = tuple(axes)
    out_data, mu, var, inv = _bn_forward(x, gamma, beta, axes)

    def backward(g):
        _bn_backward(g, x, gamma, beta, axes, mu, inv)

    out = Tensor.from_op(out_data, (x, gamma, beta), backward, "batchnorm_train")
    return out, mu.reshape(-1), var.reshape(-1)


def batchnorm_relu_train(x: Tensor, gamma: Tensor, beta: Tensor, axes, pool: bool):
    """``relu(batchnorm_train(x))``, then ``maxpool2x2`` when ``pool``, as one op.

    The node keeps its output, x (its parent), the per-channel mean and
    inverse std, and with ``pool`` a uint8 index per pooled value; backward
    recomputes ``xhat`` and reads the ReLU mask off the output, since a pooled
    value is positive exactly when the ReLU input at its first max is.
    Results, gradients and statistics are bitwise those of the three ops.
    Returns (out, batch_mean, batch_var) like ``batchnorm_train``.
    """
    axes = tuple(axes)
    out_data, mu, var, inv = _bn_forward(x, gamma, beta, axes)
    np.maximum(out_data, 0, out=out_data)
    idx = None
    if pool:
        out_data, idx = _pool2x2(out_data)

    def backward(g):
        g = g * (out_data > 0)
        if pool:
            g = _unpool2x2(g, idx)
        _bn_backward(g, x, gamma, beta, axes, mu, inv)

    out = Tensor.from_op(out_data, (x, gamma, beta), backward, "batchnorm_relu")
    return out, mu.reshape(-1), var.reshape(-1)


def _in_place(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)``, written into ``a`` when numpy's promotion keeps ``a``'s dtype."""
    if np.result_type(a, b) == a.dtype:
        return ufunc(a, b, out=a)
    return ufunc(a, b)


def batchnorm_eval(x: Tensor, gamma: Tensor, beta: Tensor, axes,
                   mean: np.ndarray, var: np.ndarray) -> Tensor:
    """Normalize with frozen statistics (per-channel affine map), with the same ``_BN_EPS``."""
    axes = tuple(axes)
    _check_bn_params(x, gamma, beta, axes)
    pshape = _bn_param_shape(x.data, axes)
    inv = (1.0 / np.sqrt(var + _BN_EPS)).reshape(pshape).astype(x.data.dtype)
    mu = mean.reshape(pshape).astype(x.data.dtype)
    gb = gamma.data.reshape(pshape)
    # gb * (x - mu) * inv + beta, evaluated in that order into one array
    out_data = _in_place(np.multiply, x.data - mu, gb)
    out_data = _in_place(np.multiply, out_data, inv)
    out_data = _in_place(np.add, out_data, beta.data.reshape(pshape))

    def backward(g):
        if gamma.requires_grad:
            accumulate_grad(gamma, (g * (x.data - mu) * inv).sum(axis=axes))
        if beta.requires_grad:
            accumulate_grad(beta, g.sum(axis=axes))
        if x.requires_grad:
            accumulate_grad(x, g * gb * inv)

    return Tensor.from_op(out_data, (x, gamma, beta), backward, "batchnorm_eval")


# -- constant linear maps ------------------------------------------------------


def spatial_linear_map(x: Tensor, apply_fn, apply_transpose_fn, out_hw) -> Tensor:
    """Apply a fixed linear map to the flattened last two axes.

    ``apply_fn`` / ``apply_transpose_fn`` act on [n_pixels, cols] matrices.
    The map itself is a constant: gradients flow through the application only.
    """
    out_data = _map_spatial(x.data, apply_fn, out_hw)

    def backward(g):
        accumulate_grad(x, _map_spatial(g, apply_transpose_fn, x.data.shape[-2:]))

    return Tensor.from_op(out_data, (x,), backward, "spatial_linear_map")


def _map_spatial(x: np.ndarray, apply_fn, out_hw) -> np.ndarray:
    """``apply_fn`` on the flattened last two axes of x, as [n_pixels, cols] columns."""
    h, w = x.shape[-2:]
    flat = x.reshape(-1, h * w).T
    return np.ascontiguousarray(apply_fn(flat).T).reshape(x.shape[:-2] + tuple(out_hw))


# -- numerical differentiation -------------------------------------------------


def numerical_gradient(fn, arrays, index: int, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*arrays)`` w.r.t. one input.

    Runs in the arrays' own dtype; use float64 inputs for verification.
    """
    base = [np.array(a, dtype=np.float64) for a in arrays]
    target = base[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + step
        hi = float(fn(*base))
        flat[i] = orig - step
        lo = float(fn(*base))
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * step)
    return grad


def check_gradient(build_fn, arrays, rel_tol: float = 1e-5, step: float = 1e-5) -> float:
    """Compare autodiff against finite differences for every input array.

    ``build_fn(*tensors)`` must return a scalar Tensor. Returns the worst
    relative error seen; raises AssertionError above ``rel_tol``.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays]
    loss = build_fn(*tensors)
    loss.backward()
    worst = 0.0
    for i, t in enumerate(tensors):
        num = numerical_gradient(lambda *arrs: build_fn(*[Tensor(a) for a in arrs]).item(),
                                 arrays, i, step)
        ana = t.grad if t.grad is not None else np.zeros_like(t.data)
        denom = max(float(np.abs(num).max()), 1.0)
        err = float(np.abs(ana - num).max()) / denom
        worst = max(worst, err)
        if err > rel_tol:
            raise AssertionError(
                f"gradient mismatch on input {i}: relative error {err:.3e} > {rel_tol:.1e}")
    return worst
