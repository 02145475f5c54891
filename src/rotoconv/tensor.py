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
        ``accumulate_grad`` or ``_hand_over``. The closure is dropped when no parent
        needs it or inside ``no_grad()``. The node keeps ``data``; what else the op needs
        in backward its closure keeps, which need not be every input it read: a
        convolution or pool fed a ``BatchNormReLUMap`` keeps that map's BatchNorm input
        and statistics instead, and rebuilds the map.
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
        run; leaves keep ``grad`` and every node keeps ``data``. A map that an op reads
        but its node does not keep (a ``BatchNormReLUMap``, which a convolution or a pool
        reads) is rebuilt by that node's adjoint. A second backward through a released
        node raises ``GraphError``.

        Each closure is handed its node's ``grad``, which no other node shares and nothing
        reads once the closure returns, so the closure may write into it. Only the
        BatchNorm adjoint does (``_bn_backward``): it builds its input's gradient there,
        as it does in the grad-x that a reader of a ``BatchNormReLUMap`` made and masked.
        A gradient that an adjoint made and reads no more (that one, and a convolution's
        or pool's grad-x) is handed over (``_hand_over``): stored uncopied as its parent's
        first gradient. Every other one goes to ``accumulate_grad``, which copies a first
        gradient, so no two nodes share one.
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
    """Add g into ``t.grad``; the first gradient is stored as a copy in t's layout and dtype.

    g may be a view of an array that the caller still reads, or hands to another
    parent as well (``add`` hands one g to both), so it is never kept. An adjoint that
    made g itself and reads it no more passes it to ``_hand_over`` instead.
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.empty_like(t.data)
        np.copyto(t.grad, g)
    else:
        t.grad += g


def _hand_over(t: Tensor, g: np.ndarray) -> None:
    """Give t a gradient that its caller made and reads no more: stored as it is as t's
    first gradient when it has t's shape, strides and dtype, else ``accumulate_grad``.
    The convolution and pool adjoints hand over grad-x so (``_operand``), and the
    BatchNorm adjoint the gradient it builds in place (``_bn_backward``)."""
    if t.requires_grad and t.grad is None and (g.shape, g.strides, g.dtype) == (
            t.data.shape, t.data.strides, t.data.dtype):
        t.grad = g
    else:
        accumulate_grad(t, g)


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
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must have an integer dtype, got {labels.dtype}")
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


# Bounds on the im2col columns one GEMM reads. ``_column_blocks`` builds them in runs
# of whole samples, capped at ``_COLUMN_BYTES`` of columns, in one column buffer and
# (for k > 1) one padded buffer per call; a one-sample block's GEMM writes straight
# into the output. A GEMM packs its whole weight matrix once a call, so the fewer
# columns a block has, the more of its time goes to packing; the more it has, the
# more it holds. Its callers pass the run's length by one of three rules:
# - chunks: the whole batch, so only the cap splits it;
# - the forward rule (``_correlate``): equal blocks of at least ``_BLOCK_COLUMNS``
#   columns, or one sample on maps of that many pixels;
# - the one-pass rule (``_correlate_grads``): blocks of at most ``_BLOCK_COLUMNS``
#   columns, or one sample.
#
# A GEMM of at least ``_MIN_BLOCK_ROWS`` output rows over at least
# ``_SMALL_SAMPLE_BYTES`` of columns a sample takes the block path
# (``_takes_blocks``): the forward and grad-x take the forward rule. A forward or
# grad-x sums over no columns, so the split leaves its bits alone. A backward that
# needs both gradients takes grad-w from the same blocks of the output gradient's
# columns that grad-x builds, by the one-pass rule (``_correlate_grads``). It adds
# each block's product into one accumulator in row slabs of at most ``_SLAB_BYTES``,
# so the product's temporary stays small. That sum is grouped by block, so its bits
# differ from a chunk's.
#
# Everything else takes chunks, with grad-w summed chunk by chunk over x's columns
# (``_correlate_grad_w``), a grouping that fixes the bits of every pinned gradient.
# That covers maps with small per-sample columns (pretraining's 1- and 9-channel
# maps, the 1x1 layers), whose blocks would be many tiny GEMMs; GEMMs of fewer output
# rows, which BLAS may run as matrix-vector or small-matrix products whose rounding
# depends on the column count (OpenBLAS does so at one row, or at up to 100**3
# multiply-adds, which 8 rows of 1 MB of columns exceed); grad-w without grad-x (the
# lifting layer, whose input needs no gradient); and pretraining's kept columns, one
# chunk. Either way a call holds one block of columns however large the batch grows.
_COLUMN_BYTES = 32 << 20
_BLOCK_COLUMNS = 392
_SMALL_SAMPLE_BYTES = 1 << 20
_MIN_BLOCK_ROWS = 8
_SLAB_BYTES = 3 << 20


def _windows(xp: np.ndarray, k: int) -> np.ndarray:
    """The im2col view [C,k,k,n,H,W] of padded xp[n,C,H+k-1,W+k-1]."""
    return sliding_window_view(xp, (k, k), axis=(2, 3)).transpose(1, 4, 5, 0, 2, 3)


def _column_blocks(x, k: int, step: int):
    """Yield (sample slice, im2col columns [C*k*k, m*H*W]) of x[B,C,H,W] in runs of ``step``
    whole samples, or fewer where ``_COLUMN_BYTES`` caps a run's columns (the last run may
    be shorter). Rows run over (c, u, v) like ``kernel.reshape(O, -1)``; columns over
    (sample, row, col). x is an array or a ``_RebuiltMap``, read one run at a time.

    Every block is built in the same column buffer, through the same zero-padded buffer
    when k > 1, so each yielded array is overwritten by the next block's columns.
    """
    n, c, h, w = x.shape
    p = k // 2
    rows = c * k * k
    step = max(1, min(step, n, _COLUMN_BYTES // max(1, rows * h * w * x.itemsize)))
    xp = np.zeros((step, c, h + 2 * p, w + 2 * p), dtype=x.dtype) if p else None
    buf = np.empty(rows * step * h * w, dtype=x.dtype)
    for start in range(0, n, step):
        m = min(step, n - start)
        if p:
            xp[:m, :, p:p + h, p:p + w] = x[start:start + m]
        cols = buf[:rows * m * h * w].reshape(c, k, k, m, h, w)
        np.copyto(cols, _windows(xp[:m] if p else x[start:start + m], k))
        yield slice(start, start + m), cols.reshape(rows, m * h * w)


def _takes_blocks(x: np.ndarray, rows: int, k: int) -> bool:
    """Whether a GEMM of ``rows`` output rows over the columns of x[B,C,H,W] builds them
    in blocks (else in chunks of the whole batch)."""
    _, c, h, w = x.shape
    return rows >= _MIN_BLOCK_ROWS and c * k * k * h * w * x.itemsize >= _SMALL_SAMPLE_BYTES


def _block_product(w2: np.ndarray, cols: np.ndarray, out: np.ndarray, sl: slice) -> None:
    """``w2 @ cols`` for the samples ``sl`` of out[B,O,H,W]; one sample's GEMM writes
    straight into ``out``."""
    o = w2.shape[0]
    if sl.stop - sl.start == 1:
        np.matmul(w2, cols, out=out[sl.start].reshape(o, -1))
    else:
        out[sl] = (w2 @ cols).reshape(o, -1, *out.shape[2:]).transpose(1, 0, 2, 3)


def _correlate(x: np.ndarray, w: np.ndarray, columns=None) -> np.ndarray:
    """Same-padded stride-1 correlation of arrays x[B,C,H,W] and w[O,C,k,k], over x's
    kept ``columns`` when given."""
    o, c, k, _ = w.shape
    n, _, h, wd = x.shape
    w2 = w.reshape(o, -1)
    out = np.empty((n, o, h, wd), dtype=x.dtype)
    if columns is None:
        blocks = -(-n // max(1, min(n, n * h * wd // _BLOCK_COLUMNS)))  # the forward rule
        columns = _column_blocks(x, k, blocks if _takes_blocks(x, o, k) else n)
    for sl, cols in columns:
        _block_product(w2, cols, out, sl)
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


def _adjoint_kernel(w: np.ndarray) -> np.ndarray:
    """The grad-x kernel [C,O,k,k] of ``_correlate(x, w)``: w spatially flipped, channel
    axes swapped."""
    return w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _correlate_grad_w(g: np.ndarray, x, k: int, columns=None) -> np.ndarray:
    """grad-w of ``_correlate(x, w)`` as [O, C*k*k]: ``g @ cols.T``, over x's kept
    ``columns`` when given, else with the columns rebuilt chunk by chunk (from x's
    samples rebuilt chunk by chunk too when x is a ``_RebuiltMap``)."""
    o = g.shape[1]
    gw = np.zeros((o, x.shape[1] * k * k), dtype=x.dtype)
    for sl, cols in columns if columns is not None else _column_blocks(x, k, x.shape[0]):
        g2 = np.ascontiguousarray(g[sl].transpose(1, 0, 2, 3)).reshape(o, -1)
        gw += g2 @ cols.T
    return gw


def _slab_rows(rows: int, nbytes: int) -> int:
    """The rows of each of the equal slabs of at most ``_SLAB_BYTES`` that split an array of
    ``rows`` rows and ``nbytes`` bytes (the last slab may be shorter)."""
    return -(-rows // -(-nbytes // _SLAB_BYTES))


def _correlate_grads(g: np.ndarray, x, adjoint, k: int) -> tuple:
    """grad-x [B,C,H,W] and grad-w [O, C*k*k] of ``_correlate(x, w)`` in one pass over the
    column blocks of g[B,O,H,W]. ``adjoint()`` builds the grad-x kernel [C,O,k,k]
    (``_adjoint_kernel``); it is dropped before grad-w is unflipped. The pass
    holds that kernel and grad-w's accumulator beside its columns, two arrays the
    size of w, so its blocks are at most ``_BLOCK_COLUMNS`` columns (or one sample)
    rather than at least.

    With p = k // 2, row (o, u, v) of a block's columns holds g[., o] shifted by
    (u - p, v - p). So ``adjoint @ cols`` is grad-x, the product that
    ``_correlate(g, adjoint())`` splits into other blocks, and ``cols @ x_block.T``
    is grad-w[o, :, k-1-u, k-1-v] over the block's samples: the flip that makes
    grad-x a correlation with the flipped kernel. The blocks' sums collect in one
    [O*k*k, C] array. x is an array or a ``_RebuiltMap``, read one block's samples
    at a time.
    """
    n, c, h, wd = x.shape
    a2 = adjoint().reshape(c, -1)
    o = a2.shape[1] // (k * k)
    gx = np.empty((n, c, h, wd), dtype=g.dtype)
    flipped = np.zeros((o * k * k, c), dtype=x.dtype)
    slab = _slab_rows(len(flipped), flipped.nbytes)
    part = np.empty((slab, c), dtype=x.dtype)
    for sl, cols in _column_blocks(g, k, _BLOCK_COLUMNS // (h * wd)):  # the one-pass rule
        _block_product(a2, cols, gx, sl)
        xt = x[sl].transpose(1, 0, 2, 3).reshape(c, -1).T  # a copy unless one sample
        for r in range(0, len(flipped), slab):
            rows = flipped[r:r + slab]
            np.matmul(cols[r:r + slab], xt, out=part[:len(rows)])
            rows += part[:len(rows)]
        del xt
    del a2, part
    gw = flipped.reshape(o, k, k, c)[:, ::-1, ::-1].transpose(0, 3, 1, 2).reshape(o, -1)
    return gx, gw


def _convolution(x, param: Tensor, bank, param_grad, out_shape, op: str) -> Tensor:
    """The one graph node of every convolution: ``_correlate`` of x, viewed as [B,C,H,W],
    with the kernel [O,C,k,k] that ``bank()`` builds from ``param``, as ``out_shape``.
    x is a Tensor or a ``BatchNormReLUMap``, whose map the node rebuilds rather than
    keeps (``_operand``).

    The node keeps no kernel: the forward drops it, and the backward builds it again for
    grad-x's kernel, ``_adjoint_kernel(bank())``. When both gradients are asked for and
    grad-x takes the block path, one pass over g's column blocks gives both
    (``_correlate_grads``); otherwise grad-x is ``_correlate(g, adjoint)`` and grad-w
    ``_correlate_grad_w`` over chunks of x. ``param_grad`` maps grad-w [O, C*k*k] to
    param's gradient. No more than two kernel-sized arrays are alive at once (while
    ``bank()`` builds one, while the adjoint is copied from it, in the one pass beside
    grad-w's accumulator, and in ``param_grad``), and grad-x is handed over last.
    """
    view = x.data.shape[:1] + (-1,) + x.data.shape[-2:]
    kernel = bank()
    k = kernel.shape[-1]
    out_data = _correlate(x.data.reshape(view), kernel).reshape(out_shape)
    del kernel
    parents, maps, adjoint_x = _operand(x, view)
    grad_x = x.requires_grad

    def backward(g):
        g = g.reshape(view)
        if grad_x and param.requires_grad and _takes_blocks(g, maps.shape[1], k):
            gx, gw = _correlate_grads(g, maps, lambda: _adjoint_kernel(bank()), k)
        else:
            gx = _correlate(g, _adjoint_kernel(bank())) if grad_x else None
            gw = _correlate_grad_w(g, maps, k) if param.requires_grad else None
        if gw is not None:
            accumulate_grad(param, param_grad(gw))
        del gw
        if gx is not None:
            adjoint_x(gx)

    return Tensor.from_op(out_data, parents + (param,), backward, op)


def correlate2d(x, kernel: Tensor) -> Tensor:
    """Sliding inner products of x[B,C,H,W] with kernel[O,C,k,k], zero padded to [B,O,H,W].

    im2col + GEMM: each block or chunk of samples becomes a column matrix
    [C*k*k, n*H*W] and the forward pass is ``W @ cols``. grad-x is the same
    kernel run on ``g`` with the adjoint filter (spatially flipped, channel
    axes swapped); grad-w is ``g @ cols.T`` (``_convolution``). x is a Tensor or
    a ``BatchNormReLUMap``, whose map the node rebuilds rather than keeps.
    """
    _check_conv_args(x, kernel)
    # A correlation node's parents are (x, kernel) unless it took over a BatchNorm-ReLU.
    op = "correlate2d" if isinstance(x, Tensor) else "batchnorm_relu_correlate2d"
    return _convolution(x, kernel, lambda: kernel.data,
                        lambda gw: gw.reshape(kernel.data.shape),
                        x.data.shape[:1] + kernel.data.shape[:1] + x.data.shape[2:], op)


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


def _pool2x2_max(a: np.ndarray) -> np.ndarray:
    """2x2/stride-2 max over the last two axes: the max of the four stride-2 phases.
    On a tie numpy's maximum returns its second argument, so each earlier phase
    goes second and a block of mixed -0.0 and +0.0 keeps its first value's sign."""
    _check_even(a)
    out = np.maximum(a[..., 0::2, 1::2], a[..., 0::2, 0::2])
    np.maximum(a[..., 1::2, 0::2], out, out=out)
    np.maximum(a[..., 1::2, 1::2], out, out=out)
    return out


def _pool2x2(a: np.ndarray) -> tuple:
    """``_pool2x2_max`` and the uint8 index of each block's first phase, in block order
    (0,0), (0,1), (1,0), (1,1), that is its max or NaN: the count of phases before it."""
    out = _pool2x2_max(a)
    idx = np.zeros(out.shape, dtype=np.uint8)
    missed = np.ones(out.shape, dtype=bool)  # no phase so far was the max or NaN
    for q in range(3):
        p = a[..., q // 2::2, q % 2::2]
        missed &= (p != out) & (p == p)
        idx += missed
    return out, idx


def _unpool2x2(g: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Adjoint of ``_pool2x2``: each pooled gradient goes to its block's first max."""
    gx = np.empty(g.shape[:-2] + (2 * g.shape[-2], 2 * g.shape[-1]), dtype=g.dtype)
    for q in range(4):
        gx[..., q // 2::2, q % 2::2] = np.where(idx == q, g, 0)
    return gx


def maxpool2x2(a) -> Tensor:
    """2x2/stride-2 max over the last two axes; gradient to the first max. a is a Tensor
    or a ``BatchNormReLUMap``, whose map the node rebuilds rather than keeps (``_operand``).

    Only a recorded backward needs the uint8 index of each block's first max;
    without one (``no_grad`` or no input requiring gradients) no index is made.
    """
    parents, _, adjoint = _operand(a, a.data.shape)
    op = "maxpool2x2" if isinstance(a, Tensor) else "batchnorm_relu_maxpool2x2"
    if not (_GRAD_ENABLED and a.requires_grad):
        return Tensor.from_op(_pool2x2_max(a.data), parents, None, op)
    out_data, idx = _pool2x2(a.data)

    def backward(g):
        adjoint(_unpool2x2(g, idx))

    return Tensor.from_op(out_data, parents, backward, op)


def global_maxpool(a) -> Tensor:
    """Max over all axes past the first two (gradient to first max). a is a Tensor or a
    ``BatchNormReLUMap``, as for ``maxpool2x2``."""
    shape, dtype = a.data.shape, a.data.dtype
    parents, _, adjoint = _operand(a, shape)
    flat = a.data.reshape(shape[:2] + (-1,))  # a view of the map: no closure holds it
    idx = flat.argmax(axis=-1)
    out_data = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]

    def backward(g):
        gx = np.zeros(shape, dtype)
        np.put_along_axis(gx.reshape(idx.shape + (-1,)), idx[..., None], g[..., None], axis=-1)
        adjoint(gx)

    op = "global_maxpool" if isinstance(a, Tensor) else "batchnorm_relu_global_maxpool"
    return Tensor.from_op(out_data, parents, backward, op)


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


def _normalize(x: np.ndarray, mu: np.ndarray, inv: np.ndarray, gamma: np.ndarray,
               beta: np.ndarray) -> np.ndarray:
    """``(x - mu) * inv * gamma + beta``, in that order, into one new array."""
    out = x - mu
    out *= inv
    out *= gamma
    out += beta
    return out


def _bn_forward(x: Tensor, gamma: Tensor, beta: Tensor, axes) -> tuple:
    """Batch statistics and ``gamma * xhat + beta`` -> (out, mean, var, inv_std), keepdims."""
    _check_bn_params(x, gamma, beta, axes)
    pshape = _bn_param_shape(x.data, axes)
    mu = x.data.mean(axis=axes, keepdims=True)
    var = x.data.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + _BN_EPS)
    out = _normalize(x.data, mu, inv, gamma.data.reshape(pshape), beta.data.reshape(pshape))
    return out, mu, var, inv


def _bn_backward(g: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor, axes,
                 mu: np.ndarray, inv: np.ndarray) -> None:
    """The BatchNorm adjoint, with ``xhat`` recomputed from the saved mean and inverse std.

    g is an output gradient that the caller gives up: the BatchNorm node's own ``grad``,
    or the masked grad-x of the reader that took the BatchNorm-ReLU over. x's gradient
    is built inside g and, as x's first gradient, stored as it is when it has x's layout
    and dtype. So the adjoint holds three map-sized arrays: g, ``xhat`` and one scratch
    array for ``g * xhat`` and then ``gxhat * xhat``. g has x's dtype, in which the
    forward computed the map (``_normalize`` scales x's dtype in place), and the adjoint
    stays in it.
    """
    xhat = x.data - mu
    xhat *= inv
    scratch = np.empty_like(xhat) if gamma.requires_grad or x.requires_grad else None
    if gamma.requires_grad:
        np.multiply(g, xhat, out=scratch)
        accumulate_grad(gamma, scratch.sum(axis=axes).reshape(gamma.data.shape))
    if beta.requires_grad:
        accumulate_grad(beta, g.sum(axis=axes).reshape(beta.data.shape))
    if x.requires_grad:
        m = int(np.prod([x.data.shape[ax] for ax in axes]))
        g *= gamma.data.reshape(mu.shape)  # gxhat
        s1 = g.sum(axis=axes, keepdims=True)
        s2 = np.multiply(g, xhat, out=scratch).sum(axis=axes, keepdims=True)
        del scratch
        # gx = (m * gxhat - s1 - xhat * s2) * (inv / m)
        g *= m
        g -= s1
        xhat *= s2
        g -= xhat
        del xhat
        g *= inv / m
        _hand_over(x, g)


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


class _RebuiltMap:
    """A training BatchNorm-ReLU output that is rebuilt by samples rather than kept: the
    map ``relu(batchnorm_train(x))``, viewed as ``shape``, of which ``self[sl]`` rebuilds
    samples ``sl`` from the BatchNorm input x and statistics with ``_bn_forward``'s
    ``_normalize``, then the ReLU. Those are elementwise, so the rows are bitwise those
    of the whole map. The convolution backward kernels read it like an array (``shape``,
    ``dtype``, ``itemsize``, sample slices); each rebuilt block leaves its ReLU mask
    behind for the BatchNorm-ReLU adjoint (``relu_mask``)."""

    def __init__(self, x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, mu: np.ndarray,
                 inv: np.ndarray, shape: tuple):
        self._x, self._mu, self._inv = x, mu, inv
        self._gamma, self._beta = gamma.reshape(mu.shape), beta.reshape(mu.shape)
        self.shape, self.dtype, self.itemsize = shape, x.dtype, x.itemsize
        self._mask = None
        self._rebuilt = 0  # samples rebuilt so far

    def __getitem__(self, sl: slice) -> np.ndarray:
        out = _normalize(self._x[sl], self._mu, self._inv, self._gamma, self._beta)
        np.maximum(out, 0, out=out)
        out = out.reshape((-1,) + self.shape[1:])
        if self._mask is None:
            self._mask = np.empty(self.shape, dtype=bool)
        np.greater(out, 0, out=self._mask[sl])
        self._rebuilt += len(out)
        return out

    def relu_mask(self) -> np.ndarray:
        """``map > 0``, as the blocks read so far left it; a backward that read no block (a
        pool's, or a convolution's with no grad-w asked for) rebuilds the map here."""
        if self._rebuilt < self.shape[0]:
            self[:]
        return self._mask


class BatchNormReLUMap:
    """``relu(batchnorm_train(x))`` on its way into the one op that reads it (a convolution
    or a pool), from ``batchnorm_relu_train``. That op records both as one node, which
    keeps x and the statistics in place of this map: its forward reads ``data``, which
    goes with this object once the forward has run, and its backward rebuilds the map
    (``_RebuiltMap``) and runs the BatchNorm-ReLU adjoint on its input gradient
    (``_operand``)."""

    def __init__(self, data: np.ndarray, x: Tensor, gamma: Tensor, beta: Tensor, axes,
                 mu: np.ndarray, inv: np.ndarray):
        self.data = data
        self.requires_grad = any(t.requires_grad for t in (x, gamma, beta))
        self._batchnorm = (x, gamma, beta, axes, mu, inv)


def batchnorm_relu_train(x: Tensor, gamma: Tensor, beta: Tensor, axes):
    """``relu(batchnorm_train(x))`` as the input of the op that reads it, which records both
    ops and itself as one node that keeps x (the BatchNorm input, already on the graph) and
    the per-channel mean and inverse std rather than this map: a ``BatchNormReLUMap``. Its
    values, and every gradient and statistic, are bitwise those of ``batchnorm_train``,
    ``relu`` and the reader as three nodes. Returns (map, batch_mean, batch_var) like
    ``batchnorm_train``.
    """
    axes = tuple(axes)
    out_data, mu, var, inv = _bn_forward(x, gamma, beta, axes)
    np.maximum(out_data, 0, out=out_data)
    return (BatchNormReLUMap(out_data, x, gamma, beta, axes, mu, inv),
            mu.reshape(-1), var.reshape(-1))


def _operand(x, shape) -> tuple:
    """(parents, input viewed as ``shape`` for the backward, input-gradient adjoint) of the
    input x of a convolution or pool. A Tensor is its own parent, read as it is, and takes
    the gradient. A ``BatchNormReLUMap`` gives its BatchNorm's input and parameters as
    parents and a ``_RebuiltMap`` to read; its adjoint masks the gradient with the ReLU
    mask of the rebuilt map and runs the BatchNorm adjoint, in place of the two separate
    nodes' adjoints."""
    if isinstance(x, Tensor):
        return (x,), x.data.reshape(shape), lambda gx: _hand_over(x, gx.reshape(x.data.shape))
    source, gamma, beta, axes, mu, inv = x._batchnorm
    maps = _RebuiltMap(source.data, gamma.data, beta.data, mu, inv, x.data.reshape(shape).shape)

    def adjoint(gx):
        gx *= maps.relu_mask()
        _bn_backward(gx.reshape(source.data.shape), source, gamma, beta, axes, mu, inv)

    return (source, gamma, beta), maps, adjoint


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
