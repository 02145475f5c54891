"""Offline basis learning: drive the rotated-basis losses over an image corpus.

Each minibatch draws one (image-rotation, filter-rotation) index pair, builds
the three losses on the live basis parameters, and takes one AMSGrad step.
The basis at every orientation is one stacked ``[order, n, k, k]`` tensor.
With ``partial=True`` only the orientations below a quarter turn are free
parameters; the rest are exact 90 degree copies inside the same graph, so the
quarter-turn tying holds bitwise after every step. The equivariance and
reconstruction terms of all of a step's draws are one graph node,
``image_terms``. Its array forward, ``_draw_crops``, is the only one: the
graph-free evaluators and the 45 degree probe run it one training batch of
images at a time (``_chunked_terms``). The graph-level reference the node equals
bitwise lives in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .basis import (Basis, _quarter_turn_stack, initialize_elements, orthogonality_defect,
                    populate_partial, quarter_stride)
from .fileio import write_csv
from .groups import (RotationOperators, _check_interpolation, _is_index, check_crop_fraction,
                     crop_margin)
from .optim import _require_int, _run_epochs, check_run_config
from .tensor import Tensor


_LOSS_FIELDS = ("L_equiv", "L_orth", "L_rec", "L_total")
_N_PROBE = 200  # images the 45-degree probe runs on


class PretrainDivergence(RuntimeError):
    """Loss became non-finite during basis training."""


@dataclass
class PretrainConfig:
    order: int = 8
    n_elements: int = 9
    kernel_size: int = 3
    partial: bool = False
    epochs: int = 30
    batch_size: int = 100
    learning_rate: float = 1e-3
    weight_decay: float = 1e-6
    sigma: float = 0.5
    crop_fraction: float = 0.25
    loss_weights: tuple = (1.0, 1.0, 1.0)
    sum_all_pairs: bool = False
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        _require_int("kernel_size", self.kernel_size)
        if self.kernel_size < 1 or self.kernel_size % 2 == 0:
            raise ValueError(f"kernel_size must be a positive odd int, got {self.kernel_size}")
        _require_int("n_elements", self.n_elements)
        if self.n_elements < 1:
            raise ValueError(f"n_elements must be >= 1, got {self.n_elements}")
        check_run_config(self)
        check_crop_fraction(self.crop_fraction)
        _check_interpolation("gaussian", self.sigma)
        _require_int("group order", self.order)
        if self.order < 1 or self.order % 4:
            raise ValueError(f"group order must be a positive multiple of 4, got {self.order}")
        T.check_float_dtype(self.dtype)
        weights = self.loss_weights
        if not (isinstance(weights, (tuple, list)) and len(weights) == 3
                and all(isinstance(w, numbers.Real) and math.isfinite(w) for w in weights)):
            raise ValueError("loss_weights must be three finite numbers (equivariance, "
                             f"orthogonality, reconstruction), got {weights!r}")


@dataclass
class PretrainResult:
    basis: Basis
    epochs: list
    initial_equiv_45: float
    final_equiv_45: float


def corpus_images(corpus, dtype, rng: np.random.Generator | None = None) -> np.ndarray:
    """Normalize any corpus to [M, 1, H, H] single-channel square images."""
    images = corpus.images if hasattr(corpus, "images") else np.asarray(corpus)
    if images.ndim == 3:
        images = images[:, None]
    if images.ndim != 4:
        raise ValueError("corpus must be [M,H,W] or [M,C,H,W]")
    if images.shape[0] == 0:
        raise ValueError("corpus is empty")
    if images.shape[1] == 3:
        luma = np.array([0.299, 0.587, 0.114], dtype=np.float64)
        images = np.einsum("c,mchw->mhw", luma, images)[:, None]
    elif images.shape[1] != 1:
        images = images.mean(axis=1, keepdims=True)
    h, w = images.shape[2:]
    if h != w:
        side = min(h, w)
        rng = rng or np.random.default_rng(0)
        oy = int(rng.integers(h - side + 1))
        ox = int(rng.integers(w - side + 1))
        images = images[:, :, oy:oy + side, ox:ox + side]
    return np.ascontiguousarray(images, dtype=dtype)


def basis_slots(param: Tensor, partial: bool) -> Tensor:
    """The [order, n, k, k] basis at every orientation, tied by exact rotation when partial.

    A partial ``param`` holds the orientations below a quarter turn; slot
    ``rho + q * order // 4`` of the result is its slot ``rho`` turned ``q`` times.
    """
    if not partial:
        return param
    return T.concat([param] + [T.rot90_spatial(param, q) for q in (1, 2, 3)])


def _l1_mean(crop: np.ndarray) -> np.ndarray:
    """Sum of |crop| per image and pixel of a cropped [B, C, h, w] difference, 0-d."""
    batch, _, h, w = crop.shape
    return np.asarray(np.abs(crop).sum(), dtype=crop.dtype).reshape(()) * (1.0 / (batch * h * w))


def _draw_crops(images: np.ndarray, kernels: np.ndarray, ops: RotationOperators, draws,
                sl: tuple, want, columns):
    """The one forward of the image terms: per (s, r) draw on images[B, 1, H, W] with
    kernels[order, n, 1, k, k], yield (inputs of the draw's backward, cropped
    equivariance difference, cropped reconstruction difference); the crops are
    contiguous, on which the L1 sum and sign run faster than on a strided view.

    A term not in ``want`` ("equiv", "rec") is None and is not convolved for.
    Each distinct rot_s(images) and response R_{r-s} is computed once.
    ``columns(x)`` gives x's im2col column chunks to keep, or None to rebuild
    them; it is asked for the images and each rot_s first, then per draw for
    the reconstruction input.
    """
    for s, r in draws:
        if not (_is_index(s) and _is_index(r)):
            raise ValueError(f"draw {(s, r)!r} needs integer rotation indices (s, r)")
    order = kernels.shape[0]
    image_columns = columns(images)
    rotated = {0: (images, image_columns)}
    for s, _ in draws:
        if s % order not in rotated:
            turned = ops.apply(images, s)
            rotated[s % order] = turned, columns(turned)
    responses = {}
    for s, r in draws:
        s, j, r = s % order, (r - s) % order, r % order
        if j not in responses:
            responses[j] = T._correlate(images, kernels[j], image_columns)
        turned, turned_cols = rotated[s]
        response = ops.apply(responses[j], s)
        equiv = rec = response_cols = None
        if "equiv" in want:
            equiv = (T._correlate(turned, kernels[r], turned_cols) - response)[sl].copy()
        if "rec" in want:
            response_cols = columns(response)
            rec = (turned - T._correlate(response, T._adjoint_kernel(kernels[r]),
                                         response_cols))[sl].copy()
        yield ((s, j, r, image_columns, turned, turned_cols, response, response_cols),
               equiv, rec)


def _chunked_terms(images: np.ndarray, slots: np.ndarray, ops: RotationOperators, s: int,
                   r: int, margin: int, batch_size: int, want) -> list:
    """The ``want`` terms ("equiv", "rec", in that order) of draw (s, r) on
    images[M, 1, H, W] and the slot stack [order, n, k, k], as floats.

    Graph-free, ``batch_size`` images at a time: each chunk's cropped
    differences from ``_draw_crops`` are written into one preallocated
    [M, C, h, w] array per term, and the L1 mean is taken once over each array.
    The convolution GEMM and rotation columns are per image and the one sum runs
    over the same array as the full batch's, so every value is bitwise the
    full-batch ``image_terms`` value, while no pass holds more than
    ``batch_size`` images' maps.
    """
    order, n, k, _ = slots.shape
    kernels = slots.reshape(order, n, 1, k, k)
    sl = T._crop_slice(images.shape, margin)
    crops = None
    for start in range(0, len(images), batch_size):
        chunk = slice(start, start + batch_size)
        (_, *parts), = _draw_crops(images[chunk], kernels, ops, [(s, r)], sl, want,
                                   lambda x: None)
        parts = [part for part in parts if part is not None]
        if crops is None:
            crops = [np.empty((len(images),) + part.shape[1:], dtype=part.dtype)
                     for part in parts]
        for crop, part in zip(crops, parts):
            crop[chunk] = part
    return [_l1_mean(crop).item() for crop in crops]


def image_terms(images: np.ndarray, slots: Tensor, ops: RotationOperators, draws,
                margin: int) -> Tensor:
    """[equivariance, reconstruction] of images[B, 1, H, W], each summed over the (s, r)
    ``draws``, as one graph node.

    The forward is ``_draw_crops``. Both values and the gradient into ``slots``
    are bitwise those of summing the graph-level reference terms over the draws
    (``tests/oracles.py``): the forward runs the same array operations, and the
    backward replays the graph's adjoints on arrays, draw by draw in draw order,
    adding each draw's slot gradient to ``slots`` as that draw's graph would.
    The im2col columns of the images and of each rot_s, then those of each
    draw's reconstruction input, are kept for backward's grad-w while their
    total fits ``tensor._COLUMN_BYTES``; past it they are rebuilt. Under
    ``no_grad``, or for constant ``slots``, the node keeps nothing.
    """
    draws = list(draws)
    if not draws:
        raise ValueError("image_terms needs at least one (s, r) draw")
    if images.ndim != 4 or images.shape[1] != 1:
        raise ValueError(f"image_terms expects images [B, 1, H, W], got {images.shape}")
    order, n, k, _ = slots.data.shape
    kernels = slots.data.reshape(order, n, 1, k, k)
    record = T._GRAD_ENABLED and slots.requires_grad
    budget = [T._COLUMN_BYTES if record else 0]

    def columns(x):
        """x's columns as one chunk, kept while they fit the budget; None to rebuild them."""
        size = x.size * k * k * x.itemsize
        if size > budget[0]:
            return None
        budget[0] -= size
        chunks = list(T._column_blocks(x, k, len(x)))
        assert len(chunks) == 1  # a kept block is not overwritten by a next one
        return chunks

    sl = T._crop_slice(images.shape, margin)
    batch, _, h, w = images[sl].shape
    scale = 1.0 / (batch * h * w)
    saved = []
    sums = None
    for inputs, crop_e, crop_r in _draw_crops(images, kernels, ops, draws, sl,
                                              ("equiv", "rec"), columns):
        equiv, rec = _l1_mean(crop_e), _l1_mean(crop_r)
        sums = (equiv, rec) if sums is None else (sums[0] + equiv, sums[1] + rec)
        if record:
            saved.append(inputs + (np.sign(crop_e), np.sign(crop_r)))

    def backward(g):
        ge, gr = g[0, ...] * scale, g[1, ...] * scale
        for (s, j, r, image_columns, turned, turned_cols, response, response_cols,
             sign_e, sign_r) in saved:
            # the crop and L1 adjoints of both differences, then of their convolutions
            full_e = np.zeros(images.shape[:1] + (n,) + images.shape[2:], dtype=images.dtype)
            full_e[sl] = ge * sign_e
            full_r = np.zeros_like(images)
            full_r[sl] = gr * sign_r
            grad_tc = -full_r
            grad_kernel = T._correlate_grad_w(full_e, turned, k, turned_cols).reshape(n, 1, k, k)
            grad_flipped = T._correlate_grad_w(grad_tc, response, k, response_cols)
            grad_kernel += T._adjoint_kernel(grad_flipped.reshape(1, n, k, k))
            grad_response = ops.apply(-full_e + T._correlate(grad_tc, kernels[r]), s,
                                      transpose=True)
            grad_slots = np.zeros_like(kernels)
            grad_slots[j] += T._correlate_grad_w(grad_response, images, k,
                                                 image_columns).reshape(n, 1, k, k)
            grad_slots[r] += grad_kernel
            T.accumulate_grad(slots, grad_slots.reshape(slots.data.shape))

    return Tensor.from_op(np.array(sums), (slots,), backward, "image_terms")


# The one-draw terms have no caller in the library; ``perfbench/tracer.py`` times them by name.
def equivariance_term(images: np.ndarray, slots: Tensor, ops: RotationOperators,
                      s: int, r: int, margin: int) -> Tensor:
    """The equivariance term of one (s, r) draw on images[B, 1, H, W], as a graph scalar."""
    return T.take_slot(image_terms(images, slots, ops, [(s, r)], margin), 0)


def reconstruction_term(images: np.ndarray, slots: Tensor, ops: RotationOperators,
                        s: int, r: int, margin: int) -> Tensor:
    """The reconstruction term of one (s, r) draw on images[B, 1, H, W], as a graph scalar."""
    return T.take_slot(image_terms(images, slots, ops, [(s, r)], margin), 1)


def orthogonality_term(slots: Tensor) -> Tensor:
    """Sum over orientations of || E_r E_r^T - I ||_1, as one batched Gram."""
    order, n, k, _ = slots.data.shape
    flat = T.reshape(slots, (order, n, k * k))
    gram = T.matmul(flat, T.transpose(flat, (0, 2, 1)))
    return T.l1_norm(gram - Tensor(np.eye(n, dtype=slots.data.dtype)))


def _ops_for(images: np.ndarray, config: PretrainConfig) -> RotationOperators:
    return RotationOperators(images.shape[-1], config.order, "gaussian", config.sigma)


def _stored(images, basis: Basis, config: PretrainConfig | None, dtype: str) -> tuple:
    """(config, slot stack, image array, rotation operators, crop margin) of a stored basis
    on an image batch."""
    config = config or PretrainConfig(order=basis.order, n_elements=basis.n_elements,
                                      kernel_size=basis.kernel_size)
    if config.order != basis.order:
        raise ValueError(f"config order {config.order} does not match the basis order "
                         f"{basis.order}")
    arr = corpus_images(images, dtype)
    return (config, basis.elements.astype(dtype), arr, _ops_for(arr, config),
            crop_margin(arr.shape[-1], config.crop_fraction))


def total_loss(images, basis: Basis, s: int, r: int,
               config: PretrainConfig | None = None,
               dtype: str = "float64") -> dict:
    """All three terms of a stored basis on an image batch plus their weighted sum, as floats.

    Both image terms come from one ``_draw_crops`` pass per ``config.batch_size``
    images (``_chunked_terms``), bitwise equal to their full-batch values. The
    orthogonality term is the basis' ``orthogonality_defect`` summed over
    orientations, in float64.
    """
    config, slots, arr, ops, margin = _stored(images, basis, config, dtype)
    le, lr = _chunked_terms(arr, slots, ops, s, r, margin, config.batch_size, ("equiv", "rec"))
    we, wo, wr = config.loss_weights
    lo = sum(orthogonality_defect(basis, o) for o in range(basis.order))
    return {"equiv": le, "orth": lo, "rec": lr,
            "total": we * le + wo * lo + wr * lr}


def equivariance_loss(images, basis: Basis, s: int, r: int,
                      config: PretrainConfig | None = None,
                      dtype: str = "float64") -> float:
    """The equivariance term of ``total_loss``, without the other two; it convolves
    only for that term, ``config.batch_size`` images at a time."""
    config, slots, arr, ops, margin = _stored(images, basis, config, dtype)
    return _chunked_terms(arr, slots, ops, s, r, margin, config.batch_size, ("equiv",))[0]


def reconstruction_loss(images, basis: Basis, s: int, r: int,
                        config: PretrainConfig | None = None,
                        dtype: str = "float64") -> float:
    """The reconstruction term of ``total_loss``, without the other two; it convolves
    only for that term, ``config.batch_size`` images at a time."""
    config, slots, arr, ops, margin = _stored(images, basis, config, dtype)
    return _chunked_terms(arr, slots, ops, s, r, margin, config.batch_size, ("rec",))[0]


def _probe_equiv(images: np.ndarray, param: Tensor, config: PretrainConfig,
                 ops: RotationOperators, margin: int) -> float:
    """Sampled 45-degree equivariance loss (s = r = one group step) on the first
    ``_N_PROBE`` images.

    Like ``equivariance_loss`` it runs only that term, graph-free and
    ``config.batch_size`` images at a time, so the probe holds no more images'
    maps than a training step; the value is bitwise the full-batch graph's.
    """
    slots = _quarter_turn_stack(param.data) if config.partial else param.data
    return _chunked_terms(images[:_N_PROBE], slots, ops, 1, 1, margin, config.batch_size,
                          ("equiv",))[0]


def pretrain(corpus, config: PretrainConfig) -> PretrainResult:
    """Learn a basis by minimizing the summed losses over the corpus.

    Returns the basis plus per-epoch loss means and the sampled 45-degree
    equivariance probe before and after training.
    """
    rng = np.random.default_rng(config.seed)
    images = corpus_images(corpus, config.dtype, rng)
    ops = _ops_for(images, config)
    margin = crop_margin(images.shape[-1], config.crop_fraction)

    n_slots = quarter_stride(config.order) if config.partial else config.order
    param = Tensor(initialize_elements(config.n_elements, config.kernel_size,
                                       n_slots, rng).astype(config.dtype),
                   requires_grad=True)
    we, wo, wr = config.loss_weights
    initial_equiv_45 = _probe_equiv(images, param, config, ops, margin)

    pairs_all = [(s, r) for s in range(config.order) for r in range(config.order)]

    def batch_loss(take):
        draws = pairs_all if config.sum_all_pairs else \
            [(int(rng.integers(config.order)), int(rng.integers(config.order)))]
        slots = basis_slots(param, config.partial)
        terms = image_terms(images[take], slots, ops, draws, margin)
        le, lr = T.take_slot(terms, 0), T.take_slot(terms, 1)
        lo = orthogonality_term(slots)
        loss = T.scale(le, we) + T.scale(lo, wo) + T.scale(lr, wr)
        return loss, [le.item(), lo.item(), lr.item(), loss.item()], 1

    epochs = list(_run_epochs([param], config, len(images), rng, batch_loss,
                              _LOSS_FIELDS, PretrainDivergence, drop_last=True))
    fingerprint = _config_fingerprint(config)
    if config.partial:
        basis = populate_partial(param.data.astype(np.float64), config.order, fingerprint)
    else:
        kind = "overcomplete" if config.n_elements > config.kernel_size ** 2 else "full"
        basis = Basis(param.data.astype(np.float64), kind, fingerprint)
    dead = basis.degenerate_elements()
    if dead:
        raise PretrainDivergence(f"training produced all-zero basis elements at "
                                 f"(orientation, element) {dead[:4]}")
    return PretrainResult(basis, epochs, initial_equiv_45,
                          _probe_equiv(images, param, config, ops, margin))


def _config_fingerprint(config: PretrainConfig) -> bytes:
    import hashlib
    import json
    payload = json.dumps(asdict(config), sort_keys=True).encode("ascii")
    return hashlib.sha256(payload).digest()


def write_loss_csv(rows, path) -> None:
    write_csv(path, ["epoch", *_LOSS_FIELDS], rows)
