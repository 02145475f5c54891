"""Offline basis learning: drive the rotated-basis losses over an image corpus.

Each minibatch draws one (image-rotation, filter-rotation) index pair, builds
the three losses on the live basis parameters, and takes one AMSGrad step.
The basis at every orientation is one stacked ``[order, n, k, k]`` tensor.
With ``partial=True`` only the orientations below a quarter turn are free
parameters; the rest are exact 90 degree copies inside the same graph, so the
quarter-turn tying holds bitwise after every step.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .basis import Basis, initialize_elements, populate_partial, quarter_stride
from .fileio import write_csv
from .groups import RotationOperators, check_crop_fraction, check_odd_size, crop_margin
from .optim import _run_epochs
from .tensor import Tensor


_LOSS_FIELDS = ("L_equiv", "L_orth", "L_rec", "L_total")


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
    interp_kernel_size: int = 3
    crop_fraction: float = 0.25
    loss_weights: tuple = (1.0, 1.0, 1.0)
    sum_all_pairs: bool = False
    seed: int = 0
    dtype: str = "float32"

    def __post_init__(self):
        check_odd_size("kernel_size", self.kernel_size)
        for name in ("n_elements", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        check_crop_fraction(self.crop_fraction)
        if self.order % 4:
            raise ValueError("group order must be divisible by 4")
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


def _rotate(x: Tensor, ops: RotationOperators, r: int) -> Tensor:
    r = r % ops.order
    if r == 0:
        return x
    if ops.is_exact(r):
        return T.rot90_spatial(x, (4 * r) // ops.order)
    size = ops.size
    return T.spatial_linear_map(x, lambda m: ops.apply_flat(m, r),
                                lambda m: ops.apply_flat_t(m, r), (size, size))


def pair_maps(images: Tensor, slots: Tensor, ops: RotationOperators,
              s: int, r: int) -> tuple:
    """(rot_s(x), rot_s(correlate(x, E_{r-s})), slot-r kernel [n, 1, k, k]) for one draw.

    Both image terms compare these three, so one draw builds them once.
    """
    order, n, k, _ = slots.data.shape
    kernels = T.reshape(slots, (order, n, 1, k, k))
    rotated = _rotate(images, ops, s)
    response = T.correlate2d(images, T.take_slot(kernels, (r - s) % order))
    return rotated, _rotate(response, ops, s), T.take_slot(kernels, r % order)


def _mean_abs(diff: Tensor, margin: int) -> Tensor:
    """Sum of |diff| over the cropped interior, per image and retained pixel."""
    diff = T.crop2d(diff, margin)
    batch, _, h, w = diff.data.shape
    return T.scale(T.l1_norm(diff), 1.0 / (batch * h * w))


def equivariance_term(rotated: Tensor, response: Tensor, kernel: Tensor,
                      margin: int) -> Tensor:
    """L1 gap between convolve-then-rotate and rotate-then-convolve, cropped."""
    return _mean_abs(T.correlate2d(rotated, kernel) - response, margin)


def reconstruction_term(rotated: Tensor, response: Tensor, kernel: Tensor,
                        margin: int) -> Tensor:
    """L1 gap between the rotated image and its filter/transposed-filter round trip."""
    return _mean_abs(rotated - T.transpose_correlate2d(response, kernel), margin)


def orthogonality_term(slots: Tensor) -> Tensor:
    """Sum over orientations of || E_r E_r^T - I ||_1, as one batched Gram."""
    order, n, k, _ = slots.data.shape
    flat = T.reshape(slots, (order, n, k * k))
    gram = T.matmul(flat, T.transpose(flat, (0, 2, 1)))
    return T.l1_norm(gram - Tensor(np.eye(n, dtype=slots.data.dtype)))


def _ops_for(images: np.ndarray, config: PretrainConfig) -> RotationOperators:
    return RotationOperators(images.shape[-1], config.order, "gaussian",
                             config.sigma, config.interp_kernel_size)


def _stored_pair(images, basis: Basis, s: int, r: int,
                 config: PretrainConfig | None, dtype: str) -> tuple:
    """(config, slots, pair maps, crop margin) of a stored basis on an image batch."""
    config = config or PretrainConfig(order=basis.order, n_elements=basis.n_elements,
                                      kernel_size=basis.kernel_size)
    arr = corpus_images(images, dtype)
    slots = Tensor(basis.elements.astype(dtype))
    maps = pair_maps(Tensor(arr), slots, _ops_for(arr, config), s, r)
    return config, slots, maps, crop_margin(arr.shape[-1], config.crop_fraction)


def total_loss(images, basis: Basis, s: int, r: int,
               config: PretrainConfig | None = None,
               dtype: str = "float64") -> dict:
    """All three terms of a stored basis on an image batch plus their weighted sum, as floats."""
    config, slots, maps, margin = _stored_pair(images, basis, s, r, config, dtype)
    we, wo, wr = config.loss_weights
    le = equivariance_term(*maps, margin).item()
    lo = orthogonality_term(slots).item()
    lr = reconstruction_term(*maps, margin).item()
    return {"equiv": le, "orth": lo, "rec": lr,
            "total": we * le + wo * lo + wr * lr}


def equivariance_loss(images, basis: Basis, s: int, r: int,
                      config: PretrainConfig | None = None,
                      dtype: str = "float64") -> float:
    """The equivariance term of ``total_loss``, without the other two."""
    _, _, maps, margin = _stored_pair(images, basis, s, r, config, dtype)
    return equivariance_term(*maps, margin).item()


def reconstruction_loss(images, basis: Basis, s: int, r: int,
                        config: PretrainConfig | None = None,
                        dtype: str = "float64") -> float:
    """The reconstruction term of ``total_loss``, without the other two."""
    _, _, maps, margin = _stored_pair(images, basis, s, r, config, dtype)
    return reconstruction_term(*maps, margin).item()


def _probe_equiv(images: np.ndarray, param: Tensor, config: PretrainConfig,
                 ops: RotationOperators, margin: int, n_probe: int = 200) -> float:
    """Sampled 45-degree equivariance loss (s = r = one group step)."""
    with T.no_grad():
        maps = pair_maps(Tensor(images[:n_probe]), basis_slots(param, config.partial),
                         ops, 1, 1)
        return equivariance_term(*maps, margin).item()


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
        chunk = Tensor(images[take])
        draws = pairs_all if config.sum_all_pairs else \
            [(int(rng.integers(config.order)), int(rng.integers(config.order)))]
        slots = basis_slots(param, config.partial)
        maps = [pair_maps(chunk, slots, ops, s, r) for s, r in draws]
        e_terms = [equivariance_term(*m, margin) for m in maps]
        r_terms = [reconstruction_term(*m, margin) for m in maps]
        le, lr = sum(e_terms[1:], e_terms[0]), sum(r_terms[1:], r_terms[0])
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
