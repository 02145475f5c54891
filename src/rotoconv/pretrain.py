"""Offline basis learning: drive the rotated-basis losses over an image corpus.

Each minibatch draws one (image-rotation, filter-rotation) index pair, builds
the three losses on the live basis parameters, and takes one AMSGrad step.
With ``partial=True`` only the orientations below a quarter turn are free
parameters; the rest are exact 90 degree copies inside the same graph, so the
quarter-turn tying holds bitwise after every step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, asdict

import numpy as np

from . import tensor as T
from .basis import Basis, initialize_elements, populate_partial, quarter_stride
from .fileio import atomic_write
from .groups import RotationOperators
from .optim import AMSGrad
from .tensor import Tensor


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
        if not 0.0 < self.crop_fraction < 0.5:
            raise ValueError("crop_fraction must lie in (0, 1/2)")
        if self.order % 4:
            raise ValueError("group order must be divisible by 4")


@dataclass
class PretrainResult:
    basis: Basis
    epochs: list = field(default_factory=list)
    initial_equiv_45: float = 0.0
    final_equiv_45: float = 0.0


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


def crop_margin(size: int, fraction: float) -> int:
    m = int(size * fraction)
    if size - 2 * m < 1:
        m = (size - 1) // 2
    return m


def basis_slots(param: Tensor, order: int, partial: bool) -> list:
    """Per-orientation element tensors, tied by exact rotation when partial."""
    if not partial:
        return [T.take_slot(param, r) for r in range(order)]
    stride = quarter_stride(order)
    base = [T.take_slot(param, rho) for rho in range(stride)]
    return [T.rot90_spatial(base[r % stride], r // stride) for r in range(order)]


def _rotate(x: Tensor, ops: RotationOperators, r: int) -> Tensor:
    r = r % ops.order
    if r == 0:
        return x
    if ops.is_exact(r):
        return T.rot90_spatial(x, (4 * r) // ops.order)
    size = ops.size
    return T.spatial_linear_map(x, lambda m: ops.apply_flat(m, r),
                                lambda m: ops.apply_flat_t(m, r), (size, size))


def _as_kernel(slot: Tensor) -> Tensor:
    n, k, _ = slot.data.shape
    return T.reshape(slot, (n, 1, k, k))


def equivariance_term(images: Tensor, slots, ops: RotationOperators,
                      s: int, r: int, margin: int) -> Tensor:
    """L1 gap between convolve-then-rotate and rotate-then-convolve, cropped."""
    order = len(slots)
    branch_a = T.correlate2d(_rotate(images, ops, s), _as_kernel(slots[r % order]))
    inner = T.correlate2d(images, _as_kernel(slots[(r - s) % order]))
    branch_b = _rotate(inner, ops, s)
    diff = T.crop2d(branch_a - branch_b, margin)
    batch = images.data.shape[0]
    retained = diff.data.shape[-1] * diff.data.shape[-2]
    return T.scale(T.l1_norm(diff), 1.0 / (batch * retained))


def reconstruction_term(images: Tensor, slots, ops: RotationOperators,
                        s: int, r: int, margin: int) -> Tensor:
    """L1 gap between the rotated image and its filter/transposed-filter round trip."""
    order = len(slots)
    target = T.crop2d(_rotate(images, ops, s), margin)
    resp = T.correlate2d(images, _as_kernel(slots[(r - s) % order]))
    recon = T.transpose_correlate2d(_rotate(resp, ops, s), _as_kernel(slots[r % order]))
    diff = target - T.crop2d(recon, margin)
    batch = images.data.shape[0]
    retained = diff.data.shape[-1] * diff.data.shape[-2]
    return T.scale(T.l1_norm(diff), 1.0 / (batch * retained))


def orthogonality_term(slots) -> Tensor:
    """Sum over orientations of || E_r E_r^T - I ||_1."""
    total = None
    for slot in slots:
        n = slot.data.shape[0]
        taps = slot.data.shape[1] * slot.data.shape[2]
        flat = T.reshape(slot, (n, taps))
        gram = T.matmul(flat, T.transpose(flat, (1, 0)))
        term = T.l1_norm(gram - Tensor(np.eye(n, dtype=slot.data.dtype)))
        total = term if total is None else total + term
    return total


def _slots_from_basis(basis: Basis, dtype) -> list:
    param = Tensor(basis.elements.astype(dtype), requires_grad=False)
    return [T.take_slot(param, r) for r in range(basis.order)]


def _ops_for(images: np.ndarray, config: PretrainConfig) -> RotationOperators:
    return RotationOperators(images.shape[-1], config.order, "gaussian",
                             config.sigma, config.interp_kernel_size)


def _loss_inputs(images, basis: Basis, config: PretrainConfig | None, dtype: str):
    """The config, image batch, slots, rotation operators and crop margin the loss reports use."""
    config = config or PretrainConfig(order=basis.order, n_elements=basis.n_elements,
                                      kernel_size=basis.kernel_size)
    arr = corpus_images(images, dtype)
    return (config, Tensor(arr), _slots_from_basis(basis, dtype), _ops_for(arr, config),
            crop_margin(arr.shape[-1], config.crop_fraction))


def equivariance_loss(images, basis: Basis, s: int, r: int,
                      config: PretrainConfig | None = None,
                      dtype: str = "float64") -> float:
    """Evaluate the equivariance loss of a stored basis on an image batch."""
    _, x, slots, ops, margin = _loss_inputs(images, basis, config, dtype)
    return equivariance_term(x, slots, ops, s, r, margin).item()


def reconstruction_loss(images, basis: Basis, s: int, r: int,
                        config: PretrainConfig | None = None,
                        dtype: str = "float64") -> float:
    _, x, slots, ops, margin = _loss_inputs(images, basis, config, dtype)
    return reconstruction_term(x, slots, ops, s, r, margin).item()


def total_loss(images, basis: Basis, s: int, r: int,
               config: PretrainConfig | None = None,
               dtype: str = "float64") -> dict:
    """All three terms plus their weighted sum, as floats."""
    config, x, slots, ops, margin = _loss_inputs(images, basis, config, dtype)
    we, wo, wr = config.loss_weights
    le = equivariance_term(x, slots, ops, s, r, margin).item()
    lo = orthogonality_term(slots).item()
    lr = reconstruction_term(x, slots, ops, s, r, margin).item()
    return {"equiv": le, "orth": lo, "rec": lr,
            "total": we * le + wo * lo + wr * lr}


def _probe_equiv(images: np.ndarray, param: Tensor, config: PretrainConfig,
                 ops: RotationOperators, margin: int, n_probe: int = 200) -> float:
    """Sampled 45-degree equivariance loss (s = r = one group step)."""
    sample = Tensor(images[:n_probe])
    with T.no_grad():
        slots = basis_slots(param, config.order, config.partial)
        return equivariance_term(sample, slots, ops, 1, 1, margin).item()


def pretrain(corpus, config: PretrainConfig) -> PretrainResult:
    """Learn a basis by minimizing the summed losses over the corpus.

    Returns the basis plus per-epoch loss means and the sampled 45-degree
    equivariance probe before and after training.
    """
    rng = np.random.default_rng(config.seed)
    images = corpus_images(corpus, config.dtype, rng)
    n_images = images.shape[0]
    batch = min(config.batch_size, n_images)
    ops = _ops_for(images, config)
    margin = crop_margin(images.shape[-1], config.crop_fraction)

    n_slots = quarter_stride(config.order) if config.partial else config.order
    param = Tensor(initialize_elements(config.n_elements, config.kernel_size,
                                       n_slots, rng).astype(config.dtype),
                   requires_grad=True)
    optimizer = AMSGrad([param], config.learning_rate, config.weight_decay)
    we, wo, wr = config.loss_weights

    result = PretrainResult(basis=None)
    result.initial_equiv_45 = _probe_equiv(images, param, config, ops, margin)

    pairs_all = [(s, r) for s in range(config.order) for r in range(config.order)]
    for epoch in range(config.epochs):
        perm = rng.permutation(n_images)
        sums = {"equiv": 0.0, "orth": 0.0, "rec": 0.0, "total": 0.0}
        n_batches = 0
        for start in range(0, n_images - batch + 1, batch):
            chunk = Tensor(images[perm[start:start + batch]])
            draws = pairs_all if config.sum_all_pairs else \
                [(int(rng.integers(config.order)), int(rng.integers(config.order)))]
            slots = basis_slots(param, config.order, config.partial)
            le = None
            lr = None
            for s, r in draws:
                e_term = equivariance_term(chunk, slots, ops, s, r, margin)
                r_term = reconstruction_term(chunk, slots, ops, s, r, margin)
                le = e_term if le is None else le + e_term
                lr = r_term if lr is None else lr + r_term
            lo = orthogonality_term(slots)
            loss = T.scale(le, we) + T.scale(lo, wo) + T.scale(lr, wr)
            if not np.isfinite(loss.item()):
                raise PretrainDivergence(
                    f"non-finite loss at epoch {epoch}: equiv={le.item()} "
                    f"orth={lo.item()} rec={lr.item()}")
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            sums["equiv"] += le.item()
            sums["orth"] += lo.item()
            sums["rec"] += lr.item()
            sums["total"] += loss.item()
            n_batches += 1
        result.epochs.append({
            "epoch": epoch,
            "L_equiv": sums["equiv"] / max(n_batches, 1),
            "L_orth": sums["orth"] / max(n_batches, 1),
            "L_rec": sums["rec"] / max(n_batches, 1),
            "L_total": sums["total"] / max(n_batches, 1),
        })

    result.final_equiv_45 = _probe_equiv(images, param, config, ops, margin)
    fingerprint = _config_fingerprint(config)
    if config.partial:
        result.basis = populate_partial(param.data.astype(np.float64), config.order,
                                        fingerprint)
    else:
        kind = "overcomplete" if config.n_elements > config.kernel_size ** 2 else "full"
        result.basis = Basis(param.data.astype(np.float64), kind, fingerprint)
    dead = result.basis.degenerate_elements()
    if dead:
        raise PretrainDivergence(f"training produced all-zero basis elements at "
                                 f"(orientation, element) {dead[:4]}")
    return result


def _config_fingerprint(config: PretrainConfig) -> bytes:
    import hashlib
    import json
    payload = json.dumps(asdict(config), sort_keys=True).encode("ascii")
    return hashlib.sha256(payload).digest()


def write_loss_csv(rows, path) -> None:
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["epoch", "L_equiv", "L_orth",
                                                "L_rec", "L_total"])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
