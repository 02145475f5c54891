"""Task training on a frozen basis, with the standard augmentation menu.

Only layer coefficients, normalization parameters, and the classifier head are
updated; the basis is an input, never a parameter. Runs are deterministic
given (config, seed, data) on a fixed platform and BLAS thread count: the
thread count changes how GEMMs sum, so float64 parameters differ in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .datasets import LabeledImageSet
from .fileio import write_csv
from .groups import rotation_matrix
from .network import Model
from .optim import _run_epochs, check_run_config
from .tensor import Tensor


class TrainingDivergence(RuntimeError):
    """Loss became non-finite during task training."""


@dataclass
class TrainConfig:
    epochs: int = 100
    learning_rate: float = 1e-3
    weight_decay: float = 1e-6
    batch_size: int = 100
    flip: bool = False
    color_normalize: bool = False
    max_translate: int = 0  # up to 4 pixels each way
    rotation_augment: str = "none"  # none | quarter | eighth | full
    seed: int = 0

    def __post_init__(self):
        if self.rotation_augment not in ("none", "quarter", "eighth", "full"):
            raise ValueError(f"unknown rotation_augment {self.rotation_augment!r}")
        if not 0 <= self.max_translate <= 4:
            raise ValueError("max_translate must be within [0, 4]")
        check_run_config(self)


@dataclass
class EvalResult:
    accuracy: float
    confusion: np.ndarray  # [true, predicted]
    n: int

    @property
    def error(self) -> float:
        return 1.0 - self.accuracy


def channel_stats(images: np.ndarray) -> tuple:
    """Per-channel mean and standard deviation over the whole set."""
    mean = images.mean(axis=(0, 2, 3))
    std = images.std(axis=(0, 2, 3))
    std = np.where(std > 0, std, 1.0)
    return mean.astype(np.float64), std.astype(np.float64)


def normalize(images: np.ndarray, stats) -> np.ndarray:
    mean, std = stats
    shape = (1, -1, 1, 1)
    return ((images - mean.reshape(shape)) / std.reshape(shape)).astype(images.dtype)


def _translate(image: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Shift with zero fill (channels-first single image)."""
    out = np.zeros_like(image)
    h, w = image.shape[-2:]
    ys = slice(max(dy, 0), h + min(dy, 0))
    xs = slice(max(dx, 0), w + min(dx, 0))
    ys_src = slice(max(-dy, 0), h + min(-dy, 0))
    xs_src = slice(max(-dx, 0), w + min(-dx, 0))
    out[..., ys, xs] = image[..., ys_src, xs_src]
    return out


def augment(images: np.ndarray, config: TrainConfig, rng: np.random.Generator,
            stats=None) -> np.ndarray:
    """Random flips/translations/rotations, then optional normalization.

    With every flag off this is the identity. Quarter-turn rotation mode only
    ever applies exact grid permutations.
    """
    out = images
    b = images.shape[0]
    if config.flip:
        out = out.copy()
        mask = rng.random(b) < 0.5
        out[mask] = out[mask][..., ::-1]
    if config.max_translate > 0:
        t = config.max_translate
        offsets = rng.integers(-t, t + 1, size=(b, 2))
        out = np.stack([_translate(img, int(dy), int(dx))
                        for img, (dy, dx) in zip(out, offsets)])
    if config.rotation_augment != "none":
        out = _rotate_batch(out, config.rotation_augment, rng)
    if config.color_normalize and stats is not None:
        out = normalize(out, stats)
    return out


def _rotate_batch(images: np.ndarray, mode: str, rng: np.random.Generator) -> np.ndarray:
    """Rotate each image by its own random angle; the modes differ only in the draw."""
    b = images.shape[0]
    if mode == "quarter":
        angles = 90.0 * rng.integers(0, 4, size=b)
    elif mode == "eighth":
        angles = 45.0 * rng.integers(0, 8, size=b)
    else:
        angles = np.degrees(rng.uniform(0.0, 2.0 * math.pi, size=b))
    out = np.empty_like(images)
    for angle in np.unique(angles):
        pick = angles == angle
        out[pick] = rotate_images(images[pick], float(angle))
    return out


def rotate_images(images: np.ndarray, angle_deg: float) -> np.ndarray:
    """Rotate a whole [..., H, W] stack of square images by one angle (Gaussian).

    Quarter turns are exact grid permutations.
    """
    size = images.shape[-1]
    if images.shape[-2] != size:
        raise ValueError(f"rotation needs square images, got {images.shape[-2]}x{size}")
    m = rotation_matrix(size, math.radians(angle_deg))
    flat = images.reshape(-1, size * size).T
    return np.ascontiguousarray((m.astype(images.dtype) @ flat).T).reshape(images.shape)


def train(model: Model, train_set: LabeledImageSet, config: TrainConfig,
          val_set: LabeledImageSet | None = None) -> list:
    """AMSGrad task training; returns per-epoch rows of loss/accuracy."""
    rng = np.random.default_rng(config.seed)
    if config.color_normalize and model.input_stats is None:
        model.input_stats = channel_stats(train_set.images)
    images = train_set.images.astype(model.dtype, copy=False)

    def batch_loss(take):
        y = train_set.labels[take]
        x = augment(images[take], config, rng, model.input_stats)
        logits = model.forward(Tensor(x), training=True)
        loss = T.softmax_cross_entropy(logits, y)
        correct = int((logits.data.argmax(axis=1) == y).sum())
        return loss, [loss.item() * len(take), correct], len(take)

    rows = []
    for row in _run_epochs(model.parameters(), config, len(train_set), rng, batch_loss,
                           ("train_loss", "train_acc"), TrainingDivergence):
        if val_set is not None:
            row["val_acc"] = evaluate(model, val_set).accuracy
        rows.append(row)
    return rows


def evaluate(model: Model, dataset: LabeledImageSet, batch_size: int = 200) -> EvalResult:
    """Frozen-statistics evaluation: accuracy plus per-class confusion counts.

    Holds one batch at a time: each batch is converted to the model's dtype
    (a view when it already is) and normalized on its own, so the set is never
    copied or normalized whole.
    """
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty set")
    k = dataset.n_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    with T.no_grad():
        for start in range(0, len(dataset), batch_size):
            x = dataset.images[start:start + batch_size].astype(model.dtype, copy=False)
            if model.input_stats is not None:
                x = normalize(x, model.input_stats)
            y = dataset.labels[start:start + batch_size]
            logits = model.forward(Tensor(x), training=False)
            pred = logits.data.argmax(axis=1)
            np.add.at(confusion, (y, pred), 1)
    accuracy = float(np.trace(confusion)) / len(dataset)
    return EvalResult(accuracy, confusion, len(dataset))


def write_training_csv(rows, path) -> None:
    fields = ["epoch", "train_loss", "train_acc"]
    if rows and "val_acc" in rows[0]:
        fields.append("val_acc")
    write_csv(path, fields, rows)
