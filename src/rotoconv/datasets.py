"""MNIST-IDX and CIFAR-10 binary parsing, subsetting, synthetic corpora.

Loaders validate magic numbers and record sizes before touching pixel data and
scale everything to [0, 1] float32 in one allocation. Each load reads its
source files once and parses them; nothing is written to disk.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class DatasetError(Exception):
    """Base class for dataset parsing failures."""


class MissingFileError(DatasetError):
    pass


class BadMagicError(DatasetError):
    pass


class TruncatedRecordError(DatasetError):
    pass


@dataclass
class LabeledImageSet:
    images: np.ndarray  # [M, C, H, W] in [0, 1]
    labels: np.ndarray  # [M] integers
    split: str
    n_classes: int = 10

    def __post_init__(self):
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise ValueError(f"labels must have an integer dtype, got {self.labels.dtype}")
        if self.images.shape[0] != self.labels.shape[0]:
            raise ValueError("image/label count mismatch")
        if self.images.shape[0] == 0:
            raise ValueError("empty dataset")
        if self.labels.min() < 0 or self.labels.max() >= self.n_classes:
            raise ValueError("label outside [0, n_classes)")

    def __len__(self):
        return self.images.shape[0]


def _read_bytes(path: Path) -> bytes:
    if not path.exists():
        gz = path.with_name(path.name + ".gz")
        if gz.exists():
            with gzip.open(gz, "rb") as fh:
                return fh.read()
        raise MissingFileError(f"expected dataset file {path} (or {path.name}.gz)")
    return path.read_bytes()


# -- IDX -------------------------------------------------------------------------

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def read_idx_images(path) -> np.ndarray:
    blob = _read_bytes(Path(path))
    if len(blob) < 16:
        raise TruncatedRecordError(f"{path}: IDX image header truncated")
    magic, count, rows, cols = struct.unpack(">IIII", blob[:16])
    if magic != _IDX_IMAGES_MAGIC:
        raise BadMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{_IDX_IMAGES_MAGIC:08x}")
    expect = 16 + count * rows * cols
    if len(blob) != expect:
        raise TruncatedRecordError(f"{path}: {len(blob)} bytes, expected {expect}")
    pixels = np.frombuffer(blob, dtype=np.uint8, offset=16)
    return pixels.reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    blob = _read_bytes(Path(path))
    if len(blob) < 8:
        raise TruncatedRecordError(f"{path}: IDX label header truncated")
    magic, count = struct.unpack(">II", blob[:8])
    if magic != _IDX_LABELS_MAGIC:
        raise BadMagicError(f"{path}: magic 0x{magic:08x}, expected 0x{_IDX_LABELS_MAGIC:08x}")
    if len(blob) != 8 + count:
        raise TruncatedRecordError(f"{path}: {len(blob)} bytes, expected {8 + count}")
    return np.frombuffer(blob, dtype=np.uint8, offset=8).copy()


_MNIST_FILES = {
    "train": ("train-images-idx3-ubyte", "train-labels-idx1-ubyte"),
    "test": ("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte"),
}


def load_mnist(directory, split: str = "train") -> LabeledImageSet:
    """28x28 grayscale digits from the standard IDX pair in ``directory``."""
    if split not in _MNIST_FILES:
        raise ValueError(f"split must be train or test, got {split!r}")
    image_name, label_name = _MNIST_FILES[split]
    images = read_idx_images(Path(directory) / image_name)
    labels = read_idx_labels(Path(directory) / label_name)
    if images.shape[0] != labels.shape[0]:
        raise TruncatedRecordError("image and label counts disagree")
    return LabeledImageSet(np.divide(images, np.float32(255), dtype=np.float32)[:, None],
                           labels.astype(np.int64), split)


# -- CIFAR-10 ----------------------------------------------------------------------

_CIFAR_RECORD = 1 + 3 * 32 * 32
_CIFAR_FILES = {
    "train": [f"data_batch_{i}.bin" for i in range(1, 6)],
    "test": ["test_batch.bin"],
}


def _cifar_paths(directory: Path, split: str) -> list:
    names = _CIFAR_FILES[split]
    nested = directory / "cifar-10-batches-bin"
    base = nested if (nested / names[0]).exists() or (nested / (names[0] + ".gz")).exists() \
        else directory
    return [base / n for n in names]


def read_cifar_batch(path) -> tuple:
    blob = _read_bytes(Path(path))
    if len(blob) == 0 or len(blob) % _CIFAR_RECORD:
        raise TruncatedRecordError(
            f"{path}: {len(blob)} bytes is not a whole number of {_CIFAR_RECORD}-byte records")
    records = np.frombuffer(blob, dtype=np.uint8).reshape(-1, _CIFAR_RECORD)
    labels = records[:, 0].copy()
    if labels.max() > 9:
        raise BadMagicError(f"{path}: label byte {labels.max()} out of range, not CIFAR-10")
    images = records[:, 1:].reshape(-1, 3, 32, 32)
    return images, labels


def load_cifar10(directory, split: str = "train") -> LabeledImageSet:
    """32x32 RGB images from the binary batch files in ``directory``."""
    if split not in _CIFAR_FILES:
        raise ValueError(f"split must be train or test, got {split!r}")
    images, labels = zip(*(read_cifar_batch(p) for p in _cifar_paths(Path(directory), split)))
    # Casting inside concatenate skips a uint8 copy of the whole split.
    pixels = np.concatenate(images, dtype=np.float32)
    pixels /= np.float32(255)
    return LabeledImageSet(pixels, np.concatenate(labels).astype(np.int64), split)


# -- subsetting -----------------------------------------------------------------


def subset(dataset: LabeledImageSet, n: int, seed: int = 0) -> LabeledImageSet:
    """Class-stratified deterministic sample of ``n`` items, original order kept."""
    m = len(dataset)
    if n > m:
        raise ValueError(f"requested {n} of {m} items")
    if n == m:
        return LabeledImageSet(dataset.images, dataset.labels, dataset.split,
                               dataset.n_classes)
    rng = np.random.default_rng(seed)
    classes = dataset.n_classes
    base, extra = divmod(n, classes)
    lucky = rng.permutation(classes)[:extra]
    chosen = []
    for c in range(classes):
        want = base + (1 if c in lucky else 0)
        members = np.flatnonzero(dataset.labels == c)
        if len(members) < want:
            raise ValueError(f"class {c} has {len(members)} items, need {want}")
        chosen.append(rng.choice(members, size=want, replace=False))
    order = np.sort(np.concatenate(chosen))
    return LabeledImageSet(dataset.images[order], dataset.labels[order],
                           dataset.split, dataset.n_classes)


# -- synthetic corpora (demos and desk-scale tests) ---------------------------------


def synthetic_image_corpus(n: int, size: int = 20, seed: int = 0) -> np.ndarray:
    """Smooth random blob images in [0, 1], shape [n, size, size]."""
    rng = np.random.default_rng(seed)
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.zeros((n, size, size))
    for i in range(n):
        for _ in range(rng.integers(2, 5)):
            cy, cx = rng.uniform(2, size - 2, 2)
            sy, sx = rng.uniform(1.0, size / 4, 2)
            amp = rng.uniform(0.4, 1.0)
            images[i] += amp * np.exp(-((ys - cy) ** 2 / (2 * sy ** 2)
                                        + (xs - cx) ** 2 / (2 * sx ** 2)))
    peak = images.reshape(n, -1).max(axis=1)
    peak[peak == 0] = 1.0
    return (images / peak[:, None, None]).astype(np.float32)


def synthetic_labeled_set(n: int, size: int = 16, n_classes: int = 10,
                          seed: int = 0, channels: int = 1,
                          split: str = "train") -> LabeledImageSet:
    """Classification toy set: jittered noisy copies of per-class blob templates.

    The templates depend on ``seed`` alone, so every split of one seed has the
    same classes; jitter, noise and order depend on ``seed`` and ``split``.
    """
    rng = np.random.default_rng(seed if split == "train" else [seed, *split.encode()])
    templates = synthetic_image_corpus(n_classes, size, seed=seed + 1)
    labels = np.arange(n) % n_classes
    images = np.zeros((n, channels, size, size), dtype=np.float32)
    for i, c in enumerate(labels):
        img = templates[c].copy()
        dy, dx = rng.integers(-2, 3, 2)
        img = np.roll(np.roll(img, dy, axis=0), dx, axis=1)
        img = img * rng.uniform(0.8, 1.2) + rng.normal(0, 0.05, img.shape)
        images[i] = np.clip(img, 0.0, 1.0)[None] if channels == 1 \
            else np.clip(np.stack([img] * channels), 0.0, 1.0)
    perm = rng.permutation(n)
    return LabeledImageSet(images[perm], labels[perm].astype(np.int64), split, n_classes)
