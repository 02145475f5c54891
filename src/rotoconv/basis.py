"""Learned filter bases: storage, synthesis, population, baselines, file format.

A basis holds ``order x n_elements`` small square filters ``elements[r][i]``.
A layer's filters are never stored directly; they are synthesized as
``coefficients @ elements[r]``, so rotating a filter means switching to the
basis at another orientation while the coefficients stay fixed.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

from .fileio import atomic_write
from .groups import RotationOperators, rotate_exact90

KINDS = ("full", "partial", "overcomplete", "random", "gaussian", "bilinear")

_MAGIC = b"RCBS"
_VERSION = 1


class BasisFormatError(ValueError):
    """Raised for unreadable or corrupt basis files."""


@dataclass
class Basis:
    """elements[order, n_elements, k, k] plus how the orientations were made."""

    elements: np.ndarray
    kind: str
    config_fingerprint: bytes = b"\x00" * 32

    def __post_init__(self):
        self.elements = np.ascontiguousarray(self.elements, dtype=np.float64)
        if self.elements.ndim != 4:
            raise ValueError("elements must have shape [order, n_elements, k, k]")
        k = self.elements.shape[2]
        if k != self.elements.shape[3] or k % 2 == 0:
            raise ValueError(f"filters must be square with odd size, got {self.elements.shape[2:]}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if len(self.config_fingerprint) != 32:
            raise ValueError("config fingerprint must be 32 bytes")
        if self.kind == "partial":
            check_partial_tying(self.elements)

    @property
    def order(self) -> int:
        return self.elements.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[1]

    @property
    def kernel_size(self) -> int:
        return self.elements.shape[2]

    def flat(self, r: int) -> np.ndarray:
        """Orientation r as an [n_elements, k*k] matrix."""
        n, k = self.n_elements, self.kernel_size
        return self.elements[r % self.order].reshape(n, k * k)

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(struct.pack("<III", self.order, self.n_elements, self.kernel_size))
        h.update(self.kind.encode("ascii"))
        h.update(np.ascontiguousarray(self.elements, dtype="<f8").tobytes())
        return h.hexdigest()

    def degenerate_elements(self) -> list:
        """(orientation, element) pairs whose filter is identically zero."""
        zero = np.all(self.elements == 0.0, axis=(2, 3))
        return [(int(r), int(i)) for r, i in zip(*np.nonzero(zero))]


def synthesize(coefficients: np.ndarray, basis: Basis, r: int) -> np.ndarray:
    """Filter(s) at orientation r: contraction of coefficients against elements.

    ``coefficients[..., n_elements]`` yields filters of shape ``[..., k, k]``;
    the same coefficients give the rotated filter at every other ``r``.
    """
    coefficients = np.asarray(coefficients)
    if coefficients.shape[-1] != basis.n_elements:
        raise ValueError(f"coefficient length {coefficients.shape[-1]} does not match "
                         f"basis with {basis.n_elements} elements")
    k = basis.kernel_size
    out = coefficients @ basis.flat(r)
    return out.reshape(coefficients.shape[:-1] + (k, k))


def quarter_stride(order: int) -> int:
    """Index step corresponding to a 90 degree turn."""
    if order % 4:
        raise ValueError(f"group order {order} is not divisible by 4")
    return order // 4


def populate_partial(learned: np.ndarray, order: int = 8,
                     config_fingerprint: bytes = b"\x00" * 32) -> Basis:
    """Fill all orientations from slots learned on [0, 90) degrees.

    ``learned[order//4, n, k, k]`` are the orientations below one quarter turn;
    slot ``rho + q*order//4`` becomes ``rotate_exact90(learned[rho], q)``.
    """
    learned = np.ascontiguousarray(learned, dtype=np.float64)
    stride = quarter_stride(order)
    if learned.shape[0] != stride:
        raise ValueError(f"expected {stride} learned orientations for order {order}, "
                         f"got {learned.shape[0]}")
    return Basis(_quarter_turn_stack(learned), "partial", config_fingerprint)


def _quarter_turn_stack(learned: np.ndarray) -> np.ndarray:
    """``learned`` followed by its three quarter turns, stacked on the first axis."""
    return np.concatenate([rotate_exact90(learned, q) for q in range(4)])


def check_partial_tying(elements: np.ndarray) -> None:
    """Verify (bitwise) that quarter-turn slots are exact rotations of the base range."""
    stride = quarter_stride(elements.shape[0])
    tied = _quarter_turn_stack(elements[:stride]) == elements
    broken = np.flatnonzero(~tied.reshape(len(elements), -1).all(axis=1))
    if broken.size:
        slot = int(broken[0])
        raise ValueError(f"partial basis slot {slot} is not the exact "
                         f"quarter-turn of slot {slot % stride}")


def initialize_elements(n_elements: int, kernel_size: int, n_orientations: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Uniform(-1/k, 1/k) draws nudged one Newton-Schulz step toward orthonormal rows."""
    k = kernel_size
    e = rng.uniform(-1.0 / k, 1.0 / k, size=(n_orientations, n_elements, k, k))
    flat = e.reshape(n_orientations, n_elements, k * k)
    for r in range(n_orientations):
        m = flat[r]
        flat[r] = 1.5 * m - 0.5 * (m @ m.T @ m)
    return flat.reshape(e.shape)


def make_baseline_basis(kind: str, n_elements: int = 9, kernel_size: int = 3,
                        order: int = 8, zero_orientation: np.ndarray | None = None,
                        seed: int = 0) -> Basis:
    """Non-learned comparison bases.

    ``random``: i.i.d. orientations with no rotational relationship.
    ``gaussian``/``bilinear``: every orientation is the interpolated rotation
    of a supplied zero-orientation stack (quarter turns come out exact).
    """
    if kind == "random":
        rng = np.random.default_rng(seed)
        k = kernel_size
        elements = rng.uniform(-1.0 / k, 1.0 / k, size=(order, n_elements, k, k))
        return Basis(elements, "random")
    if kind in ("gaussian", "bilinear"):
        if zero_orientation is None:
            raise ValueError(f"{kind} baseline needs a zero-orientation basis stack")
        zero = np.ascontiguousarray(zero_orientation, dtype=np.float64)
        if zero.ndim != 3 or zero.shape[1] != zero.shape[2]:
            raise ValueError("zero_orientation must have shape [n_elements, k, k]")
        ops = RotationOperators(zero.shape[-1], order, kind)
        elements = np.stack([ops.apply(zero, r) for r in range(order)])
        return Basis(elements, kind)
    raise ValueError(f"unknown baseline kind {kind!r}")


def orthogonality_defect(basis: Basis, r: int) -> float:
    """Entrywise L1 distance of E_r E_r^T from the identity."""
    e = basis.flat(r)
    gram = e @ e.T
    return float(np.abs(gram - np.eye(basis.n_elements)).sum())


# -- file format -----------------------------------------------------------------
# magic, version u32, order u32, n u32, k u32, kind (16 bytes, NUL padded),
# config fingerprint (32 bytes), elements as little-endian float64, sha256 of
# everything above.


def save_basis(basis: Basis, path) -> None:
    kind_tag = basis.kind.encode("ascii")
    if len(kind_tag) > 16:
        raise ValueError("kind tag too long")
    header = _MAGIC + struct.pack("<IIII", _VERSION, basis.order,
                                  basis.n_elements, basis.kernel_size)
    header += kind_tag.ljust(16, b"\x00")
    header += basis.config_fingerprint
    body = np.ascontiguousarray(basis.elements, dtype="<f8").tobytes()
    digest = hashlib.sha256(header + body).digest()
    with atomic_write(path) as fh:
        fh.write(header + body + digest)


def load_basis(path) -> Basis:
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 + 16 + 16 + 32 + 32:
        raise BasisFormatError("file too short to be a basis")
    if blob[:4] != _MAGIC:
        raise BasisFormatError(f"bad magic {blob[:4]!r}")
    version, order, n, k = struct.unpack("<IIII", blob[4:20])
    if version != _VERSION:
        raise BasisFormatError(f"unsupported version {version}")
    n_bytes = order * n * k * k * 8
    if len(blob) != 68 + n_bytes + 32:
        raise BasisFormatError("truncated or oversized basis payload")
    digest = blob[-32:]
    if hashlib.sha256(blob[:-32]).digest() != digest:
        raise BasisFormatError("checksum mismatch")
    try:
        kind = blob[20:36].rstrip(b"\x00").decode("ascii")
    except UnicodeDecodeError:
        raise BasisFormatError(f"kind tag {blob[20:36]!r} is not ASCII") from None
    fingerprint = blob[36:68]
    elements = np.frombuffer(blob[68:68 + n_bytes], dtype="<f8").reshape(order, n, k, k)
    try:
        return Basis(elements.copy(), kind, fingerprint)
    except ValueError as err:  # unknown kind, even filter size, broken quarter-turn tying
        raise BasisFormatError(str(err)) from None


def render_basis_pgm(basis: Basis, path, cell_scale: int = 8) -> None:
    """Draw the basis as a grayscale grid (orientations down, elements across)."""
    if cell_scale < 1:
        raise ValueError(f"cell_scale must be >= 1, got {cell_scale}")
    e = basis.elements
    order, n, k, _ = e.shape
    lo, hi = float(e.min()), float(e.max())
    span = hi - lo if hi > lo else 1.0
    gray = np.round((e - lo) / span * 255.0).astype(np.uint8)
    cell = k * cell_scale
    canvas = np.zeros((order * (cell + 1) + 1, n * (cell + 1) + 1), dtype=np.uint8)
    for r in range(order):
        for i in range(n):
            tile = np.kron(gray[r, i], np.ones((cell_scale, cell_scale), dtype=np.uint8))
            y = 1 + r * (cell + 1)
            x = 1 + i * (cell + 1)
            canvas[y:y + cell, x:x + cell] = tile
    with atomic_write(path) as fh:
        fh.write(f"P5\n{canvas.shape[1]} {canvas.shape[0]}\n255\n".encode("ascii"))
        fh.write(canvas.tobytes())
