"""Rotation group algebra and the operators that act on pixel grids.

Covers three layers of machinery:

* ``GroupElement`` - discrete rotation index plus planar translation, with the
  3x3 homogeneous-matrix view under which composition is matrix multiplication.
* grid operators - exact quarter-turn permutations, Gaussian/bilinear
  interpolated rotations (as sparse matrices), orientation rolls, and their
  composition on orientation-stacked feature maps.
* ``unitarity_defect`` and ``gram_defect`` - measure how far an operator is
  from preserving the inner product that group convolutions are built on.

Angle convention: rotation index ``r`` of a group of order ``n`` means a
counter-clockwise turn by ``r * 2*pi/n``; one quarter turn of an ``HxW`` array
matches ``numpy.rot90`` on the last two axes.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .fileio import atomic_write


def _rotation_2x2(rot: int, order: int) -> np.ndarray:
    """2x2 rotation matrix for index ``rot``; exact integers at quarter turns."""
    rot = rot % order
    if (4 * rot) % order == 0:
        q = (4 * rot) // order
        c, s = [(1, 0), (0, 1), (-1, 0), (0, -1)][q % 4]
        return np.array([[c, -s], [s, c]], dtype=np.float64)
    theta = 2.0 * math.pi * rot / order
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=np.float64)


@dataclass(frozen=True)
class GroupElement:
    """A planar roto-translation: rotation index plus (x, y) translation."""

    rot: int
    translation: tuple = (0.0, 0.0)
    order: int = 8

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"group order must be >= 1, got {self.order}")
        object.__setattr__(self, "rot", self.rot % self.order)
        tx, ty = self.translation
        object.__setattr__(self, "translation", (float(tx), float(ty)))

    @property
    def angle(self) -> float:
        return 2.0 * math.pi * self.rot / self.order

    def homogeneous(self) -> np.ndarray:
        """3x3 matrix [[R, z], [0, 1]]."""
        m = np.eye(3, dtype=np.float64)
        m[:2, :2] = _rotation_2x2(self.rot, self.order)
        m[:2, 2] = self.translation
        return m

    @classmethod
    def identity(cls, order: int = 8) -> "GroupElement":
        return cls(0, (0.0, 0.0), order)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """(R, z)(S, x) = (RS, Rx + z)."""
    if g.order != h.order:
        raise ValueError(f"mixed group orders {g.order} and {h.order}")
    r = _rotation_2x2(g.rot, g.order)
    moved = r @ np.asarray(h.translation) + np.asarray(g.translation)
    return GroupElement((g.rot + h.rot) % g.order, (moved[0], moved[1]), g.order)


def inverse(g: GroupElement) -> GroupElement:
    """(R, z)^-1 = (R^-1, -R^-1 z)."""
    rinv = _rotation_2x2(-g.rot, g.order)
    moved = -(rinv @ np.asarray(g.translation))
    return GroupElement((-g.rot) % g.order, (moved[0], moved[1]), g.order)


# -- exact grid rotations ------------------------------------------------------


def rotate_exact90(x: np.ndarray, quarter_turns: int) -> np.ndarray:
    """Counter-clockwise quarter turns of the last two axes (pure permutation)."""
    if x.shape[-1] != x.shape[-2]:
        raise ValueError(f"square spatial extent required, got {x.shape[-2]}x{x.shape[-1]}")
    return np.ascontiguousarray(np.rot90(x, int(quarter_turns) % 4, axes=(-2, -1)))


def check_crop_fraction(fraction: float) -> None:
    """Reject a crop fraction outside [0, 1/2), the range that keeps >= 1 pixel."""
    if not 0.0 <= fraction < 0.5:
        raise ValueError(f"crop fraction must lie in [0, 1/2), got {fraction}")


def crop_margin(size: int, fraction: float) -> int:
    """Rows and columns cut from each side of a ``size`` square."""
    check_crop_fraction(fraction)
    return int(size * fraction)


# -- interpolated rotation operators ----------------------------------------------


def _source_coords(size: int, angle: float) -> np.ndarray:
    """Inverse-rotated source location for every target pixel, about the grid center."""
    c = (size - 1) / 2.0
    ys, xs = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    dy = ys - c
    dx = xs - c
    cos, sin = math.cos(angle), math.sin(angle)
    sy = c + cos * dy + sin * dx
    sx = c - sin * dy + cos * dx
    return np.stack([sy, sx], axis=-1).reshape(-1, 2)


def _permutation_matrix(size: int, quarter_turns: int) -> sparse.csr_matrix:
    grid = np.arange(size * size).reshape(size, size)
    src = np.rot90(grid, quarter_turns % 4).reshape(-1)
    data = np.ones(size * size, dtype=np.float64)
    return sparse.csr_matrix((data, (np.arange(size * size), src)),
                             shape=(size * size, size * size))


_METHODS = ("gaussian", "bilinear")


def _check_interpolation(method: str, sigma: float, kernel_size: int,
                         size_name: str = "kernel_size") -> None:
    if method not in _METHODS:
        raise ValueError(f"unknown rotation method {method!r}")
    if not sigma > 0:
        raise ValueError(f"sigma must be > 0, got {sigma!r}")
    check_odd_size(size_name, kernel_size)


def check_rotation_index(*indices) -> None:
    """Raise ValueError unless every rotation index is an integer (NumPy integers too)."""
    for r in indices:
        if not isinstance(r, numbers.Integral):
            raise ValueError(f"rotation index must be an integer, got {r!r}")


def check_odd_size(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a positive odd int (a window with a center)."""
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < 1 or value % 2 == 0):
        raise ValueError(f"{name} must be a positive odd int, got {value!r}")


def rotation_matrix(size: int, angle: float, method: str = "gaussian",
                    sigma: float = 0.5, kernel_size: int = 3) -> sparse.csr_matrix:
    """Sparse matrix rotating a flattened ``size x size`` image by ``angle`` CCW.

    ``gaussian``: weights exp(-d^2 / 2 sigma^2) over the ``kernel_size`` square
    integer neighborhood of the rounded inverse-rotated source point.
    ``bilinear``: weights (1-|dy|)(1-|dx|) over the 2x2 neighborhood of the
    floored source point. Out-of-grid neighbors are dropped and the remaining
    weights renormalized to sum 1 (a row with no weight stays empty); angles
    that are exact multiples of 90 degrees short-circuit to the grid
    permutation. Raises ValueError for a non-finite angle, an unknown method,
    ``sigma <= 0`` or a ``kernel_size`` that is not a positive odd int.
    """
    if not math.isfinite(angle):
        raise ValueError(f"rotation angle must be finite, got {angle!r}")
    _check_interpolation(method, sigma, kernel_size)
    quarter = angle / (math.pi / 2)
    if abs(quarter - round(quarter)) < 1e-12:
        return _permutation_matrix(size, int(round(quarter)))
    sy, sx = _source_coords(size, angle).T[:, :, None, None]
    if method == "gaussian":
        half = kernel_size // 2
        snap, offs = np.round, np.arange(-half, half + 1)
    else:
        snap, offs = np.floor, np.arange(2)
    # [target, a, b] is window row a, column b; flattened row-major, each row's columns ascend
    gy = snap(sy) + offs[:, None]
    gx = snap(sx) + offs[None, :]
    dy, dx = gy - sy, gx - sx
    if method == "gaussian":
        weights = np.exp(-(dy ** 2 + dx ** 2) / (2 * sigma * sigma))
    else:
        weights = (1 - np.abs(dy)) * (1 - np.abs(dx))
    inside = (gy >= 0) & (gy < size) & (gx >= 0) & (gx < size)
    weights = np.where(inside, weights, 0.0).reshape(size * size, -1)
    keep = weights > 0.0
    rows = np.nonzero(keep)[0]
    cols = (gy * size + gx).astype(np.intp).reshape(size * size, -1)[keep]
    vals = weights[keep] / weights.sum(axis=1)[rows]
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sparse.csr_matrix((vals, cols, indptr), shape=(size * size, size * size))


@dataclass
class RotationOperators:
    """The family of rotation maps for one grid size, indexed by rotation index.

    ``method`` tags how non-quarter-turn angles are interpolated; quarter
    turns are always the exact permutation. Each matrix is built on first use.
    """

    size: int
    order: int = 8
    method: str = "gaussian"
    sigma: float = 0.5
    kernel_size: int = 3
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        for name in ("size", "order"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        _check_interpolation(self.method, self.sigma, self.kernel_size)

    def matrix(self, r: int) -> sparse.csr_matrix:
        check_rotation_index(r)
        key = (r % self.order, "<f8", False)
        if key not in self._cache:
            self._cache[key] = rotation_matrix(self.size, 2.0 * math.pi * key[0] / self.order,
                                               self.method, self.sigma, self.kernel_size)
        return self._cache[key]

    def _cast(self, r: int, dtype, transposed: bool) -> sparse.csr_matrix:
        key = (r % self.order, np.dtype(dtype).str, transposed)
        if key not in self._cache:
            m = self.matrix(r)
            self._cache[key] = (m.T.tocsr() if transposed else m).astype(dtype, copy=False)
        return self._cache[key]

    def is_exact(self, r: int) -> bool:
        return (4 * (r % self.order)) % self.order == 0

    def apply(self, x: np.ndarray, r: int, transpose: bool = False) -> np.ndarray:
        """Rotate the last two axes of ``x`` by index ``r``, or apply that map's transpose
        (for a quarter turn, the inverse turn)."""
        check_rotation_index(r)
        r = r % self.order
        if x.shape[-1] != self.size or x.shape[-2] != self.size:
            raise ValueError(f"operator built for square {self.size}x{self.size} images, "
                             f"got {x.shape[-2]}x{x.shape[-1]}")
        if self.is_exact(r):
            q = (4 * r) // self.order
            return rotate_exact90(x, -q if transpose else q)
        apply_flat = self.apply_flat_t if transpose else self.apply_flat
        return apply_flat(x.reshape(-1, self.size ** 2).T, r).T.reshape(x.shape)

    def apply_flat(self, columns: np.ndarray, r: int) -> np.ndarray:
        """Apply to flattened images stacked as columns [n_pixels, n_images]."""
        return self._cast(r, columns.dtype, False) @ columns

    def apply_flat_t(self, columns: np.ndarray, r: int) -> np.ndarray:
        return self._cast(r, columns.dtype, True) @ columns


# -- orientation axis ------------------------------------------------------------


def roll_orientations(f: np.ndarray, r: int, order: int | None = None) -> np.ndarray:
    """Cyclic shift of the orientation axis -3: output slice s is input slice s - r."""
    check_rotation_index(r)
    n = f.shape[-3]
    if order is not None and n != order:
        raise ValueError(f"orientation axis has extent {n}, expected {order}")
    return np.roll(f, r % n, axis=-3)


def act_on_group_feature_map(f: np.ndarray, r: int, ops: RotationOperators) -> np.ndarray:
    """Induced rotation action: rotate within each slice, then roll the slices."""
    return roll_orientations(ops.apply(f, r), r, ops.order)


# -- diagnostics ---------------------------------------------------------------


def unitarity_defect(ops: RotationOperators, r: int, trials: int = 32,
                     seed: int = 0) -> float:
    """Worst relative change of <f, psi> under the operator, over random pairs."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = ops.size ** 2
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(n)
        psi = rng.standard_normal(n)
        before = float(f @ psi)
        lf = ops.apply_flat(f[:, None], r)[:, 0]
        lpsi = ops.apply_flat(psi[:, None], r)[:, 0]
        after = float(lf @ lpsi)
        worst = max(worst, abs(after - before) / abs(before))
    return worst


def gram_defect(ops: RotationOperators, r: int) -> float:
    """RMS defect ||M^T M - I||_F / sqrt(n) of the n x n operator M for index ``r``.

    Deterministic companion of ``unitarity_defect``, whose ratio can blow up
    when a random <f, psi> lands near zero: 0 for the exact quarter turns. The
    spectral norm would read 1 for every interpolator at 45 degrees, since the
    interpolation blur leaves M singular; the RMS defect tells them apart.
    """
    m = ops.matrix(r).toarray()
    return float(np.linalg.norm(m.T @ m - np.eye(m.shape[1])) / math.sqrt(m.shape[1]))


def export_triplets(matrix: sparse.spmatrix, path) -> None:
    """Write a sparse matrix as one ``row col value`` line per entry."""
    coo = matrix.tocoo()
    with atomic_write(path, "w", encoding="ascii") as fh:
        for i, j, v in zip(coo.row, coo.col, coo.data):
            fh.write(f"{i} {j} {float(v)!r}\n")
