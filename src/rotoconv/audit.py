"""Equivariance audits: error-vs-rotation sweeps and activation robustness.

Two independent views of the same question. The sweep rotates the test set
and watches classification error; the robustness suite feeds an image and its
rotated copies, rectifies their activations back (spatial rotation plus
orientation roll for group maps), and measures a normalized squared error per
layer. The suite makes one forward per distinct rotation (an index equal to
another mod the order, 0 included, reuses its row) and rectifies only the
cropped interior that the error compares, with the same helpers as the
one-pair ``activation_pair_error``, so both give the same values bitwise.
``quarter_turn_drift`` compares every layer under the exact quarter turns.
No map is rotated here: every rectification is the action in ``groups``, on
the interior alone where the error is taken on a crop.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .basis import quarter_stride
from .datasets import LabeledImageSet
from .fileio import write_csv
from .groups import RotationOperators, _act, check_rotation_index, crop_margin, rotate_exact90
from .network import Model
from .training import evaluate, model_input, rotate_images


@dataclass
class SweepReport:
    rows: list = field(default_factory=list)  # dicts: variant, angle_deg, error


@dataclass
class RobustnessReport:
    rows: list = field(default_factory=list)  # dicts: variant, layer_index, layer_name, L_equivariance
    per_angle: list = field(default_factory=list)  # dicts adding angle_index


def rotation_sweep(model: Model, testset: LabeledImageSet, angles_deg,
                   variant: str = "model") -> SweepReport:
    """Classification error after a Gaussian rotation of every test image by each angle."""
    report = SweepReport()
    for angle in angles_deg:
        rotated = rotate_images(testset.images, float(angle))
        rotated_set = LabeledImageSet(rotated, testset.labels, testset.split,
                                      testset.n_classes)
        result = evaluate(model, rotated_set)
        report.rows.append({"variant": variant, "angle_deg": float(angle),
                            "error": result.error})
    return report


def _flat(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-ordered [channels, rest] array, the layout every sum below runs on."""
    return np.ascontiguousarray(a).reshape(a.shape[0], -1)


def _norms(flat: np.ndarray) -> np.ndarray:
    """Per-channel float64 L2 norm of a [channels, rest] array."""
    return np.sqrt((flat.astype(np.float64) ** 2).sum(axis=1))


def _rectified(a: np.ndarray, r: int, kind: str, ops: RotationOperators | None,
               margin: int) -> np.ndarray:
    """``a`` moved by rotation index ``r`` on the interior ``margin`` pixels in from each
    edge, as [channels, rest]; a vector does not move."""
    return _flat(a if kind == "vector" else _act(a, r, ops, kind == "group", margin))


def _pair_value(ref: np.ndarray, norm_ref: np.ndarray, rect: np.ndarray) -> float:
    """Sum over live channels of ||ref - rect||^2 / (||ref|| ||rect||), in float64."""
    sq_diff = ((ref - rect).astype(np.float64) ** 2).sum(axis=1)
    norm_rect = _norms(rect)
    live = (norm_ref != 0.0) & (norm_rect != 0.0)
    return float((sq_diff[live] / (norm_ref[live] * norm_rect[live])).sum())


_KINDS = ("group", "spatial", "vector")
_CROP_FRACTION = 0.25  # of each side of a map, left out of every pair error


def activation_pair_error(a_r: np.ndarray, a_s: np.ndarray, r: int, s: int,
                          kind: str = "group", order: int = 8,
                          ops: RotationOperators | None = None) -> float:
    """Normalized squared L2 error between activations after rectification.

    ``a_s`` is transformed by rotation index (r - s) mod order before the
    comparison: spatial rotation plus slice roll for ``kind="group"``, spatial
    rotation alone for ``kind="spatial"``, identity for ``kind="vector"``.
    Channels with zero norm contribute zero. Comparison happens on the interior
    left by cropping a quarter of each side, to keep boundary interpolation out;
    only the interior is rectified, by ``ops`` or else the Gaussian operators.
    """
    check_rotation_index(r, s)
    if a_r.shape != a_s.shape:
        raise ValueError(f"activation shapes differ: {a_r.shape} vs {a_s.shape}")
    if ops is not None and ops.order != order:
        raise ValueError(f"operators of order {ops.order} given for order {order}")
    if kind not in _KINDS:
        raise ValueError(f"unknown activation kind {kind!r}")
    margin, ref = 0, a_r
    if kind != "vector":
        if ops is None:
            ops = RotationOperators(a_s.shape[-1], order)
        margin = crop_margin(a_r.shape[-1], _CROP_FRACTION)
        ref = a_r[T._crop_slice(a_r.shape, margin)]
    ref = _flat(ref)
    return _pair_value(ref, _norms(ref), _rectified(a_s, (r - s) % order, kind, ops, margin))


def robustness_suite(model: Model, images, n_images: int, angle_indices=None,
                     variant: str = "model") -> RobustnessReport:
    """Per-layer mean of the pair error over images and rotation indices.

    The order is a group model's ``group_order``, else 8, and integer indices default
    to all of it. Reference activations come from the unrotated image, the rotated
    copies from the index-``R`` Gaussian operator at the input resolution; the
    model's input statistics, if any, normalize the images after they are rotated.
    One forward per distinct rotation: each image and one copy per distinct
    non-zero ``R mod order`` go through one graph-free forward, and an index
    equal mod ``order`` to one already seen (0 included, which is the image
    itself) reuses its row and its value. Interior-only rectification: each
    layer's errors are taken as soon as its output exists, from the reference
    interior and its norms computed once, with only the interior of each copy
    rotated back. Values are bitwise those of ``activation_pair_error`` per pair.
    """
    if n_images < 1:
        raise ValueError("n_images must be >= 1")
    arr = images.images if isinstance(images, LabeledImageSet) else np.asarray(images)
    arr = arr[:n_images]
    order = model.group_order if model.kind == "group" else 8
    angle_indices = list(range(order) if angle_indices is None else angle_indices)
    if not angle_indices:
        raise ValueError("angle_indices must name at least one rotation index")
    check_rotation_index(*angle_indices)
    # Stack row of each distinct rotation index mod order; row 0 is the image.
    row_of = {0: 0}
    for ridx in angle_indices:
        row_of.setdefault(int(ridx) % order, len(row_of))
    ops_for = functools.cache(lambda size: RotationOperators(size, order))  # one per map size
    input_ops = ops_for(arr.shape[-1])
    layer_names = [layer.name for layer in model.layers]
    sums = np.zeros(len(layer_names))
    per_angle_sums = np.zeros((len(layer_names), len(angle_indices)))
    for image in arr:
        stack = np.stack([image] + [input_ops.apply(image, d) for d in list(row_of)[1:]])
        stack = model_input(model, stack)
        for l_i, (_, kind, acts) in enumerate(model.iter_activations(stack)):
            ops, margin, ref = None, 0, acts[0]
            if kind != "vector":
                size = acts.shape[-1]
                ops, margin = ops_for(size), crop_margin(size, _CROP_FRACTION)
                ref = ref[T._crop_slice(ref.shape, margin)]
            ref = _flat(ref)
            norm_ref = _norms(ref)
            values: dict = {}
            for a_i, ridx in enumerate(angle_indices):
                d = int(ridx) % order
                if d not in values:
                    rect = _rectified(acts[row_of[d]], -d % order, kind, ops, margin)
                    values[d] = _pair_value(ref, norm_ref, rect)
                sums[l_i] += values[d]
                per_angle_sums[l_i, a_i] += values[d]
    n = len(arr)
    n_angles = len(angle_indices)
    report = RobustnessReport()
    for l_i, name in enumerate(layer_names):
        report.rows.append({"variant": variant, "layer_index": l_i,
                            "layer_name": name,
                            "L_equivariance": sums[l_i] / (n * n_angles)})
        for a_i, ridx in enumerate(angle_indices):
            report.per_angle.append({"variant": variant, "layer_index": l_i,
                                     "layer_name": name, "angle_index": int(ridx),
                                     "L_equivariance": per_angle_sums[l_i, a_i] / n})
    return report


def _relative_change(a: np.ndarray, b: np.ndarray, scale: np.ndarray) -> float:
    """max |a - b| / max |scale|, with the denominator floored at 1e-12."""
    return float(np.abs(a - b).max()) / max(float(np.abs(scale).max()), 1e-12)


def quarter_turn_drift(model: Model, images) -> dict:
    """``{q: (maps, logits)}``: the worst relative change under q quarter turns of the input.

    ``images`` and its turns by q = 1, 2, 3, normalized by the model's input
    statistics if it has them, take four graph-free forwards run in step, so one
    layer of each is held at a time. ``maps`` is the worst, over every group and
    spatial layer, of max |a_q - g_q a| / max |a|, where g_q turns a map and
    rolls a group map's orientations by q * order / 4; ``logits`` is
    max |logits_q - logits| / max |logits|. Maxima run over the whole batch;
    denominators floor at 1e-12.
    """
    order = model.group_order if model.kind == "group" else 4
    stride = quarter_stride(order)
    passes = [model.iter_activations(model_input(model, rotate_exact90(images, q)))
              for q in range(4)]
    maps = dict.fromkeys((1, 2, 3), 0.0)
    for (_, kind, a), *turned in zip(*passes):
        if kind == "vector":
            continue
        ops = RotationOperators(a.shape[-1], order)
        for q, (_, _, a_q) in enumerate(turned, 1):
            moved = _act(a, q * stride, ops, kind == "group")
            maps[q] = max(maps[q], _relative_change(a_q, moved, a))
    # the loop leaves the last layer, the logits, in a and turned
    return {q: (maps[q], _relative_change(a_q, a, a)) for q, (_, _, a_q) in enumerate(turned, 1)}


# -- CSV emission -----------------------------------------------------------------

_SWEEP_FIELDS = ["variant", "angle_deg", "error"]
_ROBUST_FIELDS = ["variant", "layer_index", "layer_name", "L_equivariance"]


def emit_reports(report, path) -> None:
    """Write a report as CSV with a stable column order."""
    if isinstance(report, SweepReport):
        write_csv(path, _SWEEP_FIELDS, report.rows)
    elif isinstance(report, RobustnessReport):
        write_csv(path, _ROBUST_FIELDS, report.rows)
    else:
        raise TypeError(f"cannot emit {type(report).__name__}")
