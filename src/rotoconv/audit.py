"""Equivariance audits: error-vs-rotation sweeps and activation robustness.

Two independent views of the same question. The sweep rotates the test set
and watches classification error; the robustness suite feeds an image and its
rotated copy, rectifies the second set of activations back (spatial rotation
plus orientation roll for group maps), and measures a normalized squared
error per layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .datasets import LabeledImageSet
from .fileio import write_csv
from .groups import RotationOperators, act_on_group_feature_map, crop_margin
from .network import Model
from .training import evaluate, rotate_images


@dataclass
class SweepReport:
    rows: list = field(default_factory=list)  # dicts: variant, angle_deg, error


@dataclass
class RobustnessReport:
    rows: list = field(default_factory=list)  # dicts: variant, layer_index, layer_name, L_equivariance
    per_angle: list = field(default_factory=list)  # dicts adding angle_index


def rotation_sweep(model: Model, testset: LabeledImageSet, angles_deg,
                   variant: str = "model", method: str = "gaussian") -> SweepReport:
    """Classification error after rotating every test image by each angle."""
    report = SweepReport()
    for angle in angles_deg:
        rotated = rotate_images(testset.images, float(angle), method)
        rotated_set = LabeledImageSet(rotated, testset.labels, testset.split,
                                      testset.n_classes)
        result = evaluate(model, rotated_set)
        report.rows.append({"variant": variant, "angle_deg": float(angle),
                            "error": result.error})
    return report


def activation_pair_error(a_r: np.ndarray, a_s: np.ndarray, r: int, s: int,
                          kind: str = "group", order: int = 8,
                          method: str = "gaussian", crop_fraction: float = 0.25,
                          ops: RotationOperators | None = None) -> float:
    """Normalized squared L2 error between activations after rectification.

    ``a_s`` is transformed by rotation index (r - s) mod order before the
    comparison: spatial rotation plus slice roll for ``kind="group"``, spatial
    rotation alone for ``kind="spatial"``, identity for ``kind="vector"``.
    Channels with zero norm contribute zero. Comparison happens on the
    cropped interior to keep boundary interpolation out of the measurement.
    """
    if a_r.shape != a_s.shape:
        raise ValueError(f"activation shapes differ: {a_r.shape} vs {a_s.shape}")
    delta = (r - s) % order
    if kind == "vector":
        rect = a_s
    else:
        if ops is None:
            ops = RotationOperators(a_s.shape[-1], order, method)
        if kind == "group":
            rect = act_on_group_feature_map(a_s, delta, ops)
        elif kind == "spatial":
            rect = ops.apply(a_s, delta)
        else:
            raise ValueError(f"unknown activation kind {kind!r}")
    if kind != "vector":
        size = a_r.shape[-1]
        m = crop_margin(size, crop_fraction)
        ref = a_r[..., m:size - m, m:size - m]
        rect = rect[..., m:size - m, m:size - m]
    else:
        ref = a_r
    channels = ref.shape[0]
    ref = ref.reshape(channels, -1)
    rect = rect.reshape(channels, -1)
    sq_diff = ((ref - rect).astype(np.float64) ** 2).sum(axis=1)
    norm_ref = np.sqrt((ref.astype(np.float64) ** 2).sum(axis=1))
    norm_rect = np.sqrt((rect.astype(np.float64) ** 2).sum(axis=1))
    live = (norm_ref != 0.0) & (norm_rect != 0.0)
    return float((sq_diff[live] / (norm_ref[live] * norm_rect[live])).sum())


def robustness_suite(model: Model, images, n_images: int,
                     angle_indices=None, order: int = 8,
                     variant: str = "model", method: str = "gaussian",
                     crop_fraction: float = 0.25) -> RobustnessReport:
    """Per-layer mean of the pair error over images and rotation indices.

    Reference activations always come from the unrotated image; the rotated
    copies are produced by the index-``R`` operator at the input resolution.
    Each image and its rotated copies go through one graph-free forward, and
    each layer's errors are taken as soon as that layer's output exists.
    """
    if n_images < 1:
        raise ValueError("n_images must be >= 1")
    arr = images.images if isinstance(images, LabeledImageSet) else np.asarray(images)
    arr = arr[:n_images]
    if angle_indices is None:
        angle_indices = list(range(order))
    ops_by_size: dict = {}

    def ops_for(size: int) -> RotationOperators:
        if size not in ops_by_size:
            ops_by_size[size] = RotationOperators(size, order, method)
        return ops_by_size[size]

    input_ops = ops_for(arr.shape[-1])
    layer_names = [layer.name for layer in model.layers]
    sums = np.zeros(len(layer_names))
    per_angle_sums = np.zeros((len(layer_names), len(angle_indices)))
    for image in arr:
        stack = np.stack([image] + [input_ops.apply(image, int(r)) for r in angle_indices])
        for l_i, (_, kind, acts) in enumerate(model.iter_activations(stack)):
            ops = None if kind == "vector" else ops_for(acts.shape[-1])
            for a_i, ridx in enumerate(angle_indices):
                value = activation_pair_error(acts[0], acts[1 + a_i], 0, int(ridx), kind,
                                              order, method, crop_fraction, ops)
                sums[l_i] += value
                per_angle_sums[l_i, a_i] += value
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
