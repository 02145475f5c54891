"""Self-contained property checks behind the ``verify`` command.

Each check returns a (name, passed, detail) row; ``run_all`` collects them.
The suite covers the group algebra, operator unitarity, gradient correctness,
and quarter-turn equivariance of a small partial-basis network, layer by
layer through the library's own lifting and group convolutions, BatchNorm,
ReLU and pooling (``audit.quarter_turn_drift``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .audit import quarter_turn_drift
from .basis import Basis, populate_partial
from .groups import (GroupElement, RotationOperators, compose, gram_defect, inverse,
                     rotate_exact90, unitarity_defect)
from .network import Model, gconv, model_from_arch
from .pretrain import basis_slots, image_terms, orthogonality_term
from .tensor import check_gradient


def small_group_model(basis: Basis, channels=(4, 6), classes: int = 5,
                      seed: int = 0, dtype: str = "float64",
                      in_channels: int = 1) -> Model:
    """Two group-conv blocks plus pooling and a classifier; handy for audits."""
    c1, c2 = channels
    layers = [
        {"type": "gconv_input", "name": "gconv_in", "in": in_channels, "out": c1},
        {"type": "batchnorm", "name": "bn0", "channels": c1, "kind": "group"},
        {"type": "relu", "name": "relu0"},
        {"type": "gconv", "name": "gconv_mid", "in": c1, "out": c2, "elements": "basis"},
        {"type": "batchnorm", "name": "bn1", "channels": c2, "kind": "group"},
        {"type": "relu", "name": "relu1"},
        {"type": "maxpool", "name": "pool"},
        {"type": "global_maxpool", "name": "global_pool"},
        {"type": "dense", "name": "classifier", "in": c2, "out": classes},
    ]
    arch = {"kind": "group", "variant": basis.kind, "in_channels": in_channels,
            "classes": classes, "dtype": np.dtype(dtype).name, "group_order": basis.order,
            "layers": layers}
    return model_from_arch(arch, basis, seed)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


# -- checks ----------------------------------------------------------------------


def check_group_axioms(order: int = 8, seed: int = 0, tol: float = 1e-12) -> CheckResult:
    rng = np.random.default_rng(seed)

    def element(rot: int) -> GroupElement:
        return GroupElement(rot, tuple(rng.integers(-8, 9, 2).astype(float)), order)

    worst = 0.0
    for r1 in range(order):
        for r2 in range(order):
            g, h = element(r1), element(r2)
            closure = np.abs(compose(g, h).homogeneous()
                             - g.homogeneous() @ h.homogeneous()).max()
            inv = np.abs(inverse(g).homogeneous()
                         - np.linalg.inv(g.homogeneous())).max()
            ident = np.abs(compose(g, inverse(g)).homogeneous() - np.eye(3)).max()
            k = element(int(rng.integers(order)))
            assoc = np.abs(compose(compose(g, h), k).homogeneous()
                           - compose(g, compose(h, k)).homogeneous()).max()
            worst = max(worst, closure, inv, ident, assoc)
    return CheckResult("group axioms (homogeneous matrices)", worst <= tol,
                       f"worst residual {worst:.2e} over {order * order} index pairs")


def check_rot90_composition(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 6, 6))
    ok = all(
        np.array_equal(rotate_exact90(rotate_exact90(x, q1), q2),
                       rotate_exact90(x, q1 + q2))
        for q1 in range(4) for q2 in range(4))
    return CheckResult("exact quarter-turn composition", ok,
                       "bitwise over all quarter-turn pairs")


def check_unitarity(size: int = 9, seed: int = 0) -> CheckResult:
    gaussian = RotationOperators(size, 8, "gaussian")
    bilinear = RotationOperators(size, 8, "bilinear")
    worst_exact = max(unitarity_defect(gaussian, r, trials=16, seed=seed)
                      for r in (0, 2, 4, 6))
    gauss = unitarity_defect(gaussian, 1, 64, seed)
    bilin = unitarity_defect(bilinear, 1, 64, seed)
    ok = worst_exact <= 1e-12 and gauss > 1e-3 and bilin > 1e-3
    return CheckResult(
        "unitarity: exact permutations vs interpolators", ok,
        f"exact {worst_exact:.2e}; gaussian(45deg) {gauss:.3f}; bilinear(45deg) {bilin:.3f}; "
        f"RMS ||M^T M - I||_F/sqrt(n) gaussian {gram_defect(gaussian, 1):.3f}, "
        f"bilinear {gram_defect(bilinear, 1):.3f}")


def gradient_cases(seed: int = 0) -> list:
    """(name, scalar builder, tiny float64 inputs) for each op that a group train step, a
    translational one and a pretraining step record; gconv and pretraining on a partial basis.

    Every convolution takes the chunk path, except in the two ``_blocks`` cases
    (``on_blocks``): their output gradients have over
    ``tensor._SMALL_SAMPLE_BYTES`` of columns a sample and span two column blocks, so
    one pass over those blocks gives grad-x and grad-w (``tensor._correlate_grads``).
    """
    rng = np.random.default_rng(seed)
    x, w, xp = (rng.standard_normal(s) for s in [(2, 2, 5, 5), (3, 2, 3, 3), (2, 2, 4, 4)])
    g = rng.standard_normal(3) + 1.5
    b = rng.standard_normal(3)
    labels = np.array([0, 2, 4, 1])
    basis = populate_partial(rng.uniform(-1, 1, (2, 2, 3, 3)))
    ops = RotationOperators(6, basis.order, "gaussian")
    images = rng.standard_normal((2, 1, 6, 6))

    def terms(draws):
        return lambda p: T.l1_norm(image_terms(images, basis_slots(p, True), ops, draws, 1))

    def on_blocks(op, x_shape, w_shape, out_shape):
        """A builder and its inputs for ``op(x, w)`` at block-path shapes. Its loss is the
        inner product with a fixed random array, with no kink for a step to cross. Its
        inputs move x and w along 8 fixed random directions each, so the finite
        differences take two evaluations a direction, not two an element."""
        directions = 8
        weights = T.Tensor(rng.standard_normal((1, math.prod(out_shape))))
        moves = []
        for shape in (x_shape, w_shape):
            base = T.Tensor(rng.standard_normal(shape))
            along = T.Tensor(rng.standard_normal((math.prod(shape), directions)))
            moves.append(lambda z, base=base, along=along:
                         base + T.reshape(T.matmul(along, z), base.shape))

        def build(zx, zw):
            out = op(moves[0](zx), moves[1](zw))
            return T.matmul(weights, T.reshape(out, (-1, 1)))
        return build, [rng.standard_normal((directions, 1)) for _ in range(2)]

    return [
        ("correlate2d_same", lambda a, k: T.l1_norm(T.correlate2d(a, k)), [x, w]),
        ("maxpool2x2", lambda a: T.l1_norm(T.maxpool2x2(a)), [xp]),
        ("batchnorm_train",
         lambda a, gg, bb: T.l1_norm(T.batchnorm_train(a, gg, bb, (0, 2, 3))[0]),
         [rng.standard_normal((4, 3, 3, 3)), g, b]),
        ("batchnorm_relu_pool_group", lambda a, gg, bb: T.l1_norm(
            T.batchnorm_relu_train(a, gg, bb, (0, 2, 3, 4), True)[0] - 0.5),
         [rng.standard_normal((2, 3, 4, 4, 4)), g, b]),
        ("softmax_cross_entropy",
         lambda a: T.softmax_cross_entropy(a, labels), [rng.standard_normal((4, 5))]),
        ("gconv_input", lambda a, c: T.l1_norm(gconv(a, c, basis)),
         [rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((2, 2, 2))]),
        ("gconv_intermediate", lambda a, c: T.l1_norm(gconv(a, c, basis)),
         [rng.standard_normal((1, 2, 8, 4, 4)), rng.standard_normal((2, 2, 8, 2))]),
        ("batchnorm_relu_spatial", lambda a, gg, bb: T.l1_norm(
            T.batchnorm_relu_train(a, gg, bb, (0, 2, 3), False)[0] - 0.5),
         [rng.standard_normal((4, 3, 3, 3)), g, b]),
        ("global_maxpool", lambda a: T.l1_norm(T.global_maxpool(a)),
         [rng.standard_normal((2, 3, 4, 4))]),
        ("dense", lambda a, m, c: T.l1_norm(T.matmul(a, m) + c),
         [rng.standard_normal(s) for s in [(3, 4), (4, 2), 2]]),
        ("image_terms_one_draw", terms([(1, 3)]), [rng.standard_normal((2, 2, 3, 3))]),
        ("image_terms_two_draws", terms([(2, 6), (3, 1)]),
         [rng.standard_normal((2, 2, 3, 3))]),
        ("orthogonality_term", lambda p: orthogonality_term(basis_slots(p, True)),
         [rng.standard_normal((2, 2, 3, 3))]),
        ("correlate2d_blocks",
         *on_blocks(T.correlate2d, (2, 8, 20, 20), (40, 8, 3, 3), (2, 40, 20, 20))),
        ("gconv_blocks", *on_blocks(lambda a, c: gconv(a, c, basis), (2, 1, 8, 20, 20),
                                    (5, 1, 8, 2), (2, 5, 8, 20, 20))),
    ]


def check_gradients(seed: int = 0, tol: float = 1e-5) -> CheckResult:
    """Finite differences against the adjoints of every ``gradient_cases`` op."""
    cases = gradient_cases(seed)
    worst = 0.0
    for name, fn, arrays in cases:
        try:
            worst = max(worst, check_gradient(fn, arrays, tol))
        except AssertionError as err:
            return CheckResult("finite-difference gradient spot checks", False,
                               f"{name}: {err}")
    return CheckResult("finite-difference gradient spot checks", True,
                       f"worst relative error {worst:.2e} over {len(cases)} cases")


def check_partial_model_equivariance(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    basis = populate_partial(rng.uniform(-1, 1, (2, 4, 3, 3)))
    model = small_group_model(basis, seed=seed)
    drift = quarter_turn_drift(model, rng.standard_normal((1, 1, 8, 8)))
    maps, logits = (max(column) for column in zip(*drift.values()))
    return CheckResult("quarter-turn equivariance of every layer (partial basis)",
                       maps <= 1e-8 and logits <= 1e-8,
                       f"worst relative change: maps {maps:.2e}, logits {logits:.2e}")


def run_all(seed: int = 0) -> list:
    return [
        check_group_axioms(seed=seed),
        check_rot90_composition(seed=seed),
        check_unitarity(seed=seed),
        check_gradients(seed=seed),
        check_partial_model_equivariance(seed=seed),
    ]


def format_table(results) -> str:
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.name.ljust(width)}  {status}  {r.detail}")
    return "\n".join(lines)
