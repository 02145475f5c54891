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
from .network import Model, build_model, gconv, model_from_arch
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


# ``check_gradient``'s default step, which every gradient check runs at. A case that
# needs another step moves its inputs along directions scaled by step / _CHECK_STEP and
# scales its loss by the inverse, so that the check's differences are those of its step.
_CHECK_STEP = 1e-5
# The step of the full-model cases, where a few of a million ReLU and max kinks lie
# within reach of any step. Over seeds 0-6 and 123, both models read a worst relative
# error of at most 1.3e-6 at 3e-11; at 1e-10 the translational model crosses a kink at
# seed 123 (3.0e-3), and at 1e-11 rounding reaches 3.2e-6.
_MODEL_STEP = 3e-11


def gradient_cases(seed: int = 0) -> list:
    """(name, scalar builder, tiny float64 inputs) for each op that a group train step, a
    translational one and a pretraining step record; gconv and pretraining on a partial
    basis; then both full models.

    Every convolution takes the chunk path, except in the ``_blocks`` cases
    (``on_blocks``): their output gradients have over
    ``tensor._SMALL_SAMPLE_BYTES`` of columns a sample and span two column blocks, so
    one pass over those blocks gives grad-x and grad-w (``tensor._correlate_grads``).
    The ``_model`` cases (``model_directions``) run a training forward of a whole
    ``build_model`` model on one 3x32x32 image, where the 33- and 67-channel layers
    sum grad-w in several row slabs. The last case feeds a BatchNorm-ReLU map into
    ``gconv`` with constant coefficients, so the node's backward makes grad-x alone.
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

    def on_blocks(op, shapes, out_shape, step=_CHECK_STEP):
        """A builder and its inputs for ``op`` of arrays of ``shapes`` at block-path shapes.
        Its loss is the inner product with a fixed random array, which adds no kink of
        its own. Its inputs move each array along 8 fixed random directions, so the
        finite differences take two evaluations a direction, not two an element, of
        ``step`` along each."""
        directions = 8
        scale = step / _CHECK_STEP
        weights = T.Tensor(rng.standard_normal((1, math.prod(out_shape))) / scale)
        moves = []
        for shape in shapes:
            base = T.Tensor(rng.standard_normal(shape))
            along = T.Tensor(rng.standard_normal((math.prod(shape), directions)) * scale)
            moves.append(lambda z, base=base, along=along:
                         base + T.reshape(T.matmul(along, z), base.shape))

        def build(*zs):
            out = op(*(move(z) for move, z in zip(moves, zs)))
            return T.matmul(weights, T.reshape(out, (-1, 1)))
        return build, [rng.standard_normal((directions, 1)) for _ in shapes]

    def model_directions(kind):
        """A builder and its input for a training forward of a float64
        ``build_model(kind, ...)`` on one 3x32x32 image, with the inner product of its
        logits and fixed random weights as the loss. Input i moves the i-th convolution's
        kernel or coefficients (the classifier's weight last) along a fixed random
        direction, by ``_MODEL_STEP`` a check step."""
        scale = _MODEL_STEP / _CHECK_STEP
        basis = populate_partial(rng.uniform(-1, 1, (2, 9, 3, 3)))
        group = kind == "group"
        model = build_model(kind, "partial" if group else "none", basis if group else None,
                            in_channels=3, seed=int(rng.integers(1 << 16)), dtype="float64")
        image = T.Tensor(rng.standard_normal((1, 3, 32, 32)))
        weights = T.Tensor(rng.standard_normal((model.classes, 1)) / scale)
        moved = [(layer, name, getattr(layer, name),
                  T.Tensor(rng.standard_normal(getattr(layer, name).shape) * scale))
                 for layer in model.layers for name in layer.param_names
                 if name in ("coefficients", "weight")]

        def build(z):
            for i, (layer, name, base, along) in enumerate(moved):
                setattr(layer, name, base + T.mul(along, T.take_slot(z, i)))
            return T.matmul(model.forward(image, training=True), weights)
        return build, [np.zeros(len(moved))]

    cases = [
        ("correlate2d_same", lambda a, k: T.l1_norm(T.correlate2d(a, k)), [x, w]),
        ("maxpool2x2", lambda a: T.l1_norm(T.maxpool2x2(a)), [xp]),
        ("batchnorm_train",
         lambda a, gg, bb: T.l1_norm(T.batchnorm_train(a, gg, bb, (0, 2, 3))[0]),
         [rng.standard_normal((4, 3, 3, 3)), g, b]),
        ("batchnorm_relu_pool_group", lambda a, gg, bb: T.l1_norm(
            T.maxpool2x2(T.batchnorm_relu_train(a, gg, bb, (0, 2, 3, 4))[0]) - 0.5),
         [rng.standard_normal((2, 3, 4, 4, 4)), g, b]),
        ("softmax_cross_entropy",
         lambda a: T.softmax_cross_entropy(a, labels), [rng.standard_normal((4, 5))]),
        ("gconv_input", lambda a, c: T.l1_norm(gconv(a, c, basis)),
         [rng.standard_normal((2, 2, 5, 5)), rng.standard_normal((2, 2, 2))]),
        ("gconv_intermediate", lambda a, c: T.l1_norm(gconv(a, c, basis)),
         [rng.standard_normal((1, 2, 8, 4, 4)), rng.standard_normal((2, 2, 8, 2))]),
        ("batchnorm_relu_spatial", lambda a, gg, bb: T.l1_norm(
            T.global_maxpool(T.batchnorm_relu_train(a, gg, bb, (0, 2, 3))[0]) - 0.5),
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
         *on_blocks(T.correlate2d, [(2, 8, 20, 20), (40, 8, 3, 3)], (2, 40, 20, 20))),
        ("gconv_blocks", *on_blocks(lambda a, c: gconv(a, c, basis),
                                    [(2, 1, 8, 20, 20), (5, 1, 8, 2)], (2, 5, 8, 20, 20))),
        ("group_model", *model_directions("group")),
        ("translational_model", *model_directions("translational")),
        ("batchnorm_relu_gconv", lambda a, gg, bb, c: T.l1_norm(gconv(
            T.batchnorm_relu_train(a, gg, bb, (0, 2, 3, 4))[0], c, basis)),
         [rng.standard_normal((2, 2, 8, 4, 4)), g[:2], b[:2], rng.standard_normal((3, 2, 8, 2))]),
        ("batchnorm_relu_correlate2d_blocks", *on_blocks(
            lambda a, gg, bb, w: T.correlate2d(
                T.batchnorm_relu_train(a, gg, bb, (0, 2, 3))[0], w),
            # at the default step a kink is crossed at 1 of 10 seeds, at 1e-6 at none
            [(2, 8, 20, 20), (8,), (8,), (40, 8, 3, 3)], (2, 40, 20, 20), 1e-6)),
    ]
    # drawn after every other case's arrays, which it leaves where they were
    frozen = T.Tensor(rng.standard_normal((3, 2, 8, 2)))
    cases.append(("batchnorm_relu_gconv_frozen", lambda a, gg, bb: T.l1_norm(gconv(
        T.batchnorm_relu_train(a, gg, bb, (0, 2, 3, 4))[0], frozen, basis)),
        [rng.standard_normal((2, 2, 8, 4, 4)), g[:2], b[:2]]))
    return cases


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
                       f"worst relative error {worst:.2e} over {len(cases)} cases; the "
                       f"full models take steps of {_MODEL_STEP:g} along one direction "
                       "a tensor")


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
