"""Self-contained property checks behind the ``verify`` command.

Each check returns a (name, passed, detail) row; ``run_all`` collects them.
The suite covers the group algebra, operator unitarity, gradient correctness,
and exact-subgroup equivariance of both the raw group convolution and a small
coefficient-basis network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .basis import Basis, populate_partial
from .groups import (GroupElement, RotationOperators, compose, gram_defect, inverse,
                     rotate_exact90, unitarity_defect)
from .network import Model, model_from_arch
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


# -- p4-style periodic group convolution (reference implementation) -----------------


def _rotate_point(y: int, x: int, q: int, n: int) -> tuple:
    for _ in range(q % 4):
        y, x = -x % n, y
    return y, x


def _inverse_el(q: int, zy: int, zx: int, n: int) -> tuple:
    qi = (-q) % 4
    ry, rx = _rotate_point(-zy % n, -zx % n, qi, n)
    return qi, ry % n, rx % n


def _compose_el(a: tuple, b: tuple, n: int) -> tuple:
    qa, ya, xa = a
    qb, yb, xb = b
    ry, rx = _rotate_point(yb, xb, qa, n)
    return (qa + qb) % 4, (ry + ya) % n, (rx + xa) % n


def _signal_transform(f: np.ndarray, t: tuple, n: int) -> np.ndarray:
    """L_t[f](x) = f(t^-1 x) on the periodic grid."""
    ti = _inverse_el(*t, n)
    out = np.empty_like(f)
    for y in range(n):
        for x in range(n):
            ry, rx = _rotate_point(y, x, ti[0], n)
            out[y, x] = f[(ry + ti[1]) % n, (rx + ti[2]) % n]
    return out


def periodic_group_correlate(f: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """[f *_G psi](t) = sum_x f(x) L_t[psi](x) over the quarter-turn/shift group."""
    n = f.shape[0]
    out = np.empty((4, n, n), dtype=np.float64)
    for q in range(4):
        for zy in range(n):
            for zx in range(n):
                out[q, zy, zx] = float(
                    (f * _signal_transform(psi, (q, zy, zx), n)).sum())
    return out


def response_transform(resp: np.ndarray, t: tuple) -> np.ndarray:
    """L_t[F](g) = F(t^-1 g) on the group-valued response."""
    n = resp.shape[1]
    ti = _inverse_el(*t, n)
    out = np.empty_like(resp)
    for q in range(4):
        for zy in range(n):
            for zx in range(n):
                gq, gy, gx = _compose_el(ti, (q, zy, zx), n)
                out[q, zy, zx] = resp[gq, gy, gx]
    return out


# -- checks ----------------------------------------------------------------------


def check_group_axioms(order: int = 8, seed: int = 0, tol: float = 1e-12) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for r1 in range(order):
        for r2 in range(order):
            z1 = tuple(rng.integers(-8, 9, 2).astype(float))
            z2 = tuple(rng.integers(-8, 9, 2).astype(float))
            g = GroupElement(r1, z1, order)
            h = GroupElement(r2, z2, order)
            closure = np.abs(compose(g, h).homogeneous()
                             - g.homogeneous() @ h.homogeneous()).max()
            inv = np.abs(inverse(g).homogeneous()
                         - np.linalg.inv(g.homogeneous())).max()
            ident = np.abs(compose(g, inverse(g)).homogeneous() - np.eye(3)).max()
            k = GroupElement(int(rng.integers(order)),
                             tuple(rng.integers(-8, 9, 2).astype(float)), order)
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


def check_p4_equivariance(n: int = 8, seed: int = 0, tol: float = 1e-12,
                          n_translations: int = 4) -> CheckResult:
    rng = np.random.default_rng(seed)
    f = rng.standard_normal((n, n))
    psi = rng.standard_normal((n, n))
    base = periodic_group_correlate(f, psi)
    worst = 0.0
    shifts = [(0, 0)] + [tuple(rng.integers(0, n, 2)) for _ in range(n_translations - 1)]
    for q in range(4):
        for zy, zx in shifts:
            t = (q, int(zy), int(zx))
            lhs = periodic_group_correlate(_signal_transform(f, t, n), psi)
            rhs = response_transform(base, t)
            worst = max(worst, float(np.abs(lhs - rhs).max()))
    return CheckResult("periodic group convolution equivariance", worst <= tol,
                       f"worst residual {worst:.2e} over the quarter-turn subgroup")


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


def check_gradients(seed: int = 0, tol: float = 1e-5) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    try:
        x = rng.standard_normal((2, 2, 5, 5))
        w = rng.standard_normal((3, 2, 3, 3))
        worst = max(worst, check_gradient(
            lambda a, b: T.l1_norm(T.correlate2d(a, b)), [x, w], tol))
        worst = max(worst, check_gradient(
            lambda a, b: T.l1_norm(T.transpose_correlate2d(a, b)),
            [rng.standard_normal((2, 3, 5, 5)), w], tol))
        worst = max(worst, check_gradient(
            lambda a: T.l1_norm(T.maxpool2x2(a)),
            [rng.standard_normal((2, 2, 4, 4))], tol))
        g = rng.standard_normal(3) + 1.5
        b = rng.standard_normal(3)
        worst = max(worst, check_gradient(
            lambda a, gg, bb: T.l1_norm(T.batchnorm_train(a, gg, bb, (0, 2, 3))[0]),
            [rng.standard_normal((4, 3, 3, 3)), g, b], tol))
        worst = max(worst, check_gradient(
            lambda a, gg, bb: T.l1_norm(
                T.batchnorm_relu_train(a, gg, bb, (0, 2, 3, 4), True)[0] - 0.5),
            [rng.standard_normal((2, 3, 4, 4, 4)), g, b], tol))
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 4, 1])
        worst = max(worst, check_gradient(
            lambda a: T.softmax_cross_entropy(a, labels), [logits], tol))
    except AssertionError as err:
        return CheckResult("finite-difference gradient spot checks", False, str(err))
    return CheckResult("finite-difference gradient spot checks", True,
                       f"worst relative error {worst:.2e}")


def check_partial_model_equivariance(seed: int = 0) -> CheckResult:
    rng = np.random.default_rng(seed)
    basis = populate_partial(rng.uniform(-1, 1, (2, 4, 3, 3)))
    model = small_group_model(basis, seed=seed)
    x = rng.standard_normal((1, 1, 8, 8))
    with T.no_grad():
        logits = model.forward(x).data
        worst = 0.0
        for q in (1, 2, 3):
            rotated = rotate_exact90(x, q)
            logits_r = model.forward(rotated).data
            denom = max(float(np.abs(logits).max()), 1e-12)
            worst = max(worst, float(np.abs(logits_r - logits).max()) / denom)
    return CheckResult("quarter-turn logit invariance (partial basis)", worst <= 1e-8,
                       f"worst relative logit change {worst:.2e}")


def run_all(seed: int = 0) -> list:
    return [
        check_group_axioms(seed=seed),
        check_rot90_composition(seed=seed),
        check_p4_equivariance(seed=seed),
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
