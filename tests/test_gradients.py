"""Finite-difference checks for every differentiable operation (64-bit)."""

import numpy as np
import pytest

from rotoconv import tensor as T
from rotoconv.tensor import Tensor, check_gradient, numerical_gradient

from oracles import equivariance_term, gradcheck_catalog, pair_maps, reconstruction_term

CATALOG = gradcheck_catalog(seed=0)


@pytest.mark.parametrize("case", CATALOG, ids=[c[0] for c in CATALOG])
def test_op_gradient_matches_finite_differences(case):
    _, builder, arrays = case
    check_gradient(builder, arrays, rel_tol=1e-5, step=1e-5)


@pytest.mark.parametrize("case", CATALOG, ids=[c[0] for c in CATALOG])
def test_backward_builds_no_graph_nodes(case, monkeypatch):
    """Adjoint closures work on arrays: replaying them records no new op."""
    _, builder, arrays = case
    loss = builder(*[Tensor(np.array(a, dtype=np.float64), requires_grad=True) for a in arrays])
    recorded = []
    from_op = Tensor.from_op

    def counting_from_op(data, parents, backward_fn, op="op"):
        recorded.append(op)
        return from_op(data, parents, backward_fn, op)

    monkeypatch.setattr(Tensor, "from_op", staticmethod(counting_from_op))
    loss.backward()
    assert recorded == []


def test_correlate2d_kernel_gradient_against_central_differences(rng):
    x = rng.standard_normal((1, 1, 5, 5))
    k = rng.standard_normal((1, 1, 3, 3))

    def loss_fn(xa, ka):
        return T.l1_norm(T.correlate2d(Tensor(xa), Tensor(ka))).item()

    xt = Tensor(x, requires_grad=True)
    kt = Tensor(k, requires_grad=True)
    T.l1_norm(T.correlate2d(xt, kt)).backward()
    num = numerical_gradient(loss_fn, [x, k], index=1, step=1e-5)
    denom = max(np.abs(num).max(), 1.0)
    assert np.abs(kt.grad - num).max() / denom <= 1e-5


def test_two_layer_composite_gradient(rng):
    x = rng.standard_normal((1, 1, 6, 6))
    k = rng.standard_normal((2, 1, 3, 3))
    check_gradient(lambda a, b: T.l1_norm(T.relu(T.correlate2d(a, b))), [x, k])


def test_loss_graph_gradients(rng, partial_basis):
    """The pretraining losses are differentiable in the basis parameters."""
    from rotoconv.groups import RotationOperators
    from rotoconv.pretrain import basis_slots, orthogonality_term

    images = rng.random((2, 1, 8, 8))
    ops = RotationOperators(8, 8)

    def total(param):
        slots = basis_slots(param, True)
        maps = pair_maps(Tensor(images), slots, ops, 1, 3)
        return (equivariance_term(*maps, 2) + orthogonality_term(slots)
                + reconstruction_term(*maps, 2))

    check_gradient(total, [rng.uniform(-0.7, 0.7, (2, 3, 3, 3))], rel_tol=1e-4)
