"""The tensor layer: correlations, their adjoints, and checked gradients.

Everything downstream (losses, group layers, training) is built from these
primitives, so each one carries a reverse-mode gradient that we can compare
against central finite differences.
"""

import numpy as np

from rotoconv import Tensor
from rotoconv import tensor as T

rng = np.random.default_rng(0)

# correlation and its adjoint are linked by an inner-product identity
f = rng.standard_normal((1, 2, 6, 6))
g = rng.standard_normal((1, 3, 6, 6))
kernel = Tensor(rng.standard_normal((3, 2, 3, 3)))
lhs = float((T.correlate2d(Tensor(f), kernel).data * g).sum())
rhs = float((f * T.transpose_correlate2d(Tensor(g), kernel).data).sum())
print(f"<conv(f,e), g> = {lhs:.6f}")
print(f"<f, conv^T(g,e)> = {rhs:.6f}")
assert abs(lhs - rhs) <= 1e-9 * max(abs(lhs), 1.0), "adjoint identity violated"

# gradients flow through compositions and match finite differences
x = Tensor(rng.standard_normal((1, 1, 5, 5)), requires_grad=True)
w = Tensor(rng.standard_normal((2, 1, 3, 3)), requires_grad=True)
loss = T.l1_norm(T.relu(T.correlate2d(x, w)))
loss.backward()
print("\nloss:", loss.item())
print("kernel gradient shape:", w.grad.shape)

worst = T.check_gradient(lambda a, b: T.l1_norm(T.relu(T.correlate2d(a, b))),
                         [x.data, w.data])
print(f"finite-difference check, worst relative error: {worst:.2e}")
