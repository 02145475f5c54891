"""Group-convolution classifiers: weight-tied filters, invariant logits.

A group layer stores rotation-invariant coefficients and synthesizes its
filter bank from the basis per orientation. With a quarter-turn-tied basis the
whole classifier is exactly invariant to 90 degree input rotations, before
any training. The group and translational architectures are channel-matched
so their parameter counts line up.
"""

import numpy as np

from rotoconv import build_model, count_parameters, populate_partial
from rotoconv.audit import quarter_turn_drift

rng = np.random.default_rng(0)
basis = populate_partial(rng.uniform(-1, 1, (2, 9, 3, 3)))

group = build_model("group", "partial", basis, in_channels=3, seed=1,
                    dtype="float64")
plain = build_model("translational", seed=1)
print(f"parameters: group {count_parameters(group):,} vs "
      f"translational {count_parameters(plain):,}")

x = rng.standard_normal((2, 3, 32, 32))
logits = group.forward(x).data
print("\nlogits for two images:\n", np.round(logits, 4))
for q, (_, drift) in quarter_turn_drift(group, x).items():
    print(f"input rotated by {90 * q:3d} degrees: max relative logit drift {drift:.2e}")

print("\nactivation shapes through the first blocks:")
for name, kind, act in group.forward_with_activations(x[:1])[:8]:
    print(f"  {name:<14s} {kind:<7s} {act.shape}")
