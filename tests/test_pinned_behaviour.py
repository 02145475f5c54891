"""Behaviour pinned by literals, so refactors of the layer code cannot drift.

The fixture ``fixtures/small_group_v1.ckpt`` is a version-1 checkpoint of
``small_group_model(partial_basis, seed=3)`` after one training-mode forward
(so the batchnorm buffers are not at their defaults), with ``input_stats``
set. ``fixtures/small_group_v1_logits.npz`` holds a fixed float64 input and
the logits that model gave on it when the file was written. The hashes below
were taken from the same code. None of them may be regenerated to make a
change pass: a mismatch means saved checkpoints or seeded runs changed.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from rotoconv.basis import populate_partial
from rotoconv.network import build_model, load_checkpoint
from rotoconv.verify import small_group_model

FIXTURES = Path(__file__).parent / "fixtures"


def parameter_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode("ascii"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def test_v1_checkpoint_loads_with_bitwise_equal_logits(partial_basis):
    model = load_checkpoint(FIXTURES / "small_group_v1.ckpt", partial_basis)
    pinned = np.load(FIXTURES / "small_group_v1_logits.npz")
    logits = model.forward(pinned["x"]).data
    assert logits.dtype == np.float64
    assert np.array_equal(logits, pinned["logits"])
    mean, std = model.input_stats
    assert np.array_equal(mean, [0.25]) and np.array_equal(std, [1.5])


@pytest.mark.parametrize("kind, dtype, arch_hash, digest", [
    ("translational", "float32",
     "a78972641966d3dee0db7e675dd030aff96adca8a83d9326a137e0b0f63767e8",
     "fc7f7b393c9e17ab8fb01788f64a01870f29d3c6f4bab2a75f7566fb17f9974a"),
    ("translational", "float64",
     "6e3449551fe478201a5e50e5f6ac75716b8572ab304ada75d447129db92d861a",
     "9fbf050cb07028a49350b67efc498345d05eb407e14194fcccda47f6e7e36065"),
    ("group", "float32",
     "5d6f1564903462f887003b80d4c44fb8a4ebe71f2c50460014185eeea0fc2743",
     "c669311adf2ff224f9367e1f9a887b8fe3d4a910ce6368b56e3f421547fdcdc8"),
])
def test_build_model_arch_hash_and_parameters(kind, dtype, arch_hash, digest):
    if kind == "group":
        basis = populate_partial(np.random.default_rng(0).uniform(-1.0, 1.0, (2, 9, 3, 3)))
        model = build_model("group", "partial", basis, seed=0, dtype=dtype)
    else:
        model = build_model("translational", seed=0, dtype=dtype)
    assert model.arch_hash() == arch_hash
    assert parameter_digest(model) == digest


@pytest.mark.parametrize("dtype, arch_hash, digest", [
    ("float64",
     "7466af8f16ae9a9a98aef50e63a124eed3e12c8c7adb89849f960e17e173eb43",
     "ce8aec91978c22afebb3554bb77035af66cfd6d21e79fd6e624e540c6e54e652"),
    ("float32",
     "796eb0227c640728f13e9d8589e4789c601c61ce05d05a8fba08d18fcb5e9905",
     "99e3f6b33f9e56b663ef9e9ab3a2a9d42f698047817a5b2695634ec92392490a"),
])
def test_small_group_model_arch_hash_and_parameters(partial_basis, dtype, arch_hash, digest):
    model = small_group_model(partial_basis, seed=3, dtype=dtype)
    assert model.arch_hash() == arch_hash
    assert parameter_digest(model) == digest
