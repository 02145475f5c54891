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

from rotoconv import tensor as T
from rotoconv.basis import Basis, populate_partial
from rotoconv.datasets import synthetic_image_corpus, synthetic_labeled_set
from rotoconv.network import (GConvInput, GConvIntermediate, build_model, load_checkpoint,
                              save_checkpoint)
from rotoconv.pretrain import PretrainConfig, pretrain, total_loss
from rotoconv.tensor import Tensor
from rotoconv.training import TrainConfig, train
from rotoconv.verify import small_group_model

from formats import read_checkpoint_file, write_checkpoint_file

FIXTURES = Path(__file__).parent / "fixtures"


def parameter_digest(model) -> str:
    h = hashlib.sha256()
    for name, p in model.named_parameters():
        h.update(name.encode("ascii"))
        h.update(np.ascontiguousarray(p.data).tobytes())
    return h.hexdigest()


def state_digest(model) -> str:
    """sha256 over every parameter, then every buffer, each under its name."""
    h = hashlib.sha256()
    arrays = [(name, p.data) for name, p in model.named_parameters()] + model.named_buffers()
    for name, a in arrays:
        h.update(name.encode("ascii"))
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_v1_checkpoint_loads_with_bitwise_equal_logits(partial_basis):
    model = load_checkpoint(FIXTURES / "small_group_v1.ckpt", partial_basis)
    pinned = np.load(FIXTURES / "small_group_v1_logits.npz")
    logits = model.forward(pinned["x"]).data
    assert logits.dtype == np.float64
    assert np.array_equal(logits, pinned["logits"])
    mean, std = model.input_stats
    assert np.array_equal(mean, [0.25]) and np.array_equal(std, [1.5])


def test_v1_checkpoint_saves_back_byte_for_byte(tmp_path, partial_basis):
    """Loading the fixture and saving it again gives its bytes, through the library and
    through the tests' own format writer."""
    fixture = FIXTURES / "small_group_v1.ckpt"
    save_checkpoint(load_checkpoint(fixture, partial_basis), tmp_path / "library.ckpt")
    write_checkpoint_file(tmp_path / "formats.ckpt", *read_checkpoint_file(fixture))
    assert (tmp_path / "library.ckpt").read_bytes() == fixture.read_bytes()
    assert (tmp_path / "formats.ckpt").read_bytes() == fixture.read_bytes()


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


# -- basis pretraining ---------------------------------------------------------
# Loss terms of ``total_loss`` for one fixed full basis and image batch, and
# sampled elements plus the last epoch's L_total of 3-epoch float64 runs, all
# taken from the per-orientation slot-list implementation. The equivariance and
# reconstruction terms are the same operations on the same arrays in any slot
# layout, so they must match bitwise; the orthogonality term may sum in another
# order, and training differs by gradient rounding, hence the tolerances.

PINNED_TERMS = {  # (dtype, s, r): (equiv, rec)
    ("float64", 0, 3): ("0x0.0p+0", "0x1.dbee09167472ep+1"),
    ("float64", 1, 1): ("0x1.0907c362cefcfp+1", "0x1.d4bd26ec639aap-1"),
    ("float64", 2, 5): ("0x1.8c5046df75377p+1", "0x1.6f3911a5987b6p+0"),
    ("float64", 3, 6): ("0x1.f7bd7a136c15cp+1", "0x1.aab71a89a8853p+1"),
    ("float64", 7, 2): ("0x1.dbd859d6d7b35p+1", "0x1.824c722711267p+1"),
    ("float32", 0, 3): ("0x0.0p+0", "0x1.dbee0a0000000p+1"),
    ("float32", 1, 1): ("0x1.0907c40000000p+1", "0x1.d4bd280000000p-1"),
    ("float32", 2, 5): ("0x1.8c50480000000p+1", "0x1.6f39120000000p+0"),
    ("float32", 3, 6): ("0x1.f7bd7a0000000p+1", "0x1.aab71a0000000p+1"),
    ("float32", 7, 2): ("0x1.dbd85c0000000p+1", "0x1.824c720000000p+1"),
}
PINNED_ORTH = {"float64": "0x1.4b58f86eaa213p+6", "float32": "0x1.4b58fa0000000p+6"}
ORTH_RTOL = {"float64": 1e-14, "float32": 1e-6}


@pytest.mark.parametrize("dtype, s, r", sorted(PINNED_TERMS))
def test_total_loss_terms_pinned(dtype, s, r):
    basis = Basis(np.random.default_rng(21).uniform(-1.0, 1.0, (8, 3, 3, 3)), "full")
    terms = total_loss(synthetic_image_corpus(4, 12, seed=8), basis, s, r, dtype=dtype)
    equiv, rec = PINNED_TERMS[dtype, s, r]
    assert terms["equiv"].hex() == equiv
    assert terms["rec"].hex() == rec
    orth = float.fromhex(PINNED_ORTH[dtype])
    assert abs(terms["orth"] - orth) <= ORTH_RTOL[dtype] * orth
    total = float.fromhex(equiv) + orth + float.fromhex(rec)
    assert abs(terms["total"] - total) <= ORTH_RTOL[dtype] * total


PINNED_PRETRAIN = {  # (partial, sum_all_pairs): (8 spread elements, last L_total)
    (True, False): (["0x1.177124149f876p-3", "-0x1.1bad4b728a44ap-2", "-0x1.926108ffa3e4fp-3",
                     "-0x1.4be23c148509fp-2", "0x1.0365b0b01ef3fp-2", "-0x1.a69320fb36d68p-2",
                     "-0x1.c4f72c20db7cep-3", "0x1.e95eca82ec626p-5"], "0x1.2a35cfd8db65ep+3"),
    (True, True): (["0x1.4c974292b2020p-4", "-0x1.c4bd219c3119ep-3", "-0x1.956c2fbec94c9p-3",
                    "-0x1.1308d451320b4p-2", "0x1.e6ca9c24a4ba0p-3", "-0x1.8beec92267129p-2",
                    "-0x1.c0e1f938e04d5p-3", "0x1.aec09f80d028dp-5"], "0x1.bceca74735cbbp+5"),
    (False, False): (["0x1.08ca43e587c09p-3", "-0x1.1cfaebe24f7cdp-2", "-0x1.5beabc9d3c503p-3",
                      "0x1.49eef02b5aa9dp-3", "0x1.857391b8c189dp-2", "-0x1.680d72526e206p-4",
                      "0x1.198d00b574653p-2", "0x1.3043351c49835p-2"], "0x1.2c1eac131c0c2p+3"),
    (False, True): (["0x1.46415acce9161p-4", "-0x1.c00098bd674fcp-3", "-0x1.5aea9a112dbfep-3",
                     "0x1.a8afa52880aabp-4", "0x1.546ea30d2f479p-2", "-0x1.8906c1a7dcce6p-4",
                     "0x1.20a269c7fdd37p-2", "0x1.2d66763f16828p-2"], "0x1.1fa1d2a96990cp+6"),
}


@pytest.mark.parametrize("partial, sum_all_pairs", sorted(PINNED_PRETRAIN))
def test_pretrain_three_epochs_pinned(partial, sum_all_pairs):
    cfg = PretrainConfig(n_elements=2, epochs=3, batch_size=4, partial=partial,
                         sum_all_pairs=sum_all_pairs, learning_rate=5e-3, seed=7,
                         dtype="float64")
    result = pretrain(synthetic_image_corpus(8, 12, seed=3), cfg)
    flat = result.basis.elements.reshape(-1)
    got = flat[np.linspace(0, flat.size - 1, 8).astype(int)]
    elements, last_total = PINNED_PRETRAIN[partial, sum_all_pairs]
    want = np.array([float.fromhex(v) for v in elements])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    want_total = float.fromhex(last_total)
    assert abs(result.epochs[-1]["L_total"] - want_total) <= 1e-12 * want_total


# -- the run loop ----------------------------------------------------------------
# Two epochs of 10 images at batch 4: ``train`` keeps the short last batch of 2
# and ``pretrain`` drops it. Taken before the two loops became one; every
# value must hold bitwise. The training images are 4x4 because at 8x8 some
# float64 GEMMs round differently with the number of OpenBLAS threads.

PINNED_TRAIN_ROWS = [  # (train_loss, train_acc, val_acc) per epoch
    ("0x1.8c77f15808e3dp+0", "0x1.3333333333333p-2", "0x1.5555555555555p-2"),
    ("0x1.60726868ebde2p+0", "0x1.3333333333333p-2", "0x1.5555555555555p-2"),
]
PINNED_TRAIN_STATE = "1104ba5ea0ceb8b20fa9cf0a9c2d5ea9d1a613f50bee4149aeb509b30c5ca1c1"


def test_train_two_epochs_pinned(partial_basis):
    train_set = synthetic_labeled_set(10, 4, 3, seed=4, channels=2)
    val_set = synthetic_labeled_set(6, 4, 3, seed=9, channels=2)
    model = small_group_model(partial_basis, classes=3, seed=2, in_channels=2)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e-2, flip=True,
                      max_translate=2, color_normalize=True, rotation_augment="quarter",
                      seed=5)
    rows = train(model, train_set, cfg, val_set)
    got = [(r["train_loss"].hex(), r["train_acc"].hex(), r["val_acc"].hex()) for r in rows]
    assert [r["epoch"] for r in rows] == [0, 1]
    assert got == PINNED_TRAIN_ROWS
    assert state_digest(model) == PINNED_TRAIN_STATE


PINNED_PRETRAIN_ROWS = {  # sum_all_pairs: ((L_equiv, L_orth, L_rec, L_total) per epoch, basis)
    False: ([("0x1.c0581884b30bap-2", "0x1.379cfc3c489bbp+3", "0x1.7a03c22c482c8p-2",
              "0x1.516fdb11d0758p+3"),
             ("0x1.fa2db439472edp-2", "0x1.2105408f382d6p+3", "0x1.f96dcd6ee7849p-2",
              "0x1.40a21c9c79a30p+3")],
            "f09cc7f7138387d085fd1bba8fe8e33856f511ec17ba71a1b6c5b4dab8ced1d9"),
    True: ([("0x1.a059ed0e66143p+4", "0x1.3ce550a028a2bp+3", "0x1.852e29b4e9799p+4",
             "0x1.e1fd5f89b1ef8p+5"),
            ("0x1.85c96f13f5dabp+4", "0x1.3a8f984820e4ap+3", "0x1.941652ec8256dp+4",
             "0x1.db93c7124451ep+5")],
           "5e008eaf8732b833fcc4fed69ad4e9f8cb3c392abc3edd6424fd10ea9d8d7bd2"),
}


@pytest.mark.parametrize("sum_all_pairs", [False, True])
def test_pretrain_two_epochs_short_batch_pinned(sum_all_pairs):
    cfg = PretrainConfig(n_elements=2, epochs=2, batch_size=4, partial=True,
                         sum_all_pairs=sum_all_pairs, learning_rate=5e-3, seed=7,
                         dtype="float64")
    result = pretrain(synthetic_image_corpus(10, 12, seed=3), cfg)
    fields = ("L_equiv", "L_orth", "L_rec", "L_total")
    got = [tuple(row[f].hex() for f in fields) for row in result.epochs]
    rows, digest = PINNED_PRETRAIN_ROWS[sum_all_pairs]
    assert [row["epoch"] for row in result.epochs] == [0, 1]
    assert got == rows
    assert hashlib.sha256(result.basis.elements.tobytes()).hexdigest() == digest


# -- group convolution layers -----------------------------------------------------
# sha256 over the training forward's output, then the input and coefficient
# gradients under a fixed random upstream gradient, for the lifting layer, a
# basis intermediate layer and a 1x1 "ones" layer. Taken while lifting and
# intermediate layers had separate bodies; every byte must hold. The maps are
# 4x4 so that no GEMM rounds differently with the number of OpenBLAS threads.

PINNED_GCONV = {
    ("lift", "float32"): "dffd3f6bcea4bec775bd15691174b7a4da053cf206ad005b94d8e424ab6f20aa",
    ("lift", "float64"): "6fcd4ec09c8457d1b31c9c0c5f2c0e0772db8b15819af8cd40f8f2821292428d",
    ("basis", "float32"): "ff31685acab464a8878a9826189fe6a03f573c7f3cf789fcef9f68d605452f1c",
    ("basis", "float64"): "8259bf240a9f0d57481063ff41408371aca967011ceb7d28ef2377416dc29d62",
    ("ones", "float32"): "66d962685c1bf3bc4406de651c0280cf4753180be2314b8aedeacb837646da62",
    ("ones", "float64"): "af6c5cceccd7b132329bb61f5c5fb1bbb7c118d629de6624d79e18ad50825845",
}


@pytest.mark.parametrize("layer, dtype", sorted(PINNED_GCONV))
def test_gconv_layers_pinned(partial_basis, layer, dtype):
    rng = np.random.default_rng(13)
    if layer == "lift":
        conv = GConvInput(2, 3, partial_basis.elements, rng, dtype, layer)
        shape = (2, 2, 4, 4)
    else:
        elements = partial_basis.elements if layer == "basis" else np.ones((8, 1, 1, 1))
        conv = GConvIntermediate(2, 3, elements, rng, dtype, layer)
        shape = (2, 2, 8, 4, 4)
    x = Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
    out = conv.forward(x, True)
    assert out.data.shape == (2, 3, 8, 4, 4) and out.data.dtype == dtype
    g = rng.standard_normal((out.data.size, 1)).astype(dtype)
    T.matmul(T.reshape(out, (1, -1)), Tensor(g)).backward()
    digest = hashlib.sha256()
    for arr in (out.data, x.grad, conv.coefficients.grad):
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == PINNED_GCONV[layer, dtype]


# -- one training step of the paper's models ---------------------------------------
# sha256 over the logits, the input gradient, every parameter gradient and every
# BatchNorm buffer (49 arrays for the group model) after one training-mode forward and
# backward of ``build_model`` at 3x32x32 under a cross-entropy loss. At these shapes
# the conv layers run the column-block path and grad-w sums in several row slabs, so
# a change of ``tensor._BLOCK_COLUMNS``, ``_COLUMN_BYTES`` or of how a map is split
# into GEMMs shows here even where it raises no error. Taken under OpenBLAS 0.3.31
# (Haswell kernels, 2 threads) on x86_64; another BLAS may round the GEMMs otherwise.

PINNED_STEP = {
    ("group", "float32", 8): "a14888bd8c0bdc425a8b13de41b33ce25637bf26e5182fccd0f7f45cbcad1b19",
    ("group", "float64", 2): "9ed6c889ddfa7a181f7009b2300c264cc9edce958336e68f37021ff59f9ab7da",
    ("translational", "float64", 2):
        "c7f87b26a40f20191303783e83d31d27f10739bfd7f2a6366c9b10ba98d14834",
}


@pytest.mark.parametrize("kind, dtype, batch", sorted(PINNED_STEP))
def test_build_model_training_step_pinned(kind, dtype, batch):
    rng = np.random.default_rng(17)
    group = kind == "group"
    basis = populate_partial(rng.uniform(-1.0, 1.0, (2, 9, 3, 3)))
    model = build_model(kind, "partial" if group else "none", basis if group else None,
                        in_channels=3, seed=3, dtype=dtype)
    x = Tensor(rng.standard_normal((batch, 3, 32, 32)).astype(dtype), requires_grad=True)
    logits = model.forward(x, training=True)
    T.softmax_cross_entropy(logits, rng.integers(0, model.classes, batch)).backward()
    arrays = [logits.data, x.grad] + [p.grad for p in model.parameters()] \
        + [b for _, b in model.named_buffers()]
    assert len(arrays) == 49
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == PINNED_STEP[kind, dtype, batch]
