"""The acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion table.

Criteria 7, 8 and 10 operate on the real MNIST / CIFAR-10 files, looked up
under ``ROTOCONV_DATA_DIR`` (default ``./data``). When the files are absent
those tests FAIL with a BLOCKED diagnostic rather than silently skipping:
this build environment has no network egress, so the datasets cannot be
fetched here; supply the standard files to run them exactly as specified.
"""

import time

import numpy as np
import pytest

from rotoconv import tensor as T
from rotoconv.audit import robustness_suite
from rotoconv.basis import Basis, make_baseline_basis, orthogonality_defect, populate_partial
from rotoconv.datasets import load_cifar10, load_mnist, subset, synthetic_image_corpus
from rotoconv.groups import (GroupElement, RotationOperators, act_on_group_feature_map,
                             compose, inverse, rotate_exact90, unitarity_defect)
from rotoconv.network import GConvInput, Model, build_model
from rotoconv.pretrain import PretrainConfig, pretrain, reconstruction_loss
from rotoconv.tensor import Tensor, check_gradient
from rotoconv.training import TrainConfig, train
from rotoconv.audit import rotation_sweep

from conftest import cifar_available, data_root, mnist_available
from oracles import (gradcheck_catalog, p4_elements, p4_group_correlate,
                     p4_permutation_indices, p4_response_transform)


def _report(num, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {status} {name}: {detail}")
    assert passed, f"criterion {num}: {name} -- {detail}"


def _blocked(num, name, which):
    detail = (f"BLOCKED: {which} files not found under {data_root()} "
              f"(set ROTOCONV_DATA_DIR). This environment has no network egress "
              f"to fetch them; supply the standard files to run the "
              f"criterion exactly as stated.")
    _report(num, name, False, detail)


def test_criterion_01_gradient_suite():
    start = time.time()
    worst = 0.0
    for name, builder, arrays in gradcheck_catalog(seed=123):
        worst = max(worst, check_gradient(builder, arrays, rel_tol=1e-5, step=1e-5))
    elapsed = time.time() - start
    _report(1, "finite-difference gradient suite",
            elapsed < 120.0,
            f"worst rel err {worst:.2e} over every differentiable op, {elapsed:.1f}s")


def test_criterion_02_group_algebra():
    rng = np.random.default_rng(7)
    start = time.time()
    worst = 0.0
    for r1 in range(8):
        for r2 in range(8):
            g = GroupElement(r1, tuple(rng.integers(-10, 11, 2)))
            h = GroupElement(r2, tuple(rng.integers(-10, 11, 2)))
            worst = max(
                worst,
                float(np.abs(compose(g, h).homogeneous()
                             - g.homogeneous() @ h.homogeneous()).max()),
                float(np.abs(compose(g, inverse(g)).homogeneous() - np.eye(3)).max()),
                float(np.abs(inverse(g).homogeneous()
                             - np.linalg.inv(g.homogeneous())).max()),
            )
    elapsed = time.time() - start
    _report(2, "homogeneous-matrix group algebra",
            worst <= 1e-12 and elapsed < 1.0,
            f"worst residual {worst:.2e} over 64 index pairs, {elapsed * 1000:.0f}ms")


def test_criterion_03_periodic_group_convolution_equivariance():
    n = 8
    rng = np.random.default_rng(3)
    f = rng.standard_normal((n, n))
    psi = rng.standard_normal((n, n))
    perms = p4_permutation_indices(n)
    elements = p4_elements(n)
    index = {t: i for i, t in enumerate(elements)}
    base = p4_group_correlate(f, psi, n, perms)
    worst = 0.0
    for t in elements:
        lf = f.reshape(-1)[perms[index[t]]].reshape(n, n)
        lhs = p4_group_correlate(lf, psi, n, perms)
        rhs = p4_response_transform(base, t, n)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    _report(3, "periodic group convolution commutes with the quarter-turn group",
            worst <= 1e-12,
            f"worst residual {worst:.2e} over all {len(elements)} group elements")


def test_criterion_04_unitarity_split():
    exact = RotationOperators(9, 8, "gaussian")
    worst_exact = max(unitarity_defect(exact, r, trials=32, seed=5)
                      for r in (0, 2, 4, 6))
    gauss = unitarity_defect(RotationOperators(9, 8, "gaussian"), 1, 64, 5)
    bilin = unitarity_defect(RotationOperators(9, 8, "bilinear"), 1, 64, 5)
    _report(4, "exact rotations unitary, interpolated rotations not",
            worst_exact <= 1e-12 and gauss > 1e-3 and bilin > 1e-3,
            f"exact {worst_exact:.2e}; gaussian(45) {gauss:.3f}; bilinear(45) {bilin:.3f}")


def test_criterion_05_full_model_quarter_turn_invariance():
    rng = np.random.default_rng(0)
    basis = populate_partial(rng.uniform(-1.0, 1.0, (2, 9, 3, 3)))
    model = build_model("group", "partial", basis, in_channels=3, classes=10,
                        seed=1, dtype="float64")
    x = rng.standard_normal((2, 3, 32, 32))
    base = model.forward_with_activations(x)
    ops = {s: RotationOperators(s, 8) for s in (32, 16, 8)}
    worst_logit = 0.0
    worst_layer = 0.0
    for q in (1, 2, 3):
        rotated = model.forward_with_activations(rotate_exact90(x, q))
        for (name, kind, a0), (_, _, ar) in zip(base, rotated):
            if kind == "group":
                expect = act_on_group_feature_map(a0, 2 * q, ops[a0.shape[-1]])
                h = a0.shape[-1]
                m = h // 4
                resid = np.abs(ar - expect)[..., m:h - m, m:h - m].max()
                worst_layer = max(worst_layer, float(resid))
            elif kind == "vector":
                denom = max(float(np.abs(a0).max()), 1e-12)
                diff = float(np.abs(ar - a0).max()) / denom
                if name == "classifier":
                    worst_logit = max(worst_logit, diff)
                else:
                    worst_layer = max(worst_layer, float(np.abs(ar - a0).max()))
    _report(5, "quarter-turn logit invariance of the full group model",
            worst_logit <= 1e-4 and worst_layer <= 1e-5,
            f"logits rel {worst_logit:.2e}; per-layer interior residual {worst_layer:.2e}")


def test_criterion_06_rotation_commutation_identity():
    rng = np.random.default_rng(11)
    f = Tensor(rng.standard_normal((2, 2, 12, 12)))
    psi = rng.standard_normal((4, 2, 3, 3))
    worst = 0.0
    for s in (0, 2, 4, 6):
        for r in (0, 2, 4, 6):
            left = T.correlate2d(Tensor(rotate_exact90(f.data, s // 2)),
                                 Tensor(rotate_exact90(psi, r // 2))).data
            inner = T.correlate2d(f, Tensor(rotate_exact90(psi, ((r - s) % 8) // 2))).data
            right = rotate_exact90(inner, s // 2)
            m = 12 // 4
            worst = max(worst, float(np.abs(left - right)[..., m:-m, m:-m].max()))
    _report(6, "rotate-image/rotate-filter commutation on the quarter-turn subgroup",
            worst <= 1e-6, f"worst interior residual {worst:.2e} over all 16 (S,R) pairs")


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_07_mnist_basis_pretraining():
    name = "desk-scale basis pretraining on MNIST"
    if not mnist_available():
        _blocked(7, name, "MNIST IDX")
    images = subset(load_mnist(data_root(), "train"), 1000, seed=0).images
    config = PretrainConfig(n_elements=9, kernel_size=3, order=8, partial=True,
                            epochs=30, batch_size=16, learning_rate=5e-3,
                            loss_weights=(10.0, 1.0, 1.0), seed=0)
    start = time.time()
    result = pretrain(images, config)
    elapsed = time.time() - start
    ratio = result.final_equiv_45 / result.initial_equiv_45
    worst_orth = max(orthogonality_defect(result.basis, r) for r in range(8))
    _report(7, name,
            elapsed <= 900.0 and ratio <= 0.5 and worst_orth <= 0.1,
            f"45deg equiv {result.initial_equiv_45:.3f} -> {result.final_equiv_45:.3f} "
            f"(ratio {ratio:.3f}); orth max {worst_orth:.3f}; {elapsed / 60:.1f} min")


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_08_mnist_rotation_sweep_shape():
    name = "rotation sweep shape on MNIST"
    if not mnist_available():
        _blocked(8, name, "MNIST IDX")
    train_set = subset(load_mnist(data_root(), "train"), 5000, seed=0)
    test_set = subset(load_mnist(data_root(), "test"), 2000, seed=0)
    basis = pretrain(train_set.images,
                     PretrainConfig(n_elements=9, partial=True, epochs=15,
                                    batch_size=32, learning_rate=5e-3,
                                    loss_weights=(10.0, 1.0, 1.0), seed=0)).basis
    cfg = TrainConfig(epochs=10, batch_size=100, seed=0, color_normalize=True)
    group = build_model("group", "partial", basis, in_channels=1, seed=1)
    train(group, train_set, cfg)
    sweep_g = rotation_sweep(group, test_set, [0.0, 90.0, 180.0, 270.0], "partial")
    errs = [row["error"] for row in sweep_g.rows]
    plain = build_model("translational", in_channels=1, seed=1)
    train(plain, train_set, cfg)
    sweep_t = rotation_sweep(plain, test_set, [0.0, 180.0], "translational")
    gap = sweep_t.rows[1]["error"] - sweep_t.rows[0]["error"]
    _report(8, name,
            max(errs) - min(errs) <= 0.002 and gap >= 0.05,
            f"group errors {['%.4f' % e for e in errs]} (spread "
            f"{max(errs) - min(errs):.4f}); translational 0->180 gap {gap:.3f}")


def test_criterion_09_baseline_ordering_at_45deg():
    corpus = synthetic_image_corpus(256, 20, seed=0)
    config = PretrainConfig(n_elements=9, partial=True, epochs=300, batch_size=32,
                            learning_rate=5e-3, loss_weights=(10.0, 1.0, 1.0), seed=0)
    learned = pretrain(corpus, config).basis
    zero = learned.elements[0]
    gauss = make_baseline_basis("gaussian", zero_orientation=zero)
    bilin = make_baseline_basis("bilinear", zero_orientation=zero)
    probe = synthetic_image_corpus(6, 20, seed=99)[:, None]

    def layer1_value(basis):
        rng = np.random.default_rng(7)
        layer = GConvInput(1, 8, basis.elements, rng, "float64", "gconv_in")
        model = Model([layer], "group", basis.kind, 1, 8, "float64", 8,
                      basis.fingerprint())
        return robustness_suite(model, probe, 6, angle_indices=[1]).rows[0]["L_equivariance"]

    p, g, b = layer1_value(learned), layer1_value(gauss), layer1_value(bilin)
    _report(9, "learned basis beats interpolated bases at 45 degrees (layer 1)",
            p <= g and p <= b,
            f"partial {p:.4f} <= gaussian {g:.4f} and <= bilinear {b:.4f}")


@pytest.mark.dataset
@pytest.mark.slow
def test_criterion_10_cifar_sanity():
    name = "CIFAR-10 desk-scale accuracy and Full>=Random ordering"
    if not cifar_available():
        _blocked(10, name, "CIFAR-10 binary batches")
    train_set = subset(load_cifar10(data_root(), "train"), 5000, seed=0)
    test_set = subset(load_cifar10(data_root(), "test"), 2000, seed=0)
    learned = pretrain(train_set.images,
                       PretrainConfig(n_elements=9, epochs=15, batch_size=32,
                                      learning_rate=5e-3,
                                      loss_weights=(10.0, 1.0, 1.0), seed=0)).basis
    rand = make_baseline_basis("random", n_elements=9, seed=1)
    cfg = TrainConfig(epochs=10, batch_size=100, seed=0, color_normalize=True,
                      flip=True, max_translate=4)
    accs = {}
    for tag, basis in (("full", learned), ("random", rand)):
        model = build_model("group", basis.kind, basis, in_channels=3, seed=2)
        train(model, train_set, cfg)
        from rotoconv.training import evaluate
        accs[tag] = evaluate(model, test_set).accuracy
    _report(10, name,
            accs["full"] >= 0.45 and accs["full"] >= accs["random"],
            f"full {accs['full']:.3f} vs random {accs['random']:.3f}")


def test_criterion_11_dirac_reconstruction():
    elements = np.zeros((8, 1, 3, 3))
    elements[:, 0, 1, 1] = 1.0
    basis = Basis(elements, "full")
    corpus = synthetic_image_corpus(8, 16, seed=2)
    value = reconstruction_loss(corpus, basis, 0, 0)
    _report(11, "single Dirac element reconstructs images exactly",
            value <= 1e-12, f"reconstruction loss {value:.2e}")
