import math

import numpy as np
import pytest

from rotoconv import groups, network
from rotoconv.audit import (SweepReport, activation_pair_error, emit_reports,
                            quarter_turn_drift, robustness_suite, rotation_sweep)
from rotoconv.basis import Basis, make_baseline_basis, populate_partial
from rotoconv.datasets import LabeledImageSet, synthetic_labeled_set
from rotoconv.groups import RotationOperators, act_on_group_feature_map, rotate_exact90
from rotoconv.network import Conv2d, GConvInput, Model
from rotoconv.training import evaluate, normalize
from rotoconv.verify import small_group_model

from formats import read_csv_rows


def single_layer_model(basis, channels=6, seed=7):
    rng = np.random.default_rng(seed)
    layer = GConvInput(1, channels, basis.elements, rng, "float64", "gconv_in")
    return Model([layer], "group", basis.kind, 1, channels, "float64", 8,
                 basis.fingerprint())


def loop_pair_error(a_r, a_s, ridx, kind, ops, order=8, crop_fraction=0.25):
    """The pair error one channel at a time, rectifying ``a_s`` by -ridx."""
    delta = -ridx % order
    if kind == "vector":
        ref, rect = a_r, a_s
    else:
        rect = act_on_group_feature_map(a_s, delta, ops) if kind == "group" \
            else ops.apply(a_s, delta)
        h = a_r.shape[-1]
        m = int(h * crop_fraction)
        ref, rect = a_r[..., m:h - m, m:h - m], rect[..., m:h - m, m:h - m]
    total = 0.0
    for k in range(ref.shape[0]):
        diff = ref[k] - rect[k]
        norm_ref = float(np.sqrt((ref[k].astype(np.float64) ** 2).sum()))
        norm_rect = float(np.sqrt((rect[k].astype(np.float64) ** 2).sum()))
        if norm_ref == 0.0 or norm_rect == 0.0:
            continue
        total += float((diff.astype(np.float64) ** 2).sum()) / (norm_ref * norm_rect)
    return total


def reference_suite(model, images, angle_indices, order=8):
    """Per-layer, per-angle mean pair error: one batch-1 forward per copy."""
    input_ops = RotationOperators(images.shape[-1], order)
    sums = np.zeros((len(model.layers), len(angle_indices)))
    for image in images:
        base = model.forward_with_activations(image[None])
        for a_i, ridx in enumerate(angle_indices):
            acts = model.forward_with_activations(input_ops.apply(image, ridx)[None])
            for l_i, ((_, kind, a0), (_, _, ar)) in enumerate(zip(base, acts)):
                ops = None if kind == "vector" else RotationOperators(a0.shape[-1], order)
                sums[l_i, a_i] += loop_pair_error(a0[0], ar[0], ridx, kind, ops)
    return sums / len(images)


def one_stack_suite(model, images, angle_indices, order=8):
    """Per-layer, per-angle mean pair error from one forward of ``[image]`` plus
    one rotated copy per requested index, one ``activation_pair_error`` per
    (layer, angle), summed in the suite's order."""
    input_ops = RotationOperators(images.shape[-1], order)
    ops_by_size = {}
    sums = np.zeros((len(model.layers), len(angle_indices)))
    for image in images:
        stack = np.stack([image] + [input_ops.apply(image, int(r)) for r in angle_indices])
        for l_i, (_, kind, acts) in enumerate(model.iter_activations(stack)):
            size = acts.shape[-1]
            ops = None if kind == "vector" else \
                ops_by_size.setdefault(size, RotationOperators(size, order))
            for a_i, r in enumerate(angle_indices):
                sums[l_i, a_i] += activation_pair_error(acts[0], acts[1 + a_i], 0, int(r),
                                                        kind, order, ops=ops)
    return sums / len(images)


def layer_kinds(model):
    kinds, kind = [], "spatial"
    for layer in model.layers:
        kind = layer.out_kind(kind)
        kinds.append(kind)
    return kinds


class TestRotationSweep:
    def test_angle_zero_equals_plain_evaluation(self, partial_basis):
        ds = synthetic_labeled_set(25, 8, 5, seed=1)
        model = small_group_model(partial_basis, classes=5, seed=2, dtype="float32")
        report = rotation_sweep(model, ds, [0.0], variant="partial")
        assert report.rows[0]["error"] == evaluate(model, ds).error

    def test_quarter_turn_errors_identical_for_partial_model(self, partial_basis):
        ds = synthetic_labeled_set(30, 8, 5, seed=3)
        model = small_group_model(partial_basis, classes=5, seed=2, dtype="float64")
        report = rotation_sweep(model, ds, [0.0, 90.0, 180.0, 270.0])
        errors = [row["error"] for row in report.rows]
        assert max(errors) - min(errors) <= 0.002

    def test_rows_carry_variant_and_angle(self, partial_basis):
        ds = synthetic_labeled_set(10, 8, 5, seed=3)
        model = small_group_model(partial_basis, classes=5, seed=2, dtype="float32")
        report = rotation_sweep(model, ds, [0.0, 45.0], variant="check")
        assert [r["angle_deg"] for r in report.rows] == [0.0, 45.0]
        assert all(r["variant"] == "check" for r in report.rows)
        assert all(0.0 <= r["error"] <= 1.0 for r in report.rows)

    def test_non_square_images_rejected(self, partial_basis, rng):
        ds = LabeledImageSet(rng.random((4, 1, 8, 10)), np.arange(4) % 5, "test", 5)
        model = small_group_model(partial_basis, classes=5, seed=2)
        for angle in (0.0, 45.0, 90.0):
            with pytest.raises(ValueError, match="square"):
                rotation_sweep(model, ds, [angle])


class TestActivationPairError:
    def test_identical_activations_zero(self, rng):
        a = rng.standard_normal((3, 8, 6, 6))
        assert activation_pair_error(a, a, 0, 0) == 0.0

    def test_matches_hand_formula_on_tiny_instance(self, rng):
        a_r = rng.standard_normal((1, 4, 2, 2))
        a_s = rng.standard_normal((1, 4, 2, 2))
        ops = RotationOperators(2, 4)
        got = activation_pair_error(a_r, a_s, 0, 1, kind="group", order=4, ops=ops)
        rect = act_on_group_feature_map(a_s, (0 - 1) % 4, ops)
        num = ((a_r[0] - rect[0]) ** 2).sum()
        den = np.sqrt((a_r[0] ** 2).sum()) * np.sqrt((rect[0] ** 2).sum())
        assert abs(got - num / den) <= 1e-12

    def test_zero_norm_channel_contributes_zero(self, rng):
        a_r = np.zeros((2, 4, 4, 4))
        a_s = rng.standard_normal((2, 4, 4, 4))
        a_r[1] = a_s[1]
        v = activation_pair_error(a_r, a_s, 0, 0, order=4)
        assert v == 0.0

    def test_quarter_turn_rectification_exact_for_partial(self, rng, partial_basis):
        model = single_layer_model(partial_basis)
        x = rng.standard_normal((8, 8))
        a0 = model.forward_with_activations(x[None, None])[0][2][0]
        ops_in = RotationOperators(8, 8)
        x_rot = ops_in.apply(x, 2)
        a2 = model.forward_with_activations(x_rot[None, None])[0][2][0]
        err = activation_pair_error(a0, a2, 0, 2, kind="group",
                                    ops=RotationOperators(8, 8))
        assert err <= 1e-6

    @pytest.mark.parametrize("kind,shape", [("group", (5, 8, 12, 12)),
                                            ("spatial", (5, 12, 12)),
                                            ("vector", (5,))])
    def test_matches_channel_loop(self, rng, kind, shape):
        a_r = rng.standard_normal(shape).astype(np.float32)
        a_s = rng.standard_normal(shape).astype(np.float32)
        a_r[1] = 0.0  # a dead channel on either side is skipped
        a_s[3] = 0.0
        ops = None if kind == "vector" else RotationOperators(12, 8)
        got = activation_pair_error(a_r, a_s, 0, 3, kind, ops=ops)
        want = loop_pair_error(a_r, a_s, 3, kind, ops)
        assert got > 0.0
        assert abs(got - want) <= 1e-12 * want

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind,shape", [("group", (5, 8, 12, 12)),
                                            ("spatial", (5, 12, 12))])
    def test_equals_full_rotation_then_crop_exactly(self, rng, kind, shape, dtype):
        # The formula on the whole rotated map, cropped afterwards.
        a_r = rng.standard_normal(shape).astype(dtype)
        a_s = rng.standard_normal(shape).astype(dtype)
        ops = RotationOperators(12, 8)
        for s in range(8):
            rect = act_on_group_feature_map(a_s, -s % 8, ops) if kind == "group" \
                else ops.apply(a_s, -s % 8)
            ref = a_r[..., 3:9, 3:9].reshape(5, -1)
            rect = rect[..., 3:9, 3:9].reshape(5, -1)
            sq_diff = ((ref - rect).astype(np.float64) ** 2).sum(axis=1)
            norm_ref = np.sqrt((ref.astype(np.float64) ** 2).sum(axis=1))
            norm_rect = np.sqrt((rect.astype(np.float64) ** 2).sum(axis=1))
            want = float((sq_diff / (norm_ref * norm_rect)).sum())
            assert activation_pair_error(a_r, a_s, 0, s, kind, ops=ops) == want

    def test_operators_of_another_order_rejected(self, rng):
        a = rng.standard_normal((2, 9, 9))
        with pytest.raises(ValueError, match="order 8 given for order 4"):
            activation_pair_error(a, a, 0, 3, "spatial", order=4, ops=RotationOperators(9, 8))

    @pytest.mark.parametrize("r, s", [(1.5, 0), (0, 1.5), (1.0, 0), (0, np.float32(2))])
    def test_non_integer_index_rejected(self, rng, r, s):
        a = rng.standard_normal((2, 9, 9))
        with pytest.raises(ValueError, match="rotation index must be an integer"):
            activation_pair_error(a, a, r, s, "spatial")

    def test_numpy_integer_indices_accepted(self, rng):
        a_r, a_s = rng.standard_normal((2, 2, 9, 9))
        assert activation_pair_error(a_r, a_s, np.int64(0), np.int32(1), "spatial") \
            == activation_pair_error(a_r, a_s, 0, 1, "spatial")

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="shapes"):
            activation_pair_error(rng.random((1, 2, 4, 4)), rng.random((1, 2, 5, 5)), 0, 1)


class TestRobustnessSuite:
    def test_quarter_turn_set_near_zero_for_partial(self, rng, partial_basis):
        model = single_layer_model(partial_basis)
        images = rng.random((3, 1, 8, 8))
        report = robustness_suite(model, images, 3, angle_indices=[0, 2, 4, 6])
        assert report.rows[0]["L_equivariance"] <= 1e-6

    def test_zero_angle_set_identically_zero(self, rng, partial_basis):
        model = single_layer_model(partial_basis)
        images = rng.random((2, 1, 8, 8))
        report = robustness_suite(model, images, 2, angle_indices=[0])
        assert all(row["L_equivariance"] == 0.0 for row in report.rows)

    def test_reports_every_layer(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=1)
        images = rng.random((2, 1, 8, 8))
        report = robustness_suite(model, images, 2, angle_indices=[0, 1])
        assert len(report.rows) == len(model.layers)
        assert len(report.per_angle) == len(model.layers) * 2
        assert all(row["L_equivariance"] >= 0.0 for row in report.rows)
        assert all(np.isfinite(row["L_equivariance"]) for row in report.rows)

    def test_batched_suite_matches_batch_one_reference(self, rng, partial_basis):
        # Measured on this model: 1e-16 relative where L > 1e-3 and 0 at quarter
        # turns. On the 33/67-channel model at 28x28 (float32), the batched
        # GEMMs sum in another order: up to 8.5e-6 relative and 8.3e-10
        # absolute at quarter turns. The bounds leave room for other BLAS builds.
        model = small_group_model(partial_basis, channels=(6, 10), seed=4, dtype="float32")
        images = rng.random((2, 1, 16, 16))
        angles = [0, 1, 2, 3, 6]
        want = reference_suite(model, images, angles)
        report = robustness_suite(model, images, 2, angle_indices=angles)
        got = np.array([row["L_equivariance"] for row in report.per_angle]).reshape(want.shape)
        large = want > 1e-3
        assert large[:, [1, 3]].all()
        assert (np.abs(got - want)[large] <= 1e-4 * want[large]).all()
        assert np.abs(got - want)[:, [0, 2, 4]].max() <= 1e-8
        means = [row["L_equivariance"] for row in report.rows]
        assert np.allclose(means, got.mean(axis=1), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("angles", [list(range(8)), [3, 0, 5, 11, 3]])
    def test_per_angle_equals_one_stack_pair_errors_exactly(self, rng, partial_basis,
                                                            dtype, angles):
        model = small_group_model(partial_basis, channels=(6, 10), seed=4, dtype=dtype)
        images = rng.random((2, 1, 16, 16))
        want = one_stack_suite(model, images, angles)
        report = robustness_suite(model, images, 2, angle_indices=angles)
        got = np.array([row["L_equivariance"] for row in report.per_angle])
        assert (want > 1e-3).any()
        assert (got.reshape(want.shape) == want).all()

    @pytest.mark.parametrize("angles, batch", [(range(8), 8), ([3, 0, 5, 11, 3], 3),
                                               ([0, 8], 1)])
    def test_one_forward_per_distinct_rotation(self, rng, partial_basis, monkeypatch,
                                               angles, batch):
        model = small_group_model(partial_basis, seed=1)
        batches = []
        forward = Model.iter_activations

        def recording(self, x):
            batches.append(len(x))
            yield from forward(self, x)

        monkeypatch.setattr(Model, "iter_activations", recording)
        robustness_suite(model, rng.random((2, 1, 8, 8)), 2, angle_indices=angles)
        assert batches == [batch, batch]

    def test_float32_quarter_turn_invariance(self, partial_basis):
        # Worst quarter-turn values over seeds 0-19 of this set-up: 1.7e-12 on
        # map layers and 5.0e-9 on vector layers; 45-degree values were at
        # least 2.4 and 0.13.
        for seed in range(3):
            rng = np.random.default_rng(seed)
            basis = populate_partial(rng.uniform(-1, 1, (2, 4, 3, 3)))
            model = small_group_model(basis, seed=seed, dtype="float32")
            report = robustness_suite(model, rng.random((2, 1, 16, 16)), 2,
                                      angle_indices=[1, 2, 4, 6])
            kinds = layer_kinds(model)
            for row in report.per_angle:
                value = row["L_equivariance"]
                vector = kinds[row["layer_index"]] == "vector"
                if row["angle_index"] == 1:
                    assert value >= (1e-2 if vector else 1.0)
                else:
                    assert value <= (1e-6 if vector else 1e-9)

    def test_n_images_validated(self, rng, partial_basis):
        model = single_layer_model(partial_basis)
        with pytest.raises(ValueError, match="n_images"):
            robustness_suite(model, rng.random((2, 1, 8, 8)), 0)

    def test_empty_angle_list_rejected_before_any_forward(self, rng, partial_basis,
                                                           monkeypatch):
        model = small_group_model(partial_basis, classes=5, seed=2)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(type(model), "iter_activations", no_forward)
        with pytest.raises(ValueError, match="angle_indices"):
            robustness_suite(model, rng.random((2, 1, 8, 8)), 2, angle_indices=[])

    @pytest.mark.parametrize("angles", [[1.5], [0, 2.0], [1, np.float64(3.0)]])
    def test_non_integer_index_rejected_before_any_forward(self, rng, partial_basis,
                                                           monkeypatch, angles):
        model = small_group_model(partial_basis, classes=5, seed=2)

        def no_forward(*args, **kwargs):
            raise AssertionError("forward ran")

        monkeypatch.setattr(type(model), "iter_activations", no_forward)
        with pytest.raises(ValueError, match="rotation index must be an integer"):
            robustness_suite(model, rng.random((2, 1, 8, 8)), 2, angle_indices=angles)

    def test_numpy_integer_indices_accepted(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=1)
        images = rng.random((2, 1, 8, 8))
        got = robustness_suite(model, images, 2, angle_indices=[np.int64(1), np.int32(2)])
        want = robustness_suite(model, images, 2, angle_indices=[1, 2])
        assert got.per_angle == want.per_angle
        assert all(type(row["angle_index"]) is int for row in got.per_angle)

    def test_group_order_comes_from_the_model(self, rng):
        basis = populate_partial(rng.uniform(-1.0, 1.0, (1, 4, 3, 3)), order=4)
        model = small_group_model(basis, seed=1)
        report = robustness_suite(model, rng.random((2, 1, 8, 8)), 2)
        assert sorted({row["angle_index"] for row in report.per_angle}) == [0, 1, 2, 3]
        assert len(report.per_angle) == 4 * len(model.layers)
        kinds = layer_kinds(model)
        for row in report.per_angle:
            # Every index of an order-4 group is a quarter turn, exact on a partial basis.
            bound = 1e-6 if kinds[row["layer_index"]] == "vector" else 1e-9
            assert row["L_equivariance"] <= bound

    def test_input_stats_normalize_the_rotated_images(self, rng, partial_basis):
        """Each image and its rotated copies are normalized after the rotation, as
        ``rotation_sweep`` and ``evaluate`` do."""
        model = small_group_model(partial_basis, seed=1)
        model.input_stats = (np.array([5.0]), np.array([2.0]))
        images = rng.random((1, 1, 8, 8))
        fed = []
        iter_activations = model.iter_activations
        model.iter_activations = lambda x: fed.append(x) or iter_activations(x)
        robustness_suite(model, images, 1, angle_indices=[1, 2])
        ops = RotationOperators(8, 8)
        stack = np.stack([images[0], ops.apply(images[0], 1), ops.apply(images[0], 2)])
        assert len(fed) == 1 and np.array_equal(fed[0], normalize(stack, model.input_stats))

    def test_builds_each_operator_once(self, rng, partial_basis, monkeypatch):
        builds = []
        build = groups.rotation_matrix

        def counting(size, angle, *args):
            builds.append((size, round(math.degrees(angle))))
            return build(size, angle, *args)

        monkeypatch.setattr(groups, "rotation_matrix", counting)
        model = small_group_model(partial_basis, seed=1, dtype="float32")
        robustness_suite(model, rng.random((3, 1, 8, 8)).astype(np.float32), 3)
        # the input and first maps are 8x8, the pooled ones 4x4; quarter turns build none
        assert sorted(builds) == [(size, angle) for size in (4, 8)
                                  for angle in (45, 135, 225, 315)]


@pytest.mark.slow
class TestQuarterTurnDrift:
    def test_partial_model_exact_in_float64(self, rng, partial_basis):
        model = small_group_model(partial_basis, seed=1)
        drift = quarter_turn_drift(model, rng.standard_normal((3, 1, 8, 8)))
        assert sorted(drift) == [1, 2, 3]
        for maps, logits in drift.values():
            assert maps <= 1e-12 and logits <= 1e-12

    def test_random_basis_breaks_the_maps(self, rng):
        model = small_group_model(make_baseline_basis("random", n_elements=4), seed=1)
        drift = quarter_turn_drift(model, rng.standard_normal((3, 1, 8, 8)))
        assert all(maps > 1e-3 for maps, _ in drift.values())

    def test_input_stats_normalize_every_turn(self, rng):
        basis = make_baseline_basis("random", n_elements=4)
        x = rng.random((3, 1, 8, 8))
        stats = (np.array([5.0]), np.array([2.0]))
        plain = quarter_turn_drift(small_group_model(basis, seed=1), normalize(x, stats))
        model = small_group_model(basis, seed=1)
        model.input_stats = stats
        assert quarter_turn_drift(model, x) == plain

    def test_logits_figure_is_the_hand_formula(self, rng):
        model = small_group_model(make_baseline_basis("random", n_elements=4), seed=1)
        x = rng.standard_normal((3, 1, 8, 8))
        logits = model.forward(x).data
        drift = quarter_turn_drift(model, x)
        for q in (1, 2, 3):
            change = np.abs(model.forward(rotate_exact90(x, q)).data - logits).max()
            assert drift[q][1] == change / np.abs(logits).max()

    def test_wrong_orientation_gather_shows_in_the_maps(self, rng, partial_basis,
                                                       monkeypatch):
        def rolled_the_wrong_way(channels, order, slots):
            r = np.arange(order)[:, None, None]
            c = np.arange(channels)[None, :, None]
            s = np.arange(slots)[None, None, :]
            index = ((c * slots + (s + r) % slots) * order + r).ravel()
            return index, np.argsort(index)

        monkeypatch.setattr(network, "_roll_index", rolled_the_wrong_way)
        model = small_group_model(partial_basis, seed=1)
        drift = quarter_turn_drift(model, rng.standard_normal((1, 1, 8, 8)))
        assert max(maps for maps, _ in drift.values()) > 0.5

    @pytest.mark.parametrize("kernel, exact", [
        (np.array([[1.0, 2.0, 1.0], [2.0, 5.0, 2.0], [1.0, 2.0, 1.0]]), True),
        (np.arange(9.0).reshape(3, 3), False)])
    def test_spatial_maps_turn_without_a_roll(self, rng, kernel, exact):
        layer = Conv2d(1, 1, 3, rng, "float64", "conv")
        layer.weight.data[...] = kernel
        model = Model([layer], "translational", "none", 1, 1, "float64", 1)
        drift = quarter_turn_drift(model, rng.standard_normal((2, 1, 6, 6)))
        assert all((maps <= 1e-12) == exact for maps, _ in drift.values())

    def test_four_forwards_of_the_batch_shape(self, rng, partial_basis, monkeypatch):
        model = small_group_model(partial_basis, seed=1)
        shapes = []
        forward = Model.iter_activations

        def recording(self, x):
            shapes.append(np.shape(x))
            yield from forward(self, x)

        monkeypatch.setattr(Model, "iter_activations", recording)
        quarter_turn_drift(model, rng.standard_normal((2, 1, 8, 8)))
        assert shapes == [(2, 1, 8, 8)] * 4

    def test_order_not_divisible_by_four_rejected(self, rng):
        model = small_group_model(Basis(rng.standard_normal((6, 2, 3, 3)), "full"), seed=1)
        with pytest.raises(ValueError, match="divisible by 4"):
            quarter_turn_drift(model, rng.standard_normal((1, 1, 8, 8)))


def test_sweep_direction_desk_scale(partial_basis):
    """Trained on unrotated data: group errors flat across quarter turns,
    translational error collapses at 180 degrees."""
    from rotoconv.datasets import LabeledImageSet
    from rotoconv.network import (BatchNorm, Conv2d, Dense, GlobalMaxPool,
                                  MaxPool2x2, ReLU)
    from rotoconv.training import TrainConfig, train

    full = synthetic_labeled_set(300, 12, 5, seed=0)
    train_set = LabeledImageSet(full.images[:200], full.labels[:200], "train", 5)
    test_set = LabeledImageSet(full.images[200:], full.labels[200:], "test", 5)
    cfg = TrainConfig(epochs=40, batch_size=25, learning_rate=1e-2, seed=0)

    group = small_group_model(partial_basis, channels=(6, 8), classes=5,
                              seed=2, dtype="float32")
    train(group, train_set, cfg)
    group_errs = [row["error"] for row in
                  rotation_sweep(group, test_set, [0, 90, 180, 270]).rows]
    assert max(group_errs) - min(group_errs) <= 0.002

    rng = np.random.default_rng(2)
    layers = [Conv2d(1, 12, 3, rng, "float32", "c0"),
              BatchNorm(12, "spatial", "float32", "b0"), ReLU("r0"),
              Conv2d(12, 16, 3, rng, "float32", "c1"),
              BatchNorm(16, "spatial", "float32", "b1"), ReLU("r1"),
              MaxPool2x2("p"), GlobalMaxPool("g"),
              Dense(16, 5, rng, "float32", "fc")]
    plain = Model(layers, "translational", "none", 1, 5, "float32", 1)
    train(plain, train_set, cfg)
    rows = rotation_sweep(plain, test_set, [0, 180]).rows
    assert rows[1]["error"] - rows[0]["error"] >= 0.05


class TestEmitReports:
    def test_sweep_round_trip(self, tmp_path):
        report = SweepReport()
        for variant in ("a", "b", "c"):
            for angle in range(0, 360, 45):
                report.rows.append({"variant": variant, "angle_deg": float(angle),
                                    "error": 0.125 + angle / 1000.0})
        path = tmp_path / "sweep.csv"
        emit_reports(report, path)
        rows = read_csv_rows(path)
        assert len(rows) == 24
        assert rows[0] == {"variant": "a", "angle_deg": "0.0", "error": "0.125"}
        assert float(rows[-1]["error"]) == 0.125 + 315 / 1000.0

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_reports(SweepReport(), path)
        assert path.read_text().strip() == "variant,angle_deg,error"

    def test_robustness_schema(self, tmp_path, rng, partial_basis):
        model = single_layer_model(partial_basis)
        report = robustness_suite(model, rng.random((1, 1, 8, 8)), 1,
                                  angle_indices=[0, 1], variant="partial")
        path = tmp_path / "robust.csv"
        emit_reports(report, path)
        rows = read_csv_rows(path)
        assert list(rows[0].keys()) == ["variant", "layer_index", "layer_name",
                                        "L_equivariance"]
        got = float(rows[0]["L_equivariance"])
        assert got == report.rows[0]["L_equivariance"]

    def test_unknown_report_type_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            emit_reports({"rows": []}, tmp_path / "x.csv")
