import math

import numpy as np
import pytest

from rotoconv import groups
from rotoconv.groups import (GroupElement, RotationOperators, act_on_group_feature_map,
                             compose, crop_margin, export_triplets, gram_defect, inverse,
                             roll_orientations, rotate_exact90, rotation_matrix,
                             unitarity_defect)

from formats import import_triplets
from oracles import rotation_dense_matrix


class TestGroupAlgebra:
    def test_compose_with_inverse_is_identity(self, rng):
        for _ in range(10):
            g = GroupElement(int(rng.integers(8)), tuple(rng.integers(-5, 6, 2)))
            e = compose(g, inverse(g))
            assert e.rot == 0
            assert np.abs(np.asarray(e.translation)).max() <= 1e-12

    def test_compose_worked_example(self):
        g = GroupElement(2, (1.0, 0.0))
        h = GroupElement(0, (0.0, 1.0))
        gh = compose(g, h)
        assert gh.rot == 2
        assert np.abs(np.asarray(gh.translation)).max() <= 1e-12
        matrix_product = g.homogeneous() @ h.homogeneous()
        assert np.abs(gh.homogeneous() - matrix_product).max() <= 1e-12

    def test_compose_symbolic_contract(self, rng):
        for _ in range(20):
            g = GroupElement(int(rng.integers(8)), tuple(rng.standard_normal(2)))
            h = GroupElement(int(rng.integers(8)), tuple(rng.standard_normal(2)))
            assert np.abs(compose(g, h).homogeneous()
                          - g.homogeneous() @ h.homogeneous()).max() <= 1e-12

    def test_inverse_identity(self):
        e = GroupElement.identity()
        assert inverse(e) == e

    def test_inverse_worked_example(self):
        inv = inverse(GroupElement(2, (1.0, 0.0)))
        assert inv.rot == 6
        assert np.allclose(inv.translation, (0.0, 1.0), atol=1e-12)
        g = GroupElement(2, (1.0, 0.0))
        assert np.abs(inv.homogeneous() - np.linalg.inv(g.homogeneous())).max() <= 1e-12

    def test_inverse_is_involution(self, rng):
        for _ in range(10):
            g = GroupElement(int(rng.integers(8)), tuple(rng.integers(-9, 10, 2)))
            gg = inverse(inverse(g))
            assert gg.rot == g.rot
            assert np.allclose(gg.translation, g.translation, atol=1e-12)

    def test_axioms_over_all_index_pairs(self, rng):
        worst = 0.0
        for r1 in range(8):
            for r2 in range(8):
                g = GroupElement(r1, tuple(rng.integers(-8, 9, 2)))
                h = GroupElement(r2, tuple(rng.integers(-8, 9, 2)))
                k = GroupElement(int(rng.integers(8)), tuple(rng.integers(-8, 9, 2)))
                worst = max(
                    worst,
                    np.abs(compose(g, h).homogeneous()
                           - g.homogeneous() @ h.homogeneous()).max(),
                    np.abs(compose(compose(g, h), k).homogeneous()
                           - compose(g, compose(h, k)).homogeneous()).max(),
                    np.abs(inverse(g).homogeneous()
                           - np.linalg.inv(g.homogeneous())).max(),
                )
        assert worst <= 1e-12

    def test_mixed_orders_rejected(self):
        with pytest.raises(ValueError, match="orders"):
            compose(GroupElement(1, order=8), GroupElement(1, order=4))

    @pytest.mark.parametrize("order", [0, -4])
    def test_order_below_one_rejected(self, order):
        with pytest.raises(ValueError, match="group order must be >= 1"):
            GroupElement(0, order=order)

    @pytest.mark.parametrize("rot", [1.5, 2.0, np.float64(3.0), "1", True])
    def test_non_integer_rotation_index_rejected(self, rot):
        with pytest.raises(ValueError, match="rotation index must be an integer"):
            GroupElement(rot, (0.0, 0.0), 8)

    def test_numpy_integer_rotation_index_accepted(self):
        g = GroupElement(np.int64(9), (0.0, 0.0), 8)
        assert g.rot == 1
        assert compose(g, g) == GroupElement(2, (0.0, 0.0), 8)


class TestExactRotation:
    def test_zero_turns_identity(self, rng):
        x = rng.random((3, 4, 4))
        assert np.array_equal(rotate_exact90(x, 0), x)

    def test_worked_example(self):
        out = rotate_exact90(np.array([[1.0, 2.0], [3.0, 4.0]]), 1)
        assert out.tolist() == [[2.0, 4.0], [1.0, 3.0]]

    def test_full_turn_identity(self, rng):
        x = rng.random((5, 5))
        assert np.array_equal(rotate_exact90(x, 4), x)

    def test_composition_bitwise(self, rng):
        x = rng.random((2, 6, 6))
        for q1 in range(4):
            for q2 in range(4):
                assert np.array_equal(rotate_exact90(rotate_exact90(x, q1), q2),
                                      rotate_exact90(x, q1 + q2))

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            rotate_exact90(rng.random((3, 4)), 1)


class TestCropMargin:
    @pytest.mark.parametrize("size, fraction, margin", [(28, 0.25, 7), (28, 0.0, 0),
                                                        (3, 0.49, 1), (1, 0.4999, 0)])
    def test_margin_leaves_interior(self, size, fraction, margin):
        assert crop_margin(size, fraction) == margin
        assert size - 2 * margin >= 1

    @pytest.mark.parametrize("fraction", [-0.25, 0.5, 0.6])
    def test_fraction_outside_range_rejected(self, fraction):
        with pytest.raises(ValueError, match="crop fraction"):
            crop_margin(28, fraction)


class TestInterpolatedRotation:
    def test_zero_is_exact_identity(self, rng):
        x = rng.random((2, 7, 7))
        assert np.array_equal(RotationOperators(7, 8).apply(x, 0), x)

    def test_quarter_turn_short_circuits(self, rng):
        x = rng.random((9, 9))
        assert np.array_equal(RotationOperators(9, 8).apply(x, 2), rotate_exact90(x, 1))
        assert np.array_equal(RotationOperators(9, 8, "bilinear").apply(x, 2),
                              rotate_exact90(x, 1))

    @pytest.mark.parametrize("method", ["gaussian", "bilinear"])
    def test_matches_dense_oracle(self, rng, method):
        size = 7
        impulse = np.zeros((size, size))
        impulse[size // 2, size // 2] = 1.0
        ops = RotationOperators(size, 8, method)
        got = ops.apply(impulse, 1)
        oracle = rotation_dense_matrix(size, math.pi / 4, method)
        expect = (oracle @ impulse.reshape(-1)).reshape(size, size)
        assert np.abs(got - expect).max() <= 1e-12
        x = rng.standard_normal((size, size))
        got = ops.apply(x, 3)
        oracle = rotation_dense_matrix(size, 3 * math.pi / 4, method)
        assert np.abs(got - (oracle @ x.reshape(-1)).reshape(size, size)).max() <= 1e-12

    def test_linearity(self, rng):
        f = rng.standard_normal((8, 8))
        g = rng.standard_normal((8, 8))
        a, b = 1.7, -0.4
        ops = RotationOperators(8, 8)
        combined = ops.apply(a * f + b * g, 1)
        assert np.abs(combined - (a * ops.apply(f, 1) + b * ops.apply(g, 1))).max() <= 1e-6

    def test_rows_renormalized_in_grid(self):
        m = rotation_matrix(9, math.pi / 4, "gaussian")
        sums = np.asarray(m.sum(axis=1)).reshape(-1)
        nonzero = sums[sums > 0]
        assert np.abs(nonzero - 1.0).max() <= 1e-12

    def test_exact90_matrices_are_permutations(self):
        ops = RotationOperators(6, 8)
        for r in (0, 2, 4, 6):
            m = ops.matrix(r).toarray()
            assert np.array_equal(np.sort(m, axis=1)[:, :-1], np.zeros((36, 35)))
            assert np.array_equal(m.sum(axis=1), np.ones(36))
            assert np.array_equal(m.sum(axis=0), np.ones(36))

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            RotationOperators(5, 8).apply(rng.random((3, 5)), 1)


class TestRotationMatrixOracle:
    """The sparse operators against the dense definition in ``oracles.py``."""

    @pytest.mark.parametrize("method", ["gaussian", "bilinear"])
    @pytest.mark.parametrize("size", [5, 6, 8, 9])
    def test_matrix_matches_oracle(self, size, method):
        for angle in (0.3, math.radians(100.0), 3 * math.pi / 4, 5.5):
            got = rotation_matrix(size, angle, method).toarray()
            expect = rotation_dense_matrix(size, angle, method)
            assert np.abs(got - expect).max() <= 1e-12, angle

    @pytest.mark.parametrize("method", ["gaussian", "bilinear"])
    def test_operator_family_apply_matches_oracle(self, rng, method):
        ops = RotationOperators(9, 8, method)
        x = rng.random((2, 3, 9, 9))
        for r in range(8):
            oracle = rotation_dense_matrix(9, 2 * math.pi * r / 8, method)
            expect = (x.reshape(-1, 81) @ oracle.T).reshape(x.shape)
            assert np.abs(ops.apply(x, r) - expect).max() <= 1e-12, r
            x32 = x.astype(np.float32)
            expect32 = (x32.astype(np.float64).reshape(-1, 81) @ oracle.T).reshape(x.shape)
            got32 = ops.apply(x32, r)
            assert got32.dtype == np.float32
            assert np.abs(got32 - expect32).max() <= 1e-6, r

    @pytest.mark.parametrize("method", ["gaussian", "bilinear"])
    def test_apply_transpose_is_the_transpose(self, method):
        """Dense matrices of ``apply`` and its transpose, from the 49 unit images."""
        ops = RotationOperators(7, 8, method)
        units = np.eye(49).reshape(49, 1, 7, 7)
        for r in range(8):
            forward = ops.apply(units, r).reshape(49, 49)
            transposed = ops.apply(units, r, transpose=True).reshape(49, 49)
            assert np.abs(transposed - forward.T).max() <= 1e-12, r

    def test_apply_transpose_of_quarter_turn_is_inverse_turn(self, rng):
        ops = RotationOperators(9, 8)
        x = rng.random((2, 3, 9, 9))
        for r in (0, 2, 4, 6, 10):
            got = ops.apply(x, r, transpose=True)
            assert got.tobytes() == ops.apply(x, -r).tobytes(), r
            assert np.array_equal(ops.apply(got, r), x), r


class TestOperatorFamily:
    def test_unknown_method_rejected_at_construction(self):
        for method in ("nearest", "exact90"):
            with pytest.raises(ValueError, match="method"):
                RotationOperators(9, 8, method)
            with pytest.raises(ValueError, match="method"):
                rotation_matrix(9, 0.3, method)

    @pytest.mark.parametrize("size, order, message", [
        (9, 0, "order"), (9, -8, "order"), (0, 8, "size"), (-9, 8, "size")])
    def test_size_and_order_below_one_rejected(self, size, order, message):
        with pytest.raises(ValueError, match=f"{message} must be >= 1"):
            RotationOperators(size, order)

    @pytest.mark.parametrize("kwargs,message", [
        ({"sigma": 0.0}, "sigma"), ({"sigma": -0.5}, "sigma"), ({"sigma": float("nan")}, "sigma"),
    ])
    def test_bad_interpolation_parameters_rejected(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            RotationOperators(9, 8, **kwargs)
        for angle in (0.7, math.pi / 2):
            with pytest.raises(ValueError, match=message):
                rotation_matrix(9, angle, **kwargs)

    @pytest.mark.parametrize("angle", [math.inf, -math.inf, math.nan])
    def test_non_finite_angle_rejected(self, angle):
        for method in ("gaussian", "bilinear"):
            with pytest.raises(ValueError, match="angle must be finite"):
                rotation_matrix(9, angle, method)

    def test_matrices_built_once_on_first_use(self, rng, monkeypatch):
        built = []

        def counting(size, angle, *args):
            built.append(angle)
            return rotation_matrix(size, angle, *args)

        monkeypatch.setattr(groups, "rotation_matrix", counting)
        ops = RotationOperators(9, 8)
        assert built == []
        x = rng.random((2, 9, 9))
        ops.apply(x, 1)
        ops.apply(x.astype(np.float32), 1)
        ops.apply_flat_t(x.reshape(2, 81).T, 9)
        ops.apply(x, 2)
        assert built == [2 * math.pi / 8]
        ops.matrix(3)
        assert built == [2 * math.pi / 8, 3 * 2 * math.pi / 8]

    @pytest.mark.parametrize("r", [1.5, 1.0, np.float64(2.0), "1", True])
    def test_non_integer_index_rejected(self, rng, r):
        ops = RotationOperators(9, 8)
        with pytest.raises(ValueError, match="rotation index must be an integer"):
            ops.matrix(r)
        with pytest.raises(ValueError, match="rotation index must be an integer"):
            ops.apply(rng.random((9, 9)), r)

    def test_numpy_integer_index_accepted(self, rng):
        ops = RotationOperators(9, 8)
        x = rng.random((9, 9))
        for r in (np.int64(1), np.int32(3), np.uint8(2)):
            assert np.array_equal(ops.apply(x, r), ops.apply(x, int(r)))
            assert (ops.matrix(r) != ops.matrix(int(r))).nnz == 0


class TestRoll:
    def test_zero_identity(self, rng):
        x = rng.random((4, 3, 3))
        assert np.array_equal(roll_orientations(x, 0), x)

    def test_worked_example(self):
        slices = np.arange(4.0)[:, None, None] * np.ones((4, 2, 2))
        out = roll_orientations(slices, 1)
        assert out[:, 0, 0].tolist() == [3.0, 0.0, 1.0, 2.0]

    def test_full_cycle_identity(self, rng):
        x = rng.random((8, 2, 2))
        assert np.array_equal(roll_orientations(x, 8), x)

    def test_extent_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="extent"):
            roll_orientations(rng.random((4, 2, 2)), 1, order=8)

    @pytest.mark.parametrize("r", [1.5, 1.0, np.float32(2.0)])
    def test_non_integer_index_rejected(self, rng, r):
        with pytest.raises(ValueError, match="rotation index must be an integer"):
            roll_orientations(rng.random((8, 2, 2)), r)


class TestInducedAction:
    def test_zero_identity(self, rng):
        ops = RotationOperators(6, 8)
        x = rng.random((2, 8, 6, 6))
        assert np.array_equal(act_on_group_feature_map(x, 0, ops), x)

    def test_full_turn_closes(self, rng):
        ops = RotationOperators(6, 8)
        x = rng.random((8, 6, 6))
        out = x
        for _ in range(4):
            out = act_on_group_feature_map(out, 2, ops)
        assert np.array_equal(out, x)

    def test_quarter_turn_matches_composition_oracle(self, rng):
        ops = RotationOperators(6, 8)
        x = rng.random((1, 3, 8, 6, 6))
        got = act_on_group_feature_map(x, 2, ops)
        expect = np.roll(rotate_exact90(x, 1), 2, axis=-3)
        assert np.array_equal(got, expect)

    def test_extent_mismatch_rejected(self, rng):
        ops = RotationOperators(6, 8)
        with pytest.raises(ValueError, match="extent"):
            act_on_group_feature_map(rng.random((4, 6, 6)), 1, ops)


class TestUnitarity:
    def test_exact_rotations_preserve_inner_products(self):
        ops = RotationOperators(9, 8)
        for r in (0, 2, 4, 6):
            assert unitarity_defect(ops, r, trials=16, seed=1) <= 1e-12

    @pytest.mark.parametrize("method", ["gaussian", "bilinear"])
    def test_interpolators_break_unitarity(self, method):
        ops = RotationOperators(9, 8, method)
        assert unitarity_defect(ops, 1, trials=64, seed=1) > 1e-3

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            unitarity_defect(RotationOperators(5, 8), 1, trials=0)

    @pytest.mark.parametrize("method", ["gaussian", "bilinear"])
    def test_gram_defect_zero_exactly_at_quarter_turns(self, method):
        ops = RotationOperators(9, 8, method)
        assert [gram_defect(ops, r) for r in (0, 2, 4, 6)] == [0.0] * 4
        assert gram_defect(ops, 1) > 0.1

    def test_gram_defect_matches_dense_oracle(self):
        m = rotation_dense_matrix(7, math.pi / 4, "bilinear")
        want = np.sqrt(((m.T @ m - np.eye(49)) ** 2).sum() / 49)
        assert abs(gram_defect(RotationOperators(7, 8, "bilinear"), 1) - want) <= 1e-12

    def test_gram_defect_tells_the_interpolators_apart(self):
        """The spectral norm reads 1 for both at 45 degrees; the RMS defect does not."""
        gauss = gram_defect(RotationOperators(9, 8, "gaussian"), 1)
        bilin = gram_defect(RotationOperators(9, 8, "bilinear"), 1)
        assert abs(gauss - bilin) > 0.01


class TestTripletExport:
    def test_round_trip(self, rng, tmp_path):
        m = rotation_matrix(6, math.pi / 4, "gaussian")
        path = tmp_path / "op.triplets"
        export_triplets(m, path)
        back = import_triplets(path, m.shape)
        assert np.abs((m - back).toarray()).max() == 0.0
        first = path.read_text().splitlines()[0].split()
        assert len(first) == 3
