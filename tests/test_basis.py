import hashlib

import numpy as np
import pytest

from rotoconv.basis import (Basis, BasisFormatError, check_partial_tying,
                            initialize_elements, load_basis, make_baseline_basis,
                            orthogonality_defect, populate_partial, render_basis_pgm,
                            save_basis, synthesize)
from rotoconv.groups import rotate_exact90

from formats import read_pgm


class TestSynthesize:
    def test_one_hot_selects_element(self, partial_basis):
        n = partial_basis.n_elements
        for i in range(n):
            coeff = np.zeros(n)
            coeff[i] = 1.0
            got = synthesize(coeff, partial_basis, 3)
            assert np.array_equal(got, partial_basis.elements[3, i])

    def test_zero_coefficients_zero_filter(self, partial_basis):
        assert np.all(synthesize(np.zeros(partial_basis.n_elements), partial_basis, 1) == 0)

    def test_linearity(self, rng, partial_basis):
        n = partial_basis.n_elements
        c1, c2 = rng.standard_normal(n), rng.standard_normal(n)
        a, b = 1.3, -0.6
        combined = synthesize(a * c1 + b * c2, partial_basis, 5)
        separate = a * synthesize(c1, partial_basis, 5) + b * synthesize(c2, partial_basis, 5)
        assert np.abs(combined - separate).max() <= 1e-12

    def test_rotation_only_enters_through_basis(self, rng, partial_basis):
        coeff = rng.standard_normal(partial_basis.n_elements)
        for r in range(8):
            expect = coeff @ partial_basis.flat(r)
            assert np.array_equal(synthesize(coeff, partial_basis, r).reshape(-1), expect)

    def test_length_mismatch_rejected(self, partial_basis):
        with pytest.raises(ValueError, match="length"):
            synthesize(np.zeros(partial_basis.n_elements + 1), partial_basis, 0)


class TestPopulatePartial:
    def test_dirac_element_invariant(self):
        learned = np.zeros((2, 1, 3, 3))
        learned[:, 0, 1, 1] = 1.0
        basis = populate_partial(learned)
        for r in range(8):
            assert np.array_equal(basis.elements[r], learned[r % 2])

    def test_corner_one_hot_rotates(self):
        learned = np.zeros((2, 1, 3, 3))
        learned[0, 0, 0, 0] = 1.0  # top-left corner at orientation 0
        learned[1, 0, 0, 0] = 1.0
        basis = populate_partial(learned)
        assert basis.elements[2, 0, 2, 0] == 1.0  # bottom-left after a quarter turn
        assert basis.elements[2, 0].sum() == 1.0

    def test_idempotent_on_quarter_slots(self, rng):
        basis = populate_partial(rng.uniform(-1, 1, (2, 3, 3, 3)))
        again = populate_partial(basis.elements[:2])
        assert np.array_equal(again.elements, basis.elements)

    def test_order_not_divisible_by_four_rejected(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            populate_partial(rng.uniform(-1, 1, (2, 3, 3, 3)), order=6)

    def test_tying_checked_bitwise(self, rng):
        basis = populate_partial(rng.uniform(-1, 1, (2, 3, 3, 3)))
        check_partial_tying(basis.elements)
        broken = basis.elements.copy()
        broken[2, 0, 0, 0] += 1e-16 + abs(broken[2, 0, 0, 0]) * 1e-15
        with pytest.raises(ValueError, match="quarter-turn"):
            check_partial_tying(broken)


class TestBaselines:
    def test_interpolated_zero_orientation_unchanged(self, rng):
        zero = rng.uniform(-1, 1, (4, 3, 3))
        basis = make_baseline_basis("gaussian", zero_orientation=zero)
        assert np.array_equal(basis.elements[0], zero)

    def test_interpolated_quarter_turn_exact(self, rng):
        zero = rng.uniform(-1, 1, (4, 3, 3))
        basis = make_baseline_basis("gaussian", zero_orientation=zero)
        assert np.array_equal(basis.elements[2], rotate_exact90(zero, 1))

    def test_random_reproducible(self):
        a = make_baseline_basis("random", n_elements=5, seed=42)
        b = make_baseline_basis("random", n_elements=5, seed=42)
        assert np.array_equal(a.elements, b.elements)
        c = make_baseline_basis("random", n_elements=5, seed=43)
        assert not np.array_equal(a.elements, c.elements)

    def test_missing_zero_orientation_rejected(self):
        with pytest.raises(ValueError, match="zero-orientation"):
            make_baseline_basis("bilinear")


class TestOrthogonalityDefect:
    def test_duplicated_unit_vector(self):
        v = np.zeros((1, 3, 3))
        v[0, 0, 1] = 1.0
        elements = np.broadcast_to(v, (8, 2, 3, 3)).copy()
        basis = Basis(elements, "full")
        assert abs(orthogonality_defect(basis, 0) - 2.0) <= 1e-12

    def test_orthonormal_one_hots(self):
        eye = np.eye(9).reshape(9, 3, 3)
        basis = Basis(np.broadcast_to(eye, (8, 9, 3, 3)).copy(), "full")
        assert orthogonality_defect(basis, 3) == 0.0

    def test_zero_basis(self):
        basis = Basis(np.zeros((8, 5, 3, 3)), "full")
        assert orthogonality_defect(basis, 0) == 5.0

    def test_invariances(self, rng):
        elements = rng.standard_normal((8, 4, 3, 3))
        basis = Basis(elements, "full")
        base = orthogonality_defect(basis, 0)
        permuted = elements.copy()
        permuted[0] = permuted[0, ::-1]
        assert abs(orthogonality_defect(Basis(permuted, "full"), 0) - base) <= 1e-12
        flipped = elements.copy()
        flipped[0, 2] *= -1.0
        assert abs(orthogonality_defect(Basis(flipped, "full"), 0) - base) <= 1e-12


class TestDegenerateGuard:
    def test_zero_rows_reported(self, rng):
        elements = rng.standard_normal((8, 3, 3, 3))
        elements[5, 1] = 0.0
        basis = Basis(elements, "full")
        assert basis.degenerate_elements() == [(5, 1)]

    def test_healthy_basis_clean(self, partial_basis):
        assert partial_basis.degenerate_elements() == []


class TestInitialization:
    def test_newton_schulz_step_moves_toward_orthonormal(self, rng):
        raw_rng = np.random.default_rng(3)
        elements = initialize_elements(9, 3, 8, raw_rng)
        flat = elements.reshape(8, 9, 9)
        before = np.random.default_rng(3).uniform(-1 / 3, 1 / 3, (8, 9, 3, 3))
        gram_before = before.reshape(8, 9, 9) @ before.reshape(8, 9, 9).transpose(0, 2, 1)
        gram_after = flat @ flat.transpose(0, 2, 1)
        eye = np.eye(9)
        assert np.abs(gram_after - eye).sum() < np.abs(gram_before - eye).sum()


class TestFileFormat:
    def test_round_trip_bitwise(self, rng, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        back = load_basis(path)
        assert np.array_equal(back.elements, partial_basis.elements)
        assert back.kind == partial_basis.kind
        assert back.config_fingerprint == partial_basis.config_fingerprint
        assert back.fingerprint() == partial_basis.fingerprint()

    def test_wrong_magic_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"WHAT"
        path.write_bytes(bytes(blob))
        with pytest.raises(BasisFormatError, match="magic"):
            load_basis(path)

    def test_corrupt_payload_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(BasisFormatError, match="checksum"):
            load_basis(path)

    def test_truncated_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        path.write_bytes(path.read_bytes()[:-40])
        with pytest.raises(BasisFormatError):
            load_basis(path)

    def test_partial_invariant_rechecked_on_load(self, rng, tmp_path):
        elements = rng.uniform(-1, 1, (8, 2, 3, 3))  # untied orientations
        path = tmp_path / "b.basis"
        save_basis(Basis(elements, "full"), path)
        blob = bytearray(path.read_bytes())
        blob[20:36] = b"partial".ljust(16, b"\x00")
        payload = bytes(blob[:-32])
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(ValueError, match="quarter-turn"):
            load_basis(path)

    def test_non_ascii_kind_with_stale_trailer_fails_checksum(self, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        blob = bytearray(path.read_bytes())
        blob[20] = 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(BasisFormatError, match="checksum"):
            load_basis(path)

    def test_non_ascii_kind_with_valid_trailer_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        blob = bytearray(path.read_bytes())
        blob[20] = 0xFF
        payload = bytes(blob[:-32])
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(BasisFormatError, match="kind tag"):
            load_basis(path)

    def test_unknown_kind_with_valid_trailer_rejected(self, tmp_path, partial_basis):
        path = tmp_path / "b.basis"
        save_basis(partial_basis, path)
        blob = bytearray(path.read_bytes())
        blob[20:36] = b"spiral".ljust(16, b"\x00")
        payload = bytes(blob[:-32])
        path.write_bytes(payload + hashlib.sha256(payload).digest())
        with pytest.raises(BasisFormatError, match="unknown basis kind"):
            load_basis(path)

    def test_fingerprint_tracks_contents(self, partial_basis, rng):
        other = populate_partial(rng.uniform(-1, 1, (2, 4, 3, 3)))
        assert partial_basis.fingerprint() != other.fingerprint()


class TestRendering:
    @pytest.mark.parametrize("cell_scale", [0, -1])
    def test_cell_scale_below_one_rejected(self, tmp_path, partial_basis, cell_scale):
        path = tmp_path / "basis.pgm"
        with pytest.raises(ValueError, match="cell_scale must be >= 1"):
            render_basis_pgm(partial_basis, path, cell_scale=cell_scale)
        assert not path.exists()

    def test_pgm_grid_dimensions_and_tying(self, tmp_path, partial_basis):
        path = tmp_path / "basis.pgm"
        render_basis_pgm(partial_basis, path, cell_scale=2)
        img = read_pgm(path)
        cell = 3 * 2
        assert img.shape == (8 * (cell + 1) + 1, partial_basis.n_elements * (cell + 1) + 1)
        # quarter-turn rows of the rendered grid are exact rotations of row 0
        def tile(r, i):
            y = 1 + r * (cell + 1)
            x = 1 + i * (cell + 1)
            return img[y:y + cell, x:x + cell]
        for i in range(partial_basis.n_elements):
            assert np.array_equal(tile(2, i), np.rot90(tile(0, i)))
            assert np.array_equal(tile(4, i), np.rot90(tile(0, i), 2))
