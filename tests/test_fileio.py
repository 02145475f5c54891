import numpy as np
import pytest

from scipy import sparse

from rotoconv import fileio
from rotoconv.audit import SweepReport, emit_reports
from rotoconv.basis import populate_partial, render_basis_pgm, save_basis
from rotoconv.cli import _write_manifest
from rotoconv.fileio import atomic_write
from rotoconv.groups import export_triplets
from rotoconv.network import save_checkpoint
from rotoconv.pretrain import write_loss_csv
from rotoconv.training import write_training_csv
from rotoconv.verify import small_group_model


class Crash(RuntimeError):
    """Stands in for a process killed in the middle of a write."""


class HalfWriter:
    """File wrapper whose first write stores half the bytes, then crashes."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        self._fh.flush()
        raise Crash("interrupted mid-write")

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def crash_mid_write(monkeypatch):
    real_open = open
    monkeypatch.setattr(fileio, "open", lambda *a, **kw: HalfWriter(real_open(*a, **kw)),
                        raising=False)


class TestAtomicWrite:
    def test_replaces_on_success(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"old")
        with atomic_write(target) as fh:
            fh.write(b"new")
        assert target.read_bytes() == b"new"
        assert list(tmp_path.iterdir()) == [target]

    def test_error_in_body_keeps_old_file(self, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"old")
        with pytest.raises(Crash):
            with atomic_write(target) as fh:
                fh.write(b"new, partial")
                assert not target.read_bytes().startswith(b"new")
                raise Crash
        assert target.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [target]

    def test_text_mode(self, tmp_path):
        target = tmp_path / "f.txt"
        with atomic_write(target, "w") as fh:
            fh.write("hello")
        assert target.read_text() == "hello"


class TestWriteCsv:
    def test_header_and_rows(self, tmp_path):
        target = tmp_path / "t.csv"
        fileio.write_csv(target, ["a", "b"], [{"a": 1, "b": 0.5}, {"a": 2, "b": 1.5}])
        assert target.read_bytes() == b"a,b\r\n1,0.5\r\n2,1.5\r\n"

    def test_row_outside_header_raises_and_writes_nothing(self, tmp_path):
        target = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="c"):
            fileio.write_csv(target, ["a", "b"], [{"a": 1, "b": 2, "c": 3}])
        assert list(tmp_path.iterdir()) == []


def _write_basis(tmp_path, value):
    elements = np.random.default_rng(value).uniform(-1, 1, (2, 4, 3, 3))
    path = tmp_path / "b.rcbs"
    save_basis(populate_partial(elements), path)
    return path


def _write_checkpoint(tmp_path, value):
    basis = populate_partial(np.random.default_rng(11).uniform(-1, 1, (2, 4, 3, 3)))
    path = tmp_path / "m.ckpt"
    save_checkpoint(small_group_model(basis, seed=value), path)
    return path


def _write_manifest_file(tmp_path, value):
    out = tmp_path / "run.out"
    _write_manifest(out, "test", {"value": value}, {}, [])
    return tmp_path / "run.out.manifest.json"


def _write_audit_csv(tmp_path, value):
    path = tmp_path / "sweep.csv"
    emit_reports(SweepReport([{"variant": "partial", "angle_deg": 45.0, "error": value}]), path)
    return path


def _write_loss_csv(tmp_path, value):
    path = tmp_path / "loss.csv"
    write_loss_csv([{"epoch": value, "L_equiv": 0.5, "L_orth": 0.25, "L_rec": 0.125,
                     "L_total": 0.875}], path)
    return path


def _write_training_csv(tmp_path, value):
    path = tmp_path / "train.csv"
    write_training_csv([{"epoch": value, "train_loss": 0.5, "train_acc": 0.75}], path)
    return path


def _write_triplets(tmp_path, value):
    path = tmp_path / "m.txt"
    export_triplets(sparse.csr_matrix(np.array([[float(value), 0.0], [0.0, 2.0]])), path)
    return path


def _write_pgm(tmp_path, value):
    path = tmp_path / "basis.pgm"
    elements = np.random.default_rng(value).uniform(-1, 1, (2, 4, 3, 3))
    render_basis_pgm(populate_partial(elements), path)
    return path


@pytest.mark.parametrize("writer", [_write_basis, _write_checkpoint,
                                    _write_manifest_file, _write_audit_csv,
                                    _write_loss_csv, _write_training_csv,
                                    _write_triplets, _write_pgm])
def test_interrupted_write_leaves_previous_file(tmp_path, monkeypatch, writer):
    path = writer(tmp_path, 1)
    before = path.read_bytes()
    crash_mid_write(monkeypatch)
    with pytest.raises(Crash):
        writer(tmp_path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert not list(path.parent.glob(".*.tmp"))
    assert writer(tmp_path, 2).read_bytes() != before

