"""Damaged basis and checkpoint files raise only the documented exception types.

Each file is truncated at several lengths and has single bits flipped across
its whole length, first with the stale sha256 trailer and then, over the
parsed header, with the trailer recomputed so that the parser itself sees the
damage.
"""

import hashlib
import json
import re

import numpy as np
import pytest

from rotoconv.basis import BasisFormatError, load_basis, populate_partial, save_basis
from rotoconv.network import (CheckpointFormatError, FingerprintMismatch, load_checkpoint,
                              save_checkpoint)
from rotoconv.verify import small_group_model

from formats import read_checkpoint_file, write_checkpoint_file

DOCUMENTED = (BasisFormatError, CheckpointFormatError, FingerprintMismatch)
BASIS_HEADER_BYTES = 68  # magic, four u32 fields, kind tag, config fingerprint


def variants(blob: bytes, rehashed_span: range):
    """Truncations, stale-trailer bit flips, then re-hashed flips inside the span."""
    n = len(blob)
    for length in sorted({0, 3, 4, 11, 12, 20, 36, 67, 68, n // 2, n - 33, n - 32, n - 1}):
        yield f"truncated to {length}", blob[:length]
    for offset in range(n):
        damaged = bytearray(blob)
        damaged[offset] ^= 1 << (offset % 8)
        yield f"bit {offset % 8} of byte {offset}", bytes(damaged)
    for offset in rehashed_span:
        damaged = bytearray(blob[:-32])
        damaged[offset] ^= 1 << (offset % 8)
        yield f"re-hashed bit {offset % 8} of byte {offset}", \
            bytes(damaged) + hashlib.sha256(bytes(damaged)).digest()


def load_each(tmp_path, blob, rehashed_span, load):
    path = tmp_path / "damaged"
    seen = set()
    for label, damaged in variants(blob, rehashed_span):
        path.write_bytes(damaged)
        try:
            load(path)
        except DOCUMENTED as err:
            seen.add(type(err))
        except Exception as err:  # noqa: BLE001 - the assertion is the point
            pytest.fail(f"{label}: {type(err).__name__}: {err}")
    return seen


@pytest.fixture
def tiny_basis():
    return populate_partial(np.random.default_rng(3).uniform(-1, 1, (2, 2, 3, 3)))


def test_basis_damage_raises_documented_types(tmp_path, tiny_basis):
    path = tmp_path / "tiny.rcbs"
    save_basis(tiny_basis, path)
    blob = path.read_bytes()
    seen = load_each(tmp_path, blob, range(BASIS_HEADER_BYTES + 8), load_basis)
    assert seen == {BasisFormatError}


def test_checkpoint_damage_raises_documented_types(tmp_path, tiny_basis):
    model = small_group_model(tiny_basis, channels=(2, 2), classes=2, seed=1,
                              dtype="float32")
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(model, path)
    blob = path.read_bytes()
    header_end = 12 + int.from_bytes(blob[8:12], "little")
    seen = load_each(tmp_path, blob, range(0, header_end, 3),
                     lambda p: load_checkpoint(p, tiny_basis))
    assert CheckpointFormatError in seen


def test_checkpoint_bytes_outside_every_array_rejected(tmp_path, tiny_basis, tiny_model):
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(tiny_model, path)
    payload = path.read_bytes()[:-32] + bytes(64)
    path.write_bytes(payload + hashlib.sha256(payload).digest())
    with pytest.raises(CheckpointFormatError, match="64 payload bytes belong to no array"):
        load_checkpoint(path, tiny_basis)


def rewrite_checkpoint(model, path, edit) -> None:
    """Save ``model`` to ``path`` with header and arrays passed through ``edit``, re-hashed."""
    save_checkpoint(model, path)
    header, arrays = read_checkpoint_file(path)
    write_checkpoint_file(path, header, edit(header, arrays))


@pytest.fixture
def tiny_model(tiny_basis):
    return small_group_model(tiny_basis, channels=(2, 2), classes=2, seed=1, dtype="float32")


def test_checkpoint_array_dtype_must_match_model(tmp_path, tiny_basis, tiny_model):
    def widen_coefficients(header, arrays):
        i = next(i for i, meta in enumerate(header["arrays"])
                 if meta["name"].endswith(".coefficients"))
        header["arrays"][i]["dtype"] = "float64"
        return arrays[:i] + [arrays[i].astype(np.float64)] + arrays[i + 1:]

    path = tmp_path / "tiny.ckpt"
    rewrite_checkpoint(tiny_model, path, widen_coefficients)
    with pytest.raises(CheckpointFormatError, match="coefficients' is float64, .* float32"):
        load_checkpoint(path, tiny_basis)


def drop_array(name):
    def edit(header, arrays):
        i = next(i for i, meta in enumerate(header["arrays"]) if meta["name"] == name)
        del header["arrays"][i]
        return arrays[:i] + arrays[i + 1:]
    return edit


def repeat_array(name):
    def edit(header, arrays):
        i = next(i for i, meta in enumerate(header["arrays"]) if meta["name"] == name)
        header["arrays"].append(header["arrays"][i])
        return arrays + [arrays[i]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (drop_array, "lacks array '{}'"), (repeat_array, "array '{}' appears twice")],
    ids=["missing", "repeated"])
@pytest.mark.parametrize("name", ["00.gconv_in.coefficients", "01.bn0.running_var"])
def test_checkpoint_must_carry_each_model_array_once(tmp_path, tiny_basis, tiny_model,
                                                     edit, message, name):
    path = tmp_path / "tiny.ckpt"
    rewrite_checkpoint(tiny_model, path, edit(name))
    with pytest.raises(CheckpointFormatError, match=re.escape(message.format(name))):
        load_checkpoint(path, tiny_basis)


@pytest.mark.parametrize("dtype", ["int32", "float16"])
def test_checkpoint_arch_dtype_must_be_float(tmp_path, tiny_basis, tiny_model, dtype):
    def relabel(header, arrays):
        header["arch"]["dtype"] = dtype
        header["arch_hash"] = hashlib.sha256(
            json.dumps(header["arch"], sort_keys=True).encode("ascii")).hexdigest()
        return arrays

    path = tmp_path / "tiny.ckpt"
    rewrite_checkpoint(tiny_model, path, relabel)
    with pytest.raises(CheckpointFormatError, match="dtype"):
        load_checkpoint(path, tiny_basis)


def with_input_stats(mean, std):
    def edit(header, arrays):
        header["arrays"] += [{"name": name, "shape": list(arr.shape), "dtype": "float64"}
                             for name, arr in (("input_mean", mean), ("input_std", std))]
        return arrays + [mean, std]
    return edit


BAD_INPUT_STATS = [
    pytest.param(np.zeros(5), np.zeros(5), "input_mean must hold one value per input channel",
                 id="five-channels"),
    pytest.param(np.zeros(1), np.zeros(1), "input_std must be > 0", id="zero-std"),
    pytest.param(np.array([np.nan]), np.ones(1), "input_mean must be finite", id="nan-mean"),
    pytest.param(np.zeros(1), np.array([np.inf]), "input_std must be finite", id="inf-std"),
]


@pytest.mark.parametrize("mean, std, message", BAD_INPUT_STATS)
def test_checkpoint_input_stats_rejected_on_save(tmp_path, tiny_model, mean, std, message):
    tiny_model.input_stats = (mean, std)
    path = tmp_path / "tiny.ckpt"
    with pytest.raises(ValueError, match=message):
        save_checkpoint(tiny_model, path)
    assert not path.exists()


@pytest.mark.parametrize("mean, std, message", BAD_INPUT_STATS)
def test_checkpoint_input_stats_rejected_on_load(tmp_path, tiny_basis, tiny_model,
                                                 mean, std, message):
    path = tmp_path / "tiny.ckpt"
    rewrite_checkpoint(tiny_model, path, with_input_stats(mean, std))
    with pytest.raises(CheckpointFormatError, match=message):
        load_checkpoint(path, tiny_basis)
