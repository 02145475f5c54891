"""The file formats the tests write and read back, owned by the tests.

Fixture writers for the dataset formats the library parses, and readers for
the files the library writes. Each follows its format's definition directly
and calls nothing in ``rotoconv``, so a round trip checks the library against
the format, not against itself.
"""

import csv
import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np
from scipy import sparse

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
CIFAR_RECORD = 1 + 3 * 32 * 32  # label byte, then 3x32x32 pixels
CHECKPOINT_MAGIC = b"RCKP"


def write_idx_images(images_u8, path) -> None:
    """MNIST IDX image file: big-endian magic, count, rows, cols, then the pixels."""
    m, h, w = images_u8.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, m, h, w))
        fh.write(np.ascontiguousarray(images_u8, dtype=np.uint8).tobytes())


def write_idx_labels(labels, path) -> None:
    """MNIST IDX label file: big-endian magic and count, then one byte per label."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", IDX_LABELS_MAGIC, len(labels)))
        fh.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_cifar_batch(images_u8, labels, path) -> None:
    """CIFAR-10 binary batch: one label byte plus 3072 pixel bytes per record."""
    m = images_u8.shape[0]
    records = np.empty((m, CIFAR_RECORD), dtype=np.uint8)
    records[:, 0] = labels
    records[:, 1:] = images_u8.reshape(m, -1)
    Path(path).write_bytes(records.tobytes())


def write_checkpoint_file(path, header: dict, arrays) -> None:
    """Version-1 checkpoint: magic, little-endian u32 version and header length, the
    header as key-sorted ASCII JSON, each array's C-order bytes, then the sha256 of
    everything before it. ``arrays`` need not match the header's array table."""
    hjson = json.dumps(header, sort_keys=True).encode("ascii")
    payload = CHECKPOINT_MAGIC + struct.pack("<II", 1, len(hjson)) + hjson
    payload += b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
    Path(path).write_bytes(payload + hashlib.sha256(payload).digest())


def read_checkpoint_file(path) -> tuple:
    """(header, [array, ...]) of a well-formed checkpoint, in its array table's order."""
    blob = Path(path).read_bytes()
    (hlen,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12:12 + hlen])
    arrays, offset = [], 12 + hlen
    for meta in header["arrays"]:
        count = math.prod(meta["shape"])
        arrays.append(np.frombuffer(blob, meta["dtype"], count, offset).reshape(meta["shape"]))
        offset += arrays[-1].nbytes
    return header, arrays


def read_pgm(path) -> np.ndarray:
    """Binary P5 graymap as a [height, width] uint8 array."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"P5":
            raise ValueError("not a binary PGM")
        dims = fh.readline().split()
        width, height = int(dims[0]), int(dims[1])
        fh.readline()
        data = np.frombuffer(fh.read(width * height), dtype=np.uint8)
    return data.reshape(height, width)


def read_csv_rows(path) -> list:
    """CSV file as a list of dicts keyed by its header row."""
    with open(path, "r", newline="") as fh:
        return list(csv.DictReader(fh))


def import_triplets(path, shape) -> sparse.csr_matrix:
    """Sparse matrix from ``row col value`` lines."""
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            i, j, v = line.split()
            rows.append(int(i))
            cols.append(int(j))
            vals.append(float(v))
    return sparse.csr_matrix((vals, (rows, cols)), shape=shape)
