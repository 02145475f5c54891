"""Crash-safe file output shared by every writer of artifacts, checkpoints and manifests."""

from __future__ import annotations

import csv
import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, mode: str = "wb", **open_args):
    """Open a temporary file beside ``path`` for writing; publish it on success.

    On a clean exit the data is flushed to disk and ``os.replace`` renames the
    temporary file onto ``path``, so a reader sees either the previous file or
    the complete new one, never a partial write. If the body raises, the
    temporary file is removed and ``path`` is left as it was. ``open_args``
    (``newline``, ``encoding``) are passed to ``open``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex[:12]}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **open_args) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, fields, rows) -> None:
    """Write dict ``rows`` as CSV with header ``fields``, atomically."""
    with atomic_write(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
