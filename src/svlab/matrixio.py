"""Matrix serialization.

Binary layout (little-endian throughout):

    bytes 0..3   magic b"SVLM"
    bytes 4..7   format version, uint32 (currently 1)
    bytes 8..11  rows, uint32
    bytes 12..15 cols, uint32
    bytes 16..   rows*cols float64 entries, row-major

CSV export exists for interop with other tools; the binary format is the
one that round-trips bitwise.
"""
from __future__ import annotations

import os
import stat
import struct
from pathlib import Path

import numpy as np

__all__ = ["MatrixFormatError", "save_matrix", "load_matrix", "save_matrix_csv"]

MAGIC = b"SVLM"
VERSION = 1
_HEADER = struct.Struct("<4sIII")


class MatrixFormatError(Exception):
    """Raised for malformed or truncated matrix files."""


def _check_matrix(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"expected a nonempty 2-D array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix entries must all be finite")
    return x


def save_matrix(x: np.ndarray, path: str | Path) -> None:
    x = _check_matrix(x)
    rows, cols = x.shape
    if rows >= 2**32 or cols >= 2**32:
        raise ValueError("matrix too large for the format header")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
        fh.write(memoryview(np.ascontiguousarray(x, dtype="<f8")))  # X's own buffer, no bytes copy


def load_matrix(path: str | Path) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise MatrixFormatError(f"{path}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(head)
        if magic != MAGIC:
            raise MatrixFormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise MatrixFormatError(f"{path}: unsupported format version {version}")
        expected = rows * cols * 8
        # A file's size is checked first, so no header sizes an allocation beyond it; a pipe has none.
        st = os.fstat(fh.fileno())
        size = st.st_size - _HEADER.size if stat.S_ISREG(st.st_mode) else expected
        if size != expected:
            raise MatrixFormatError(f"{path}: payload is {size} bytes, header implies {expected}")
        x = np.empty((rows, cols), "<f8")
        got = fh.readinto(x) + len(fh.read())
        if got != expected:
            raise MatrixFormatError(f"{path}: payload is {got} bytes, header implies {expected}")
    return x


def save_matrix_csv(x: np.ndarray, path: str | Path) -> None:
    x = _check_matrix(x)
    # %.17g round-trips doubles exactly through text.
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
