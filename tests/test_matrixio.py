"""Round-trip and corruption handling for the binary matrix format."""
import os
import struct

import numpy as np
import pytest

from svlab.matrixio import (
    MatrixFormatError,
    load_matrix,
    save_matrix,
    save_matrix_csv,
)


def test_binary_round_trip_bitexact(tmp_path):
    x = np.array(
        [
            [0.0, -0.0, 1.0 / 3.0],
            [5e-324, 1e300, -2.2250738585072014e-308],
            [3.141592653589793, -1.5, 2**-1074],
        ]
    )
    p = tmp_path / "m.svlm"
    save_matrix(x, p)
    y = load_matrix(p)
    assert y.shape == x.shape
    assert x.tobytes() == y.tobytes()  # bit-level equality, signed zeros included
    assert y.flags.writeable and y.flags.c_contiguous
    y *= 2


def test_pipe_round_trip(tmp_path):
    # A pipe has no size to check up front; its payload is counted as it is read.
    x = np.arange(12.0).reshape(4, 3)
    save_matrix(x, tmp_path / "m.svlm")
    for extra, error in ((b"", None), (b"\x00", "payload is 97 bytes, header implies 96")):
        r, w = os.pipe()
        os.write(w, (tmp_path / "m.svlm").read_bytes() + extra)
        os.close(w)
        try:
            if error is None:
                assert load_matrix(f"/dev/fd/{r}").tobytes() == x.tobytes()
            else:
                with pytest.raises(MatrixFormatError, match=error):
                    load_matrix(f"/dev/fd/{r}")
        finally:
            os.close(r)


def test_header_contents(tmp_path):
    p = tmp_path / "m.svlm"
    save_matrix(np.ones((4, 3)), p)
    raw = p.read_bytes()
    magic, version, rows, cols = struct.unpack("<4sIII", raw[:16])
    assert magic == b"SVLM" and version == 1 and (rows, cols) == (4, 3)
    assert len(raw) == 16 + 4 * 3 * 8


def test_bad_magic(tmp_path):
    p = tmp_path / "m.svlm"
    p.write_bytes(b"NOPE" + b"\x00" * 28)
    with pytest.raises(MatrixFormatError, match="magic"):
        load_matrix(p)


def test_bad_version(tmp_path):
    p = tmp_path / "m.svlm"
    p.write_bytes(struct.pack("<4sIII", b"SVLM", 9, 1, 1) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="version"):
        load_matrix(p)


def test_truncated_payload(tmp_path):
    p = tmp_path / "m.svlm"
    save_matrix(np.ones((4, 3)), p)
    p.write_bytes(p.read_bytes()[:-5])
    with pytest.raises(MatrixFormatError, match="payload"):
        load_matrix(p)
    # A header claiming 80 GB is refused from the file's size, before any allocation.
    p.write_bytes(struct.pack("<4sIII", b"SVLM", 1, 100000, 100000) + b"\x00" * 8)
    with pytest.raises(MatrixFormatError, match="payload is 8 bytes, header implies 80000000000"):
        load_matrix(p)


def test_truncated_header(tmp_path):
    p = tmp_path / "m.svlm"
    p.write_bytes(b"SVL")
    with pytest.raises(MatrixFormatError, match="header"):
        load_matrix(p)


def test_rejects_nonfinite_and_bad_shape(tmp_path):
    p = tmp_path / "m.svlm"
    with pytest.raises(ValueError):
        save_matrix(np.array([[1.0, np.inf]]), p)
    with pytest.raises(ValueError):
        save_matrix(np.array([1.0, 2.0]), p)
    with pytest.raises(ValueError):
        save_matrix(np.empty((0, 3)), p)


def test_csv_round_trip(tmp_path, rng):
    x = rng.standard_normal((6, 4)) * np.exp(rng.standard_normal((6, 4)) * 10)
    p = tmp_path / "m.csv"
    save_matrix_csv(x, p)
    y = np.loadtxt(p, delimiter=",", ndmin=2)
    assert np.array_equal(x, y)  # %.17g round-trips doubles through text
