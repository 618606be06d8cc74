"""The LAPACK kernels behind full_svd: memory bounds, fallback without them, and that they run."""
import numpy as np
import pytest

from svlab import _lapack
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from svlab.spectra import full_svd

PAD = 8
FILL = {np.dtype(np.float64): -7.25e123, np.dtype(np.int64): -987654321}


def _inputs(n):
    a = np.linspace(1.0, 2.0, n)
    return {
        "zero": np.zeros((n, n)),
        "identity": np.eye(n),
        "tied_diagonal": np.diag(np.repeat(np.arange(1.0, n), 2)[:n]),
        "rank_one": np.outer(a, a),
    }


def _matrix(alpha, n=30, seed=4):
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=alpha)
    return sample_matrix(EnsembleConfig(n=n, aspect=2.0, law=law, seed=seed))


@pytest.fixture
def padded(monkeypatch):
    """Every array handed to LAPACK gets PAD sentinel entries past its end, checked after each call."""
    buffers = []

    def array(size, dtype=np.float64):
        buf = np.empty(size + PAD, dtype)
        buf[size:] = FILL[buf.dtype]
        buffers.append((buf, size))
        return buf[:size]

    real_call = _lapack._call

    def call(name, *args):
        info = real_call(name, *args)
        for buf, size in buffers:
            assert np.all(buf[size:] == FILL[buf.dtype]), f"{name} wrote past an array of {size}"
        return info

    monkeypatch.setattr(_lapack, "_array", array)
    monkeypatch.setattr(_lapack, "_call", call)
    return buffers


@pytest.mark.skipif(not _lapack.available(), reason="numpy's LAPACK symbols are not exported")
class TestForeignMemory:
    @pytest.mark.parametrize("kind", ["zero", "identity", "tied_diagonal", "rank_one"])
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    @pytest.mark.parametrize("kernel", ["tridiagonal", "bidiagonal"])
    def test_no_write_past_bounds(self, padded, kernel, n, kind):
        a = _inputs(n)[kind]
        values, vector = getattr(_lapack, kernel)(a)
        assert np.all(np.isfinite(values))
        for p in range(n):
            vector(p)  # None is allowed; writing past an array is not
        assert len(padded) > 10


def test_routes_agree_without_symbols(monkeypatch):
    # Builds whose numpy does not export the routines take eigh of G or gesdd of R.
    mats = [_matrix(3.0), _matrix(0.5)]
    with_kernels = [full_svd(x, k_bottom=3) for x in mats]
    monkeypatch.setattr(_lapack, "_lib", {})
    assert not _lapack.available()
    for x, ref, method in zip(mats, with_kernels, ["gram", "gesdd"]):
        res = full_svd(x, k_bottom=3)
        assert res.method == ref.method == method
        tol = 1e-12 * ref.s_top
        assert np.abs(res.singular_values - ref.singular_values).max() <= tol
        got = np.vstack([res.bottom_right_vectors, res.top_right_vector])
        want = np.vstack([ref.bottom_right_vectors, ref.top_right_vector])
        assert np.linalg.norm(x @ (got - want).T, axis=0).max() <= tol


def _numpy_lapack_name():
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["lapack"]["name"]
    except (TypeError, KeyError):  # numpy before 1.25, or a build without the entry
        return None


@pytest.mark.skipif(_numpy_lapack_name() != "scipy-openblas",
                    reason="only numpy's bundled OpenBLAS is known to export the routines")
def test_kernels_run_on_bundled_openblas(monkeypatch):
    # Without this, a benchmark or CI run could time the eigh or gesdd fallback unnoticed.
    assert _lapack.available()
    monkeypatch.setattr(np.linalg, "eigh", lambda a: pytest.fail("eigh fallback ran"))
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: pytest.fail("gesdd fallback ran"))
    for alpha, n, method in [(1.5, 50, "gram"), (3.0, 200, "gram"), (0.5, 50, "gesdd"), (0.8, 200, "gesdd")]:
        assert full_svd(_matrix(alpha, n=n), k_bottom=2).method == method
