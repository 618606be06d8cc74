"""The LAPACK kernels behind full_svd: memory bounds, fallback without them, and that they run."""
import tracemalloc

import numpy as np
import pytest

from svlab import _lapack
from svlab.ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from svlab.spectra import full_svd

PAD = 8
FILL = {np.dtype(np.float64): -7.25e123, np.dtype(np.int64): -987654321}


def _inputs(n):
    a = np.linspace(1.0, 2.0, n)
    blocks = np.diag(np.arange(1.0, n + 1))
    blocks[0, 1] = blocks[1, 0] = 0.5  # a full 2 x 2 block beside 1 x 1 ones: split in part at n > 2
    return {
        "zero": np.zeros((n, n)),
        "identity": np.eye(n),
        "tied_diagonal": np.diag(np.repeat(np.arange(1.0, n), 2)[:n]),
        "rank_one": np.outer(a, a),
        "block_diagonal": blocks,
    }


def _tall_inputs(n, rows):
    return {
        "zero": np.zeros((rows, n)),
        "identity": np.eye(rows, n),  # the identity stacked on zeros
        "rank_one": np.outer(np.linspace(1.0, 2.0, rows), np.linspace(1.0, 2.0, n)),
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
    @pytest.mark.parametrize("kind", ["zero", "identity", "tied_diagonal", "rank_one", "block_diagonal"])
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    @pytest.mark.parametrize("kernel", ["tridiagonal", "bidiagonal"])
    def test_no_write_past_bounds(self, padded, kernel, n, kind):
        # bidiagonal takes a square x here, so R fills its whole copy. tridiagonal
        # reduces g in g's own storage, a padded buffer here too, and restore() must
        # then give g back bit for bit.
        a = _lapack._copy(_inputs(n)[kind])
        before = a.copy()
        values, vector, *restore = getattr(_lapack, kernel)(a)
        assert np.all(np.isfinite(values))
        for p in range(n):
            vector(p)  # None is allowed; writing past an array is not
        for r in restore:
            r()
        assert np.array_equal(a, before)
        assert len(padded) > 10

    @pytest.mark.parametrize("kind", ["zero", "identity", "rank_one"])
    @pytest.mark.parametrize("n", [2, 3, 5, 40])
    @pytest.mark.parametrize("aspect", [1, 2])
    def test_tall_bidiagonal_stays_in_its_block(self, padded, monkeypatch, aspect, n, kind):
        # dgeqrf fills the whole N x n copy of x; dgebrd and dormbr then work on its
        # top n x n block with LDA = N and must leave the reflectors below it alone.
        rows = aspect * n
        x = _tall_inputs(n, rows)[kind]
        padded_call = _lapack._call
        below = {}

        def call(name, *args):
            info = padded_call(name, *args)
            buf = next(b[:size] for b, size in padded if size == rows * n)
            lower = buf.reshape(n, rows).T[n:]  # the copy of x is column-major
            if name == "dgeqrf":
                below["rows"] = lower.copy()
            else:
                assert np.array_equal(lower, below["rows"]), f"{name} wrote below the n x n block"
            return info

        monkeypatch.setattr(_lapack, "_call", call)
        values, vector = _lapack.bidiagonal(x)
        assert np.all(np.isfinite(values))
        for p in range(n):
            vector(p)
        assert "rows" in below

    @pytest.mark.parametrize("kind", ["zero", "identity", "tied_diagonal", "rank_one", "block_diagonal"])
    @pytest.mark.parametrize("n", [2, 3, 5, 40, 130])
    @pytest.mark.parametrize("definite", [True, False])
    def test_cholesky_stays_in_bounds(self, padded, definite, n, kind):
        # dpotrf factors the built matrix in g's lower triangle, and g is then restored;
        # n = 130 fills it in three blocks of columns. A negative shift adds to the
        # diagonal, so each kind is positive definite; a shift of 1e3 makes it indefinite.
        # The shift is an n-vector with a lift, as the gap's call has it, and a scalar
        # without one, as the floor's call has it.
        g = _lapack._copy(_inputs(n)[kind])
        before = g.copy()
        scale = 1.0 / np.sqrt(np.abs(np.diagonal(g)) + 1.0)
        shift = -1.0 if definite else 1e3
        assert _lapack.cholesky(g, scale, np.full(n, shift), np.linspace(0.0, 1.0, n)) == definite
        assert np.array_equal(g, before)
        assert _lapack.cholesky(g, scale, shift) == definite
        assert np.array_equal(g, before)
        assert len(padded) >= 2

    @pytest.mark.parametrize("kind", ["zero", "identity", "tied_diagonal", "rank_one", "block_diagonal"])
    @pytest.mark.parametrize("n", [2, 3, 5, 40, 130])
    def test_cholesky_solve_stays_in_bounds(self, padded, n, kind):
        # dpotrs solves in the caller's rhs, a padded buffer here too, with the factor in g's
        # lower triangle, before g is restored; an indefinite matrix leaves rhs unsolved.
        g = _lapack._copy(_inputs(n)[kind])
        before = g.copy()
        scale = 1.0 / np.sqrt(np.abs(np.diagonal(g)) + 1.0)
        shift = np.full(n, -1.0)
        z = _lapack._copy(np.ones(n))
        assert _lapack.cholesky(g, scale, shift, rhs=z)
        assert np.allclose((scale[:, None] * before * scale - np.diag(shift)) @ z, 1.0, atol=1e-10)
        assert np.array_equal(g, before)
        assert _lapack.cholesky(g, scale, np.full(n, 1e3), rhs=z) is False


def test_cholesky_decides_and_restores_g():
    # At n = 600 dpotrf runs blocked, on several threads where OpenBLAS has them. It
    # must leave g's strict upper triangle alone, so that g comes back bit for bit,
    # and its verdict must be right on either side of lambda_min.
    g = _lapack.gram(np.random.default_rng(2).standard_normal((700, 600)))
    before = g.copy()
    lam = np.linalg.eigvalsh(before)[0]
    for shift, definite in [(0.9 * lam, True), (1.1 * lam, False)]:
        assert _lapack.cholesky(g, np.ones(600), np.full(600, shift)) == (definite and _lapack.available())
        assert np.array_equal(g, before)
    assert np.array_equal(before, before.T)


@pytest.mark.skipif(not _lapack.available(), reason="numpy's LAPACK symbols are not exported")
def test_tridiagonal_reduces_and_restores_g():
    # At n = 600 dsytrd runs blocked (dlatrd panels, then dsyr2k on the trailing lower
    # triangle), on several threads where OpenBLAS has them. It must leave g's strict
    # upper triangle alone, so that restore() gives g back bit for bit, and its values
    # must be eigvalsh's bit for bit, as they were when it reduced a copy of g.
    g = _lapack.gram(np.random.default_rng(3).standard_normal((700, 600)))
    before = g.copy()
    w, vector, restore = _lapack.tridiagonal(g)
    assert not np.array_equal(g, before)  # the reduction ran in g
    u = vector(0)
    restore()
    assert np.array_equal(g, before)
    assert np.array_equal(w, np.linalg.eigvalsh(before))
    assert np.linalg.norm(before @ u - w[0] * u) <= 1e-10 * w[-1]


@pytest.mark.skipif(not _lapack.available(), reason="numpy's LAPACK symbols are not exported")
@pytest.mark.parametrize("aspect", [1.2, 3.0])
def test_r_route_holds_one_copy_of_x(aspect):
    # The R route copies X once and factors it in place; what it allocates on top
    # is the blocked workspaces, (N + n) * nb and 2n * nb doubles with LAPACK's block
    # size nb (32 for OpenBLAS), and vectors of length N or n. np.linalg.qr would
    # hold two copies of X (one untraced) and build R and a copy of R besides.
    # Pareto(0.3) column norms fail the rule, so G is formed and the floor's Cholesky
    # runs in G's own lower triangle; it fails, and G is released before the copy of
    # X is made, so G's n^2 doubles stay below that copy's N n.
    n = 400
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=0.3)
    x = sample_matrix(EnsembleConfig(n=n, aspect=aspect, law=law, seed=3))
    calls = []
    real_call = _lapack._call
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_lapack, "_call", lambda name, *args: (calls.append(name), real_call(name, *args))[1])
        assert full_svd(x, k_bottom=2).method == "gesdd"
    assert calls[:2] == ["dpotrf", "dgeqrf"]
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        full_svd(x, k_bottom=2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert x.nbytes < peak <= x.nbytes + 8 * n * 256


@pytest.mark.skipif(not _lapack.available(), reason="numpy's LAPACK symbols are not exported")
@pytest.mark.parametrize("alpha, rule", [(0.8, False), (3.0, True)], ids=["enclosure", "rule"])
def test_gram_route_holds_one_gram_sized_array(alpha, rule):
    # The gram route keeps G (returned on the result) and nothing else of its size:
    # dsytrd reduces G in its own lower triangle and G is restored from its upper one,
    # and each Cholesky of the enclosure runs in the restored G the same way. The rest
    # is dsytrd's n * nb workspace, the n x 64 panels G's lower triangle is filled
    # with, the 64-row blocks of |X|, and vectors of length N or n.
    n = 400
    x = _matrix(alpha, n=n, seed=4)
    res = full_svd(x, k_bottom=2)
    assert res.method == "gram" and np.array_equal(res.gram, x.T @ x)
    w = np.linalg.eigvalsh(x.T @ x)
    assert (np.finfo(float).eps * w[-1] <= 1e-8 * w[0]) == rule  # else the enclosure ran
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        full_svd(x, k_bottom=2)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert 8 * n * n < peak <= 8 * n * n + 8 * n * 256


def test_routes_agree_without_symbols(monkeypatch):
    # Builds whose numpy does not export the routines take eigh of G or gesdd of R.
    mats = [_matrix(3.0), _matrix(0.1)]
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
    # (0.5, 50) and (0.8, 200) fail the rule and keep the gram route through the enclosure.
    table = [(1.5, 50, "gram"), (3.0, 200, "gram"), (0.5, 50, "gram"), (0.8, 200, "gram"), (0.1, 50, "gesdd")]
    for alpha, n, method in table:
        assert full_svd(_matrix(alpha, n=n), k_bottom=2).method == method


@pytest.mark.parametrize("bad", [2.5, np.float64(2.5), np.zeros(4, np.float32), np.zeros((3, 3))[:, ::2]])
def test_call_rejects_scalar_doubles_and_foreign_arrays(bad):
    # No routine takes a DOUBLE PRECISION scalar, so a float is a caller's mistake, not a pointer.
    with pytest.raises(TypeError, match="column-major float64 or int64"):
        _lapack._call("dsterf", 4, bad, _lapack._array(3))
