"""Selected eigenvectors and right singular vectors through numpy's own LAPACK.

numpy's bundled OpenBLAS exports the LAPACK routines with 64-bit integers
under the names ``scipy_<routine>_64_``, and every process that imports
numpy has already loaded them, so ctypes reaches them without loading
scipy. Each kernel below reduces its matrix by Householder reflections
to a tridiagonal or bidiagonal one, takes all values from it, and after
that does work proportional only to the vectors that are asked for:

* ``tridiagonal(g)``: dsytrd of the symmetric g, then dsterf for all its
  eigenvalues. These are the calls numpy's ``eigvalsh`` makes (syevd
  without vectors), on the same layout and workspace, so the values agree
  with it bit for bit (syevd alone first rescales a g whose largest entry
  lies outside about [1e-146, 1e146]). dsytrd runs in g's own storage:
  with UPLO = 'L' it writes only g's lower triangle (Anderson et al.,
  *LAPACK Users' Guide*, 3rd ed.), so once the kept vectors are
  back-transformed, g is restored bit for bit from its strict upper
  triangle and a copy of its diagonal, and no second n x n array is made.
* ``bidiagonal(x)``: dgeqrf of the tall x (N x n) in one column-major
  copy, whose top n x n block then holds R with the reflectors below its
  diagonal; these are zeroed, dgebrd reduces the block in place with
  LDA = N, and dbdsqr (the dqds algorithm) gives all its singular values.
  X's singular values and right vectors are R's (Chan, ACM TOMS 8, 1982).
  dgeqrf runs as numpy's ``qr`` runs it (same layout, LDA and workspace),
  so R is bit for bit ``np.linalg.qr(x, mode="r")``, but the copy is the
  only array of X's size the kernel allocates: numpy's ``qr`` holds two
  copies of X and then builds R, which a kernel on R would copy again.

Each kept vector is then inverse iteration (dstein) at the eigenvalue the
reduction returned and one back-transform (dormtr or dormbr) of it alone,
about 2n^2 flops, so no vector depends on how many others are kept. The
tridiagonal splits where e_i^2 < ulp^2 |d_i d_{i+1}| + safe_min (LAPACK's
bisection test): unsplit, it is dstein's one block; split everywhere, it is
diagonal, and vector p is the unit vector at its p-th smallest d (stable
order); split in part, the vector is None. The bidiagonal B's right vector
v_j sits in the even (0-based) entries of the eigenvector for +s_j of its
Golub-Kahan tridiagonal: order 2n, zero diagonal, off-diagonal d_1, e_1,
d_2, ..., d_n (Golub & Kahan, SIAM J. Numer. Anal. B 2, 1965; dbdsvdx takes
this route, but writes past its bounds on rank-deficient input, so is not called).

* ``cholesky(g, scale, shift, lift)``: whether dpotrf finds S g S -
  diag(shift) + lift lift^T, S = diag(scale), positive definite in
  floating point. The matrix is built in g's own lower triangle from its
  upper one, a block of columns at a time, and g is restored the same way
  afterwards, so no other n x n array is made; ``gram`` makes X^T X, or
  copies a caller's, in a buffer that these kernels may take. ``spectra``
  turns a success into a proof.
  ``cholesky_solve(g, scale, shift, b)`` solves with that factor (dpotrs)
  before g is restored.

Every kernel returns None (``cholesky`` False) where numpy's build does
not export the routines (Accelerate or MKL builds, for example), a routine
reports INFO != 0, or, for ``tridiagonal``, g is not finite; the caller
then falls back to numpy's public calls. ``bidiagonal`` expects a finite
x. Every array a kernel allocates for LAPACK comes from ``_array``; g is
the caller's. ``core_name`` names the OpenBLAS kernel set the process runs
on, for the sweep manifest.
"""
from __future__ import annotations

import ctypes

import numpy as np

# Each routine's argument count up to and including INFO, and how many of those
# are CHARACTER (each adds a hidden length after INFO).
_SIGNATURES = {
    "dsytrd": (10, 1),  # UPLO N A LDA D E TAU WORK LWORK INFO
    "dsterf": (4, 0),  # N D E INFO
    "dstein": (13, 0),  # N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
    "dormtr": (13, 3),  # SIDE UPLO TRANS M N A LDA TAU C LDC WORK LWORK INFO
    "dgeqrf": (8, 0),  # M N A LDA TAU WORK LWORK INFO
    "dgebrd": (11, 0),  # M N A LDA D E TAUQ TAUP WORK LWORK INFO
    "dbdsqr": (15, 1),  # UPLO N NCVT NRU NCC D E VT LDVT U LDU C LDC WORK INFO
    "dormbr": (14, 3),  # VECT SIDE TRANS M N K A LDA TAU C LDC WORK LWORK INFO
    "dpotrf": (5, 1),  # UPLO N A LDA INFO
    "dpotrs": (8, 1),  # UPLO N NRHS A LDA B LDB INFO
}
_lib: dict | None = None  # resolved on first use; {} where numpy's build lacks the symbols


def _openblas() -> ctypes.CDLL:
    """numpy's linear algebra module, whose symbols include its bundled OpenBLAS's."""
    return ctypes.CDLL(np.linalg._umath_linalg.__file__)


def _library() -> dict:
    global _lib
    if _lib is None:
        try:
            dll = _openblas()
            _lib = {name: getattr(dll, f"scipy_{name}_64_") for name in _SIGNATURES}
        except (OSError, AttributeError):
            _lib = {}
        for name, fn in _lib.items():
            args, chars = _SIGNATURES[name]
            fn.argtypes = [ctypes.c_void_p] * args + [ctypes.c_size_t] * chars
            fn.restype = None
    return _lib


def available() -> bool:
    """Whether numpy's build exports every routine the kernels call."""
    return bool(_library())


def core_name() -> str | None:
    """The OpenBLAS kernel set this process runs on (such as "SkylakeX"), or None where
    numpy's build does not say. Records can differ in their last bits between kernel sets."""
    try:
        fn = _openblas().scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return None
    fn.argtypes, fn.restype = [], ctypes.c_char_p
    return fn().decode("ascii")


def _array(size: int, dtype=np.float64) -> np.ndarray:
    """A fresh contiguous buffer for LAPACK; every array a kernel passes is made here."""
    return np.empty(size, dtype)


def _call(name: str, *args) -> int:
    """Run LAPACK routine name and return its INFO.

    args follow the Fortran signature up to INFO: a str is a CHARACTER*1, an
    int an INTEGER, an array its data pointer. The hidden CHARACTER lengths
    go last, as gfortran expects them.
    """
    count, chars = _SIGNATURES[name]
    if len(args) + 1 != count or sum(isinstance(a, str) for a in args) != chars:
        raise TypeError(f"{name} takes {count - 1} arguments before INFO, {chars} of them CHARACTER")
    refs = []
    for a in args:
        if isinstance(a, str):
            refs.append(ctypes.c_char_p(a.encode()))
        elif isinstance(a, (int, np.integer)):
            refs.append(ctypes.byref(ctypes.c_int64(int(a))))
        elif isinstance(a, np.ndarray) and a.dtype in (np.float64, np.int64) and a.flags.f_contiguous:
            refs.append(a.ctypes.data)
        else:
            got = getattr(a, "dtype", type(a).__name__)
            raise TypeError(f"{name}: arrays must be column-major float64 or int64, got {got}")
    info = _array(1, np.int64)
    _library()[name](*refs, info.ctypes.data, *[1] * chars)
    return int(info[0])


def _copy(a: np.ndarray) -> np.ndarray:
    """a in column-major order in a buffer from _array."""
    out = _array(a.size).reshape(a.shape, order="F")
    out[...] = a
    return out


def _workspace(name: str, *args) -> np.ndarray | None:
    """The optimal WORK for name, from its LWORK = -1 query; args end just before WORK."""
    work = _array(1)
    if _call(name, *args, work, -1):
        return None
    return _array(max(1, int(work[0])))


def _tridiagonal_vector(d: np.ndarray, e: np.ndarray, lam: float, index: int) -> np.ndarray | None:
    """Unit eigenvector of the tridiagonal (d, e) for lam, its index-th smallest (0-based) eigenvalue."""
    n = d.size
    splits = e * e < np.finfo(float).eps ** 2 * np.abs(d[:-1] * d[1:]) + np.finfo(float).tiny
    z = _array(n)
    if splits.all():  # diagonal: its eigenvectors are unit vectors
        z[:] = np.arange(n) == np.argsort(d, kind="stable")[index]
        return z
    if splits.any():  # split in part: dstein would need the block of each value
        return None
    w, iblock, isplit = _array(1), _array(1, np.int64), _array(1, np.int64)
    w[0], iblock[0], isplit[0] = lam, 1, n  # one block of order n
    if _call("dstein", n, d, e, 1, w, iblock, isplit, z, n, _array(5 * n), _array(n, np.int64),
             _array(1, np.int64)):
        return None
    return z


def tridiagonal(g: np.ndarray):
    """Eigenvalues of the symmetric g ascending, vector(p) for the p-th (0-based), and restore().

    g is reduced in its own storage: dsytrd writes the tridiagonal and its reflectors in g's lower
    triangle and leaves the strict upper one alone, from which, and a copy of the diagonal,
    restore() rebuilds g bit for bit. vector(p) reads the reflectors, so restore() runs once the
    kept vectors are back-transformed. None, with g as it began, where the routines are missing,
    g is not finite, or dsytrd or dsterf fails; vector(p) is None where the tridiagonal splits in
    part or dstein or dormtr fails.
    """
    if not (available() and np.isfinite(g).all()):
        return None
    n = g.shape[0]
    a = g if g.flags.f_contiguous else g.T  # g is symmetric: either order is g, and a column-major
    diagonal = _copy(np.diagonal(a))
    d, e, tau = _array(n), _array(n - 1), _array(n - 1)
    work = _workspace("dsytrd", "L", n, a, n, d, e, tau)
    if work is None or _call("dsytrd", "L", n, a, n, d, e, tau, work, work.size):
        _restore(a, diagonal)
        return None
    w, f = _copy(d), _copy(e)
    if _call("dsterf", n, w, f):
        _restore(a, diagonal)
        return None

    def vector(p: int) -> np.ndarray | None:
        z = _tridiagonal_vector(d, e, w[p], p)
        # LWORK = 1 keeps dormtr unblocked: one vector, one reflector at a time.
        if z is None or _call("dormtr", "L", "L", "N", n, 1, a, n, tau, z, n, _array(1), 1):
            return None
        return z

    return w, vector, lambda: _restore(a, diagonal)


def bidiagonal(x: np.ndarray):
    """Singular values of the tall x in descending order, and vector(p) for the right
    vector of the p-th smallest (0-based), unit and in x's coordinates.

    x is copied once, and everything below runs in that copy: dgeqrf leaves
    R in its top n x n block, the reflectors below R's diagonal are zeroed,
    and dgebrd and dormbr work on that block with LDA = N. None where the
    routines are missing or dgeqrf, dgebrd or dbdsqr fails; vector(p)
    is None where its tridiagonal splits in part, dstein or dormbr fails,
    or the even half vanishes. x must be finite, and is not checked again
    here: the only caller, full_svd, has already rejected a non-finite X,
    and a check would be a second pass over N x n entries.
    """
    if not available():
        return None
    rows, n = x.shape
    a, tau = _copy(x), _array(n)
    work = _workspace("dgeqrf", rows, n, a, rows, tau)
    if work is None or _call("dgeqrf", rows, n, a, rows, tau, work, work.size):
        return None
    del work, tau  # Q is never applied
    for j in range(n - 1):
        a[j + 1:n, j] = 0.0  # R = triu of the top block
    d, e, tauq, taup = _array(n), _array(n - 1), _array(n), _array(n)
    work = _workspace("dgebrd", n, n, a, rows, d, e, tauq, taup)
    if work is None or _call("dgebrd", n, n, a, rows, d, e, tauq, taup, work, work.size):
        return None
    s, f = _copy(d), _copy(e)
    if _call("dbdsqr", "U", n, 0, 0, 0, s, f, _array(1), 1, _array(1), 1, _array(1), 1, _array(4 * n)):
        return None
    # The Golub-Kahan tridiagonal of B: eigenvalues +-s_j, and +s_j's vector is (v_1, u_1, v_2, ...).
    tgk_d, tgk_e = _array(2 * n), _array(2 * n - 1)
    tgk_d[:] = 0.0
    tgk_e[0::2], tgk_e[1::2] = d, e

    def vector(p: int) -> np.ndarray | None:
        z = _tridiagonal_vector(tgk_d, tgk_e, s[n - 1 - p], n + p)  # +s ascending sits above all n of -s
        if z is None:
            return None
        v = _copy(z[0::2])
        norm = float(np.linalg.norm(v))
        if not norm > 0.0:
            return None
        v /= norm
        if _call("dormbr", "P", "L", "N", n, 1, n, a, rows, taup, v, n, _array(1), 1):
            return None
        return v

    return s, vector


def gram(x: np.ndarray, g: np.ndarray | None = None) -> np.ndarray:
    """X^T X in a buffer from _array, which tridiagonal and cholesky may write: a copy of g where
    the caller holds it, else formed bit for bit as numpy's x.T @ x (one syrk, so exactly symmetric)."""
    if g is not None:
        return _copy(g)
    n = x.shape[1]
    return np.matmul(x.T, x, out=_array(n * n).reshape((n, n)))


_BLOCK = 64  # columns of g's lower triangle filled at a time: n x _BLOCK temporaries
_TRIL = np.tri(_BLOCK, dtype=bool)  # the lower triangle of a diagonal block, its diagonal included


def _fill_lower(a: np.ndarray, build) -> None:
    """Overwrite a's lower triangle, its diagonal included, with build(panel, j, cols), where panel
    is a[j:, cols] as a's upper triangle gives it; the strict upper triangle is only read."""
    n = a.shape[0]
    for j in range(0, n, _BLOCK):
        cols = slice(j, min(j + _BLOCK, n))
        width = cols.stop - j
        panel = build(a[cols, j:].T, j, cols)  # a new array: the reads end before the writes
        a[cols.stop:, cols] = panel[width:]
        np.copyto(a[cols, cols], panel[:width], where=_TRIL[:width, :width])


def _restore(a: np.ndarray, diagonal: np.ndarray) -> None:
    """a's lower triangle rebuilt from its strict upper one and diagonal, a copy of a's diagonal
    taken before a LAPACK routine (called with UPLO = 'L', so never reading or writing above the
    diagonal) overwrote the lower triangle."""
    _fill_lower(a, lambda panel, j, cols: panel.copy())
    a.flat[::a.shape[0] + 1] = diagonal


def _factored(g: np.ndarray, scale: np.ndarray, shift: np.ndarray, lift: np.ndarray | None, then=None):
    """then(a, n) on the Cholesky factor of A = S g S - diag(shift) + lift lift^T, S = diag(scale),
    built and factored in g's lower triangle (a, column-major), or False where dpotrf fails; g is
    restored either way.

    Each entry of A is built as (g_ij * scale_i) * scale_j, then plus lift_i * lift_j, and then
    minus shift_i on the diagonal. dpotrf leaves the strict upper triangle alone, from which, and
    a copy of the diagonal, the lower triangle is restored, so g ends bit for bit as it began.
    """
    n = g.shape[0]
    a = g if g.flags.f_contiguous else g.T  # g is symmetric: either order is g, and a column-major
    diagonal = _copy(np.diagonal(a))

    def build(panel, j, cols):
        out = np.multiply(panel, scale[j:, None])
        out *= scale[cols]
        if lift is not None:
            out += np.multiply.outer(lift[j:], lift[cols])
        return out

    _fill_lower(a, build)
    a.flat[::n + 1] -= shift
    try:
        return not _call("dpotrf", "L", n, a, n) and (then is None or then(a, n))
    finally:
        _restore(a, diagonal)


def cholesky(g: np.ndarray, scale: np.ndarray, shift: np.ndarray, lift: np.ndarray | None = None) -> bool:
    """Whether dpotrf finds A = S g S - diag(shift) + lift lift^T positive definite, S = diag(scale),
    for the symmetric g from gram, which ends as it began; False also where the routines are missing."""
    return available() and _factored(g, scale, shift, lift)


def cholesky_solve(g: np.ndarray, scale: np.ndarray, shift: np.ndarray, b: np.ndarray) -> np.ndarray | None:
    """A^{-1} b for A = S g S - diag(shift) as cholesky builds it, from its factor (dpotrs), or None
    where cholesky would be False or dpotrs fails."""
    if not available():
        return None
    z = _copy(b)
    return z if _factored(g, scale, shift, None, lambda a, n: not _call("dpotrs", "L", n, 1, a, n, z, n)) else None
