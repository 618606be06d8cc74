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
  lies outside about [1e-146, 1e146]).
* ``bidiagonal(x)``: dgeqrf of the tall x (N x n) in one column-major
  copy, whose top n x n block then holds R with the reflectors below its
  diagonal; these are zeroed, dgebrd reduces the block in place with
  LDA = N, and dbdsqr (the dqds algorithm) gives all its singular values.
  X's singular values and right vectors are R's (Chan, ACM TOMS 8, 1982).
  dgeqrf runs as numpy's ``qr`` runs it (same layout, LDA and workspace),
  so R is bit for bit ``np.linalg.qr(x, mode="r")``, but the copy is the
  only array of X's size the kernel allocates: numpy's ``qr`` holds two
  copies of X and then builds R, which a kernel on R would copy again.

Each kept vector is then one bisection (dstebz) for its own eigenvalue of
the tridiagonal, inverse iteration for it (dstein), and one back-transform
(dormtr or dormbr) of that single vector, about 2n^2 flops. A right
singular vector of the bidiagonal B comes from the Golub-Kahan tridiagonal
of order 2n, with zero diagonal and off-diagonal d_1, e_1, d_2, ..., d_n:
its eigenvector for +s_j holds v_j in its even (0-based) entries (Golub &
Kahan, SIAM J. Numer. Anal. B 2, 1965; LAPACK's dbdsvdx takes this route,
but writes past its documented bounds on rank-deficient input, so it is
not called here). Vectors are computed one at a time, so a vector never
depends on how many others are kept.

Every kernel returns None where numpy's build does not export the routines
(Accelerate or MKL builds, for example), a routine reports INFO != 0, or,
for ``tridiagonal``, g is not finite; the caller then falls back to numpy's
public calls. ``bidiagonal`` expects a finite x. Every array handed to
LAPACK comes from ``_array``.
"""
from __future__ import annotations

import numpy as np

# Each routine's argument count up to and including INFO, and how many of those
# are CHARACTER (each adds a hidden length after INFO).
_SIGNATURES = {
    "dsytrd": (10, 1),  # UPLO N A LDA D E TAU WORK LWORK INFO
    "dsterf": (4, 0),  # N D E INFO
    "dstebz": (18, 2),  # RANGE ORDER N VL VU IL IU ABSTOL D E M NSPLIT W IBLOCK ISPLIT WORK IWORK INFO
    "dstein": (13, 0),  # N D E M W IBLOCK ISPLIT Z LDZ WORK IWORK IFAIL INFO
    "dormtr": (13, 3),  # SIDE UPLO TRANS M N A LDA TAU C LDC WORK LWORK INFO
    "dgeqrf": (8, 0),  # M N A LDA TAU WORK LWORK INFO
    "dgebrd": (11, 0),  # M N A LDA D E TAUQ TAUP WORK LWORK INFO
    "dbdsqr": (15, 1),  # UPLO N NCVT NRU NCC D E VT LDVT U LDU C LDC WORK INFO
    "dormbr": (14, 3),  # VECT SIDE TRANS M N K A LDA TAU C LDC WORK LWORK INFO
}
_lib: dict | None = None  # resolved on first use; {} where numpy's build lacks the symbols


def _library() -> dict:
    global _lib
    if _lib is None:
        import ctypes  # here, not at module top: only a kernel call needs it

        try:
            dll = ctypes.CDLL(np.linalg._umath_linalg.__file__)
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


def _array(size: int, dtype=np.float64) -> np.ndarray:
    """A fresh contiguous buffer for LAPACK; every array a kernel passes is made here."""
    return np.empty(size, dtype)


def _call(name: str, *args) -> int:
    """Run LAPACK routine name and return its INFO.

    args follow the Fortran signature up to INFO: a str is a CHARACTER*1, an
    int an INTEGER, a float a DOUBLE PRECISION, an array its data pointer.
    The hidden CHARACTER lengths go last, as gfortran expects them.
    """
    import ctypes

    count, chars = _SIGNATURES[name]
    if len(args) + 1 != count or sum(isinstance(a, str) for a in args) != chars:
        raise TypeError(f"{name} takes {count - 1} arguments before INFO, {chars} of them CHARACTER")
    refs = []
    for a in args:
        if isinstance(a, str):
            refs.append(ctypes.c_char_p(a.encode()))
        elif isinstance(a, (int, np.integer)):
            refs.append(ctypes.byref(ctypes.c_int64(int(a))))
        elif isinstance(a, (float, np.floating)):
            refs.append(ctypes.byref(ctypes.c_double(float(a))))
        elif a.dtype in (np.float64, np.int64) and a.flags.f_contiguous:
            refs.append(a.ctypes.data)
        else:
            raise TypeError(f"{name}: arrays must be column-major float64 or int64, got {a.dtype}")
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


def _tridiagonal_vector(d: np.ndarray, e: np.ndarray, index: int) -> np.ndarray | None:
    """Unit eigenvector for the index-th smallest (1-based) eigenvalue of the tridiagonal (d, e)."""
    n = d.size
    m, nsplit = _array(1, np.int64), _array(1, np.int64)
    w, iblock, isplit = _array(n), _array(n, np.int64), _array(n, np.int64)
    if _call("dstebz", "I", "B", n, 0.0, 0.0, index, index, 0.0, d, e, m, nsplit, w, iblock,
             isplit, _array(4 * n), _array(3 * n, np.int64)) or m[0] != 1:
        return None
    z = _array(n)
    if _call("dstein", n, d, e, 1, w, iblock, isplit, z, n, _array(5 * n), _array(n, np.int64),
             _array(1, np.int64)):
        return None
    return z


def tridiagonal(g: np.ndarray):
    """Eigenvalues of the symmetric g in ascending order, and vector(p) for the p-th (0-based).

    None where the routines are missing, g is not finite, or dsytrd or
    dsterf fails; vector(p) returns None where dstebz, dstein or dormtr fails.
    """
    if not (available() and np.isfinite(g).all()):
        return None
    n = g.shape[0]
    a, d, e, tau = _copy(g), _array(n), _array(n - 1), _array(n - 1)
    work = _workspace("dsytrd", "L", n, a, n, d, e, tau)
    if work is None or _call("dsytrd", "L", n, a, n, d, e, tau, work, work.size):
        return None
    w, f = _copy(d), _copy(e)
    if _call("dsterf", n, w, f):
        return None

    def vector(p: int) -> np.ndarray | None:
        z = _tridiagonal_vector(d, e, p + 1)
        # LWORK = 1 keeps dormtr unblocked: one vector, one reflector at a time.
        if z is None or _call("dormtr", "L", "L", "N", n, 1, a, n, tau, z, n, _array(1), 1):
            return None
        return z

    return w, vector


def bidiagonal(x: np.ndarray):
    """Singular values of the tall x in descending order, and vector(p) for the right
    vector of the p-th smallest (0-based), unit and in x's coordinates.

    x is copied once, and everything below runs in that copy: dgeqrf leaves
    R in its top n x n block, the reflectors below R's diagonal are zeroed,
    and dgebrd and dormbr work on that block with LDA = N. None where the
    routines are missing or dgeqrf, dgebrd or dbdsqr fails; vector(p)
    returns None where dstebz, dstein or dormbr fails or the vector's even
    half vanishes. x must be finite, and is not checked again here: the only
    caller, full_svd, has already rejected a non-finite X, and a check would
    be a second pass over N x n entries.
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
        z = _tridiagonal_vector(tgk_d, tgk_e, n + p + 1)  # +s ascending sits above all n of -s
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
