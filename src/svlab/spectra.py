"""Singular values and right singular vectors with verified residuals.

Two LAPACK routes produce the factors, and the matrix itself picks one:

* ``gram``: G = X^T X is formed once. numpy's ``eigvalsh`` gives all its
  eigenvalues, s_i = sqrt(lambda_i) in descending order, and each stored
  right vector is one step of inverse iteration: one LU solve with G
  shifted by its eigenvalue, from a fixed start vector (Ipsen, "Computing
  an eigenvector with inverse iteration", SIAM Review 39, 1997). That costs
  about 4n^3/3 flops for the values plus 2n^3/3 per stored vector, where
  ``eigh`` builds all n vectors for about 9n^3. Where a shifted G is exactly
  singular (an exactly diagonal G, an exact tie) or a solved vector fails
  a check, ``eigh`` (syevd) of G gives the values and vectors instead. The
  N x n left factor is never built.
* ``gesdd``: for every matrix whose G cannot resolve s_min, X = QR by
  Householder QR (geqrf), then gesdd of the n x n factor R, which has X's
  singular values and right vectors (Chan's R-SVD). Neither Q nor the
  N x n left factor of X is built. For N >= 11n/6 LAPACK's gesdd itself
  runs this QR first, and with numpy's bundled OpenBLAS the two agree bit
  for bit.

The rule. Forming and diagonalizing G perturbs each eigenvalue by about
eps * lambda_max, so s_min = sqrt(lambda_min) carries a relative error of
about eps * kappa^2 / 2, kappa = s_1 / s_n (the normal equations; Golub &
Van Loan, *Matrix Computations*, section 5.3). The gram route is taken only
when 0 < lambda_min and eps * lambda_max <= GRAM_COND_LIMIT * lambda_min.
That keeps the relative error of s_min near GRAM_COND_LIMIT / 2 at worst,
and its absolute error near sqrt(eps * GRAM_COND_LIMIT) / 2 * s_1, about
7e-13 * s_1. The rule is applied twice: first to diag(G), the squared
column norms, which lie in [lambda_min, lambda_max], so a diagonal that
fails proves the eigenvalues fail without an eigensolve (and without
forming G: the squared column norms come from X); then to the eigenvalues
themselves.

On the gram route SpectralResult.gram keeps G, and minor_extremes reads a
column minor's extremes from it: X_J^T X_J is exactly G[J, J], so gathering
that principal submatrix replaces forming the minor's own Gram matrix. The
same rule, eigvalsh and shifted solves, with the same checks against X,
give the minor's two extremes.

Whichever route ran, this module owns the contracts around it: residual
verification against the normal equations, orthonormality, a
deterministic sign convention, near-degeneracy flags, and the operator
norm.

Conventions. Singular values are reported in descending order
s_1 >= ... >= s_n for an N x n matrix with N >= n >= 2. "Bottom vector k"
means the right singular vector for the k-th smallest value, so k = 1 is
the minimizer of ||X u|| over unit vectors and s_min = s_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .matrixio import _check_matrix

__all__ = [
    "SpectralError",
    "SpectralResult",
    "full_svd",
    "minor_extremes",
    "operator_norm",
]

RESIDUAL_TOL = 1e-10
ORTHO_TOL = 1e-10
DEGENERATE_GAP_TOL = 1e-8
GRAM_COND_LIMIT = 1e-8
_EPS = float(np.finfo(np.float64).eps)


class SpectralError(RuntimeError):
    """Numerical failure; carries the worst observed residual."""

    def __init__(self, message: str, worst_residual: float = math.inf):
        super().__init__(message)
        self.worst_residual = worst_residual


@dataclass
class SpectralResult:
    """Verified spectral data for one matrix.

    bottom_right_vectors[k-1] is the unit right singular vector for the
    k-th smallest singular value. residuals holds
    ||X^T(X u) - s^2 u||_2 for each stored vector, bottom vectors first
    and the top vector last. degenerate_flags[k-1] marks bottom vector k
    whose singular value sits within DEGENERATE_GAP_TOL * s_1 of a
    spectral neighbor, meaning the individual vector (not the subspace)
    is not numerically well defined. method names the route that produced
    the factors: "gram" (eigvalsh of X^T X and shifted solves, or its eigh)
    or "gesdd" (LAPACK SVD of X's R factor).
    gram is X^T X on the gram route and None on the gesdd route; it is kept
    for minor_extremes and left out of repr and equality.
    """

    singular_values: np.ndarray
    bottom_right_vectors: np.ndarray
    top_right_vector: np.ndarray
    residuals: np.ndarray
    tolerance_used: float
    method: str
    degenerate_flags: list[bool] = field(default_factory=list)
    gram: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def s_min(self) -> float:
        return float(self.singular_values[-1])

    @property
    def s_top(self) -> float:
        return float(self.singular_values[0])


def _validate_tall(x: np.ndarray) -> np.ndarray:
    x = _check_matrix(x)
    rows, cols = x.shape
    if cols < 2 or rows < cols:
        raise ValueError(f"need rows >= cols >= 2, got shape {x.shape}")
    return x


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive; ties resolved by argmax's
    # lowest-index rule.
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


def _gram_resolves(hi, lo) -> bool:
    """Whether eigenvalues of X^T X spanning [lo, hi] resolve sqrt(lo); NaN never does."""
    return lo > 0 and _EPS * hi <= GRAM_COND_LIMIT * lo


def _gram_pairs(x: np.ndarray, g: np.ndarray, cols, picks: np.ndarray):
    """eigvalsh of g = X_J^T X_J, and checked unit vectors for its eigenvalues at picks.

    cols selects J among X's columns (slice(None) for all of X); picks holds
    distinct ascending positions. None when the eigenvalues fail the
    GRAM_COND_LIMIT rule, else (w, pairs): w ascending, and pairs is
    (u, residuals), u[:, j] the vector for w[picks[j]], or None when a
    shifted g is exactly singular or a vector fails full_svd's residual
    check (computed from X, not from g) or its orthonormality check.

    Each vector is one step of inverse iteration (Ipsen, SIAM Review 39,
    1997): an LU solve of (g - w_j I) y = linspace(1, 2, m), Gram-Schmidt'd
    against the earlier vectors only, so the first does not depend on the
    rest. g's diagonal is shifted in place and restored.
    """
    w = np.linalg.eigvalsh(g)
    if not _gram_resolves(w[-1], w[0]):
        return None
    lam = w[picks]
    d = np.diagonal(g).copy()
    start = np.linspace(1.0, 2.0, d.size)
    u = np.empty((d.size, lam.size))
    try:
        for j, shift in enumerate(lam):
            np.fill_diagonal(g, d - shift)
            y = np.linalg.solve(g, start)
            y -= u[:, :j] @ (u[:, :j].T @ y)
            u[:, j] = y / np.linalg.norm(y)
    except np.linalg.LinAlgError:  # an exactly singular shifted matrix
        return w, None
    finally:
        np.fill_diagonal(g, d)
    # X u_full = X_J u when u_full is u on cols and zero elsewhere, so X_J is never copied.
    u_full = np.zeros((x.shape[1], lam.size))
    u_full[cols] = u
    residuals = np.linalg.norm((x.T @ (x @ u_full))[cols] - u * lam, axis=0)
    ortho_err = np.abs(u.T @ u - np.eye(lam.size)).max()
    top = math.sqrt(w[-1])
    if not (residuals.max() <= RESIDUAL_TOL * top * top and ortho_err <= ORTHO_TOL):  # a NaN fails too
        return w, None
    return w, (u, residuals)


def _right_factors(x: np.ndarray, picks: np.ndarray):
    """Descending singular values, the right vectors at ascending positions picks as rows,
    their residuals where already checked, the route and G on the gram route."""
    d = np.einsum("ij,ij->j", x, x)  # diag(X^T X), without forming it
    if _gram_resolves(d.max(), d.min()):
        g = x.T @ x
        found = _gram_pairs(x, g, slice(None), picks)
        if found is not None:
            w, pairs = found
            if pairs is None:
                w, v = np.linalg.eigh(g)
                u, residuals = v[:, picks], None
            else:
                u, residuals = pairs
            return np.sqrt(w[::-1]), u.T, residuals, "gram", g
        del g  # release G before the QR copy of X
    # X = QR, so X and R share s and V; gesdd of the n x n R never builds X's
    # N x n left factor (Chan's R-SVD).
    _, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r"))
    return s, vt[x.shape[1] - 1 - picks], None, "gesdd", None


def full_svd(x: np.ndarray, k_bottom: int = 1) -> SpectralResult:
    """All singular values of X, keeping the bottom k right vectors and the top one.

    Where the module's GRAM_COND_LIMIT rule says X^T X resolves s_min, the
    values come from eigvalsh of X^T X and each stored vector from one
    shifted solve, about 2n^3/3 flops a vector; eigh of X^T X stands in
    where a shift is exactly singular or a solved vector fails a check.
    Otherwise they come from gesdd of X's R factor. SpectralResult.method
    records the route, and every check below runs on either. Raises
    SpectralError (with the worst residual attached) if any stored vector
    violates ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2, if the stored
    vectors are not orthonormal to ORTHO_TOL, or if the backend fails to
    converge.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    # Ascending positions of the stored vectors: bottom 1..k, then the top,
    # which is bottom vector n itself when k = n.
    picks = np.arange(k_bottom) if k_bottom == n else np.append(np.arange(k_bottom), n - 1)
    try:
        s, rows, residuals, method, gram = _right_factors(x, picks)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD backend failed to converge: {exc}") from exc

    s1 = float(s[0])
    stored = np.array([_fix_sign(r) for r in rows])
    if residuals is None:
        # Recomputed from X, not from G, so the eigh fallback is checked against X itself.
        residuals = np.linalg.norm(x.T @ (x @ stored.T) - stored.T * s[n - 1 - picks] ** 2, axis=0)
    worst = float(residuals.max())
    if not worst <= RESIDUAL_TOL * s1 * s1:  # written so that a NaN residual fails
        raise SpectralError(
            f"residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * s1^2 = {RESIDUAL_TOL * s1 * s1:.3e}",
            worst_residual=worst,
        )

    ortho = stored @ stored.T
    ortho_err = float(np.abs(ortho - np.eye(ortho.shape[0])).max())
    if not ortho_err <= ORTHO_TOL:
        raise SpectralError(
            f"stored vectors deviate from orthonormality by {ortho_err:.3e}",
            worst_residual=worst,
        )

    # Each bottom value's distance to its nearer spectral neighbour.
    pos = n - np.arange(1, k_bottom + 1)  # descending-order positions of the k smallest
    gaps = np.concatenate([[math.inf], np.abs(np.diff(s)), [math.inf]])
    flags = (np.minimum(gaps[pos], gaps[pos + 1]) < DEGENERATE_GAP_TOL * s1).tolist()

    keep = np.append(np.arange(k_bottom), picks.size - 1)  # the top repeats bottom n when k = n
    return SpectralResult(
        singular_values=s.copy(),
        bottom_right_vectors=stored[:k_bottom],
        top_right_vector=stored[-1],
        residuals=residuals[keep],
        tolerance_used=RESIDUAL_TOL,
        method=method,
        degenerate_flags=flags,
        gram=gram,
    )


def minor_extremes(x: np.ndarray, cols: np.ndarray, gram: np.ndarray) -> tuple[float, float] | None:
    """(s_min, s_top) of X[:, cols] from G[cols, cols], or None where they are not verified.

    gram is X^T X as full_svd kept it and cols holds at least two sorted,
    unique column indices. The GRAM_COND_LIMIT rule runs on the diagonal of
    G[cols, cols] first; the eigenvalues and one checked vector per extreme
    then come from the same shifted solves as full_svd's gram route. None
    when the rule, eigvalsh, a solve or a check fails; the caller then
    decomposes X[:, cols] itself.
    """
    g = gram[np.ix_(cols, cols)]
    d = np.diagonal(g)
    if not _gram_resolves(d.max(), d.min()):
        return None
    try:
        found = _gram_pairs(x, g, cols, np.array([0, cols.size - 1]))
    except np.linalg.LinAlgError:  # eigvalsh did not converge
        return None
    if found is None or found[1] is None:
        return None
    w = found[0]
    return float(np.sqrt(w[0])), float(np.sqrt(w[-1]))


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
