"""Singular values and right singular vectors with verified residuals.

Two routes produce the factors, and the matrix itself picks one. Each runs
one Householder reduction through numpy's own LAPACK (``svlab._lapack``),
takes all values from it, and then computes only the kept vectors: one
inverse iteration on the reduced matrix, at the value the reduction gave,
and one back-transform each, about 2n^2 flops a vector on top of it.

* ``gram``: G = X^T X is formed once and reduced to tridiagonal form
  (dsytrd, 4n^3/3 flops); dsterf gives all its eigenvalues, bit for bit
  what numpy's ``eigvalsh`` gives, and s_i = sqrt(lambda_i) in descending
  order. ``eigh`` (syevd) builds all n vectors for about 9n^3.
* ``gesdd``: for every matrix whose G cannot resolve s_min, X = QR by
  Householder QR (dgeqrf) in one column-major copy of X, then the n x n
  factor R, which has X's singular values and right vectors (Chan's
  R-SVD), is reduced to bidiagonal form (dgebrd, 8n^3/3 flops) in place,
  in that copy's top block; dbdsqr gives all its singular values, and each
  kept right vector comes from the Golub-Kahan tridiagonal of the
  bidiagonal. Neither Q, the n x n left factor of R, nor the N x n left
  factor of X is built, and no separate R array either.

Each route holds X plus one working copy: G and its reduced copy (each
n x n) on the gram route, the N x n copy of X on the gesdd route, plus
O(n) vectors and LAPACK's blocked workspaces of O((N + n) * nb) doubles.

Either route falls back to numpy's public call on its matrix, ``eigh`` of
G or gesdd of R (``np.linalg.svd`` of ``np.linalg.qr(x, mode="r")``, which
holds more copies of X; the route keeps its label), where the reduction or
a vector's routine fails, the reduced matrix splits into blocks only in part,
the kept vectors fail the check below, or numpy's build lacks the routines.

One check covers the vectors of every source, kernel or fallback: each
kept u must satisfy ||X^T(X u) - lambda u|| <= RESIDUAL_TOL * s_1^2, with
the residual computed from X and not from G, and together they must be
orthonormal to ORTHO_TOL; a NaN fails. A kernel's vectors that fail it go
to the fallback, and a fallback's vectors that fail it raise SpectralError.

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

A caller that already holds X^T X passes it as full_svd's gram, which then
stands in for forming G and for the column-norm pass; a column minor X_J
takes G[J, J], which is exactly X_J^T X_J.

Whichever route ran, this module also owns a deterministic sign
convention, near-degeneracy flags, and the operator norm.

Conventions. Singular values are reported in descending order
s_1 >= ... >= s_n for an N x n matrix with N >= n >= 2. "Bottom vector k"
means the right singular vector for the k-th smallest value, so k = 1 is
the minimizer of ||X u|| over unit vectors and s_min = s_n.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import _lapack
from .matrixio import _check_matrix

__all__ = [
    "SpectralError",
    "SpectralResult",
    "full_svd",
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
    the factors: "gram" (the eigenvalues of X^T X and its kept eigenvectors,
    or its eigh) or "gesdd" (the SVD of X's R factor: its bidiagonal
    reduction, or gesdd itself).
    gram is X^T X on the gram route and None on the gesdd route; a caller
    passes its principal submatrices on as a column minor's gram. It is left
    out of repr and equality.
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


def _gram_resolves(hi, lo) -> bool:
    """Whether eigenvalues of X^T X spanning [lo, hi] resolve sqrt(lo); NaN never does."""
    return lo > 0 and _EPS * hi <= GRAM_COND_LIMIT * lo


def _verified(x: np.ndarray, rows: np.ndarray, lam: np.ndarray, top2: float):
    """(rows, residuals), residuals[j] = ||X^T(X u) - lam[j] u|| for u = rows[j], from X, not G.

    Raises SpectralError, with the worst residual attached, where one exceeds
    RESIDUAL_TOL * top2 or the rows are not orthonormal to ORTHO_TOL; a NaN fails.
    """
    residuals = np.linalg.norm(x.T @ (x @ rows.T) - rows.T * lam, axis=0)
    worst = float(residuals.max())
    if not worst <= RESIDUAL_TOL * top2:
        raise SpectralError(
            f"residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * s1^2 = {RESIDUAL_TOL * top2:.3e}",
            worst_residual=worst,
        )
    ortho_err = float(np.abs(rows @ rows.T - np.eye(lam.size)).max())
    if not ortho_err <= ORTHO_TOL:
        raise SpectralError(f"stored vectors deviate from orthonormality by {ortho_err:.3e}", worst)
    return rows, residuals


def _kept(x: np.ndarray, vector: Callable[[int], np.ndarray | None], picks: np.ndarray,
          lam: np.ndarray, top2: float):
    """(rows, residuals) with rows[j] = vector(picks[j]), the eigenvector of X^T X for lam[j],
    Gram-Schmidt'd against the earlier rows only, so the first does not depend on the rest.

    None where vector returns None or the rows fail _verified, so the caller falls back.
    """
    rows = np.empty((picks.size, x.shape[1]))
    for j, p in enumerate(picks):
        y = vector(p)
        if y is None:
            return None
        y = y - rows[:j].T @ (rows[:j] @ y)
        norm = np.linalg.norm(y)
        if not norm > 0.0:  # an exact tie repeats an earlier vector
            return None
        rows[j] = y / norm
    try:
        return _verified(x, rows, lam, top2)
    except SpectralError:
        return None


def _gram_factors(x: np.ndarray, g: np.ndarray, picks: np.ndarray):
    """(w, rows, residuals) from g = X^T X: w ascending, rows[j] the vector for w[picks[j]].
    None when the eigenvalues fail the GRAM_COND_LIMIT rule or eigh does not converge."""
    reduced = _lapack.tridiagonal(g)
    if reduced is not None:
        w, vector = reduced
        if not _gram_resolves(w[-1], w[0]):
            return None
        kept = _kept(x, vector, picks, w[picks], w[-1])
        if kept is not None:
            return (w, *kept)
    # The kernel is missing or failed, or a vector failed a check: eigh (syevd) of g instead.
    try:
        w, v = np.linalg.eigh(g)
    except np.linalg.LinAlgError:
        return None
    if not _gram_resolves(w[-1], w[0]):
        return None
    return (w, *_verified(x, v[:, picks].T, w[picks], w[-1]))


def _r_factors(x: np.ndarray, picks: np.ndarray):
    """(s, rows, residuals) from X's R factor: s descending, rows[j] the right vector for
    the picks[j]-th smallest value."""
    # X = QR, so X and R share s and V (Chan's R-SVD); X's N x n left factor is never built.
    last = x.shape[1] - 1
    reduced = _lapack.bidiagonal(x)
    if reduced is not None:
        s, vector = reduced
        kept = _kept(x, vector, picks, s[last - picks] ** 2, s[0] ** 2)
        if kept is not None:
            return (s, *kept)
        del reduced, vector  # release the kernel's copy of X before the fallback's QR
    # The kernel is missing or failed, or a vector failed a check: gesdd of R instead.
    _, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r"))
    return (s, *_verified(x, vt[last - picks], s[last - picks] ** 2, s[0] ** 2))


def _right_factors(x: np.ndarray, picks: np.ndarray, g: np.ndarray | None):
    """Descending singular values, the right vectors at ascending positions picks as rows,
    their residuals, the route and G on the gram route; g is the caller's X^T X or None."""
    d = np.einsum("ij,ij->j", x, x) if g is None else np.diagonal(g)  # diag(X^T X)
    if _gram_resolves(d.max(), d.min()):
        if g is None:
            g = x.T @ x
        found = _gram_factors(x, g, picks)
        if found is not None:
            w, rows, residuals = found
            return np.sqrt(w[::-1]), rows, residuals, "gram", g
        del g  # release G before the R route's copy of X
    return (*_r_factors(x, picks), "gesdd", None)


def full_svd(x: np.ndarray, k_bottom: int = 1, gram: np.ndarray | None = None) -> SpectralResult:
    """All singular values of X, keeping the bottom k right vectors and the top one.

    Where the module's GRAM_COND_LIMIT rule says X^T X resolves s_min, the
    values come from the tridiagonal reduction of X^T X (4n^3/3 flops),
    otherwise from the bidiagonal reduction of X's R factor (QR, then
    8n^3/3 flops); each stored vector then costs about 2n^2 flops, and
    SpectralResult.method records the route. The stored vectors must satisfy
    ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2 and be orthonormal to
    ORTHO_TOL. eigh of X^T X or gesdd of R stands in where a kernel fails or
    its vectors fail that check; SpectralError (with the worst residual
    attached) is raised where the fallback's vectors fail it too, or the
    backend fails to converge.

    gram, when given, is X^T X as the caller already holds it (G[J, J] for
    a column minor X_J); it replaces forming X^T X and its diagonal, while
    every check still runs against X.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    if gram is not None and np.shape(gram) != (n, n):
        raise ValueError(f"gram must have shape {(n, n)}, got {np.shape(gram)}")
    # Ascending positions of the stored vectors: bottom 1..k, then the top,
    # which is bottom vector n itself when k = n.
    picks = np.arange(k_bottom) if k_bottom == n else np.append(np.arange(k_bottom), n - 1)
    try:
        s, rows, residuals, method, gram = _right_factors(x, picks, gram)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD backend failed to converge: {exc}") from exc

    # Each row's largest-magnitude component made positive; argmax takes the lowest index on ties.
    lead = np.take_along_axis(rows, np.abs(rows).argmax(axis=1)[:, None], axis=1)
    stored = np.where(lead < 0, -rows, rows)
    # Each bottom value's distance to its nearer spectral neighbour.
    pos = n - np.arange(1, k_bottom + 1)  # descending-order positions of the k smallest
    gaps = np.concatenate([[math.inf], np.abs(np.diff(s)), [math.inf]])
    flags = (np.minimum(gaps[pos], gaps[pos + 1]) < DEGENERATE_GAP_TOL * s[0]).tolist()

    keep = np.append(np.arange(k_bottom), picks.size - 1)  # the top repeats bottom n when k = n
    return SpectralResult(
        singular_values=s,
        bottom_right_vectors=stored[:k_bottom],
        top_right_vector=stored[-1],
        residuals=residuals[keep],
        tolerance_used=RESIDUAL_TOL,
        method=method,
        degenerate_flags=flags,
        gram=gram,
    )


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
