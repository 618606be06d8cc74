"""Singular values and right singular vectors with verified residuals.

Two LAPACK routes produce the factors, and the matrix itself picks one:

* ``gram``: G = X^T X is formed once and diagonalized by numpy's ``eigh``
  (syevd). s_i = sqrt(lambda_i) in descending order, and V is G's
  eigenvector matrix. The N x n left factor is never built.
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
fails proves the eigenvalues fail without an eigensolve; then to the
eigenvalues themselves.

On the gram route SpectralResult.gram keeps G, and minor_extremes reads a
column minor's extremes from it: X_J^T X_J is exactly G[J, J], so gathering
that principal submatrix replaces forming the minor's own Gram matrix. The
same rule decides whether eigvalsh of G[J, J] resolves the minor's s_min.

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
    the factors: "gram" (eigh of X^T X) or "gesdd" (LAPACK SVD of X's R factor).
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


def _right_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, str, np.ndarray | None]:
    """Descending singular values, V^T, the route that produced them and G on the gram route."""
    g = x.T @ x
    d = np.diagonal(g)
    if _gram_resolves(d.max(), d.min()):
        w, v = np.linalg.eigh(g)
        if _gram_resolves(w[-1], w[0]):
            return np.sqrt(w[::-1]), v.T[::-1], "gram", g
        del w, v
    # Release G before the QR copy of X. X = QR, so X and R share s and V;
    # gesdd of the n x n R never builds X's N x n left factor (Chan's R-SVD).
    del g, d
    _, s, vt = np.linalg.svd(np.linalg.qr(x, mode="r"))
    return s, vt, "gesdd", None


def full_svd(x: np.ndarray, k_bottom: int = 1) -> SpectralResult:
    """All singular values of X, keeping the bottom k right vectors and the top one.

    The values and vectors come from eigh of X^T X when the module's
    GRAM_COND_LIMIT rule says X^T X resolves s_min, and from gesdd of X's
    R factor otherwise; SpectralResult.method records which. Every check
    below runs on either route. Raises SpectralError (with the worst residual
    attached) if any stored vector violates
    ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2, if the stored vectors are
    not orthonormal to ORTHO_TOL, or if the backend fails to converge.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    try:
        s, vt, method, gram = _right_factors(x)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD backend failed to converge: {exc}") from exc

    s1 = float(s[0])
    pos = n - np.arange(1, k_bottom + 1)  # descending-order positions of the k smallest
    bottom = np.array([_fix_sign(vt[i]) for i in pos])
    top = _fix_sign(vt[0])

    stacked = np.vstack([bottom, top[None, :]])
    svals = np.concatenate([s[pos], s[:1]])
    # Recomputed from X, not from G, so the gram route is checked against X itself.
    residuals = np.linalg.norm(x.T @ (x @ stacked.T) - stacked.T * svals**2, axis=0)
    worst = float(residuals.max())
    if not worst <= RESIDUAL_TOL * s1 * s1:  # written so that a NaN residual fails
        raise SpectralError(
            f"residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * s1^2 = {RESIDUAL_TOL * s1 * s1:.3e}",
            worst_residual=worst,
        )

    # When k_bottom = n the top vector duplicates bottom vector n, so the
    # orthonormality contract applies to the distinct vectors only.
    block = stacked if k_bottom < n else bottom
    ortho = block @ block.T
    ortho_err = float(np.abs(ortho - np.eye(ortho.shape[0])).max())
    if not ortho_err <= ORTHO_TOL:
        raise SpectralError(
            f"stored vectors deviate from orthonormality by {ortho_err:.3e}",
            worst_residual=worst,
        )

    # Each bottom value's distance to its nearer spectral neighbour.
    gaps = np.concatenate([[math.inf], np.abs(np.diff(s)), [math.inf]])
    flags = (np.minimum(gaps[pos], gaps[pos + 1]) < DEGENERATE_GAP_TOL * s1).tolist()

    return SpectralResult(
        singular_values=s.copy(),
        bottom_right_vectors=bottom,
        top_right_vector=top,
        residuals=residuals,
        tolerance_used=RESIDUAL_TOL,
        method=method,
        degenerate_flags=flags,
        gram=gram,
    )


def minor_extremes(x: np.ndarray, cols: np.ndarray, gram: np.ndarray) -> tuple[float, float] | None:
    """(s_min, s_top) of X[:, cols] from G[cols, cols], or None where they are not verified.

    gram is X^T X as full_svd kept it and cols holds at least two sorted,
    unique column indices. The eigenvalues of G[cols, cols] come from eigvalsh
    under the GRAM_COND_LIMIT rule. One shifted solve per extreme eigenvalue
    (a step of inverse iteration from a fixed start vector) gives a unit
    vector for it, and the pair must pass full_svd's checks: the residual
    ||X_J^T(X_J u) - lambda u|| <= RESIDUAL_TOL * s_top^2, computed from X
    and not from G, and orthonormality to ORTHO_TOL. None when the rule, a
    solve or a check fails; the caller then decomposes X[:, cols] itself.
    """
    g = gram[np.ix_(cols, cols)]
    d = np.diagonal(g).copy()
    if not _gram_resolves(d.max(), d.min()):
        return None
    try:
        w = np.linalg.eigvalsh(g)
        lam = np.array([w[0], w[-1]])
        if not _gram_resolves(lam[1], lam[0]):
            return None
        start = np.linspace(1.0, 2.0, cols.size)
        u = np.empty((cols.size, 2))
        for j, shift in enumerate(lam):
            np.fill_diagonal(g, d - shift)
            u[:, j] = np.linalg.solve(g, start)
    except np.linalg.LinAlgError:  # includes an exactly singular shifted matrix
        return None
    u /= np.linalg.norm(u, axis=0)
    # X u_full = X_J u when u_full is u on cols and zero elsewhere, so X_J is never copied.
    u_full = np.zeros((x.shape[1], 2))
    u_full[cols] = u
    residual = float(np.linalg.norm((x.T @ (x @ u_full))[cols] - u * lam, axis=0).max())
    ortho_err = float(np.abs(u.T @ u - np.eye(2)).max())
    if not (residual <= RESIDUAL_TOL * lam[1] and ortho_err <= ORTHO_TOL):  # a NaN fails too
        return None
    return float(np.sqrt(lam[0])), float(np.sqrt(lam[1]))


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
