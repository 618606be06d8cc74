"""Singular values and right singular vectors with verified residuals.

Two LAPACK routes produce the factors, and the matrix itself picks one:

* ``gram``: G = X^T X is formed once and diagonalized by numpy's ``eigh``
  (syevd). s_i = sqrt(lambda_i) in descending order, and V is G's
  eigenvector matrix. The N x n left factor is never built.
* ``gesdd``: ``np.linalg.svd(X, full_matrices=False)``, for every matrix
  whose G cannot resolve s_min.

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
    the factors: "gram" (eigh of X^T X) or "gesdd" (LAPACK SVD of X).
    """

    singular_values: np.ndarray
    bottom_right_vectors: np.ndarray
    top_right_vector: np.ndarray
    residuals: np.ndarray
    tolerance_used: float
    method: str
    degenerate_flags: list[bool] = field(default_factory=list)

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


def _right_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, str]:
    """Descending singular values, V^T and the route that produced them."""
    g = x.T @ x
    d = np.diagonal(g)
    if _gram_resolves(d.max(), d.min()):
        w, v = np.linalg.eigh(g)
        if _gram_resolves(w[-1], w[0]):
            return np.sqrt(w[::-1]), v.T[::-1], "gram"
        del w, v
    # Release G before gesdd allocates its own workspace and the N x n U.
    del g, d
    _, s, vt = np.linalg.svd(x, full_matrices=False)
    return s, vt, "gesdd"


def full_svd(x: np.ndarray, k_bottom: int = 1) -> SpectralResult:
    """All singular values of X, keeping the bottom k right vectors and the top one.

    The values and vectors come from eigh of X^T X when the module's
    GRAM_COND_LIMIT rule says X^T X resolves s_min, and from gesdd on X
    otherwise; SpectralResult.method records which. Every check below runs
    on either route. Raises SpectralError (with the worst residual
    attached) if any stored vector violates
    ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2, if the stored vectors are
    not orthonormal to ORTHO_TOL, or if the backend fails to converge.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    try:
        s, vt, method = _right_factors(x)
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
    )


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
