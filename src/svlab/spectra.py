"""Singular value and singular vector computations with verified residuals.

The factorization itself is delegated to LAPACK; this module owns the
contracts around it: residual verification against the normal equations,
a deterministic sign convention, near-degeneracy flags, and the operator
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
    is not numerically well defined.
    """

    singular_values: np.ndarray
    bottom_right_vectors: np.ndarray
    top_right_vector: np.ndarray
    residuals: np.ndarray
    tolerance_used: float
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


def full_svd(x: np.ndarray, k_bottom: int = 1) -> SpectralResult:
    """Full singular value decomposition, keeping the bottom k right vectors.

    Raises SpectralError (with the worst residual attached) if any stored
    vector violates ||X^T(X u) - s^2 u|| <= RESIDUAL_TOL * s_1^2, or if the
    backend fails to converge.
    """
    x = _validate_tall(x)
    n = x.shape[1]
    if not (1 <= k_bottom <= n):
        raise ValueError(f"k_bottom must be in [1, {n}], got {k_bottom}")
    try:
        _, s, vt = np.linalg.svd(x, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SpectralError(f"SVD backend failed to converge: {exc}") from exc

    s1 = float(s[0])
    pos = n - np.arange(1, k_bottom + 1)  # descending-order positions of the k smallest
    bottom = np.array([_fix_sign(vt[i]) for i in pos])
    top = _fix_sign(vt[0])

    stacked = np.vstack([bottom, top[None, :]])
    svals = np.concatenate([s[pos], s[:1]])
    # X^T(X V) costs 4Nn(k+1) flops; forming the Gram X^T X would cost 2Nn^2.
    residuals = np.linalg.norm(x.T @ (x @ stacked.T) - stacked.T * svals**2, axis=0)
    worst = float(residuals.max())
    if worst > RESIDUAL_TOL * s1 * s1:
        raise SpectralError(
            f"residual {worst:.3e} exceeds {RESIDUAL_TOL:.1e} * s1^2 = {RESIDUAL_TOL * s1 * s1:.3e}",
            worst_residual=worst,
        )

    # When k_bottom = n the top vector duplicates bottom vector n, so the
    # orthonormality contract applies to the distinct vectors only.
    block = stacked if k_bottom < n else bottom
    ortho = block @ block.T
    ortho_err = float(np.abs(ortho - np.eye(ortho.shape[0])).max())
    if ortho_err > ORTHO_TOL:
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
        degenerate_flags=flags,
    )


def operator_norm(x: np.ndarray) -> float:
    """Largest singular value ||X||_2 of any nonempty finite matrix."""
    x = _check_matrix(x)
    return float(np.linalg.svd(x, compute_uv=False)[0])
