"""Singular value and singular vector computations with verified residuals.

The factorization itself is delegated to LAPACK; this module owns the
contracts around it: residual verification against the normal equations,
a deterministic sign convention, near-degeneracy flags, and minors.

Conventions. Singular values are reported in descending order
s_1 >= ... >= s_n for an N x n matrix with N >= n >= 2. "Bottom vector k"
means the right singular vector for the k-th smallest value, so k = 1 is
the minimizer of ||X u|| over unit vectors and s_min = s_n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpectralError",
    "SpectralResult",
    "MinorSpec",
    "full_svd",
    "smallest_singular_value",
    "kth_smallest",
    "take_minor",
    "operator_norm",
    "column_minor",
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


@dataclass(frozen=True)
class MinorSpec:
    """Kept index sets for a submatrix; both must be sorted, unique, nonempty."""

    kept_rows: tuple[int, ...]
    kept_cols: tuple[int, ...]

    def __post_init__(self) -> None:
        for name, idx in (("kept_rows", self.kept_rows), ("kept_cols", self.kept_cols)):
            if len(idx) == 0:
                raise ValueError(f"{name} must be nonempty")
            if any(not isinstance(i, int) or i < 0 for i in idx):
                raise ValueError(f"{name} must contain nonnegative integers")
            if any(b <= a for a, b in zip(idx, idx[1:])):
                raise ValueError(f"{name} must be strictly increasing")


def _validate_tall(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {x.shape}")
    rows, cols = x.shape
    if cols < 2 or rows < cols:
        raise ValueError(f"need rows >= cols >= 2, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix entries must all be finite")
    return x


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Largest-magnitude component made positive; ties resolved by argmax's
    # lowest-index rule.
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0:
        return -v
    return v


def full_svd(x: np.ndarray, k_bottom: int = 1, tolerance: float = RESIDUAL_TOL) -> SpectralResult:
    """Full singular value decomposition, keeping the bottom k right vectors.

    Raises SpectralError (with the worst residual attached) if any stored
    vector violates ||X^T(X u) - s^2 u|| <= tolerance * s_1^2, or if the
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
    if worst > tolerance * s1 * s1:
        raise SpectralError(
            f"residual {worst:.3e} exceeds {tolerance:.1e} * s1^2 = {tolerance * s1 * s1:.3e}",
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
        tolerance_used=tolerance,
        degenerate_flags=flags,
    )


def smallest_singular_value(x: np.ndarray) -> float:
    """s_min(X) = min over unit u of ||X u||_2."""
    return full_svd(x, k_bottom=1).s_min


def kth_smallest(x: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """(k-th smallest singular value, its right singular vector).

    k = 1 reproduces smallest_singular_value exactly (same code path).
    """
    res = full_svd(x, k_bottom=k)
    return float(res.singular_values[res.singular_values.shape[0] - k]), res.bottom_right_vectors[k - 1]


def take_minor(x: np.ndarray, spec: MinorSpec) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("expected a 2-D array")
    rows, cols = x.shape
    if spec.kept_rows[-1] >= rows or spec.kept_cols[-1] >= cols:
        raise ValueError(
            f"minor indices out of range for shape {x.shape}: "
            f"rows up to {spec.kept_rows[-1]}, cols up to {spec.kept_cols[-1]}"
        )
    return x[np.ix_(spec.kept_rows, spec.kept_cols)]


def operator_norm(
    x: np.ndarray,
    tolerance: float = 1e-10,
    max_iterations: int = 50000,
) -> float:
    """Largest singular value by power iteration on the Gram matrix.

    Deterministic. Starts from the all-ones vector; since an unlucky start
    can sit in an invariant subspace below the top (or in the kernel), a
    converged value smaller than the max column norm triggers a restart
    from the basis vector of the largest column. The Rayleigh quotient is
    monotone under power iteration and that restart begins at the max
    column norm squared, so it cannot land below the certified lower
    bound. If the iteration cap is hit without a certified value, the
    bracket [max column norm, sqrt(cols) * max column norm] is used and
    its midpoint returned.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError(f"expected a nonempty 2-D array, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("matrix entries must all be finite")
    rows, cols = x.shape
    # Iterate on the smaller side; the nonzero spectrum of X^T X and X X^T agree.
    a = x if cols <= rows else x.T
    dim = a.shape[1]

    col_sq = np.einsum("ij,ij->j", a, a)
    max_col_sq = float(col_sq.max())
    if max_col_sq == 0.0:
        return 0.0

    def gram(v: np.ndarray) -> np.ndarray:
        return a.T @ (a @ v)

    def iterate(v0: np.ndarray) -> tuple[float, bool]:
        """Returns (best Rayleigh quotient, certified?)."""
        w = gram(v0)
        lam = 0.0
        if float(np.linalg.norm(w)) == 0.0:
            return 0.0, False  # start in the kernel
        for _ in range(max_iterations):
            v = w / float(np.linalg.norm(w))
            w = gram(v)
            lam = float(v @ w)
            resid = float(np.linalg.norm(w - lam * v))
            if resid <= tolerance * lam:
                return lam, True
        return lam, False

    e_top = np.zeros(dim)
    e_top[int(np.argmax(col_sq))] = 1.0
    starts = [np.full(dim, 1.0 / math.sqrt(dim)), e_top]

    best = 0.0
    for v0 in starts:
        lam, certified = iterate(v0)
        best = max(best, lam)
        if certified and best >= max_col_sq * (1.0 - 1e-9):
            return math.sqrt(best)
        if not certified and lam > 0.0:
            break  # cap hit, do not burn another full iteration budget
    lo = max(math.sqrt(max_col_sq), math.sqrt(best))
    hi = math.sqrt(dim * max_col_sq)
    return 0.5 * (lo + hi)


def column_minor(x: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Submatrix keeping the given columns (sorted unique indices)."""
    cols = np.asarray(cols, dtype=np.intp)
    if cols.size == 0:
        raise ValueError("cols must be nonempty")
    if np.any(cols < 0) or np.any(cols >= x.shape[1]):
        raise ValueError("column indices out of range")
    if np.any(np.diff(cols) <= 0):
        raise ValueError("column indices must be strictly increasing")
    return x[:, cols]
