"""Mass statistics of unit vectors: threshold supports, minimal subset mass,
inverse participation ratios.

All operations take a unit vector u (checked to 1e-10) of length n >= 2.
Index sets are returned sorted ascending, and magnitude ties are always
broken toward the lower index so results are reproducible.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .spectra import SpectralResult

__all__ = [
    "LocalizationReport",
    "threshold_set",
    "subset_mass",
    "cardinality_bound",
    "min_mass_profile",
    "top_mass",
    "ipr",
    "localization_report",
    "localization_reports",
    "localization_entries",
]

# The default threshold constants and min-mass profile points of a sweep
# (SweepConfig) and of `svlab localize`.
C_GRID = (0.25, 0.5, 1.0, 2.0, 4.0)
EPSILONS = (0.05, 0.1, 0.2, 0.3)

UNIT_TOL = 1e-10

# ceil((1-eps)*n) in doubles can land one above the mathematical value
# (0.9*400 = 360.00000000000006); the guard absorbs representation error.
_CEIL_GUARD = 1e-9


def _check_unit(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=np.float64).ravel()
    if u.size < 2:
        raise ValueError(f"need a vector of length >= 2, got {u.size}")
    if not np.all(np.isfinite(u)):
        raise ValueError("vector entries must all be finite")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > UNIT_TOL:
        raise ValueError(f"vector must be unit norm, got ||u|| = {norm!r}")
    return u


def threshold_set(u: np.ndarray, c: float) -> np.ndarray:
    """Indices i with |u_i| strictly above sqrt(c * ln(n) / n).

    Natural logarithm; n >= 3 so the threshold is positive and finite.
    """
    u = _check_unit(u)
    n = u.size
    if n < 3:
        raise ValueError("threshold_set needs n >= 3 (ln 2 threshold degenerates)")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be finite and > 0, got {c}")
    thr = math.sqrt(c * math.log(n) / n)
    return np.flatnonzero(np.abs(u) > thr)


def subset_mass(u: np.ndarray, indices: np.ndarray) -> float:
    """||u_I||_2 over the given index set (sorted ascending, unique).

    The sum of squares is accumulated in ascending index order with
    numpy's pairwise reduction, so any two callers selecting the same set
    get bitwise-identical output.
    """
    u = np.asarray(u, dtype=np.float64).ravel()
    idx = np.asarray(indices, dtype=np.intp).ravel()
    if idx.size == 0:
        return 0.0
    if np.any(idx < 0) or np.any(idx >= u.size):
        raise ValueError("indices out of range")
    if np.any(np.diff(idx) <= 0):
        raise ValueError("indices must be strictly increasing")
    sel = u[idx]
    return math.sqrt(float(np.add.reduce(sel * sel)))


def cardinality_bound(c: float, n: int) -> float:
    """Counting bound n / (c * ln n) for the threshold set size."""
    if not isinstance(n, int) or n < 3:
        raise ValueError(f"n must be an integer >= 3, got {n!r}")
    if not (c > 0.0 and math.isfinite(c)):
        raise ValueError(f"c must be finite and > 0, got {c}")
    return n / (c * math.log(n))


def _keep_count(eps: float, n: int) -> int:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"epsilon must be in (0,1), got {eps}")
    m = math.ceil((1.0 - eps) * n - _CEIL_GUARD)
    if m < 1:
        raise ValueError(f"epsilon {eps} keeps no coordinates at n={n}")
    return m


def min_mass_profile(u: np.ndarray, epsilons: list[float]) -> list[tuple[float, float]]:
    """Exact minimum of ||u_I||_2 over subsets of size ceil((1-eps)*n).

    The minimizer keeps the ceil((1-eps)*n) smallest-magnitude coordinates
    (ties toward lower index), so no subset enumeration is needed. Returns
    (eps, mass) pairs in the input epsilon order.
    """
    u = _check_unit(u)
    n = u.size
    order = np.lexsort((np.arange(n), np.abs(u)))  # by |u_i|, ties by index
    out: list[tuple[float, float]] = []
    for eps in epsilons:
        m = _keep_count(float(eps), n)
        kept = np.sort(order[:m])
        out.append((float(eps), subset_mass(u, kept)))
    return out


def top_mass(u: np.ndarray, m: int) -> float:
    """Squared mass on the m largest-magnitude coordinates (ties by index)."""
    u = _check_unit(u)
    n = u.size
    if not isinstance(m, int) or not (1 <= m <= n):
        raise ValueError(f"m must be an integer in [1, {n}], got {m!r}")
    order = np.lexsort((np.arange(n), np.abs(u)))
    kept = np.sort(order[n - m :])
    mass = subset_mass(u, kept)
    return mass * mass


def ipr(u: np.ndarray) -> float:
    """Inverse participation ratio sum_i u_i^4.

    1/n for perfectly flat vectors, 1 for a single spike.
    """
    u = _check_unit(u)
    return float(np.add.reduce(u**4))


@dataclass
class LocalizationReport:
    """Mass statistics of one unit vector at one threshold constant.

    threshold_mass is the squared mass on the threshold set. The
    min_mass_profile entries are (eps, mass) with mass NOT squared, to
    match min_mass_profile().
    """

    n: int
    c_threshold: float
    threshold_indices: list[int]
    threshold_mass: float
    cardinality_bound: float
    min_mass_profile: list[tuple[float, float]]
    ipr: float
    degenerate: bool


def localization_reports(
    u: np.ndarray,
    c_grid: list[float],
    epsilons: list[float],
    degenerate: bool = False,
) -> list[LocalizationReport]:
    """The LocalizationReport of u at each threshold constant c in c_grid, in order.

    The statistics that do not depend on c, min_mass_profile and ipr, are
    computed once and shared by value; each report's own list holds them.
    """
    u = _check_unit(u)
    n = u.size
    sets = [threshold_set(u, c) for c in c_grid]
    profile, spread = min_mass_profile(u, epsilons), ipr(u)
    reports = []
    for c, idx in zip(c_grid, sets):
        mass = subset_mass(u, idx)
        reports.append(LocalizationReport(
            n=n,
            c_threshold=float(c),
            threshold_indices=idx.tolist(),
            threshold_mass=mass * mass,
            cardinality_bound=cardinality_bound(float(c), n),
            min_mass_profile=list(profile),
            ipr=spread,
            degenerate=bool(degenerate),
        ))
    return reports


def localization_report(
    u: np.ndarray,
    c: float,
    epsilons: list[float],
    degenerate: bool = False,
) -> LocalizationReport:
    """The LocalizationReport of u at the one threshold constant c."""
    return localization_reports(u, [c], epsilons, degenerate)[0]


def localization_entries(res: SpectralResult, c_grid: list[float], epsilons: list[float]) -> list[dict]:
    """{"k": k, "c": c, **report} for each kept bottom vector k of res and each c in c_grid, in
    that order: a trial record's localization, and the lines svlab localize prints."""
    return [
        {"k": k, "c": c, **vars(rep)}  # a report's fields in field order, its lists shared
        for k, (u, flag) in enumerate(zip(res.bottom_right_vectors, res.degenerate_flags), 1)
        for c, rep in zip(c_grid, localization_reports(u, c_grid, epsilons, flag))
    ]
