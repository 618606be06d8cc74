"""Constructive upper bounds for the smallest singular value.

The main tool: columns whose entries all stay below a cutoff tau form a
submatrix X_J, and by interlacing

    s_min(X) <= s_min(X_J) <= ||X_J||,

so either quantity of the minor is a certified upper bound computable
without touching the full spectrum. One values-only decomposition of X_J
gives both, through the routes full_svd takes; where the caller's spectrum
of X holds X's Gram matrix G, it reduces G[J, J], which equals X_J^T X_J,
in place, and X_J itself is copied only where the route reads it.

The default cutoff comes from balancing the expected number of large
entries per column against a log-size budget, which needs the law's
certified tail envelope; certificate_cutoff falls back to the census
cutoff where that envelope or the budget is missing.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .matrixio import _NOT_FINITE, _as_matrix
from .spectra import SpectralResult, _minor_extremes
from .spectra import full_svd, operator_norm  # noqa: F401 (perfbench wraps them here)

__all__ = [
    "CertificateReport",
    "census_cutoff",
    "certificate_cutoff",
    "default_tau_for_rows",
    "small_column_set",
    "upper_certificate",
    "heavy_census",
]

CERT_SLACK = 1e-9
TAU_PARAMS = (0.5, 1.0001)  # default (b_frak, a_frak) of the auto cutoff
CENSUS_C = 0.1  # default c of the census cutoff N**(1/2 - c)
C_UPPER = 1.0  # default tail constant c_upper of the auto cutoff


@dataclass
class CertificateReport:
    """Outcome of the small-column certificate at cutoff tau.

    minor_op_norm and minor_smin are X_J's extremes: the column length when
    |J| = 1, X's own s_top and s_min when J is every column, and otherwise
    the values full_svd's routes give, with no vector kept, on G[J, J] where
    X's G is known and on X_J^T X_J where not. certified_upper is minor_smin.
    observed_smin is X's s_min as the caller decomposed it. valid means the
    bound is sound against it up to CERT_SLACK * s_top; with no qualifying
    columns the bound is vacuous (+inf), valid False.
    """

    tau: float
    columns: list[int]
    column_count: int
    minor_op_norm: float
    minor_smin: float
    certified_upper: float
    observed_smin: float
    valid: bool
    note: str = ""

    def with_note(self, note: str) -> CertificateReport:
        """This report with note appended to its own, the two joined by "; "."""
        return dataclasses.replace(self, note="; ".join(filter(None, (self.note, note))))


def default_tau_for_rows(
    n_rows: int,
    alpha: float,
    b_frak: float = TAU_PARAMS[0],
    a_frak: float = TAU_PARAMS[1],
    c_upper: float = C_UPPER,
) -> float:
    """Cutoff tau = (N * a_frak * c_upper / (b_frak * ln N))**(1/alpha).

    Solves N^(alpha*eps) = b_frak * ln(N) / (a_frak * c_upper) for the
    exponent eps and returns tau = N^(1/alpha - eps), with N = n_rows.
    Requires alpha in (0, 2) and a log budget above 1, otherwise the
    exponent is not positive and the construction is meaningless.
    """
    if not (0.0 < alpha < 2.0):
        raise ValueError(f"the auto cutoff requires alpha in (0,2), got {alpha}")
    if not isinstance(n_rows, int) or n_rows < 3:
        raise ValueError(f"n_rows must be an integer >= 3, got {n_rows!r}")
    if b_frak <= 0 or a_frak <= 0 or c_upper <= 0:
        raise ValueError("b_frak, a_frak, c_upper must all be > 0")
    budget = b_frak * math.log(n_rows) / (a_frak * c_upper)
    if budget <= 1.0:
        raise ValueError(
            f"log budget b_frak*ln(N)/(a_frak*c_upper) = {budget:.4g} <= 1 at N={n_rows}; "
            "increase n or b_frak"
        )
    return (n_rows * a_frak * c_upper / (b_frak * math.log(n_rows))) ** (1.0 / alpha)


def census_cutoff(n_rows: int, c: float) -> float:
    """The census threshold N**(1/2 - c), N = n_rows."""
    return float(n_rows) ** (0.5 - c)


def certificate_cutoff(
    n_rows: int,
    alpha: float,
    c_upper: float | None,
    tau_params: tuple[float, float] = TAU_PARAMS,
    census_c: float = CENSUS_C,
) -> tuple[float, str]:
    """The cutoff tau for a matrix with n_rows rows and tail index alpha, and a note on it.

    c_upper is the law's tail constant, None for a law without a polynomial
    tail. The auto cutoff default_tau_for_rows(n_rows, alpha, *tau_params,
    c_upper) applies where alpha < 2 and c_upper is given, with an empty note;
    everywhere else, including where its log budget fails, the census cutoff
    N**(1/2 - census_c) applies and the note says why. The census threshold
    is a bounded-column diagnostic, not a theorem constant.
    """
    if not (alpha > 0.0 and min(tau_params) > 0.0 and (c_upper is None or c_upper > 0.0)):
        raise ValueError(
            f"alpha, b_frak, a_frak and c_upper must be > 0, got {alpha}, {tau_params}, {c_upper}"
        )
    if alpha >= 2.0 or c_upper is None:
        return census_cutoff(n_rows, census_c), "finite-variance regime: census cutoff"
    try:
        return default_tau_for_rows(n_rows, alpha, *tau_params, c_upper), ""
    except ValueError as exc:
        return census_cutoff(n_rows, census_c), f"auto cutoff infeasible ({exc}); census cutoff used"


def small_column_set(x: np.ndarray, tau: float) -> np.ndarray:
    """Indices of columns whose max |entry| is <= tau, sorted ascending; ValueError where X is
    not finite."""
    x = _as_matrix(x)
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    # max |x_ij| per column without an N x n np.abs temporary; a NaN or an inf reaches it
    col_max = np.maximum(x.max(axis=0), -x.min(axis=0))
    if not np.isfinite(col_max).all():
        raise ValueError(_NOT_FINITE)
    return np.flatnonzero(col_max <= tau)


def upper_certificate(x: np.ndarray, tau: float, spectrum: SpectralResult) -> CertificateReport:
    """Certified upper bound on s_min(X) from the small-column minor.

    spectrum must be full_svd's own result for this X; X itself is never
    decomposed here. ValueError where its shapes do not fit X: vectors of
    length n, and an n x n gram where one is set. full_svd returns its gram read-only, so
    an edit in place raises, but a hand-built spectrum (such as
    dataclasses.replace(res, gram=bad)) reaches the minor unchecked: its
    content is not checked against X (diag(G[J, J]) against X_J's column
    norms would cost a pass over X).
    Both extremes of X_J come from one place: the column length when |J| =
    1, spectrum's s_min and s_top when J holds every column, since X_J is
    then X, and otherwise one values-only decomposition of X_J through
    full_svd's routes. That takes G[J, J] exactly when X took the gram route
    (spectrum.gram is set), and picks its own route from it. X is checked for
    finite entries once, by small_column_set.
    Soundness checked: certified_upper >= s_min - CERT_SLACK * s_top.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = small_column_set(x, tau)
    n, gram = x.shape[1], spectrum.gram
    if spectrum.top_right_vector.size != n or (gram is not None and np.shape(gram) != (n, n)):
        raise ValueError(f"spectrum has vectors of length {spectrum.top_right_vector.size} and a gram of "
                         f"shape {np.shape(gram)}, not full_svd's of an X with {n} columns")
    if cols.size == 0:
        norm_xj = smin_xj = math.inf
    elif cols.size == 1:  # single column: both extremes equal its length
        norm_xj = smin_xj = float(np.linalg.norm(x[:, cols]))
    elif cols.size == n:  # X_J is X, already decomposed by the caller
        norm_xj, smin_xj = spectrum.s_top, spectrum.s_min
    else:  # cols is sorted, unique and in range
        g = None if gram is None else gram[np.ix_(cols, cols)]
        smin_xj, norm_xj = _minor_extremes(x, cols, g)
    return CertificateReport(
        tau=float(tau),
        columns=cols.tolist(),
        column_count=int(cols.size),
        minor_op_norm=float(norm_xj),
        minor_smin=float(smin_xj),
        certified_upper=float(smin_xj),
        observed_smin=spectrum.s_min,
        valid=bool(cols.size and smin_xj >= spectrum.s_min - CERT_SLACK * spectrum.s_top),
        note="" if cols.size else "no columns below tau; certificate vacuous",
    )


_CENSUS_BLOCK = 1 << 15  # entries of |X| held at a time by heavy_census


def heavy_census(x: np.ndarray, c: float = CENSUS_C) -> int:
    """Count of entries with |x_ij| above census_cutoff(N, c), N the row count; ValueError
    where X is not finite."""
    x = _as_matrix(x)
    if not (0.0 < c < 0.5):
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    t = census_cutoff(x.shape[0], c)
    step = max(1, _CENSUS_BLOCK // x.shape[1])
    buf, count = np.empty((step, x.shape[1])), 0
    for i in range(0, x.shape[0], step):  # |X| a block of rows at a time, in one buffer
        block = np.abs(x[i:i + step], out=buf[:min(step, x.shape[0] - i)])
        if not block.max() < math.inf:  # a NaN or an inf reaches the block's max
            raise ValueError(_NOT_FINITE)
        count += int(np.count_nonzero(block > t))
    return count
