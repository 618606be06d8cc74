"""Constructive bounds and diagnostics for the smallest singular value.

The main tool: columns whose entries all stay below a cutoff tau form a
submatrix X_J, and by interlacing

    s_min(X) <= s_min(X_J) <= ||X_J||,

so either quantity of the minor is a certified upper bound computable
without touching the full spectrum. The default cutoff comes from
balancing the expected number of large entries per column against a
log-size budget, which needs the law's certified tail envelope.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensemble import TailLaw
from .spectra import column_minor, full_svd, operator_norm

__all__ = [
    "CertificateReport",
    "WindowSplit",
    "SparseNormDiagnostic",
    "SeginerDiagnostic",
    "default_tau",
    "default_tau_for_rows",
    "small_column_set",
    "upper_certificate",
    "heavy_census",
    "minimal_window_bound",
    "window_split",
    "epsilon_from_log_target",
    "sparse_norm_diagnostic",
    "seginer_diagnostic",
    "truncate_recenter",
    "empirical_concentration",
]

CERT_SLACK = 1e-9


@dataclass
class CertificateReport:
    """Outcome of the small-column certificate at cutoff tau.

    minor_op_norm and minor_smin come from one verified full_svd of X_J
    (the column length when |J| = 1); certified_upper is their min. valid
    means it is sound against the observed s_min up to CERT_SLACK * s_top;
    with no qualifying columns the bound is vacuous (+inf), valid False.
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


def default_tau_for_rows(
    n_rows: int,
    alpha: float,
    b_frak: float = 0.5,
    a_frak: float = 1.0001,
    c_upper: float = 1.0,
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


def default_tau(
    n: int,
    alpha: float,
    aspect: float,
    b_frak: float = 0.5,
    a_frak: float = 1.0001,
    c_upper: float = 1.0,
) -> float:
    """default_tau_for_rows at N = ceil(aspect * n)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n must be an integer >= 2, got {n!r}")
    if not (aspect > 1.0):
        raise ValueError(f"aspect must be > 1, got {aspect}")
    return default_tau_for_rows(math.ceil(aspect * n), alpha, b_frak, a_frak, c_upper)


def small_column_set(x: np.ndarray, tau: float) -> np.ndarray:
    """Indices of columns whose max |entry| is <= tau, sorted ascending."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a nonempty 2-D array")
    if not (tau > 0.0 and math.isfinite(tau)):
        raise ValueError(f"tau must be finite and > 0, got {tau}")
    return np.flatnonzero(np.max(np.abs(x), axis=0) <= tau)


def upper_certificate(
    x: np.ndarray,
    tau: float,
    observed: tuple[float, float] | None = None,
) -> CertificateReport:
    """Certified upper bound on s_min(X) from the small-column minor.

    Both extremes of X_J come from one verified full_svd; no power
    iteration runs. observed, if given, is (s_min, s_top) of X from an
    already computed decomposition; otherwise X is decomposed here too.
    Soundness checked: certified_upper >= observed_smin - CERT_SLACK * s_top.
    """
    x = np.asarray(x, dtype=np.float64)
    cols = small_column_set(x, tau)
    if observed is None:
        res = full_svd(x, k_bottom=1)
        observed_smin, s_top = res.s_min, res.s_top
    else:
        observed_smin, s_top = float(observed[0]), float(observed[1])

    if cols.size == 0:
        return CertificateReport(
            tau=float(tau),
            columns=[],
            column_count=0,
            minor_op_norm=math.inf,
            minor_smin=math.inf,
            certified_upper=math.inf,
            observed_smin=observed_smin,
            valid=False,
            note="no columns below tau; certificate vacuous",
        )

    minor = column_minor(x, cols)
    if cols.size == 1:  # single column: both extremes equal its length
        norm_xj = smin_xj = float(np.linalg.norm(minor))
    else:
        res_j = full_svd(minor, k_bottom=1)
        norm_xj, smin_xj = res_j.s_top, res_j.s_min
    upper = min(norm_xj, smin_xj)
    valid = upper >= observed_smin - CERT_SLACK * s_top
    return CertificateReport(
        tau=float(tau),
        columns=[int(c) for c in cols],
        column_count=int(cols.size),
        minor_op_norm=float(norm_xj),
        minor_smin=float(smin_xj),
        certified_upper=float(upper),
        observed_smin=float(observed_smin),
        valid=bool(valid),
        note="",
    )


def heavy_census(x: np.ndarray, c: float = 0.1) -> int:
    """Count of entries with |x_ij| > N**(1/2 - c), N the row count."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a nonempty 2-D array")
    if not (0.0 < c < 0.5):
        raise ValueError(f"c must be in (0, 1/2), got {c}")
    threshold = float(x.shape[0]) ** (0.5 - c)
    return int(np.count_nonzero(np.abs(x) > threshold))


@dataclass
class WindowSplit:
    """Entrywise split of the rescaled matrix by magnitude window.

    x_scaled = N**(-1/alpha + epsilon_n) * X. x_window keeps entries with
    |entry| <= 1 or 2 < |entry| <= window_max; x_tail holds the rest, and
    x_scaled == x_window + x_tail exactly (entrywise copy or zero).
    """

    alpha: float
    epsilon_n: float
    window_max: float
    x_scaled: np.ndarray
    x_window: np.ndarray
    x_tail: np.ndarray
    window_norm: float


def minimal_window_bound(alpha: float, c_lower: float = 1.0, c_upper: float = 1.0) -> float:
    """Smallest admissible window edge M solving c_lower/2**(alpha+1) = c_upper/M**alpha."""
    if alpha <= 0 or c_lower <= 0 or c_upper <= 0:
        raise ValueError("alpha, c_lower, c_upper must all be > 0")
    return (2.0 ** (alpha + 1.0) * c_upper / c_lower) ** (1.0 / alpha)


def window_split(
    x: np.ndarray,
    alpha: float,
    epsilon_n: float,
    window_max: float = 5.0,
    c_lower: float = 1.0,
    c_upper: float = 1.0,
) -> WindowSplit:
    """Split N**(-1/alpha+epsilon_n) * X into window and tail parts.

    The window is [-1,1] plus the annulus 2 < |entry| <= window_max.
    window_max must satisfy c_lower / 2**(alpha+1) > c_upper /
    window_max**alpha (the annulus must be reachable from the inner
    band), otherwise a ValueError reports the minimal admissible value.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a nonempty 2-D array")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if not (0.0 < epsilon_n < 1.0 / alpha):
        raise ValueError(f"epsilon_n must be in (0, 1/alpha) = (0, {1.0 / alpha:.4g}), got {epsilon_n}")
    m_min = minimal_window_bound(alpha, c_lower, c_upper)
    if not (window_max > 2.0) or c_lower / 2.0 ** (alpha + 1.0) <= c_upper / window_max**alpha:
        raise ValueError(
            f"window_max {window_max} inadmissible; need window_max > {max(m_min, 2.0):.6g}"
        )
    n_rows = x.shape[0]
    scaled = float(n_rows) ** (-1.0 / alpha + epsilon_n) * x
    mag = np.abs(scaled)
    mask = (mag <= 1.0) | ((mag > 2.0) & (mag <= window_max))
    x_window = np.where(mask, scaled, 0.0)
    x_tail = scaled - x_window  # exact: entries are copied or zeroed
    return WindowSplit(
        alpha=float(alpha),
        epsilon_n=float(epsilon_n),
        window_max=float(window_max),
        x_scaled=scaled,
        x_window=x_window,
        x_tail=x_tail,
        window_norm=float(operator_norm(x_window)),
    )


def epsilon_from_log_target(n_rows: int, alpha: float, c_prime: float = 1.0) -> float:
    """epsilon_n solving N**(alpha * epsilon_n) = c_prime * ln N."""
    if not isinstance(n_rows, int) or n_rows < 3:
        raise ValueError(f"n_rows must be an integer >= 3, got {n_rows!r}")
    if alpha <= 0 or c_prime <= 0:
        raise ValueError("alpha and c_prime must be > 0")
    target = c_prime * math.log(n_rows)
    if target <= 1.0:
        raise ValueError(f"c_prime * ln(n_rows) = {target:.4g} <= 1; epsilon_n would not be positive")
    eps = math.log(target) / (alpha * math.log(n_rows))
    if eps >= 1.0 / alpha:
        raise ValueError("log target too aggressive: epsilon_n >= 1/alpha")
    return eps


@dataclass
class SparseNormDiagnostic:
    window_norm: float
    reference_scale: float
    ratio: float
    in_regime: bool


def sparse_norm_diagnostic(split: WindowSplit, c_prime: float = 1.0) -> SparseNormDiagnostic:
    """Ratio of the window-part norm to its sparse-regime scale N**(alpha*eps/2).

    in_regime is False (the ratio is then only indicative) when the split's
    epsilon_n sits below the log-density threshold N**(alpha*eps) >= c_prime*ln N.
    """
    n_rows = split.x_scaled.shape[0]
    if c_prime <= 0:
        raise ValueError("c_prime must be > 0")
    reference = float(n_rows) ** (split.alpha * split.epsilon_n / 2.0)
    density = float(n_rows) ** (split.alpha * split.epsilon_n)
    in_regime = density >= c_prime * math.log(n_rows)
    return SparseNormDiagnostic(
        window_norm=split.window_norm,
        reference_scale=reference,
        ratio=split.window_norm / reference,
        in_regime=bool(in_regime),
    )


@dataclass
class SeginerDiagnostic:
    op_norm: float
    max_row_norm: float
    max_col_norm: float
    ratio: float


def seginer_diagnostic(x: np.ndarray) -> SeginerDiagnostic:
    """Operator norm against the max row/column Euclidean norm.

    The ratio ||X|| / max(row, col norms) is >= 1 always; values near 1
    say the norm is carried by a single heavy row or column.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a nonempty 2-D array")
    row = float(np.max(np.linalg.norm(x, axis=1)))
    col = float(np.max(np.linalg.norm(x, axis=0)))
    op = operator_norm(x)
    denom = max(row, col)
    ratio = op / denom if denom > 0 else 1.0  # zero matrix: bound is tight trivially
    return SeginerDiagnostic(op_norm=op, max_row_norm=row, max_col_norm=col, ratio=ratio)


def truncate_recenter(x: np.ndarray, cutoff: float, law: TailLaw) -> tuple[np.ndarray, float]:
    """Entrywise truncation at |entry| <= cutoff minus the law's truncated mean.

    Returns (truncated matrix, second moment of the removed-and-recentred
    remainder). For the symmetric laws here the truncated mean is zero and
    the remainder moment is law.tail_second_moment(cutoff). Entries of the
    output are bounded by 2 * cutoff in magnitude.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ValueError("expected a nonempty 2-D array")
    if not (cutoff > 0 and math.isfinite(cutoff)):
        raise ValueError(f"cutoff must be finite and > 0, got {cutoff}")
    shift = law.truncated_mean(cutoff)
    kept = np.where(np.abs(x) <= cutoff, x, 0.0) - shift
    return kept, law.tail_second_moment(cutoff)


def empirical_concentration(sample: np.ndarray, t: float) -> float:
    """Estimated max probability of a radius-t ball, centers at sample points.

    Q_hat(t) = max_j #{i : |x_i - x_j| <= t} / m. Matches the scalar
    concentration function up to sampling error; a point mass gives 1 for
    every t > 0. Computed in O(m log m) by sorting.
    """
    sample = np.asarray(sample, dtype=np.float64).ravel()
    m = sample.size
    if m < 100:
        raise ValueError(f"need at least 100 samples, got {m}")
    if not (t > 0 and math.isfinite(t)):
        raise ValueError(f"t must be finite and > 0, got {t}")
    if not np.all(np.isfinite(sample)):
        raise ValueError("sample entries must all be finite")
    xs = np.sort(sample)
    hi = np.searchsorted(xs, xs + t, side="right")
    lo = np.searchsorted(xs, xs - t, side="left")
    return float((hi - lo).max()) / m
