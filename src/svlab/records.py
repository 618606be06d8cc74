"""Trial records: the JSONL reader and writer, the CSV writers and the scans.

records.jsonl holds one TrialRecord per line, and this module is the one
owner of that format. The analysis of finished records lives here too:
the summary, the scaling fits and the bracket, transition, Bai-Yin and
k-th-vector scans, each report row a dataclass whose fields are its CSV
columns. It imports no decomposition, so `svlab report` runs without the
trial path.

Gaussian cells use alpha = inf as their grid label (the law ignores it);
JSON output then carries the Infinity literal, which Python's json module
round-trips.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .matrixio import MatrixFormatError

__all__ = [
    "TrialRecord",
    "ScalingFit",
    "BracketReport",
    "TransitionRow",
    "TransitionTable",
    "BaiYinReport",
    "KthVectorRow",
    "write_records",
    "read_records",
    "write_summary",
    "write_fits",
    "write_csv",
    "fit_scaling",
    "bracket_check",
    "transition_scan",
    "baiyin_check",
    "kth_vector_scan",
]


@dataclass
class TrialRecord:
    """One sampled matrix, fully summarized.

    kth_values[k-1] is the k-th smallest singular value, so kth_values[0]
    == s_min. localization holds one dict per (vector k, threshold c) in
    (k, c_grid) order. bottom_vectors are kept so scans can recompute
    coordinate statistics without resampling.
    """

    alpha: float
    n: int
    aspect: float
    law_kind: str
    trial_index: int
    seed: int
    n_rows: int
    s_min: float
    s_top: float
    kth_values: list[float]
    degenerate_flags: list[bool]
    bottom_vectors: list[list[float]]
    localization: list[dict]
    certificate: dict
    heavy_count: int
    census_c: float


def _fields(obj) -> dict:
    """A dataclass instance's fields by name in field order, sharing its lists.

    dataclasses.asdict would deep-copy every list; the JSON text is the same.
    """
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def write_records(records: list[TrialRecord], path: str | Path) -> None:
    """One compact JSON object per line, canonical field order.

    Byte-identical for identical configs: float formatting is repr-based
    shortest round-trip and field order is fixed by the dataclass.
    """
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(_fields(rec), separators=(",", ":")))
            fh.write("\n")


# The JSON values a TrialRecord field takes, by the outer name of its annotation.
_JSON_TYPES = {"float": (int, float), "int": (int,), "str": (str,), "bool": (bool,), "list": (list,),
               "dict": (dict,)}
# The entries the scans and the summary read inside a localization entry and the certificate.
_ENTRY_TYPES = {"k": "int", "c": "float", "threshold_mass": "float", "ipr": "float", "degenerate": "bool",
                "min_mass_profile": "list"}
_CERTIFICATE_TYPES = {"valid": "bool", "certified_upper": "float"}


def _require(value, kind: str, name: str, *where) -> None:
    """TypeError, naming the value as name.format(*where), unless value is a JSON value of kind,
    an annotation such as "float" or "list[float]": a float takes any number and an int an
    integer, and neither takes a bool."""
    types = _JSON_TYPES[kind.partition("[")[0]]
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise TypeError(f"{name.format(*where)} must be {kind}, got {type(value).__name__}")


def _check_types(rec: TrialRecord) -> None:
    """Raise TypeError at the first field, or entry a scan reads, whose JSON value its type does
    not admit: each field by its annotation, each kth_values item, each localization entry's
    _ENTRY_TYPES with its min_mass_profile pairs of numbers, and the certificate's
    _CERTIFICATE_TYPES. A missing entry reads as null, which no type admits.
    """
    for f in dataclasses.fields(rec):
        _require(getattr(rec, f.name), f.type, "field {}", f.name)
    for i, value in enumerate(rec.kth_values):
        _require(value, "float", "kth_values[{}]", i)
    for i, entry in enumerate(rec.localization):
        _require(entry, "dict", "localization[{}]", i)
        for key, kind in _ENTRY_TYPES.items():
            _require(entry.get(key), kind, "localization[{}].{}", i, key)
        for j, pair in enumerate(entry["min_mass_profile"]):
            if not (isinstance(pair, list) and len(pair) == 2):
                name = f"localization[{i}].min_mass_profile[{j}]"
                raise TypeError(f"{name} must be a pair of numbers, got {pair!r}")
            for value in pair:
                _require(value, "float", "localization[{}].min_mass_profile[{}]", i, j)
    for key, kind in _CERTIFICATE_TYPES.items():
        _require(rec.certificate.get(key), kind, "certificate.{}", key)


def read_records(path: str | Path) -> list[TrialRecord]:
    """Inverse of write_records; a malformed line raises MatrixFormatError naming path:line."""
    out: list[TrialRecord] = []
    with open(path, "rb") as fh:  # bytes, so an undecodable line is named too
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(TrialRecord(**json.loads(line)))
                _check_types(out[-1])
            except (ValueError, TypeError) as exc:
                raise MatrixFormatError(f"{path}:{lineno}: not a trial record: {exc}") from exc
    return out


def _by_cell(records: list[TrialRecord]) -> dict[tuple[float, int], list[TrialRecord]]:
    """Records grouped by their (alpha, n) cell, cells ascending and records in input order."""
    cells: dict[tuple[float, int], list[TrialRecord]] = {}
    for rec in sorted(records, key=lambda r: (r.alpha, r.n)):
        cells.setdefault((rec.alpha, rec.n), []).append(rec)
    return cells


def _loc_entry(rec: TrialRecord, k: int, c: float) -> dict:
    for entry in rec.localization:
        if entry["k"] == k and entry["c"] == c:
            return entry
    raise ValueError(f"no localization entry for k={k}, c={c}")


def _median_entries(recs: list[TrialRecord], k: int, c: float) -> tuple[list[tuple], int]:
    """(record, entry) pairs of vector k at threshold c behind a cell's medians, and how
    many of its vectors are degenerate-flagged. Flagged vectors, whose coordinates are
    not well defined, are dropped unless all are: such a cell is reported, not hidden."""
    pairs = [(r, _loc_entry(r, k, c)) for r in recs]
    live = [(r, e) for r, e in pairs if not e["degenerate"]]
    return live or pairs, len(pairs) - len(live)


def _entry_medians(entries: list[dict], epsilon: float) -> dict[str, float]:
    """Medians of threshold mass, min-mass at epsilon and IPR over localization entries,
    keyed by the row fields that hold them."""
    return {
        "median_threshold_mass": float(np.median([e["threshold_mass"] for e in entries])),
        "median_min_mass": float(np.median([_profile_value(e, epsilon) for e in entries])),
        "median_ipr": float(np.median([e["ipr"] for e in entries])),
    }


def _profile_value(entry: dict, epsilon: float) -> float:
    for eps, mass in entry["min_mass_profile"]:
        if eps == epsilon:
            return float(mass)
    raise ValueError(f"epsilon {epsilon} not in stored profile")


def write_csv(path: str | Path, header: list[str], rows) -> None:
    """One header line, then one line per row; csv writes floats as their shortest repr."""
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_summary(records: list[TrialRecord], path: str | Path) -> None:
    """Long-format CSV: one row per cell per statistic.

    Its localization medians take every bottom vector 1, degenerate-flagged ones
    included (degenerate_fraction counts them); transition_scan and kth_vector_scan
    drop flagged vectors from theirs.
    """
    rows: list[list] = []
    for (alpha, n), recs in _by_cell(records).items():
        stats: list[tuple[str, float]] = [
            ("trials", float(len(recs))),
            ("median_s_min", float(np.median([r.s_min for r in recs]))),
            ("median_s_top", float(np.median([r.s_top for r in recs]))),
            ("median_heavy_count", float(np.median([r.heavy_count for r in recs]))),
            (
                "degenerate_fraction",
                float(np.mean([r.degenerate_flags[0] for r in recs])),
            ),
            (
                "certificate_valid_fraction",
                float(np.mean([r.certificate["valid"] for r in recs])),
            ),
        ]
        finite_uppers = [
            r.certificate["certified_upper"]
            for r in recs
            if math.isfinite(r.certificate["certified_upper"])
        ]
        if finite_uppers:
            stats.append(("median_certified_upper", float(np.median(finite_uppers))))
        k_vectors = len(recs[0].kth_values)
        for k in range(2, k_vectors + 1):
            stats.append(
                (f"median_s_bottom_{k}", float(np.median([r.kth_values[k - 1] for r in recs])))
            )
        first = recs[0].localization
        cs = sorted({e["c"] for e in first if e["k"] == 1})
        epss = [eps for eps, _ in first[0]["min_mass_profile"]]
        for c in cs:
            vals = [_loc_entry(r, 1, c)["threshold_mass"] for r in recs]
            stats.append((f"median_threshold_mass_c={c:g}", float(np.median(vals))))
        for eps in epss:
            vals = [_profile_value(_loc_entry(r, 1, cs[0]), eps) for r in recs]
            stats.append((f"median_min_mass_eps={eps:g}", float(np.median(vals))))
        stats.append(
            ("median_ipr", float(np.median([_loc_entry(r, 1, cs[0])["ipr"] for r in recs])))
        )
        rows.extend([alpha, n, recs[0].aspect, stat, value] for stat, value in stats)
    write_csv(path, ["alpha", "n", "aspect", "statistic", "value"], rows)


@dataclass
class ScalingFit:
    """Least-squares fit of ln(median s_min) against ln(n)."""

    alpha: float
    ns: list[int]
    medians: list[float]
    slope: float
    intercept: float
    slope_corrected: float | None
    residual_sse: float


FIT_MIN_POINTS = 3  # distinct n a scaling fit needs
FIT_MIN_TRIALS = 5  # trials per n behind each median
FLOOR_COEFF = 0.3  # default coefficient of bracket_check's root-n floor
BRACKET_SLACK = 0.05  # default slack of bracket_check's exponent bracket
REGIME_B = 0.2  # default exponent b of kth_vector_scan's regime k <= n**(1 - 2b)


def fit_scaling(records: list[TrialRecord], alpha: float) -> ScalingFit:
    """Fit median s_min ~ n**slope for one alpha across the swept n.

    slope_corrected refits after dividing the medians by
    (ln n)**((alpha-2)/(2 alpha)), the logarithmic part of the
    heavy-tailed envelope; it is None for alpha >= 2 where that
    correction does not apply.
    """
    by_n = {n: [r.s_min for r in recs] for (a, n), recs in _by_cell(records).items() if a == alpha}
    ns = list(by_n)
    if len(ns) < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} distinct n for alpha={alpha}, got {len(ns)}")
    for n in ns:
        if len(by_n[n]) < FIT_MIN_TRIALS:
            raise ValueError(f"need at least {FIT_MIN_TRIALS} trials per n, got {len(by_n[n])} at n={n}")
    medians = [float(np.median(by_n[n])) for n in ns]
    if any(m <= 0 for m in medians):
        raise ValueError("nonpositive median smallest singular value; log fit undefined")
    lx = np.log(np.asarray(ns, dtype=np.float64))
    ly = np.log(np.asarray(medians, dtype=np.float64))
    slope, intercept = np.polyfit(lx, ly, 1)
    sse = float(np.sum((ly - (slope * lx + intercept)) ** 2))
    corrected = None
    if alpha < 2.0:
        correction = ((alpha - 2.0) / (2.0 * alpha)) * np.log(np.log(np.asarray(ns, dtype=np.float64)))
        c_slope, _ = np.polyfit(lx, ly - correction, 1)
        corrected = float(c_slope)
    return ScalingFit(
        alpha=float(alpha),
        ns=ns,
        medians=medians,
        slope=float(slope),
        intercept=float(intercept),
        slope_corrected=corrected,
        residual_sse=sse,
    )


def write_fits(fits: list[ScalingFit], path: str | Path) -> None:
    """One row per fit; a missing slope_corrected is an empty field."""
    write_csv(
        path,
        ["alpha", "n_points", "slope", "intercept", "slope_corrected", "residual_sse"],
        [[f.alpha, len(f.ns), f.slope, f.intercept, f.slope_corrected, f.residual_sse] for f in fits],
    )


@dataclass
class BracketReport:
    """Sandwich check for alpha < 2: root-n floor and heavy-tail envelope.

    floor_violations lists n where median s_min < floor_coeff * sqrt(n).
    envelope_ratios are median / (n**(1/alpha) * (ln n)**((alpha-2)/(2 alpha)));
    ratio_spread = max/min of those, the drift of the fitted constant.
    exponent_in_bracket checks slope against [1/2 - slack, 1/alpha + slack].
    """

    alpha: float
    exponent: float
    exponent_low: float
    exponent_high: float
    exponent_in_bracket: bool
    floor_coeff: float
    floor_violations: list[int]
    envelope_ratios: list[tuple[int, float]]
    ratio_spread: float


def bracket_check(fit: ScalingFit, floor_coeff: float = FLOOR_COEFF, slack: float = BRACKET_SLACK) -> BracketReport:
    if not (0.0 < fit.alpha < 2.0):
        raise ValueError(f"bracket_check applies to alpha in (0,2), got {fit.alpha}")
    if floor_coeff <= 0 or slack < 0:
        raise ValueError("floor_coeff must be > 0 and slack >= 0")
    lo = 0.5 - slack
    hi = 1.0 / fit.alpha + slack
    violations = [n for n, med in zip(fit.ns, fit.medians) if med < floor_coeff * math.sqrt(n)]
    ratios = []
    for n, med in zip(fit.ns, fit.medians):
        envelope = n ** (1.0 / fit.alpha) * math.log(n) ** ((fit.alpha - 2.0) / (2.0 * fit.alpha))
        ratios.append((n, med / envelope))
    vals = [r for _, r in ratios]
    spread = max(vals) / min(vals)
    return BracketReport(
        alpha=fit.alpha,
        exponent=fit.slope,
        exponent_low=lo,
        exponent_high=hi,
        exponent_in_bracket=bool(lo <= fit.slope <= hi),
        floor_coeff=floor_coeff,
        floor_violations=violations,
        envelope_ratios=ratios,
        ratio_spread=float(spread),
    )


@dataclass
class TransitionRow:
    alpha: float
    n: int
    trials: int
    used: int  # non-degenerate bottom vectors entering the medians
    median_threshold_mass: float
    median_min_mass: float
    theorem_mass_fraction: float  # fraction with threshold_mass >= 1 - delta
    median_ipr: float


@dataclass
class TransitionTable:
    rows: list[TransitionRow]
    midpoint: float | None
    crossing_alpha: float | None


def transition_scan(
    records: list[TrialRecord],
    c: float,
    epsilon: float,
    delta: float,
) -> TransitionTable:
    """Localization statistics of the bottom vector per (alpha, n) cell.

    Degenerate-gap flagged vectors are excluded from medians (their
    individual coordinates are not well defined) but counted in trials.
    crossing_alpha is the first grid alpha (ascending, at the largest n)
    whose median min-mass reaches the midpoint, halfway between the
    extremes of the observed medians.
    """
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must be in (0,1), got {delta}")
    rows: list[TransitionRow] = []
    for (alpha, n), recs in _by_cell(records).items():
        use = [e for _, e in _median_entries(recs, 1, c)[0]]
        rows.append(
            TransitionRow(
                alpha=alpha,
                n=n,
                trials=len(recs),
                used=len(use),
                theorem_mass_fraction=float(np.mean([e["threshold_mass"] >= 1.0 - delta for e in use])),
                **_entry_medians(use, epsilon),
            )
        )
    n_star = max(r.n for r in rows) if rows else 0
    scan_rows = [r for r in rows if r.n == n_star]
    crossing = mid = None
    if len(scan_rows) >= 2:
        vals = [r.median_min_mass for r in scan_rows]
        mid = 0.5 * (min(vals) + max(vals))
        for r in scan_rows:
            if r.median_min_mass >= mid:
                crossing = r.alpha
                break
    return TransitionTable(rows=rows, midpoint=mid, crossing_alpha=crossing)


@dataclass
class BaiYinReport:
    aspect: float
    limit: float  # 1 - sqrt(1/aspect)
    mean_ratio: float  # mean of s_min / sqrt(N)
    abs_deviation: float
    trials: int
    per_n: list[tuple[int, float]]


def baiyin_check(records: list[TrialRecord]) -> BaiYinReport:
    """Compare s_min / sqrt(N) against the finite-variance limit.

    Requires every record to come from a variance-normalized law with a
    finite second moment: gaussian, or alpha > 2 with normalization.
    """
    from .ensemble import LawKind  # only this scan reads a law
    if not records:
        raise ValueError("no records")
    aspects = {r.aspect for r in records}
    if len(aspects) != 1:
        raise ValueError(f"records mix aspects {sorted(aspects)}")
    for r in records:
        if r.law_kind != LawKind.GAUSSIAN.value and not (r.alpha > 2.0):
            raise ValueError(
                f"record (alpha={r.alpha}, law={r.law_kind}) lacks a finite variance; "
                "the limit comparison needs alpha > 2 or a gaussian law"
            )
    aspect = next(iter(aspects))
    limit = 1.0 - math.sqrt(1.0 / aspect)
    ratios = [r.s_min / math.sqrt(r.n_rows) for r in records]
    by_n: dict[int, list[float]] = {}
    for r, ratio in zip(records, ratios):
        by_n.setdefault(r.n, []).append(ratio)
    mean_ratio = float(np.mean(ratios))
    return BaiYinReport(
        aspect=float(aspect),
        limit=float(limit),
        mean_ratio=mean_ratio,
        abs_deviation=abs(mean_ratio - limit),
        trials=len(records),
        per_n=[(n, float(np.mean(by_n[n]))) for n in sorted(by_n)],
    )


@dataclass
class KthVectorRow:
    alpha: float
    n: int
    k: int
    in_regime: bool  # k within n**(1 - 2*regime_b)
    used: int
    degenerate: int
    median_value: float  # k-th smallest singular value
    median_threshold_mass: float
    median_min_mass: float
    median_ipr: float


def kth_vector_scan(
    records: list[TrialRecord],
    c: float,
    epsilon: float,
    regime_b: float = REGIME_B,
) -> list[KthVectorRow]:
    """Per-k localization medians for the stored bottom vectors.

    Rows with k above n**(1-2*regime_b) are marked out of regime: the
    small-value theory covers k = O(n**(1-2b)) for b in (0, 1/2) only.
    Degenerate-flagged vectors are excluded from medians and counted.
    """
    if not (0.0 < regime_b < 0.5):
        raise ValueError(f"regime_b must be in (0, 1/2), got {regime_b}")
    rows: list[KthVectorRow] = []
    for (alpha, n), recs in _by_cell(records).items():
        k_max = len(recs[0].kth_values)
        for k in range(1, k_max + 1):
            used, flagged = _median_entries(recs, k, c)
            rows.append(
                KthVectorRow(
                    alpha=alpha,
                    n=n,
                    k=k,
                    in_regime=bool(k <= n ** (1.0 - 2.0 * regime_b)),
                    used=len(used),
                    degenerate=flagged,
                    median_value=float(np.median([r.kth_values[k - 1] for r, _ in used])),
                    **_entry_medians([e for _, e in used], epsilon),
                )
            )
    return rows
