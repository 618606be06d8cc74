"""Monte Carlo sweep harness and analysis scans.

Determinism contract: every trial's stream is keyed by a hash of
(base_seed, law, cell, trial index), so any single trial can be
regenerated in isolation, runs can be parallelized trial-wise, and
records.jsonl is byte-identical across reruns and worker counts at one
BLAS thread setting and on one OpenBLAS kernel set, which `manifest.json`
records as `blas_core` (another thread count or kernel set can change the
last bits of the decompositions). Wall times and other nondeterministic
metadata live in the run manifest, never in the records.

Gaussian cells use alpha = inf as their grid label (the law ignores it);
JSON output then carries the Infinity literal, which Python's json module
round-trips.
"""
from __future__ import annotations

import atexit
import csv
import dataclasses
import json
import math
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, _lapack
from .certificates import CENSUS_C, TAU_PARAMS, certificate_cutoff, heavy_census, upper_certificate
from .ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix
from .localization import localization_report, localization_reports  # noqa: F401 (perfbench wraps it here)
from .matrixio import MatrixFormatError
from .spectra import SpectralResult, full_svd

__all__ = [
    "SweepConfig",
    "TrialRecord",
    "ScalingFit",
    "BracketReport",
    "TransitionRow",
    "TransitionTable",
    "BaiYinReport",
    "KthVectorRow",
    "derive_trial_seed",
    "run_trial",
    "run_sweep",
    "write_records",
    "read_records",
    "write_summary",
    "write_fits",
    "write_manifest",
    "write_csv",
    "fit_scaling",
    "bracket_check",
    "transition_scan",
    "baiyin_check",
    "kth_vector_scan",
]


def _as_float(v):
    """v as a float when it is a number (an int or float, not a bool), else v unchanged."""
    return float(v) if isinstance(v, (int, float)) and not isinstance(v, bool) else v


@dataclass(frozen=True)
class SweepConfig:
    """Grid description for one sweep.

    alphas may contain math.inf only with law_kind gaussian (label only).
    tau_params = (b_frak, a_frak) feed the auto cutoff for alpha < 2 cells;
    cells with alpha >= 2 fall back to the census cutoff N**(1/2 - census_c).
    normalize_variance applies wherever the law has a finite second moment
    and is ignored elsewhere. Float fields take numbers, never bools or strings.
    """

    alphas: tuple[float, ...]
    ns: tuple[int, ...]
    aspect: float
    trials_per_cell: int
    base_seed: int
    k_vectors: int = 1
    c_grid: tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)
    epsilons: tuple[float, ...] = (0.05, 0.1, 0.2, 0.3)
    tau_params: tuple[float, float] = TAU_PARAMS
    law_kind: LawKind = LawKind.SYMMETRIC_PARETO
    census_c: float = CENSUS_C
    normalize_variance: bool = True
    max_trials: int = 10000
    _FLOATS = ("aspect", "census_c")  # class constants, not fields: they carry no annotation
    _FLOAT_LISTS = ("alphas", "c_grid", "epsilons", "tau_params")

    def __post_init__(self) -> None:
        object.__setattr__(self, "law_kind", LawKind(self.law_kind))
        object.__setattr__(self, "ns", tuple(self.ns))
        # Records carry aspect and census_c as they are, so an aspect of 2 must read as 2.0.
        for name in self._FLOATS:
            object.__setattr__(self, name, _as_float(getattr(self, name)))
        for name in self._FLOAT_LISTS:
            if isinstance(getattr(self, name), (list, tuple)):
                object.__setattr__(self, name, tuple(map(_as_float, getattr(self, name))))
        errors = self.validation_errors()
        if errors:
            raise ValueError("invalid sweep config: " + "; ".join(errors))

    def validation_errors(self) -> list[str]:
        values = [(name, getattr(self, name)) for name in self._FLOAT_LISTS]
        errs = [f"{name} {v!r} must be a list of numbers" for name, v in values
                if not (isinstance(v, tuple) and all(type(f) is float for f in v))]
        errs += [f"{name} {getattr(self, name)!r} must be a number"
                 for name in self._FLOATS if type(getattr(self, name)) is not float]
        if type(self.normalize_variance) is not bool:
            errs.append(f"normalize_variance {self.normalize_variance!r} must be true or false")
        names = ("trials_per_cell", "base_seed", "k_vectors", "max_trials")
        integers = [(name, getattr(self, name)) for name in names]
        integers += [("n", n) for n in self.ns]
        # An exact type test, since bool is a subclass of int.
        errs += [f"{name} {v!r} must be an integer" for name, v in integers if type(v) is not int]
        if errs:
            return errs  # the range checks below compare these fields as numbers
        if not self.alphas:
            errs.append("alphas must be nonempty")
        for a in self.alphas:
            if math.isnan(a) or a <= 0:
                errs.append(f"alpha {a} must be > 0")
            elif math.isinf(a) and self.law_kind is not LawKind.GAUSSIAN:
                errs.append("alpha = inf is only a valid label for the gaussian law")
        if len(set(self.alphas)) != len(self.alphas):
            errs.append("alphas must be distinct")
        if not self.ns:
            errs.append("ns must be nonempty")
        if not (self.aspect > 1.0 and math.isfinite(self.aspect)):
            errs.append(f"aspect {self.aspect} must be finite and > 1")
        if not self.c_grid or any(c <= 0 or not math.isfinite(c) for c in self.c_grid):
            errs.append("c_grid must be nonempty with finite positive entries")
        if not self.epsilons or any(not (0.0 < e < 1.0) for e in self.epsilons):
            errs.append("epsilons must be nonempty with entries in (0,1)")
        if len(self.tau_params) != 2 or any(t <= 0 for t in self.tau_params):
            errs.append("tau_params must be two positive numbers (b_frak, a_frak)")
        if not (0.0 < self.census_c < 0.5):
            errs.append("census_c must be in (0, 1/2)")
        for n in self.ns:
            if n < 3:  # a bottom vector's threshold set needs n >= 3
                errs.append(f"n {n} must be >= 3")
        if len(set(self.ns)) != len(self.ns):
            errs.append("ns must be distinct")
        if self.trials_per_cell < 1:
            errs.append("trials_per_cell must be >= 1")
        if not (0 <= self.base_seed < 2**64):
            errs.append("base_seed must be in [0, 2**64)")
        if self.ns and not (1 <= self.k_vectors <= min(self.ns)):
            errs.append(f"k_vectors must be in [1, min(ns)={min(self.ns)}]")
        if self.max_trials < 1:
            errs.append("max_trials must be >= 1")
        total = len(self.alphas) * len(self.ns) * max(self.trials_per_cell, 0)
        if total > self.max_trials:
            errs.append(f"grid needs {total} trials, over the max_trials budget {self.max_trials}")
        return errs

    def law_for(self, alpha: float) -> TailLaw:
        if self.law_kind is LawKind.GAUSSIAN:
            return TailLaw(LawKind.GAUSSIAN, normalize_variance=self.normalize_variance)
        normalize = self.normalize_variance and alpha > 2.0
        return TailLaw(self.law_kind, alpha=alpha, normalize_variance=normalize)

    def as_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["law_kind"] = self.law_kind.value
        return d


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


def derive_trial_seed(
    base_seed: int, law_kind: str, alpha: float, n: int, aspect: float, trial_index: int
) -> int:
    """Stable 64-bit stream seed for one trial, from the cell coordinates' values."""
    import hashlib

    key = f"{base_seed}|{law_kind}|{float(alpha)!r}|{n}|{float(aspect)!r}|{trial_index}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def _fields(obj) -> dict:
    """A dataclass instance's fields by name in field order, sharing its lists.

    dataclasses.asdict would deep-copy every list; the JSON text is the same.
    """
    return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}


def _localization_entries(res: SpectralResult, c_grid, epsilons) -> list[dict]:
    """{"k": k, "c": c, **report} for each kept bottom vector k of res and each c in c_grid, in
    that order: a trial record's localization, and the lines svlab localize prints."""
    return [
        {"k": k, "c": c, **_fields(rep)}
        for k, (u, flag) in enumerate(zip(res.bottom_right_vectors, res.degenerate_flags), 1)
        for c, rep in zip(c_grid, localization_reports(u, c_grid, epsilons, flag))
    ]


def run_trial(config: SweepConfig, alpha: float, n: int, trial_index: int) -> TrialRecord:
    alpha, n, trial_index = float(alpha), int(n), int(trial_index)
    law = config.law_for(alpha)
    seed = derive_trial_seed(
        config.base_seed, config.law_kind.value, alpha, n, config.aspect, trial_index
    )
    x = sample_matrix(EnsembleConfig(n=n, aspect=config.aspect, law=law, seed=seed))
    res = full_svd(x, k_bottom=config.k_vectors)

    bounds = law.tail_bounds
    tau, note = certificate_cutoff(
        x.shape[0], alpha, None if bounds is None else bounds.c_upper, config.tau_params, config.census_c
    )
    cert = upper_certificate(x, tau, res).with_note(note)

    return TrialRecord(
        alpha=alpha,
        n=n,
        aspect=config.aspect,
        law_kind=config.law_kind.value,
        trial_index=trial_index,
        seed=seed,
        n_rows=x.shape[0],
        s_min=res.s_min,
        s_top=res.s_top,
        kth_values=res.singular_values[::-1][:config.k_vectors].tolist(),
        degenerate_flags=res.degenerate_flags,
        bottom_vectors=res.bottom_right_vectors.tolist(),
        localization=_localization_entries(res, config.c_grid, config.epsilons),
        certificate=_fields(cert),
        heavy_count=heavy_census(x, config.census_c),
        census_c=config.census_c,
    )


def _trial_task(args: tuple[SweepConfig, float, int, int]):
    config, alpha, n, trial_index = args
    try:
        return ("ok", run_trial(config, alpha, n, trial_index))
    except Exception as exc:  # one bad trial must not abort the sweep
        where = {"alpha": alpha, "n": n, "trial_index": trial_index}
        return ("fail", where | {"message": f"{type(exc).__name__}: {exc}", "traceback": traceback.format_exc()})


# Kept from one pooled sweep for the next: (worker count, ProcessPoolExecutor), or None.
_pool = None


@atexit.register
def _drop_pool() -> None:
    """Shut the kept pool down, joining its workers, and empty the slot.

    At exit this runs after concurrent.futures has joined the workers, and
    frees the executor before the interpreter clears the module globals its
    finalizer reads.
    """
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


def run_sweep(
    config: SweepConfig, workers: int = 1
) -> tuple[list[TrialRecord], list[dict], float]:
    """Run the whole grid. Returns (records, failures, elapsed_seconds).

    Trials are handed out largest n first (Graham's longest-processing-time
    order), so a pool does not end on one big trial while its other workers
    idle. Records come back sorted by (alpha, n, trial_index) regardless of
    run order, completion order or worker count; a trial raising any
    exception is collected as a failure ("Type: message" plus its
    traceback), not raised.

    A pooled sweep keeps its worker processes for the next one: they persist
    until the process exits (concurrent.futures joins them then) or a sweep
    asks for another worker count, which replaces them. The workers are
    forked at the first pooled sweep and see the module state of that
    moment, so a monkeypatch made later does not reach them. A kept pool
    that turns out broken (a worker died since the last sweep) is replaced
    and the grid run once more; trials are deterministic, so the records
    are the same. A pool built for this sweep that breaks raises
    BrokenProcessPool at once: its own trials killed the worker, and a rerun
    would do so again.
    """
    global _pool
    if workers < 1:
        raise ValueError("workers must be >= 1")
    tasks = [
        (config, alpha, n, t)
        for alpha in config.alphas
        for n in config.ns
        for t in range(config.trials_per_cell)
    ]
    tasks.sort(key=lambda task: -task[2])  # stable: grid order within one n
    workers = min(workers, len(tasks))  # a pool forks all its workers at the first submit
    if workers > 1:
        # Imported here, before the clock starts, so that only a pooled sweep
        # loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool
    start = time.perf_counter()
    if workers <= 1:
        outcomes = [_trial_task(t) for t in tasks]
    else:
        while True:
            if _pool is not None and _pool[0] != workers:
                _drop_pool()
            kept = _pool is not None
            if not kept:
                _pool = (workers, ProcessPoolExecutor(max_workers=workers))
            try:
                outcomes = list(_pool[1].map(_trial_task, tasks, chunksize=1))
                break
            except BrokenProcessPool:
                _drop_pool()
                if not kept:
                    raise
    elapsed = time.perf_counter() - start

    records = [r for kind, r in outcomes if kind == "ok"]
    failures = [r for kind, r in outcomes if kind == "fail"]
    records.sort(key=lambda r: (r.alpha, r.n, r.trial_index))
    failures.sort(key=lambda f: (f["alpha"], f["n"], f["trial_index"]))
    return records, failures, elapsed


# ---------------------------------------------------------------------------
# Serialization


def write_records(records: list[TrialRecord], path: str | Path) -> None:
    """One compact JSON object per line, canonical field order.

    Byte-identical for identical configs: float formatting is repr-based
    shortest round-trip and field order is fixed by the dataclass.
    """
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            fh.write(json.dumps(_fields(rec), separators=(",", ":")))
            fh.write("\n")


def read_records(path: str | Path) -> list[TrialRecord]:
    """Inverse of write_records; a malformed line raises MatrixFormatError naming path:line."""
    out: list[TrialRecord] = []
    with open(path, "rb") as fh:  # bytes, so an undecodable line is named too
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(TrialRecord(**json.loads(line)))
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
    """Long-format CSV: one row per cell per statistic."""
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


def write_manifest(
    config: SweepConfig,
    records: list[TrialRecord],
    failures: list[dict],
    elapsed: float,
    path: str | Path,
) -> None:
    import hashlib
    import platform

    cfg = config.as_dict()
    canon = json.dumps(cfg, separators=(",", ":"), sort_keys=True)
    manifest = {
        "config": cfg,
        "config_sha256": hashlib.sha256(canon.encode("ascii")).hexdigest(),
        "package_version": __version__,
        "python_version": platform.python_version(),
        "numpy_version": np.__version__,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        # False: numpy's build lacks the LAPACK symbols, so every full_svd took eigh or QR-then-gesdd.
        "lapack_kernels": _lapack.available(),
        # The OpenBLAS kernel set: records are byte-identical only within one. None: the build does not say.
        "blas_core": _lapack.core_name(),
        "record_count": len(records),
        "failures": failures,
        "elapsed_seconds": elapsed,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Scans


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


def bracket_check(fit: ScalingFit, floor_coeff: float = 0.3, slack: float = 0.05) -> BracketReport:
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
        t_mass = [float(e["threshold_mass"]) for e in use]
        m_mass = [_profile_value(e, epsilon) for e in use]
        rows.append(
            TransitionRow(
                alpha=alpha,
                n=n,
                trials=len(recs),
                used=len(use),
                median_threshold_mass=float(np.median(t_mass)),
                median_min_mass=float(np.median(m_mass)),
                theorem_mass_fraction=float(np.mean([m >= 1.0 - delta for m in t_mass])),
                median_ipr=float(np.median([float(e["ipr"]) for e in use])),
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
    regime_b: float = 0.2,
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
                    median_threshold_mass=float(np.median([e["threshold_mass"] for _, e in used])),
                    median_min_mass=float(np.median([_profile_value(e, epsilon) for _, e in used])),
                    median_ipr=float(np.median([e["ipr"] for _, e in used])),
                )
            )
    return rows
