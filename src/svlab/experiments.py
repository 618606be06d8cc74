"""Monte Carlo sweep harness: configs, trial seeds, trials, the pool and the run's outputs.

Determinism contract: every trial's stream is keyed by a hash of
(base_seed, law, cell, trial index), so any single trial can be
regenerated in isolation, runs can be parallelized trial-wise, and
records.jsonl is byte-identical across reruns and worker counts at one
BLAS thread setting, on one OpenBLAS kernel set and on one class of numpy
SIMD loops, which `manifest.json` records as `blas_core` and `numpy_simd`
(another thread count or kernel set can change the last bits of the
decompositions, and another SIMD class those of Pareto entries). Wall
times and other nondeterministic metadata live in the run manifest, never
in the records. The records' format and their scans live in svlab.records.
"""
from __future__ import annotations

import atexit
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
from .ensemble import EnsembleConfig, LawKind, TailLaw, sample_matrix, simd_target
from .localization import C_GRID, EPSILONS, localization_entries
from .localization import localization_report  # noqa: F401 (perfbench wraps it here)
from .records import TrialRecord, _fields, fit_scaling, write_fits, write_records, write_summary
from .spectra import full_svd

__all__ = [
    "SweepConfig",
    "derive_trial_seed",
    "run_trial",
    "run_sweep",
    "write_manifest",
    "write_outputs",
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
    c_grid: tuple[float, ...] = C_GRID
    epsilons: tuple[float, ...] = EPSILONS
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


def derive_trial_seed(
    base_seed: int, law_kind: str, alpha: float, n: int, aspect: float, trial_index: int
) -> int:
    """Stable 64-bit stream seed for one trial, from the cell coordinates' values."""
    import hashlib

    key = f"{base_seed}|{law_kind}|{float(alpha)!r}|{n}|{float(aspect)!r}|{trial_index}"
    digest = hashlib.sha256(key.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "little")


def run_trial(config: SweepConfig, alpha: float, n: int, trial_index: int) -> TrialRecord:
    alpha, n, trial_index = float(alpha), int(n), int(trial_index)
    law = config.law_for(alpha)
    seed = derive_trial_seed(
        config.base_seed, config.law_kind.value, alpha, n, config.aspect, trial_index
    )
    x = sample_matrix(EnsembleConfig(n=n, aspect=config.aspect, law=law, seed=seed))
    res = full_svd(x, k_bottom=config.k_vectors, all_values=False)

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
        kth_values=res.bottom_values.tolist(),
        degenerate_flags=res.degenerate_flags,
        bottom_vectors=res.bottom_right_vectors.tolist(),
        localization=localization_entries(res, config.c_grid, config.epsilons),
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
        # The class of numpy's loops for the Pareto sampler's log and exp ("avx512" or
        # "generic"): records are byte-identical only within one, too.
        "numpy_simd": simd_target(),
        "record_count": len(records),
        "failures": failures,
        "elapsed_seconds": elapsed,
    }
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")



def write_outputs(config: SweepConfig, records: list[TrialRecord], failures: list[dict], elapsed: float,
                  out_dir: Path) -> None:
    """A sweep's records.jsonl, summary.csv, fits.csv and manifest.json in out_dir, in that order."""
    write_records(records, out_dir / "records.jsonl")
    write_summary(records, out_dir / "summary.csv")
    fits = []
    for alpha in config.alphas:
        try:
            fits.append(fit_scaling(records, alpha))
        except ValueError:
            continue  # not enough grid for this alpha; fits.csv just omits it
    write_fits(fits, out_dir / "fits.csv")
    write_manifest(config, records, failures, elapsed, out_dir / "manifest.json")
