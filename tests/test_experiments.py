"""Sweep harness: determinism, record coherence, scans on synthetic data."""
import json
import math
import multiprocessing
import os
import re
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import svlab.experiments as ex
from svlab import _lapack
from svlab.ensemble import LawKind, simd_target
from svlab.experiments import SweepConfig, derive_trial_seed, run_sweep, run_trial, write_manifest
from svlab.records import (
    TrialRecord,
    baiyin_check,
    bracket_check,
    fit_scaling,
    kth_vector_scan,
    read_records,
    transition_scan,
    write_fits,
    write_records,
    write_summary,
)
from svlab.spectra import SpectralError

SMALL = SweepConfig(
    alphas=(1.2, 3.0),
    ns=(16, 24),
    aspect=2.0,
    trials_per_cell=3,
    base_seed=99,
    k_vectors=2,
    c_grid=(0.5, 1.0),
    epsilons=(0.1, 0.3),
)


def synth_record(
    alpha=1.2,
    n=100,
    trial=0,
    s_min=1.0,
    aspect=2.0,
    threshold_mass=0.5,
    min_mass=0.5,
    ipr=0.1,
    degenerate=False,
    k_vectors=1,
    law_kind="symmetric_pareto",
    c_grid=(1.0,),
    epsilons=(0.1,),
):
    """Hand-built record for scan tests; only scan-relevant fields matter."""
    loc = []
    for k in range(1, k_vectors + 1):
        for c in c_grid:
            loc.append(
                {
                    "k": k,
                    "c": c,
                    "n": n,
                    "c_threshold": c,
                    "threshold_indices": [],
                    "threshold_mass": threshold_mass,
                    "cardinality_bound": n / (c * math.log(n)),
                    "min_mass_profile": [[e, min_mass] for e in epsilons],
                    "ipr": ipr,
                    "degenerate": degenerate,
                }
            )
    return TrialRecord(
        alpha=alpha,
        n=n,
        aspect=aspect,
        law_kind=law_kind,
        trial_index=trial,
        seed=trial,
        n_rows=math.ceil(aspect * n),
        s_min=s_min,
        s_top=10 * s_min,
        kth_values=[s_min * (1 + 0.1 * k) for k in range(k_vectors)],
        degenerate_flags=[degenerate] * k_vectors,
        bottom_vectors=[[0.0] * 4] * k_vectors,
        localization=loc,
        certificate={
            "tau": 1.0,
            "columns": [],
            "column_count": 0,
            "minor_op_norm": math.inf,
            "minor_smin": math.inf,
            "certified_upper": math.inf,
            "observed_smin": s_min,
            "valid": False,
            "note": "",
        },
        heavy_count=0,
        census_c=0.1,
    )


class TestConfig:
    def test_collects_all_errors(self):
        errs = SweepConfig.__new__(SweepConfig)  # bypass init to call validator directly
        object.__setattr__(errs, "alphas", ())
        object.__setattr__(errs, "ns", (1,))
        object.__setattr__(errs, "aspect", 0.5)
        object.__setattr__(errs, "trials_per_cell", 0)
        object.__setattr__(errs, "base_seed", -1)
        object.__setattr__(errs, "k_vectors", 5)
        object.__setattr__(errs, "c_grid", ())
        object.__setattr__(errs, "epsilons", (2.0,))
        object.__setattr__(errs, "tau_params", (0.5,))
        object.__setattr__(errs, "law_kind", LawKind.SYMMETRIC_PARETO)
        object.__setattr__(errs, "census_c", 0.9)
        object.__setattr__(errs, "max_trials", 10)
        msgs = errs.validation_errors()
        assert len(msgs) >= 8

    @pytest.mark.parametrize("key, value", [
        ("trials_per_cell", 2.5), ("k_vectors", 1.0), ("base_seed", 1.0), ("ns", (20.7,)),
        ("max_trials", 100.0), ("base_seed", False),
    ])
    def test_integer_fields_reject_non_integers(self, key, value):
        kwargs = dict(alphas=(1.5,), ns=(20,), aspect=2.0, trials_per_cell=2, base_seed=1)
        with pytest.raises(ValueError, match="must be an integer"):
            SweepConfig(**(kwargs | {key: value}))

    @pytest.mark.parametrize("key, value", [
        ("alphas", ("1.5",)), ("alphas", (True,)), ("alphas", "15"), ("c_grid", ("1",)),
        ("epsilons", (None,)), ("tau_params", (0.5, True)), ("census_c", "0.1"), ("aspect", "2"),
        ("normalize_variance", "no"),
    ])
    def test_float_fields_take_numbers_only(self, key, value):
        kwargs = dict(alphas=(1.5,), ns=(20,), aspect=2.0, trials_per_cell=2, base_seed=1)
        with pytest.raises(ValueError, match=f"^invalid sweep config: {key} "):
            SweepConfig(**(kwargs | {key: value}))

    def test_integer_floats_are_floats(self):
        kwargs = dict(ns=(20,), aspect=2.0, trials_per_cell=1, base_seed=1)
        a = SweepConfig(alphas=[3], c_grid=[1, 2], tau_params=(1, 1), **kwargs)
        b = SweepConfig(alphas=(3.0,), c_grid=(1.0, 2.0), tau_params=(1.0, 1.0), **kwargs)
        assert a == b
        assert json.dumps(a.as_dict()) == json.dumps(b.as_dict())  # the manifest's config_sha256 input

    def test_integer_aspect_is_the_float_aspect(self):
        a, b = (SweepConfig(alphas=(1.5,), ns=(20,), aspect=asp, trials_per_cell=1, base_seed=1)
                for asp in (2, 2.0))
        assert a == b and repr(a.aspect) == "2.0"
        assert run_trial(a, 1.5, 20, 0).seed == run_trial(b, 1.5, 20, 0).seed

    @pytest.mark.parametrize("key, value, message", [
        ("alphas", (0.0,), "alpha 0.0 must be > 0"), ("alphas", (1.5, 1.5), "alphas must be distinct"),
        ("ns", (), "ns must be nonempty"), ("ns", (20, 20), "ns must be distinct"),
        ("max_trials", 0, "max_trials must be >= 1"),
    ])
    def test_out_of_range_values_rejected(self, key, value, message):
        kwargs = dict(alphas=(1.5,), ns=(20,), aspect=2.0, trials_per_cell=1, base_seed=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig(**(kwargs | {key: value}))

    def test_n_below_three_rejected(self):
        # threshold_set needs n >= 3, so an n = 2 cell could only produce failures.
        with pytest.raises(ValueError, match="n 2 must be >= 3"):
            SweepConfig(alphas=(1.5,), ns=(2,), aspect=2.0, trials_per_cell=2, base_seed=1)
        config = SweepConfig(alphas=(1.5,), ns=(3,), aspect=2.0, trials_per_cell=2, base_seed=1)
        recs, fails, _ = run_sweep(config)
        assert len(recs) == 2 and fails == []

    def test_budget_enforced(self):
        with pytest.raises(ValueError, match="budget"):
            SweepConfig(
                alphas=(1.0,), ns=(16,), aspect=2.0, trials_per_cell=50,
                base_seed=0, max_trials=10,
            )

    def test_inf_alpha_needs_gaussian(self):
        with pytest.raises(ValueError, match="gaussian"):
            SweepConfig(
                alphas=(math.inf,), ns=(16,), aspect=2.0, trials_per_cell=1, base_seed=0
            )
        cfg = SweepConfig(
            alphas=(math.inf,), ns=(16,), aspect=2.0, trials_per_cell=1,
            base_seed=0, law_kind=LawKind.GAUSSIAN,
        )
        assert cfg.law_for(math.inf).kind is LawKind.GAUSSIAN

    def test_law_for_normalizes_when_variance_exists(self):
        assert SMALL.law_for(3.0).normalize_variance
        assert not SMALL.law_for(1.2).normalize_variance


class TestTrialSeeds:
    def test_frozen_value(self):
        assert derive_trial_seed(7, "symmetric_pareto", 1.2, 100, 2.0, 3) == 12774865227332149186
        # The key is the value, not numpy's repr of it (np.float64(1.2) under numpy >= 2).
        assert derive_trial_seed(7, "symmetric_pareto", np.float64(1.2), 100, np.float64(2.0), 3) == (
            12774865227332149186)

    def test_distinct_across_coordinates(self):
        base = derive_trial_seed(7, "symmetric_pareto", 1.2, 100, 2.0, 3)
        assert derive_trial_seed(7, "symmetric_pareto", 1.2, 100, 2.0, 4) != base
        assert derive_trial_seed(7, "symmetric_pareto", 1.5, 100, 2.0, 3) != base
        assert derive_trial_seed(7, "symmetric_pareto", 1.2, 101, 2.0, 3) != base
        assert derive_trial_seed(8, "symmetric_pareto", 1.2, 100, 2.0, 3) != base
        assert derive_trial_seed(7, "student_t", 1.2, 100, 2.0, 3) != base


class TestRunTrial:
    def test_record_coherence(self):
        rec = run_trial(SMALL, 1.2, 16, 0)
        assert rec.kth_values[0] == rec.s_min
        assert len(rec.kth_values) == 2
        assert len(rec.localization) == 2 * len(SMALL.c_grid)
        assert all(0.0 <= e["threshold_mass"] <= 1.0 + 1e-12 for e in rec.localization)
        assert rec.certificate["valid"]
        assert rec.n_rows == 32
        assert len(rec.bottom_vectors) == 2 and len(rec.bottom_vectors[0]) == 16

    def test_numpy_scalar_inputs_write_the_same_record(self, tmp_path):
        config = SweepConfig(alphas=(1.5,), ns=(8,), aspect=2.0, trials_per_cell=1, base_seed=3)
        path = tmp_path / "records.jsonl"
        write_records([run_trial(config, 1.5, 8, 0),
                       run_trial(config, np.float64(1.5), np.int64(8), np.int64(0))], path)
        python_line, numpy_line = path.read_text().splitlines()
        assert numpy_line == python_line

    def test_finite_variance_cell_uses_census_cutoff(self):
        rec = run_trial(SMALL, 3.0, 16, 0)
        assert "census cutoff" in rec.certificate["note"]
        assert rec.certificate["tau"] == pytest.approx(32 ** 0.4, rel=1e-12)

    def test_heavy_cell_uses_auto_cutoff(self):
        rec = run_trial(SMALL, 1.2, 16, 0)
        assert "census" not in rec.certificate["note"]

    @pytest.mark.parametrize("law_kind, alpha, n, note", [
        ("symmetric_pareto", 1.2, 16, ""),  # auto cutoff
        ("student_t", 1.5, 16, ""),  # auto cutoff with the law's own c_upper
        ("symmetric_pareto", 3.0, 16, "finite-variance regime: census cutoff"),
        ("gaussian", 1.5, 16, "finite-variance regime: census cutoff"),  # label only, no tail bounds
        ("symmetric_pareto", 1.2, 3,  # N = 6: log budget below 1, census tau kept
         "no columns below tau; certificate vacuous; auto cutoff infeasible (log budget "
         "b_frak*ln(N)/(a_frak*c_upper) = 0.8958 <= 1 at N=6; increase n or b_frak); census cutoff used"),
    ])
    def test_cutoff_branches(self, law_kind, alpha, n, note):
        cfg = SweepConfig(alphas=(alpha,), ns=(n,), aspect=2.0, trials_per_cell=1, base_seed=0,
                          law_kind=law_kind)
        rec = run_trial(cfg, alpha, n, 0)
        n_rows = 2 * n
        if note:
            expected = n_rows ** 0.4  # N**(1/2 - census_c)
        else:
            b_frak, a_frak = cfg.tau_params
            c_upper = cfg.law_for(alpha).tail_bounds.c_upper
            expected = (n_rows * a_frak * c_upper / (b_frak * math.log(n_rows))) ** (1 / alpha)
        assert rec.n_rows == n_rows
        assert rec.certificate["note"] == note
        assert rec.certificate["tau"] == pytest.approx(expected, rel=1e-12)


def worker_pids() -> list[int]:
    """Pids of this process's live multiprocessing children: the kept pool's workers."""
    return sorted(p.pid for p in multiprocessing.active_children())


class TestRunSweep:
    def test_deterministic_across_workers_and_reruns(self, tmp_path):
        rec1, fail1, _ = run_sweep(SMALL, workers=1)
        rec2, fail2, _ = run_sweep(SMALL, workers=2)
        rec3, _, _ = run_sweep(SMALL, workers=1)
        assert fail1 == fail2 == []
        p1, p2, p3 = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        write_records(rec1, p1)
        write_records(rec2, p2)
        write_records(rec3, p3)
        assert p1.read_bytes() == p2.read_bytes() == p3.read_bytes()

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """A ProcessPoolExecutor stand-in that runs in-process and logs what it is given.

        run_sweep keeps its pool between sweeps, so the kept one is dropped
        before the test (a real pool would take the work); conftest's
        autouse fixture drops the stand-in after it, so it serves no later test.
        """
        log = {"sizes": [], "submitted": []}

        class SerialPool:
            def __init__(self, max_workers):
                log["sizes"].append(max_workers)

            def map(self, fn, tasks, chunksize=1):
                tasks = list(tasks)
                log["submitted"].extend((alpha, n, t) for _, alpha, n, t in tasks)
                return map(fn, tasks)

            def shutdown(self):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SerialPool)
        ex._drop_pool()
        return log

    @pytest.fixture
    def counted_pool(self, monkeypatch):
        """The real ProcessPoolExecutor, logging the size of each one built; no pool kept before."""
        from concurrent.futures import ProcessPoolExecutor

        sizes = []

        class CountedPool(ProcessPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers=max_workers)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", CountedPool)
        ex._drop_pool()
        return sizes

    def test_pool_capped_at_trial_count(self, serial_pool):
        sizes = serial_pool["sizes"]
        three = SweepConfig(alphas=(1.2,), ns=(16,), aspect=2.0, trials_per_cell=3, base_seed=5)
        one = SweepConfig(alphas=(1.2,), ns=(16,), aspect=2.0, trials_per_cell=1, base_seed=5)
        for config, workers, expected in ((three, 64, [3]), (one, 8, [])):
            sizes.clear()
            recs, _, _ = run_sweep(config, workers=workers)
            assert sizes == expected  # one trial takes the serial path, no pool
            assert recs == run_sweep(config, workers=1)[0]

    def test_pool_gets_largest_n_first(self, serial_pool):
        config = SweepConfig(alphas=(1.2, 3.0), ns=(12, 24, 16), aspect=2.0,
                             trials_per_cell=2, base_seed=5)
        recs, fails, _ = run_sweep(config, workers=2)
        submitted = serial_pool["submitted"]
        ns = [n for _, n, _ in submitted]
        assert ns == sorted(ns, reverse=True) and len(submitted) == 12
        # Within one n the grid order stays: alpha, then trial index.
        assert submitted[:4] == [(1.2, 24, 0), (1.2, 24, 1), (3.0, 24, 0), (3.0, 24, 1)]
        assert fails == [] and recs == run_sweep(config, workers=1)[0]

    @staticmethod
    def records_bytes(records, path):
        write_records(records, path)
        return path.read_bytes()

    def test_pool_kept_for_the_next_sweep(self, counted_pool, tmp_path):
        serial = self.records_bytes(run_sweep(SMALL, workers=1)[0], tmp_path / "w1")
        first, fails, _ = run_sweep(SMALL, workers=2)
        pids = worker_pids()
        second, fails2, _ = run_sweep(SMALL, workers=2)
        assert counted_pool == [2] and len(pids) == 2 and worker_pids() == pids
        assert fails == fails2 == []
        assert self.records_bytes(first, tmp_path / "a") == serial
        assert self.records_bytes(second, tmp_path / "b") == serial

    def test_other_worker_count_replaces_pool(self, counted_pool):
        run_sweep(SMALL, workers=2)
        pids = worker_pids()
        recs, fails, _ = run_sweep(SMALL, workers=3)
        assert counted_pool == [2, 3]
        assert len(worker_pids()) == 3 and not set(pids) & set(worker_pids())
        assert fails == [] and recs == run_sweep(SMALL, workers=1)[0]

    def test_killed_worker_does_not_fail_next_sweep(self, counted_pool, tmp_path):
        serial = self.records_bytes(run_sweep(SMALL, workers=1)[0], tmp_path / "w1")
        run_sweep(SMALL, workers=2)
        os.kill(worker_pids()[0], signal.SIGKILL)
        recs, fails, _ = run_sweep(SMALL, workers=2)
        assert counted_pool == [2, 2]  # the broken pool was replaced and the grid run again
        assert fails == [] and self.records_bytes(recs, tmp_path / "w2") == serial

    def test_trial_killing_its_worker_runs_once(self, counted_pool, monkeypatch, tmp_path):
        # Patched before the pool forks, so its workers inherit the patch. A
        # pool built for this sweep that breaks is not retried: the rerun
        # would kill a worker again.
        calls, parent, real = tmp_path / "calls", os.getpid(), ex.run_trial

        def deadly(config, alpha, n, trial_index):
            if (alpha, n, trial_index) == (1.2, 24, 0) and os.getpid() != parent:
                with open(calls, "a") as fh:
                    fh.write(f"{os.getpid()}\n")
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, alpha, n, trial_index)

        monkeypatch.setattr(ex, "run_trial", deadly)
        with pytest.raises(BrokenProcessPool):
            run_sweep(SMALL, workers=2)
        assert counted_pool == [2] and ex._pool is None
        assert len(calls.read_text().splitlines()) == 1

    def test_nonpositive_workers_rejected(self):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_sweep(SMALL, workers=0)

    def test_canonical_order(self):
        recs, _, _ = run_sweep(SMALL, workers=2)
        keys = [(r.alpha, r.n, r.trial_index) for r in recs]
        assert keys == sorted(keys)
        assert len(recs) == 2 * 2 * 3

    def test_failures_collected_not_raised(self, monkeypatch):
        real = ex.full_svd

        def flaky(x, **kwargs):
            if x.shape[1] == 16:
                raise SpectralError("synthetic non-convergence", worst_residual=1.0)
            return real(x, **kwargs)

        monkeypatch.setattr(ex, "full_svd", flaky)
        recs, fails, _ = run_sweep(SMALL, workers=1)
        assert len(fails) == 2 * 3  # both alphas at n=16
        assert all(f["n"] == 16 for f in fails)
        assert all("non-convergence" in f["message"] for f in fails)
        assert len(recs) == 2 * 3  # n=24 cells survive

    def test_any_exception_is_a_trial_failure(self, monkeypatch):
        real = ex.upper_certificate

        def broken(x, tau, spectrum):
            if x.shape[1] == 24:
                raise ValueError("synthetic unit-norm check")
            return real(x, tau, spectrum)

        monkeypatch.setattr(ex, "upper_certificate", broken)
        recs, fails, _ = run_sweep(SMALL, workers=1)
        assert len(fails) == 2 * 3  # both alphas at n=24
        assert all(f["message"] == "ValueError: synthetic unit-norm check" for f in fails)
        assert all("in broken" in f["traceback"] for f in fails)
        assert len(recs) == 2 * 3 and all(r.n == 16 for r in recs)  # n=16 cells survive

    def test_round_trip_records(self, tmp_path):
        recs, _, _ = run_sweep(SMALL, workers=1)
        p = tmp_path / "records.jsonl"
        write_records(recs, p)
        p.write_text(p.read_text().replace("\n", "\n\n", 1) + " \n")  # blank lines are skipped
        back = read_records(p)
        assert len(back) == len(recs)
        assert back[0].s_min == recs[0].s_min
        assert back[0].localization == [
            {**e, "min_mass_profile": [list(t) for t in e["min_mass_profile"]]}
            for e in recs[0].localization
        ]


class TestWriters:
    def test_summary_csv(self, tmp_path):
        recs, _, _ = run_sweep(SMALL, workers=1)
        p = tmp_path / "summary.csv"
        write_summary(recs, p)
        text = p.read_text()
        assert "median_s_min" in text
        assert "median_threshold_mass_c=0.5" in text
        assert "median_min_mass_eps=0.1" in text
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        assert all(len(r) == 5 for r in rows)

    def test_fits_csv_and_manifest(self, tmp_path):
        records = []
        for n in (50, 100, 200):
            for t in range(5):
                records.append(synth_record(alpha=1.2, n=n, trial=t, s_min=2.0 * n**0.7))
        fit = fit_scaling(records, 1.2)
        write_fits([fit], tmp_path / "fits.csv")
        lines = (tmp_path / "fits.csv").read_text().strip().splitlines()
        assert len(lines) == 2 and lines[1].startswith("1.2,3,")
        write_manifest(SMALL, [], [{"alpha": 1.2, "n": 16, "trial_index": 0, "message": "x"}], 1.5, tmp_path / "m.json")
        man = json.loads((tmp_path / "m.json").read_text())
        assert man["config"]["base_seed"] == 99
        assert len(man["config_sha256"]) == 64
        assert man["failures"][0]["n"] == 16
        assert set(man["blas_threads"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"}
        assert man["usable_cores"] >= 1

    def test_manifest_blas_threads_as_set(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        write_manifest(SMALL, [], [], 0.1, tmp_path / "m.json")
        man = json.loads((tmp_path / "m.json").read_text())
        assert man["blas_threads"]["OPENBLAS_NUM_THREADS"] == "1"
        assert man["blas_threads"]["MKL_NUM_THREADS"] is None

    def test_manifest_lapack_kernels(self, tmp_path, monkeypatch):
        write_manifest(SMALL, [], [], 0.1, tmp_path / "m.json")
        man = json.loads((tmp_path / "m.json").read_text())
        assert man["lapack_kernels"] is _lapack.available() and man["blas_core"] == _lapack.core_name()
        monkeypatch.setattr(_lapack, "_lib", {})  # a numpy build without the symbols
        monkeypatch.setattr(_lapack, "_openblas", lambda: object())
        write_manifest(SMALL, [], [], 0.1, tmp_path / "m.json")
        man = json.loads((tmp_path / "m.json").read_text())
        assert man["lapack_kernels"] is False and man["blas_core"] is None

    def test_manifest_numpy_simd(self, tmp_path, monkeypatch):
        write_manifest(SMALL, [], [], 0.1, tmp_path / "m.json")
        man = json.loads((tmp_path / "m.json").read_text())
        assert man["numpy_simd"] == simd_target() and man["numpy_simd"] in ("avx512", "generic")
        monkeypatch.setattr(ex, "simd_target", lambda: "generic")
        write_manifest(SMALL, [], [], 0.1, tmp_path / "m.json")
        assert json.loads((tmp_path / "m.json").read_text())["numpy_simd"] == "generic"


class TestFitScaling:
    def test_exact_power_law_recovered(self):
        records = []
        for n in (50, 100, 200, 400):
            for t in range(5):
                records.append(synth_record(alpha=1.2, n=n, trial=t, s_min=2.0 * n**0.7))
        fit = fit_scaling(records, 1.2)
        assert fit.slope == pytest.approx(0.7, abs=1e-12)
        assert fit.intercept == pytest.approx(math.log(2.0), abs=1e-12)
        assert fit.residual_sse < 1e-24
        assert fit.ns == [50, 100, 200, 400]

    def test_corrected_slope_matches_independent_fit(self):
        records = []
        for n in (50, 100, 200, 400):
            for t in range(5):
                records.append(synth_record(alpha=1.2, n=n, trial=t, s_min=1.3 * n**0.8))
        fit = fit_scaling(records, 1.2)
        lx = np.log(fit.ns)
        corr = ((1.2 - 2) / 2.4) * np.log(np.log(fit.ns))
        slope, _ = np.polyfit(lx, np.log(fit.medians) - corr, 1)
        assert fit.slope_corrected == pytest.approx(float(slope), abs=1e-12)

    def test_no_correction_above_two(self):
        records = [
            synth_record(alpha=2.5, n=n, trial=t, s_min=n**0.5)
            for n in (50, 100, 200)
            for t in range(5)
        ]
        assert fit_scaling(records, 2.5).slope_corrected is None

    def test_requires_groups(self):
        records = [synth_record(n=50, trial=t) for t in range(5)]
        with pytest.raises(ValueError, match="distinct n"):
            fit_scaling(records, 1.2)
        records = [synth_record(n=n, trial=0) for n in (50, 100, 200)]
        with pytest.raises(ValueError, match="trials"):
            fit_scaling(records, 1.2)
        records = [synth_record(n=n, trial=t, s_min=0.0) for n in (50, 100, 200) for t in range(5)]
        with pytest.raises(ValueError, match="nonpositive median"):
            fit_scaling(records, 1.2)


class TestBracketCheck:
    def test_in_bracket(self):
        records = [
            synth_record(alpha=1.2, n=n, trial=t, s_min=1.1 * n ** (1 / 1.2) * math.log(n) ** (-1 / 3))
            for n in (100, 200, 400)
            for t in range(5)
        ]
        rep = bracket_check(fit_scaling(records, 1.2))
        assert rep.exponent_in_bracket
        assert rep.floor_violations == []
        assert rep.ratio_spread == pytest.approx(1.0, abs=1e-9)

    def test_floor_violation_detected(self):
        records = [
            synth_record(alpha=1.2, n=n, trial=t, s_min=0.01 * math.sqrt(n))
            for n in (100, 200, 400)
            for t in range(5)
        ]
        rep = bracket_check(fit_scaling(records, 1.2))
        assert rep.floor_violations == [100, 200, 400]

    def test_rejects_finite_variance_alpha(self):
        records = [
            synth_record(alpha=2.5, n=n, trial=t, s_min=n**0.5)
            for n in (100, 200, 400)
            for t in range(5)
        ]
        with pytest.raises(ValueError):
            bracket_check(fit_scaling(records, 2.5))


class TestTransitionScan:
    def _records(self):
        recs = []
        for t in range(6):
            recs.append(synth_record(alpha=1.0, n=100, trial=t, threshold_mass=0.95, min_mass=0.1, ipr=0.5))
            recs.append(synth_record(alpha=3.0, n=100, trial=t, threshold_mass=0.05, min_mass=0.9, ipr=0.02))
        return recs

    def test_crossing_found(self):
        table = transition_scan(self._records(), c=1.0, epsilon=0.1, delta=0.25)
        assert [r.alpha for r in table.rows] == [1.0, 3.0]
        assert table.crossing_alpha == 3.0
        assert table.midpoint == pytest.approx(0.5, rel=1e-9)
        low, high = table.rows
        assert low.theorem_mass_fraction == 1.0  # 0.95 >= 0.75
        assert high.theorem_mass_fraction == 0.0

    def test_degenerate_excluded(self):
        recs = self._records()
        recs.append(
            synth_record(alpha=1.0, n=100, trial=99, threshold_mass=0.0, min_mass=0.0, degenerate=True)
        )
        table = transition_scan(recs, c=1.0, epsilon=0.1, delta=0.25)
        low = [r for r in table.rows if r.alpha == 1.0][0]
        assert low.trials == 7 and low.used == 6
        assert low.median_threshold_mass == 0.95  # degenerate record did not dilute

    def test_all_degenerate_cell_uses_every_vector(self):
        recs = [
            synth_record(alpha=1.0, n=100, trial=t, threshold_mass=0.1 * (t + 1),
                         min_mass=0.2 * (t + 1), ipr=0.05 * (t + 1), degenerate=True)
            for t in range(3)
        ]
        row = transition_scan(recs, c=1.0, epsilon=0.1, delta=0.25).rows[0]
        assert row.trials == row.used == 3
        assert row.median_threshold_mass == pytest.approx(0.2)
        assert row.median_min_mass == pytest.approx(0.4)
        assert row.median_ipr == pytest.approx(0.1)

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            transition_scan(self._records(), c=1.0, epsilon=0.1, delta=1.5)


class TestBaiYin:
    def test_limit_comparison(self):
        recs = [
            synth_record(alpha=3.0, n=100, trial=t, s_min=0.3 * math.sqrt(200), law_kind="symmetric_pareto")
            for t in range(10)
        ]
        rep = baiyin_check(recs)
        assert rep.limit == pytest.approx(1 - math.sqrt(0.5), rel=1e-12)
        assert rep.mean_ratio == pytest.approx(0.3, rel=1e-12)
        assert rep.abs_deviation == pytest.approx(abs(0.3 - rep.limit), rel=1e-9)
        assert rep.per_n == [(100, pytest.approx(0.3))]

    def test_rejects_heavy_tail(self):
        with pytest.raises(ValueError, match="finite variance"):
            baiyin_check([synth_record(alpha=1.2, n=100, trial=0)])

    def test_gaussian_label_accepted(self):
        recs = [
            synth_record(alpha=math.inf, n=100, trial=t, s_min=0.29 * math.sqrt(200), law_kind="gaussian")
            for t in range(3)
        ]
        assert baiyin_check(recs).trials == 3

    def test_rejects_mixed_aspect(self):
        recs = [
            synth_record(alpha=3.0, n=100, trial=0, aspect=2.0),
            synth_record(alpha=3.0, n=100, trial=1, aspect=3.0),
        ]
        with pytest.raises(ValueError, match="aspect"):
            baiyin_check(recs)
        with pytest.raises(ValueError, match="no records"):
            baiyin_check([])


class TestKthVectorScan:
    def test_rows_and_regime_flag(self):
        recs = [
            synth_record(alpha=1.2, n=100, trial=t, k_vectors=2, threshold_mass=0.7, min_mass=0.2)
            for t in range(4)
        ]
        rows = kth_vector_scan(recs, c=1.0, epsilon=0.1, regime_b=0.2)
        assert [(r.k, r.in_regime) for r in rows] == [(1, True), (2, True)]
        # 100**(1 - 2*0.49) = 100**0.02 ~ 1.096: k=2 is out of the window
        rows = kth_vector_scan(recs, c=1.0, epsilon=0.1, regime_b=0.49)
        assert [(r.k, r.in_regime) for r in rows] == [(1, True), (2, False)]
        assert rows[0].median_threshold_mass == 0.7

    def test_degenerate_counted(self):
        recs = [
            synth_record(alpha=1.2, n=100, trial=t, k_vectors=2, degenerate=(t == 0))
            for t in range(4)
        ]
        rows = kth_vector_scan(recs, c=1.0, epsilon=0.1)
        assert rows[0].degenerate == 1 and rows[0].used == 3

    def test_all_degenerate_cell_uses_every_vector(self):
        recs = [
            synth_record(alpha=1.2, n=100, trial=t, s_min=float(t + 1), k_vectors=2,
                         threshold_mass=0.1 * (t + 1), min_mass=0.2 * (t + 1), degenerate=True)
            for t in range(3)
        ]
        rows = kth_vector_scan(recs, c=1.0, epsilon=0.1)
        assert [(r.k, r.used, r.degenerate) for r in rows] == [(1, 3, 3), (2, 3, 3)]
        assert rows[0].median_value == pytest.approx(2.0)
        assert rows[1].median_value == pytest.approx(2.2)
        assert rows[0].median_threshold_mass == pytest.approx(0.2)
        assert rows[1].median_min_mass == pytest.approx(0.4)

    def test_regime_b_validated(self):
        with pytest.raises(ValueError):
            kth_vector_scan([], c=1.0, epsilon=0.1, regime_b=0.5)
