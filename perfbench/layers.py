"""Metric names and units, and the per-layer numbers computed from spans.

END_TO_END and PER_LAYER are the lists BENCHMARK.json declares; a self-test
keeps the two in step. Per-layer time metrics are mean milliseconds per call
of that span; counts are per unit of work (a sweep trial, or one matrix
through the CLI chain), so they do not depend on how many repetitions fit in
a run. A layer a workload never calls reads 0.
"""
from __future__ import annotations

import statistics

from spans import Span, ancestor_named, self_times

END_TO_END = {
    "trials_per_s": "trials/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}

CLI_COMMANDS = ("generate", "spectra", "localize", "certify", "plot", "report")
TRIAL_CHILDREN = {
    "sample_matrix": "ensemble.sample_matrix",
    "full_svd_x": "spectra.full_svd.x",
    "localization": "localization.localization_report",
    "certificate": "certificates.upper_certificate",
    "heavy_census": "certificates.heavy_census",
}

PER_LAYER = {
    "ensemble.sample_matrix.ms": "ms",
    "ensemble.sample_matrix.mb_computed": "MB",
    "spectra.full_svd.x.ms": "ms",
    "spectra.full_svd.minor.ms": "ms",
    "spectra.operator_norm.ms": "ms",
    "spectra.full_svd.calls": "count",
    "spectra.operator_norm.calls": "count",
    "spectra.full_svd.gflop_computed": "GFLOP",
    "localization.localization_report.ms": "ms",
    "localization.localization_report.calls": "count",
    "certificates.upper_certificate.self_ms": "ms",
    "certificates.heavy_census.ms": "ms",
    "certificates.minor_column_fraction": "ratio",
    "certificates.valid_fraction": "ratio",
    "experiments.run_trial.ms_p50": "ms",
    "experiments.run_trial.ms_p90": "ms",
    "experiments.run_trial.samples": "count",
    "experiments.run_trial.self_ms": "ms",
    **{f"experiments.run_trial.share.{k}": "ratio" for k in TRIAL_CHILDREN},
    "experiments.run_sweep.parallel_efficiency": "ratio",
    "experiments.write_outputs_s": "s",
    "experiments.write_records.ms": "ms",
    "experiments.records_kib_per_trial": "KiB",
    "experiments.write_summary.ms": "ms",
    "experiments.read_records.ms": "ms",
    "experiments.transition_scan.ms": "ms",
    "experiments.kth_vector_scan.ms": "ms",
    "matrixio.save_matrix.ms": "ms",
    "matrixio.load_matrix.ms": "ms",
    "matrixio.mb": "MB",
    **{f"cli.{c}.ms": "ms" for c in CLI_COMMANDS},
    **{f"cli.{c}.full_svd_calls": "count" for c in CLI_COMMANDS},
    "cli.import_s": "s",
    "cli.report_process_s": "s",
    "svgplot.ms": "ms",
    "tracing.overhead_ratio": "ratio",
}


def svd_flops(rows: int, cols: int) -> float:
    """Thin SVD with U and V (Golub and Van Loan, R-SVD): 6 m n^2 + 20 n^3."""
    return 6.0 * rows * cols * cols + 20.0 * cols ** 3


def layer_metrics(spans: list[Span], units: int, extra: dict) -> dict:
    """Per-layer metric values from one traced run.

    units is the number of trials (or CLI chains) the traced run covered;
    extra carries the values measured outside the spans.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def calls(name: str) -> int:
        return len(by_name.get(name, []))

    def mean_ms(name: str, use_self: bool = False) -> float:
        idx = by_name.get(name, [])
        if not idx:
            return 0.0
        vals = [selfs[i] if use_self else spans[i].duration for i in idx]
        return 1e3 * sum(vals) / len(vals)

    def per_unit(count: float) -> float:
        return count / units if units else 0.0

    svds = by_name.get("spectra.full_svd.x", []) + by_name.get("spectra.full_svd.minor", [])
    certs = [spans[i] for i in by_name.get("certificates.upper_certificate", [])]
    samples = [spans[i] for i in by_name.get("ensemble.sample_matrix", [])]
    matrix_io = [spans[i] for n in ("matrixio.save_matrix", "matrixio.load_matrix")
                 for i in by_name.get(n, [])]
    trials = by_name.get("experiments.run_trial", [])
    trial_ms = sorted(1e3 * spans[i].duration for i in trials)
    trial_total = sum(spans[i].duration for i in trials)
    plots = [i for n in ("svgplot.line_chart", "svgplot.vector_profile") for i in by_name.get(n, [])]

    m = {
        "ensemble.sample_matrix.ms": mean_ms("ensemble.sample_matrix"),
        # Two float64 uniforms drawn and one float64 entry written per entry.
        "ensemble.sample_matrix.mb_computed": (
            statistics.fmean(24e-6 * s.attrs["rows"] * s.attrs["cols"] for s in samples)
            if samples else 0.0),
        "spectra.full_svd.x.ms": mean_ms("spectra.full_svd.x"),
        "spectra.full_svd.minor.ms": mean_ms("spectra.full_svd.minor"),
        "spectra.operator_norm.ms": mean_ms("spectra.operator_norm"),
        "spectra.full_svd.calls": per_unit(len(svds)),
        "spectra.operator_norm.calls": per_unit(calls("spectra.operator_norm")),
        "spectra.full_svd.gflop_computed": per_unit(
            sum(svd_flops(spans[i].attrs["rows"], spans[i].attrs["cols"]) for i in svds) / 1e9),
        "localization.localization_report.ms": mean_ms("localization.localization_report"),
        "localization.localization_report.calls": per_unit(
            calls("localization.localization_report")),
        "certificates.upper_certificate.self_ms": mean_ms("certificates.upper_certificate", True),
        "certificates.heavy_census.ms": mean_ms("certificates.heavy_census"),
        "certificates.minor_column_fraction": (
            statistics.fmean(c.attrs["column_count"] / c.attrs["cols"] for c in certs)
            if certs else 0.0),
        "certificates.valid_fraction": (
            sum(c.attrs["valid"] for c in certs) / len(certs) if certs else 0.0),
        "experiments.run_trial.ms_p50": statistics.median(trial_ms) if trial_ms else 0.0,
        "experiments.run_trial.ms_p90": (
            statistics.quantiles(trial_ms, n=10, method="inclusive")[-1]
            if len(trial_ms) >= 2 else (trial_ms[0] if trial_ms else 0.0)),
        "experiments.run_trial.samples": float(len(trial_ms)),
        "experiments.run_trial.self_ms": mean_ms("experiments.run_trial", True),
        "experiments.run_sweep.parallel_efficiency": extra.get("parallel_efficiency", 0.0),
        "experiments.write_outputs_s": extra.get("write_outputs_s", 0.0),
        "experiments.write_records.ms": mean_ms("experiments.write_records"),
        "experiments.records_kib_per_trial": extra.get("records_kib_per_trial", 0.0),
        "experiments.write_summary.ms": mean_ms("experiments.write_summary"),
        "experiments.read_records.ms": mean_ms("experiments.read_records"),
        "experiments.transition_scan.ms": mean_ms("experiments.transition_scan"),
        "experiments.kth_vector_scan.ms": mean_ms("experiments.kth_vector_scan"),
        "matrixio.save_matrix.ms": mean_ms("matrixio.save_matrix"),
        "matrixio.load_matrix.ms": mean_ms("matrixio.load_matrix"),
        "matrixio.mb": (statistics.fmean(8e-6 * s.attrs["rows"] * s.attrs["cols"]
                                         for s in matrix_io) if matrix_io else 0.0),
        "cli.import_s": extra.get("cli_import_s", 0.0),
        "cli.report_process_s": extra.get("report_process_s", 0.0),
        "svgplot.ms": (1e3 * sum(spans[i].duration for i in plots) / len(plots)) if plots else 0.0,
        "tracing.overhead_ratio": extra.get("overhead_ratio", 0.0),
    }
    for key, name in TRIAL_CHILDREN.items():
        inside = sum(spans[i].duration for i in by_name.get(name, [])
                     if ancestor_named(spans, i, "experiments.run_trial") is not None)
        m[f"experiments.run_trial.share.{key}"] = inside / trial_total if trial_total else 0.0
    for cmd in CLI_COMMANDS:
        name = f"cli.{cmd}"
        m[f"{name}.ms"] = mean_ms(name)
        inside = sum(1 for i in svds if ancestor_named(spans, i, name) is not None)
        m[f"{name}.full_svd_calls"] = inside / calls(name) if calls(name) else 0.0
    if set(m) != set(PER_LAYER):
        raise RuntimeError(f"per-layer metrics out of step: {sorted(set(m) ^ set(PER_LAYER))}")
    return m


def self_time_table(spans: list[Span]) -> list[tuple[str, float]]:
    """(span name, total self seconds), largest first."""
    totals: dict[str, float] = {}
    for s, t in zip(spans, self_times(spans)):
        totals[s.name] = totals.get(s.name, 0.0) + t
    return sorted(totals.items(), key=lambda kv: -kv[1])
