"""One workload process: set up, measure, check, write the result file.

run.py starts this script in a fresh interpreter with the BLAS thread
variables already in its environment, so they hold before numpy loads.
With --setup-only it stops at the end of set-up and reports only the
set-up time, which run.py samples several times per run.

Set-up is everything from the parent's spawn call to the first timed
operation: interpreter start, imports, config and input generation and one
untimed warm-up call.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Chain, Workload, cli_chain, report_argv, sweep_config_kwargs

WRITE_SAMPLES = 3  # the write phase is short, so each repetition times it several times
OVERHEAD_PAIRS = 2  # traced runs repeated untraced on the same inputs
ORACLE_SAMPLES = 2  # trials of the first grid regenerated for the LAPACK oracle
CLI_TIMEOUT_S = 60
IMPORT_SAMPLES = 3


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any child it has waited for.

    Pool workers and CLI processes are children, so this covers them.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


class CliRunner:
    """Runs `svlab` commands, each in its own process, and times them."""

    def __init__(self, ledger):
        self.ledger = ledger

    def __call__(self, argv: list[str]) -> float:
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "svlab.cli", *argv], stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CLI_TIMEOUT_S)
        elapsed = time.perf_counter() - start
        self.ledger.check(proc.returncode == 0,
                          f"svlab {argv[0]} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return elapsed


def run_in_process(argv: list[str], ledger) -> None:
    """svlab.cli.main in this process, its stdout discarded."""
    import svlab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        code = svlab.cli.main(argv)
    ledger.check(code == 0, f"svlab {argv[0]} (in process) exited {code}")


def cli_import_s() -> float:
    """Median time to import svlab.cli in a fresh process."""
    code = ("import time; t = time.perf_counter(); import svlab.cli; "
            "print(time.perf_counter() - t)")
    vals = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=CLI_TIMEOUT_S, check=True)
        vals.append(float(out.stdout.strip()))
    return statistics.median(vals)


# ---------------------------------------------------------------------------
# Sweep workloads


class SweepSession:
    """Repetitions of sweep, write and report, each on a grid with its own seed.

    Sweep cost depends on the matrices (the certificate's power iteration
    converges at a rate set by each minor's spectral gap), so every
    repetition draws new ones and a run averages over all of them. The last
    repetition reruns the first grid, and its records must be byte-identical.
    """

    def __init__(self, w: Workload, seed: int, workdir: Path, ledger):
        import svlab.experiments as ex

        self.w, self.seed, self.workdir, self.ledger, self.ex = w, seed, workdir, ledger, ex
        self.cli = CliRunner(ledger)
        self.first_records: list = []  # the first grid's, sampled for the oracle check
        first = self.config(0)
        ex.run_trial(first, first.alphas[0], first.ns[0], 0)  # warm-up

    def config(self, rep: int):
        return self.ex.SweepConfig(**sweep_config_kwargs(self.w, self.seed, rep))

    def sweep(self, config, workers: int):
        """run_sweep; its trials count as operations, its failures as failed ones."""
        records, failures, _ = self.ex.run_sweep(config, workers=workers)
        self.ledger.count(len(records) + len(failures), len(failures),
                          f"failed trials {[(f['alpha'], f['n'], f['trial_index']) for f in failures]}")
        return records, failures

    def check_trials(self, rep: int, records: list) -> None:
        """Per-record checks between repetitions; the oracle runs at the end.

        Only the first grid's records are kept, so memory does not grow with
        the number of repetitions that fit in a run.
        """
        from checks import check_trials

        check_trials(self.ledger, records)
        if rep == 0:
            self.first_records = records

    def write(self, config, records, failures, elapsed: float, out: Path) -> None:
        """The four outputs `svlab sweep` writes."""
        ex = self.ex
        out.mkdir(parents=True, exist_ok=True)
        ex.write_records(records, out / "records.jsonl")
        ex.write_summary(records, out / "summary.csv")
        fits = []
        for alpha in config.alphas:
            try:
                fits.append(ex.fit_scaling(records, alpha))
            except ValueError:
                continue  # too few n or trials for this alpha, as in `svlab sweep`
        ex.write_fits(fits, out / "fits.csv")
        ex.write_manifest(config, records, failures, elapsed, out / "manifest.json")

    def report_argvs(self, out: Path) -> list[list[str]]:
        return [report_argv(kind, str(out / "records.jsonl"), str(out / "report"))
                for kind in self.w.reports]

    def rep(self, rep: int, workers: int, outputs: bool = False) -> dict:
        """One untraced repetition: the sweep, then its four output files.

        With outputs, the writes are timed several times and the
        `svlab report` commands run on the records, each in its own process.
        """
        config, out = self.config(rep), self.workdir / "sweep"
        rep_start = start = time.perf_counter()
        records, failures = self.sweep(config, workers)
        sweep_s = time.perf_counter() - start
        write_s = []
        for _ in range(WRITE_SAMPLES if outputs else 1):
            start = time.perf_counter()
            self.write(config, records, failures, sweep_s, out)
            write_s.append(time.perf_counter() - start)
        report_s = sum(self.cli(argv) for argv in self.report_argvs(out)) if outputs else 0.0
        wall_s = time.perf_counter() - rep_start
        self.check_trials(rep, records)
        return {"rep": rep, "wall_s": wall_s, "trials": len(records), "sweep_s": sweep_s,
                "write_s": write_s, "report_s": report_s,
                "sha256": sha256_file(out / "records.jsonl"),
                "kib_per_trial": (out / "records.jsonl").stat().st_size / 1024 / len(records)}

    def reps(self, workers: int, seconds: float, outputs: bool = False) -> list[dict]:
        """New grids while there is room for one more and the rerun, then the rerun."""
        start = time.perf_counter()
        reps = [self.rep(0, workers, outputs)]
        while time.perf_counter() - start + 2 * reps[-1]["wall_s"] < seconds:
            reps.append(self.rep(len(reps), workers, outputs))
        reps.append(self.rep(0, workers, outputs))
        self.ledger.check(reps[0]["sha256"] == reps[-1]["sha256"],
                          "records.jsonl differs between two runs of the same grid")
        return reps

    def measure(self, seconds: float) -> dict:
        reps = self.reps(self.w.workers, seconds)
        metrics = {
            # A median, not a ratio of sums: a rare matrix whose certificate
            # iterates for seconds would otherwise move the whole run.
            "trials_per_s": statistics.median(r["trials"] / r["sweep_s"] for r in reps),
            "peak_rss_mb": peak_rss_mb(),
        }
        self.check()
        return {"metrics": metrics, "info": {"repetitions": len(reps)}}

    def check(self) -> None:
        from checks import check_oracle

        check_oracle(self.ledger, self.config(0), self.first_records, self.seed,
                     ORACLE_SAMPLES)

    def measure_traced(self, seconds: float) -> dict:
        """Untraced repetitions, then traced workers=1 ones on the same grids.

        The first traced grids also run untraced with workers=1 right after,
        which gives the tracing overhead on identical matrices.
        """
        from layers import layer_metrics, self_time_table
        from spans import Tracer, instrument_svlab

        untraced = self.reps(self.w.workers, seconds / 2, outputs=True)
        pool_s = statistics.fmean(r["sweep_s"] for r in untraced if r["rep"] == 0)

        tracer = Tracer()
        out = self.workdir / "traced"
        traced: list[dict] = []
        overhead: list[float] = []
        deadline = time.perf_counter() + seconds / 2
        while not traced or time.perf_counter() < deadline:
            config, first_span = self.config(len(traced)), len(tracer.spans)
            with instrument_svlab(tracer):
                start = time.perf_counter()
                records, failures = self.sweep(config, 1)
                elapsed = time.perf_counter() - start
                self.write(config, records, failures, elapsed, out)
                for argv in self.report_argvs(out):
                    run_in_process(argv, self.ledger)
            trial_s = sum(s.duration for s in tracer.spans[first_span:]
                          if s.name == "experiments.run_trial")
            traced.append({"trials": len(records), "trial_s": trial_s})
            if len(traced) == 1:
                self.ledger.check(
                    sha256_file(out / "records.jsonl") == untraced[0]["sha256"],
                    f"records.jsonl differs between the traced workers=1 run and the "
                    f"untraced workers={self.w.workers} run")
            if len(overhead) < OVERHEAD_PAIRS:
                start = time.perf_counter()
                self.sweep(config, 1)
                overhead.append(elapsed / (time.perf_counter() - start))
            self.check_trials(len(traced) - 1, records)
        self.check()

        extra = {
            "parallel_efficiency": traced[0]["trial_s"] / (self.w.workers * pool_s),
            "records_kib_per_trial": untraced[0]["kib_per_trial"],
            "cli_import_s": cli_import_s(),
            "overhead_ratio": statistics.median(overhead),
            "write_outputs_s": statistics.median(t for r in untraced for t in r["write_s"]),
            "report_process_s": statistics.median(r["report_s"] for r in untraced),
        }
        metrics = layer_metrics(tracer.spans, sum(t["trials"] for t in traced), extra)
        return {"metrics": metrics, "tracer": tracer,
                "info": {"self_time_s": self_time_table(tracer.spans)[:8]}}


# ---------------------------------------------------------------------------
# CLI workload


class CliSession:
    """Chains of the five commands, alternating alpha, each on a new matrix."""

    def __init__(self, w: Workload, seed: int, workdir: Path, ledger, in_process: bool):
        self.w, self.seed, self.workdir, self.ledger = w, seed, workdir, ledger
        self.cli = CliRunner(ledger)
        self.chains: list[Chain] = []
        warm = ["generate", "--n", "8", "--alpha", "1.5", "--seed", "1",
                "--out", str(workdir / "warm.svlm")]
        if in_process:
            run_in_process(warm, ledger)  # the traced run calls svlab.cli in this process
        else:
            self.cli(warm)

    def next_chain(self) -> Chain:
        chain = cli_chain(self.w, self.seed, len(self.chains), str(self.workdir))
        self.chains.append(chain)
        return chain

    def measure(self, seconds: float) -> dict:
        """Each command its own process; the metrics average per alpha first."""
        times: dict[float, list[float]] = {a: [] for a in self.w.alphas}
        start = time.perf_counter()
        while (len(self.chains) < len(self.w.alphas)
               or time.perf_counter() - start + times[self.chains[-1].alpha][-1] < seconds):
            chain = self.next_chain()
            times[chain.alpha].append(sum(self.cli(argv) for _, argv in chain.commands))
        peak = peak_rss_mb()

        # Median over each alpha's chains, then the mean over alpha.
        chain_s = statistics.fmean(statistics.median(ts) for ts in times.values())
        metrics = {
            # One matrix through the five-command chain is one trial.
            "trials_per_s": 1.0 / chain_s,
            "peak_rss_mb": peak,
        }
        self.check()
        return {"metrics": metrics, "info": {"chains": len(self.chains), "cli_chain_s": chain_s}}

    def run_in_process(self, chain: Chain) -> float:
        start = time.perf_counter()
        for _, argv in chain.commands:
            run_in_process(argv, self.ledger)
        return time.perf_counter() - start

    def measure_traced(self, seconds: float) -> dict:
        """svlab.cli.main in this process; the first chains run again untraced."""
        from layers import layer_metrics, self_time_table
        from spans import Tracer, instrument_svlab

        tracer = Tracer()
        traced: list[float] = []
        overhead: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(traced) < len(self.w.alphas) or time.perf_counter() < deadline:
            chain = self.next_chain()
            tracer.new_trial()
            with instrument_svlab(tracer):
                traced.append(self.run_in_process(chain))
            if len(overhead) < OVERHEAD_PAIRS:
                overhead.append(traced[-1] / self.run_in_process(chain))
        self.check()
        extra = {"cli_import_s": cli_import_s(), "overhead_ratio": statistics.median(overhead)}
        metrics = layer_metrics(tracer.spans, len(traced), extra)
        return {"metrics": metrics, "tracer": tracer,
                "info": {"self_time_s": self_time_table(tracer.spans)[:8]}}

    def check(self) -> None:
        """Check the files every chain wrote."""
        import numpy as np

        from checks import (check_against_oracle, check_certificate, check_threshold_mass,
                            oracle_values, read_svlm)
        from svlab.ensemble import EnsembleConfig, TailLaw, sample_matrix

        for chain in self.chains:
            label = f"cli chain alpha={chain.alpha:g} seed={chain.seed}"
            x = read_svlm(chain.matrix)
            law = TailLaw("symmetric_pareto", alpha=chain.alpha,
                          normalize_variance=chain.alpha > 2.0)
            expected = sample_matrix(EnsembleConfig(n=x.shape[1], aspect=x.shape[0] / x.shape[1],
                                                    law=law, seed=chain.seed))
            self.ledger.check(np.array_equal(x, expected),
                              f"{label}: stored matrix differs from the sampler's")
            spectra = json.loads(Path(chain.spectra).read_text())
            oracle = oracle_values(x)
            check_against_oracle(self.ledger, label, spectra["s_min"], spectra["s_top"], oracle)
            cert = json.loads(Path(chain.certify).read_text())
            self.ledger.check(cert["valid"], f"{label}: certificate not valid")
            check_certificate(self.ledger, label, cert, float(oracle[-1]), float(oracle[0]))
            entries = [json.loads(line) for line in Path(chain.localize).read_text().splitlines()]
            check_threshold_mass(self.ledger, label, spectra["bottom_right_vectors"], entries)


# ---------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from checks import Ledger

    w = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    ledger = Ledger()
    if w.kind == "sweep":
        session = SweepSession(w, args.seed, workdir, ledger)
    else:
        session = CliSession(w, args.seed, workdir, ledger, in_process=bool(args.trace))
    setup_s = time.monotonic() - args.t0
    result: dict = {"setup_s": setup_s}
    if not args.setup_only:
        from hostinfo import host_record

        out = session.measure_traced(args.seconds) if args.trace else session.measure(args.seconds)
        tracer = out.pop("tracer", None)
        if tracer is not None and args.spans:
            tracer.dump(args.spans)
        result.update(out)
        result["host"] = host_record(w.workers)
    result.update(attempted=ledger.attempted, failed=ledger.failed, messages=ledger.messages)
    Path(args.result).write_text(json.dumps(result), encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
