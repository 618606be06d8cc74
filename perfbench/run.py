"""svlab benchmark entry point.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Runs one workload in a fresh process (session.py) against the svlab sources
under src/ of the checkout this file sits in, samples its set-up time in
further fresh processes, and prints every metric by name and unit. The last
line of standard output is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced in-process run. Exits 1 if an output check,
trial or command failed, and 2 if the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostinfo import THREAD_VARS, oversubscription_warning
from layers import END_TO_END, PER_LAYER
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 3  # the workload process itself plus two set-up-only processes
TIME_LIMIT_S = 170  # a run must end within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_session(args: argparse.Namespace, workdir: Path, deadline: float,
                setup_only: bool, spans: Path | None = None) -> dict:
    result = workdir / ("setup.json" if setup_only else "result.json")
    result.unlink(missing_ok=True)
    cmd = [sys.executable, str(ROOT / "perfbench" / "session.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir / "session"), "--result", str(result)]
    if setup_only:
        cmd.append("--setup-only")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    t0 = time.monotonic()
    # A session of its own, so a timeout or an interrupt can stop the pool
    # workers and svlab processes it started along with it.
    # The session's own output goes to stderr; stdout carries the result.
    with subprocess.Popen(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=sys.stderr, start_new_session=True) as proc:
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except BaseException as exc:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            if isinstance(exc, subprocess.TimeoutExpired):
                raise BenchError(f"{args.workload}: session exceeded the time limit") from exc
            raise
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"{args.workload}: session exited {proc.returncode} without a result")
    return json.loads(result.read_text(encoding="ascii"))


def run_workload(args: argparse.Namespace) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        # Set-up time is an end-to-end metric, so only an untraced run samples it.
        setups = [run_session(args, workdir, deadline, setup_only=True)
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        spans = None
        if args.trace:
            (ROOT / ".perfbench_out").mkdir(exist_ok=True)
            spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        res = run_session(args, workdir, deadline, setup_only=False, spans=spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = res["attempted"] + sum(s["attempted"] for s in setups)
    failed = res["failed"] + sum(s["failed"] for s in setups)
    messages = res["messages"] + [m for s in setups for m in s["messages"]]
    if args.trace:
        units = PER_LAYER
    else:
        units = END_TO_END
        res["metrics"]["setup_s"] = statistics.median([res["setup_s"]] + [s["setup_s"] for s in setups])
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in units.items()}
    return {"host": res["host"], "info": res["info"], "messages": messages,
            "result": {"correct": failed == 0, "attempted": attempted, "failed": failed,
                       "metrics": metrics}}


def print_report(name: str, out: dict) -> None:
    """Human-readable lines; the JSON result line comes after them."""
    host = out["host"]
    print(f"host {json.dumps(host, sort_keys=True)}")
    warning = oversubscription_warning(host)
    if warning:
        print(warning)
    res = out["result"]
    for metric, m in res["metrics"].items():
        print(f"{name}  {metric:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"{name}  {'failed_fraction':<44} {res['failed'] / res['attempted']:>14.6g} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    for key, value in out["info"].items():
        print(f"{name}  info {key} = {json.dumps(value)}")
    for msg in out["messages"]:
        print(f"{name}  FAILED {msg}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "svlab" / "__init__.py").is_file():
        print(f"error: no svlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            out = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print_report(name, out)
            results[name] = out["result"]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
