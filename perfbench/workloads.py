"""Workload definitions and the inputs each one derives from the seed.

The benchmark seed is mixed with the workload name into the sweep base
seed and the matrix seeds, so one ``--seed`` gives the same inputs on every
machine, and svlab only ever sees the generated configs.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "sweep" or "cli"
    alphas: tuple[float, ...]
    ns: tuple[int, ...]
    workers: int = 1
    # `svlab report` kinds a traced run times on each sweep's records.jsonl.
    reports: tuple[str, ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep_heavy",
            why="alpha<2 grid at n up to 800: the SVD of X dominates a trial and few columns "
                "enter the certificate minor",
            kind="sweep",
            alphas=(0.8, 1.2, 1.5),
            ns=(400, 800),
            reports=("transition",),
        ),
        Workload(
            name="sweep_light_w2",
            why="alpha>2 grid through the two-worker process pool: the certificate on a "
                "near-full minor takes most of a trial",
            kind="sweep",
            alphas=(2.5, 3.0, 5.0),
            # Smaller than n=800 on purpose: the certificate's power iteration has a
            # heavy-tailed cost across matrices, and a steady median needs many grids a run.
            ns=(200, 400),
            workers=2,
            reports=("transition", "kth"),
        ),
        Workload(
            name="cli_single",
            why="one n=400 matrix per alpha through generate, spectra, localize, certify and "
                "plot, each its own process as a shell user runs them",
            kind="cli",
            alphas=(1.2, 3.0),
            # n=400 rather than 800 leaves room for several chains per alpha in a run; the
            # certify step at alpha=3 has the same heavy-tailed cost as sweep_light_w2.
            ns=(400,),
        ),
    )
}

ASPECT = 2.0
CENSUS_C = 0.1  # SweepConfig default; the CLI certify cutoff at alpha >= 2 matches it


def mix_seed(*parts) -> int:
    """Stable 63-bit seed from the benchmark seed and labels."""
    key = "|".join(repr(p) for p in parts)
    return int.from_bytes(hashlib.sha256(key.encode("ascii")).digest()[:8], "little") >> 1


def sweep_config_kwargs(w: Workload, seed: int, rep: int) -> dict:
    """SweepConfig arguments for repetition rep of a sweep workload."""
    return dict(
        alphas=w.alphas,
        ns=w.ns,
        aspect=ASPECT,
        trials_per_cell=1,
        base_seed=mix_seed("perfbench", w.name, seed, rep),
        census_c=CENSUS_C,
    )


@dataclass(frozen=True)
class Chain:
    """One matrix through the five CLI commands, and the files they write."""

    alpha: float
    seed: int
    matrix: str
    spectra: str
    localize: str
    certify: str
    plot: str
    commands: tuple[tuple[str, list[str]], ...]


def cli_chain(w: Workload, seed: int, index: int, workdir: str) -> Chain:
    """Chain number index: alphas alternate and every chain samples a new matrix."""
    n, alpha = w.ns[0], w.alphas[index % len(w.alphas)]
    matrix_seed = mix_seed("perfbench", w.name, seed, index)
    files = {kind: f"{workdir}/{kind}_{index}.{ext}" for kind, ext in
             (("x", "svlm"), ("spectra", "json"), ("loc", "jsonl"), ("cert", "json"),
              ("plot", "svg"))}
    x = files["x"]
    generate = ["generate", "--n", str(n), "--aspect", repr(ASPECT), "--alpha", repr(alpha),
                "--seed", str(matrix_seed), "--out", x]
    if alpha > 2.0:
        generate.append("--normalize-variance")  # the law the sweep uses above alpha = 2
    if alpha < 2.0:
        certify = ["certify", "--in", x, "--alpha", repr(alpha)]
    else:
        # The auto cutoff exists only for alpha < 2; use the sweep's census cutoff.
        rows = math.ceil(ASPECT * n)
        certify = ["certify", "--in", x, "--tau", repr(float(rows) ** (0.5 - CENSUS_C))]
    return Chain(
        alpha=alpha, seed=matrix_seed, matrix=x, spectra=files["spectra"],
        localize=files["loc"], certify=files["cert"], plot=files["plot"],
        commands=(
            ("generate", generate),
            ("spectra", ["spectra", "--in", x, "--k", "2", "--out", files["spectra"]]),
            ("localize", ["localize", "--in", x, "--out", files["loc"]]),
            ("certify", certify + ["--out", files["cert"]]),
            ("plot", ["plot", "--in", x, "--out", files["plot"]]),
        ),
    )


def report_argv(kind: str, records: str, out_dir: str) -> list[str]:
    return ["report", "--records", records, "--kind", kind, "--out-dir", out_dir]
