"""Command line interface.

Exit codes: 0 success; 1 usage or validation error; 2 numerical failure,
which includes an unsound or vacuous certificate and any sweep trial that
failed; 3 I/O error (missing, unreadable, or malformed files).

Every command emits its fully resolved configuration, either inside its
JSON output, as a sidecar meta file, or on stderr when stdout carries the
payload. Command line flags win over config file values.

Each command imports only the svlab modules it runs: generate loads
ensemble and matrixio; spectra loads matrixio, spectra and _lapack;
localize adds localization (and svgplot with --plot), certify adds
certificates, plot adds svgplot; sweep and report load experiments.
"""
from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import math
import sys
from pathlib import Path

from . import __version__


def _forward(module: str, name: str):
    """svlab.<module>.<name> behind a function that imports that module when first called."""

    def forward(*args, **kwargs):
        return getattr(importlib.import_module(f"svlab.{module}"), name)(*args, **kwargs)

    forward.__name__ = forward.__qualname__ = name
    return forward


# perfbench wraps these attributes of svlab.cli, so the commands call through
# them. Every other svlab name a command needs, it imports where it runs.
sample_matrix = _forward("ensemble", "sample_matrix")
full_svd = _forward("spectra", "full_svd")
localization_report = _forward("localization", "localization_report")
upper_certificate = _forward("certificates", "upper_certificate")
save_matrix = _forward("matrixio", "save_matrix")
load_matrix = _forward("matrixio", "load_matrix")
read_records = _forward("experiments", "read_records")
transition_scan = _forward("experiments", "transition_scan")
kth_vector_scan = _forward("experiments", "kth_vector_scan")
fit_scaling = _forward("experiments", "fit_scaling")
bracket_check = _forward("experiments", "bracket_check")
line_chart = _forward("svgplot", "line_chart")
vector_profile = _forward("svgplot", "vector_profile")

# --law's choices: LawKind's values, and "pareto" for symmetric_pareto.
_LAW_NAMES = {"gaussian": "gaussian", "pareto": "symmetric_pareto", "student_t": "student_t",
              "symmetric_pareto": "symmetric_pareto"}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2
        raise UsageError(message)


def _number_list(text: str, kind: type = float) -> list:
    try:
        vals = [kind(p) for p in text.split(",") if p.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"expected a comma-separated {kind.__name__} list, got {text!r}") from exc
    if not vals:
        raise UsageError(f"empty list: {text!r}")
    return vals


def _emit(obj: dict, path: str | None) -> None:
    """Print obj as indented JSON, or write it to path and echo obj["config"] on stdout."""
    text = json.dumps(obj, indent=2)
    if path:
        Path(path).write_text(text + "\n", encoding="ascii")
        print(json.dumps(obj["config"]))
    else:
        print(text)


def _law_from_args(args):
    from .ensemble import LawKind, TailLaw

    kind = LawKind(_LAW_NAMES[args.law])
    if kind is not LawKind.GAUSSIAN and not (args.alpha and args.alpha > 0):
        raise UsageError(f"law {args.law} needs --alpha > 0 (tail index)")
    return TailLaw(
        kind,
        alpha=args.alpha if kind is not LawKind.GAUSSIAN else math.inf,
        scale=args.scale,
        normalize_variance=args.normalize_variance,
    )


def cmd_generate(args) -> int:
    from .ensemble import EnsembleConfig
    from .matrixio import save_matrix_csv

    law = _law_from_args(args)
    bounds = law.tail_bounds  # before any file is written: it raises where a constant overflows
    cfg = EnsembleConfig(n=args.n, aspect=args.aspect, law=law, seed=args.seed)
    x = sample_matrix(cfg)
    save_matrix(x, args.out)
    if args.csv:
        save_matrix_csv(x, args.csv)
    meta = {
        "command": "generate",
        "n": cfg.n,
        "aspect": cfg.aspect,
        "rows": cfg.rows,
        "seed": cfg.seed,
        "law": dataclasses.asdict(law),
        "tail_bounds": None if bounds is None else dataclasses.asdict(bounds),
        "out": str(args.out),
        "csv": str(args.csv) if args.csv else None,
        "package_version": __version__,
    }
    Path(str(args.out) + ".meta.json").write_text(json.dumps(meta, indent=2) + "\n", encoding="ascii")
    print(json.dumps(meta))
    return 0


def cmd_spectra(args) -> int:
    x = load_matrix(args.input)
    res = full_svd(x, k_bottom=args.k)
    out = {
        "command": "spectra",
        "config": {"in": str(args.input), "k": args.k},
        "shape": list(x.shape),
        "singular_values": res.singular_values.tolist(),
        "bottom_right_vectors": res.bottom_right_vectors.tolist(),
        "top_right_vector": res.top_right_vector.tolist(),
        "residuals": res.residuals.tolist(),
        "tolerance_used": res.tolerance_used,
        "degenerate_flags": res.degenerate_flags,
        "s_min": res.s_min,
        "s_top": res.s_top,
        "method": res.method,
    }
    _emit(out, args.out)
    return 0


def cmd_localize(args) -> int:
    from .localization import C_GRID, EPSILONS, localization_entries

    c_grid = C_GRID if args.c_grid is None else args.c_grid
    epsilons = EPSILONS if args.epsilons is None else args.epsilons
    x = load_matrix(args.input)
    res = full_svd(x, k_bottom=args.k)
    config = {
        "command": "localize",
        "in": str(args.input),
        "k": args.k,
        "c_grid": c_grid,
        "epsilons": epsilons,
        "out": str(args.out) if args.out else None,
        "plot": str(args.plot) if args.plot else None,
    }
    entries = localization_entries(res, c_grid, epsilons)
    lines = [json.dumps(entry, separators=(",", ":")) for entry in entries]
    if args.out:
        Path(args.out).write_text("\n".join(lines) + "\n", encoding="ascii")
        print(json.dumps(config))
    else:
        print(json.dumps(config), file=sys.stderr)
        for line in lines:
            print(line)
    if args.plot:
        Path(args.plot).write_text(
            vector_profile(res.bottom_right_vectors[0], title="bottom singular vector profile"),
            encoding="ascii",
        )
    return 0


def cmd_certify(args) -> int:
    from .certificates import TAU_PARAMS, certificate_cutoff

    b_frak = TAU_PARAMS[0] if args.b_frak is None else args.b_frak
    a_frak = TAU_PARAMS[1] if args.a_frak is None else args.a_frak
    x = load_matrix(args.input)
    if args.tau is not None:
        tau, note = args.tau, ""
        tau_source = "explicit"
    else:
        if args.alpha is None:
            raise UsageError("certify needs either --tau or --alpha (the tail index that sets the cutoff)")
        # The sweep's rule: the auto cutoff below alpha = 2, the census cutoff elsewhere.
        tau, note = certificate_cutoff(x.shape[0], args.alpha, args.c_upper, (b_frak, a_frak))
        tau_source = "auto"
    res = full_svd(x)
    report = upper_certificate(x, tau, res).with_note(note)
    out = {
        "command": "certify",
        "config": {
            "in": str(args.input),
            "tau": tau,
            "tau_source": tau_source,
            "alpha": args.alpha,
            "b_frak": b_frak,
            "a_frak": a_frak,
            "c_upper": args.c_upper,
        },
        **dataclasses.asdict(report),
    }
    _emit(out, args.out)
    return 0 if report.valid else 2


def _config_from_file(path: str, args):
    from .experiments import SweepConfig
    from .matrixio import MatrixFormatError

    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MatrixFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise UsageError(f"{path}: sweep config must be a JSON object")
    known = {f.name for f in dataclasses.fields(SweepConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise UsageError(f"unknown sweep config keys: {', '.join(unknown)}")
    # Flags win over file values: each sweep flag named by a SweepConfig field.
    merged = dict(raw)
    for key in known:
        if getattr(args, key, None) is not None:
            merged[key] = getattr(args, key)
    if args.law:
        merged["law_kind"] = _LAW_NAMES[args.law]
    try:
        return SweepConfig(**merged)
    except TypeError as exc:
        raise UsageError(f"bad sweep config: {exc}") from exc


def cmd_sweep(args) -> int:
    from .experiments import run_sweep, write_fits, write_manifest, write_records, write_summary

    config = _config_from_file(args.config, args)
    if args.workers < 1:
        raise UsageError(f"--workers must be >= 1, got {args.workers}")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    print(json.dumps({"command": "sweep", "resolved_config": config.as_dict(), "workers": args.workers}))
    records, failures, elapsed = run_sweep(config, workers=args.workers)
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
    print(
        json.dumps(
            {
                "records": len(records),
                "failures": len(failures),
                "elapsed_seconds": round(elapsed, 3),
                "out_dir": str(out_dir),
            }
        )
    )
    return 2 if failures else 0


def _table(rows: list) -> tuple[list[str], list[tuple]]:
    """A report table whose columns are the fields of its rows' dataclass, in field order."""
    return [f.name for f in dataclasses.fields(rows[0])], [dataclasses.astuple(r) for r in rows]


def cmd_report(args) -> int:
    from .experiments import baiyin_check, write_csv

    records = read_records(args.records)
    if not records:
        raise ValueError(f"no records in {args.records}")
    # Each kind sets its table, its summary and its chart (the series and
    # line_chart's keywords); a kind with no series draws nothing. Every scan
    # runs before anything is written, so a rejected report leaves no trace.
    series, chart = [], {}
    if args.kind == "transition":
        table = transition_scan(records, args.c, args.epsilon, args.delta)
        header, rows = _table(table.rows)
        summary = {"rows": len(table.rows), "midpoint": table.midpoint,
                   "crossing_alpha": table.crossing_alpha}
        n_star = max(r.n for r in table.rows)
        curve = [r for r in table.rows if r.n == n_star and math.isfinite(r.alpha)]
        xs = [r.alpha for r in curve]
        series = [("median min-mass", xs, [r.median_min_mass for r in curve]),
                  ("median threshold mass", xs, [r.median_threshold_mass for r in curve])]
        chart = {"title": f"localization transition (n={n_star}, c={args.c:g}, eps={args.epsilon:g})",
                 "x_label": "tail index alpha", "y_label": "mass"}
    elif args.kind == "scaling":
        if args.alpha is None:
            raise UsageError("report --kind scaling needs --alpha")
        fit = fit_scaling(records, args.alpha)
        summary = dataclasses.asdict(fit)
        del summary["ns"], summary["medians"]  # they are the table
        header = ["n", "median_s_min"]
        rows = [[n, m] for n, m in zip(fit.ns, fit.medians)]
        if 0 < fit.alpha < 2:
            bracket = bracket_check(fit, floor_coeff=args.floor, slack=args.slack)
            summary["bracket"] = dataclasses.asdict(bracket)
            header.append("envelope_ratio")
            for row, (_, ratio) in zip(rows, bracket.envelope_ratios):
                row.append(ratio)
        xs = list(map(float, fit.ns))
        fit_ys = [math.exp(fit.intercept) * n**fit.slope for n in fit.ns]
        series = [("median s_min", xs, fit.medians), (f"fit slope {fit.slope:.3f}", xs, fit_ys)]
        chart = {"title": f"smallest singular value scaling, alpha={fit.alpha:g}",
                 "x_label": "n", "y_label": "median s_min", "log_x": True, "log_y": True}
    elif args.kind == "baiyin":
        rep = baiyin_check(records)
        summary = dataclasses.asdict(rep)
        header = ["n", "mean_ratio", "limit"]
        rows = [[n, v, rep.limit] for n, v in rep.per_n]
        xs = [float(n) for n, _ in rep.per_n]
        series = [("mean s_min/sqrt(N)", xs, [v for _, v in rep.per_n]), ("limit", xs, [rep.limit] * len(xs))]
        chart = {"title": f"finite-variance limit check, aspect={rep.aspect:g}",
                 "x_label": "n", "y_label": "s_min / sqrt(N)"}
    else:  # kth; argparse choices admit no other kind
        scan = kth_vector_scan(records, args.c, args.epsilon, regime_b=args.regime_b)
        if not scan:  # records that keep no value have no kth row
            raise ValueError(f"no kth_values in {args.records}")
        header, rows = _table(scan)
        summary = {"rows": len(scan)}
    svg = line_chart(series, **chart) if series and len(series[0][1]) >= 2 else None

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = {
        "command": "report",
        "kind": args.kind,
        "records": str(args.records),
        "c": args.c,
        "epsilon": args.epsilon,
        "delta": args.delta,
        "alpha": args.alpha,
        "floor": args.floor,
        "slack": args.slack,
        "regime_b": args.regime_b,
        "out_dir": str(out_dir),
    }
    print(json.dumps(config))
    write_csv(out_dir / f"{args.kind}.csv", header, rows)
    if svg is not None:
        (out_dir / f"{args.kind}.svg").write_text(svg, encoding="ascii")
    print(json.dumps({"kind": args.kind, "summary": summary}))
    return 0


def cmd_plot(args) -> int:
    x = load_matrix(args.input)
    res = full_svd(x, k_bottom=args.k)
    svg = vector_profile(
        res.bottom_right_vectors[args.k - 1],
        title=f"bottom vector k={args.k} (s={res.singular_values[x.shape[1] - args.k]:.6g})",
    )
    Path(args.out).write_text(svg, encoding="ascii")
    print(json.dumps({"command": "plot", "in": str(args.input), "k": args.k, "out": str(args.out)}))
    return 0


def build_parser() -> _Parser:
    p = _Parser(prog="svlab", description=__doc__)
    p.add_argument("--version", action="version", version=f"svlab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="sample a heavy-tailed matrix to a file")
    g.add_argument("--n", type=int, required=True, help="number of columns (>= 2)")
    g.add_argument("--aspect", type=float, default=2.0, help="rows = ceil(aspect * n), aspect > 1")
    g.add_argument("--alpha", type=float, default=None, help="tail index, > 0")
    g.add_argument("--law", choices=sorted(_LAW_NAMES), default="pareto")
    g.add_argument("--scale", type=float, default=1.0)
    g.add_argument("--normalize-variance", action="store_true")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", required=True, help="binary output path")
    g.add_argument("--csv", default=None, help="optional CSV export path")
    g.set_defaults(func=cmd_generate)

    s = sub.add_parser("spectra", help="verified SVD of a stored matrix")
    s.add_argument("--in", dest="input", required=True)
    s.add_argument("--k", type=int, default=1, help="bottom vectors to keep")
    s.add_argument("--out", default=None, help="JSON output path (stdout if omitted)")
    s.set_defaults(func=cmd_spectra)

    l = sub.add_parser("localize", help="localization statistics of bottom vectors")
    l.add_argument("--in", dest="input", required=True)
    l.add_argument("--k", type=int, default=1)
    # --c-grid, --epsilons, --b-frak and --a-frak default to None, so that building the parser
    # loads no computing module; the command takes each default from the module that owns it.
    l.add_argument("--c-grid", type=_number_list)
    l.add_argument("--epsilons", type=_number_list)
    l.add_argument("--out", default=None, help="JSONL output path (stdout if omitted)")
    l.add_argument("--plot", default=None, help="optional SVG profile of the bottom vector")
    l.set_defaults(func=cmd_localize)

    c = sub.add_parser("certify", help="small-column upper certificate for s_min")
    c.add_argument("--in", dest="input", required=True)
    c.add_argument("--tau", type=float, default=None, help="explicit cutoff (wins over --alpha)")
    c.add_argument("--alpha", type=float, default=None, help="tail index: auto cutoff below 2, else census cutoff")
    c.add_argument("--b-frak", type=float)
    c.add_argument("--a-frak", type=float)
    c.add_argument("--c-upper", type=float, default=1.0)
    c.add_argument("--out", default=None, help="JSON output path (stdout if omitted)")
    c.set_defaults(func=cmd_certify)

    w = sub.add_parser("sweep", help="run a Monte Carlo grid from a JSON config")
    w.add_argument("--config", required=True, help="JSON file with SweepConfig fields")
    w.add_argument("--out-dir", required=True)
    w.add_argument("--workers", type=int, default=1)
    w.add_argument("--alphas", type=_number_list, default=None, help="override, comma separated")
    w.add_argument("--ns", type=lambda text: _number_list(text, int), default=None,
                   help="override, comma separated")
    w.add_argument("--aspect", type=float, default=None)
    w.add_argument("--trials-per-cell", type=int, default=None)
    w.add_argument("--base-seed", type=int, default=None)
    w.add_argument("--k-vectors", type=int, default=None)
    w.add_argument("--law", choices=sorted(_LAW_NAMES), default=None)
    w.set_defaults(func=cmd_sweep)

    r = sub.add_parser("report", help="analysis tables and charts from sweep records")
    r.add_argument("--records", required=True, help="records.jsonl from a sweep")
    r.add_argument("--kind", choices=["transition", "scaling", "baiyin", "kth"], required=True)
    r.add_argument("--c", type=float, default=1.0, help="threshold constant for mass statistics")
    r.add_argument("--epsilon", type=float, default=0.1, help="min-mass profile point")
    r.add_argument("--delta", type=float, default=0.25, help="theorem mass level 1 - delta")
    r.add_argument("--alpha", type=float, default=None, help="tail index (scaling report)")
    r.add_argument("--floor", type=float, default=0.3, help="root-n floor coefficient")
    r.add_argument("--slack", type=float, default=0.05, help="exponent bracket slack")
    r.add_argument("--regime-b", type=float, default=0.2, help="k-range exponent for kth report")
    r.add_argument("--out-dir", required=True)
    r.set_defaults(func=cmd_report)

    pl = sub.add_parser("plot", help="SVG coordinate profile of a bottom singular vector")
    pl.add_argument("--in", dest="input", required=True)
    pl.add_argument("--k", type=int, default=1)
    pl.add_argument("--out", required=True)
    pl.set_defaults(func=cmd_plot)
    return p


def _raised(module: str, name: str) -> tuple[type, ...]:
    """(svlab.<module>.<name>,) for an except clause, or () while that module is not loaded,
    since until then nothing can have raised that exception."""
    loaded = sys.modules.get(f"svlab.{module}")
    return () if loaded is None else (getattr(loaded, name),)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (*_raised("matrixio", "MatrixFormatError"), OSError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except _raised("spectra", "SpectralError") as exc:
        print(f"numerical failure: {exc} (worst residual {exc.worst_residual:.3e})", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
