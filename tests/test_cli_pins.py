"""Exact stdout, stderr, exit code and written bytes of every svlab command.

The single-matrix commands read X = diag(3, 4, 9) over one zero row, whose
singular values and vectors are exact on every platform. The report kinds
read the hand-built records of test_csv_bytes; the numbers a least-squares
fit prints come from the library, everything else is literal. SVG files and
sampled matrices are pinned by sha256. Every command runs in a fresh
directory, so the paths it echoes are the relative ones it was given.
"""
import dataclasses
import hashlib
import json
import math
import os

import numpy as np
import pytest

from svlab.cli import main
from svlab.ensemble import simd_target
from svlab.records import bracket_check, fit_scaling, write_records
from svlab.matrixio import save_matrix

from test_csv_bytes import _baiyin_records, _grid_records, _scaling_records
from test_ensemble import _pareto, _pinned
from test_experiments import synth_record


@pytest.fixture()
def run(tmp_path, monkeypatch, capsys):
    """main() in a fresh directory that holds d.svlm; returns (exit code, stdout, stderr)."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help at the terminal width
    save_matrix(np.vstack([np.diag([3.0, 4.0, 9.0]), np.zeros((1, 3))]), "d.svlm")

    def call(*argv):
        code = main(list(argv))
        out, err = capsys.readouterr()
        return code, out, err

    return call


def _text(path):
    with open(path, encoding="ascii", newline="") as fh:
        return fh.read()


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _generate_meta(seed, law, tail_bounds, out, csv):
    return {
        "command": "generate", "n": 4, "aspect": 2.0, "rows": 8, "seed": seed, "law": law,
        "tail_bounds": tail_bounds, "out": out, "csv": csv, "package_version": "0.1.0",
    }


# A Pareto matrix's last bits follow numpy's float64 log and exp loops, so its sha256 is
# keyed by ensemble.simd_target()'s class (as in test_ensemble's SAMPLE_PINS); a Gaussian one is not.
@pytest.mark.parametrize("flags, meta, matrix_sha", [
    (
        ["--alpha", "1.5", "--seed", "1", "--out", "g.svlm"],
        _generate_meta(
            1, {"kind": "symmetric_pareto", "alpha": 1.5, "scale": 1.0, "normalize_variance": False},
            {"alpha": 1.5, "c_lower": 1.0, "c_upper": 1.0, "t_zero": 1.0}, "g.svlm", None,
        ),
        _pareto(
            "d53accc32e9d79e3498d57494a089787d030174819df0034738f383034e2e0b3",
            "10548349964d74dc77bb0b1e6b15fc689b23adc4b84d927888aa9a12e650ae82",
        ),
    ),
    (
        ["--law", "gaussian", "--seed", "2", "--out", "g.svlm", "--csv", "g.csv"],
        _generate_meta(
            2, {"kind": "gaussian", "alpha": math.inf, "scale": 1.0, "normalize_variance": False},
            None, "g.svlm", "g.csv",
        ),
        "69f26c474e6c1e4d9ab7da33394be9ae824452e32e974429cd5e10f436210f8b",
    ),
], ids=["pareto", "gaussian"])
def test_generate(run, flags, meta, matrix_sha):
    assert run("generate", "--n", "4", *flags) == (0, json.dumps(meta) + "\n", "")
    assert _text("g.svlm.meta.json") == json.dumps(meta, indent=2) + "\n"
    assert _sha256("g.svlm") == _pinned(matrix_sha), f"simd class {simd_target()}: sha256 {_sha256('g.svlm')}"


SPECTRA = {
    "command": "spectra",
    "config": {"in": "d.svlm", "k": 2},
    "shape": [4, 3],
    "singular_values": [9.0, 4.0, 3.0],
    "bottom_right_vectors": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
    "top_right_vector": [0.0, 0.0, 1.0],
    "residuals": [0.0, 0.0, 0.0],
    "tolerance_used": 1e-10,
    "degenerate_flags": [False, False],
    "s_min": 3.0,
    "s_top": 9.0,
    "method": "gram",
}


def test_spectra_to_stdout(run):
    assert run("spectra", "--in", "d.svlm", "--k", "2") == (0, json.dumps(SPECTRA, indent=2) + "\n", "")


def test_spectra_to_file_echoes_config(run):
    assert run("spectra", "--in", "d.svlm", "--k", "2", "--out", "s.json") == (
        0, '{"in": "d.svlm", "k": 2}\n', "")
    assert _text("s.json") == json.dumps(SPECTRA, indent=2) + "\n"


# cardinality_bound = n / (c ln n) at n = 3, for each c of the default grid.
BOUNDS = {0.25: 10.922870719522049, 0.5: 5.461435359761024, 1.0: 2.730717679880512,
          2.0: 1.365358839940256, 4.0: 0.682679419970128}


def _localize_line(k, c, epsilons):
    # Bottom vector k is the unit vector e_(k-1); its 1 exceeds sqrt(c ln n / n) for every c but 4.
    hit = c < 4.0
    return json.dumps({
        "k": k, "c": c, "n": 3, "c_threshold": c, "threshold_indices": [k - 1] if hit else [],
        "threshold_mass": 1.0 if hit else 0.0, "cardinality_bound": BOUNDS[c],
        "min_mass_profile": [[e, 1.0] for e in epsilons], "ipr": 1.0, "degenerate": False,
    }, separators=(",", ":")) + "\n"


def test_localize_to_stdout_config_on_stderr(run):
    config = {"command": "localize", "in": "d.svlm", "k": 1, "c_grid": [0.5, 2.0],
              "epsilons": [0.1], "out": None, "plot": None}
    assert run("localize", "--in", "d.svlm", "--c-grid", "0.5,2", "--epsilons", "0.1") == (
        0,
        _localize_line(1, 0.5, [0.1]) + _localize_line(1, 2.0, [0.1]),
        json.dumps(config) + "\n",
    )


def test_localize_to_file_with_plot(run):
    config = {"command": "localize", "in": "d.svlm", "k": 2, "c_grid": [0.25, 0.5, 1.0, 2.0, 4.0],
              "epsilons": [0.05, 0.1, 0.2, 0.3], "out": "l.jsonl", "plot": "l.svg"}
    assert run("localize", "--in", "d.svlm", "--k", "2", "--out", "l.jsonl", "--plot", "l.svg") == (
        0, json.dumps(config) + "\n", "")
    eps = config["epsilons"]
    assert _text("l.jsonl") == "".join(_localize_line(k, c, eps) for k in (1, 2) for c in BOUNDS)
    assert _sha256("l.svg") == "de4826d1da15c04b16e1b8264a54ec8e4c4751431f968df9f31fe2fed42e8052"


def test_certify_to_file_echoes_config(run):
    config = {"in": "d.svlm", "tau": 5.0, "tau_source": "explicit", "alpha": None,
              "b_frak": 0.5, "a_frak": 1.0001, "c_upper": 1.0}
    assert run("certify", "--in", "d.svlm", "--tau", "5", "--out", "c.json") == (
        0, json.dumps(config) + "\n", "")
    assert _text("c.json") == json.dumps({
        "command": "certify", "config": config, "tau": 5.0, "columns": [0, 1], "column_count": 2,
        "minor_op_norm": 4.0, "minor_smin": 3.0, "certified_upper": 3.0, "observed_smin": 3.0,
        "valid": True, "note": "",
    }, indent=2) + "\n"


def test_plot(run):
    assert run("plot", "--in", "d.svlm", "--k", "2", "--out", "p.svg") == (
        0, '{"command": "plot", "in": "d.svlm", "k": 2, "out": "p.svg"}\n', "")
    assert _sha256("p.svg") == "0138b60001da3a39e794ce3e91844a782f3c5f20e1b9dc74cb9a36f0a04b9f5a"


HELP = {
    "generate": """\
usage: svlab generate [-h] --n N [--aspect ASPECT] [--alpha ALPHA]
                      [--law {gaussian,pareto,student_t,symmetric_pareto}]
                      [--scale SCALE] [--normalize-variance] --seed SEED --out
                      OUT [--csv CSV]

options:
  -h, --help            show this help message and exit
  --n N                 number of columns (>= 2)
  --aspect ASPECT       rows = ceil(aspect * n), aspect > 1
  --alpha ALPHA         tail index, > 0
  --law {gaussian,pareto,student_t,symmetric_pareto}
  --scale SCALE
  --normalize-variance
  --seed SEED
  --out OUT             binary output path
  --csv CSV             optional CSV export path
""",
    "spectra": """\
usage: svlab spectra [-h] --in INPUT [--k K] [--out OUT]

options:
  -h, --help  show this help message and exit
  --in INPUT
  --k K       bottom vectors to keep
  --out OUT   JSON output path (stdout if omitted)
""",
    "localize": """\
usage: svlab localize [-h] --in INPUT [--k K] [--c-grid C_GRID]
                      [--epsilons EPSILONS] [--out OUT] [--plot PLOT]

options:
  -h, --help           show this help message and exit
  --in INPUT
  --k K
  --c-grid C_GRID
  --epsilons EPSILONS
  --out OUT            JSONL output path (stdout if omitted)
  --plot PLOT          optional SVG profile of the bottom vector
""",
    "certify": """\
usage: svlab certify [-h] --in INPUT [--tau TAU] [--alpha ALPHA]
                     [--b-frak B_FRAK] [--a-frak A_FRAK] [--c-upper C_UPPER]
                     [--out OUT]

options:
  -h, --help         show this help message and exit
  --in INPUT
  --tau TAU          explicit cutoff (wins over --alpha)
  --alpha ALPHA      tail index: auto cutoff below 2, else census cutoff
  --b-frak B_FRAK
  --a-frak A_FRAK
  --c-upper C_UPPER
  --out OUT          JSON output path (stdout if omitted)
""",
    "sweep": """\
usage: svlab sweep [-h] --config CONFIG --out-dir OUT_DIR [--workers WORKERS]
                   [--alphas ALPHAS] [--ns NS] [--aspect ASPECT]
                   [--trials-per-cell TRIALS_PER_CELL] [--base-seed BASE_SEED]
                   [--k-vectors K_VECTORS]
                   [--law {gaussian,pareto,student_t,symmetric_pareto}]

options:
  -h, --help            show this help message and exit
  --config CONFIG       JSON file with SweepConfig fields
  --out-dir OUT_DIR
  --workers WORKERS
  --alphas ALPHAS       override, comma separated
  --ns NS               override, comma separated
  --aspect ASPECT
  --trials-per-cell TRIALS_PER_CELL
  --base-seed BASE_SEED
  --k-vectors K_VECTORS
  --law {gaussian,pareto,student_t,symmetric_pareto}
""",
    "report": """\
usage: svlab report [-h] --records RECORDS --kind
                    {transition,scaling,baiyin,kth} [--c C]
                    [--epsilon EPSILON] [--delta DELTA] [--alpha ALPHA]
                    [--floor FLOOR] [--slack SLACK] [--regime-b REGIME_B]
                    --out-dir OUT_DIR

options:
  -h, --help            show this help message and exit
  --records RECORDS     records.jsonl from a sweep
  --kind {transition,scaling,baiyin,kth}
  --c C                 threshold constant for mass statistics
  --epsilon EPSILON     min-mass profile point
  --delta DELTA         theorem mass level 1 - delta
  --alpha ALPHA         tail index (scaling report)
  --floor FLOOR         root-n floor coefficient
  --slack SLACK         exponent bracket slack
  --regime-b REGIME_B   k-range exponent for kth report
  --out-dir OUT_DIR
""",
    "plot": """\
usage: svlab plot [-h] --in INPUT [--k K] --out OUT

options:
  -h, --help  show this help message and exit
  --in INPUT
  --k K
  --out OUT
""",
}


@pytest.mark.parametrize("command", sorted(HELP))
def test_help(run, capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (HELP[command], "")


def _scaling_alpha3_records():
    return [synth_record(alpha=3.0, n=n, trial=t, s_min=math.sqrt(n) * (0.5 + 0.125 * t))
            for n in (50, 100, 200) for t in range(5)]


def _fit_summary(records, alpha, bracket):
    fit = fit_scaling(records, alpha)
    summary = {"alpha": fit.alpha, "slope": fit.slope, "intercept": fit.intercept,
               "slope_corrected": fit.slope_corrected, "residual_sse": fit.residual_sse}
    if bracket:
        summary["bracket"] = dataclasses.asdict(bracket_check(fit, floor_coeff=0.3, slack=0.05))
    return summary


# kind, records, extra flags, summary, CSV lines when test_csv_bytes does not pin them,
# and the sha256 of the SVG (None: no SVG is written).
REPORTS = [
    ("transition", _grid_records, [], lambda recs: {"rows": 2, "midpoint": 0.4, "crossing_alpha": 1.5},
     None, "931ac1a2ba3b9dd81ff923315c6e94441079efbf7059906c94af3aedf630c7aa"),
    ("kth", _grid_records, [], lambda recs: {"rows": 6}, None, None),
    ("scaling", _scaling_records, ["--alpha", "1.2"], lambda recs: _fit_summary(recs, 1.2, True),
     None, "2878202b8fa8fb2b30a224fb92303fa7b324fbcf3bcb7e8a42787890b78f9656"),
    ("scaling", _scaling_alpha3_records, ["--alpha", "3"], lambda recs: _fit_summary(recs, 3.0, False),
     ["n,median_s_min", "50,5.303300858899107", "100,7.5", "200,10.606601717798213"],
     "020c9d6665935887b4cdd29523fbc56bb861d7ae32958ed1ffdba091153a95f0"),
    ("baiyin", _baiyin_records, [],
     lambda recs: {"aspect": 2.0, "limit": 0.2928932188134524, "mean_ratio": 0.796875,
                   "abs_deviation": 0.5039817811865476, "trials": 6,
                   "per_n": [[8, 0.5625], [32, 1.03125]]},
     None, "6f5dffb0e76093db7325295366d622a3414e0baae6e4d3c28035dc82e5659be8"),
]


@pytest.mark.parametrize("kind, make, flags, summary, csv_lines, svg_sha", REPORTS,
                         ids=[f"{r[0]}{r[2][1] if r[2] else ''}" for r in REPORTS])
def test_report(run, kind, make, flags, summary, csv_lines, svg_sha):
    records = make()
    write_records(records, "r.jsonl")
    config = {"command": "report", "kind": kind, "records": "r.jsonl", "c": 1.0, "epsilon": 0.1,
              "delta": 0.25, "alpha": float(flags[1]) if flags else None, "floor": 0.3, "slack": 0.05,
              "regime_b": 0.2, "out_dir": "rep"}
    stdout = json.dumps(config) + "\n" + json.dumps({"kind": kind, "summary": summary(records)}) + "\n"
    assert run("report", "--records", "r.jsonl", "--kind", kind, "--out-dir", "rep", *flags) == (
        0, stdout, "")
    written = [f"{kind}.csv"] + ([f"{kind}.svg"] if svg_sha else [])
    assert sorted(os.listdir("rep")) == written
    if csv_lines:
        assert _text(f"rep/{kind}.csv") == "\r\n".join(csv_lines + [""])
    if svg_sha:
        assert _sha256(f"rep/{kind}.svg") == svg_sha
