"""End-to-end command line checks: exit codes, files written, determinism."""
import contextlib
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from svlab import cli
from svlab.cli import main
from svlab.ensemble import EnsembleConfig, TailLaw, LawKind, sample_matrix
from svlab.experiments import SweepConfig, run_sweep
from svlab.matrixio import load_matrix, save_matrix
from svlab.records import write_records
from svlab.spectra import full_svd

from test_csv_bytes import _baiyin_records, _grid_records, _scaling_records
from test_experiments import synth_record

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture()
def stored_matrix(tmp_path):
    law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.2)
    cfg = EnsembleConfig(n=12, aspect=2.0, law=law, seed=314)
    path = tmp_path / "x.svlm"
    save_matrix(sample_matrix(cfg), path)
    return path


class TestExitCodes:
    def test_unknown_command_is_usage(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_required_flag_is_usage(self, capsys):
        assert main(["generate", "--n", "10"]) == 1

    def test_missing_input_file_is_io(self, tmp_path, capsys):
        assert main(["spectra", "--in", str(tmp_path / "nope.svlm")]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_corrupt_input_file_is_io(self, tmp_path, capsys):
        bad = tmp_path / "bad.svlm"
        bad.write_bytes(b"JUNKJUNKJUNKJUNK")
        assert main(["spectra", "--in", str(bad)]) == 3
        assert "i/o error" in capsys.readouterr().err

    def test_bad_value_is_invalid_input(self, tmp_path, capsys):
        out = tmp_path / "x.svlm"
        code = main(["generate", "--n", "1", "--alpha", "1.0", "--seed", "1", "--out", str(out)])
        assert code == 1
        assert "invalid input" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("svlab ")


class TestGenerate:
    def test_deterministic_and_matches_library(self, tmp_path, capsys):
        a, b = tmp_path / "a.svlm", tmp_path / "b.svlm"
        args = ["generate", "--n", "10", "--aspect", "2.0", "--alpha", "1.5", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=1.5)
        direct = sample_matrix(EnsembleConfig(n=10, aspect=2.0, law=law, seed=7))
        assert load_matrix(a).tobytes() == direct.tobytes()

    def test_meta_sidecar_and_stdout(self, tmp_path, capsys):
        out = tmp_path / "x.svlm"
        assert main(["generate", "--n", "8", "--alpha", "1.2", "--seed", "3", "--out", str(out)]) == 0
        printed = json.loads(capsys.readouterr().out)
        sidecar = json.loads((tmp_path / "x.svlm.meta.json").read_text())
        assert printed == sidecar
        assert sidecar["rows"] == 16
        assert sidecar["law"]["kind"] == "symmetric_pareto"
        assert sidecar["tail_bounds"]["alpha"] == 1.2

    def test_csv_export(self, tmp_path, capsys):
        out, csv_path = tmp_path / "x.svlm", tmp_path / "x.csv"
        assert main(["generate", "--n", "6", "--alpha", "1.0", "--seed", "5",
                     "--out", str(out), "--csv", str(csv_path)]) == 0
        rows = csv_path.read_text().strip().splitlines()
        assert len(rows) == 12 and len(rows[0].split(",")) == 6

    def test_student_t_needs_alpha(self, tmp_path, capsys):
        code = main(["generate", "--n", "8", "--law", "student_t", "--seed", "3",
                     "--out", str(tmp_path / "x.svlm")])
        assert code == 1
        assert "--alpha" in capsys.readouterr().err

    def test_student_t_tail_constant_overflow(self, tmp_path, capsys):
        out = tmp_path / "x.svlm"
        assert main(["generate", "--n", "8", "--law", "student_t", "--alpha", "300",
                     "--seed", "3", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "invalid input: student_t alpha=300.0: the tail constant exceeds a double"
        ]
        assert not out.exists()

    @pytest.mark.parametrize("law, alpha", [("symmetric_pareto", "400"), ("student_t", "200")])
    def test_scaled_tail_constant_overflow(self, tmp_path, capsys, law, alpha):
        # scale^alpha = 10^400 overflows a Python float; c_inf * 1.1 * 10^200 overflows to inf.
        out = tmp_path / "a.svlm"
        assert main(["generate", "--n", "4", "--law", law, "--alpha", alpha, "--scale", "10",
                     "--seed", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"invalid input: {law} alpha={float(alpha)} scale=10.0: the tail constant exceeds a double"
        ]
        assert not out.exists() and not (tmp_path / "a.svlm.meta.json").exists()

    def test_gaussian_ignores_alpha(self, tmp_path, capsys):
        out = tmp_path / "g.svlm"
        assert main(["generate", "--n", "8", "--law", "gaussian", "--seed", "3",
                     "--out", str(out)]) == 0
        meta = json.loads((tmp_path / "g.svlm.meta.json").read_text())
        assert meta["law"]["alpha"] == math.inf
        assert meta["tail_bounds"] is None


class TestSpectra:
    def test_stdout_json_matches_library(self, stored_matrix, capsys):
        assert main(["spectra", "--in", str(stored_matrix), "--k", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        res = full_svd(load_matrix(stored_matrix), k_bottom=2)
        assert out["shape"] == [24, 12]
        assert out["s_min"] == res.s_min
        assert out["singular_values"] == [float(v) for v in res.singular_values]
        assert out["bottom_right_vectors"][1] == [float(v) for v in res.bottom_right_vectors[1]]
        assert out["residuals"] == [float(v) for v in res.residuals]
        assert out["method"] == res.method

    def test_out_file(self, stored_matrix, tmp_path, capsys):
        dest = tmp_path / "spec.json"
        assert main(["spectra", "--in", str(stored_matrix), "--out", str(dest)]) == 0
        payload = json.loads(dest.read_text())
        assert payload["command"] == "spectra"
        echoed = json.loads(capsys.readouterr().out)
        assert echoed == {"in": str(stored_matrix), "k": 1}


class TestLocalize:
    def test_jsonl_lines(self, stored_matrix, tmp_path, capsys):
        dest = tmp_path / "loc.jsonl"
        assert main(["localize", "--in", str(stored_matrix), "--k", "2",
                     "--c-grid", "0.5,1", "--epsilons", "0.1,0.3", "--out", str(dest)]) == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 4  # k in {1,2} x c in {0.5,1}
        first = json.loads(lines[0])
        assert first["k"] == 1 and first["c"] == 0.5 and first["n"] == 12
        assert {"threshold_mass", "min_mass_profile", "ipr"} <= set(first)

    def test_stdout_payload_with_stderr_config(self, stored_matrix, capsys):
        assert main(["localize", "--in", str(stored_matrix), "--c-grid", "1"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.err)["command"] == "localize"
        assert len(captured.out.strip().splitlines()) == 1

    def test_plot_sidecar(self, stored_matrix, tmp_path, capsys):
        svg = tmp_path / "profile.svg"
        assert main(["localize", "--in", str(stored_matrix), "--c-grid", "1",
                     "--out", str(tmp_path / "l.jsonl"), "--plot", str(svg)]) == 0
        text = svg.read_text()
        assert text.startswith("<svg") and 'class="bar"' in text

    def test_bad_grid_is_usage(self, stored_matrix, capsys):
        assert main(["localize", "--in", str(stored_matrix), "--c-grid", "a,b"]) == 1

    @pytest.mark.parametrize("grid, error", [
        ("0", "invalid input: c must be finite and > 0, got 0.0"),
        (",", "usage error: empty list: ','"),
    ])
    def test_empty_or_nonpositive_grid_exits_1(self, stored_matrix, capsys, grid, error):
        assert main(["localize", "--in", str(stored_matrix), "--c-grid", grid]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == error + "\n"


class TestCertify:
    def test_explicit_tau_valid(self, stored_matrix, capsys):
        assert main(["certify", "--in", str(stored_matrix), "--tau", "50.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is True
        assert out["config"]["tau_source"] == "explicit"
        assert out["certified_upper"] >= out["observed_smin"]

    def test_auto_tau_from_alpha(self, stored_matrix, capsys):
        assert main(["certify", "--in", str(stored_matrix), "--alpha", "1.2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["tau_source"] == "auto"
        n_rows = 24
        budget = 0.5 * math.log(n_rows) / (1.0001 * 1.0)
        assert out["config"]["tau"] == pytest.approx((n_rows / budget) ** (1 / 1.2), rel=1e-12)

    def test_vacuous_is_numerical_failure(self, stored_matrix, capsys):
        # Pareto magnitudes are >= 1, so no column survives tau = 0.5.
        assert main(["certify", "--in", str(stored_matrix), "--tau", "0.5"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["valid"] is False and "vacuous" in out["note"]

    def test_needs_tau_or_alpha(self, stored_matrix, capsys):
        assert main(["certify", "--in", str(stored_matrix)]) == 1
        assert "--tau or --alpha" in capsys.readouterr().err

    @pytest.mark.parametrize("tau, columns, op_norm, smin, code", [
        (5.0, [0, 1], 4.0, 3.0, 0),
        (3.5, [0], 3.0, 3.0, 0),
        (0.5, [], math.inf, math.inf, 2),
    ])
    def test_whole_output_on_exact_spectrum(self, tmp_path, capsys, tau, columns, op_norm, smin, code):
        # diag(3, 4, 9) over a zero row: every singular value is exact.
        path = tmp_path / "d.svlm"
        save_matrix(np.vstack([np.diag([3.0, 4.0, 9.0]), np.zeros((1, 3))]), path)
        assert main(["certify", "--in", str(path), "--tau", str(tau)]) == code
        assert json.loads(capsys.readouterr().out) == {
            "command": "certify",
            "config": {
                "in": str(path),
                "tau": tau,
                "tau_source": "explicit",
                "alpha": None,
                "b_frak": 0.5,
                "a_frak": 1.0001,
                "c_upper": 1.0,
            },
            "tau": tau,
            "columns": columns,
            "column_count": len(columns),
            "minor_op_norm": op_norm,
            "minor_smin": smin,
            "certified_upper": smin,
            "observed_smin": 3.0,
            "valid": code == 0,
            "note": "" if columns else "no columns below tau; certificate vacuous",
        }


    def test_alpha_above_two_takes_census_cutoff(self, tmp_path, capsys):
        path = tmp_path / "x.svlm"
        law = TailLaw(LawKind.SYMMETRIC_PARETO, alpha=3.0)
        save_matrix(sample_matrix(EnsembleConfig(n=12, aspect=2.0, law=law, seed=5)), path)
        assert main(["certify", "--in", str(path), "--alpha", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["config"]["tau"] == out["tau"] == 24.0**0.4
        assert out["config"]["tau_source"] == "auto"
        assert out["note"] == "finite-variance regime: census cutoff"


class TestRecordRoundTrip:
    """generate, spectra and certify rebuild a sweep record's spectrum and certificate bit for bit."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_records_reproduce(self, tmp_path, capsys, normalize):
        config = SweepConfig(alphas=(1.2, 3.0), ns=(30,), aspect=2.0, trials_per_cell=3, base_seed=11,
                             normalize_variance=normalize)
        records, fails, _ = run_sweep(config)
        assert not fails
        partial = 0
        for i, rec in enumerate(records):
            path = tmp_path / f"x{i}.svlm"
            flags = ["--normalize-variance"] if normalize and rec.alpha > 2 else []
            assert main(["generate", "--n", str(rec.n), "--aspect", str(rec.aspect), "--alpha", str(rec.alpha),
                         "--seed", str(rec.seed), "--out", str(path)] + flags) == 0
            capsys.readouterr()
            assert main(["spectra", "--in", str(path)]) == 0
            spectra = json.loads(capsys.readouterr().out)
            assert (spectra["s_min"], spectra["s_top"]) == (rec.s_min, rec.s_top)
            code = main(["certify", "--in", str(path), "--alpha", str(rec.alpha)])
            assert code == (0 if rec.certificate["valid"] else 2)
            certify = json.loads(capsys.readouterr().out)
            del certify["command"], certify["config"]
            assert certify == rec.certificate
            partial += 2 <= rec.certificate["column_count"] < rec.n
        assert partial >= 2  # the minor's G[J, J] route ran on both sides


def write_sweep_config(path, **overrides):
    cfg = {
        "alphas": [1.2, 3.0],
        "ns": [12],
        "aspect": 2.0,
        "trials_per_cell": 2,
        "base_seed": 11,
        "c_grid": [1.0],
        "epsilons": [0.1],
    }
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


class TestSweep:
    def test_outputs_and_byte_identity_across_workers(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path / "cfg.json")
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(d1)]) == 0
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(d2), "--workers", "2"]) == 0
        for name in ("records.jsonl", "summary.csv", "fits.csv", "manifest.json"):
            assert (d1 / name).exists()
        assert (d1 / "records.jsonl").read_bytes() == (d2 / "records.jsonl").read_bytes()
        assert (d1 / "summary.csv").read_bytes() == (d2 / "summary.csv").read_bytes()
        lines = capsys.readouterr().out.strip().splitlines()
        head = json.loads(lines[0])
        assert head["resolved_config"]["base_seed"] == 11
        tail = json.loads(lines[1])
        assert tail["records"] == 4 and tail["failures"] == 0

    def test_flags_override_file(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path / "cfg.json")
        dest = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest),
                     "--base-seed", "77", "--alphas", "1.5", "--trials-per-cell", "1"]) == 0
        manifest = json.loads((dest / "manifest.json").read_text())
        assert manifest["config"]["base_seed"] == 77
        assert manifest["config"]["alphas"] == [1.5]
        records = (dest / "records.jsonl").read_text().strip().splitlines()
        assert len(records) == 1
        assert json.loads(records[0])["seed"] != 11  # derived from the overridden base seed

    @pytest.mark.parametrize("flag, kind", [("student_t", "student_t"), ("pareto", "symmetric_pareto")])
    def test_law_flag_overrides_file(self, tmp_path, capsys, flag, kind):
        cfg = write_sweep_config(tmp_path / "cfg.json", law_kind="gaussian", alphas=[1.5], trials_per_cell=1)
        dest = tmp_path / "run"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest), "--law", flag]) == 0
        assert json.loads((dest / "manifest.json").read_text())["config"]["law_kind"] == kind
        assert json.loads((dest / "records.jsonl").read_text())["law_kind"] == kind

    @pytest.mark.parametrize("text, message", [
        ("[1, 2]", "sweep config must be a JSON object"),
        ('{"alphas": [1.2], "aspect": 2.0, "trials_per_cell": 2, "base_seed": 11}',
         "bad sweep config: SweepConfig.__init__() missing 1 required positional argument: 'ns'"),
    ])
    def test_config_not_a_sweep_is_usage(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        dest = tmp_path / "d"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: ") and message in captured.err
        assert not dest.exists()

    def test_invalid_values_report_all(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path / "cfg.json", aspect=0.5, trials_per_cell=0)
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 1
        err = capsys.readouterr().err
        assert "aspect" in err and "trials_per_cell" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_sweep_config(tmp_path / "cfg.json", typo_key=1)
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_malformed_json_is_io(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 3

    def test_non_utf8_config_is_io(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"alphas": [1.2]\xff}')
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "d")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"i/o error: {cfg}:")

    @pytest.mark.parametrize("key, value", [
        ("trials_per_cell", 2.5), ("k_vectors", 1.0), ("base_seed", 1.0), ("ns", [20.7]),
        ("max_trials", 100.0), ("trials_per_cell", True),
    ])
    def test_non_integer_field_is_invalid(self, tmp_path, capsys, key, value):
        cfg = write_sweep_config(tmp_path / "cfg.json", **{key: value})
        dest = tmp_path / "d"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest)]) == 1
        assert "must be an integer" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("alphas", ["1.5"], "must be a list of numbers"), ("alphas", [True], "must be a list of numbers"),
        ("alphas", "15", "must be a list of numbers"), ("c_grid", [1, "2"], "must be a list of numbers"),
        ("census_c", "0.1", "must be a number"), ("aspect", "2", "must be a number"),
        ("normalize_variance", "no", "must be true or false"),
    ])
    def test_non_number_field_is_invalid(self, tmp_path, capsys, key, value, message):
        cfg = write_sweep_config(tmp_path / "cfg.json", **{key: value})
        dest = tmp_path / "d"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest)]) == 1
        err = capsys.readouterr().err
        assert f"{key} " in err and message in err
        assert not dest.exists()

    def test_n_below_three_is_invalid(self, tmp_path, capsys):
        # Every trial at n = 2 would fail in threshold_set, so the config is refused.
        cfg = write_sweep_config(tmp_path / "cfg.json", ns=[2], k_vectors=1)
        dest = tmp_path / "d"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "n 2 must be >= 3" in captured.err
        assert not dest.exists()

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_nonpositive_workers_is_usage(self, tmp_path, capsys, workers):
        cfg = write_sweep_config(tmp_path / "cfg.json")
        dest = tmp_path / "d"
        assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest), "--workers", workers]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "--workers" in captured.err
        assert not dest.exists()

    def test_manifest_names_the_kernel_set(self, tmp_path):
        # OpenBLAS picks its kernel set when numpy loads, so the override needs a fresh process.
        cfg = write_sweep_config(tmp_path / "cfg.json", alphas=[1.2], trials_per_cell=1)
        run_fresh(["-m", "svlab.cli", "sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "d")],
                  tmp_path, OPENBLAS_CORETYPE="Haswell")
        assert json.loads((tmp_path / "d" / "manifest.json").read_text())["blas_core"] == "Haswell"

    def test_integer_aspect_gives_same_records(self, tmp_path, capsys):
        d_int, d_float = tmp_path / "int", tmp_path / "float"
        for dest, aspect in ((d_int, 2), (d_float, 2.0)):
            cfg = write_sweep_config(tmp_path / f"{dest.name}.json", aspect=aspect)
            assert main(["sweep", "--config", str(cfg), "--out-dir", str(dest)]) == 0
        assert (d_int / "records.jsonl").read_bytes() == (d_float / "records.jsonl").read_bytes()


def fresh_env(**env_vars) -> dict:
    """This environment with env_vars set, and svlab importable from this checkout."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
                **env_vars)


def run_fresh(args, cwd, **env_vars):
    """Run python with args in a fresh process that imports svlab from this checkout, with env_vars set."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=fresh_env(**env_vars), capture_output=True,
                          text=True, check=True, timeout=120)


# The svlab modules each command loads besides the package and svlab.cli, in a fresh process.
# sweep loads experiments, and with it every module a sweep trial calls; report loads records
# and none of the trial path, apart from ensemble for the baiyin kind's law check.
_SPECTRA = {"matrixio", "spectra", "_lapack"}
_EXPERIMENTS = _SPECTRA | {"experiments", "records", "ensemble", "localization", "certificates"}
_RECORDS = {"records", "matrixio"}
COMMAND_MODULES = [
    (["generate", "--n", "6", "--alpha", "1.5", "--seed", "1", "--out", "g.svlm"], {"ensemble", "matrixio"}),
    (["spectra", "--in", "x.svlm", "--out", "s.json"], _SPECTRA),
    (["localize", "--in", "x.svlm", "--out", "l.jsonl"], _SPECTRA | {"localization"}),
    (["localize", "--in", "x.svlm", "--out", "l.jsonl", "--plot", "l.svg"], _SPECTRA | {"localization", "svgplot"}),
    (["certify", "--in", "x.svlm", "--alpha", "1.2", "--out", "c.json"], _SPECTRA | {"certificates"}),
    (["plot", "--in", "x.svlm", "--out", "p.svg"], _SPECTRA | {"svgplot"}),
    (["sweep", "--config", "cfg.json", "--out-dir", "sw"], _EXPERIMENTS),
    (["report", "--records", "r.jsonl", "--kind", "transition", "--out-dir", "rep"], _RECORDS | {"svgplot"}),
    (["report", "--records", "r.jsonl", "--kind", "kth", "--out-dir", "rep"], _RECORDS),
    (["report", "--records", "s.jsonl", "--kind", "scaling", "--alpha", "1.2", "--out-dir", "rep"],
     _RECORDS | {"svgplot"}),
    (["report", "--records", "b.jsonl", "--kind", "baiyin", "--out-dir", "rep"], _RECORDS | {"svgplot", "ensemble"}),
]


def _command_id(argv: list[str]) -> str:
    """The command, then what picks its modules: --plot, or the report's kind."""
    kind = argv[argv.index("--kind") + 1:][:1] if "--kind" in argv else []
    return " ".join(argv[:1] + ["--plot"] * ("--plot" in argv) + kind)


# A fresh `python -m svlab.cli` per command; x.svlm holds a Pareto matrix.
EXIT_CODES = [
    (["frobnicate"], 1, "usage error"),
    (["certify", "--in", "x.svlm"], 1, "usage error"),
    (["generate", "--n", "1", "--alpha", "1.0", "--seed", "1", "--out", "g.svlm"], 1, "invalid input"),
    (["certify", "--in", "x.svlm", "--tau", "0.5"], 2, ""),  # vacuous: no Pareto column is below 0.5
    (["spectra", "--in", "nope.svlm"], 3, "i/o error"),
    (["spectra", "--in", "bad.svlm"], 3, "i/o error"),
    (["sweep", "--config", "bad.json", "--out-dir", "sw"], 3, "i/o error"),
]


class TestColdStart:
    """Each svlab command is its own process, so what it imports is paid on every call.

    `import svlab` and `import svlab.cli` load no computing module, and each
    command loads only the modules it runs (COMMAND_MODULES): the package
    re-exports lazily, and svlab.cli imports each module where a command
    first calls into it. Exit codes stay the same in a fresh process, where
    an exception's module may not be loaded at all.
    """

    def test_import_loads_no_computing_module(self, tmp_path):
        code = ("import sys, svlab; print(sorted(m for m in sys.modules if m.startswith('svlab')))\n"
                "import svlab.cli; print(sorted(m for m in sys.modules if m.startswith('svlab')),"
                " 'numpy' in sys.modules)\n")
        assert run_fresh(["-c", code], tmp_path).stdout.splitlines() == [
            "['svlab']", "['svlab', 'svlab.cli'] False"]

    @pytest.mark.parametrize("argv, modules", COMMAND_MODULES, ids=[_command_id(a) for a, _ in COMMAND_MODULES])
    def test_command_loads_only_its_modules(self, tmp_path, stored_matrix, argv, modules):
        # stored_matrix is tmp_path / "x.svlm".
        write_sweep_config(tmp_path / "cfg.json")
        write_records(_grid_records(), tmp_path / "r.jsonl")
        write_records(_scaling_records(), tmp_path / "s.jsonl")
        write_records(_baiyin_records(), tmp_path / "b.jsonl")
        code = ("import json, sys\n"
                "from svlab.cli import main\n"
                f"code = main({argv!r})\n"
                "print(json.dumps([code, sorted(m[6:] for m in sys.modules if m.startswith('svlab.'))]))\n")
        out = run_fresh(["-c", code], tmp_path).stdout.splitlines()[-1]
        assert json.loads(out) == [0, sorted(modules | {"cli"})]

    def test_version_warns_nothing(self, tmp_path):
        # runpy warns when `python -m svlab.cli` finds svlab.cli already imported by the package.
        proc = run_fresh(["-W", "error", "-m", "svlab.cli", "--version"], tmp_path)
        assert (proc.stdout, proc.stderr) == ("svlab 0.1.0\n", "")

    @pytest.mark.parametrize("argv, code, message", EXIT_CODES, ids=[" ".join(a) for a, _, _ in EXIT_CODES])
    def test_exit_codes(self, tmp_path, stored_matrix, argv, code, message):
        (tmp_path / "bad.svlm").write_bytes(b"JUNKJUNKJUNKJUNK")
        (tmp_path / "bad.json").write_text("{not json")
        proc = subprocess.run([sys.executable, "-m", "svlab.cli", *argv], cwd=tmp_path, env=fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert proc.stderr.startswith(message) and "Traceback" not in proc.stderr

    def test_law_choices_are_law_kinds(self):
        # The parser names the laws without loading svlab.ensemble.
        assert cli._LAW_NAMES == {"pareto": "symmetric_pareto", **{kind.value: kind.value for kind in LawKind}}

    def test_import_leaves_pool_random_and_scipy_unloaded(self, tmp_path):
        # ctypes is not on the list: numpy itself imports it. What svlab must not
        # do at import is resolve the LAPACK symbols its kernels call.
        unwanted = ["concurrent.futures.process", "multiprocessing", "numpy.random", "scipy"]
        code = ("import sys, svlab.cli, svlab._lapack; "
                f"print([m for m in {unwanted!r} if m in sys.modules], svlab._lapack._lib)")
        assert run_fresh(["-c", code], tmp_path).stdout.strip() == "[] None"

    def test_student_t_runs_without_scipy(self, tmp_path):
        # scipy is a test dependency only: with it blocked, a Student-t matrix
        # still gets its certified tail envelope, and a Student-t sweep cell runs.
        code = ("import sys; sys.modules['scipy'] = None\n"
                "from svlab import SweepConfig, run_sweep\n"
                "from svlab.cli import main\n"
                "assert main(['generate', '--law', 'student_t', '--alpha', '1.5', '--n', '10',"
                " '--seed', '3', '--out', 'x.svlm']) == 0\n"
                "cfg = SweepConfig(alphas=(1.5,), ns=(12,), aspect=2.0, trials_per_cell=2, base_seed=5,"
                " law_kind='student_t', c_grid=(1.0,), epsilons=(0.1,))\n"
                "records, failures, _ = run_sweep(cfg, workers=1)\n"
                "print(len(records), failures)\n")
        out = run_fresh(["-c", code], tmp_path).stdout.strip().splitlines()
        assert out[-1] == "2 []"
        assert json.loads((tmp_path / "x.svlm.meta.json").read_text())["tail_bounds"]["alpha"] == 1.5

    def test_pooled_sweep_matches_serial_bytes(self, tmp_path):
        # The pool's workers load numpy.random on their own first trial.
        cfg = write_sweep_config(tmp_path / "cfg.json")
        for workers in ("1", "2"):
            run_fresh(["-m", "svlab.cli", "sweep", "--config", str(cfg),
                       "--out-dir", str(tmp_path / f"w{workers}"), "--workers", workers], tmp_path)
        serial = (tmp_path / "w1" / "records.jsonl").read_bytes()
        assert serial.count(b"\n") == 4
        assert (tmp_path / "w2" / "records.jsonl").read_bytes() == serial

    def test_pooled_failures_collected(self, tmp_path):
        # Patched before the first pooled sweep, so the forked workers inherit it.
        code = ("import json\n"
                "import svlab.experiments as ex\n"
                "from svlab.spectra import SpectralError\n"
                "real = ex.full_svd\n"
                "def flaky(x, **kwargs):\n"
                "    if x.shape[1] == 16:\n"
                "        raise SpectralError('synthetic non-convergence', worst_residual=1.0)\n"
                "    return real(x, **kwargs)\n"
                "ex.full_svd = flaky\n"
                "cfg = ex.SweepConfig(alphas=(1.2, 3.0), ns=(16, 24), aspect=2.0, trials_per_cell=3,"
                " base_seed=99, c_grid=(1.0,), epsilons=(0.1,))\n"
                "records, failures, _ = ex.run_sweep(cfg, workers=2)\n"
                "print(json.dumps({'ns': [r.n for r in records], 'failures': failures}))\n")
        out = json.loads(run_fresh(["-c", code], tmp_path).stdout)
        assert out["ns"] == [24] * 6  # both alphas at n=24 survive
        fails = out["failures"]
        assert [(f["alpha"], f["n"], f["trial_index"]) for f in fails] == [
            (alpha, 16, t) for alpha in (1.2, 3.0) for t in range(3)]
        assert all(f["message"] == "SpectralError: synthetic non-convergence" for f in fails)
        assert all("in flaky" in f["traceback"] for f in fails)

    def test_pooled_sweeps_exit_cleanly(self, tmp_path):
        # concurrent.futures joins the kept pool's workers at exit. The child
        # leads its own session, so a worker left running would still be in
        # its process group (and hold its output pipes open).
        code = ("from svlab import SweepConfig, run_sweep\n"
                "cfg = SweepConfig(alphas=(1.2, 3.0), ns=(12,), aspect=2.0, trials_per_cell=2, base_seed=11,"
                " c_grid=(1.0,), epsilons=(0.1,))\n"
                "for _ in range(2):\n"
                "    records, failures, _ = run_sweep(cfg, workers=2)\n"
                "    assert len(records) == 4 and not failures\n")
        proc = subprocess.Popen([sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", code],
                                cwd=tmp_path, env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            out, err = proc.communicate(timeout=120)
            assert (proc.returncode, out, err) == (0, "", "")
            with pytest.raises(ProcessLookupError):
                os.killpg(proc.pid, 0)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


@pytest.fixture(scope="module")
def sweep_records(tmp_path_factory):
    """One real mini sweep reused by all report tests."""
    cfg = SweepConfig(
        alphas=(1.2, 3.0), ns=(12, 16), aspect=2.0, trials_per_cell=2,
        base_seed=21, k_vectors=2, c_grid=(1.0,), epsilons=(0.1, 0.3),
    )
    records, failures, _ = run_sweep(cfg, workers=1)
    assert not failures
    path = tmp_path_factory.mktemp("records") / "records.jsonl"
    write_records(records, path)
    return path


class TestReport:
    def test_transition(self, sweep_records, tmp_path, capsys):
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(sweep_records), "--kind", "transition",
                     "--out-dir", str(dest)]) == 0
        csv_lines = (dest / "transition.csv").read_text().strip().splitlines()
        assert csv_lines[0].startswith("alpha,n,trials,used,")
        assert len(csv_lines) == 1 + 4  # 2 alphas x 2 ns
        assert (dest / "transition.svg").exists()
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert summary["kind"] == "transition"

    def test_scaling_with_bracket(self, tmp_path, capsys):
        records = [
            synth_record(alpha=1.2, n=n, trial=t, s_min=2.0 * n**0.7)
            for n in (50, 100, 200)
            for t in range(5)
        ]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(path), "--kind", "scaling",
                     "--alpha", "1.2", "--out-dir", str(dest)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
        assert summary["slope"] == pytest.approx(0.7, abs=1e-12)
        assert summary["bracket"]["exponent_in_bracket"] is True
        header = (dest / "scaling.csv").read_text().splitlines()[0]
        assert header == "n,median_s_min,envelope_ratio"
        assert (dest / "scaling.svg").exists()

    def test_scaling_needs_alpha(self, sweep_records, tmp_path, capsys):
        assert main(["report", "--records", str(sweep_records), "--kind", "scaling",
                     "--out-dir", str(tmp_path / "rep")]) == 1

    @pytest.mark.parametrize("flags", [
        ["--kind", "scaling"],
        ["--kind", "kth", "--regime-b", "0.7"],
        ["--kind", "transition", "--c", "3"],
        ["--kind", "transition", "--epsilon", "0.15"],
        ["--kind", "kth", "--epsilon", "0.15"],
    ])
    def test_rejected_report_writes_nothing(self, sweep_records, tmp_path, capsys, flags):
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(sweep_records), "--out-dir", str(dest), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        # One plain line: an entry missing from the records is a ValueError, not a quoted KeyError.
        assert len(captured.err.splitlines()) == 1 and ": '" not in captured.err
        assert not dest.exists()

    @pytest.mark.parametrize("flag, value", [("--floor", "0"), ("--slack", "-1")])
    def test_bad_bracket_writes_nothing(self, tmp_path, capsys, flag, value):
        records = [synth_record(alpha=1.2, n=n, trial=t, s_min=2.0 * n**0.7) for n in (50, 100, 200)
                   for t in range(5)]
        path = tmp_path / "records.jsonl"
        write_records(records, path)
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(path), "--kind", "scaling", "--alpha", "1.2",
                     flag, value, "--out-dir", str(dest)]) == 1
        assert capsys.readouterr().err == "invalid input: floor_coeff must be > 0 and slack >= 0\n"
        assert not dest.exists()

    def test_baiyin_on_finite_variance_slice(self, sweep_records, tmp_path, capsys):
        # The persisted mini sweep mixes tail indexes; keep only the alpha=3 lines.
        lines = sweep_records.read_text().strip().splitlines()
        kept = [ln for ln in lines if json.loads(ln)["alpha"] == 3.0]
        path = tmp_path / "a3.jsonl"
        path.write_text("\n".join(kept) + "\n")
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(path), "--kind", "baiyin",
                     "--out-dir", str(dest)]) == 0
        summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
        assert summary["limit"] == pytest.approx(1 - math.sqrt(0.5), rel=1e-12)
        assert (dest / "baiyin.csv").exists()

    def test_baiyin_rejects_mixed_records(self, sweep_records, tmp_path, capsys):
        assert main(["report", "--records", str(sweep_records), "--kind", "baiyin",
                     "--out-dir", str(tmp_path / "rep")]) == 1

    def test_kth(self, sweep_records, tmp_path, capsys):
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(sweep_records), "--kind", "kth",
                     "--out-dir", str(dest)]) == 0
        csv_lines = (dest / "kth.csv").read_text().strip().splitlines()
        assert len(csv_lines) == 1 + 2 * 2 * 2  # (alpha, n, k) combinations

    def test_empty_records_rejected(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert main(["report", "--records", str(path), "--kind", "kth",
                     "--out-dir", str(tmp_path / "rep")]) == 1

    def test_records_without_kth_values_rejected(self, sweep_records, tmp_path, capsys):
        # Records edited to keep no value give no kth row: the report says so and, as for an
        # empty file, writes nothing.
        path = tmp_path / "records.jsonl"
        recs = [json.loads(line) for line in sweep_records.read_text().splitlines()]
        path.write_text("".join(json.dumps({**r, "kth_values": []}) + "\n" for r in recs))
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(path), "--kind", "kth", "--out-dir", str(dest)]) == 1
        assert "no kth_values" in capsys.readouterr().err and not dest.exists()

    @pytest.mark.parametrize("bad", [b"{not json\n", b'{"alpha": "\xc3\n'])
    def test_bad_json_line_is_io(self, sweep_records, tmp_path, capsys, bad):
        path = tmp_path / "records.jsonl"
        path.write_bytes(sweep_records.read_bytes() + bad)
        lineno = path.read_bytes().count(b"\n")
        assert main(["report", "--records", str(path), "--kind", "kth",
                     "--out-dir", str(tmp_path / "rep")]) == 3
        assert f"i/o error: {path}:{lineno}:" in capsys.readouterr().err

    def test_missing_fields_is_io(self, sweep_records, tmp_path, capsys):
        path = tmp_path / "records.jsonl"
        path.write_text('{"alpha": 1.2, "n": 24}\n' + sweep_records.read_text())
        assert main(["report", "--records", str(path), "--kind", "kth",
                     "--out-dir", str(tmp_path / "rep")]) == 3
        err = capsys.readouterr().err
        assert f"i/o error: {path}:1:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value, kind", [
        ("alpha", "1.2", "transition"), ("alpha", "1.2", "kth"), ("alpha", "1.2", "scaling"),
        ("kth_values", None, "kth"), ("s_min", "x", "scaling"),
    ])
    def test_mistyped_field_is_io(self, tmp_path, capsys, field, value, kind):
        # One edited line of a good file: a field of the wrong JSON type is a malformed record.
        path = tmp_path / "records.jsonl"
        write_records(_scaling_records(), path)
        lines = path.read_text().splitlines(keepends=True)
        lines[1] = json.dumps({**json.loads(lines[1]), field: value}) + "\n"
        path.write_text("".join(lines))
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(path), "--kind", kind, "--alpha", "1.2",
                     "--out-dir", str(dest)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {path}:2: ") and f"field {field} " in err
        assert not dest.exists()

    @pytest.mark.parametrize("where, change", [
        ("kth_values[0]", lambda r: r.update(kth_values=["x", 1.0])),
        ("localization[0].threshold_mass", lambda r: r["localization"][0].update(threshold_mass="x")),
    ])
    def test_mistyped_entry_is_io(self, tmp_path, capsys, where, change):
        # An entry a scan reads, of the wrong JSON type inside one record's list or dict, is a
        # malformed record too, not a TypeError from np.median.
        path = tmp_path / "records.jsonl"
        write_records(_scaling_records(), path)
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[1])
        change(rec)
        lines[1] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        dest = tmp_path / "rep"
        assert main(["report", "--records", str(path), "--kind", "kth", "--out-dir", str(dest)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {path}:2: ") and f"{where} must be float" in err
        assert err.count("\n") == 1 and not dest.exists()


class TestPlot:
    def test_svg_written(self, stored_matrix, tmp_path, capsys):
        dest = tmp_path / "vec.svg"
        assert main(["plot", "--in", str(stored_matrix), "--out", str(dest)]) == 0
        text = dest.read_text()
        assert text.startswith("<svg") and "bottom vector k=1" in text
        echoed = json.loads(capsys.readouterr().out)
        assert echoed["out"] == str(dest)
