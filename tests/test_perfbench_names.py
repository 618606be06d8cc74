"""perfbench/spans.py wraps svlab functions by module attribute; each must exist."""
import ast
import importlib.util
import sys
from pathlib import Path

import svlab.certificates
import svlab.cli
import svlab.experiments
from svlab.ensemble import EnsembleConfig, sample_matrix
from svlab.matrixio import save_matrix

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SESSION = SPANS.with_name("session.py")


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses resolve it here
    spec.loader.exec_module(module)
    return module


def test_instrument_svlab_wraps_and_restores(monkeypatch):
    spans = _load_spans(monkeypatch)
    modules = (svlab.certificates, svlab.cli, svlab.experiments)
    saved = [dict(vars(m)) for m in modules]
    inst = spans.instrument_svlab(spans.Tracer())
    assert svlab.certificates.operator_norm is not saved[0]["operator_norm"]
    inst.restore()
    for module, before in zip(modules, saved):
        assert dict(vars(module)) == before


def test_hooks_record_the_certificate_spans(monkeypatch, tmp_path, capsys):
    # One sweep trial and one `svlab certify`, each on a partial minor, under
    # instrument_svlab: every span the certificate metrics read must be there.
    spans = _load_spans(monkeypatch)
    tracer = spans.Tracer()
    config = svlab.experiments.SweepConfig(alphas=(5.0,), ns=(24,), aspect=2.0, trials_per_cell=1,
                                           base_seed=4, k_vectors=2, c_grid=(1.0,), epsilons=(0.1,))
    law = config.law_for(5.0)
    inst = spans.instrument_svlab(tracer)
    try:
        rec = svlab.experiments.run_trial(config, 5.0, 24, 0)
        x = sample_matrix(EnsembleConfig(n=24, aspect=2.0, law=law, seed=rec.seed))
        path = tmp_path / "x.svlm"
        save_matrix(x, path)
        assert svlab.cli.main(["certify", "--in", str(path), "--alpha", "5.0"]) == 0
    finally:
        inst.restore()
    capsys.readouterr()
    assert 2 <= rec.certificate["column_count"] < 24
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    certs = by_name["certificates.upper_certificate"]
    assert len(certs) == 2
    for cert in certs:
        assert cert.attrs["cols"] == 24 and cert.attrs["column_count"] == rec.certificate["column_count"]
    assert len(by_name["spectra.full_svd.x"]) == 2
    # The minor's s_min and s_top come from a values-only decomposition that is not
    # full_svd, so its time is the certificate's self time and no minor span is
    # recorded; likewise each vector's reports come from localization_reports.
    assert "spectra.full_svd.minor" not in by_name
    assert "localization.localization_report" not in by_name


def test_traced_session_forks_its_pool_before_instrumenting():
    # run_sweep keeps its pool's workers, which see svlab as it was when they
    # were forked. measure_traced's pooled repetitions must therefore come
    # before instrument_svlab wraps svlab; forked inside it, the workers would
    # keep the wrappers for every later grid, after restore() too.
    tree = ast.parse(SESSION.read_text(encoding="utf-8"))
    method = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "measure_traced"
                  and any(isinstance(c, ast.Call) and getattr(c.func, "attr", None) == "reps"
                          for c in ast.walk(node)))
    calls = sorted((c.lineno, ast.unparse(c.func)) for c in ast.walk(method) if isinstance(c, ast.Call))
    names = [name for _, name in calls]
    assert names.index("self.reps") < names.index("instrument_svlab")
    traced = next(node for node in ast.walk(method) if isinstance(node, ast.With))
    sweeps = [c for c in ast.walk(traced) if isinstance(c, ast.Call) and ast.unparse(c.func) == "self.sweep"]
    assert sweeps and all(ast.unparse(c.args[1]) == "1" for c in sweeps)
