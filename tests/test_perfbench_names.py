"""perfbench/spans.py wraps svlab functions by module attribute; each must exist."""
import importlib.util
import sys
from pathlib import Path

import svlab.certificates
import svlab.cli
import svlab.experiments

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


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
