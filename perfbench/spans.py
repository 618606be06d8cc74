"""In-memory span tracer and the wrappers that feed it.

A span is one call into an svlab function: name, start, end, the span that
was open when it began (its parent), the trial it belongs to, and optional
attributes taken from its arguments or return value. Spans are kept in a
list and written out once, at the end of a traced run.

Functions are wrapped at the name their caller looked them up under, never
inside ``src/``: ``svlab.experiments.full_svd`` and
``svlab.certificates.full_svd`` are two separate wrappers around the same
function, which is how decompositions of X and of the certificate minor get
distinct span names.
"""
from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    trial: int | None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from one thread; the open spans form a stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.trial: int | None = None
        self._trials = 0

    def new_trial(self) -> int:
        self.trial = self._trials
        self._trials += 1
        return self.trial

    def open(self, name: str, attrs: dict | None = None) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.trial, attrs or {}))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        # Close idx and anything a raising callee left open above it.
        while self.stack:
            top = self.stack.pop()
            self.spans[top].end = self.clock()
            if top == idx:
                return

    def innermost(self, name: str) -> Span | None:
        for idx in reversed(self.stack):
            if self.spans[idx].name == name:
                return self.spans[idx]
        return None

    def dump(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "trial": s.trial, "attrs": s.attrs}))
                fh.write("\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(i, [])):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(s.duration - covered)
    return out


def ancestor_named(spans: list[Span], idx: int, name: str) -> int | None:
    p = spans[idx].parent
    while p is not None:
        if spans[p].name == name:
            return p
        p = spans[p].parent
    return None


Namer = Callable[[tuple, dict], str]
Hook = Callable[[tuple, dict, Any], dict]


def make_wrapper(tracer: Tracer, fn: Callable, name: str | Namer,
                 on_call: Hook | None = None, on_return: Hook | None = None) -> Callable:
    """fn wrapped in a span; its return value and exceptions pass unchanged."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args, kwargs) if callable(name) else name
        idx = tracer.open(span_name, on_call(args, kwargs, None) if on_call else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if on_return is not None:
            tracer.spans[idx].attrs.update(on_return(args, kwargs, result))
        return result

    return wrapper


class Instrumentation:
    """Installs wrappers on module attributes and puts the originals back."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._saved: list[tuple[Any, str, Any]] = []

    def wrap(self, module, attr: str, name: str | Namer,
             on_call: Hook | None = None, on_return: Hook | None = None) -> None:
        fn = getattr(module, attr)
        self._saved.append((module, attr, fn))
        setattr(module, attr, make_wrapper(self.tracer, fn, name, on_call, on_return))

    def restore(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


def _result_shape(args, kwargs, result) -> dict:
    rows, cols = result.shape
    return {"rows": int(rows), "cols": int(cols)}


def _arg_shape(args, kwargs, result) -> dict:
    rows, cols = args[0].shape
    return {"rows": int(rows), "cols": int(cols)}


def instrument_svlab(tracer: Tracer) -> Instrumentation:
    """Wrap the public svlab functions at each of their import sites."""
    import svlab.certificates as certificates
    import svlab.cli as cli
    import svlab.experiments as experiments

    inst = Instrumentation(tracer)

    def start_trial(args, kwargs, result) -> dict:
        tracer.new_trial()  # runs before the span opens, so the span gets it
        return {}

    def cert_call(args, kwargs, result) -> dict:
        return {"x_id": id(args[0]), "cols": int(args[0].shape[1])}

    def cert_result(args, kwargs, report) -> dict:
        return {"column_count": report.column_count, "valid": bool(report.valid)}

    def cert_svd_name(args, kwargs) -> str:
        # upper_certificate decomposes X itself when no observed spectrum is
        # passed (the CLI path), and the column minor otherwise.
        cert = tracer.innermost("certificates.upper_certificate")
        if cert is not None and cert.attrs.get("x_id") == id(args[0]):
            return "spectra.full_svd.x"
        return "spectra.full_svd.minor"

    # Sweep path: names resolved inside svlab.experiments and svlab.certificates.
    inst.wrap(experiments, "run_trial", "experiments.run_trial", on_call=start_trial)
    inst.wrap(experiments, "sample_matrix", "ensemble.sample_matrix", on_return=_result_shape)
    inst.wrap(experiments, "full_svd", "spectra.full_svd.x", on_call=_arg_shape)
    inst.wrap(experiments, "localization_report", "localization.localization_report")
    inst.wrap(experiments, "upper_certificate", "certificates.upper_certificate",
              on_call=cert_call, on_return=cert_result)
    inst.wrap(experiments, "heavy_census", "certificates.heavy_census")
    inst.wrap(certificates, "full_svd", cert_svd_name, on_call=_arg_shape)
    inst.wrap(certificates, "operator_norm", "spectra.operator_norm", on_call=_arg_shape)
    # Functions the benchmark calls through the svlab.experiments module.
    for fn in ("run_sweep", "write_records", "write_summary", "fit_scaling", "write_fits",
               "write_manifest"):
        inst.wrap(experiments, fn, f"experiments.{fn}")

    # CLI path: names resolved inside svlab.cli. build_parser reads the
    # cmd_* globals when main() runs, so wrapping them here is enough.
    for cmd in ("generate", "spectra", "localize", "certify", "plot", "report"):
        inst.wrap(cli, f"cmd_{cmd}", f"cli.{cmd}")
    inst.wrap(cli, "sample_matrix", "ensemble.sample_matrix", on_return=_result_shape)
    inst.wrap(cli, "full_svd", "spectra.full_svd.x", on_call=_arg_shape)
    inst.wrap(cli, "localization_report", "localization.localization_report")
    inst.wrap(cli, "upper_certificate", "certificates.upper_certificate",
              on_call=cert_call, on_return=cert_result)
    inst.wrap(cli, "save_matrix", "matrixio.save_matrix", on_call=_arg_shape)
    inst.wrap(cli, "load_matrix", "matrixio.load_matrix", on_return=_result_shape)
    for fn in ("read_records", "transition_scan", "kth_vector_scan", "fit_scaling",
               "bracket_check"):
        inst.wrap(cli, fn, f"experiments.{fn}")
    inst.wrap(cli, "line_chart", "svgplot.line_chart")
    inst.wrap(cli, "vector_profile", "svgplot.vector_profile")
    return inst
