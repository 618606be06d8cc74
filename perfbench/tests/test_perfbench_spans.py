"""Self-tests of the tracer: self-time arithmetic and transparent wrappers.

Run with: python3 -m pytest perfbench/tests
"""
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from layers import self_time_table  # noqa: E402
from spans import Instrumentation, Span, Tracer, make_wrapper, self_times  # noqa: E402


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, None)


def test_self_time_of_nested_spans():
    spans = [
        span("trial", 0.0, 10.0),            # 0
        span("svd", 1.0, 4.0, parent=0),     # 1
        span("cert", 5.0, 9.0, parent=0),    # 2
        span("norm", 5.5, 6.5, parent=2),    # 3
        span("minor", 7.0, 8.5, parent=2),   # 4
    ]
    assert self_times(spans) == pytest.approx([3.0, 3.0, 1.5, 1.0, 1.5])


def test_self_time_counts_overlapping_children_once():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 5.0, parent=0),
        span("b", 3.0, 7.0, parent=0),      # overlaps a by 2
        span("c", 9.0, 12.0, parent=0),     # runs past the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_self_time_table_sums_by_name():
    spans = [
        span("trial", 0.0, 4.0),
        span("svd", 0.0, 3.0, parent=0),
        span("trial", 4.0, 6.0),
        span("svd", 4.0, 5.0, parent=2),
    ]
    assert self_time_table(spans) == [("svd", pytest.approx(4.0)), ("trial", pytest.approx(2.0))]


def fake_clock():
    ticks = iter(range(1000))
    return lambda: float(next(ticks))


def test_wrapper_returns_the_value_unchanged():
    tracer = Tracer(clock=fake_clock())
    payload = object()
    wrapped = make_wrapper(tracer, lambda a, b=0: (payload, a, b), "f")
    assert wrapped(1, b=2) == (payload, 1, 2)
    assert [s.name for s in tracer.spans] == ["f"]
    assert tracer.stack == []


def test_wrapper_reraises_the_same_exception_and_closes_spans():
    tracer = Tracer(clock=fake_clock())
    err = ValueError("boom")

    def inner():
        raise err

    wrapped_inner = make_wrapper(tracer, inner, "inner")
    wrapped_outer = make_wrapper(tracer, lambda: wrapped_inner(), "outer")
    with pytest.raises(ValueError) as info:
        wrapped_outer()
    assert info.value is err
    assert tracer.stack == []
    outer, inner_span = tracer.spans
    assert inner_span.parent == 0 and outer.parent is None
    assert outer.end >= inner_span.end > inner_span.start


def test_instrumentation_restores_the_original():
    module = types.SimpleNamespace(f=lambda x: x + 1)
    original = module.f
    tracer = Tracer()
    with Instrumentation(tracer) as inst:
        inst.wrap(module, "f", "mod.f", on_return=lambda a, k, r: {"result": r})
        assert module.f is not original
        assert module.f(1) == 2
    assert module.f is original
    assert tracer.spans[0].attrs == {"result": 2}
