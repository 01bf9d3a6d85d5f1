"""Self-test of the span recorder's self-time arithmetic.

Run with ``python3 -m pytest perfbench/test_spans.py`` from the repository root.
"""

import types

import pytest

from spans import NO_PARENT, SpanRecorder, Tracer


def _scripted_clock(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_nested_and_back_to_back_children():
    # root [0, 10]; children a [1, 3] and b [3, 6] back to back; c [7, 9]
    # with a grandchild g [7.5, 8.5].
    rec = SpanRecorder(clock=_scripted_clock(0, 1, 3, 3, 6, 7, 7.5, 8.5, 9, 10))
    root = rec.begin("root")
    with rec.span("a"):
        pass
    with rec.span("b"):
        pass
    c = rec.begin("c")
    with rec.span("g"):
        pass
    rec.end(c)
    rec.end(root)

    assert [s[3] for s in rec.spans] == [NO_PARENT, 0, 0, 0, 3]
    own = dict(zip((s[0] for s in rec.spans), rec.self_times()))
    assert own == pytest.approx({"root": 10 - 2 - 3 - 2, "a": 2, "b": 3,
                                 "c": 2 - 1, "g": 1})
    assert sum(own.values()) == pytest.approx(10)


def test_totals_aggregate_repeated_names():
    rec = SpanRecorder(clock=_scripted_clock(0, 1, 2, 4, 5, 6))
    outer = rec.begin("outer")
    for _ in range(2):
        with rec.span("leaf"):
            pass
    rec.end(outer)
    totals = rec.totals()
    assert totals["leaf"] == pytest.approx({"calls": 2, "total_s": 2, "self_s": 2})
    assert totals["outer"] == pytest.approx({"calls": 1, "total_s": 6, "self_s": 4})


def test_out_of_order_close_is_an_error():
    rec = SpanRecorder()
    outer = rec.begin("outer")
    rec.begin("inner")
    with pytest.raises(RuntimeError):
        rec.end(outer)


def test_wrap_records_restores_and_reports_absent_names():
    mod = types.ModuleType("fake")
    mod.work = lambda x: x + 1
    original = mod.work
    tracer = Tracer(SpanRecorder())
    tracer.wrap(mod, "work", "fake.work",
                count=lambda counters, args: counters.__setitem__(
                    "items", counters["items"] + args[0]))
    tracer.wrap(mod, "renamed_away", "fake.renamed_away")
    assert mod.work(2) == 3 and mod.work(5) == 6
    tracer.unwrap()

    assert mod.work is original
    assert tracer.absent == ["fake.renamed_away"]
    assert tracer.counters["items"] == 7
    assert tracer.recorder.totals()["fake.work"]["calls"] == 2
