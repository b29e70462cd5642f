"""Span bookkeeping: self time is duration minus direct children."""

from __future__ import annotations

from perfbench.trace import Tracer, covered_ns, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        # id, parent, name, start, end
        (1, 0, "child", 10, 40),
        (2, 1, "grandchild", 15, 25),
        (3, 0, "child", 50, 70),
        (0, -1, "root", 0, 100),
    ]
    st = self_times(spans)
    assert st["root"] == (100 - 30 - 20, 1)
    assert st["child"] == ((30 - 10) + 20, 2)
    assert st["grandchild"] == (10, 1)
    # self times of a nested tree add up to the roots' wall time
    assert sum(ns for ns, _ in st.values()) == 100


def test_covered_counts_roots_inside_the_window():
    spans = [(0, -1, "a", 0, 10), (1, 0, "b", 2, 5), (2, -1, "c", 20, 30), (3, -1, "d", 40, 60)]
    assert covered_ns(spans, 0, 35) == 20
    assert covered_ns(spans, 0, 60) == 40


def test_tracer_nests_and_wraps():
    tracer = Tracer()

    class Thing:
        def work(self, x):
            return x + 1

    thing = Thing()
    undo = tracer.wrap(thing, "work", "layer.work")
    with tracer.span("outer"):
        assert tracer.call("middle", thing.work, 1) == 2
    undo()
    assert thing.work(1) == 2  # the class method is back
    by_name = {name: (span_id, parent) for span_id, parent, name, _, _ in tracer.spans}
    assert by_name["outer"][1] == -1
    assert by_name["middle"][1] == by_name["outer"][0]
    assert by_name["layer.work"][1] == by_name["middle"][0]
    st = tracer.self_times()
    total = sum(ns for ns, _ in st.values())
    outer = next(e - s for _, _, n, s, e in tracer.spans if n == "outer")
    assert total == outer
