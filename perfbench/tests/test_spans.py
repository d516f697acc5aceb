"""Self-time arithmetic of the span recorder, on synthetic nested spans."""

import json

from spans import Span, SpanRecorder, self_seconds_by_name, self_times_ns


def _spans(*rows):
    return [Span(id=i, parent=p, name=n, start_ns=a, end_ns=b) for i, (p, n, a, b) in enumerate(rows)]


def test_leaf_self_time_is_its_duration():
    assert self_times_ns(_spans((None, "a", 5, 17))) == {0: 12}


def test_children_are_subtracted_from_the_parent_only():
    spans = _spans(
        (None, "root", 0, 100),
        (0, "child", 10, 60),
        (1, "grandchild", 20, 30),
        (0, "child", 70, 80),
    )
    assert self_times_ns(spans) == {0: 100 - 50 - 10, 1: 50 - 10, 2: 10, 3: 10}
    # the self times of a tree add up to the root's duration
    assert sum(self_times_ns(spans).values()) == 100


def test_self_seconds_by_name_sums_spans_of_one_name():
    spans = _spans(
        (None, "body", 0, 1_000_000_000),
        (0, "decode", 0, 250_000_000),
        (0, "decode", 500_000_000, 750_000_000),
    )
    assert self_seconds_by_name(spans) == {"body": 0.5, "decode": 0.5}


def test_recorder_nests_spans_and_dumps_them_once(tmp_path):
    ticks = iter(range(0, 1000, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    assert [(s.name, s.parent, s.start_ns, s.end_ns) for s in rec.spans] == [
        ("outer", None, 0, 50),
        ("inner", 0, 10, 20),
        ("inner", 0, 30, 40),
    ]
    out = tmp_path / "spans.json"
    rec.dump(out, workload="synthetic")
    doc = json.loads(out.read_text())
    assert doc["workload"] == "synthetic"
    assert [s["self_ns"] for s in doc["spans"]] == [30, 10, 10]


def test_a_span_is_closed_when_its_body_raises():
    ticks = iter(range(0, 100, 10))
    rec = SpanRecorder(clock=lambda: next(ticks))
    try:
        with rec.span("fails"):
            raise KeyError("x")
    except KeyError:
        pass
    with rec.span("next"):
        pass
    assert rec.spans[0].end_ns == 10
    assert rec.spans[1].parent is None
