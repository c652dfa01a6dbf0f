"""Span self-time arithmetic and a traced command end to end."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from conftest import BENCH, ROOT
from tracer import Recorder, Span, busy_time, self_times


def _span(sid, start, end, parent, name="x"):
    return Span(id=sid, name=name, start=start, end=end, parent=parent)


def test_self_time_is_duration_minus_children_on_a_nested_tree():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 4.0, 0),
        _span(2, 2.0, 3.0, 1),
        _span(3, 5.0, 9.0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_overlapping_siblings_split_shared_time_and_still_sum_to_the_root():
    spans = [
        _span(0, 0.0, 10.0, None),
        _span(1, 1.0, 5.0, 0),  # two worker threads overlapping on [3, 5]
        _span(2, 3.0, 7.0, 0),
    ]
    own = self_times(spans)
    assert own == pytest.approx({0: 4.0, 1: 3.0, 2: 3.0})
    assert busy_time(spans[1:]) == pytest.approx(6.0)
    assert busy_time([_span(0, 0.0, 1.0, None), _span(1, 2.0, 3.0, None)]) == pytest.approx(2.0)


def test_recorder_links_nested_calls_to_their_parent():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap("inner", lambda x: x + 1, counts=lambda result, args: {"value": result})
    outer = recorder.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    by_name = {s.name: s for s in recorder.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["inner"].counts == {"value": 2}
    assert by_name["outer"].start < by_name["inner"].start < by_name["inner"].end < by_name["outer"].end


def test_traced_report_records_every_report_layer(tmp_path):
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    tiny = os.path.join(ROOT, "tests", "fixtures", "tiny_corpus.ndjson")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "tracer.py"), str(spans_path), "--",
         "report", "--in", tiny, "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(spans_path.read_text())
    spans = [Span(**s) for s in payload["spans"]]
    names = {s.name for s in spans}
    # the fixture has too few repos per category for the ICS correlation, so
    # no community graph is built
    assert {"cli.command", "archive.load", "simulator.simulate_corpus", "simulator.simulate",
            "temporal.classify_gaps", "temporal.timeline",
            "analytics.expertise_coverage", "analytics.repo_summary",
            "analytics.correlate_features", "analytics.popularity",
            "sentiment.repo_sentiment"} <= names
    root = next(s for s in spans if s.parent is None)
    assert root.name == "cli.command"
    assert sum(self_times(spans).values()) == pytest.approx(root.end - root.start)
