"""Span recording around ghreview's public functions, measured from outside.

A traced command runs ``ghreview.cli.main`` in this process after every
function in ``TRACED`` has been replaced, in each ghreview module that binds
it, by a wrapper that records a span: name, start, end, parent and a few
counts read from the function's public result.  ``GitHubClient.get`` is
wrapped on the class.  Spans stay in memory and are written as JSON when the
command ends.

A span's parent is the innermost open span of the calling thread; a span
opened on a thread with no open span (the fetcher's user pool) hangs off the
root ``cli.command`` span.

Self time: at every instant of the root span, the time is credited to the
open spans that have no open child.  When only one span is open at each
depth this is a span's duration minus the time its children cover.  When
sibling spans overlap on different threads, the shared instants are split
evenly between them, so self times always sum to the root's duration.

Run as a script to trace one command::

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- report --in A --out B
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

ROOT = "cli.command"


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    repo: str | None = None
    counts: dict[str, int] = field(default_factory=dict)


class Recorder:
    """Collects spans from every thread of one traced command."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.root: int | None = None
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, repo: str | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        with self._lock:
            span = Span(len(self.spans), name, self.clock(), 0.0, parent, repo)
            self.spans.append(span)
            if parent is None:
                self.root = span.id
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def wrap(self, name: str, fn, counts=None, repo_of=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``counts(result, args)`` returns counters to attach; ``repo_of(args)``
        names the repository the call works on.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, repo_of(args) if repo_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counts is not None:
                span.counts = counts(result, args)
            return result

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span (see the module docstring)."""
    children: dict[int, int] = {s.id: 0 for s in spans}
    events: list[tuple[float, int, Span]] = []
    for s in spans:
        events.append((s.start, 1, s))
        events.append((s.end, 0, s))
    events.sort(key=lambda e: (e[0], e[1]))  # closes before opens at a tie
    out = {s.id: 0.0 for s in spans}
    active: dict[int, Span] = {}
    last = None
    for t, is_open, s in events:
        if last is not None and t > last and active:
            leaves = [a.id for a in active.values() if children[a.id] == 0]
            share = (t - last) / len(leaves)
            for sid in leaves:
                out[sid] += share
        last = t
        if is_open:
            active[s.id] = s
            if s.parent in children:
                children[s.parent] += 1
        else:
            del active[s.id]
            if s.parent in children:
                children[s.parent] -= 1
    return out


def busy_time(spans: list[Span]) -> float:
    """Length of the union of the spans' intervals."""
    total = 0.0
    cur_start = cur_end = None
    for s in sorted(spans, key=lambda s: s.start):
        if cur_end is None or s.start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s.start, s.end
        else:
            cur_end = max(cur_end, s.end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


# ---------------------------------------------------------------------------
# What gets traced.


def _corpus_counts(corpus, _args) -> dict[str, int]:
    records = len(corpus.users) + len(corpus.repos)
    for repo in corpus.repos:
        records += len(repo.issues) + len(repo.commits)
        records += sum(len(i.comments) for i in repo.issues)
    return {"records": records, "rejected": len(corpus.rejected)}


def _graph_counts(graph, _args) -> dict[str, int]:
    n = len(graph.issue_nodes)
    return {"pairs": n * (n - 1) // 2}


def _sim_counts(result, _args) -> dict[str, int]:
    return {"events": len(result.events), "injected": len(result.injected_times),
            "excluded": int(result.excluded)}


def _get_counts(result, args) -> dict[str, int]:
    url = args[1]
    return {"not_modified": int(bool(result[2])), "user": int("/users/" in url)}


def _repo_arg(args):
    return args[0].id


# (module, attribute, span name, counts, repo_of)
TRACED = (
    ("ghreview.archive", "load_archive", "archive.load", _corpus_counts, None),
    ("ghreview.archive", "save_archive", "archive.save", None, None),
    ("ghreview.models", "validate", "models.validate", None, None),
    ("ghreview.temporal", "classify_gaps", "temporal.classify_gaps", None, None),
    ("ghreview.temporal", "timeline_from_times", "temporal.timeline", None, None),
    ("ghreview.simulator", "simulate", "simulator.simulate", _sim_counts, _repo_arg),
    ("ghreview.simulator", "simulate_corpus", "simulator.simulate_corpus", None, None),
    ("ghreview.community", "build_graph", "community.build_graph", _graph_counts, _repo_arg),
    ("ghreview.community", "ics", "community.ics",
     lambda report, _a: {"e2": report.e2_count}, lambda args: args[0].repo_id),
    ("ghreview.analytics", "expertise_coverage", "analytics.expertise_coverage",
     lambda rep, _a: {"checks": rep.n_reviewers * rep.n_issues}, None),
    ("ghreview.analytics", "repo_summary", "analytics.repo_summary", None, None),
    ("ghreview.analytics", "correlate_features", "analytics.correlate_features", None, None),
    ("ghreview.analytics", "popularity_vs_comments", "analytics.popularity", None, None),
    ("ghreview.sentiment", "repo_sentiment", "sentiment.repo_sentiment",
     lambda result, _a: {"comments": result[1]}, _repo_arg),
)


def install(recorder: Recorder) -> None:
    """Replace each traced function in every loaded ghreview module binding it."""
    import importlib

    import ghreview.cli  # noqa: F401  (the package and the CLI load every submodule)
    from ghreview.fetcher import GitHubClient

    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "ghreview" or name.startswith("ghreview."))]
    for module_name, attr, name, counts, repo_of in TRACED:
        original = getattr(importlib.import_module(module_name), attr)
        wrapper = recorder.wrap(name, original, counts, repo_of)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)
    GitHubClient.get = recorder.wrap("fetcher.get", GitHubClient.get, _get_counts)


def trace_command(argv: list[str], recorder: Recorder) -> int:
    """Install the wrappers and run one CLI command under a root span."""
    install(recorder)
    from ghreview import cli

    root = recorder.open(ROOT)
    try:
        return cli.main(argv)
    finally:
        recorder.close(root)


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <ghreview arguments>", file=sys.stderr)
        return 2
    recorder = Recorder()
    rc = trace_command(argv[2:], recorder)
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "spans": [asdict(s) for s in recorder.spans]}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
