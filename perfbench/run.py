"""End-to-end benchmark for ghreview.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report_large --seed 1 --seconds 25 --trace 0

Each workload is a closed loop with one client: the workload's command
sequence runs as ``python -m ghreview.cli ...`` child processes, one at a
time, and the next iteration starts when the previous one has finished.
Iterations repeat until the next one would overrun ``--seconds`` (at least
one always runs).  Inputs come from ``corpora`` and depend only on
``--seed``; the program sees only the generated archive or REST server.

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off.  With ``--trace 1`` it runs untraced iterations for half the
time, then one traced iteration (``tracer.py``) and reports per-layer
metrics and the tracing overhead.  Every run checks outputs against the
recorded reference digests (``reference.json``) where the seed has one,
against size invariants always, and runs ``report`` on the tiny fixture
against ``tests/golden/report/``.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; a results file
with sizes, samples and spans goes to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import corpora
import tracer
from restserver import serve

HERE = os.path.dirname(os.path.abspath(__file__))

WORK_DIR = ".bench_work"
RUN_DEADLINE_S = 170.0
SETUP_SAMPLES = 7
SIM_APS = [f"{k / 10:g}" for k in range(1, 10)]
TINY = os.path.join("tests", "fixtures", "tiny_corpus.ndjson")
GOLDEN = os.path.join("tests", "golden", "report")
REQUIRED = (os.path.join("src", "ghreview", "cli.py"), TINY, GOLDEN)

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("issues_per_s", "1/s"),
    ("cpu_s", "s"), ("peak_rss_mb", "MB"),
)

# per-layer metric -> unit, in output order
PER_LAYER = {
    "archive.load_s": "s", "archive.load_records_per_s": "1/s", "archive.rejected": "count",
    "archive.save_s": "s", "models.validate_s": "s",
    "temporal.classify_gaps_s": "s", "temporal.classify_gaps_calls": "count",
    "temporal.timeline_s": "s", "temporal.timeline_calls": "count",
    "simulator.simulate_s": "s", "simulator.simulate_calls": "count",
    "simulator.events": "count", "simulator.injected": "count", "simulator.excluded": "count",
    "simulator.simulate_corpus_self_s": "s",
    "community.build_graph_s": "s", "community.build_graph_calls": "count",
    "community.pairs_examined": "count", "community.e2_edges": "count", "community.ics_s": "s",
    "analytics.expertise_coverage_s": "s", "analytics.reviewer_issue_checks": "count",
    "analytics.repo_summary_s": "s", "analytics.repo_summary_calls": "count",
    "analytics.correlate_features_self_s": "s", "analytics.popularity_s": "s",
    "sentiment.repo_sentiment_s": "s", "sentiment.comments_scored": "count",
    "fetcher.get_s": "s", "fetcher.requests": "count", "fetcher.not_modified": "count",
    "fetcher.revalidation_hit_ratio": "ratio", "fetcher.revalidation_base": "count",
    "fetcher.user_requests": "count", "fetcher.refresh_s": "s",
    "cli.command_s": "s", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
}

# ROADMAP profile of `report` on the L tier, in percent of wall time
ROADMAP_SHARES = {"coverage": 30, "ics": 27, "simulation": 17, "summaries": 14, "load": 10}
SHARE_SPANS = {
    "coverage": ("analytics.expertise_coverage",),
    "ics": ("community.build_graph", "community.ics"),
    "simulation": ("simulator.simulate_corpus",),
    "summaries": ("analytics.repo_summary",),
    "load": ("archive.load",),
}
# per-repo spans whose hub-repo instances are taken out of the share table
HUB_SPANS = {"community.build_graph": "ics", "community.ics": "ics",
             "simulator.simulate": "simulation", "sentiment.repo_sentiment": "summaries"}


@dataclass
class Child:
    rc: int
    wall: float
    cpu: float
    rss_mb: float


@dataclass
class Iteration:
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    traced: bool = False
    digest: str | None = None
    problems: list[str] = field(default_factory=list)
    commands: dict[str, float] = field(default_factory=dict)  # label -> wall seconds

    @property
    def ok(self) -> bool:
        return not self.problems


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def child_env(root: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k.lower() not in ("http_proxy", "https_proxy", "all_proxy", "github_token")}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def run_child(argv: list[str], env: dict, log_path: str, deadline: Deadline) -> Child:
    """Run one child to completion; wall, CPU and peak RSS come from wait4."""
    timeout = max(deadline.left(), 1.0)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digest_files(paths: dict[str, str]) -> str:
    """One digest over named files; a missing file digests as 'missing'."""
    digest = hashlib.sha256()
    for name in sorted(paths):
        path = paths[name]
        digest.update(f"{name}:{sha256_file(path) if os.path.exists(path) else 'missing'}\n".encode())
    return digest.hexdigest()


def archive_body_digest(path: str) -> str:
    """Digest of an archive without its first line (the snapshot_at meta record)."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        fh.readline()
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def read_csv(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# ---------------------------------------------------------------------------
# Workloads.


class Workload:
    """A seeded input plus the command sequence that runs over it."""

    name = ""
    moves: tuple[str, ...] = ()
    idle: tuple[str, ...] = ()

    def __init__(self, run_dir: str, seed: int):
        self.run_dir = run_dir
        self.seed = seed
        self.sizes: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def before_command(self, label: str) -> None:
        pass

    def after_command(self, label: str) -> None:
        pass

    def commands(self, out: str) -> list[tuple[str, list[str]]]:
        raise NotImplementedError

    def digest(self, out: str, logs: dict[str, str]) -> str:
        raise NotImplementedError

    def invariants(self, out: str, logs: dict[str, str]) -> list[str]:
        raise NotImplementedError


class ArchiveWorkload(Workload):
    """A workload over one generated archive of a ``corpora.TIERS`` tier."""

    tier = ""

    def __enter__(self):
        self.archive = os.path.join(self.run_dir, "corpus.ndjson")
        self.sizes = corpora.write_archive(self.archive, self.tier, self.seed)
        return self


class ReportLarge(ArchiveWorkload):
    name = "report_large"
    tier = "L"
    moves = ("archive.load_s", "simulator.*", "community.*", "analytics.*", "sentiment.*",
             "cli.self_s")
    idle = ("fetcher.*", "archive.save_s", "models.validate_s")

    def commands(self, out):
        return [("report", ["report", "--in", self.archive, "--out", os.path.join(out, "report")])]

    def _files(self, out):
        report = os.path.join(out, "report")
        names = sorted(os.listdir(report)) if os.path.isdir(report) else []
        return {n: os.path.join(report, n) for n in names if n != "manifest.json"}

    def digest(self, out, logs):
        return digest_files(self._files(out))

    def invariants(self, out, logs):
        files = self._files(out)
        problems = []
        table1 = {row[0]: row[1:] for row in read_csv(files["table1.csv"])}
        n_repos = [int(v) for v in table1["n_repos"]]
        if n_repos != [self.sizes["category_repos"][c] for c in corpora.CATEGORIES]:
            problems.append(f"table1 n_repos {n_repos}")
        for row in read_csv(files["table4.csv"])[1:]:
            if int(row[2]) != self.sizes["category_issues"][row[0]]:
                problems.append(f"table4 n_issues {row[0]}={row[2]}")
        if len(read_csv(files["table3.csv"])) != 1 + 3 * len(corpora.CATEGORIES):
            problems.append("table3 row count")
        return problems


class SimSweep(ArchiveWorkload):
    name = "sim_sweep"
    tier = "M"
    moves = ("archive.load_s", "temporal.*", "simulator.*", "cli.self_s")
    idle = ("community.*", "analytics.*", "sentiment.*", "fetcher.*")

    def commands(self, out):
        return [("simulate", ["simulate", "--in", self.archive, "--out", os.path.join(out, "sim"),
                              "--ap", *SIM_APS])]

    def digest(self, out, logs):
        sim = os.path.join(out, "sim")
        return digest_files({n: os.path.join(sim, n) for n in ("table3.csv", "fig6_timeline.csv")})

    def invariants(self, out, logs):
        problems = []
        rows = read_csv(os.path.join(out, "sim", "table3.csv"))[1:]
        if len(rows) != len(SIM_APS) * len(corpora.CATEGORIES):
            problems.append(f"table3 has {len(rows)} rows")
        for row in rows:
            if int(row[11]) + int(row[12]) != self.sizes["category_repos"][row[0]]:
                problems.append(f"table3 {row[0]} ap={row[1]} repo count")
        return problems


class Ingest(Workload):
    name = "ingest"
    moves = ("fetcher.*", "archive.save_s", "archive.load_s", "models.validate_s", "cli.self_s")
    idle = ("temporal.*", "simulator.*", "community.*", "analytics.*", "sentiment.*")

    def __enter__(self):
        self.dataset = corpora.ingest_dataset(self.seed)
        self.sizes = corpora.ingest_sizes(self.dataset)
        self._serving = serve(self.dataset)
        self.server = self._serving.__enter__()
        self.pass_counts: dict[str, tuple[int, int]] = {}
        return self

    def __exit__(self, *exc):
        return self._serving.__exit__(*exc)

    def commands(self, out):
        fetch = ["fetch", "--base-url", self.server.base_url, "--workers", "2",
                 "--cache-dir", os.path.join(out, "cache")]
        for slug in corpora.INGEST_REPOS:
            fetch += ["--repo", slug]
        return [
            ("cold", fetch + ["--out-archive", os.path.join(out, "cold.ndjson")]),
            ("warm", fetch + ["--out-archive", os.path.join(out, "warm.ndjson")]),
            ("validate", ["validate", "--in", os.path.join(out, "warm.ndjson")]),
        ]

    def before_command(self, label: str) -> None:
        self.server.reset_counts()

    def after_command(self, label: str) -> None:
        self.pass_counts[label] = (self.server.requests, self.server.not_modified)

    def digest(self, out, logs):
        return archive_body_digest(os.path.join(out, "warm.ndjson"))

    def invariants(self, out, logs):
        problems = []
        cold = archive_body_digest(os.path.join(out, "cold.ndjson"))
        if cold != self.digest(out, logs):
            problems.append("cold and warm archives differ")
        with open(logs["validate"], encoding="utf-8") as fh:
            if not fh.read().startswith("OK"):
                problems.append("validate did not print OK")
        kinds: dict[str, int] = {}
        with open(os.path.join(out, "warm.ndjson"), encoding="utf-8") as fh:
            for line in fh:
                kind = json.loads(line)["kind"]
                kinds[kind] = kinds.get(kind, 0) + 1
        for kind in ("repo", "issue", "comment", "commit", "user"):
            if kinds.get(kind, 0) != self.sizes[kind + "s"]:
                problems.append(f"archive has {kinds.get(kind, 0)} {kind} records")
        want = self.sizes["cold_requests"]
        if self.pass_counts.get("cold") != (want, self.sizes["cold_not_modified"]):
            problems.append(f"cold pass requests/304s {self.pass_counts.get('cold')}")
        if self.pass_counts.get("warm") != (want, want):
            problems.append(f"warm pass requests/304s {self.pass_counts.get('warm')}")
        return problems


WORKLOADS = {w.name: w for w in (ReportLarge, SimSweep, Ingest)}


# ---------------------------------------------------------------------------
# Running.


class Bench:
    def __init__(self, root: str, workload: Workload, deadline: Deadline):
        self.root = root
        self.workload = workload
        self.deadline = deadline
        self.env = child_env(root)
        self.reference = self._reference()
        self.spans: dict[str, list[tracer.Span]] = {}

    def _reference(self) -> str | None:
        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            recorded = json.load(fh).get(self.workload.name, {})
        return recorded.get(str(self.workload.seed))

    def cli(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "ghreview.cli", *args]

    def iterate(self, index: int, traced: bool) -> Iteration:
        out = os.path.join(self.workload.run_dir, f"iter{index}")
        os.makedirs(out)
        it = Iteration(traced=traced)
        logs: dict[str, str] = {}
        start = time.perf_counter()
        for label, args in self.workload.commands(out):
            logs[label] = os.path.join(out, f"{label}.log")
            argv = self.cli(args)
            if traced:
                spans_path = os.path.join(out, f"{label}.spans.json")
                argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_path, "--", *args]
            self.workload.before_command(label)
            child = run_child(argv, self.env, logs[label], self.deadline)
            self.workload.after_command(label)
            it.commands[label] = child.wall
            it.cpu += child.cpu
            it.rss_mb = max(it.rss_mb, child.rss_mb)
            if child.rc != 0:
                with open(logs[label], "rb") as fh:
                    tail = fh.read()[-400:].decode("utf-8", "replace")
                it.problems.append(f"{label} exited {child.rc}: {tail}")
                break
            if traced:
                with open(spans_path, encoding="utf-8") as fh:
                    self.spans[label] = [tracer.Span(**s) for s in json.load(fh)["spans"]]
        it.wall = time.perf_counter() - start
        if not it.problems:
            try:
                it.digest = self.workload.digest(out, logs)
                it.problems += self.workload.invariants(out, logs)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                it.problems.append(f"output check failed: {exc!r}")
            if self.reference is not None and it.digest != self.reference:
                it.problems.append("digest differs from the recorded reference")
        shutil.rmtree(out, ignore_errors=True)
        return it

    def loop(self, budget: float) -> list[Iteration]:
        """Untraced iterations until the next would overrun ``budget`` seconds."""
        iterations: list[Iteration] = []
        start = time.perf_counter()
        while True:
            it = self.iterate(len(iterations), traced=False)
            iterations.append(it)
            elapsed = time.perf_counter() - start
            if elapsed + it.wall > budget or self.deadline.left() < 2 * it.wall + 5:
                return iterations

    def setup_samples(self) -> list[float]:
        """Wall time of fresh interpreters importing the CLI and building its parser."""
        argv = [sys.executable, "-c", "import ghreview.cli as c; c.build_parser()"]
        log = os.path.join(self.workload.run_dir, "setup.log")
        run_child(argv, self.env, log, self.deadline)  # compiles bytecode once
        samples = []
        for _ in range(SETUP_SAMPLES):
            child = run_child(argv, self.env, log, self.deadline)
            if child.rc != 0:
                raise RuntimeError(f"importing ghreview.cli failed; see {log}")
            samples.append(child.wall)
        return samples

    def self_check(self) -> list[str]:
        """``report`` on the tiny fixture must reproduce the golden files byte for byte."""
        out = os.path.join(self.workload.run_dir, "tiny_report")
        log = os.path.join(self.workload.run_dir, "tiny_report.log")
        child = run_child(self.cli(["report", "--in", TINY, "--out", out, "--seed", "0"]),
                          self.env, log, self.deadline)
        if child.rc != 0:
            return [f"tiny report exited {child.rc}"]
        problems = []
        for name in sorted(os.listdir(GOLDEN)):
            got = os.path.join(out, name)
            if not os.path.exists(got) or sha256_file(got) != sha256_file(os.path.join(GOLDEN, name)):
                problems.append(f"tiny report {name} differs from golden")
        return problems


def layer_metrics(spans_by_command: dict[str, list[tracer.Span]]) -> dict[str, float]:
    """Per-layer metrics over every command of one traced iteration."""
    by_name: dict[str, list[tracer.Span]] = {}
    self_by_name: dict[str, float] = {}
    total: dict[str, float] = {}
    for spans in spans_by_command.values():
        own = tracer.self_times(spans)
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
            self_by_name[s.name] = self_by_name.get(s.name, 0.0) + own[s.id]
            for key, value in s.counts.items():
                total[f"{s.name}.{key}"] = total.get(f"{s.name}.{key}", 0) + value

    def busy(name):
        return sum(tracer.busy_time([s for s in spans if s.name == name])
                   for spans in spans_by_command.values())

    def calls(name):
        return len(by_name.get(name, []))

    load_s = busy("archive.load")
    warm = spans_by_command.get("warm", [])
    warm_gets = [s for s in warm if s.name == "fetcher.get"]
    m = {
        "archive.load_s": load_s,
        "archive.load_records_per_s": total.get("archive.load.records", 0) / load_s if load_s else 0.0,
        "archive.rejected": total.get("archive.load.rejected", 0),
        "archive.save_s": busy("archive.save"),
        "models.validate_s": busy("models.validate"),
        "temporal.classify_gaps_s": busy("temporal.classify_gaps"),
        "temporal.classify_gaps_calls": calls("temporal.classify_gaps"),
        "temporal.timeline_s": busy("temporal.timeline"),
        "temporal.timeline_calls": calls("temporal.timeline"),
        "simulator.simulate_s": busy("simulator.simulate"),
        "simulator.simulate_calls": calls("simulator.simulate"),
        "simulator.events": total.get("simulator.simulate.events", 0),
        "simulator.injected": total.get("simulator.simulate.injected", 0),
        "simulator.excluded": total.get("simulator.simulate.excluded", 0),
        "simulator.simulate_corpus_self_s": self_by_name.get("simulator.simulate_corpus", 0.0),
        "community.build_graph_s": busy("community.build_graph"),
        "community.build_graph_calls": calls("community.build_graph"),
        "community.pairs_examined": total.get("community.build_graph.pairs", 0),
        "community.e2_edges": total.get("community.ics.e2", 0),
        "community.ics_s": busy("community.ics"),
        "analytics.expertise_coverage_s": busy("analytics.expertise_coverage"),
        "analytics.reviewer_issue_checks": total.get("analytics.expertise_coverage.checks", 0),
        "analytics.repo_summary_s": busy("analytics.repo_summary"),
        "analytics.repo_summary_calls": calls("analytics.repo_summary"),
        "analytics.correlate_features_self_s": self_by_name.get("analytics.correlate_features", 0.0),
        "analytics.popularity_s": busy("analytics.popularity"),
        "sentiment.repo_sentiment_s": busy("sentiment.repo_sentiment"),
        "sentiment.comments_scored": total.get("sentiment.repo_sentiment.comments", 0),
        "fetcher.get_s": busy("fetcher.get"),
        "fetcher.requests": calls("fetcher.get"),
        "fetcher.not_modified": total.get("fetcher.get.not_modified", 0),
        "fetcher.revalidation_base": len(warm_gets),
        "fetcher.revalidation_hit_ratio": (
            sum(s.counts.get("not_modified", 0) for s in warm_gets) / len(warm_gets)
            if warm_gets else 0.0),
        "fetcher.user_requests": total.get("fetcher.get.user", 0),
        "cli.command_s": busy(tracer.ROOT),
        "cli.self_s": self_by_name.get(tracer.ROOT, 0.0),
    }
    return m


def layer_shares(spans: list[tracer.Span], hub_repo: str | None) -> tuple[dict[str, float], float]:
    """Percent of the command's wall per ROADMAP profile layer, and the seconds
    of hub-repo per-repo spans taken out of both the layers and the command."""
    command = tracer.busy_time([s for s in spans if s.name == tracer.ROOT])
    hub = {key: 0.0 for key in ROADMAP_SHARES}
    for s in spans:
        if hub_repo is not None and s.repo == hub_repo and s.name in HUB_SPANS:
            hub[HUB_SPANS[s.name]] += s.end - s.start
    base = command - sum(hub.values())
    pct = {key: 100.0 * (tracer.busy_time([s for s in spans if s.name in names]) - hub[key]) / base
           for key, names in SHARE_SPANS.items()}
    pct["other"] = 100.0 - sum(pct.values())
    return pct, sum(hub.values())


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"error: run from a ghreview checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    deadline = Deadline(RUN_DEADLINE_S)
    run_dir = os.path.join(root, WORK_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    results_dir = os.path.join(root, WORK_DIR, "results")
    os.makedirs(run_dir)
    os.makedirs(results_dir, exist_ok=True)
    try:
        with WORKLOADS[args.workload](run_dir, args.seed) as workload:
            bench = Bench(root, workload, deadline)
            result = measure(bench, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results_dir, name), "w", encoding="utf-8") as fh:
        json.dump(result["record"], fh, indent=1, sort_keys=True)
    for line in result["lines"]:
        print(line)
    print(json.dumps(result["summary"]))
    return 0


def measure(bench: Bench, args) -> dict:
    workload = bench.workload
    lines = [f"workload {workload.name} seed {args.seed} trace {args.trace}: "
             f"sizes {json.dumps({k: v for k, v in workload.sizes.items() if not isinstance(v, dict)})}"]
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
                    "seconds": args.seconds, "python": sys.version.split()[0],
                    "sizes": workload.sizes, "reference_recorded": bench.reference is not None}
    self_check = bench.self_check()
    record["self_check"] = self_check or "OK"
    lines.append(f"self-check (tiny fixture vs golden): {'; '.join(self_check) or 'OK'}")
    lines.append(f"reference digest for seed {args.seed}: "
                 f"{'recorded' if bench.reference else 'not recorded; size invariants only'}")

    if args.trace == 0:
        setup = bench.setup_samples()
        iterations = bench.loop(args.seconds)
    else:
        setup = []
        iterations = bench.loop(args.seconds / 2)
        iterations.append(bench.iterate(len(iterations), traced=True))
    failed = sum(not it.ok for it in iterations) + bool(self_check)
    attempted = len(iterations) + 1
    for it in iterations:
        if it.problems:
            lines.append(f"FAILED iteration: {'; '.join(it.problems)}")
    record["iterations"] = [vars(it) for it in iterations]

    untraced = [it for it in iterations if not it.traced]
    wall = median([it.wall for it in untraced])
    if args.trace == 0:
        metrics = {
            "setup_s": median(setup),
            "wall_s": wall,
            "issues_per_s": workload.sizes["issues"] / wall if wall else 0.0,
            "cpu_s": median([it.cpu for it in untraced]),
            "peak_rss_mb": median([it.rss_mb for it in untraced]),
        }
        units = dict(END_TO_END)
        samples = {"setup_s": len(setup)}
        record["setup_samples"] = setup
        if isinstance(workload, Ingest):
            # printed, not in the JSON: BENCHMARK.json metrics apply to every workload
            refresh = median([it.commands.get("warm", 0.0) for it in untraced])
            record["refresh_s"] = refresh
            lines.append(f"  {'refresh_s (warm fetch only)':<38} {refresh:14.6f} {'s':<6} n={len(untraced)}")
    else:
        traced = iterations[-1]
        measured = layer_metrics(bench.spans) if bench.spans else {}
        measured["fetcher.refresh_s"] = median([it.commands.get("warm", 0.0) for it in untraced])
        measured["trace.overhead_s"] = traced.wall - wall
        measured["trace.overhead_frac"] = (traced.wall - wall) / wall if wall else 0.0
        metrics = {key: measured.get(key, 0.0) for key in PER_LAYER}
        accounted = sum(sum(tracer.self_times(spans).values()) for spans in bench.spans.values())
        lines.append(f"span self times sum to {accounted:.6f} s of {metrics['cli.command_s']:.6f} s "
                     f"traced command time; cli.self_s {metrics['cli.self_s']:.6f} s is time "
                     f"outside every traced layer")
        units = PER_LAYER
        samples = {}
        record["spans"] = {label: [vars(s) for s in spans] for label, spans in bench.spans.items()}
        if isinstance(workload, ReportLarge) and "report" in bench.spans:
            pct, hub_s = layer_shares(bench.spans["report"], workload.sizes["hub_repo"])
            record["layer_shares_pct"] = pct
            record["layer_shares_hub_removed_s"] = hub_s
            lines.append(f"layer shares of the traced report, {hub_s:.3f} s of hub-repo "
                         f"per-repo spans removed (ROADMAP profile beside):")
            for key, value in pct.items():
                beside = f"~{ROADMAP_SHARES[key]}%" if key in ROADMAP_SHARES else ""
                lines.append(f"  {key:<11} {value:5.1f}%   {beside}")
        lines.append(f"expected to move on {workload.name}: {', '.join(workload.moves)}; "
                     f"expected idle: {', '.join(workload.idle)}")

    failed_frac = failed / attempted
    record["metrics"] = metrics
    record["failed_frac"] = failed_frac
    for key, value in metrics.items():
        n = samples.get(key, len(untraced) if args.trace == 0 else 1)
        lines.append(f"  {key:<38} {value:14.6f} {units[key]:<6} n={n}")
    lines.append(f"  {'failed_frac':<38} {failed_frac:14.6f} {'ratio':<6} n={attempted}")
    summary = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {"lines": lines, "summary": summary, "record": record}


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
