"""Command-line entry point.

One subcommand per pipeline stage, plus ``report`` which runs everything
and writes the full set of table/figure analog files.  Every run echoes
its effective configuration (seed included) into ``manifest.json`` in the
output directory; identical arguments over an identical archive produce
byte-identical outputs apart from the manifest timestamp.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib.util
import json
import os
import random
import shutil
import sys
import tempfile
from dataclasses import fields
from datetime import datetime, timezone
from types import ModuleType

from . import __version__
from .models import CATEGORY_ORDER, Category, Corpus, validate
from .units import ALPHA_DEFAULT, HOUR, MONTH, YEAR, parse_duration


def _deferred(name: str) -> ModuleType:
    """``ghreview.<name>``, entered in ``sys.modules`` now, run on its first attribute read.

    A command pays the import time of the stages it runs only, and every
    stage module is in ``sys.modules`` from the start, where tools that patch
    module attributes (``perfbench/tracer.py``) find it.  Each command first
    reads a stage on the main thread: on older Pythons a first read racing
    another thread's can see the module before its body has run.
    """
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[fullname] = module
        spec.loader.exec_module(module)
    return module


analytics = _deferred("analytics")
archive = _deferred("archive")
community = _deferred("community")
fetcher = _deferred("fetcher")
sentiment = _deferred("sentiment")
simulator = _deferred("simulator")
temporal = _deferred("temporal")

REPORT_FILES = (
    "table1.csv",
    "table2.csv",
    "table3.csv",
    "table4.csv",
    "table5.csv",
    "fig6_timeline.csv",
    "fig7_coverage.csv",
    "fig8_popularity.csv",
)


# ---------------------------------------------------------------------------
# Formatting helpers.


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(
    out_dir: str, args: argparse.Namespace, inputs: list[str], counters: dict | None = None
) -> None:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and not key.startswith("_")
    }
    if config.get("token") is not None:
        config["token"] = "<redacted>"  # the manifest is shared; credentials are not
    manifest = {
        "tool": "ghreview",
        "version": __version__,
        "subcommand": args.subcommand,
        "seed": getattr(args, "seed", None),
        "config": config,
        "inputs": [
            {"name": os.path.basename(p), "sha256": _sha256(p)} for p in inputs
        ],
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }
    if counters is not None:
        manifest["counters"] = counters
    with archive._atomic_write(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args: argparse.Namespace) -> Corpus:
    corpus = archive.load_archive(args.input, lenient=args.lenient)
    # The corpus lives until the command ends and holds no reference cycles:
    # frozen, it is left out of every later collector pass.
    gc.freeze()
    return corpus


# ---------------------------------------------------------------------------
# Table builders shared by the standalone subcommands and `report`.


def _summaries(corpus: Corpus) -> dict[Category, analytics.RepoSummary]:
    return {cat: analytics.repo_summary(corpus, cat) for cat in corpus.categories()}


def _table1(summaries: dict[Category, analytics.RepoSummary]) -> tuple[list[str], list[list]]:
    header = ["statistic"] + [c.value for c in CATEGORY_ORDER]
    columns = [summaries.get(cat) for cat in CATEGORY_ORDER]
    rows: list[list] = [["n_repos"] + [s.n_repos if s else 0 for s in columns]]
    for name in analytics.SUMMARY_FIELDS:
        rows.append([name] + [getattr(s, name) if s else None for s in columns])
    return header, rows


def _correlation_table(corpus: Corpus, target: str) -> tuple[list[str], list[list]]:
    header = ["category", "feature", "r", "p", "n", "note"]
    rows: list[list] = []
    if target == "issues":
        features = analytics.ISSUE_TARGET_FEATURES
    else:
        features = analytics.ICS_TARGET_FEATURES
    for cat in corpus.categories():
        try:
            report = analytics.correlate_features(corpus, target=target, category=cat)
        except analytics.EmptySelectionError as exc:
            for feature in features:
                rows.append([cat.value, feature, None, None, 0, str(exc)])
            continue
        for row in report.rows:
            rows.append([cat.value, row.feature, row.r, row.p, row.n, row.note])
    return header, rows


def _fields_table(row_type: type, records: tuple) -> tuple[list[str], list[list]]:
    """One column per field of the ``row_type`` dataclass, in declaration order."""
    header = [f.name for f in fields(row_type)]
    return header, [[getattr(r, name) for name in header] for r in records]


def _expertise_tables(corpus: Corpus, _args: argparse.Namespace) -> dict:
    table4_rows: list[list] = []
    fig7_rows: list[list] = []
    for cat in corpus.categories():
        report = analytics.expertise_coverage(corpus, category=cat)
        if report.empty:
            table4_rows.append([cat.value, 0, report.n_issues, None, None])
            continue
        table4_rows.append(
            [
                cat.value,
                report.n_reviewers,
                report.n_issues,
                100.0 * report.popularity_ratio,
                100.0 * report.top20_issue_coverage,
            ]
        )
        for point in report.curve:
            fig7_rows.append([cat.value, point.reviewer_rank_pct, point.issues_covered_pct])
    return {
        "table4": (["category", "n_reviewers", "n_issues", "popularity_ratio_pct", "issue_coverage_pct"], table4_rows),
        "fig7_coverage": (["category", "reviewer_rank_pct", "issues_covered_pct"], fig7_rows),
    }


def _report_counters(corpus: Corpus, table: simulator.SimTable) -> dict:
    """Repos and undefined ICS scores per category, simulation exclusions per AP."""
    index = analytics.corpus_index(corpus)
    excluded: dict[str, int] = {}
    for (_, ap), sims in table.results.items():
        excluded[str(ap)] = excluded.get(str(ap), 0) + sum(s.excluded for s in sims)
    by_category = {cat.value: corpus.by_category(cat) for cat in corpus.categories()}
    return {
        "repos": {name: len(repos) for name, repos in by_category.items()},
        "ics_undefined": {
            name: sum(index[r].ics_report.undefined for r in repos)
            for name, repos in by_category.items()
        },
        "sim_excluded": excluded,
    }


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_fetch(args: argparse.Namespace) -> int:
    out_dir = os.path.dirname(os.path.abspath(args.out_archive))
    if not os.path.isdir(out_dir):  # before the first request, not after the last
        print(f"error: cannot write {args.out_archive}: no directory {out_dir}", file=sys.stderr)
        return 1
    plan = fetcher.FetchPlan(
        targets=tuple(args.repo),
        topic=args.topic,
        token=args.token,
        page_size=args.page_size,
        max_pages=args.max_pages,
        category=Category.parse(args.category),
        base_url=args.base_url,
        cache_dir=args.cache_dir,
        workers=args.workers,
    )
    try:
        client = fetcher.GitHubClient(plan)
        corpus = fetcher.fetch_corpus(plan, client=client)
    except fetcher.FetchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.sample is not None:
        # uniform subsample of fetched repos; a stand-in for corpus
        # collection procedures that were never published
        rng = random.Random(args.seed)
        keep = set(
            rng.sample([r.id for r in corpus.repos], min(args.sample, len(corpus.repos)))
        )
        corpus.repos = [r for r in corpus.repos if r.id in keep]
    archive.save_archive(corpus, args.out_archive)
    _write_manifest(
        out_dir, args, [],
        counters={"requests": client.requests, "not_modified": client.not_modified},
    )
    print(f"fetched {len(corpus.repos)} repositories -> {args.out_archive}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    corpus = _load(args)
    violations = validate(corpus)
    for rejection in corpus.rejected:
        print(f"rejected line {rejection.line_no}: {rejection.reason}")
    for violation in violations:
        print(str(violation))
    if violations:
        print(f"{len(violations)} violations")
        return 1
    print(f"OK: {len(corpus.repos)} repositories, {len(corpus.users)} users")
    return 0


def _tables_command(build):
    """A subcommand writing each table of ``build(corpus, args)``, by name, then the manifest."""

    def run(args: argparse.Namespace) -> int:
        corpus = _load(args)
        os.makedirs(args.out, exist_ok=True)
        for name, (header, rows) in build(corpus, args).items():
            _write_table(args.out, name, header, rows, args.format)
        _write_manifest(args.out, args, [args.input])
        return 0

    return run


def _summary_tables(corpus: Corpus, _args: argparse.Namespace) -> dict:
    return {"table1": _table1(_summaries(corpus))}


def _correlate_tables(corpus: Corpus, args: argparse.Namespace) -> dict:
    name = "table2" if args.target == "issues" else "table5"
    return {name: _correlation_table(corpus, args.target)}


def _classify_tables(corpus: Corpus, args: argparse.Namespace) -> dict:
    header = ["repo_id", "category", "n_gaps", "idm_hours", "dense_pct", "regular_pct", "dispersed_pct", "note"]
    rows: list[list] = []
    for repo in corpus.repos:
        gaps = temporal.issue_gaps(repo)
        try:
            median = temporal.idm(gaps)
            _, dist = temporal.classify_gaps(gaps, alpha=args.alpha)
        except temporal.InsufficientDataError as exc:
            rows.append([repo.id, repo.category.value, len(gaps.gaps), None, None, None, None, str(exc)])
            continue
        rows.append(
            [
                repo.id,
                repo.category.value,
                dist.n_gaps,
                median / HOUR,
                dist.dense_pct,
                dist.regular_pct,
                dist.dispersed_pct,
                None,
            ]
        )
    return {"classify": (header, rows)}


def _simulate(corpus: Corpus, args: argparse.Namespace) -> simulator.SimTable:
    configs = [
        simulator.SimConfig(
            acceptance_probability=ap,
            iap=args.iap,
            horizon=args.horizon,
            alpha=args.alpha,
            seed=args.seed,
            min_iap_issues=args.min_iap_issues,
            jitter=args.jitter,
            generative=args.generative,
        )
        for ap in args.ap
    ]
    table = simulator.simulate_corpus(corpus, configs, timeline_window=args.window)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    return table


def _sim_tables(table: simulator.SimTable) -> dict:
    return {
        "table3": _fields_table(simulator.SimRow, table.rows),
        "fig6_timeline": _fields_table(simulator.TimelineRow, table.timelines),
    }


def _simulate_tables(corpus: Corpus, args: argparse.Namespace) -> dict:
    return _sim_tables(_simulate(corpus, args))


def _community_tables(corpus: Corpus, args: argparse.Namespace) -> dict:
    header = ["repo_id", "category", "issue_count", "e2_count", "ics", "normalized_ics",
              "isolated_issues", "undefined", "exceeds_one"]
    rows: list[list] = []
    index = analytics.corpus_index(corpus)
    for repo in corpus.repos:
        graph = community.build_graph(repo, index[repo].postings)
        report = community.ics(graph)
        rows.append(
            [
                repo.id,
                repo.category.value,
                report.issue_count,
                report.e2_count,
                report.ics,
                community.normalized_ics(graph),
                len(report.isolated_issues),
                report.undefined,
                report.exceeds_one,
            ]
        )
        if args.export_graphs:
            community.export_graph(graph, os.path.join(args.out, "graphs"))
    return {"community": (header, rows)}


def _sentiment_tables(corpus: Corpus, args: argparse.Namespace) -> dict:
    rows: list[list] = []
    for repo in corpus.repos:
        score, n_comments = sentiment.repo_sentiment(repo)
        rows.append([repo.id, repo.category.value, n_comments, score if n_comments else None])
    return {"sentiment": (["repo_id", "category", "n_comments", "mean_score"], rows)}


def _cmd_report(args: argparse.Namespace) -> int:
    corpus = _load(args)
    if os.path.exists(args.out):
        if not args.force:
            print(f"error: output directory exists: {args.out}", file=sys.stderr)
            return 1
        shutil.rmtree(args.out)
    parent = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(parent, exist_ok=True)

    table = _simulate(corpus, args)
    summaries = _summaries(corpus)
    popularity = analytics.popularity_vs_comments(corpus)
    tables = {
        "table1": _table1(summaries),
        "table2": _correlation_table(corpus, "issues"),
        **_sim_tables(table),
        **_expertise_tables(corpus, args),
        "table5": _correlation_table(corpus, "ics"),
        "fig8_popularity": (
            ["repo_id", "issue_count", "r", "p", "n"],
            [[r.repo_id, r.issue_count, r.r, r.p, r.n] for r in popularity.rows],
        ),
    }
    combined = {
        "seed": args.seed,
        "alpha_hours": args.alpha / HOUR,
        "acceptance_probabilities": list(args.ap),
        "categories": {
            cat.value: {"summary": summary.as_dict() | {"n_repos": summary.n_repos}}
            for cat, summary in summaries.items()
        },
        "popularity_omitted_repos": popularity.omitted,
    }

    tmp = tempfile.mkdtemp(prefix=".report-", dir=parent)
    try:
        for name, (header, rows) in tables.items():
            _write_csv(os.path.join(tmp, f"{name}.csv"), header, rows)
        with open(os.path.join(tmp, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(tmp, args, [args.input], _report_counters(corpus, table))
        os.replace(tmp, args.out)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    print(f"report written to {args.out}")
    return 0


def _write_table(out_dir: str, name: str, header: list[str], rows: list[list], fmt: str) -> None:
    if fmt == "csv":
        _write_csv(os.path.join(out_dir, f"{name}.csv"), header, rows)
    else:
        payload = [dict(zip(header, row)) for row in rows]
        with open(os.path.join(out_dir, f"{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, default=_fmt)
            fh.write("\n")


# ---------------------------------------------------------------------------
# Argument parsing.


def _duration(text: str) -> float:
    try:
        return parse_duration(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_duration(text: str) -> float:
    value = _duration(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"duration must be positive: {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser, needs_out: bool = True) -> None:
    parser.add_argument("--in", dest="input", required=True, help="archive file to analyze")
    parser.add_argument("--lenient", action="store_true", help="drop bad records instead of failing")
    if needs_out:
        parser.add_argument("--out", default="out", help="output directory")
        parser.add_argument("--format", choices=("csv", "structured"), default="csv")
    parser.add_argument("--seed", type=int, default=0, help="seed echoed into the manifest")


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--ap", type=float, nargs="+", default=[0.3, 0.6, 0.9],
                        help="acceptance probabilities to simulate")
    parser.add_argument("--iap", type=_duration, default=6 * MONTH,
                        help="initial assessment period (e.g. 6mo)")
    parser.add_argument("--horizon", type=_duration, default=3 * YEAR,
                        help="total simulated span (e.g. 3y)")
    parser.add_argument("--min-iap-issues", type=int, default=3)
    parser.add_argument("--jitter", type=_duration, default=0.0,
                        help="uniform fire-time jitter half-width (default off)")
    parser.add_argument("--generative", action="store_true",
                        help="resample post-assessment gaps instead of replaying them")
    parser.add_argument("--window", type=_positive_duration, default=parse_duration("30d"),
                        help="timeline aggregation window")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ghreview",
        description="Repository event analytics: archives, gap classification, "
        "notification simulation, community graphs, and reports.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("fetch", help="pull repositories from a REST endpoint into an archive")
    p.add_argument("--repo", action="append", default=[], help="owner/name slug; repeatable")
    p.add_argument("--topic", help="also fetch repositories matching this topic")
    p.add_argument("--category", default=Category.RANDOM.value,
                   choices=[c.value for c in CATEGORY_ORDER])
    p.add_argument("--out-archive", required=True, help="archive file to write")
    p.add_argument("--page-size", type=int, default=100)
    p.add_argument("--max-pages", type=int, default=50)
    p.add_argument("--base-url", default="https://api.github.com")
    p.add_argument("--cache-dir", help="conditional-request cache directory")
    p.add_argument("--workers", type=int, default=4)
    p.add_argument("--token", help="API token (else read from GITHUB_TOKEN)")
    p.add_argument("--sample", type=int,
                   help="keep only a seeded uniform subsample of fetched repos")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fetch, subcommand="fetch")

    p = sub.add_parser("validate", help="check an archive against the data-model invariants")
    _add_common(p, needs_out=False)
    p.set_defaults(func=_cmd_validate, subcommand="validate")

    p = sub.add_parser("summary", help="per-category summary statistics")
    _add_common(p)
    p.set_defaults(func=_tables_command(_summary_tables), subcommand="summary")

    p = sub.add_parser("classify", help="per-repo gap classification shares")
    _add_common(p)
    p.add_argument("--alpha", type=_positive_duration, default=ALPHA_DEFAULT,
                   help="half-width of the regular band (e.g. 6h)")
    p.set_defaults(func=_tables_command(_classify_tables), subcommand="classify")

    p = sub.add_parser("simulate", help="notification simulation over the corpus")
    _add_common(p)
    p.add_argument("--alpha", type=_positive_duration, default=ALPHA_DEFAULT)
    _add_sim_flags(p)
    p.set_defaults(func=_tables_command(_simulate_tables), subcommand="simulate")

    p = sub.add_parser("community", help="issue community graphs and scores")
    _add_common(p)
    p.add_argument("--export-graphs", action="store_true",
                   help="also write per-repo edge-list CSVs")
    p.set_defaults(func=_tables_command(_community_tables), subcommand="community")

    p = sub.add_parser("expertise", help="reviewer coverage and popularity concentration")
    _add_common(p)
    p.set_defaults(func=_tables_command(_expertise_tables), subcommand="expertise")

    p = sub.add_parser("correlate", help="feature correlations per category")
    _add_common(p)
    p.add_argument("--target", choices=("issues", "ics"), default="issues")
    p.set_defaults(func=_tables_command(_correlate_tables), subcommand="correlate")

    p = sub.add_parser("sentiment", help="per-repo mean comment sentiment")
    _add_common(p)
    p.set_defaults(func=_tables_command(_sentiment_tables), subcommand="sentiment")

    p = sub.add_parser("report", help="full pipeline: all table and figure files")
    _add_common(p)
    p.add_argument("--alpha", type=_positive_duration, default=ALPHA_DEFAULT)
    _add_sim_flags(p)
    p.add_argument("--force", action="store_true", help="replace an existing output directory")
    p.set_defaults(func=_cmd_report, subcommand="report")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    frozen = gc.get_freeze_count()
    try:
        return args.func(args)
    except (archive.ArchiveError, ValueError, OSError) as exc:  # the analysis errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if not frozen:  # thaw only what ``_load`` froze: a caller's own freeze stays
            gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
