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
import hashlib
import json
import os
import random
import shutil
import sys
import tempfile
from datetime import datetime, timezone

from . import __version__
from .analytics import (
    ICS_TARGET_FEATURES,
    ISSUE_TARGET_FEATURES,
    SUMMARY_FIELDS,
    EmptySelectionError,
    RepoSummary,
    correlate_features,
    expertise_coverage,
    popularity_vs_comments,
    repo_summary,
)
from .archive import ArchiveError, load_archive, save_archive
from .community import build_graph, ics, normalized_ics, export_graph
from .fetcher import FetchError, FetchPlan, GitHubClient, fetch_corpus
from .models import CATEGORY_ORDER, Category, Corpus, validate
from .sentiment import repo_sentiment
from .simulator import SimConfig, SimTable, simulate_corpus
from .temporal import (
    ALPHA_DEFAULT,
    InsufficientDataError,
    classify_gaps,
    idm,
    issue_gaps,
)
from .units import HOUR, MONTH, YEAR, parse_duration

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


def _write_manifest(out_dir: str, args: argparse.Namespace, inputs: list[str]) -> None:
    config = {
        key: value
        for key, value in sorted(vars(args).items())
        if key != "func" and not key.startswith("_")
    }
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
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load(args: argparse.Namespace) -> Corpus:
    return load_archive(args.input, lenient=args.lenient)


def _ensure_out(args: argparse.Namespace) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


# ---------------------------------------------------------------------------
# Table builders shared by the standalone subcommands and `report`.


def _summaries(corpus: Corpus) -> dict[Category, RepoSummary]:
    return {cat: repo_summary(corpus, cat) for cat in corpus.categories()}


def _table1(summaries: dict[Category, RepoSummary]) -> tuple[list[str], list[list]]:
    header = ["statistic"] + [c.value for c in CATEGORY_ORDER]
    columns = [summaries.get(cat) for cat in CATEGORY_ORDER]
    rows: list[list] = [["n_repos"] + [s.n_repos if s else 0 for s in columns]]
    for name in SUMMARY_FIELDS:
        rows.append([name] + [getattr(s, name) if s else None for s in columns])
    return header, rows


def _correlation_table(corpus: Corpus, target: str) -> tuple[list[str], list[list]]:
    header = ["category", "feature", "r", "p", "n", "note"]
    rows: list[list] = []
    features = ISSUE_TARGET_FEATURES if target == "issues" else ICS_TARGET_FEATURES
    for cat in corpus.categories():
        try:
            report = correlate_features(corpus, target=target, category=cat)
        except EmptySelectionError as exc:
            for feature in features:
                rows.append([cat.value, feature, None, None, 0, str(exc)])
            continue
        for row in report.rows:
            rows.append([cat.value, row.feature, row.r, row.p, row.n, row.note])
    return header, rows


def _table3(table: SimTable) -> tuple[list[str], list[list]]:
    header = [
        "category",
        "ap",
        "dense_pct",
        "regular_pct",
        "dispersed_pct",
        "before_dense_pct",
        "before_regular_pct",
        "before_dispersed_pct",
        "injected_dense_pct",
        "injected_regular_pct",
        "injected_dispersed_pct",
        "n_repos",
        "n_excluded",
    ]
    rows = [
        [
            r.category,
            r.ap,
            r.dense_pct,
            r.regular_pct,
            r.dispersed_pct,
            r.before_dense_pct,
            r.before_regular_pct,
            r.before_dispersed_pct,
            r.injected_dense_pct,
            r.injected_regular_pct,
            r.injected_dispersed_pct,
            r.n_repos,
            r.n_excluded,
        ]
        for r in table.rows
    ]
    return header, rows


def _fig6(table: SimTable) -> tuple[list[str], list[list]]:
    header = ["category", "ap", "window_index", "before_regular_pct", "after_regular_pct", "n_repos"]
    rows = [
        [t.category, t.ap, t.window_index, t.before_regular_pct, t.after_regular_pct, t.n_repos]
        for t in table.timelines
    ]
    return header, rows


def _expertise_tables(corpus: Corpus) -> tuple[tuple[list[str], list[list]], tuple[list[str], list[list]]]:
    table4_rows: list[list] = []
    fig7_rows: list[list] = []
    for cat in corpus.categories():
        report = expertise_coverage(corpus, category=cat)
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
    return (
        (["category", "n_reviewers", "n_issues", "popularity_ratio_pct", "issue_coverage_pct"], table4_rows),
        (["category", "reviewer_rank_pct", "issues_covered_pct"], fig7_rows),
    )


def _fig8(corpus: Corpus) -> tuple[tuple[list[str], list[list]], int]:
    report = popularity_vs_comments(corpus)
    rows = [[r.repo_id, r.issue_count, r.r, r.p, r.n] for r in report.rows]
    return (["repo_id", "issue_count", "r", "p", "n"], rows), report.omitted


# ---------------------------------------------------------------------------
# Subcommand implementations.


def _cmd_fetch(args: argparse.Namespace) -> int:
    plan = FetchPlan(
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
    client = GitHubClient(plan)
    corpus = fetch_corpus(plan, client=client)
    if args.sample is not None:
        # uniform subsample of fetched repos; a stand-in for corpus
        # collection procedures that were never published
        rng = random.Random(args.seed)
        keep = set(
            rng.sample([r.id for r in corpus.repos], min(args.sample, len(corpus.repos)))
        )
        corpus.repos = [r for r in corpus.repos if r.id in keep]
    save_archive(corpus, args.out_archive)
    out_dir = os.path.dirname(os.path.abspath(args.out_archive)) or "."
    _write_manifest(out_dir, args, [])
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


def _cmd_summary(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    header, rows = _table1(_summaries(corpus))
    _write_table(out, "table1", header, rows, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    header = ["repo_id", "category", "n_gaps", "idm_hours", "dense_pct", "regular_pct", "dispersed_pct", "note"]
    rows: list[list] = []
    for repo in corpus.repos:
        gaps = issue_gaps(repo)
        try:
            median = idm(gaps)
            _, dist = classify_gaps(gaps, alpha=args.alpha)
        except InsufficientDataError as exc:
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
    _write_table(out, "classify", header, rows, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _sim_configs(args: argparse.Namespace) -> list[SimConfig]:
    return [
        SimConfig(
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


def _cmd_simulate(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    table = simulate_corpus(corpus, _sim_configs(args), timeline_window=args.window)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    header, rows = _table3(table)
    _write_table(out, "table3", header, rows, args.format)
    header6, rows6 = _fig6(table)
    _write_table(out, "fig6_timeline", header6, rows6, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _cmd_community(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    header = [
        "repo_id",
        "category",
        "issue_count",
        "e2_count",
        "ics",
        "normalized_ics",
        "isolated_issues",
        "undefined",
        "exceeds_one",
    ]
    rows: list[list] = []
    for repo in corpus.repos:
        graph = build_graph(repo)
        report = ics(graph)
        rows.append(
            [
                repo.id,
                repo.category.value,
                report.issue_count,
                report.e2_count,
                report.ics,
                normalized_ics(graph),
                len(report.isolated_issues),
                report.undefined,
                report.exceeds_one,
            ]
        )
        if args.export_graphs:
            export_graph(graph, os.path.join(out, "graphs"))
    _write_table(out, "community", header, rows, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _cmd_expertise(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    (h4, r4), (h7, r7) = _expertise_tables(corpus)
    _write_table(out, "table4", h4, r4, args.format)
    _write_table(out, "fig7_coverage", h7, r7, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    header, rows = _correlation_table(corpus, args.target)
    name = "table2" if args.target == "issues" else "table5"
    _write_table(out, name, header, rows, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _cmd_sentiment(args: argparse.Namespace) -> int:
    corpus = _load(args)
    out = _ensure_out(args)
    header = ["repo_id", "category", "n_comments", "mean_score"]
    rows: list[list] = []
    for repo in corpus.repos:
        score, n_comments = repo_sentiment(repo)
        rows.append(
            [repo.id, repo.category.value, n_comments, score if n_comments else None]
        )
    _write_table(out, "sentiment", header, rows, args.format)
    _write_manifest(out, args, [args.input])
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    corpus = _load(args)
    if os.path.exists(args.out):
        if not args.force:
            print(f"error: output directory exists: {args.out}", file=sys.stderr)
            return 1
        shutil.rmtree(args.out)
    parent = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(parent, exist_ok=True)

    table = simulate_corpus(corpus, _sim_configs(args), timeline_window=args.window)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    summaries = _summaries(corpus)
    h1, r1 = _table1(summaries)
    h2, r2 = _correlation_table(corpus, "issues")
    h3, r3 = _table3(table)
    (h4, r4), (h7, r7) = _expertise_tables(corpus)
    h5, r5 = _correlation_table(corpus, "ics")
    h6, r6 = _fig6(table)
    (h8, r8), omitted = _fig8(corpus)

    combined = {
        "seed": args.seed,
        "alpha_hours": args.alpha / HOUR,
        "acceptance_probabilities": list(args.ap),
        "categories": {
            cat.value: {"summary": summary.as_dict() | {"n_repos": summary.n_repos}}
            for cat, summary in summaries.items()
        },
        "popularity_omitted_repos": omitted,
    }

    tmp = tempfile.mkdtemp(prefix=".report-", dir=parent)
    try:
        _write_csv(os.path.join(tmp, "table1.csv"), h1, r1)
        _write_csv(os.path.join(tmp, "table2.csv"), h2, r2)
        _write_csv(os.path.join(tmp, "table3.csv"), h3, r3)
        _write_csv(os.path.join(tmp, "table4.csv"), h4, r4)
        _write_csv(os.path.join(tmp, "table5.csv"), h5, r5)
        _write_csv(os.path.join(tmp, "fig6_timeline.csv"), h6, r6)
        _write_csv(os.path.join(tmp, "fig7_coverage.csv"), h7, r7)
        _write_csv(os.path.join(tmp, "fig8_popularity.csv"), h8, r8)
        with open(os.path.join(tmp, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(combined, fh, indent=2, sort_keys=True)
            fh.write("\n")
        _write_manifest(tmp, args, [args.input])
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
    parser.add_argument("--window", type=_duration, default=parse_duration("30d"),
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
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_validate, subcommand="validate")

    p = sub.add_parser("summary", help="per-category summary statistics")
    _add_common(p)
    p.set_defaults(func=_cmd_summary, subcommand="summary")

    p = sub.add_parser("classify", help="per-repo gap classification shares")
    _add_common(p)
    p.add_argument("--alpha", type=_duration, default=ALPHA_DEFAULT,
                   help="half-width of the regular band (e.g. 6h)")
    p.set_defaults(func=_cmd_classify, subcommand="classify")

    p = sub.add_parser("simulate", help="notification simulation over the corpus")
    _add_common(p)
    p.add_argument("--alpha", type=_duration, default=ALPHA_DEFAULT)
    _add_sim_flags(p)
    p.set_defaults(func=_cmd_simulate, subcommand="simulate")

    p = sub.add_parser("community", help="issue community graphs and scores")
    _add_common(p)
    p.add_argument("--export-graphs", action="store_true",
                   help="also write per-repo edge-list CSVs")
    p.set_defaults(func=_cmd_community, subcommand="community")

    p = sub.add_parser("expertise", help="reviewer coverage and popularity concentration")
    _add_common(p)
    p.set_defaults(func=_cmd_expertise, subcommand="expertise")

    p = sub.add_parser("correlate", help="feature correlations per category")
    _add_common(p)
    p.add_argument("--target", choices=("issues", "ics"), default="issues")
    p.set_defaults(func=_cmd_correlate, subcommand="correlate")

    p = sub.add_parser("sentiment", help="per-repo mean comment sentiment")
    _add_common(p)
    p.set_defaults(func=_cmd_sentiment, subcommand="sentiment")

    p = sub.add_parser("report", help="full pipeline: all table and figure files")
    _add_common(p)
    p.add_argument("--alpha", type=_duration, default=ALPHA_DEFAULT)
    _add_sim_flags(p)
    p.add_argument("--force", action="store_true", help="replace an existing output directory")
    p.set_defaults(func=_cmd_report, subcommand="report")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ArchiveError, FetchError, EmptySelectionError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
