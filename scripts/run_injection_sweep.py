#!/usr/bin/env python3
"""Sweep the notification acceptance probability over a corpus.

Prints, per category and acceptance probability, the mean regular share
before and after injection plus the injected-only share.  Because the
per-repository random streams are keyed by seed and repository id, the
acceptance draws are paired across probabilities; the sweep therefore
also reports how many individual repositories kept or improved their
regular share between adjacent probabilities, which is a much stricter
reading of the trend than the category means.
"""

from __future__ import annotations

import argparse
import csv
import sys

from ghreview.archive import load_archive
from ghreview.cli import positive_duration
from ghreview.models import Corpus
from ghreview.simulator import SimConfig, simulate_corpus
from ghreview.synthetic import lognormal_repo
from ghreview.units import ALPHA_DEFAULT


def _sweep_corpus(args: argparse.Namespace) -> Corpus:
    if args.archive:
        return load_archive(args.archive)
    repos = [
        lognormal_repo(f"sweep{i:03d}/repo", seed=args.seed + i)
        for i in range(args.n_repos)
    ]
    return Corpus(repos=repos, users={})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Acceptance-probability sweep of the notification simulator."
    )
    parser.add_argument(
        "--archive", help="input archive; omitted -> synthetic log-normal corpus"
    )
    parser.add_argument("--n-repos", type=int, default=50, help="synthetic corpus size")
    parser.add_argument(
        "--ap", type=float, nargs="+", default=[0.3, 0.6, 0.9],
        help="acceptance probabilities to sweep",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--alpha", type=positive_duration, default=ALPHA_DEFAULT,
        help="half-width of the regular band (e.g. 6h)",
    )
    parser.add_argument("--out", help="also write the per-category rows as CSV")
    args = parser.parse_args(argv)
    try:  # SimConfig's rules, before the corpus is loaded or built
        configs = [
            SimConfig(acceptance_probability=ap, seed=args.seed, alpha=args.alpha)
            for ap in args.ap
        ]
    except ValueError as exc:
        parser.error(str(exc))

    corpus = _sweep_corpus(args)
    table = simulate_corpus(corpus, configs)
    for warning in table.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    print(f"{'category':<10} {'ap':>4} {'before%':>8} {'after%':>8} {'injected%':>10} {'repos':>6}")
    for row in table.rows:
        injected = (
            f"{row.injected_regular_pct:10.2f}"
            if row.injected_regular_pct is not None
            else f"{'-':>10}"
        )
        print(
            f"{row.category:<10} {row.ap:>4.1f} {row.before_regular_pct:8.2f} "
            f"{row.regular_pct:8.2f} {injected} {row.n_repos:>6}"
        )

    # paired per-repository trend between adjacent probabilities
    shares: dict[tuple[float, str], float] = {}
    for (_, ap), sims in table.results.items():
        for result in sims:
            if not result.excluded:
                shares[(ap, result.repo_id)] = result.after.regular_pct
    for lo, hi in zip(sorted(args.ap), sorted(args.ap)[1:]):
        pairs = [
            (shares[(lo, rid)], shares[(hi, rid)])
            for (ap, rid) in shares
            if ap == lo and (hi, rid) in shares
        ]
        if not pairs:
            continue
        up = sum(1 for a, b in pairs if b >= a)
        print(
            f"regular share non-decreasing {lo:g} -> {hi:g}: "
            f"{up}/{len(pairs)} repositories"
        )

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["category", "ap", "before_regular_pct", "regular_pct",
                 "injected_regular_pct", "n_repos", "n_excluded"]
            )
            for row in table.rows:
                writer.writerow(
                    [row.category, row.ap, row.before_regular_pct, row.regular_pct,
                     row.injected_regular_pct, row.n_repos, row.n_excluded]
                )
        print(f"rows written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
