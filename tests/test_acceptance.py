"""Acceptance gate: every core result checked against an independent oracle.

One test per guarantee, in a fixed order.  Each test measures its own
wall time and asserts a ceiling, so a performance regression fails the
gate exactly like a correctness bug.  A PASS line with the measured
runtime is printed at the end of each test (visible with -rA or -s).
"""

from __future__ import annotations

import random
import statistics
import time

import pytest
from scipy import stats

from ghreview.analytics import expertise_coverage, pearson
from ghreview.cli import REPORT_FILES, main
from ghreview.community import build_graph, ics
from ghreview.fetcher import FetchError, FetchPlan, fetch_corpus
from ghreview.models import (
    CATEGORY_ORDER,
    Category,
    Comment,
    Corpus,
    Issue,
    Repository,
    User,
)
from ghreview.sentiment import SentimentLexicon, default_lexicon, score_comment
from ghreview.simulator import SimConfig, event_log_lines, simulate
from ghreview.synthetic import lognormal_repo, periodic_repo, random_corpus
from ghreview.temporal import (
    ALPHA_DEFAULT,
    InsufficientDataError,
    Label,
    classify_gaps,
    idm,
)
from ghreview.units import DAY, HOUR
from conftest import GOLDEN, TINY
from fetch_fixture import (
    LOGIN_POOL,
    TOOLS,
    WIDGETS,
    WIDGETS_COMMENTS,
    WIDGETS_COMMITS_KEPT,
    WIDGETS_ISSUES,
    fixture_server,
)
from reference_reviewers import issue_reviewers
from reference_sim import sort_median_positive
from test_community import _brute_force_pairs, _repo_from_sets
from test_fetcher import TOOLS_REQUESTS, WIDGETS_REQUESTS


class _Stopwatch:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0
        return False


def _finish(sw: _Stopwatch, limit: float, label: str) -> None:
    assert sw.elapsed < limit, f"{label}: {sw.elapsed:.2f}s exceeded the {limit:.0f}s budget"
    print(f"PASS {label} ({sw.elapsed:.2f}s < {limit:.0f}s)")


def _random_gaps(rng: random.Random, allow_all_zero: bool = True) -> list[float]:
    n = rng.randint(1, 60)
    gaps: list[float] = []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.15:
            gaps.append(0.0)
        elif roll < 0.30:
            gaps.append(float(rng.randint(1, 10_000)))
        else:
            gaps.append(rng.uniform(1e-6, 90 * DAY))
    if not allow_all_zero and not any(g > 0 for g in gaps):
        gaps[rng.randrange(n)] = rng.uniform(1.0, DAY)
    return gaps


# -- 1 -----------------------------------------------------------------------


def test_idm_matches_sort_based_median_oracle():
    with _Stopwatch() as sw:
        for seed in range(1000):
            gaps = _random_gaps(random.Random(seed))
            try:
                expected = sort_median_positive(gaps)
            except ValueError:
                with pytest.raises(InsufficientDataError):
                    idm(gaps)
                continue
            assert idm(gaps) == expected, f"seed {seed}"
    _finish(sw, 5.0, "median oracle: 1000 series exact")


# -- 2 -----------------------------------------------------------------------


def test_gap_labels_partition_and_respect_band():
    with _Stopwatch() as sw:
        for seed in range(1000):
            rng = random.Random(10_000 + seed)
            gaps = _random_gaps(rng, allow_all_zero=False)
            alpha = rng.uniform(1, 12) * HOUR
            labels, dist = classify_gaps(gaps, alpha=alpha)
            total = dist.dense_pct + dist.regular_pct + dist.dispersed_pct
            assert abs(total - 100.0) < 1e-9, f"seed {seed}"
            median = sort_median_positive(gaps)
            for gap, label in zip(gaps, labels):
                if gap == 0 or gap < median - alpha:
                    expected = Label.DENSE
                elif gap > median + alpha:
                    expected = Label.DISPERSED
                else:
                    expected = Label.REGULAR
                assert label is expected, f"seed {seed}: gap {gap} vs band"
    _finish(sw, 5.0, "classifier: partition to 1e-9, every label re-derived")


# -- 3 -----------------------------------------------------------------------


def test_zero_acceptance_changes_nothing_and_replays_identically():
    with _Stopwatch() as sw:
        repos = [lognormal_repo(f"idn{i:03d}/repo", seed=i) for i in range(100)]
        config = SimConfig(acceptance_probability=0.0, seed=0)
        logs: list[bytes] = []
        for repo in repos:
            result = simulate(repo, config)
            assert not result.excluded, repo.id
            assert result.injected_times == ()
            assert result.after == result.before, repo.id
            logs.append("\n".join(event_log_lines(result)).encode())
        for repo, log in zip(repos, logs):
            again = simulate(repo, config)
            assert "\n".join(event_log_lines(again)).encode() == log, repo.id
    _finish(sw, 30.0, "simulator identity: zero acceptance leaves all 100 repos unchanged")


# -- 4 -----------------------------------------------------------------------


def test_full_acceptance_regularizes_and_trend_rises_with_ap():
    with _Stopwatch() as sw:
        # issues on an exact one-day period fill the assessment window, so
        # with certain acceptance every injected gap equals the median
        periodic = periodic_repo("acc/periodic", n_issues=182)
        result = simulate(periodic, SimConfig(acceptance_probability=1.0, seed=0))
        assert result.injected_only is not None
        assert result.injected_only.regular_pct == 100.0
        assert result.after.regular_pct == 100.0

        repos = [lognormal_repo(f"trend{i:03d}/repo", seed=1000 + i) for i in range(100)]
        regular_at: dict[float, list[float]] = {}
        for ap in (0.3, 0.6, 0.9):
            config = SimConfig(acceptance_probability=ap, seed=0)
            shares = []
            for repo in repos:
                res = simulate(repo, config)
                assert not res.excluded, repo.id
                shares.append(res.after.regular_pct)
            regular_at[ap] = shares
        total = 0
        non_decreasing = 0
        for lo, hi in ((0.3, 0.6), (0.6, 0.9)):
            for a, b in zip(regular_at[lo], regular_at[hi]):
                total += 1
                non_decreasing += b >= a
        assert non_decreasing >= 0.95 * total, f"{non_decreasing}/{total} paired comparisons"
        means = [statistics.mean(regular_at[ap]) for ap in (0.3, 0.6, 0.9)]
        assert means[0] < means[1] < means[2], means
    _finish(sw, 120.0, "simulator regularity: all-regular at certainty, share rises with acceptance")


# -- 5 -----------------------------------------------------------------------


def test_ics_matches_pair_enumeration_and_worked_examples():
    with _Stopwatch() as sw:
        pool = [f"rev{j}" for j in range(6)]
        for seed in range(500):
            rng = random.Random(seed)
            n_issues = rng.randint(0, 12)
            sets = []
            for _ in range(n_issues):
                counts = {}
                for _ in range(rng.randint(0, 4)):
                    counts[rng.choice(pool)] = rng.randint(1, 3)
                sets.append(counts)
            report = ics(build_graph(_repo_from_sets(f"acc/g{seed}", sets)))
            pairs = _brute_force_pairs(sets)
            assert report.e2_count == pairs, f"seed {seed}"
            if n_issues == 0:
                assert report.ics == 0.0
            elif n_issues == 1:
                assert report.ics is None and report.undefined
            else:
                assert report.ics == pairs / (n_issues - 1), f"seed {seed}"

        shared = ics(build_graph(_repo_from_sets("acc/two", [{"r": 1}, {"r": 1}])))
        assert shared.ics == 1.0 and shared.e2_count == 1
        chain = ics(
            build_graph(
                _repo_from_sets(
                    "acc/five", [{"x": 1}, {"x": 1}, {"x": 1}, {"y": 1}, {"z": 1}]
                )
            )
        )
        assert chain.ics == 0.75 and chain.e2_count == 3
        clique = ics(build_graph(_repo_from_sets("acc/four", [{"q": 1}] * 4)))
        assert clique.ics == 2.0 and clique.e2_count == 6 and clique.exceeds_one
    _finish(sw, 10.0, "community score: 500 random graphs equal pair enumeration")


# -- 6 -----------------------------------------------------------------------


def test_pearson_matches_reference_within_tolerance():
    with _Stopwatch() as sw:
        for seed in range(200):
            rng = random.Random(seed)
            n = rng.randint(5, 500)
            xs = [rng.gauss(0.0, 1.0) for _ in range(n)]
            ys = [rng.gauss(0.0, 1.0) + 0.4 * x for x in xs]
            r, p, n_used = pearson(xs, ys)
            reference = stats.pearsonr(xs, ys)
            assert abs(r - reference.statistic) < 1e-12, f"seed {seed}"
            assert abs(p - reference.pvalue) < 1e-9, f"seed {seed}"
            assert n_used == n
        r, p, _ = pearson([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
        assert r == 1.0 and p == 0.0
    _finish(sw, 5.0, "correlation: 200 series within 1e-12 (r) and 1e-9 (p) of reference")


# -- 7 -----------------------------------------------------------------------


def _single_reviewer_repo(followers: list[int]) -> Corpus:
    opener = User(login="opener", followers=0)
    issues = []
    for k, count in enumerate(followers):
        issue_id = f"acc/cov#{k + 1}"
        reviewer = User(login=f"rev{k}", followers=count)
        issues.append(
            Issue(
                id=issue_id,
                repo_id="acc/cov",
                opener=opener,
                created_at=1.5e9 + k * DAY,
                comments=[
                    Comment(issue_id=issue_id, author=reviewer, created_at=1.5e9 + k * DAY + 60)
                ],
            )
        )
    repo = Repository(
        id="acc/cov", category=Category.RANDOM, created_at=1.5e9, owner=opener, issues=issues
    )
    return Corpus(repos=[repo], users={})


def test_coverage_ratio_and_curves_match_brute_force(tiny_corpus):
    with _Stopwatch() as sw:
        worked = expertise_coverage(_single_reviewer_repo([100, 50, 10, 5, 1]))
        assert worked.popularity_ratio == pytest.approx(100 / 166, abs=1e-12)

        for cat in CATEGORY_ORDER:
            report = expertise_coverage(tiny_corpus, category=cat)
            follower_of: dict[str, int] = {}
            reviewed: dict[str, set[str]] = {}
            n_issues = 0
            for repo in (r for r in tiny_corpus.repos if r.category is cat):
                for issue in repo.issues:
                    n_issues += 1
                    for user in issue_reviewers(issue):
                        follower_of[user.login] = user.followers
                        reviewed.setdefault(user.login, set()).add(issue.id)
            ranked = sorted(follower_of, key=lambda login: (-follower_of[login], login))
            assert len(report.curve) == len(ranked)
            covered: set[str] = set()
            for k, login in enumerate(ranked, start=1):
                covered |= reviewed[login]
                point = report.curve[k - 1]
                assert point.reviewer_rank_pct == 100.0 * k / len(ranked)
                assert point.issues_covered_pct == 100.0 * len(covered) / n_issues

        checked = 0
        seed = 0
        while checked < 500:
            for repo in random_corpus(seed).repos:
                report = expertise_coverage(Corpus(repos=[repo], users={}))
                if report.empty:
                    continue
                pcts = [point.issues_covered_pct for point in report.curve]
                assert pcts == sorted(pcts), repo.id
                assert pcts[-1] <= 100.0
                checked += 1
            seed += 1
    _finish(sw, 10.0, "coverage: worked ratio to 1e-12, curves equal prefix union, monotone on 500 repos")


# -- 8 -----------------------------------------------------------------------


def test_sentiment_bounded_neutral_and_sign_symmetric():
    with _Stopwatch() as sw:
        lexicon = default_lexicon()
        mirrored = SentimentLexicon(
            entries={token: -value for token, value in lexicon.entries.items()},
            negators=set(lexicon.negators),
            intensifiers=dict(lexicon.intensifiers),
            version=lexicon.version,
        )
        fillers = ["zzz", "qqq", "blorp", "xyzzy"]
        vocab = (
            list(lexicon.entries)
            + list(lexicon.negators)
            + list(lexicon.intensifiers)
            + fillers
        )
        rng = random.Random(8)
        for _ in range(10_000):
            words = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 25)))
            score = score_comment(words, lexicon)
            assert -1.0 <= score <= 1.0
            assert score_comment(words, mirrored) == -score  # exact sign flip
        for _ in range(1000):
            words = " ".join(rng.choice(fillers) for _ in range(rng.randint(0, 25)))
            assert score_comment(words, lexicon) == 0.0  # exact neutrality
    _finish(sw, 10.0, "sentiment: 10000 streams bounded, neutrality and symmetry exact")


# -- 9 -----------------------------------------------------------------------


def test_fetcher_pagination_cache_and_budget(tmp_path):
    with _Stopwatch() as sw:
        limit = 5000
        with fixture_server(limit=limit) as (state, base_url):
            plan = FetchPlan(
                base_url=base_url,
                page_size=100,
                cache_dir=str(tmp_path / "cold"),
                targets=(TOOLS, WIDGETS),
            )
            cold = fetch_corpus(plan)
            widgets = cold.repo(WIDGETS)
            assert len(widgets.issues) == WIDGETS_ISSUES
            assert sum(len(i.comments) for i in widgets.issues) == WIDGETS_COMMENTS
            assert len(widgets.commits) == WIDGETS_COMMITS_KEPT
            assert state.full_responses == TOOLS_REQUESTS + WIDGETS_REQUESTS - len(LOGIN_POOL)
            assert state.remaining == limit - state.full_responses
            assert state.remaining >= 0  # budget never overdrawn
            cold_full = state.full_responses
            warm = fetch_corpus(plan)
            assert state.full_responses == cold_full  # warm rerun is all revalidations
            assert warm.repos == cold.repos

        with fixture_server() as (clean_state, clean_url):
            clean = fetch_corpus(
                FetchPlan(
                    base_url=clean_url,
                    page_size=100,
                    cache_dir=str(tmp_path / "clean"),
                    targets=(TOOLS, WIDGETS),
                )
            )
            clean_full = clean_state.full_responses

        with fixture_server(fail_after=40) as (state, base_url):
            resumable = FetchPlan(
                base_url=base_url,
                page_size=100,
                cache_dir=str(tmp_path / "resume"),
                targets=(TOOLS, WIDGETS),
            )
            with pytest.raises(FetchError):
                fetch_corpus(resumable)
            state.fail_after = None
            resumed = fetch_corpus(resumable)
            assert state.full_responses == clean_full
        assert resumed.repos == clean.repos
        assert resumed.users == clean.users
    _finish(sw, 30.0, "fetcher: exact page counts, free revalidation, resume converges")


# -- 10 ----------------------------------------------------------------------


def test_report_is_reproducible_and_matches_golden(tmp_path):
    with _Stopwatch() as sw:
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            rc = main(["report", "--in", str(TINY), "--out", str(out), "--seed", "0"])
            assert rc == 0
        for name in REPORT_FILES + ("report.json",):
            got_first = (first / name).read_bytes()
            assert got_first == (second / name).read_bytes(), name
            assert got_first == (GOLDEN / "report" / name).read_bytes(), name
    _finish(sw, 10.0, "report: two runs byte-identical and equal to the committed reference")
