"""Summary statistics, Pearson correlation, expertise coverage, popularity."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

from ghreview.analytics import (
    DegenerateSeriesError,
    EmptySelectionError,
    ICS_TARGET_FEATURES,
    ISSUE_TARGET_FEATURES,
    SUMMARY_FIELDS,
    corpus_reference_time,
    corpus_index,
    correlate_features,
    expertise_coverage,
    pearson,
    popularity_vs_comments,
    repo_metrics,
    repo_summary,
)
from ghreview.models import (
    Category,
    Comment,
    Commit,
    Corpus,
    Issue,
    Repository,
    User,
    reviewer_postings,
)
from ghreview.community import build_graph, ics
from ghreview.sentiment import repo_sentiment
from ghreview.synthetic import random_corpus
from ghreview.units import DAY
from reference_reviewers import issue_reviewers, received_comment_count, reviewer_comment_counts

BASE = 1_600_000_000


# --- pearson ---------------------------------------------------------------


def test_pearson_worked_example():
    result = pearson([1, 2, 3, 4, 5], [2, 1, 4, 3, 5])
    assert result.r == pytest.approx(0.8, abs=1e-15)
    assert result.p == pytest.approx(0.10408803866182777, abs=1e-12)
    assert result.n == 5


def test_pearson_perfect_linearity_has_zero_p():
    up = pearson([1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0])
    assert up.r == 1.0 and up.p == 0.0
    down = pearson([1.0, 2.0, 3.0], [5.0, 3.0, 1.0])
    assert down.r == -1.0 and down.p == 0.0


@pytest.mark.parametrize(
    ("x", "y"),
    [
        ([1.0, 2.0], [3.0, 4.0]),  # too short
        ([5.0, 5.0, 5.0], [1.0, 2.0, 3.0]),  # constant x
        ([1.0, 2.0, 3.0], [7.0, 7.0, 7.0]),  # constant y
    ],
)
def test_pearson_degenerate_series(x, y):
    with pytest.raises(DegenerateSeriesError):
        pearson(x, y)


def test_pearson_length_mismatch():
    with pytest.raises(ValueError):
        pearson([1.0, 2.0, 3.0], [1.0, 2.0])


def test_pearson_against_reference_implementation():
    rng = random.Random(123)
    worst_r = worst_p = 0.0
    for _ in range(100):
        n = rng.randint(5, 400)
        x = [rng.gauss(0, 3) for _ in range(n)]
        noise = rng.random() * 2
        y = [0.4 * v + rng.gauss(0, noise + 0.1) for v in x]
        got = pearson(x, y)
        want_r, want_p = stats.pearsonr(x, y)
        worst_r = max(worst_r, abs(got.r - want_r))
        worst_p = max(worst_p, abs(got.p - want_p))
    assert worst_r < 1e-12
    assert worst_p < 1e-9


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-100, max_value=100), min_size=3, max_size=40),
    scale=st.floats(min_value=0.1, max_value=50),
    shift=st.floats(min_value=-100, max_value=100),
)
def test_pearson_affine_invariance_and_symmetry(xs, scale, shift):
    # a spread comparable to the shift keeps the affine image non-constant
    assume(max(xs) - min(xs) > 1e-3)
    rng = random.Random(42)
    ys = [v + rng.gauss(0, 1) for v in xs]
    try:
        base = pearson(xs, ys)
    except DegenerateSeriesError:
        assume(False)
        return
    scaled = pearson([scale * v + shift for v in xs], ys)
    assert scaled.r == pytest.approx(base.r, abs=1e-9)
    swapped = pearson(ys, xs)
    assert swapped.r == pytest.approx(base.r, abs=1e-12)
    flipped = pearson(xs, [-v for v in ys])
    assert flipped.r == pytest.approx(-base.r, abs=1e-12)
    assert flipped.p == pytest.approx(base.p, abs=1e-9)


# --- per-repo metrics ------------------------------------------------------

EXPECTED_METRICS = {
    "labA/core": {
        "issues_per_repo": 5.0,
        "closed_pct": 60.0,
        "comments_per_closed_issue": 5 / 3,
        "comments_per_open_issue": 2.5,
        "mean_sentiment": 0.09,
        "reviewers_per_issue": 1.6,
        "contributors": 2.0,
        "owner_followers": 120.0,
        "opener_followers": 72.0,
        "closer_followers": 100.0,
        "lines_added_per_issue": 92.0,
        "lines_removed_per_issue": 26.0,
        "days_to_first_issue": 10.0,
        "hours_between_issue_openings": 660.0,
        "hours_to_close": 36.0,
        "commits_per_repo": 7.0,
        "commits_before_first_issue": 2.0,
        "commits_between_issues": 1.0,
    },
    "labB/rosbot": {
        "issues_per_repo": 4.0,
        "closed_pct": 75.0,
        "comments_per_closed_issue": 3.0,
        "comments_per_open_issue": 2.0,
        "mean_sentiment": -0.45 / 11,
        "reviewers_per_issue": 1.5,
        "contributors": 3.0,
        "owner_followers": 200.0,
        "opener_followers": 33.75,
        "closer_followers": 150.0,
        "lines_added_per_issue": 110.0,
        "lines_removed_per_issue": 32.5,
        "days_to_first_issue": 10.0,
        "hours_between_issue_openings": 680.0,
        "hours_to_close": 32.0,
        "commits_per_repo": 6.0,
        "commits_before_first_issue": 2.0,
        "commits_between_issues": 1.0,
    },
    "labC/webapp": {
        "issues_per_repo": 3.0,
        "closed_pct": 200 / 3,
        "comments_per_closed_issue": 3.0,
        "comments_per_open_issue": 3.0,
        "mean_sentiment": -1.25 / 9,
        "reviewers_per_issue": 2.0,
        "contributors": 5.0,
        "owner_followers": 300.0,
        "opener_followers": 320 / 3,
        "closer_followers": 225.0,
        "lines_added_per_issue": 500 / 3,
        "lines_removed_per_issue": 200 / 3,
        "days_to_first_issue": 10.0,
        "hours_between_issue_openings": 840.0,
        "hours_to_close": 60.0,
        "commits_per_repo": 7.0,
        "commits_before_first_issue": 2.0,
        "commits_between_issues": 1.5,
    },
}


def test_repo_metrics_against_hand_oracle(tiny_corpus):
    for repo in tiny_corpus.repos:
        got = repo_metrics(repo)
        expected = EXPECTED_METRICS[repo.id]
        assert set(got) == set(expected), repo.id
        for name, value in expected.items():
            assert got[name] == pytest.approx(value, abs=1e-9), f"{repo.id}.{name}"


def test_summary_single_repo_categories_match_metrics(tiny_corpus):
    for repo, category in zip(tiny_corpus.repos, (Category.RANDOM, Category.ROS, Category.POPULAR)):
        summary = repo_summary(tiny_corpus, category)
        assert summary.n_repos == 1
        as_dict = summary.as_dict()
        assert set(as_dict) == set(SUMMARY_FIELDS)
        for name, value in as_dict.items():
            assert value == pytest.approx(EXPECTED_METRICS[repo.id][name], abs=1e-9)


def test_summary_whole_corpus_is_unweighted_mean(tiny_corpus):
    summary = repo_summary(tiny_corpus)
    assert summary.n_repos == 3
    for name in SUMMARY_FIELDS:
        expected = sum(EXPECTED_METRICS[r][name] for r in EXPECTED_METRICS) / 3
        assert summary.as_dict()[name] == pytest.approx(expected, abs=1e-9), name


def test_summary_mean_invariant_on_random_corpus():
    corpus = random_corpus(11, n_repos=9)
    for category in Category:
        repos = [r for r in corpus.repos if r.category is category]
        if not repos:
            continue
        summary = repo_summary(corpus, category)
        per_repo = [repo_metrics(r) for r in repos]
        for name in SUMMARY_FIELDS:
            values = [m[name] for m in per_repo if m.get(name) is not None]
            got = summary.as_dict()[name]
            if not values:
                assert got is None
            else:
                assert got == pytest.approx(sum(values) / len(values), rel=1e-12), name


def test_summary_raises_on_empty_selection():
    corpus = random_corpus(3, n_repos=4, categories=(Category.RANDOM,))
    with pytest.raises(EmptySelectionError):
        repo_summary(corpus, Category.ROS)


def _bare_repo(repo_id: str = "solo/empty") -> Repository:
    owner = User(login="own", followers=2)
    return Repository(
        id=repo_id,
        category=Category.RANDOM,
        created_at=float(BASE),
        owner=owner,
        contributors=(owner,),
    )


def test_summary_skips_absent_statistics():
    corpus = Corpus(repos=[_bare_repo()], users={"own": User("own", 2)})
    summary = repo_summary(corpus)
    as_dict = summary.as_dict()
    assert as_dict["issues_per_repo"] == 0.0
    assert as_dict["commits_per_repo"] == 0.0
    # nothing to close, open, review or time when there are no issues at all
    for name in (
        "closed_pct",
        "comments_per_closed_issue",
        "comments_per_open_issue",
        "closer_followers",
        "opener_followers",
        "days_to_first_issue",
        "hours_between_issue_openings",
        "hours_to_close",
        "commits_between_issues",
    ):
        assert as_dict[name] is None, name


def _window_scan(repo: Repository) -> list[Commit]:
    """Commits strictly inside some consecutive-opening window, window by window."""
    times = [i.created_at for i in repo.issues_by_time()]
    return [
        c for c in repo.commits if any(lo < c.created_at < hi for lo, hi in zip(times, times[1:]))
    ]


def _window_edge_repo() -> Repository:
    """Openings on days 10, 20 and 30; commits on, before, between and after them."""
    owner = User(login="own", followers=2)
    issues = [
        Issue(id=f"edge/w#{k}", repo_id="edge/w", opener=owner, created_at=BASE + 10 * k * DAY)
        for k in (1, 2, 3)
    ]
    commits = [
        Commit(repo_id="edge/w", author=owner, created_at=BASE + day * DAY, lines_added=day)
        for day in (5, 10, 15, 20, 25, 30, 35)
    ]
    return Repository(
        id="edge/w", category=Category.RANDOM, created_at=float(BASE),
        owner=owner, contributors=(owner,), issues=issues, commits=commits,
    )


def test_commits_between_issues_matches_window_scan():
    repo = _window_edge_repo()
    metrics = repo_metrics(repo)
    # only the day-15 and day-25 commits lie strictly inside a window
    assert [c.lines_added for c in _window_scan(repo)] == [15, 25]
    assert metrics["commits_between_issues"] == 1.0
    assert metrics["lines_added_per_issue"] == pytest.approx(40 / 3)
    assert metrics["commits_before_first_issue"] == 1.0

    for seed in range(30):
        for r in random_corpus(seed, n_repos=3).repos:
            if len(r.issues) >= 2:
                want = len(_window_scan(r)) / (len(r.issues) - 1)
                assert repo_metrics(r)["commits_between_issues"] == want, (seed, r.id)

    # the correlation feature reads the same definition
    corpus = Corpus(repos=[repo] + random_corpus(7, n_repos=8).repos)
    report = correlate_features(corpus, target="issues", features=("commits_between_issues",))
    (row,) = report.rows
    repos = [r for r in corpus.repos if len(r.issues) >= 2]
    want = pearson(
        [len(_window_scan(r)) / (len(r.issues) - 1) for r in repos],
        [float(len(r.issues)) for r in repos],
    )
    assert (row.r, row.p, row.n) == (want.r, want.p, want.n)


def test_reference_time_is_latest_event(tiny_corpus):
    assert corpus_reference_time(tiny_corpus) == BASE + 130 * DAY


# --- per-run index ---------------------------------------------------------


def _latest_timestamp(corpus: Corpus) -> float:
    stamps = [r.created_at for r in corpus.repos]
    for repo in corpus.repos:
        stamps += [c.created_at for c in repo.commits]
        for issue in repo.issues:
            stamps += [issue.created_at] + [c.created_at for c in issue.comments]
            if issue.closed_at is not None:
                stamps.append(issue.closed_at)
    return max(stamps)


def _assert_index_matches_direct(corpus: Corpus) -> None:
    index = corpus_index(corpus)
    assert corpus_index(corpus) is index
    for repo in reversed(corpus.repos):  # read out of corpus order
        entry = index[repo]
        assert index[repo] is entry
        assert entry.issues == sorted(repo.issues, key=lambda i: (i.created_at, i.id)), repo.id
        assert entry.postings == reviewer_postings(repo.issues), repo.id
        assert entry.received_comments == {i.id: received_comment_count(i) for i in repo.issues}
        assert entry.sentiment == repo_sentiment(repo), repo.id
        assert entry.ics_report == ics(build_graph(repo)), repo.id
        direct = repo_metrics(repo)
        assert entry.metrics() == direct, repo.id
        assert entry.event_metrics == {k: v for k, v in direct.items() if k != "mean_sentiment"}
    assert index.reference_time == corpus_reference_time(corpus) == _latest_timestamp(corpus)


def test_index_matches_direct_computation_on_random_corpora():
    for seed in range(30):
        _assert_index_matches_direct(random_corpus(seed, n_repos=6))


def _per_issue_postings(issues) -> list[tuple[User, list[tuple[str, int]]]]:
    """``reviewer_postings`` built issue by issue from ``reviewer_comment_counts``, as ordered pairs."""
    postings: dict[User, dict[str, int]] = {}
    for issue in issues:
        for user, n in reviewer_comment_counts(issue).items():
            postings.setdefault(user, {})[issue.id] = n
    return [(user, list(reviewed.items())) for user, reviewed in postings.items()]


def test_postings_equal_the_per_issue_oracle_in_order(tiny_corpus):
    for corpus in [tiny_corpus] + [random_corpus(seed, n_repos=6) for seed in range(30)]:
        for repo in corpus.repos:
            for issues in (repo.issues, repo.issues_by_time(), repo.issues[::-1]):
                postings = reviewer_postings(issues)
                assert [(u, list(r.items())) for u, r in postings.items()] == _per_issue_postings(issues)
                for issue in issues:
                    assert sum(r.get(issue.id, 0) for r in postings.values()) == received_comment_count(issue)


def test_index_sorts_issues_given_out_of_time_order():
    owner, rev = User("own", 3), User("rev", 8)

    def issue(n: int, day: int, reviewed: bool) -> Issue:
        out = Issue(id=f"x/u#{n}", repo_id="x/u", opener=owner, created_at=BASE + day * DAY)
        if reviewed:
            out.comments.append(
                Comment(issue_id=out.id, author=rev, created_at=out.created_at + 60.0, body="thanks")
            )
        return out

    repo = Repository(
        id="x/u", category=Category.RANDOM, created_at=float(BASE), owner=owner,
        contributors=(owner,),
        issues=[issue(3, 30, True), issue(1, 10, True), issue(2, 20, False)],
        commits=[
            Commit(repo_id="x/u", author=owner, created_at=BASE + day * DAY) for day in (25, 5, 15)
        ],
    )
    solo = Repository(
        id="x/solo", category=Category.ROS, created_at=float(BASE), owner=owner,
        issues=[Issue(id="x/solo#1", repo_id="x/solo", opener=owner, created_at=BASE + 2 * DAY)],
    )
    corpus = Corpus(repos=[repo, solo])
    _assert_index_matches_direct(corpus)
    entry = corpus_index(corpus)[repo]
    assert [i.id for i in entry.issues] == ["x/u#1", "x/u#2", "x/u#3"]
    assert entry.event_metrics["days_to_first_issue"] == 10.0
    assert entry.event_metrics["hours_between_issue_openings"] == 240.0
    assert entry.event_metrics["commits_before_first_issue"] == 1.0
    assert entry.event_metrics["commits_between_issues"] == 1.0  # days 15 and 25
    assert entry.ics_report.ics == 0.5  # one e2 edge (#1-#3 share rev) over 3 - 1
    assert corpus_index(corpus)[solo].ics_report.undefined


# --- correlations ----------------------------------------------------------


def test_correlation_feature_lists():
    assert len(ISSUE_TARGET_FEATURES) == 12
    assert ICS_TARGET_FEATURES == ("contributors", "stargazers", "issues_count", "comments")


def test_correlate_fixture_spot_values(tiny_corpus):
    report = correlate_features(tiny_corpus, target="issues")
    rows = {row.feature: row for row in report.rows}
    assert set(rows) == set(ISSUE_TARGET_FEATURES)
    # ages 130/125/120 d line up exactly with issue counts 5/4/3
    assert rows["repo_age"].r == pytest.approx(1.0, abs=1e-12)
    assert rows["repo_age"].p == pytest.approx(0.0, abs=1e-9)
    assert rows["commits_before_first_issue"].note == "constant series"
    assert rows["commits_before_first_issue"].r is None
    assert rows["commits"].r == pytest.approx(0.0, abs=1e-12)
    for name in ("stars", "forks", "watchers"):
        assert rows[name].r is not None and rows[name].n == 3


def test_correlate_requires_three_repos():
    corpus = random_corpus(5, n_repos=2)
    with pytest.raises(EmptySelectionError):
        correlate_features(corpus, target="issues")


def test_correlate_unknown_target_and_feature(tiny_corpus):
    with pytest.raises(ValueError):
        correlate_features(tiny_corpus, target="bogus")
    with pytest.raises(ValueError):
        correlate_features(tiny_corpus, target="issues", features=("no_such_feature",))


def test_correlate_insufficient_rows_carry_note():
    # only one repo has two issues, so inter-issue features have n=1
    rng_users = {f"u{k}": User(f"u{k}", k) for k in range(3)}
    repos = []
    for idx, n_issues in enumerate((1, 1, 2)):
        owner = rng_users["u0"]
        issues = [
            Issue(
                id=f"r{idx}#{j}",
                repo_id=f"org/r{idx}",
                opener=rng_users["u1"],
                created_at=BASE + (idx * 100 + j) * DAY,
                has_linked_code=False,
            )
            for j in range(n_issues)
        ]
        repos.append(
            Repository(
                id=f"org/r{idx}",
                category=Category.RANDOM,
                created_at=float(BASE),
                owner=owner,
                contributors=(owner,),
                stargazers=idx,
                issues=issues,
            )
        )
    corpus = Corpus(repos=repos, users=rng_users)
    report = correlate_features(corpus, target="issues", features=("commits_between_issues",))
    (row,) = report.rows
    assert row.note == "insufficient data"
    assert row.n == 1 and row.r is None


def test_correlate_constructed_linearity():
    # stars engineered as an exact affine image of the issue count
    corpus = random_corpus(21, n_repos=6)
    repos = [
        Repository(
            id=r.id,
            category=r.category,
            created_at=r.created_at,
            owner=r.owner,
            contributors=r.contributors,
            stargazers=10 * len(r.issues) + 7,
            forks=r.forks,
            watchers=r.watchers,
            issues=r.issues,
            commits=r.commits,
        )
        for r in corpus.repos
    ]
    issue_counts = {len(r.issues) for r in repos}
    assume_varied = len(issue_counts) > 1
    assert assume_varied, "fixture corpus must vary issue counts"
    rigged = Corpus(repos=repos, users=corpus.users)
    report = correlate_features(rigged, target="issues", features=("stars",))
    (row,) = report.rows
    assert row.r == pytest.approx(1.0, abs=1e-12)
    assert row.p == pytest.approx(0.0, abs=1e-9)


def test_correlate_ics_target_drops_undefined(tiny_corpus):
    report = correlate_features(tiny_corpus, target="ics")
    assert report.target == "ics"
    rows = {row.feature: row for row in report.rows}
    assert set(rows) == set(ICS_TARGET_FEATURES)
    for row in report.rows:
        assert row.n == 3  # every fixture repo has a defined score


# --- expertise coverage ----------------------------------------------------

EXPECTED_CURVES = {
    Category.RANDOM: {
        "ratio": 120 / 265,
        "top20": 0.2,
        "curve": [(25.0, 20.0), (50.0, 100.0), (75.0, 100.0), (100.0, 100.0)],
        "m": 4,
        "issues": 5,
    },
    Category.ROS: {
        "ratio": 0.625,
        "top20": 0.5,
        "curve": [(100 / 3, 50.0), (200 / 3, 50.0), (100.0, 75.0)],
        "m": 3,
        "issues": 4,
    },
    Category.POPULAR: {
        "ratio": 300 / 455,
        "top20": 1 / 3,
        "curve": [(100 / 3, 100 / 3), (200 / 3, 100.0), (100.0, 100.0)],
        "m": 3,
        "issues": 3,
    },
}


def test_coverage_fixture_oracle(tiny_corpus):
    for category, expected in EXPECTED_CURVES.items():
        report = expertise_coverage(tiny_corpus, category=category)
        assert report.n_reviewers == expected["m"]
        assert report.n_issues == expected["issues"]
        assert report.popularity_ratio == pytest.approx(expected["ratio"], abs=1e-12)
        assert report.top20_issue_coverage == pytest.approx(expected["top20"], abs=1e-12)
        assert len(report.curve) == expected["m"]
        for point, (want_rank, want_cov) in zip(report.curve, expected["curve"]):
            assert point.reviewer_rank_pct == pytest.approx(want_rank, abs=1e-9)
            assert point.issues_covered_pct == pytest.approx(want_cov, abs=1e-9)


def test_popularity_ratio_follower_ladder():
    # five reviewers at 100/50/10/5/1 followers: the single top reviewer
    # holds 100 of 166 follower-shares
    owner = User("own", 0)
    issue = Issue(id="x/l#1", repo_id="x/l", opener=owner, created_at=float(BASE))
    followers = {"r100": 100, "r50": 50, "r10": 10, "r5": 5, "r1": 1}
    issue.comments.extend(
        Comment(issue_id=issue.id, author=User(login, n), created_at=BASE + 60.0 + n, body="y")
        for login, n in followers.items()
    )
    repo = Repository(
        id="x/l", category=Category.RANDOM, created_at=float(BASE),
        owner=owner, contributors=(owner,), issues=[issue],
    )
    report = expertise_coverage(Corpus(repos=[repo]), repos=[repo])
    assert report.n_reviewers == 5
    assert report.popularity_ratio == pytest.approx(100 / 166, abs=1e-12)


def test_popularity_ratio_floor_when_no_followers():
    owner = User("own", 0)
    issue = Issue(id="x/z#1", repo_id="x/z", opener=owner, created_at=float(BASE))
    for k in range(5):
        issue.comments.append(
            Comment(issue_id=issue.id, author=User(f"zero{k}", 0), created_at=BASE + 60.0 + k, body="y")
        )
    repo = Repository(
        id="x/z", category=Category.RANDOM, created_at=float(BASE),
        owner=owner, contributors=(owner,), issues=[issue],
    )
    report = expertise_coverage(Corpus(repos=[repo]), repos=[repo])
    assert report.popularity_ratio == pytest.approx(1 / 5)  # ceil(0.2*5)/5


def test_coverage_prefix_union_brute_force(tiny_corpus):
    report = expertise_coverage(tiny_corpus)
    follower_of: dict[str, int] = {}
    reviewers_by_issue: dict[str, set[str]] = {}
    for repo in tiny_corpus.repos:
        for issue in repo.issues:
            who = issue_reviewers(issue)
            reviewers_by_issue[issue.id] = {u.login for u in who}
            for u in who:
                follower_of[u.login] = u.followers
    ranked = sorted(follower_of, key=lambda l: (-follower_of[l], l))
    n_issues = len(reviewers_by_issue)
    assert report.n_reviewers == len(ranked) and report.n_issues == n_issues
    covered: set[str] = set()
    for k, login in enumerate(ranked, start=1):
        covered |= {i for i, who in reviewers_by_issue.items() if login in who}
        point = report.curve[k - 1]
        assert point.reviewer_rank_pct == pytest.approx(100 * k / len(ranked), abs=1e-12)
        assert point.issues_covered_pct == pytest.approx(100 * len(covered) / n_issues, abs=1e-12)


def test_coverage_curves_are_monotone():
    for seed in range(100):
        corpus = random_corpus(seed, n_repos=3, n_users=15)
        report = expertise_coverage(corpus)
        if report.empty:
            continue
        ranks = [p.reviewer_rank_pct for p in report.curve]
        covs = [p.issues_covered_pct for p in report.curve]
        assert ranks == sorted(ranks)
        assert covs == sorted(covs)
        assert report.curve[-1].reviewer_rank_pct == pytest.approx(100.0)


def test_coverage_empty_when_no_reviewers():
    corpus = Corpus(repos=[_bare_repo()], users={})
    report = expertise_coverage(corpus)
    assert report.empty
    assert report.popularity_ratio is None and report.curve == ()


# --- opener popularity vs received comments --------------------------------


def test_popularity_fixture_rows(tiny_corpus):
    report = popularity_vs_comments(tiny_corpus)
    assert report.omitted == 1  # repo B has only two linked-code issues
    assert [row.repo_id for row in report.rows] == ["labC/webapp", "labA/core"]
    row_c, row_a = report.rows
    assert row_a.n == 4
    assert row_a.r == pytest.approx(-1 / 3, abs=1e-12)
    assert row_a.p == pytest.approx(2 / 3, abs=1e-9)
    want_r, want_p = stats.pearsonr([200.0, 30.0, 90.0], [1.0, 4.0, 2.0])
    assert row_c.r == pytest.approx(want_r, abs=1e-12)
    assert row_c.p == pytest.approx(want_p, abs=1e-9)


def test_popularity_counts_exclude_opener_comments(tiny_corpus):
    # A#1 has two reviewer comments; A#2 drops bob's thank-you self-reply
    a = tiny_corpus.repos[0]
    counts = {i.id: received_comment_count(i) for i in a.issues}
    assert counts["labA/core#1"] == 2
    assert counts["labA/core#2"] == 1
