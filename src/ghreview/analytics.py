"""Corpus-level statistics: category summaries, correlations, coverage.

Covers four report families: per-category repository summaries, Pearson
correlations of repository features against issue counts and against the
issue community score, reviewer expertise coverage curves, and the per-repo
opener-popularity versus received-comments series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

from .community import ICSReport, build_graph, ics
from .models import Category, Corpus, Issue, Repository, User, reviewer_postings
from .sentiment import repo_sentiment
from .units import DAY, HOUR

__all__ = [
    "EmptySelectionError",
    "DegenerateSeriesError",
    "PearsonResult",
    "pearson",
    "RepoIndex",
    "CorpusIndex",
    "corpus_index",
    "RepoSummary",
    "SUMMARY_FIELDS",
    "repo_summary",
    "CorrelationRow",
    "CorrelationReport",
    "ISSUE_TARGET_FEATURES",
    "ICS_TARGET_FEATURES",
    "correlate_features",
    "CoveragePoint",
    "CoverageReport",
    "expertise_coverage",
    "PopularityRow",
    "PopularityReport",
    "popularity_vs_comments",
    "corpus_reference_time",
]


class EmptySelectionError(ValueError):
    """Raised when a filter leaves no repositories to analyze."""


class DegenerateSeriesError(ValueError):
    """Raised when a correlation is undefined (too short or zero variance)."""


# ---------------------------------------------------------------------------
# Pearson correlation with a hand-rolled two-sided p-value.


class PearsonResult(NamedTuple):
    r: float
    p: float
    n: int


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta, modified Lentz method."""
    eps = 1e-15
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        for aa in (  # the even step, then the odd one
            m * (b - m) * x / ((qam + m2) * (a + m2)),
            -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2)),
        ):
            d = 1.0 + aa * d
            if abs(d) < fpmin:
                d = fpmin
            c = 1.0 + aa / c
            if abs(c) < fpmin:
                c = fpmin
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < eps:
            break
    return h


def _betai(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # continued fraction converges fast only below the distribution mean
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def pearson(x: Sequence[float], y: Sequence[float]) -> PearsonResult:
    """Sample Pearson r with a two-sided p-value from the t statistic.

    p = I_{df/(df+t^2)}(df/2, 1/2) with df = n - 2, which equals the
    two-tailed Student-t probability of exceeding |t|.  Perfect correlation
    reports p = 0 exactly.
    """
    if len(x) != len(y):
        raise ValueError(f"series length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 3:
        raise DegenerateSeriesError(f"need at least 3 paired observations, got {n}")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    sxx = math.fsum((xi - mx) ** 2 for xi in x)
    syy = math.fsum((yi - my) ** 2 for yi in y)
    if sxx == 0.0 or syy == 0.0:
        raise DegenerateSeriesError("correlation undefined for a constant series")
    sxy = math.fsum((xi - mx) * (yi - my) for xi, yi in zip(x, y))
    r = sxy / math.sqrt(sxx * syy)
    r = max(-1.0, min(1.0, r))
    if abs(r) == 1.0:
        return PearsonResult(r=r, p=0.0, n=n)
    df = n - 2
    t_sq = r * r * df / (1.0 - r * r)
    p = _betai(0.5 * df, 0.5, df / (df + t_sq))
    return PearsonResult(r=r, p=min(1.0, max(0.0, p)), n=n)


# ---------------------------------------------------------------------------
# The per-run index: each per-repository quantity, computed on first read.


class RepoIndex:
    """One repository's derived quantities, each computed on first read and kept.

    Of the community graph only the ``ICSReport`` is kept, not its edges.
    """

    def __init__(self, repo: Repository):
        self.repo = repo

    @cached_property
    def issues(self) -> list[Issue]:
        """The issues in opening order (``Repository.issues_by_time``)."""
        return self.repo.issues_by_time()

    @cached_property
    def postings(self) -> dict[User, dict[str, int]]:
        """``reviewer_postings`` over ``issues``."""
        return reviewer_postings(self.issues)

    @cached_property
    def received_comments(self) -> dict[str, int]:
        """Comments each issue's opener received on it (their own excluded), by issue id."""
        received = dict.fromkeys((issue.id for issue in self.issues), 0)
        for reviewed in self.postings.values():
            for issue_id, n in reviewed.items():
                received[issue_id] += n
        return received

    @cached_property
    def event_metrics(self) -> dict[str, float]:
        """``metrics`` without the comment sentiment."""
        return _event_metrics(self)

    @cached_property
    def sentiment(self) -> tuple[float, int]:
        """``repo_sentiment``: mean comment score and the number of comments scored."""
        return repo_sentiment(self.repo)

    @cached_property
    def ics_report(self) -> ICSReport:
        return ics(build_graph(self.repo, self.postings))

    def metrics(self) -> dict[str, float]:
        """The repository's contribution to each summary field, absent keys skipped."""
        out = dict(self.event_metrics)
        score, n_comments = self.sentiment
        if n_comments:
            out["mean_sentiment"] = score
        return out


class CorpusIndex:
    """The ``RepoIndex`` of every repository analysed, and the reference time.

    Threads reading a quantity first at the same time may each compute it,
    to equal results.
    """

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self._repos: dict[int, RepoIndex] = {}

    def __getitem__(self, repo: Repository) -> RepoIndex:
        # by identity: the RepoIndex keeps its repository alive, so no id is reused
        index = self._repos.get(id(repo))
        if index is None:
            index = self._repos[id(repo)] = RepoIndex(repo)
        return index

    @cached_property
    def reference_time(self) -> float:
        return corpus_reference_time(self.corpus)


def corpus_index(corpus: Corpus) -> CorpusIndex:
    """The corpus's index, made on first use and kept on the corpus for the run."""
    if corpus.index is None:
        corpus.index = CorpusIndex(corpus)
    return corpus.index


# ---------------------------------------------------------------------------
# Per-category repository summaries.


@dataclass(frozen=True)
class RepoSummary:
    """Unweighted per-repo means for one repository selection.

    Fields a repository cannot provide (e.g. days_to_first_issue with zero
    issues) are skipped for that repository, not counted as zero; a field
    no repository provides is None.
    """

    category: str | None
    n_repos: int
    issues_per_repo: float | None
    closed_pct: float | None
    comments_per_closed_issue: float | None
    comments_per_open_issue: float | None
    mean_sentiment: float | None
    reviewers_per_issue: float | None
    contributors: float | None
    owner_followers: float | None
    opener_followers: float | None
    closer_followers: float | None
    lines_added_per_issue: float | None
    lines_removed_per_issue: float | None
    days_to_first_issue: float | None
    hours_between_issue_openings: float | None
    hours_to_close: float | None
    commits_per_repo: float | None
    commits_before_first_issue: float | None
    commits_between_issues: float | None

    def as_dict(self) -> dict[str, float | None]:
        return {name: getattr(self, name) for name in SUMMARY_FIELDS}


SUMMARY_FIELDS = tuple(f.name for f in fields(RepoSummary))[2:]  # after category, n_repos


def _mean(values: list[float]) -> float | None:
    if not values:
        return None
    return math.fsum(values) / len(values)


def _event_metrics(index: RepoIndex) -> dict[str, float]:
    repo, issues = index.repo, index.issues
    out: dict[str, float] = {}
    n = len(issues)
    out["issues_per_repo"] = float(n)
    out["contributors"] = float(len(repo.contributors))
    out["commits_per_repo"] = float(len(repo.commits))
    out["owner_followers"] = float(repo.owner.followers)

    closed = [i for i in issues if i.closed_at is not None]
    opened = [i for i in issues if i.closed_at is None]
    if n:
        out["closed_pct"] = 100.0 * len(closed) / n
        out["reviewers_per_issue"] = math.fsum(len(reviewed) for reviewed in index.postings.values()) / n
        out["days_to_first_issue"] = (issues[0].created_at - repo.created_at) / DAY
        out["commits_before_first_issue"] = float(
            sum(1 for c in repo.commits if c.created_at < issues[0].created_at)
        )
    if closed:
        out["comments_per_closed_issue"] = math.fsum(len(i.comments) for i in closed) / len(closed)
        out["hours_to_close"] = (
            math.fsum(i.closed_at - i.created_at for i in closed) / len(closed) / HOUR
        )
        closer_f = [float(i.closer.followers) for i in closed if i.closer is not None]
        if closer_f:
            out["closer_followers"] = math.fsum(closer_f) / len(closer_f)
    if opened:
        out["comments_per_open_issue"] = math.fsum(len(i.comments) for i in opened) / len(opened)
    if issues:
        out["opener_followers"] = math.fsum(i.opener.followers for i in issues) / n
    if n >= 2:
        gaps = [b.created_at - a.created_at for a, b in zip(issues, issues[1:])]
        out["hours_between_issue_openings"] = math.fsum(gaps) / len(gaps) / HOUR
        # strictly inside some consecutive-opening window: a commit exactly
        # at an issue opening belongs to no window
        first, last = issues[0].created_at, issues[-1].created_at
        openings = {i.created_at for i in issues}
        window_commits = [
            c for c in repo.commits if first < c.created_at < last and c.created_at not in openings
        ]
        out["commits_between_issues"] = len(window_commits) / (n - 1)
        out["lines_added_per_issue"] = math.fsum(c.lines_added for c in window_commits) / n
        out["lines_removed_per_issue"] = math.fsum(c.lines_removed for c in window_commits) / n
    return out


def _select(corpus: Corpus, category: Category | str | None) -> tuple[list[Repository], str | None]:
    """The selected repositories and the category's name (None for the whole corpus)."""
    cat = None if category is None else Category.parse(category)
    return corpus.by_category(cat), (None if cat is None else cat.value)


def repo_summary(corpus: Corpus, category: Category | str | None = None) -> RepoSummary:
    repos, cat_name = _select(corpus, category)
    if not repos:
        raise EmptySelectionError(f"no repositories selected (category={cat_name or 'all'})")
    index = corpus_index(corpus)
    columns: dict[str, list[float]] = {name: [] for name in SUMMARY_FIELDS}
    for repo in repos:
        for name, value in index[repo].metrics().items():
            columns[name].append(value)
    return RepoSummary(
        category=cat_name,
        n_repos=len(repos),
        **{name: _mean(vals) for name, vals in columns.items()},
    )


# ---------------------------------------------------------------------------
# Feature correlations against issue count and against the community score.


@dataclass(frozen=True)
class CorrelationRow:
    feature: str
    r: float | None
    p: float | None
    n: int
    note: str | None = None


@dataclass(frozen=True)
class CorrelationReport:
    target: str
    category: str | None
    rows: tuple[CorrelationRow, ...]


def corpus_reference_time(corpus: Corpus) -> float:
    """Latest event timestamp anywhere in the corpus; the "now" for age math."""
    latest = 0.0
    for repo in corpus.repos:
        latest = max(latest, repo.created_at)
        for issue in repo.issues:
            latest = max(latest, issue.created_at)
            if issue.closed_at is not None:
                latest = max(latest, issue.closed_at)
            for comment in issue.comments:
                latest = max(latest, comment.created_at)
        for commit in repo.commits:
            latest = max(latest, commit.created_at)
    return latest


def _feature_extractors(index: CorpusIndex) -> dict[str, Callable[[RepoIndex], float | None]]:
    def metric(name: str) -> Callable[[RepoIndex], float | None]:
        return lambda x: x.event_metrics.get(name)

    def comments(x: RepoIndex) -> float:
        return float(sum(len(i.comments) for i in x.repo.issues))

    def stars(x: RepoIndex) -> float:
        return float(x.repo.stargazers)

    return {
        "repo_age": lambda x: (index.reference_time - x.repo.created_at) / DAY,
        "contributors": lambda x: float(len(x.repo.contributors)),
        "issue_comments": comments,
        "comments": comments,
        "commits": lambda x: float(len(x.repo.commits)),
        "reviewers": lambda x: float(len(x.postings)),
        "commits_before_first_issue": metric("commits_before_first_issue"),
        "commits_between_issues": metric("commits_between_issues"),
        "issue_opener_followers": metric("opener_followers"),
        "repo_owner_followers": metric("owner_followers"),
        "stars": stars,
        "stargazers": stars,
        "forks": lambda x: float(x.repo.forks),
        "watchers": lambda x: float(x.repo.watchers),
        "issues_count": lambda x: float(len(x.repo.issues)),
    }


ISSUE_TARGET_FEATURES = (
    "repo_age",
    "contributors",
    "issue_comments",
    "commits",
    "reviewers",
    "commits_before_first_issue",
    "commits_between_issues",
    "issue_opener_followers",
    "repo_owner_followers",
    "stars",
    "forks",
    "watchers",
)

ICS_TARGET_FEATURES = (
    "contributors",
    "stargazers",
    "issues_count",
    "comments",
)


def correlate_features(
    corpus: Corpus,
    target: str = "issues",
    category: Category | str | None = None,
    features: Sequence[str] | None = None,
) -> CorrelationReport:
    """Correlate per-repo features against a target quantity.

    ``target`` is "issues" (total issue count) or "ics" (community score;
    repos with an undefined score are dropped from every row).  Rows with
    fewer than 3 usable repos or a constant series carry a note instead of
    failing the whole report.
    """
    repos, cat_name = _select(corpus, category)
    if len(repos) < 3:
        raise EmptySelectionError(
            f"need at least 3 repositories, got {len(repos)} (category={cat_name or 'all'})"
        )
    index = corpus_index(corpus)
    if target == "issues":
        targets: dict[str, float] = {r.id: float(len(r.issues)) for r in repos}
        chosen = tuple(features) if features is not None else ISSUE_TARGET_FEATURES
    elif target == "ics":
        targets = {}
        for repo in repos:
            score = index[repo].ics_report.ics
            if score is not None:
                targets[repo.id] = score
        chosen = tuple(features) if features is not None else ICS_TARGET_FEATURES
    else:
        raise ValueError(f"unknown correlation target {target!r}")

    extractors = _feature_extractors(index)
    rows: list[CorrelationRow] = []
    for name in chosen:
        if name not in extractors:
            raise ValueError(f"unknown feature {name!r}")
        extract = extractors[name]
        xs: list[float] = []
        ys: list[float] = []
        for repo in repos:
            if repo.id not in targets:
                continue
            value = extract(index[repo])
            if value is None:
                continue
            xs.append(value)
            ys.append(targets[repo.id])
        if len(xs) < 3:
            rows.append(CorrelationRow(name, None, None, len(xs), note="insufficient data"))
            continue
        try:
            result = pearson(xs, ys)
        except DegenerateSeriesError:
            rows.append(CorrelationRow(name, None, None, len(xs), note="constant series"))
            continue
        rows.append(CorrelationRow(name, result.r, result.p, result.n))
    return CorrelationReport(target=target, category=cat_name, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Reviewer expertise coverage.


class CoveragePoint(NamedTuple):
    reviewer_rank_pct: float
    issues_covered_pct: float


@dataclass(frozen=True)
class CoverageReport:
    """Prefix-union issue coverage by reviewers ranked on follower count.

    curve[k-1] gives, for the k most-followed reviewers, the percentage of
    all selected issues having at least one comment from any of them.
    """

    category: str | None
    n_reviewers: int
    n_issues: int
    curve: tuple[CoveragePoint, ...]
    popularity_ratio: float | None
    top20_issue_coverage: float | None
    empty: bool = False


def expertise_coverage(corpus: Corpus, category: Category | str | None = None) -> CoverageReport:
    selection, cat_name = _select(corpus, category)
    index = corpus_index(corpus)
    n_issues = 0
    postings: dict[User, list[tuple[str, str]]] = {}
    for repo in selection:
        n_issues += len(repo.issues)
        for user, reviewed in index[repo].postings.items():
            postings.setdefault(user, []).extend((repo.id, issue) for issue in reviewed)
    if not postings:
        return CoverageReport(
            category=cat_name,
            n_reviewers=0,
            n_issues=n_issues,
            curve=(),
            popularity_ratio=None,
            top20_issue_coverage=None,
            empty=True,
        )

    ranked = sorted(postings, key=lambda user: (-user.followers, user.login))
    m = len(ranked)
    total_followers = sum(user.followers for user in ranked)
    k20 = math.ceil(0.2 * m)
    top_followers = sum(user.followers for user in ranked[:k20])
    if total_followers > 0:
        popularity_ratio = top_followers / total_followers
    else:
        popularity_ratio = k20 / m  # uniformity floor when no follower data

    curve: list[CoveragePoint] = []
    covered: set[tuple[str, str]] = set()
    top20_cov: float | None = None
    for k, user in enumerate(ranked, start=1):
        covered.update(postings[user])
        pct_issues = 100.0 * len(covered) / n_issues if n_issues else 0.0
        curve.append(CoveragePoint(100.0 * k / m, pct_issues))
        if k == k20:
            top20_cov = len(covered) / n_issues if n_issues else 0.0
    return CoverageReport(
        category=cat_name,
        n_reviewers=m,
        n_issues=n_issues,
        curve=tuple(curve),
        popularity_ratio=popularity_ratio,
        top20_issue_coverage=top20_cov,
    )


# ---------------------------------------------------------------------------
# Opener popularity vs received comments (per repository).


@dataclass(frozen=True)
class PopularityRow:
    repo_id: str
    issue_count: int
    r: float
    p: float
    n: int


@dataclass(frozen=True)
class PopularityReport:
    rows: tuple[PopularityRow, ...]
    omitted: int


def popularity_vs_comments(corpus: Corpus) -> PopularityReport:
    """Per-repo correlation of opener followers vs comments received.

    Only issues whose opener also submitted code (has_linked_code) count.
    Repos with under 3 such issues, or with a constant series on either
    axis, are omitted; rows sort ascending by total issue count.
    """
    index = corpus_index(corpus)
    rows: list[PopularityRow] = []
    omitted = 0
    for repo in corpus.repos:
        received = index[repo].received_comments
        xs: list[float] = []
        ys: list[float] = []
        for issue in repo.issues:
            if not issue.has_linked_code:
                continue
            xs.append(float(issue.opener.followers))
            ys.append(float(received[issue.id]))
        if len(xs) < 3:
            omitted += 1
            continue
        try:
            result = pearson(xs, ys)
        except DegenerateSeriesError:
            omitted += 1
            continue
        rows.append(
            PopularityRow(
                repo_id=repo.id,
                issue_count=len(repo.issues),
                r=result.r,
                p=result.p,
                n=result.n,
            )
        )
    rows.sort(key=lambda row: (row.issue_count, row.repo_id))
    return PopularityReport(rows=tuple(rows), omitted=omitted)
