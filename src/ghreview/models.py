"""Core data model for GitHub repository event corpora.

A corpus is a set of repositories, each carrying its full event tree
(issues, comments, commits) plus the users involved.  Objects are treated
as immutable after construction: the archive loader builds each one with
its references as names and fills in the referenced objects before
``load_archive`` returns.  So analytics can share a corpus across
threads without locking, and can keep what it derives from a corpus on
the corpus itself (``Corpus.index``) for the rest of the run.

Timestamps are UTC seconds since the epoch throughout.  ``SimConfig``, the
notification simulator's options, and ``FetchPlan``, the fetcher's, live
here too: a command checks them right after parsing its arguments, before
it runs any stage module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Container, Iterable

from .units import ALPHA_DEFAULT, DAY, MONTH, YEAR


class Category(str, enum.Enum):
    """The three repository populations tracked by the toolkit."""

    RANDOM = "Random"
    ROS = "ROS"
    POPULAR = "Popular"

    @classmethod
    def parse(cls, value: str) -> "Category":
        for member in cls:
            if member.value == value:
                return member
        raise ValueError(f"unknown category: {value!r}")


CATEGORY_ORDER = (Category.RANDOM, Category.ROS, Category.POPULAR)


@dataclass(frozen=True, slots=True)
class User:
    login: str
    followers: int = 0


@dataclass(slots=True)
class Comment:
    issue_id: str
    author: User
    created_at: float
    body: str = ""


@dataclass(slots=True)
class Issue:
    id: str
    repo_id: str
    opener: User
    created_at: float
    closer: User | None = None
    closed_at: float | None = None
    has_linked_code: bool = False
    comments: list[Comment] = field(default_factory=list)


@dataclass(slots=True)
class Commit:
    repo_id: str
    author: User
    created_at: float
    lines_added: int = 0
    lines_removed: int = 0
    issue_id: str | None = None  # optional explicit issue link


@dataclass(slots=True)
class Repository:
    id: str
    category: Category
    created_at: float
    owner: User
    contributors: tuple[User, ...] = ()
    stargazers: int = 0
    forks: int = 0
    watchers: int = 0
    issues: list[Issue] = field(default_factory=list)
    commits: list[Commit] = field(default_factory=list)

    def issues_by_time(self) -> list[Issue]:
        return sorted(self.issues, key=lambda i: (i.created_at, i.id))

    def commits_by_time(self) -> list[Commit]:
        return sorted(self.commits, key=lambda c: (c.created_at, c.author.login))


@dataclass(frozen=True)
class Rejection:
    """A record dropped during a lenient load."""

    line_no: int
    reason: str


@dataclass
class Corpus:
    repos: list[Repository] = field(default_factory=list)
    users: dict[str, User] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)
    rejected: list[Rejection] = field(default_factory=list)
    # ``analytics.corpus_index`` fills this on first use
    index: object = field(default=None, init=False, repr=False, compare=False)

    def by_category(self, category: Category | None) -> list[Repository]:
        if category is None:
            return list(self.repos)
        return [r for r in self.repos if r.category == category]

    def categories(self) -> list[Category]:
        present = {r.category for r in self.repos}
        return [c for c in CATEGORY_ORDER if c in present]


# ---------------------------------------------------------------------------
# Reviewer definition (used corpus-wide)
# ---------------------------------------------------------------------------
# A reviewer is any user with at least one comment on an issue, excluding
# comments by the issue's opener on their own issue: self-comments are not
# review.


def reviewer_postings(issues: Iterable[Issue]) -> dict[User, dict[str, int]]:
    """Each reviewer's comment count on every issue they reviewed.

    Reviewers appear in first-review order and their issues in ``issues``
    order.  A valid corpus has one User per login (``validate`` checks it),
    so each key stands for one reviewer login.
    """
    postings: dict[User, dict[str, int]] = {}
    for issue in issues:
        opener, issue_id = issue.opener.login, issue.id
        for c in issue.comments:
            author = c.author
            if author.login != opener:
                reviewed = postings.get(author)
                if reviewed is None:
                    reviewed = postings[author] = {}
                reviewed[issue_id] = reviewed.get(issue_id, 0) + 1
    return postings


# ---------------------------------------------------------------------------
# Invariants
# ---------------------------------------------------------------------------
# One rule function per object kind returns the rules the object breaks as
# (field, rule) pairs, or ``()`` when it breaks none.  ``load_archive``
# rejects a record naming every rule it breaks; ``validate``, the check for
# a corpus built in code, reports every pair.  ``taken`` holds the ids in use.

Broken = tuple[tuple[str, str], ...]


def user_rules(user: User) -> Broken:
    broken: Broken = ()
    if not user.login:
        broken += (("login", "login must be non-empty"),)
    if user.followers < 0:
        broken += (("followers", "followers must be >= 0"),)
    return broken


def repo_rules(repo: Repository, taken: Container[str]) -> Broken:
    broken: Broken = ()
    if not isinstance(repo.category, Category):
        broken += (("category", f"unknown category {repo.category!r}"),)
    for name in ("stargazers", "forks", "watchers"):
        if getattr(repo, name) < 0:
            broken += ((name, f"{name} must be >= 0"),)
    if repo.id in taken:
        broken += (("id", "duplicate repo id"),)
    return broken


def issue_rules(issue: Issue, repo: Repository, taken: Container[str]) -> Broken:
    broken: Broken = ()
    if (issue.closer is None) != (issue.closed_at is None):
        broken += (("closer", "closer present iff closed_at present"),)
    if issue.closed_at is not None and issue.closed_at < issue.created_at:
        broken += (("closed_at", "closed_at must be >= created_at"),)
    if issue.created_at < repo.created_at:
        broken += (("created_at", "issue precedes repository created_at"),)
    if issue.id in taken:
        broken += (("id", "duplicate issue id"),)
    return broken


def comment_rules(comment: Comment, issue: Issue) -> Broken:
    if comment.created_at < issue.created_at:
        return (("created_at", "comment precedes issue created_at"),)
    return ()


def commit_rules(commit: Commit, repo: Repository, issue_ids: Container[str]) -> Broken:
    """``issue_ids`` holds every issue id in the corpus, so links may cross repos."""
    broken: Broken = ()
    for name in ("lines_added", "lines_removed"):
        if getattr(commit, name) < 0:
            broken += ((name, "line counts must be >= 0"),)
    if commit.created_at < repo.created_at:
        broken += (("created_at", "commit precedes repository created_at"),)
    if commit.issue_id is not None and commit.issue_id not in issue_ids:
        broken += (("issue_id", f"commit links unknown issue {commit.issue_id}"),)
    return broken


@dataclass(frozen=True)
class Violation:
    record_id: str
    field: str
    rule: str

    def __str__(self) -> str:
        return f"{self.record_id}: {self.field}: {self.rule}"


def validate(corpus: Corpus) -> list[Violation]:
    """Check every type invariant; an empty list means the corpus is clean.

    Violations are data, not failures: callers decide what to do with them.
    """
    out: list[Violation] = []
    seen_logins: dict[str, int] = {}

    def report(record_id: str, broken: Broken) -> None:
        for field_name, rule in broken:
            out.append(Violation(record_id, field_name, rule))

    def check_user(user: User, where: str, field_name: str | None = None) -> None:
        """``field_name`` names the field of record ``where`` that refers to ``user``."""
        if field_name is not None and user.login not in corpus.users:
            # save_archive writes only the user table, so load_archive would reject this
            out.append(Violation(where, field_name, f"reference to unknown user {user.login}"))
        prev = seen_logins.get(user.login)
        if prev is None:
            seen_logins[user.login] = user.followers
            report(user.login or where, user_rules(user))
        elif prev != user.followers:
            out.append(
                Violation(user.login, "login", "login not unique within corpus (conflicting follower counts)")
            )

    for user in corpus.users.values():
        check_user(user, "<corpus user table>")

    issue_ids = {issue.id for repo in corpus.repos for issue in repo.issues}
    seen_repo_ids: set[str] = set()
    seen_issue_ids: set[str] = set()
    for repo in corpus.repos:
        report(repo.id, repo_rules(repo, seen_repo_ids))
        seen_repo_ids.add(repo.id)
        check_user(repo.owner, repo.id, "owner")
        for u in repo.contributors:
            check_user(u, repo.id, "contributors")

        for issue in repo.issues:
            report(issue.id, issue_rules(issue, repo, seen_issue_ids))
            seen_issue_ids.add(issue.id)
            check_user(issue.opener, issue.id, "opener")
            if issue.repo_id != repo.id:
                out.append(Violation(issue.id, "repo", f"issue attached to {repo.id} but points at {issue.repo_id}"))
            if issue.closer is not None:
                check_user(issue.closer, issue.id, "closer")
            for comment in issue.comments:
                check_user(comment.author, issue.id, "comments")
                if comment.issue_id != issue.id:
                    out.append(
                        Violation(issue.id, "comments", f"comment points at {comment.issue_id}, not its issue")
                    )
                report(issue.id, comment_rules(comment, issue))

        for commit in repo.commits:
            check_user(commit.author, repo.id, "commits")
            if commit.repo_id != repo.id:
                out.append(Violation(repo.id, "commits", f"commit points at {commit.repo_id}, not its repo"))
            report(repo.id, commit_rules(commit, repo, issue_ids))

    return out


# ---------------------------------------------------------------------------
# Command options
# ---------------------------------------------------------------------------


@dataclass
class FetchPlan:
    """The fetcher's options: the one definition of their defaults and rules.
    ``fetch`` takes its flag defaults from these fields."""

    targets: tuple[str, ...] = ()
    topic: str | None = None
    token: str | None = None
    page_size: int = 100
    max_pages: int = 50
    category: Category = Category.RANDOM
    base_url: str = "https://api.github.com"
    cache_dir: str | None = None
    workers: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.page_size <= 100:
            raise ValueError(f"page_size must be in 1..100, got {self.page_size}")
        if self.max_pages < 1:
            raise ValueError("max_pages must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass(frozen=True)
class SimConfig:
    """The notification simulator's options: the one definition of their defaults
    and rules.  The CLI and the sweep script take their flag defaults from these
    fields and check their flags only by building one per acceptance probability.
    ``window`` is the width of the Fig 6 windows each run's series is cut into."""

    acceptance_probability: float
    iap: float = 6 * MONTH
    horizon: float = 3 * YEAR
    alpha: float = ALPHA_DEFAULT
    seed: int = 0
    min_iap_issues: int = 3
    window: float = 30 * DAY
    # extensions, all inert by default: jitter spreads fire times,
    # generative resamples post-IAP gaps instead of replaying real ones
    jitter: float = 0.0
    generative: bool = False
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        # NaN fails no comparison below, and an infinite horizon never ends a run
        for name in ("iap", "horizon", "alpha", "jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.acceptance_probability <= 1.0:
            raise ValueError(
                f"acceptance_probability must lie in [0, 1], got {self.acceptance_probability}"
            )
        if self.horizon <= self.iap:
            raise ValueError("horizon must exceed iap")
        if self.iap <= 0:
            raise ValueError("iap must be positive")
        if self.min_iap_issues < 2:
            raise ValueError("min_iap_issues must be at least 2 (need one gap)")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if not self.window > 0:  # NaN included; an infinite window is one window
            raise ValueError(f"window must be positive, got {self.window}")
