"""Core data model for GitHub repository event corpora.

A corpus is a set of repositories, each carrying its full event tree
(issues, comments, commits) plus the users involved.  Objects are treated
as immutable after construction, so analytics can share a corpus across
threads without locking.

Timestamps are UTC seconds since the epoch throughout.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable


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


@dataclass(frozen=True)
class User:
    login: str
    followers: int = 0


@dataclass
class Comment:
    issue_id: str
    author: User
    created_at: float
    body: str = ""


@dataclass
class Issue:
    id: str
    repo_id: str
    opener: User
    created_at: float
    closer: User | None = None
    closed_at: float | None = None
    has_linked_code: bool = False
    comments: list[Comment] = field(default_factory=list)


@dataclass
class Commit:
    repo_id: str
    author: User
    created_at: float
    lines_added: int = 0
    lines_removed: int = 0
    issue_id: str | None = None  # optional explicit issue link


@dataclass
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

    def repo(self, repo_id: str) -> Repository:
        for r in self.repos:
            if r.id == repo_id:
                return r
        raise KeyError(repo_id)

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


def reviewer_comment_counts(issue: Issue) -> dict[User, int]:
    """Comment counts per reviewer on one issue (opener self-comments excluded)."""
    counts: Counter[User] = Counter()
    for c in issue.comments:
        if c.author.login != issue.opener.login:
            counts[c.author] += 1
    return dict(counts)


def issue_reviewers(issue: Issue) -> set[User]:
    return set(reviewer_comment_counts(issue))


def reviewer_postings(issues: Iterable[Issue]) -> dict[User, dict[str, int]]:
    """Each reviewer's comment count on every issue they reviewed.

    Reviewers appear in first-review order and their issues in ``issues``
    order.  A valid corpus has one User per login (``validate`` checks it),
    so each key stands for one reviewer login.
    """
    postings: dict[User, dict[str, int]] = {}
    for issue in issues:
        for user, n in reviewer_comment_counts(issue).items():
            postings.setdefault(user, {})[issue.id] = n
    return postings


def received_comment_count(issue: Issue) -> int:
    """Comments an opener received on their issue (their own excluded)."""
    return sum(1 for c in issue.comments if c.author.login != issue.opener.login)


# ---------------------------------------------------------------------------
# Invariant validation
# ---------------------------------------------------------------------------


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

    def check_user(user: User, where: str) -> None:
        if not user.login:
            out.append(Violation(where, "login", "login must be non-empty"))
        if user.followers < 0:
            out.append(Violation(user.login or where, "followers", "followers must be >= 0"))
        prev = seen_logins.get(user.login)
        if prev is not None and prev != user.followers:
            out.append(
                Violation(user.login, "login", "login not unique within corpus (conflicting follower counts)")
            )
        seen_logins[user.login] = user.followers

    for user in corpus.users.values():
        check_user(user, "<corpus user table>")

    seen_issue_ids: set[str] = set()
    for repo in corpus.repos:
        if not isinstance(repo.category, Category):
            out.append(Violation(repo.id, "category", "category must be Random, ROS or Popular"))
        for fname, value in (("stargazers", repo.stargazers), ("forks", repo.forks), ("watchers", repo.watchers)):
            if value < 0:
                out.append(Violation(repo.id, fname, f"{fname} must be >= 0"))
        check_user(repo.owner, repo.id)
        for u in repo.contributors:
            check_user(u, repo.id)

        for issue in repo.issues:
            if issue.id in seen_issue_ids:
                out.append(Violation(issue.id, "id", "issue id not unique within corpus"))
            seen_issue_ids.add(issue.id)
            check_user(issue.opener, issue.id)
            if issue.repo_id != repo.id:
                out.append(Violation(issue.id, "repo", f"issue attached to {repo.id} but points at {issue.repo_id}"))
            if issue.created_at < repo.created_at:
                out.append(Violation(issue.id, "created_at", "event precedes repository created_at"))
            if issue.closed_at is not None and issue.closed_at < issue.created_at:
                out.append(Violation(issue.id, "closed_at", "closed_at must be >= created_at"))
            if (issue.closer is None) != (issue.closed_at is None):
                out.append(Violation(issue.id, "closer", "closer present iff closed_at present"))
            if issue.closer is not None:
                check_user(issue.closer, issue.id)
            for comment in issue.comments:
                check_user(comment.author, issue.id)
                if comment.issue_id != issue.id:
                    out.append(
                        Violation(issue.id, "comments", f"comment points at {comment.issue_id}, not its issue")
                    )
                if comment.created_at < issue.created_at:
                    out.append(Violation(issue.id, "comments", "comment precedes issue created_at"))
                if comment.created_at < repo.created_at:
                    out.append(Violation(issue.id, "comments", "event precedes repository created_at"))

        for commit in repo.commits:
            check_user(commit.author, repo.id)
            if commit.repo_id != repo.id:
                out.append(Violation(repo.id, "commits", f"commit points at {commit.repo_id}, not its repo"))
            if commit.created_at < repo.created_at:
                out.append(Violation(repo.id, "commits", "event precedes repository created_at"))
            if commit.lines_added < 0:
                out.append(Violation(repo.id, "lines_added", "lines_added must be >= 0"))
            if commit.lines_removed < 0:
                out.append(Violation(repo.id, "lines_removed", "lines_removed must be >= 0"))
            if commit.issue_id is not None and commit.issue_id not in seen_issue_ids:
                out.append(Violation(repo.id, "commits", f"commit links unknown issue {commit.issue_id}"))

    return out
