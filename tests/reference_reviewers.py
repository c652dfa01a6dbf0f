"""Issue-by-issue reviewer counts, the oracle for ``models.reviewer_postings``.

A reviewer is any user with at least one comment on an issue, excluding
comments by the issue's opener on their own issue: self-comments are not
review.
"""

from __future__ import annotations

from ghreview.models import Issue, User


def reviewer_comment_counts(issue: Issue) -> dict[User, int]:
    """Comment counts per reviewer on one issue (opener self-comments excluded)."""
    counts: dict[User, int] = {}
    opener = issue.opener.login
    for c in issue.comments:
        if c.author.login != opener:
            counts[c.author] = counts.get(c.author, 0) + 1
    return counts


def issue_reviewers(issue: Issue) -> set[User]:
    return set(reviewer_comment_counts(issue))


def received_comment_count(issue: Issue) -> int:
    """Comments an opener received on their issue (their own excluded)."""
    return sum(1 for c in issue.comments if c.author.login != issue.opener.login)
