"""Issue community graphs built from reviewer co-commenting.

The graph for one repository has two node sets, issues and reviewers, and
two edge sets.  A first-level edge connects a reviewer to each issue they
commented on (excluding the issue opener's own comments); its weight is the
number of such comments.  A second-level edge connects two issues that share
at least one reviewer; its weight is the number of shared reviewers.  The
issue community score is the second-level edge count divided by
``issue_count - 1``, the edge count of a path graph over the same issues.
"""

from __future__ import annotations

import csv
import os
from collections import Counter
from dataclasses import astuple, dataclass, fields
from functools import cached_property

from .models import Repository, User, reviewer_postings

__all__ = [
    "E1Edge",
    "E2Edge",
    "IssueCommunityGraph",
    "ICSReport",
    "build_graph",
    "ics",
    "normalized_ics",
    "is_connected",
    "export_graph",
]


@dataclass(frozen=True)
class E1Edge:
    """Reviewer-to-issue edge; weight counts the reviewer's comments there."""

    reviewer: str
    issue: str
    weight: int


@dataclass(frozen=True)
class E2Edge:
    """Issue-to-issue edge; weight counts shared reviewers.

    ``issue_a < issue_b`` lexicographically, so each pair appears once.
    """

    issue_a: str
    issue_b: str
    weight: int


@dataclass(frozen=True)
class IssueCommunityGraph:
    """One repository's graph, held as its reviewer postings (the e1 edges).

    Neither edge set is stored.  The score, the isolated issues and
    connectivity read one neighbour bitmask per issue, computed once from
    the postings; ``e1_edges`` and ``e2_edges`` are derived on each read.
    """

    repo_id: str
    issue_nodes: tuple[str, ...]
    postings: dict[User, dict[str, int]]

    @property
    def e1_edges(self) -> tuple[E1Edge, ...]:
        """Reviewer-to-issue edges, ordered by (reviewer, issue)."""
        rows = sorted((u.login, issue, n) for u, reviewed in self.postings.items() for issue, n in reviewed.items())
        return tuple(E1Edge(*row) for row in rows)

    @cached_property
    def _neighbours(self) -> list[int]:
        """Per issue node, a bitmask over issue_nodes of the other issues sharing a reviewer with it."""
        bit = {issue: 1 << k for k, issue in enumerate(self.issue_nodes)}
        masks = dict.fromkeys(self.issue_nodes, 0)
        for reviewed in self.postings.values():
            mask = 0
            for issue in reviewed:
                mask |= bit[issue]
            for issue in reviewed:
                masks[issue] |= mask
        return [mask & ~(1 << k) for k, mask in enumerate(masks.values())]

    @property
    def e2_edges(self) -> tuple[E2Edge, ...]:
        """Issue pairs sharing reviewers, ordered by (issue_a, issue_b)."""
        index = {issue: k for k, issue in enumerate(self.issue_nodes)}
        issues_of = [[index[issue] for issue in reviewed] for reviewed in self.postings.values()]
        reviewers_of: list[list[int]] = [[] for _ in self.issue_nodes]
        for r, reviewed in enumerate(issues_of):
            for k in reviewed:
                reviewers_of[k].append(r)
        edges: list[E2Edge] = []
        for a, reviewers in enumerate(reviewers_of):
            shared = Counter(b for r in reviewers for b in issues_of[r] if b > a)
            edges.extend(
                E2Edge(issue_a=self.issue_nodes[a], issue_b=self.issue_nodes[b], weight=shared[b])
                for b in sorted(shared)
            )
        return tuple(edges)

    def isolated_issues(self) -> tuple[str, ...]:
        """Issues that share no reviewer with any other issue."""
        return tuple(i for i, mask in zip(self.issue_nodes, self._neighbours) if not mask)


@dataclass(frozen=True)
class ICSReport:
    repo_id: str
    ics: float | None
    e2_count: int
    issue_count: int
    isolated_issues: tuple[str, ...]
    undefined: bool
    exceeds_one: bool


def build_graph(
    repo: Repository, postings: dict[User, dict[str, int]] | None = None
) -> IssueCommunityGraph:
    """The repository's graph; ``postings`` are its ``reviewer_postings`` if the caller holds them."""
    if postings is None:
        postings = reviewer_postings(repo.issues)
    return IssueCommunityGraph(repo.id, tuple(sorted({issue.id for issue in repo.issues})), postings)


def ics(graph: IssueCommunityGraph) -> ICSReport:
    """Score reviewer overlap across a repository's issues.

    Zero issues scores 0.0 (vacuously no community); a single issue has no
    pair to relate, so the score is undefined and reported as None.  Scores
    above 1.0 are legal (dense overlap beats a path graph) and flagged.
    """
    n = len(graph.issue_nodes)
    e2_count = sum(mask.bit_count() for mask in graph._neighbours) // 2
    if n == 0:
        score: float | None = 0.0
        undefined = False
    elif n == 1:
        score = None
        undefined = True
    else:
        score = e2_count / (n - 1)
        undefined = False
    return ICSReport(
        repo_id=graph.repo_id,
        ics=score,
        e2_count=e2_count,
        issue_count=n,
        isolated_issues=graph.isolated_issues(),
        undefined=undefined,
        exceeds_one=score is not None and score > 1.0,
    )


def is_connected(graph: IssueCommunityGraph) -> bool:
    """True when every issue is reachable from every other via e2 edges.

    Vacuously true for zero or one issue.
    """
    n = len(graph.issue_nodes)
    if n <= 1:
        return True
    seen = frontier = 1  # issue node 0
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = graph._neighbours[low.bit_length() - 1] & ~seen
        seen |= new
        frontier |= new
    return seen == (1 << n) - 1


def normalized_ics(graph: IssueCommunityGraph) -> float | None:
    """Variant clamped to [0, 1]: connected graphs score 1.0 outright.

    Not part of the replicated analysis; offered because the raw score is
    unbounded above and awkward to compare across repository sizes.
    """
    report = ics(graph)
    if report.undefined:
        return None
    if report.issue_count >= 2 and is_connected(graph):
        return 1.0
    assert report.ics is not None
    return min(report.ics, 1.0)


def export_graph(graph: IssueCommunityGraph, out_dir: str) -> tuple[str, str]:
    """Write e1/e2 edge lists as CSV; returns the two file paths.

    Empty edge sets still produce header-only files so downstream tooling
    can rely on both files existing.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for name, edge_type, edges in (("e1", E1Edge, graph.e1_edges), ("e2", E2Edge, graph.e2_edges)):
        paths.append(os.path.join(out_dir, f"{graph.repo_id.replace('/', '_')}_{name}.csv"))
        with open(paths[-1], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(f.name for f in fields(edge_type))
            writer.writerows(astuple(edge) for edge in edges)
    return paths[0], paths[1]
