"""Issue community graphs and the issue community score."""

from __future__ import annotations

import csv
import random
from itertools import combinations

import pytest

from ghreview.community import build_graph, export_graph, ics, is_connected, normalized_ics
from ghreview.models import Category, Comment, Issue, Repository, User

BASE = 1_700_000_000.0
DAY = 86_400.0

_OPENER = User(login="opener", followers=0)
_OWNER = User(login="owner", followers=1)


def _repo_from_sets(repo_id: str, reviewer_sets: list[dict[str, int]]) -> Repository:
    """A repository whose issue k receives the given reviewer->count comments."""
    issues = []
    for k, counts in enumerate(reviewer_sets):
        issue_id = f"{repo_id}#{k + 1}"
        comments = []
        tick = 0
        for login, n in sorted(counts.items()):
            for _ in range(n):
                tick += 1
                comments.append(
                    Comment(
                        issue_id=issue_id,
                        author=User(login=login, followers=0),
                        created_at=BASE + k * DAY + tick,
                        body="x",
                    )
                )
        # opener chatter must never count as review activity
        comments.append(
            Comment(issue_id=issue_id, author=_OPENER, created_at=BASE + k * DAY + 900, body="self")
        )
        issues.append(
            Issue(
                id=issue_id,
                repo_id=repo_id,
                opener=_OPENER,
                created_at=BASE + k * DAY,
                has_linked_code=False,
                comments=comments,
            )
        )
    return Repository(
        id=repo_id,
        category=Category.RANDOM,
        created_at=BASE,
        owner=_OWNER,
        contributors=(_OWNER,),
        issues=issues,
    )


def _brute_force_pairs(reviewer_sets: list[dict[str, int]]) -> int:
    count = 0
    for a, b in combinations(reviewer_sets, 2):
        if set(a) & set(b):
            count += 1
    return count


# --- fixture graphs --------------------------------------------------------


def test_fixture_graph_b(tiny_corpus):
    graph = build_graph(tiny_corpus.repos[1])
    assert graph.issue_nodes == tuple(f"labB/rosbot#{k}" for k in (1, 2, 3, 4))
    assert graph.reviewer_nodes == ("frank", "gina", "hank")
    e1 = {(e.reviewer, e.issue): e.weight for e in graph.e1_edges}
    assert e1 == {
        ("frank", "labB/rosbot#1"): 2,
        ("frank", "labB/rosbot#2"): 1,
        ("gina", "labB/rosbot#2"): 2,
        ("gina", "labB/rosbot#3"): 1,
        ("hank", "labB/rosbot#1"): 1,
        ("hank", "labB/rosbot#2"): 1,
    }
    e2 = {(e.issue_a, e.issue_b): e.weight for e in graph.e2_edges}
    assert e2 == {
        ("labB/rosbot#1", "labB/rosbot#2"): 2,
        ("labB/rosbot#2", "labB/rosbot#3"): 1,
    }
    assert graph.isolated_issues() == ("labB/rosbot#4",)


def test_fixture_scores(tiny_corpus):
    a, b, c = tiny_corpus.repos
    report_a = ics(build_graph(a))
    assert report_a.ics == pytest.approx(1.5)
    assert report_a.e2_count == 6 and report_a.issue_count == 5
    assert report_a.exceeds_one
    assert report_a.isolated_issues == ("labA/core#4",)

    report_b = ics(build_graph(b))
    assert report_b.ics == pytest.approx(2 / 3)
    assert not report_b.exceeds_one and not report_b.undefined

    report_c = ics(build_graph(c))
    assert report_c.ics == pytest.approx(1.5)
    assert report_c.isolated_issues == ()


def test_self_comments_never_form_edges():
    repo = _repo_from_sets("x/self", [{}, {}])
    graph = build_graph(repo)
    assert graph.e1_edges == () and graph.e2_edges == ()
    assert graph.reviewer_nodes == ()


# --- worked score examples -------------------------------------------------


def test_two_issues_one_shared_reviewer():
    repo = _repo_from_sets("x/pair", [{"r": 1}, {"r": 1}])
    report = ics(build_graph(repo))
    assert report.ics == 1.0 and report.e2_count == 1


def test_five_issues_three_links():
    sets = [{"x": 1}, {"x": 1}, {"x": 1}, {"y": 1}, {"z": 1}]
    report = ics(build_graph(_repo_from_sets("x/path", sets)))
    assert report.ics == pytest.approx(0.75)
    assert report.e2_count == 3 and report.issue_count == 5
    assert not report.exceeds_one


def test_four_issue_clique_scores_two():
    sets = [{"q": 1}] * 4
    report = ics(build_graph(_repo_from_sets("x/clique", sets)))
    assert report.ics == pytest.approx(2.0)
    assert report.e2_count == 6
    assert report.exceeds_one


def test_zero_and_single_issue_edge_cases():
    report0 = ics(build_graph(_repo_from_sets("x/none", [])))
    assert report0.ics == 0.0 and not report0.undefined

    report1 = ics(build_graph(_repo_from_sets("x/solo", [{"r": 2}])))
    assert report1.ics is None and report1.undefined
    assert report1.issue_count == 1 and report1.e2_count == 0


# --- brute force over random graphs ---------------------------------------


def _brute_force_edges(repo_id: str, reviewer_sets: list[dict[str, int]]) -> dict[tuple[str, str], int]:
    """Every issue pair sharing reviewers, keyed by id pair (smaller id first)."""
    ids = [f"{repo_id}#{k + 1}" for k in range(len(reviewer_sets))]
    edges = {}
    for a, b in combinations(range(len(reviewer_sets)), 2):
        shared = set(reviewer_sets[a]) & set(reviewer_sets[b])
        if shared:
            edges[tuple(sorted((ids[a], ids[b])))] = len(shared)
    return edges


def _bfs_components(ids: list[str], edges) -> list[set[str]]:
    adjacency = {i: set() for i in ids}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    components, seen = [], set()
    for start in ids:
        if start in seen:
            continue
        component, frontier = {start}, [start]
        while frontier:
            for nxt in adjacency[frontier.pop()] - component:
                component.add(nxt)
                frontier.append(nxt)
        seen |= component
        components.append(component)
    return components


def _assert_matches_enumeration(repo_id: str, sets: list[dict[str, int]]) -> None:
    n_issues = len(sets)
    graph = build_graph(_repo_from_sets(repo_id, sets))
    report = ics(graph)
    expected_pairs = _brute_force_pairs(sets)
    assert report.e2_count == expected_pairs == len(graph.e2_edges)
    if n_issues == 0:
        assert report.ics == 0.0
    elif n_issues == 1:
        assert report.ics is None
    else:
        assert report.ics == expected_pairs / (n_issues - 1)

    edges = _brute_force_edges(repo_id, sets)
    assert [(e.issue_a, e.issue_b) for e in graph.e2_edges] == sorted(edges)
    assert {(e.issue_a, e.issue_b): e.weight for e in graph.e2_edges} == edges
    components = _bfs_components(list(graph.issue_nodes), edges)
    isolated = sorted(i for c in components if len(c) == 1 for i in c)
    assert graph.isolated_issues() == report.isolated_issues == tuple(isolated)
    assert is_connected(graph) == (len(components) <= 1)


def test_random_graphs_match_pair_enumeration():
    pool = [f"rev{j}" for j in range(6)]
    for seed in range(100):
        rng = random.Random(seed)
        n_issues = rng.randint(0, 12)
        sets = [
            {login: rng.randint(1, 3) for login in rng.sample(pool, rng.randint(0, len(pool)))}
            for _ in range(n_issues)
        ]
        _assert_matches_enumeration(f"x/r{seed}", sets)
    # hub-shaped graphs: one reviewer (a triage bot, say) on every issue makes
    # the graph complete, the shape whose pair count grows quadratically
    for n_issues in (2, 3, 17, 64, 150, 300):
        rng = random.Random(n_issues)
        sets = [
            {"hub": rng.randint(1, 3)}
            | {login: rng.randint(1, 3) for login in rng.sample(pool, rng.randint(0, 2))}
            for _ in range(n_issues)
        ]
        _assert_matches_enumeration(f"x/hub{n_issues}", sets)
        assert _brute_force_pairs(sets) == n_issues * (n_issues - 1) // 2


def test_e1_weights_count_comments_exactly():
    sets = [{"a": 3, "b": 1}, {"a": 2}]
    graph = build_graph(_repo_from_sets("x/w", sets))
    weights = {(e.reviewer, e.issue.split("#")[1]): e.weight for e in graph.e1_edges}
    assert weights == {("a", "1"): 3, ("b", "1"): 1, ("a", "2"): 2}


# --- connectivity and the clamped variant ----------------------------------


def test_connectivity(tiny_corpus):
    a, b, c = tiny_corpus.repos
    assert not is_connected(build_graph(a))  # A#4 is isolated
    assert not is_connected(build_graph(b))
    assert is_connected(build_graph(c))
    assert is_connected(build_graph(_repo_from_sets("x/one", [{"r": 1}])))
    assert is_connected(build_graph(_repo_from_sets("x/zero", [])))


def test_normalized_variant(tiny_corpus):
    a, b, c = tiny_corpus.repos
    assert normalized_ics(build_graph(c)) == 1.0  # connected
    assert normalized_ics(build_graph(b)) == pytest.approx(2 / 3)
    # disconnected but raw score above one still clamps to 1.0
    assert normalized_ics(build_graph(a)) == 1.0
    assert normalized_ics(build_graph(_repo_from_sets("x/solo", [{"r": 1}]))) is None


# --- export ----------------------------------------------------------------


def test_export_graph_writes_both_edge_lists(tiny_corpus, tmp_path):
    graph = build_graph(tiny_corpus.repos[1])
    e1_path, e2_path = export_graph(graph, str(tmp_path))
    with open(e1_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["reviewer", "issue", "weight"]
    assert len(rows) == 1 + 6
    with open(e2_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["issue_a", "issue_b", "weight"]
    assert rows[1] == ["labB/rosbot#1", "labB/rosbot#2", "2"]


def test_export_graph_empty_edges_keeps_headers(tmp_path):
    graph = build_graph(_repo_from_sets("x/empty", [{}]))
    e1_path, e2_path = export_graph(graph, str(tmp_path))
    assert open(e1_path).read().strip() == "reviewer,issue,weight"
    assert open(e2_path).read().strip() == "issue_a,issue_b,weight"
