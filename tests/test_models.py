"""The corpus invariants: ``validate`` and ``load_archive`` apply one rule set."""

from __future__ import annotations

import pytest

from ghreview.archive import ArchiveIntegrityError, ArchiveInvariantError, load_archive, save_archive
from ghreview.models import Category, Comment, Commit, Corpus, Issue, Repository, User, validate


def _corpus() -> Corpus:
    """A clean one-repo corpus; ``cy`` is referenced by nothing."""
    ann, bob, cy = User("ann", 3), User("bob", 0), User("cy", 1)
    repo = Repository(
        id="one/repo", category=Category.RANDOM, created_at=100.0, owner=ann, contributors=(ann, bob)
    )
    issue = Issue(id="one/repo#1", repo_id="one/repo", opener=bob, created_at=200.0)
    issue.comments.append(Comment(issue_id="one/repo#1", author=ann, created_at=250.0, body="ok"))
    repo.issues.append(issue)
    repo.commits.append(Commit(repo_id="one/repo", author=ann, created_at=300.0, lines_added=4))
    return Corpus(repos=[repo], users={"ann": ann, "bob": bob, "cy": cy}, meta={"version": 1})


def _set(pick, **changes):
    def mutate(corpus: Corpus) -> None:
        target = pick(corpus)
        for name, value in changes.items():
            setattr(target, name, value)

    return mutate


def _repo(corpus):
    return corpus.repos[0]


def _issue(corpus):
    return corpus.repos[0].issues[0]


def _comment(corpus):
    return corpus.repos[0].issues[0].comments[0]


def _commit(corpus):
    return corpus.repos[0].commits[0]


def _add_user(login, followers):
    def mutate(corpus):
        corpus.users[login] = User(login, followers)

    return mutate


def _duplicate_repo(corpus):
    ann = corpus.users["ann"]
    corpus.repos.append(Repository(id="one/repo", category=Category.ROS, created_at=50.0, owner=ann))


def _duplicate_issue(corpus):
    ann = corpus.users["ann"]
    corpus.repos[0].issues.append(Issue(id="one/repo#1", repo_id="one/repo", opener=ann, created_at=260.0))


RULE_BREAKS = [
    ("negative followers", _add_user("cy", -1), "followers must be >= 0"),
    ("empty login", _add_user("", 0), "login must be non-empty"),
    ("negative stargazers", _set(_repo, stargazers=-1), "stargazers must be >= 0"),
    ("unknown category", _set(_repo, category="Trending"), "unknown category 'Trending'"),
    ("duplicate repo", _duplicate_repo, "duplicate repo id"),
    ("closer without closed_at", _set(_issue, closer=User("ann", 3)), "closer present iff closed_at present"),
    (
        "closed_at before created_at",
        _set(_issue, closer=User("ann", 3), closed_at=150.0),
        "closed_at must be >= created_at",
    ),
    ("issue before repo", _set(_issue, created_at=50.0), "issue precedes repository created_at"),
    ("duplicate issue", _duplicate_issue, "duplicate issue id"),
    ("comment before issue", _set(_comment, created_at=150.0), "comment precedes issue created_at"),
    ("commit before repo", _set(_commit, created_at=50.0), "commit precedes repository created_at"),
    ("negative line counts", _set(_commit, lines_removed=-2), "line counts must be >= 0"),
    ("unknown issue link", _set(_commit, issue_id="one/repo#404"), "commit links unknown issue one/repo#404"),
]


def test_base_corpus_is_clean(tmp_path):
    corpus = _corpus()
    assert validate(corpus) == []
    save_archive(corpus, tmp_path / "clean.ndjson")
    assert validate(load_archive(tmp_path / "clean.ndjson")) == []


@pytest.mark.parametrize(
    ("mutate", "rule"), [pytest.param(mutate, rule, id=case) for case, mutate, rule in RULE_BREAKS]
)
def test_validate_and_loader_report_the_same_rule(tmp_path, mutate, rule):
    corpus = _corpus()
    mutate(corpus)
    assert [v.rule for v in validate(corpus)] == [rule]
    path = tmp_path / "broken.ndjson"
    save_archive(corpus, path)
    with pytest.raises(ArchiveInvariantError) as exc_info:
        load_archive(path)
    assert str(exc_info.value).endswith(f": {rule}")


@pytest.mark.parametrize(
    ("mutate", "record_id", "rules"),
    [
        pytest.param(
            _set(_repo, category="Trending", stargazers=-1, forks=-2),
            "one/repo",
            "unknown category 'Trending'; stargazers must be >= 0; forks must be >= 0",
            id="repo-category-and-counts",
        ),
        pytest.param(
            _set(_issue, created_at=50.0, closer=User("ann", 3), closed_at=40.0),
            "one/repo#1",
            "closed_at must be >= created_at; issue precedes repository created_at",
            id="issue-closed-before-opened-before-its-repo",
        ),
        pytest.param(
            _set(_commit, lines_added=-1, lines_removed=-2),
            "one/repo",
            "line counts must be >= 0",
            id="both-line-counts",
        ),
        pytest.param(
            _set(_commit, lines_added=-1, lines_removed=-2, created_at=50.0, issue_id="one/repo#404"),
            "one/repo",
            "line counts must be >= 0; commit precedes repository created_at; commit links unknown issue one/repo#404",
            id="commit-counts-time-and-link",
        ),
    ],
)
def test_loader_names_every_rule_a_record_breaks_once(tmp_path, mutate, record_id, rules):
    corpus = _corpus()
    mutate(corpus)
    assert "; ".join(dict.fromkeys(v.rule for v in validate(corpus))) == rules
    path = tmp_path / "broken.ndjson"
    save_archive(corpus, path)
    with pytest.raises(ArchiveInvariantError) as exc_info:
        load_archive(path)
    assert exc_info.value.reason == f"{record_id}: {rules}"


def test_validate_checks_issue_links_against_the_whole_corpus(tmp_path):
    ann = User("ann", 0)
    repos = []
    for repo_id, other in (("a/a", "b/b"), ("b/b", "a/a")):
        repo = Repository(id=repo_id, category=Category.ROS, created_at=0.0, owner=ann)
        repo.issues.append(Issue(id=f"{repo_id}#1", repo_id=repo_id, opener=ann, created_at=10.0))
        repo.commits.append(Commit(repo_id=repo_id, author=ann, created_at=20.0, issue_id=f"{other}#1"))
        repos.append(repo)
    corpus = Corpus(repos=repos, users={"ann": ann}, meta={"version": 1})
    assert validate(corpus) == []
    save_archive(corpus, tmp_path / "links.ndjson")
    loaded = load_archive(tmp_path / "links.ndjson")
    assert [c.issue_id for r in loaded.repos for c in r.commits] == ["b/b#1", "a/a#1"]


def test_validate_flags_users_missing_from_the_user_table(tmp_path):
    # save_archive writes only corpus.users, so the loader would reject the owner
    ann = User("ann", 0)
    repo = Repository(id="a/a", category=Category.ROS, created_at=0.0, owner=ann)
    corpus = Corpus(repos=[repo], users={}, meta={"version": 1})
    assert [str(v) for v in validate(corpus)] == ["a/a: owner: reference to unknown user ann"]
    save_archive(corpus, tmp_path / "orphan.ndjson")
    with pytest.raises(ArchiveIntegrityError, match="a/a -> ann: reference to unknown user"):
        load_archive(tmp_path / "orphan.ndjson")

    corpus.users["ann"] = ann
    assert validate(corpus) == []
    save_archive(corpus, tmp_path / "clean.ndjson")
    loaded = load_archive(tmp_path / "clean.ndjson")
    assert validate(loaded) == [] and loaded.repos[0].owner == ann


def test_validate_names_every_field_that_refers_to_a_missing_user():
    corpus = _corpus()
    issue = corpus.repos[0].issues[0]
    issue.closer, issue.closed_at = corpus.users["ann"], 260.0
    del corpus.users["ann"], corpus.users["bob"]
    flagged = [(v.record_id, v.field, v.rule) for v in validate(corpus)]
    assert flagged == [
        ("one/repo", "owner", "reference to unknown user ann"),
        ("one/repo", "contributors", "reference to unknown user ann"),
        ("one/repo", "contributors", "reference to unknown user bob"),
        ("one/repo#1", "opener", "reference to unknown user bob"),
        ("one/repo#1", "closer", "reference to unknown user ann"),
        ("one/repo#1", "comments", "reference to unknown user ann"),
        ("one/repo", "commits", "reference to unknown user ann"),
    ]
