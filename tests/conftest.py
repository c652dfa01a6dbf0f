"""Shared fixtures: the hand-computed corpus, scratch directories and a
check that a loaded corpus holds one string object per name."""

from __future__ import annotations

from pathlib import Path

import pytest

from ghreview.archive import load_archive

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"
TINY = FIXTURES / "tiny_corpus.ndjson"


@pytest.fixture(scope="session")
def tiny_path() -> str:
    return str(TINY)


@pytest.fixture(scope="session")
def tiny_corpus():
    # session-scoped: tests treat the loaded corpus as read-only
    corpus = load_archive(str(TINY))
    assert not corpus.rejected
    return corpus


@pytest.fixture
def broken_core_lines() -> list[str]:
    """The tiny fixture's lines with labA/core (line 18) breaking two rules: stargazers -1, forks -2."""
    lines = TINY.read_text(encoding="utf-8").splitlines()
    lines[17] = lines[17].replace('"stargazers":15,"forks":4', '"stargazers":-1,"forks":-2')
    assert lines[17].startswith('{"kind":"repo","id":"labA/core",') and '"forks":-2' in lines[17]
    return lines


@pytest.fixture
def out_dir(tmp_path) -> str:
    return str(tmp_path / "out")


def _assert_names_shared(repos, users) -> None:
    """Every reference in ``repos`` is the very string object it names."""
    logins = {login: login for login in users}

    def shared(user):
        assert users[user.login] is user and logins[user.login] is user.login

    ids = {}
    for repo in repos:
        shared(repo.owner)
        for user in repo.contributors:
            shared(user)
        for issue in repo.issues:
            ids[issue.id] = issue
            assert issue.repo_id is repo.id
            shared(issue.opener)
            if issue.closer is not None:
                shared(issue.closer)
            for comment in issue.comments:
                assert comment.issue_id is issue.id
                shared(comment.author)
    for repo in repos:
        for commit in repo.commits:
            assert commit.repo_id is repo.id
            shared(commit.author)
            if commit.issue_id is not None:
                assert commit.issue_id is ids[commit.issue_id].id


@pytest.fixture(scope="session")
def assert_names_shared():
    return _assert_names_shared
