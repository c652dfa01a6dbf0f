"""Archive round-trips, strict/lenient loading, and canonical save order."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from ghreview.archive import (
    ArchiveError,
    ArchiveIntegrityError,
    ArchiveInvariantError,
    ArchiveParseError,
    load_archive,
    save_archive,
)
from ghreview.models import Category
from ghreview.synthetic import random_corpus

META = '{"kind":"meta","version":1}'
USER_ANN = '{"kind":"user","login":"ann","followers":3}'
USER_BOB = '{"kind":"user","login":"bob","followers":0}'
REPO_ONE = (
    '{"kind":"repo","id":"one/repo","category":"Random","created_at":100,'
    '"owner":"ann","contributors":["ann","bob"],"stargazers":1,"forks":0,"watchers":2}'
)
ISSUE_ONE = (
    '{"kind":"issue","id":"one/repo#1","repo":"one/repo","opener":"bob",'
    '"created_at":200,"has_linked_code":false}'
)


def _write(tmp_path, *lines) -> str:
    path = tmp_path / "archive.ndjson"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


# --- round trips -----------------------------------------------------------


def test_fixture_is_canonical(tiny_path, tmp_path):
    corpus = load_archive(tiny_path)
    out = tmp_path / "resaved.ndjson"
    save_archive(corpus, out)
    with open(tiny_path, "rb") as fh:
        original = fh.read()
    assert out.read_bytes() == original


def test_round_trip_preserves_structure(tiny_corpus, tmp_path):
    out = tmp_path / "copy.ndjson"
    save_archive(tiny_corpus, out)
    back = load_archive(out)
    assert [r.id for r in back.repos] == [r.id for r in tiny_corpus.repos]
    for a, b in zip(tiny_corpus.repos, back.repos):
        assert a.category is b.category
        assert a.created_at == b.created_at
        assert a.owner == b.owner
        assert a.contributors == b.contributors
        assert [i.id for i in a.issues] == [i.id for i in b.issues]
        assert [c.created_at for c in a.commits] == [c.created_at for c in b.commits]
        for ia, ib in zip(a.issues, b.issues):
            assert ia.opener == ib.opener and ia.closer == ib.closer
            assert [c.body for c in ia.comments] == [c.body for c in ib.comments]
    assert back.users == tiny_corpus.users


def test_event_order_in_file_is_irrelevant(tiny_path, tmp_path):
    with open(tiny_path, encoding="utf-8") as fh:
        lines = [l.rstrip("\n") for l in fh if l.strip()]
    shuffled = [lines[0]] + list(reversed(lines[1:]))
    path = _write(tmp_path, *shuffled)
    corpus = load_archive(path)
    out = tmp_path / "canon.ndjson"
    save_archive(corpus, out)
    assert out.read_text(encoding="utf-8") == "\n".join(lines) + "\n"


def test_iso_and_epoch_timestamps_agree(tmp_path):
    epoch = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE)
    corpus_epoch = load_archive(epoch)
    iso_repo = REPO_ONE.replace('"created_at":100', '"created_at":"1970-01-01T00:01:40Z"')
    iso_issue = ISSUE_ONE.replace('"created_at":200', '"created_at":"1970-01-01T00:03:20Z"')
    path = _write(tmp_path, META, USER_ANN, USER_BOB, iso_repo, iso_issue)
    corpus_iso = load_archive(path)
    assert corpus_iso.repos[0].created_at == corpus_epoch.repos[0].created_at == 100.0
    assert corpus_iso.repos[0].issues[0].created_at == 200.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_save_load_save_is_identity(seed, tmp_path_factory):
    corpus = random_corpus(seed, n_repos=4, n_users=12)
    base = tmp_path_factory.mktemp("roundtrip")
    first, second = base / "first.ndjson", base / "second.ndjson"
    save_archive(corpus, first)
    save_archive(load_archive(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_failed_save_keeps_previous_archive(tiny_corpus, tmp_path, monkeypatch):
    out = tmp_path / "archive.ndjson"
    out.write_text("previous\n", encoding="utf-8")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="disk full"):
        save_archive(tiny_corpus, out)
    assert out.read_text(encoding="utf-8") == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["archive.ndjson"]


# --- strict mode -----------------------------------------------------------


def test_missing_meta_header_raises(tmp_path):
    path = _write(tmp_path, USER_ANN)
    with pytest.raises(ArchiveParseError, match="meta header"):
        load_archive(path)


def test_unsupported_version_raises(tmp_path):
    path = _write(tmp_path, '{"kind":"meta","version":99}', USER_ANN)
    with pytest.raises(ArchiveParseError, match="version"):
        load_archive(path)


@pytest.mark.parametrize(
    ("bad_line", "error", "fragment"),
    [
        ("{not json", ArchiveParseError, "invalid JSON"),
        ('{"kind":"wat"}', ArchiveParseError, "unknown record kind"),
        ('{"kind":"user","login":"ann","followers":7}', ArchiveInvariantError, "duplicate user"),
        ('{"kind":"user","login":"neg","followers":-1}', ArchiveInvariantError, ">= 0"),
        (
            '{"kind":"repo","id":"x/y","category":"Nope","created_at":1,"owner":"ann"}',
            ArchiveInvariantError,
            "unknown category",
        ),
        (
            '{"kind":"repo","id":"x/y","category":"Random","created_at":1,"owner":"ghost"}',
            ArchiveIntegrityError,
            "unknown user",
        ),
        (
            '{"kind":"issue","id":"x#1","repo":"nowhere","opener":"ann","created_at":5}',
            ArchiveIntegrityError,
            "unknown repo",
        ),
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann",'
            '"created_at":300,"closed_at":400}',
            ArchiveInvariantError,
            "closer present iff",
        ),
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann",'
            '"created_at":300,"closed_at":250,"closer":"ann"}',
            ArchiveInvariantError,
            "closed_at must be >=",
        ),
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann","created_at":50}',
            ArchiveInvariantError,
            "precedes repository",
        ),
        (
            '{"kind":"comment","issue":"one/repo#1","author":"ann","created_at":150,"body":"b"}',
            ArchiveInvariantError,
            "precedes issue",
        ),
        (
            '{"kind":"comment","issue":"one/repo#404","author":"ann","created_at":500}',
            ArchiveIntegrityError,
            "unknown issue",
        ),
        (
            '{"kind":"commit","repo":"one/repo","author":"ann","created_at":90,'
            '"lines_added":1,"lines_removed":0}',
            ArchiveInvariantError,
            "precedes repository",
        ),
        (
            '{"kind":"commit","repo":"one/repo","author":"ann","created_at":500,'
            '"lines_added":-3,"lines_removed":0}',
            ArchiveInvariantError,
            "line counts",
        ),
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann","created_at":NaN}',
            ArchiveParseError,
            "finite timestamp",
        ),
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann","created_at":Infinity}',
            ArchiveParseError,
            "finite timestamp",
        ),
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann","created_at":300,'
            '"has_linked_code":"false"}',
            ArchiveParseError,
            "'has_linked_code' must be a bool",
        ),
        (
            '{"kind":"comment","issue":"one/repo#1","author":"ann","created_at":250,"body":12345}',
            ArchiveParseError,
            "'body' must be a str",
        ),
        (
            '{"kind":"repo","id":"x/y","category":"Random","created_at":1,"owner":"ann","contributors":"a"}',
            ArchiveParseError,
            "'contributors' must be a list",
        ),
    ],
)
def test_strict_load_raises_with_line_number(tmp_path, bad_line, error, fragment):
    path = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE, bad_line)
    with pytest.raises(error, match=fragment) as exc_info:
        load_archive(path)
    assert exc_info.value.line_no == 6


def test_duplicate_repo_id_raises(tmp_path):
    path = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, REPO_ONE)
    with pytest.raises(ArchiveInvariantError, match="duplicate repo id"):
        load_archive(path)


# --- lenient mode ----------------------------------------------------------


def test_lenient_drops_offenders_and_keeps_the_rest(tmp_path):
    good_comment = (
        '{"kind":"comment","issue":"one/repo#1","author":"ann","created_at":250,"body":"ok"}'
    )
    path = _write(
        tmp_path,
        META,
        USER_ANN,
        USER_BOB,
        REPO_ONE,
        ISSUE_ONE,
        "{broken",  # line 6
        '{"kind":"comment","issue":"one/repo#1","author":"ghost","created_at":260}',  # line 7
        good_comment,  # line 8
        '{"kind":"user","login":"ann","followers":9}',  # line 9, duplicate
    )
    corpus = load_archive(path, lenient=True)
    assert sorted(r.line_no for r in corpus.rejected) == [6, 7, 9]
    for rejection in corpus.rejected:
        assert rejection.reason
    issue = corpus.repos[0].issues[0]
    assert [c.body for c in issue.comments] == ["ok"]
    assert corpus.users["ann"].followers == 3  # first record wins


def test_lenient_drop_cascades_to_dependents(tmp_path):
    # the repo is dropped (unknown owner), so its issue dangles and drops too
    bad_repo = REPO_ONE.replace('"owner":"ann"', '"owner":"ghost"')
    path = _write(tmp_path, META, USER_ANN, USER_BOB, bad_repo, ISSUE_ONE)
    corpus = load_archive(path, lenient=True)
    assert not corpus.repos
    assert sorted(r.line_no for r in corpus.rejected) == [4, 5]


def test_lenient_still_requires_meta(tmp_path):
    path = _write(tmp_path, USER_ANN)
    with pytest.raises(ArchiveParseError):
        load_archive(path, lenient=True)


def test_blank_lines_are_ignored(tmp_path):
    path = _write(tmp_path, META, "", USER_ANN, "   ", USER_BOB, REPO_ONE, "", ISSUE_ONE)
    corpus = load_archive(path)
    assert len(corpus.repos) == 1 and len(corpus.users) == 2


def test_meta_extras_survive_round_trip(tmp_path):
    path = _write(tmp_path, '{"kind":"meta","version":1,"snapshot_at":123}', USER_ANN)
    corpus = load_archive(path)
    assert corpus.meta == {"version": 1, "snapshot_at": 123}
    out = tmp_path / "again.ndjson"
    save_archive(corpus, out)
    first_line = out.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(first_line) == {"kind": "meta", "version": 1, "snapshot_at": 123}


def test_category_parse_round_trip():
    for cat in Category:
        assert Category.parse(cat.value) is cat
    with pytest.raises(ValueError):
        Category.parse("Trending")
