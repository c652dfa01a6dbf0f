"""Archive round-trips, strict/lenient loading, and canonical save order."""

from __future__ import annotations

import gc
import json
import os
import random
import tracemalloc

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
from ghreview.models import Category, Rejection, validate
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


def test_optional_fields_are_saved_in_canonical_form(tmp_path):
    closed_null = (
        '{"kind":"issue","id":"one/repo#2","repo":"one/repo","opener":"ann","created_at":300,'
        '"has_linked_code":true,"closed_at":null,"closer":null}'
    )
    linked_commit = (
        '{"kind":"commit","repo":"one/repo","author":"bob","created_at":400,'
        '"lines_added":5,"lines_removed":1,"issue":"one/repo#2"}'
    )
    path = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, linked_commit, closed_null, ISSUE_ONE)
    corpus = load_archive(path)
    assert corpus.repos[0].commits[0].issue_id == "one/repo#2"
    first, second = tmp_path / "first.ndjson", tmp_path / "second.ndjson"
    save_archive(corpus, first)
    open_again = closed_null.replace(',"closed_at":null,"closer":null', "")
    canonical = [META, USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE, open_again, linked_commit]
    assert first.read_text(encoding="utf-8") == "\n".join(canonical) + "\n"
    save_archive(load_archive(first), second)
    assert second.read_bytes() == first.read_bytes()


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


# --- memory ----------------------------------------------------------------


@pytest.fixture(scope="module")
def large_archive(tmp_path_factory):
    path = tmp_path_factory.mktemp("large") / "archive.ndjson"
    save_archive(random_corpus(3, n_repos=40, issues_range=(50, 150)), path)  # ~21k lines
    return path


def _traced(call):
    """``call()``'s result, the traced memory it still holds and its traced peak."""
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def test_load_holds_no_decoded_record_past_its_line(large_archive):
    # buffering every decoded dict until the link phase peaks near 4x the corpus
    _, held, peak = _traced(lambda: load_archive(large_archive))
    assert peak <= 2.5 * held


def test_load_peaks_below_1_6x_the_corpus(large_archive):
    # holding each record's field values until the link phase peaks near 1.8x
    _, held, peak = _traced(lambda: load_archive(large_archive))
    assert peak <= 1.6 * held


def test_save_streams_lines_to_the_file(large_archive, tmp_path):
    # building the whole file in memory first peaks above 3x its size
    corpus = load_archive(large_archive)
    out = tmp_path / "again.ndjson"
    _, _, peak = _traced(lambda: save_archive(corpus, out))
    assert out.read_bytes() == large_archive.read_bytes()
    assert peak <= 0.5 * out.stat().st_size


# --- cyclic garbage collector ----------------------------------------------


def test_load_pauses_the_collector_and_restores_it(large_archive, tmp_path):
    broken = _write(tmp_path, META, USER_ANN, "{broken")
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        load_archive(large_archive)  # ~21k lines: dozens of passes with the collector on
    finally:
        gc.callbacks.remove(count)
    assert passes == []
    assert gc.isenabled()
    with pytest.raises(ArchiveParseError):
        load_archive(broken)
    assert gc.isenabled()

    gc.disable()
    try:
        load_archive(large_archive)
        assert not gc.isenabled()
        with pytest.raises(ArchiveParseError):
            load_archive(broken)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_loaded_corpus_holds_no_reference_cycles(large_archive):
    # so pausing the collector during a load delays no garbage
    gc.collect()
    corpus = load_archive(large_archive)
    del corpus
    assert gc.collect() == 0


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
            # an integer beyond float range
            '{"kind":"repo","id":"x/y","category":"Random","created_at":1' + "0" * 400 + ',"owner":"ann"}',
            ArchiveParseError,
            "'created_at' must be a finite timestamp",
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
        (
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann","created_at":300,'
            '"closed_at":400,"closer":["ann"]}',
            ArchiveParseError,
            "'closer' must be a string",
        ),
        (
            '{"kind":"commit","repo":"one/repo","author":"ann","created_at":500,"issue":["x"]}',
            ArchiveParseError,
            "'issue' must be a string",
        ),
        (
            '{"kind":"repo","id":"x/y","category":"Random","created_at":1,"owner":"ann",'
            '"contributors":[{"l":1}]}',
            ArchiveParseError,
            "'contributors' must be a list of strings",
        ),
    ],
)
def test_strict_load_raises_with_line_number(tmp_path, bad_line, error, fragment):
    path = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE, bad_line)
    with pytest.raises(error, match=fragment) as exc_info:
        load_archive(path)
    assert exc_info.value.line_no == 6
    corpus = load_archive(path, lenient=True)
    assert corpus.rejected == [Rejection(6, str(exc_info.value))]


def test_strict_load_raises_the_first_error_in_file_order(tmp_path):
    bad_user = '{"kind":"user","login":"cat","followers":"many"}'
    path = _write(tmp_path, META, USER_ANN, bad_user, USER_BOB, "{broken")
    with pytest.raises(ArchiveParseError, match="'followers' must be an integer") as exc_info:
        load_archive(path)
    assert exc_info.value.line_no == 3
    corpus = load_archive(path, lenient=True)
    assert sorted(r.line_no for r in corpus.rejected) == [3, 5]
    assert sorted(corpus.users) == ["ann", "bob"]


USER_CAT = '{"kind":"user","login":"cat","followers":1}'
JSON_LOADS = object()  # the row's verdict is json.loads's own


@pytest.mark.parametrize(
    ("line", "reason"),
    [
        pytest.param(" " + USER_CAT + "\n", None, id="leading-space"),
        pytest.param("\ufeff" + USER_CAT + "\n", JSON_LOADS, id="bom"),
        # str.strip() drops these two tails, json.loads does not
        pytest.param(USER_CAT + "\xa0\n", JSON_LOADS, id="trailing-nbsp"),
        pytest.param(USER_CAT + "\x0c\n", JSON_LOADS, id="trailing-form-feed"),
        pytest.param(USER_CAT + "\r\n", None, id="crlf"),
        pytest.param(USER_CAT + " x\n", JSON_LOADS, id="trailing-word"),
        pytest.param(USER_CAT + "{}\n", JSON_LOADS, id="second-object"),
        pytest.param("[1\n", JSON_LOADS, id="unclosed-array"),
        pytest.param("{not json\n", JSON_LOADS, id="not-json"),
        pytest.param(
            '{"kind":"issue","id":"one/repo#9","repo":"one/repo","opener":"ann","created_at":NaN}\n',
            "field 'created_at' must be a finite timestamp",
            id="nan-timestamp",
        ),
    ],
)
def test_line_decode_matches_json_loads(tmp_path, line, reason):
    path = tmp_path / "archive.ndjson"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join([META, USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE]) + "\n" + line)
    with open(path, encoding="utf-8") as fh:
        as_read = fh.readlines()[5]  # the line as the loader meets it, newline translated
    if reason is JSON_LOADS:
        with pytest.raises(json.JSONDecodeError) as decode_error:
            json.loads(as_read)
        reason = f"invalid JSON: {decode_error.value.msg}"
    else:
        json.loads(as_read)

    if reason is None:
        assert load_archive(path).users["cat"].followers == 1
        assert load_archive(path, lenient=True).rejected == []
        return
    with pytest.raises(ArchiveParseError) as exc_info:
        load_archive(path)
    assert (exc_info.value.line_no, str(exc_info.value)) == (6, f"line 6: {reason}")
    assert load_archive(path, lenient=True).rejected == [Rejection(6, f"line 6: {reason}")]


COMMENT_ANN = '{"kind":"comment","issue":"one/repo#1","author":"ann","created_at":250,"body":"ok"}'
COMMENT_CAT = '{"kind":"comment","issue":"one/repo#1","author":"cat","created_at":260}'
LINKED_COMMIT = (
    '{"kind":"commit","repo":"one/repo","author":"ann","created_at":500,"issue":"one/repo#404"}'
)


# Strict and lenient verdicts recorded from the two-phase loader: parse errors
# surface while lines are read, in file order; link errors follow, kind by
# kind (users, repos, issues, comments, commits), each kind in file order.
@pytest.mark.parametrize(
    ("lines", "strict", "rejected"),
    [
        pytest.param(
            [USER_ANN, USER_BOB, REPO_ONE, COMMENT_ANN.replace("250", "150"), COMMENT_ANN, ISSUE_ONE],
            (ArchiveInvariantError, 5, "line 5: one/repo#1: comment precedes issue created_at"),
            [(5, "line 5: one/repo#1: comment precedes issue created_at")],
            id="comment-before-its-issue",
        ),
        pytest.param(
            [USER_ANN, USER_BOB, USER_CAT.replace('"followers":1', '"followers":-1'), REPO_ONE, ISSUE_ONE, COMMENT_CAT],
            (ArchiveInvariantError, 4, "line 4: cat: followers must be >= 0"),
            [
                (4, "line 4: cat: followers must be >= 0"),
                (7, "line 7: one/repo#1 -> cat: reference to unknown user"),
            ],
            id="author-rejected-by-rule",
        ),
        pytest.param(
            [USER_ANN, USER_BOB, USER_CAT.replace('"followers":1', '"followers":"many"'), REPO_ONE, ISSUE_ONE, COMMENT_CAT],
            (ArchiveParseError, 4, "line 4: field 'followers' must be an integer"),
            [
                (4, "line 4: field 'followers' must be an integer"),
                (7, "line 7: one/repo#1 -> cat: reference to unknown user"),
            ],
            id="author-rejected-by-parse",
        ),
        pytest.param(
            [USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE, COMMENT_ANN, ISSUE_ONE.replace('"bob"', '"ann"')],
            (ArchiveInvariantError, 7, "line 7: one/repo#1: duplicate issue id"),
            [(7, "line 7: one/repo#1: duplicate issue id")],
            id="duplicate-issue-id",
        ),
        pytest.param(
            [USER_ANN, USER_BOB, REPO_ONE, LINKED_COMMIT, ISSUE_ONE],
            (ArchiveInvariantError, 5, "line 5: one/repo: commit links unknown issue one/repo#404"),
            [(5, "line 5: one/repo: commit links unknown issue one/repo#404")],
            id="commit-links-unknown-issue",
        ),
        pytest.param(
            [USER_ANN, USER_BOB, REPO_ONE, ISSUE_ONE, '{"kind":"comment","issue":"nope#1","author":"ann","created_at":300}'],
            (ArchiveIntegrityError, 6, "line 6: comment -> nope#1: reference to unknown issue"),
            [(6, "line 6: comment -> nope#1: reference to unknown issue")],
            id="comment-on-unknown-issue",
        ),
        pytest.param(
            [USER_ANN, USER_BOB, REPO_ONE, '{"kind":"commit","repo":"no/repo","author":"ann","created_at":500}'],
            (ArchiveIntegrityError, 5, "line 5: commit -> no/repo: reference to unknown repo"),
            [(5, "line 5: commit -> no/repo: reference to unknown repo")],
            id="commit-to-unknown-repo",
        ),
        pytest.param(
            [
                USER_ANN,
                '{"kind":"user","login":"ann","followers":9}',  # line 3: duplicate login
                USER_BOB,
                LINKED_COMMIT,  # line 5
                REPO_ONE,
                "{broken",  # line 7
                COMMENT_CAT,  # line 8: no such user
                '{"kind":"wat"}',  # line 9
                ISSUE_ONE,
                '{"kind":"issue","id":"one/repo#2","repo":"one/repo"}',  # line 11
                '{"kind":"issue","id":"x#1","repo":"nowhere","opener":"ann","created_at":5}',  # line 12
            ],
            (ArchiveParseError, 7, "line 7: invalid JSON: Expecting property name enclosed in double quotes"),
            [
                (7, "line 7: invalid JSON: Expecting property name enclosed in double quotes"),
                (9, "line 9: unknown record kind: 'wat'"),
                (11, "line 11: missing field 'opener' in issue record"),
                (3, "line 3: ann: duplicate user login"),
                (12, "line 12: x#1 -> nowhere: reference to unknown repo"),
                (8, "line 8: one/repo#1 -> cat: reference to unknown user"),
                (5, "line 5: one/repo: commit links unknown issue one/repo#404"),
            ],
            id="parse-and-link-errors",
        ),
    ],
)
def test_load_errors_and_rejection_order_are_pinned(tmp_path, lines, strict, rejected):
    path = _write(tmp_path, META, *lines)
    with pytest.raises(ArchiveError) as exc_info:
        load_archive(path)
    assert (type(exc_info.value), exc_info.value.line_no, str(exc_info.value)) == strict
    corpus = load_archive(path, lenient=True)
    assert corpus.rejected == [Rejection(line_no, reason) for line_no, reason in rejected]


def test_loaded_names_are_shared(tiny_path, large_archive, tmp_path, assert_names_shared):
    linked = LINKED_COMMIT.replace("#404", "#1")
    path = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, linked, COMMENT_ANN, ISSUE_ONE)
    for archive in (tiny_path, large_archive, path):
        corpus = load_archive(archive)
        assert_names_shared(corpus.repos, corpus.users)
    repo = corpus.repos[0]
    assert repo.commits[0].issue_id is repo.issues[0].id


def test_duplicate_repo_id_raises(tmp_path):
    path = _write(tmp_path, META, USER_ANN, USER_BOB, REPO_ONE, REPO_ONE)
    with pytest.raises(ArchiveInvariantError, match="duplicate repo id"):
        load_archive(path)


def test_strict_load_names_every_rule_the_record_breaks(tmp_path, broken_core_lines):
    with pytest.raises(ArchiveInvariantError) as exc_info:
        load_archive(_write(tmp_path, *broken_core_lines))
    assert str(exc_info.value) == "line 18: labA/core: stargazers must be >= 0; forks must be >= 0"


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


_ODD_VALUES = (None, True, 1.5, "1", [], {}, ["ghost"])


def _changed(value, names: list[str], rng: random.Random):
    """Another value of ``value``'s type: a negative count, an earlier time, a name in use."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return rng.choice((-1, -value - 1, value - 10**9))
    if isinstance(value, list):
        return value[:-1] + [rng.choice(names)]
    return rng.choice(names)


def _mutated(lines: list[str], names: list[str], rng: random.Random) -> list[str]:
    """``lines`` after one to four seeded edits below the header: a value changed, a
    value's type changed, a key deleted, a line truncated, dropped, duplicated or swapped."""
    lines = list(lines)
    for _ in range(rng.randint(1, 4)):
        i = rng.randrange(1, len(lines))
        edit = rng.choice(("value", "type", "key", "truncate", "drop", "duplicate", "swap"))
        if edit in ("value", "type", "key"):
            try:
                record = json.loads(lines[i])
                key = rng.choice(sorted(record))
            except (json.JSONDecodeError, IndexError):  # a truncated line, or a record with no key left
                continue
            if edit == "key":
                del record[key]
            elif edit == "type":
                record[key] = rng.choice(_ODD_VALUES)
            else:
                record[key] = _changed(record[key], names, rng)
            lines[i] = json.dumps(record)
        elif edit == "truncate":
            lines[i] = lines[i][: rng.randrange(len(lines[i]) or 1)]
        elif edit == "drop":
            del lines[i]
        elif edit == "duplicate":
            lines.insert(rng.randrange(1, len(lines) + 1), lines[i])
        else:
            j = rng.randrange(1, len(lines))
            lines[i], lines[j] = lines[j], lines[i]
    return lines


def test_lenient_load_keeps_what_a_strict_load_of_the_unrejected_lines_keeps(tmp_path):
    # The archive boundary: a lenient load equals a strict load of the same file with
    # its rejected lines removed, and keeps nothing that ``validate`` would flag.
    corpus = random_corpus(3)
    names = [*corpus.users, *(r.id for r in corpus.repos), *(i.id for r in corpus.repos for i in r.issues)]
    names.append("ghost")
    clean = tmp_path / "clean.ndjson"
    save_archive(corpus, clean)
    lines = clean.read_text(encoding="utf-8").splitlines()
    kept_path, lenient_out, strict_out = (tmp_path / f"{name}.ndjson" for name in ("kept", "lenient", "strict"))
    reasons = []
    for trial in range(50):
        mutated = _mutated(lines, names, random.Random(trial))
        lenient = load_archive(_write(tmp_path, *mutated), lenient=True)
        dropped = [r.line_no for r in lenient.rejected]
        assert len(set(dropped)) == len(dropped), trial
        kept_path.write_text("".join(f"{line}\n" for n, line in enumerate(mutated, start=1) if n not in dropped))
        save_archive(lenient, lenient_out)
        save_archive(load_archive(kept_path), strict_out)
        assert lenient_out.read_bytes() == strict_out.read_bytes(), trial
        assert validate(lenient) == [], trial
        reasons += [r.reason for r in lenient.rejected]
    # the mutations reach every kind of rejection: JSON, field type, reference and rule
    for fragment in ("invalid JSON", "must be a", "reference to unknown", "must be >= 0", "precedes", "duplicate"):
        assert any(fragment in reason for reason in reasons), fragment


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
