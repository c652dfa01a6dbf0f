"""Line-oriented archive format for offline corpora.

One UTF-8 JSON record per line, each with a ``kind`` discriminator
(``meta`` | ``user`` | ``repo`` | ``issue`` | ``comment`` | ``commit``).
The first record must be the schema header ``{"kind": "meta", "version": 1}``.
Records may appear in any order after the header; one pass turns each
line into its model object, and the names it refers by are resolved after
the last line.  A loaded corpus holds one string object per distinct name.

Timestamps are accepted either as UTC epoch seconds or as ISO-8601 strings
(naive strings are taken as UTC); they are always written back as epoch
seconds, so a round-trip is record-wise equivalent modulo representation.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from json.decoder import WHITESPACE
from json.scanner import make_scanner
from pathlib import Path

from .models import (
    Category,
    Comment,
    Commit,
    Corpus,
    Issue,
    Rejection,
    Repository,
    User,
    comment_rules,
    commit_rules,
    issue_rules,
    repo_rules,
    user_rules,
)

ARCHIVE_VERSION = 1


class ArchiveError(Exception):
    """Base class for archive load failures: ``reason`` at ``line_no``, the line
    of the offending record or, for a record read from elsewhere, its source."""

    def __init__(self, line_no, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class ArchiveParseError(ArchiveError):
    pass


class ArchiveIntegrityError(ArchiveError):
    def __init__(self, line_no, record_id: str, target_id: str, reason: str):
        super().__init__(line_no, f"{record_id} -> {target_id}: {reason}")
        self.record_id = record_id
        self.target_id = target_id


class ArchiveInvariantError(ArchiveError):
    def __init__(self, line_no, record_id: str, reason: str):
        super().__init__(line_no, f"{record_id}: {reason}")
        self.record_id = record_id


def _parse_timestamp(value, line_no, field: str) -> float:
    if type(value) is int or type(value) is float:  # exact types: a bool is no timestamp
        # ``_read`` converted every finite one, so this is NaN, ±inf or an int beyond float range
        raise ArchiveParseError(line_no, f"field {field!r} must be a finite timestamp")
    if isinstance(value, str):
        try:
            dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
        except ValueError as exc:
            raise ArchiveParseError(line_no, f"bad timestamp {value!r} in field {field!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    raise ArchiveParseError(line_no, f"field {field!r} must be a timestamp")


_REQUIRED = object()  # the default of a field every record of its kind must carry
_TIMESTAMP = "timestamp"  # epoch seconds or an ISO-8601 string; written as epoch seconds
_NAME = "name"  # a string naming a user, repo or issue; one string object per name in a load

# The archive format: per record kind, its fields in canonical write order as
# (JSON key, model attribute, JSON type, default).  A ``list`` is a list of
# logins; a ``_NAME`` field whose attribute holds a User is written as its
# login.  A field whose default is None may be null, which means absent.
_FIELDS = {
    "user": (
        ("login", "login", _NAME, _REQUIRED),
        ("followers", "followers", int, 0),
    ),
    "repo": (
        ("id", "id", _NAME, _REQUIRED),
        ("category", "category", str, _REQUIRED),
        ("created_at", "created_at", _TIMESTAMP, _REQUIRED),
        ("owner", "owner", _NAME, _REQUIRED),
        ("contributors", "contributors", list, ()),
        ("stargazers", "stargazers", int, 0),
        ("forks", "forks", int, 0),
        ("watchers", "watchers", int, 0),
    ),
    "issue": (
        ("id", "id", _NAME, _REQUIRED),
        ("repo", "repo_id", _NAME, _REQUIRED),
        ("opener", "opener", _NAME, _REQUIRED),
        ("created_at", "created_at", _TIMESTAMP, _REQUIRED),
        ("has_linked_code", "has_linked_code", bool, False),
        ("closed_at", "closed_at", _TIMESTAMP, None),
        ("closer", "closer", _NAME, None),
    ),
    "comment": (
        ("issue", "issue_id", _NAME, _REQUIRED),
        ("author", "author", _NAME, _REQUIRED),
        ("created_at", "created_at", _TIMESTAMP, _REQUIRED),
        ("body", "body", str, ""),
    ),
    "commit": (
        ("repo", "repo_id", _NAME, _REQUIRED),
        ("author", "author", _NAME, _REQUIRED),
        ("created_at", "created_at", _TIMESTAMP, _REQUIRED),
        ("lines_added", "lines_added", int, 0),
        ("lines_removed", "lines_removed", int, 0),
        ("issue", "issue_id", _NAME, None),
    ),
}

# Per record kind, the model object made from its field values in ``_FIELDS``
# order; its references still hold the names that ``link`` resolves.
_NEW = {
    "user": User,
    "repo": Repository,
    "issue": lambda issue_id, repo_id, opener, created_at, has_linked_code, closed_at, closer: Issue(
        issue_id, repo_id, opener, created_at, closer, closed_at, has_linked_code
    ),
    "comment": Comment,
    "commit": Commit,
}

_TYPE_NAMES = {str: "a string", _NAME: "a string", int: "an integer", bool: "a bool", list: "a list of strings"}
_FLOAT_MAX = sys.float_info.max


def _read(record: dict, kind: str, line_no, names: dict[str, str]) -> list:
    """The values of a ``kind`` record's fields, in ``_FIELDS`` order.

    Each name is replaced by the first equal string ``names`` has seen.
    """
    values = []
    for key, _, json_type, default in _FIELDS[kind]:
        value = record.get(key, default)
        if json_type is _NAME and type(value) is str:
            value = names.setdefault(value, value)
        elif type(value) is json_type and json_type is not list:
            pass
        elif json_type is _TIMESTAMP and (type(value) is int or type(value) is float) and (
            -_FLOAT_MAX <= value <= _FLOAT_MAX  # finite, and an int that fits a float
        ):
            value = float(value)  # what _parse_timestamp returns, without the call
        elif value is default:  # absent, or null where the default is None
            if value is _REQUIRED:
                raise ArchiveParseError(line_no, f"missing field {key!r} in {kind} record")
        elif json_type is _TIMESTAMP:
            value = _parse_timestamp(value, line_no, key)
        elif type(value) is not json_type or not all(type(login) is str for login in value):
            raise ArchiveParseError(line_no, f"field {key!r} must be {_TYPE_NAMES[json_type]}")
        values.append(value)
    return values


def _dangling(line_no, record_id: str, key: str, what: str):
    """Raise for a reference to a ``what`` that no record defines.

    ``record_id`` names the referring record: its id, or its kind for a
    comment or commit, which has none.
    Callers write ``table.get(key) or _dangling(...)``: model objects are
    always truthy, so this runs exactly when ``key`` is unknown.
    """
    raise ArchiveIntegrityError(line_no, record_id, key, f"reference to unknown {what}")


def _enforce(broken: tuple, line_no, record_id: str) -> None:
    """Raise naming every rule a record breaks, in order, each text once."""
    if broken:
        raise ArchiveInvariantError(line_no, record_id, "; ".join(dict.fromkeys(rule for _, rule in broken)))


class _Loader:
    """Two-phase loader: ``read`` type-checks each record into its model object,
    whose references still hold names, and ``link`` resolves the names, checks
    the rules and sorts.

    A record's source, passed where errors take a line number, is its line in
    an archive file, or the URL of a fetched payload.  The name table and the
    per-kind buckets of sources and objects live only as long as the loader.
    """

    def __init__(self, lenient: bool):
        self.lenient = lenient
        self.rejected: list[Rejection] = []
        self.names: dict[str, str] = {}
        self.by_kind: dict[str, tuple[list, list]] = {kind: ([], []) for kind in _FIELDS}
        self.users: dict[str, User] = {}
        self.repos: dict[str, Repository] = {}
        self.issues: dict[str, Issue] = {}

    def reject(self, error: ArchiveError) -> None:
        if not self.lenient:
            raise error
        self.rejected.append(Rejection(error.line_no, str(error)))

    def read(self, source, kind: str, record: dict) -> None:
        """Bucket the model object of one record of a known ``kind``."""
        try:
            obj = _NEW[kind](*_read(record, kind, source, self.names))
        except ArchiveError as err:
            self.reject(err)
            return
        sources, objects = self.by_kind[kind]
        sources.append(source)
        objects.append(obj)

    def load(self, path) -> Corpus:
        meta = None
        scan = make_scanner(json.JSONDecoder())  # the C scanner behind json.loads
        json_space = WHITESPACE.match
        with Path(path).open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                # A line the scanner reads whole, up to JSON whitespace, decodes as json.loads
                # would; any other line goes through json.loads for its exact verdict and message.
                record = None
                try:
                    record, end = scan(line, 0)
                except (StopIteration, json.JSONDecodeError):
                    pass
                if record is None or json_space(line, end).end() != len(line):
                    if not line.strip():
                        continue
                    try:
                        record = json.loads(line)
                    except json.JSONDecodeError as exc:
                        self.reject(ArchiveParseError(line_no, f"invalid JSON: {exc.msg}"))
                        continue
                if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
                    self.reject(ArchiveParseError(line_no, "record must be an object with a 'kind' field"))
                    continue
                kind = record["kind"]
                if meta is None:  # the first object record is the header
                    if kind != "meta":
                        raise ArchiveParseError(line_no, "archive must start with a meta header record")
                    version = record.get("version")
                    if version != ARCHIVE_VERSION:
                        raise ArchiveParseError(line_no, f"unsupported archive version: {version!r}")
                    meta = {k: v for k, v in record.items() if k != "kind"}
                elif kind == "meta":
                    self.reject(ArchiveParseError(line_no, "duplicate meta record"))
                elif kind not in self.by_kind:
                    self.reject(ArchiveParseError(line_no, f"unknown record kind: {kind!r}"))
                else:
                    self.read(line_no, kind, record)
        if meta is None:
            raise ArchiveParseError(1, "archive must start with a meta header record")
        return self.link(meta)

    def link(self, meta: dict) -> Corpus:
        """The corpus of every bucketed object, linked, checked and in canonical order."""
        # kinds in dependency order (each refers only to earlier kinds); a linked bucket is freed
        for kind, add in (
            ("user", self._add_user),
            ("repo", self._add_repo),
            ("issue", self._add_issue),
            ("comment", self._add_comment),
            ("commit", self._add_commit),
        ):
            for source, obj in zip(*self.by_kind.pop(kind)):
                try:
                    add(source, obj)
                except ArchiveError as err:
                    self.reject(err)

        corpus = Corpus(
            repos=[r for _, r in sorted(self.repos.items())],
            users=self.users,
            meta=meta,
            rejected=self.rejected,
        )
        for repo in corpus.repos:
            repo.issues.sort(key=lambda i: (i.created_at, i.id))
            repo.commits.sort(key=lambda c: (c.created_at, c.author.login))
            for issue in repo.issues:
                issue.comments.sort(key=lambda c: (c.created_at, c.author.login))
        return corpus

    def _add_user(self, line_no, user: User):
        login = user.login
        _enforce(user_rules(user), line_no, login or "<user>")
        if login in self.users:
            raise ArchiveInvariantError(line_no, login, "duplicate user login")
        self.users[login] = user

    def _add_repo(self, line_no, repo: Repository):
        try:
            repo.category = Category.parse(repo.category)
        except ValueError:
            pass  # repo_rules rejects the unparsed name
        users, repo_id = self.users, repo.id
        repo.owner = users.get(repo.owner) or _dangling(line_no, repo_id, repo.owner, "user")
        contributors = [users.get(login) or _dangling(line_no, repo_id, login, "user") for login in repo.contributors]
        repo.contributors = tuple(sorted(contributors, key=lambda u: u.login))
        _enforce(repo_rules(repo, self.repos), line_no, repo_id)
        self.repos[repo_id] = repo

    def _add_issue(self, line_no, issue: Issue):
        users, issue_id = self.users, issue.id
        repo = self.repos.get(issue.repo_id) or _dangling(line_no, issue_id, issue.repo_id, "repo")
        issue.opener = users.get(issue.opener) or _dangling(line_no, issue_id, issue.opener, "user")
        if issue.closer is not None:
            issue.closer = users.get(issue.closer) or _dangling(line_no, issue_id, issue.closer, "user")
        _enforce(issue_rules(issue, repo, self.issues), line_no, issue_id)
        self.issues[issue_id] = issue
        repo.issues.append(issue)

    def _add_comment(self, line_no, comment: Comment):
        issue_id = comment.issue_id
        issue = self.issues.get(issue_id) or _dangling(line_no, "comment", issue_id, "issue")
        comment.author = self.users.get(comment.author) or _dangling(line_no, issue_id, comment.author, "user")
        _enforce(comment_rules(comment, issue), line_no, issue_id)
        issue.comments.append(comment)

    def _add_commit(self, line_no, commit: Commit):
        repo_id = commit.repo_id
        repo = self.repos.get(repo_id) or _dangling(line_no, "commit", repo_id, "repo")
        commit.author = self.users.get(commit.author) or _dangling(line_no, repo_id, commit.author, "user")
        _enforce(commit_rules(commit, repo, self.issues), line_no, repo_id)
        repo.commits.append(commit)


def load_archive(path, lenient: bool = False) -> Corpus:
    """Load an archive into a fully linked corpus.

    Strict by default: the first malformed line, dangling reference or
    record breaking invariant rules raises with its line number, naming
    every rule the record breaks.  With ``lenient=True`` offending records
    are dropped instead and reported in ``corpus.rejected``, so dropped +
    kept always accounts for every non-blank line.

    The cyclic garbage collector is paused while the corpus is built: its
    passes would re-traverse every record loaded so far, and the loader
    makes no reference cycles for it to find.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _Loader(lenient=lenient).load(path)
    finally:
        if enabled:
            gc.enable()


def _ts_out(value: float):
    return int(value) if float(value).is_integer() else value


_dump = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def _encode(kind: str, obj) -> str:
    """One archive line for a model object, its fields in ``_FIELDS`` order."""
    record = {"kind": kind}
    for key, attr, json_type, _ in _FIELDS[kind]:
        value = getattr(obj, attr)
        if value is None:
            continue
        if json_type is _TIMESTAMP:
            value = _ts_out(value)
        elif json_type is list:
            value = sorted(user.login for user in value)
        elif isinstance(value, User):
            value = value.login
        record[key] = value
    return _dump(record) + "\n"


def save_archive(corpus: Corpus, path) -> None:
    """Write a corpus in canonical order: meta, users, repos, then events.

    The file is written beside ``path`` under a temporary name and renamed
    over it, so a failed save leaves any previous archive intact.
    """
    repos = sorted(corpus.repos, key=lambda r: r.id)
    with _atomic_write(path) as fh:
        fh.write(_dump({"kind": "meta", "version": ARCHIVE_VERSION, **corpus.meta}) + "\n")
        fh.writelines(_encode("user", corpus.users[login]) for login in sorted(corpus.users))
        fh.writelines(_encode("repo", repo) for repo in repos)
        for repo in repos:
            issues = repo.issues_by_time()
            fh.writelines(_encode("issue", issue) for issue in issues)
            for issue in issues:
                comments = sorted(issue.comments, key=lambda c: (c.created_at, c.author.login))
                fh.writelines(_encode("comment", comment) for comment in comments)
            fh.writelines(_encode("commit", commit) for commit in repo.commits_by_time())


@contextmanager
def _atomic_write(path):
    """Yield a text file beside ``path`` that is renamed over it on success.

    The temporary name carries the process id, so writers sharing a
    directory do not clobber each other's file.  On any failure, interrupts
    included, the temporary file is removed and ``path`` is left untouched.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
