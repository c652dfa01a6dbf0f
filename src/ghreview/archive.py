"""Line-oriented archive format for offline corpora.

One UTF-8 JSON record per line, each with a ``kind`` discriminator
(``meta`` | ``user`` | ``repo`` | ``issue`` | ``comment`` | ``commit``).
The first record must be the schema header ``{"kind": "meta", "version": 1}``.
Records may appear in any order after the header; references are resolved
after the whole file is buffered.

Timestamps are accepted either as UTC epoch seconds or as ISO-8601 strings
(naive strings are taken as UTC); they are always written back as epoch
seconds, so a round-trip is record-wise equivalent modulo representation.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager
from datetime import datetime, timezone
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
)

ARCHIVE_VERSION = 1


class ArchiveError(Exception):
    """Base class for archive load failures."""


class ArchiveParseError(ArchiveError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class ArchiveIntegrityError(ArchiveError):
    def __init__(self, line_no: int, record_id: str, target_id: str, reason: str):
        super().__init__(f"line {line_no}: {record_id} -> {target_id}: {reason}")
        self.line_no = line_no
        self.record_id = record_id
        self.target_id = target_id


class ArchiveInvariantError(ArchiveError):
    def __init__(self, line_no: int, record_id: str, reason: str):
        super().__init__(f"line {line_no}: {record_id}: {reason}")
        self.line_no = line_no
        self.record_id = record_id


def _parse_timestamp(value, line_no: int, field: str) -> float:
    if isinstance(value, bool):
        raise ArchiveParseError(line_no, f"field {field!r} must be a timestamp")
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise ArchiveParseError(line_no, f"field {field!r} must be a finite timestamp")
        return float(value)
    if isinstance(value, str):
        try:
            dt = datetime.fromisoformat(value.replace("Z", "+00:00"))
        except ValueError as exc:
            raise ArchiveParseError(line_no, f"field {field!r}: bad timestamp {value!r}") from exc
        if dt.tzinfo is None:
            dt = dt.replace(tzinfo=timezone.utc)
        return dt.timestamp()
    raise ArchiveParseError(line_no, f"field {field!r} must be a timestamp")


def _require(record: dict, field: str, line_no: int):
    if field not in record:
        raise ArchiveParseError(line_no, f"missing field {field!r} in {record.get('kind')} record")
    return record[field]


def _require_str(record: dict, field: str, line_no: int) -> str:
    value = _require(record, field, line_no)
    if not isinstance(value, str):
        raise ArchiveParseError(line_no, f"field {field!r} must be a string")
    return value


def _require_int(record: dict, field: str, line_no: int, default=None) -> int:
    value = record.get(field, default)
    if value is None:
        raise ArchiveParseError(line_no, f"missing field {field!r} in {record.get('kind')} record")
    if isinstance(value, bool) or not isinstance(value, int):
        raise ArchiveParseError(line_no, f"field {field!r} must be an integer")
    return value


def _optional(record: dict, field: str, line_no: int, kind: type, default):
    """An optional field of one JSON type; absent means ``default``."""
    value = record.get(field, default)
    if not isinstance(value, kind):
        raise ArchiveParseError(line_no, f"field {field!r} must be a {kind.__name__}")
    return value


class _Loader:
    """Two-phase loader: buffer raw records, then link and check them."""

    def __init__(self, lenient: bool):
        self.lenient = lenient
        self.rejected: list[Rejection] = []

    def reject(self, line_no: int, reason: str, error: ArchiveError):
        if self.lenient:
            self.rejected.append(Rejection(line_no, reason))
        else:
            raise error

    def load(self, path) -> Corpus:
        path = Path(path)
        raw: list[tuple[int, dict]] = []
        with path.open(encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    err = ArchiveParseError(line_no, f"invalid JSON: {exc.msg}")
                    self.reject(line_no, str(err), err)
                    continue
                if not isinstance(record, dict) or not isinstance(record.get("kind"), str):
                    err = ArchiveParseError(line_no, "record must be an object with a 'kind' field")
                    self.reject(line_no, str(err), err)
                    continue
                raw.append((line_no, record))

        if not raw or raw[0][1].get("kind") != "meta":
            raise ArchiveParseError(raw[0][0] if raw else 1, "archive must start with a meta header record")
        meta_line, meta = raw[0]
        version = meta.get("version")
        if version != ARCHIVE_VERSION:
            raise ArchiveParseError(meta_line, f"unsupported archive version: {version!r}")

        by_kind: dict[str, list[tuple[int, dict]]] = {k: [] for k in ("user", "repo", "issue", "comment", "commit")}
        for line_no, record in raw[1:]:
            kind = record["kind"]
            if kind == "meta":
                err = ArchiveParseError(line_no, "duplicate meta record")
                self.reject(line_no, str(err), err)
                continue
            if kind not in by_kind:
                err = ArchiveParseError(line_no, f"unknown record kind: {kind!r}")
                self.reject(line_no, str(err), err)
                continue
            by_kind[kind].append((line_no, record))

        users = self._build_users(by_kind["user"])
        repos = self._build_repos(by_kind["repo"], users)
        issues = self._build_issues(by_kind["issue"], repos, users)
        self._attach_comments(by_kind["comment"], issues, users, repos)
        self._attach_commits(by_kind["commit"], repos, users, issues)

        corpus = Corpus(
            repos=[r for _, r in sorted(repos.items())],
            users=users,
            meta={k: v for k, v in meta.items() if k != "kind"},
            rejected=self.rejected,
        )
        for repo in corpus.repos:
            repo.issues.sort(key=lambda i: (i.created_at, i.id))
            repo.commits.sort(key=lambda c: (c.created_at, c.author.login))
            for issue in repo.issues:
                issue.comments.sort(key=lambda c: (c.created_at, c.author.login))
        return corpus

    def _build_users(self, records) -> dict[str, User]:
        users: dict[str, User] = {}
        for line_no, rec in records:
            try:
                login = _require_str(rec, "login", line_no)
                followers = _require_int(rec, "followers", line_no, default=0)
            except ArchiveParseError as err:
                self.reject(line_no, str(err), err)
                continue
            if not login:
                err = ArchiveInvariantError(line_no, "<user>", "login must be non-empty")
                self.reject(line_no, str(err), err)
                continue
            if followers < 0:
                err = ArchiveInvariantError(line_no, login, "followers must be >= 0")
                self.reject(line_no, str(err), err)
                continue
            if login in users:
                err = ArchiveInvariantError(line_no, login, "duplicate user login")
                self.reject(line_no, str(err), err)
                continue
            users[login] = User(login=login, followers=followers)
        return users

    def _resolve_user(self, login: str, users, line_no: int, record_id: str) -> User | None:
        user = users.get(login)
        if user is None:
            err = ArchiveIntegrityError(line_no, record_id, login, "reference to unknown user")
            self.reject(line_no, str(err), err)
        return user

    def _build_repos(self, records, users) -> dict[str, Repository]:
        repos: dict[str, Repository] = {}
        for line_no, rec in records:
            try:
                repo_id = _require_str(rec, "id", line_no)
                category_raw = _require_str(rec, "category", line_no)
                created_at = _parse_timestamp(_require(rec, "created_at", line_no), line_no, "created_at")
                owner_login = _require_str(rec, "owner", line_no)
                stargazers = _require_int(rec, "stargazers", line_no, default=0)
                forks = _require_int(rec, "forks", line_no, default=0)
                watchers = _require_int(rec, "watchers", line_no, default=0)
                contributor_logins = _optional(rec, "contributors", line_no, list, [])
            except ArchiveParseError as err:
                self.reject(line_no, str(err), err)
                continue
            try:
                category = Category.parse(category_raw)
            except ValueError:
                err = ArchiveInvariantError(line_no, repo_id, f"unknown category {category_raw!r}")
                self.reject(line_no, str(err), err)
                continue
            if min(stargazers, forks, watchers) < 0:
                err = ArchiveInvariantError(line_no, repo_id, "counts must be >= 0")
                self.reject(line_no, str(err), err)
                continue
            if repo_id in repos:
                err = ArchiveInvariantError(line_no, repo_id, "duplicate repo id")
                self.reject(line_no, str(err), err)
                continue
            owner = self._resolve_user(owner_login, users, line_no, repo_id)
            if owner is None:
                continue
            contributors = []
            ok = True
            for login in contributor_logins:
                user = self._resolve_user(login, users, line_no, repo_id)
                if user is None:
                    ok = False
                    break
                contributors.append(user)
            if not ok:
                continue
            repos[repo_id] = Repository(
                id=repo_id,
                category=category,
                created_at=created_at,
                owner=owner,
                contributors=tuple(sorted(contributors, key=lambda u: u.login)),
                stargazers=stargazers,
                forks=forks,
                watchers=watchers,
            )
        return repos

    def _build_issues(self, records, repos, users) -> dict[str, Issue]:
        issues: dict[str, Issue] = {}
        for line_no, rec in records:
            try:
                issue_id = _require_str(rec, "id", line_no)
                repo_id = _require_str(rec, "repo", line_no)
                opener_login = _require_str(rec, "opener", line_no)
                created_at = _parse_timestamp(_require(rec, "created_at", line_no), line_no, "created_at")
                has_linked_code = _optional(rec, "has_linked_code", line_no, bool, False)
            except ArchiveParseError as err:
                self.reject(line_no, str(err), err)
                continue
            repo = repos.get(repo_id)
            if repo is None:
                err = ArchiveIntegrityError(line_no, issue_id, repo_id, "reference to unknown repo")
                self.reject(line_no, str(err), err)
                continue
            opener = self._resolve_user(opener_login, users, line_no, issue_id)
            if opener is None:
                continue
            closed_at = rec.get("closed_at")
            if closed_at is not None:
                try:
                    closed_at = _parse_timestamp(closed_at, line_no, "closed_at")
                except ArchiveParseError as err:
                    self.reject(line_no, str(err), err)
                    continue
            closer_login = rec.get("closer")
            closer = None
            if closer_login is not None:
                closer = self._resolve_user(closer_login, users, line_no, issue_id)
                if closer is None:
                    continue
            if (closer is None) != (closed_at is None):
                err = ArchiveInvariantError(line_no, issue_id, "closer present iff closed_at present")
                self.reject(line_no, str(err), err)
                continue
            if closed_at is not None and closed_at < created_at:
                err = ArchiveInvariantError(line_no, issue_id, "closed_at must be >= created_at")
                self.reject(line_no, str(err), err)
                continue
            if created_at < repo.created_at:
                err = ArchiveInvariantError(line_no, issue_id, "issue precedes repository created_at")
                self.reject(line_no, str(err), err)
                continue
            if issue_id in issues:
                err = ArchiveInvariantError(line_no, issue_id, "duplicate issue id")
                self.reject(line_no, str(err), err)
                continue
            issue = Issue(
                id=issue_id,
                repo_id=repo_id,
                opener=opener,
                created_at=created_at,
                closer=closer,
                closed_at=closed_at,
                has_linked_code=has_linked_code,
            )
            issues[issue_id] = issue
            repo.issues.append(issue)
        return issues

    def _attach_comments(self, records, issues, users, repos):
        for line_no, rec in records:
            try:
                issue_id = _require_str(rec, "issue", line_no)
                author_login = _require_str(rec, "author", line_no)
                created_at = _parse_timestamp(_require(rec, "created_at", line_no), line_no, "created_at")
                body = _optional(rec, "body", line_no, str, "")
            except ArchiveParseError as err:
                self.reject(line_no, str(err), err)
                continue
            issue = issues.get(issue_id)
            if issue is None:
                err = ArchiveIntegrityError(line_no, f"<comment line {line_no}>", issue_id, "reference to unknown issue")
                self.reject(line_no, str(err), err)
                continue
            author = self._resolve_user(author_login, users, line_no, issue_id)
            if author is None:
                continue
            if created_at < issue.created_at:
                err = ArchiveInvariantError(line_no, issue_id, "comment precedes issue created_at")
                self.reject(line_no, str(err), err)
                continue
            issue.comments.append(
                Comment(issue_id=issue_id, author=author, created_at=created_at, body=body)
            )

    def _attach_commits(self, records, repos, users, issues):
        for line_no, rec in records:
            try:
                repo_id = _require_str(rec, "repo", line_no)
                author_login = _require_str(rec, "author", line_no)
                created_at = _parse_timestamp(_require(rec, "created_at", line_no), line_no, "created_at")
                lines_added = _require_int(rec, "lines_added", line_no, default=0)
                lines_removed = _require_int(rec, "lines_removed", line_no, default=0)
            except ArchiveParseError as err:
                self.reject(line_no, str(err), err)
                continue
            repo = repos.get(repo_id)
            if repo is None:
                err = ArchiveIntegrityError(line_no, f"<commit line {line_no}>", repo_id, "reference to unknown repo")
                self.reject(line_no, str(err), err)
                continue
            author = self._resolve_user(author_login, users, line_no, repo_id)
            if author is None:
                continue
            if lines_added < 0 or lines_removed < 0:
                err = ArchiveInvariantError(line_no, repo_id, "line counts must be >= 0")
                self.reject(line_no, str(err), err)
                continue
            if created_at < repo.created_at:
                err = ArchiveInvariantError(line_no, repo_id, "commit precedes repository created_at")
                self.reject(line_no, str(err), err)
                continue
            issue_id = rec.get("issue")
            if issue_id is not None and issue_id not in issues:
                err = ArchiveIntegrityError(line_no, f"<commit line {line_no}>", issue_id, "reference to unknown issue")
                self.reject(line_no, str(err), err)
                continue
            repo.commits.append(
                Commit(
                    repo_id=repo_id,
                    author=author,
                    created_at=created_at,
                    lines_added=lines_added,
                    lines_removed=lines_removed,
                    issue_id=issue_id,
                )
            )


def load_archive(path, lenient: bool = False) -> Corpus:
    """Load an archive into a fully linked corpus.

    Strict by default: the first malformed line, dangling reference or
    invariant violation raises with its line number.  With ``lenient=True``
    offending records are dropped instead and reported in
    ``corpus.rejected``, so dropped + kept always accounts for every
    non-blank line.
    """
    return _Loader(lenient=lenient).load(path)


def _ts_out(value: float):
    return int(value) if float(value).is_integer() else value


def _dump(record: dict) -> str:
    return json.dumps(record, ensure_ascii=False, separators=(",", ":"))


def save_archive(corpus: Corpus, path) -> None:
    """Write a corpus in canonical order: meta, users, repos, then events.

    The file is written beside ``path`` under a temporary name and renamed
    over it, so a failed save leaves any previous archive intact.
    """
    lines = [_dump({"kind": "meta", "version": ARCHIVE_VERSION, **corpus.meta})]
    for login in sorted(corpus.users):
        user = corpus.users[login]
        lines.append(_dump({"kind": "user", "login": user.login, "followers": user.followers}))
    for repo in sorted(corpus.repos, key=lambda r: r.id):
        lines.append(
            _dump(
                {
                    "kind": "repo",
                    "id": repo.id,
                    "category": repo.category.value,
                    "created_at": _ts_out(repo.created_at),
                    "owner": repo.owner.login,
                    "contributors": sorted(u.login for u in repo.contributors),
                    "stargazers": repo.stargazers,
                    "forks": repo.forks,
                    "watchers": repo.watchers,
                }
            )
        )
    for repo in sorted(corpus.repos, key=lambda r: r.id):
        for issue in repo.issues_by_time():
            rec = {
                "kind": "issue",
                "id": issue.id,
                "repo": repo.id,
                "opener": issue.opener.login,
                "created_at": _ts_out(issue.created_at),
                "has_linked_code": issue.has_linked_code,
            }
            if issue.closed_at is not None:
                rec["closed_at"] = _ts_out(issue.closed_at)
                rec["closer"] = issue.closer.login
            lines.append(_dump(rec))
        for issue in repo.issues_by_time():
            for comment in sorted(issue.comments, key=lambda c: (c.created_at, c.author.login)):
                lines.append(
                    _dump(
                        {
                            "kind": "comment",
                            "issue": issue.id,
                            "author": comment.author.login,
                            "created_at": _ts_out(comment.created_at),
                            "body": comment.body,
                        }
                    )
                )
        for commit in repo.commits_by_time():
            rec = {
                "kind": "commit",
                "repo": repo.id,
                "author": commit.author.login,
                "created_at": _ts_out(commit.created_at),
                "lines_added": commit.lines_added,
                "lines_removed": commit.lines_removed,
            }
            if commit.issue_id is not None:
                rec["issue"] = commit.issue_id
            lines.append(_dump(rec))
    with _atomic_write(path) as fh:
        fh.write("\n".join(lines) + "\n")


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
