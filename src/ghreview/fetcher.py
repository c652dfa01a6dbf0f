"""REST ingestion of repositories into the archive data model.

Design notes, all load-bearing for the tests:

- Every response with an ETag is cached in memory, and conditional
  requests that come back 304 are served from cache without spending rate
  budget.  With a cache directory the cache is also written to
  ``etag_cache.json``, once per repository (and once per topic search),
  when that fetch ends or fails; a run whose every response was a 304
  writes nothing.  Exceptions and interrupts still write every page
  fetched so far; a process killed outright loses the pages of the
  repository in flight, which the next run fetches again.
- One rate budget object is shared by all workers under a lock; a 403
  with zero remaining raises immediately with the advertised reset time,
  and the client refuses to issue further requests until that time.
- Follower counts are fetched once per distinct login per run, through a
  small thread pool, and stamped into the corpus meta as a snapshot time.
- Fetching is idempotent: repositories are upserted by id, so an
  interrupted run rerun against the same cache converges to the same
  corpus as an uninterrupted one.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

from .archive import ArchiveParseError, _atomic_write, _parse_timestamp
from .models import Category, Comment, Commit, Corpus, Issue, Repository, User

__all__ = [
    "FetchPlan",
    "RateBudget",
    "FetchError",
    "BudgetExhaustedError",
    "UnknownRepoError",
    "PayloadDecodeError",
    "GitHubClient",
    "fetch_repository",
    "search_by_topic",
    "fetch_corpus",
]

log = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://api.github.com"
TOKEN_ENV_VAR = "GITHUB_TOKEN"


class FetchError(Exception):
    pass


class BudgetExhaustedError(FetchError):
    def __init__(self, reset_at: float):
        super().__init__(f"rate budget exhausted; resets at epoch {reset_at:.0f}")
        self.reset_at = reset_at


class UnknownRepoError(FetchError):
    def __init__(self, slug: str):
        super().__init__(f"repository not found: {slug}")
        self.slug = slug


class PayloadDecodeError(FetchError):
    def __init__(self, url: str, reason: str):
        super().__init__(f"undecodable payload from {url}: {reason}")
        self.url = url


@dataclass
class FetchPlan:
    targets: tuple[str, ...] = ()
    topic: str | None = None
    token: str | None = None
    page_size: int = 100
    max_pages: int = 50
    category: Category = Category.RANDOM
    base_url: str = DEFAULT_BASE_URL
    cache_dir: str | None = None
    workers: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.page_size <= 100:
            raise ValueError(f"page_size must be in 1..100, got {self.page_size}")
        if self.max_pages < 1:
            raise ValueError("max_pages must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")


@dataclass
class RateBudget:
    remaining: int = -1  # unknown until the first response
    reset_at: float = 0.0

    def update(self, headers) -> None:
        remaining = headers.get("X-RateLimit-Remaining")
        reset_at = headers.get("X-RateLimit-Reset")
        if remaining is not None:
            self.remaining = int(remaining)
        if reset_at is not None:
            self.reset_at = float(reset_at)


class _NotFound(Exception):
    pass


def _is_cache_entry(entry) -> bool:
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("etag"), str)
        and "body" in entry
        and "next" in entry
        and (entry["next"] is None or isinstance(entry["next"], str))
    )


def _load_cache(path: str) -> dict[str, dict]:
    """Read an ETag cache file; a malformed one raises FetchError naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cache = json.load(fh)
    except ValueError as exc:
        raise FetchError(f"ETag cache {path} is not valid JSON: {exc}") from exc
    if not isinstance(cache, dict):
        raise FetchError(f"ETag cache {path} must hold a JSON object")
    for key, entry in cache.items():
        if not _is_cache_entry(entry):
            raise FetchError(
                f"ETag cache {path}: entry {key} needs a string 'etag' and 'body'/'next' keys"
            )
    return cache


class GitHubClient:
    """Session wrapper owning the ETag cache and the shared rate budget.

    ``requests`` counts the responses received and ``not_modified`` the 304s
    among them.
    """

    def __init__(self, plan: FetchPlan):
        import requests  # here, not at module level: commands that never fetch skip its import cost

        self.plan = plan
        self.session = requests.Session()
        self.budget = RateBudget()
        self.requests = 0
        self.not_modified = 0
        self._lock = threading.Lock()
        self._cache: dict[str, dict] = {}
        self._dirty = False
        self._cache_path = None
        if plan.cache_dir:
            os.makedirs(plan.cache_dir, exist_ok=True)
            self._cache_path = os.path.join(plan.cache_dir, "etag_cache.json")
            if os.path.exists(self._cache_path):
                self._cache = _load_cache(self._cache_path)
        token = plan.token or os.environ.get(TOKEN_ENV_VAR)
        self._headers = {"Accept": "application/vnd.github+json"}
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def persist_cache(self) -> None:
        """Write the cache file if any response was stored since the last write."""
        # Under the lock: other threads must neither change the dict mid-dump
        # nor write this process's temporary file at the same time.
        with self._lock:
            if self._cache_path is None or not self._dirty:
                return
            with _atomic_write(self._cache_path) as fh:
                json.dump(self._cache, fh)
            self._dirty = False

    @staticmethod
    def _key(url: str) -> str:
        return hashlib.sha256(url.encode("utf-8")).hexdigest()

    def get(self, url: str) -> tuple[object, str | None, bool]:
        """GET one absolute URL; returns (payload, next_url, from_cache)."""
        key = self._key(url)
        with self._lock:
            if self.budget.remaining == 0 and time.time() < self.budget.reset_at:
                raise BudgetExhaustedError(self.budget.reset_at)
            cached = self._cache.get(key)
        headers = dict(self._headers)
        if cached is not None:
            headers["If-None-Match"] = cached["etag"]
        response = self.session.get(url, headers=headers, timeout=30)
        with self._lock:
            self.requests += 1
            self.budget.update(response.headers)
            if response.status_code == 304 and cached is not None:
                self.not_modified += 1
                return cached["body"], cached["next"], True
            if response.status_code == 403 and self.budget.remaining == 0:
                raise BudgetExhaustedError(self.budget.reset_at)
        if response.status_code == 404:
            raise _NotFound(url)
        if response.status_code >= 400:
            raise FetchError(f"HTTP {response.status_code} from {url}")
        try:
            payload = response.json()
        except ValueError as exc:
            raise PayloadDecodeError(url, str(exc)) from exc
        next_url = response.links.get("next", {}).get("url")
        etag = response.headers.get("ETag")
        if etag:
            with self._lock:
                self._cache[key] = {"etag": etag, "body": payload, "next": next_url}
                self._dirty = True
        return payload, next_url, False

    def paged(self, url: str) -> list:
        """Follow next links up to max_pages, concatenating list payloads."""
        out: list = []
        pages = 0
        next_url: str | None = url
        while next_url is not None and pages < self.plan.max_pages:
            payload, next_url, _ = self.get(next_url)
            if not isinstance(payload, list):
                raise PayloadDecodeError(url, "expected a JSON array page")
            out.extend(payload)
            pages += 1
        return out


def _field(payload, url: str, *keys):
    """``payload[key][key]...``; a missing level is blamed on the URL that sent it."""
    for key in keys:
        if not isinstance(payload, dict) or key not in payload:
            raise PayloadDecodeError(url, f"missing field {'.'.join(keys)!r}")
        payload = payload[key]
    return payload


def _ts(value, url: str, what: str) -> float:
    """A payload timestamp; a bad one is blamed on the URL that sent it."""
    try:
        return _parse_timestamp(value, 0, what)
    except ArchiveParseError as exc:
        raise PayloadDecodeError(url, f"bad timestamp {value!r} in {what}") from exc


def _query(params: dict) -> str:
    return "&".join(f"{k}={v}" for k, v in params.items())


def _fetch_users(client: GitHubClient, logins: set[str]) -> dict[str, User]:
    """Resolve follower counts, one request per distinct login, in parallel."""
    base = client.plan.base_url

    def one(login: str) -> User:
        try:
            payload, _, _ = client.get(f"{base}/users/{login}")
        except _NotFound:
            return User(login=login, followers=0)
        if not isinstance(payload, dict):
            return User(login=login, followers=0)
        return User(login=login, followers=int(payload.get("followers", 0)))

    ordered = sorted(logins)
    with ThreadPoolExecutor(max_workers=client.plan.workers) as pool:
        resolved = list(pool.map(one, ordered))
    return {user.login: user for user in resolved}


@contextmanager
def _persisting(client: GitHubClient):
    """Write the client's cache when the block ends; if the block failed, a cache
    write error is logged rather than raised in place of the block's error."""
    try:
        yield
    except BaseException:
        try:
            client.persist_cache()
        except OSError as cache_error:
            log.warning("ETag cache not written: %s", cache_error)
        raise
    client.persist_cache()


def fetch_repository(slug: str, plan: FetchPlan, client: GitHubClient | None = None) -> tuple[Repository, dict[str, User]]:
    """Fetch one repository's full event tree.

    Returns the repository plus every user it references, with follower
    counts resolved.  Raises UnknownRepoError on 404.  The ETag cache is
    written when the fetch ends, whether it succeeded or not.
    """
    client = client or GitHubClient(plan)
    with _persisting(client):
        repo_url = f"{plan.base_url}/repos/{slug}"
        page_query = _query({"per_page": plan.page_size})
        try:
            payload, _, _ = client.get(repo_url)
        except _NotFound:
            raise UnknownRepoError(slug) from None
        if not isinstance(payload, dict):
            raise PayloadDecodeError(repo_url, "expected a JSON object")

        owner_login = _field(payload, repo_url, "owner", "login")
        created_at = _ts(_field(payload, repo_url, "created_at"), repo_url, "repo created_at")

        contributors_payload = client.paged(f"{repo_url}/contributors?{page_query}")
        contributor_logins = [c["login"] for c in contributors_payload if "login" in c]

        issues_url = f"{repo_url}/issues?{_query({'state': 'all', 'per_page': plan.page_size})}"
        issues_payload = client.paged(issues_url)

        commits_url = f"{repo_url}/commits?{page_query}"
        commits_payload = client.paged(commits_url)

        logins: set[str] = {owner_login}
        logins.update(contributor_logins)
        comment_payloads: dict[int, tuple[str, list]] = {}  # issue number -> (URL, comments)
        for item in issues_payload:
            logins.add(_field(item, issues_url, "user", "login"))
            if item.get("closed_by"):
                logins.add(_field(item, issues_url, "closed_by", "login"))
            if item.get("comments", 0):
                number = _field(item, issues_url, "number")
                url = f"{repo_url}/issues/{number}/comments?{page_query}"
                comment_payloads[number] = url, client.paged(url)
                logins.update(_field(c, url, "user", "login") for c in comment_payloads[number][1])
        commit_authors: list[str | None] = []
        for item in commits_payload:
            author = item.get("author")
            login = author["login"] if author and "login" in author else None
            commit_authors.append(login)
            if login:
                logins.add(login)

        users = _fetch_users(client, logins)

        issues: list[Issue] = []
        for item in issues_payload:  # the pass above read every login, so users[...] cannot miss
            number = _field(item, issues_url, "number")
            issue_id = f"{slug}#{number}"
            closed_by = item.get("closed_by")
            comments_url, comment_items = comment_payloads.get(number, ("", []))
            comments = [
                Comment(
                    issue_id=issue_id,
                    author=users[c["user"]["login"]],
                    created_at=_ts(_field(c, comments_url, "created_at"), comments_url, "comment created_at"),
                    body=c.get("body") or "",
                )
                for c in comment_items
            ]
            comments.sort(key=lambda c: c.created_at)
            issues.append(
                Issue(
                    id=issue_id,
                    repo_id=slug,
                    opener=users[item["user"]["login"]],
                    created_at=_ts(_field(item, issues_url, "created_at"), issues_url, "issue created_at"),
                    closer=users[closed_by["login"]] if closed_by else None,
                    closed_at=(
                        _ts(item["closed_at"], issues_url, "issue closed_at")
                        if item.get("closed_at")
                        else None
                    ),
                    has_linked_code="pull_request" in item,
                    comments=comments,
                )
            )
        issues.sort(key=lambda i: (i.created_at, i.id))

        commits: list[Commit] = []
        for item, login in zip(commits_payload, commit_authors):
            if login is None:
                continue  # commits without a resolvable account carry no reviewer signal
            stats = item.get("stats") or {}
            commits.append(
                Commit(
                    repo_id=slug,
                    author=users[login],
                    created_at=_ts(
                        _field(item, commits_url, "commit", "author", "date"), commits_url, "commit date"
                    ),
                    lines_added=int(stats.get("additions", 0)),
                    lines_removed=int(stats.get("deletions", 0)),
                )
            )
        commits.sort(key=lambda c: c.created_at)

        repo = Repository(
            id=slug,
            category=plan.category,
            created_at=created_at,
            owner=users[owner_login],
            contributors=tuple(users[login] for login in contributor_logins),
            stargazers=int(payload.get("stargazers_count", 0)),
            forks=int(payload.get("forks_count", 0)),
            watchers=int(payload.get("subscribers_count", payload.get("watchers_count", 0))),
            issues=issues,
            commits=commits,
        )
        return repo, users


def search_by_topic(topic: str, plan: FetchPlan, client: GitHubClient | None = None) -> list[str]:
    """Repository slugs carrying the topic, across paginated search results."""
    if not topic:
        raise ValueError("topic must be non-empty")
    client = client or GitHubClient(plan)
    base = plan.base_url
    url = f"{base}/search/repositories?{_query({'q': f'topic:{topic}', 'per_page': plan.page_size})}"
    slugs: list[str] = []
    pages = 0
    next_url: str | None = url
    with _persisting(client):
        while next_url is not None and pages < plan.max_pages:
            payload, next_url, _ = client.get(next_url)
            if not isinstance(payload, dict) or "items" not in payload:
                raise PayloadDecodeError(url, "expected a search result object")
            slugs.extend(_field(item, url, "full_name") for item in payload["items"])
            pages += 1
    return slugs


def fetch_corpus(
    plan: FetchPlan,
    client: GitHubClient | None = None,
    base_corpus: Corpus | None = None,
) -> Corpus:
    """Fetch every planned target, upserting into an existing corpus.

    Repositories replace any same-id predecessor; users merge by login.
    Rerunning after an interruption therefore converges to the result of
    an uninterrupted run.
    """
    client = client or GitHubClient(plan)
    slugs = list(plan.targets)
    if plan.topic:
        slugs.extend(search_by_topic(plan.topic, plan, client))
    repos: dict[str, Repository] = (
        {r.id: r for r in base_corpus.repos} if base_corpus else {}
    )
    users: dict[str, User] = dict(base_corpus.users) if base_corpus else {}
    for slug in slugs:
        repo, seen = fetch_repository(slug, plan, client)
        repos[repo.id] = repo
        users.update(seen)
    meta = dict(base_corpus.meta) if base_corpus else {}
    meta.setdefault("snapshot_at", time.time())
    return Corpus(
        repos=sorted(repos.values(), key=lambda r: r.id),
        users=users,
        meta=meta,
    )
