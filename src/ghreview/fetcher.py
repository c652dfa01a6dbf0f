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
- Follower counts are fetched once per distinct login per repository,
  through a small thread pool, and stamped into the corpus meta as a
  snapshot time.
- Payloads become archive records that the archive loader reads, links and
  checks as it does an archive file's lines, so a fetch succeeds only on
  data that a saved archive would load.
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
from dataclasses import dataclass

from .archive import ArchiveError, _atomic_write, _Loader
from .models import Category, Corpus, Repository, User

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


class _NotFound(FetchError):
    def __init__(self, url: str):
        super().__init__(f"HTTP 404 from {url}")


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

    def paged(self, url: str) -> list[tuple[str, dict]]:
        """Follow next links up to max_pages; each object of the array pages beside its page's URL."""
        out: list[tuple[str, dict]] = []
        pages = 0
        next_url: str | None = url
        while next_url is not None and pages < self.plan.max_pages:
            page_url = next_url
            payload, next_url, _ = self.get(page_url)
            if not isinstance(payload, list) or not all(isinstance(item, dict) for item in payload):
                raise PayloadDecodeError(page_url, "expected a JSON array of objects")
            out.extend((page_url, item) for item in payload)
            pages += 1
        return out


def _field(payload, url: str, *keys, optional: bool = False):
    """``payload[key][key]...``; a missing level is blamed on the URL that sent it,
    except that an absent or null level of an ``optional`` field reads as None."""
    for key in keys:
        if optional and payload is None:
            return None
        if not isinstance(payload, dict) or key not in payload and not optional:
            raise PayloadDecodeError(url, f"missing field {'.'.join(keys)!r}")
        payload = payload.get(key)
    return payload


def _record(**fields) -> dict:
    """An archive record of the given fields; a null one is absent, so it takes its default."""
    return {key: value for key, value in fields.items() if value is not None}


def _query(params: dict) -> str:
    return "&".join(f"{k}={v}" for k, v in params.items())


def _user_records(client: GitHubClient, logins: set[str]) -> list[tuple[str, dict]]:
    """A user record per login beside its URL, one request per login, in parallel."""
    base = client.plan.base_url

    def one(login: str) -> tuple[str, dict]:
        url = f"{base}/users/{login}"
        try:
            payload, _, _ = client.get(url)
        except _NotFound:
            return url, {"login": login}  # no account: no followers
        if not isinstance(payload, dict):
            raise PayloadDecodeError(url, "expected a JSON object")
        return url, _record(login=login, followers=payload.get("followers"))

    with ThreadPoolExecutor(max_workers=client.plan.workers) as pool:
        return list(pool.map(one, sorted(logins)))


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
    counts resolved.  The archive loader reads, links and checks each payload
    element as an archive record; one it rejects raises PayloadDecodeError
    naming the URL that sent it.  Raises UnknownRepoError on 404.  The ETag
    cache is written when the fetch ends, whether it succeeded or not.
    """
    client = client or GitHubClient(plan)
    loader = _Loader(lenient=False)
    logins: set[str] = set()  # filled from records the loader has read, so every login is a str
    with _persisting(client):
        repo_url = f"{plan.base_url}/repos/{slug}"
        page_query = _query({"per_page": plan.page_size})
        try:
            payload, _, _ = client.get(repo_url)
        except _NotFound:
            raise UnknownRepoError(slug) from None
        if not isinstance(payload, dict):
            raise PayloadDecodeError(repo_url, "expected a JSON object")
        contributors = client.paged(f"{repo_url}/contributors?{page_query}")
        issues = client.paged(f"{repo_url}/issues?{_query({'state': 'all', 'per_page': plan.page_size})}")
        commits = client.paged(f"{repo_url}/commits?{page_query}")
        try:
            repo = _record(
                id=slug,
                category=plan.category.value,
                created_at=payload.get("created_at"),
                owner=_field(payload, repo_url, "owner", "login"),
                contributors=[c["login"] for _, c in contributors if "login" in c],
                stargazers=payload.get("stargazers_count"),
                forks=payload.get("forks_count"),
                watchers=payload.get("subscribers_count", payload.get("watchers_count")),
            )
            loader.read(repo_url, "repo", repo)
            logins.update([repo["owner"], *repo["contributors"]])
            for url, item in issues:
                number = _field(item, url, "number")
                if type(number) is not int:  # it becomes part of an issue id and a URL path
                    raise PayloadDecodeError(url, f"field 'number' must be an integer, got {number!r}")
                issue = _record(
                    id=f"{slug}#{number}",
                    repo=slug,
                    opener=_field(item, url, "user", "login"),
                    created_at=item.get("created_at"),
                    has_linked_code="pull_request" in item,
                    closed_at=item.get("closed_at"),
                    closer=_field(item, url, "closed_by", "login", optional=True),
                )
                loader.read(url, "issue", issue)
                logins.update(issue[key] for key in ("opener", "closer") if key in issue)
                if item.get("comments", 0):
                    for page_url, c in client.paged(f"{repo_url}/issues/{number}/comments?{page_query}"):
                        comment = _record(
                            issue=issue["id"],
                            author=_field(c, page_url, "user", "login"),
                            created_at=c.get("created_at"),
                            body=c.get("body"),
                        )
                        loader.read(page_url, "comment", comment)
                        logins.add(comment["author"])
            for url, item in commits:
                if not item.get("author"):
                    continue  # commits without a resolvable account carry no reviewer signal
                commit = _record(
                    repo=slug,
                    author=_field(item, url, "author", "login"),
                    created_at=_field(item, url, "commit", "author", "date"),
                    lines_added=_field(item, url, "stats", "additions", optional=True),
                    lines_removed=_field(item, url, "stats", "deletions", optional=True),
                )
                loader.read(url, "commit", commit)
                logins.add(commit["author"])
            for url, user in _user_records(client, logins):
                loader.read(url, "user", user)
            corpus = loader.link({})
        except ArchiveError as err:  # a fetched record's source is the URL that sent it
            raise PayloadDecodeError(err.line_no, err.reason) from None
    return corpus.repos[0], corpus.users


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
            if not isinstance(payload, dict) or not isinstance(payload.get("items"), list):
                raise PayloadDecodeError(url, "expected a search result object")
            for item in payload["items"]:
                slug = _field(item, url, "full_name")
                if not isinstance(slug, str):
                    raise PayloadDecodeError(url, f"field 'full_name' must be a string, got {slug!r}")
                slugs.append(slug)
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
        users=dict(sorted(users.items())),  # in login order, as a saved archive holds them
        meta=meta,
    )
