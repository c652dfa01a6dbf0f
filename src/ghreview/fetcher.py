"""REST ingestion of repositories into the archive data model.

Design notes, all load-bearing for the tests:

- Every response with an ETag is cached in memory, and conditional
  requests that come back 304 are served from cache without spending rate
  budget.  With a cache directory the cache is also written to
  ``etag_cache.json``, once per repository (and once per topic search),
  when that fetch ends or fails; a run whose every response was a 304
  writes nothing.  The file is written one entry at a time, so a write
  holds about one entry's text, not the whole file's; its bytes are those
  of ``json.dumps`` of the cache, whose entries are put in key order first,
  so the bytes do not depend on the order in which worker threads stored
  them.  Exceptions and interrupts still write every page
  fetched so far; a process killed outright loses the pages of the
  repository in flight, which the next run fetches again.
- Requests go out over stdlib ``http.client`` on keep-alive connections
  pooled per origin (scheme and host).  The proxy environment
  (``http_proxy``, ``https_proxy``, ``no_proxy``) is read when a connection
  opens, not per request.  Redirects are followed, gzip bodies decoded.
- One rate budget object is shared by all workers under a lock; a 403
  with zero remaining raises immediately with the advertised reset time,
  and the client refuses to issue further requests until that time.
- Follower counts are fetched once per distinct login per repository,
  through a small thread pool, and stamped into the corpus meta as a
  snapshot time.
- Payloads become archive records that one archive loader per fetch reads,
  links and checks as it does an archive file's lines, so a fetch succeeds
  only on data that a saved archive would load, and the corpus holds one
  ``User`` per login.  A target named twice is fetched once.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from urllib.parse import quote, urljoin, urlsplit

from . import __version__
from .archive import ArchiveError, _atomic_write, _Loader
from .models import Corpus, FetchPlan, Repository, User

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

TOKEN_ENV_VAR = "GITHUB_TOKEN"
_TIMEOUT_S = 30
_REDIRECTS = frozenset({301, 302, 307, 308})
_MAX_REDIRECTS = 5
_LINK_ENTRY_SPLIT = re.compile(r",\s*(?=<)")  # a comma inside a URL is not a separator
_URL_SAFE = "!#$%&'()*+,/:;=?@[]~"  # left as they are when a URL is escaped for the request line


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


def _next_link(header: str | None) -> str | None:
    """The ``rel="next"`` URL of a Link header, or None."""
    for entry in _LINK_ENTRY_SPLIT.split(header or ""):
        url, _, params = entry.partition(";")
        for param in params.split(";"):
            name, _, value = param.partition("=")
            if name.strip() == "rel" and value.strip(" '\"") == "next":
                return url.strip(" <>'\"")
    return None


def _json_body(url: str, headers, body: bytes):
    """A response body's JSON document, gunzipped first if the server compressed it."""
    import gzip  # here, not at module level: commands that never fetch skip its import cost
    import zlib

    try:
        if headers.get("Content-Encoding") == "gzip":
            body = gzip.decompress(body)
        return json.loads(body)
    except (ValueError, OSError, EOFError, zlib.error) as exc:
        raise PayloadDecodeError(url, str(exc)) from exc


class GitHubClient:
    """HTTP client owning the ETag cache, the shared rate budget and a pool
    of keep-alive connections.

    ``requests`` counts the responses received and ``not_modified`` the 304s
    among them.  Idle connections wait in a pool per origin (scheme and
    host); a request takes one or opens another, and gives it back once the
    response is read.  ``close`` closes the idle ones.
    """

    def __init__(self, plan: FetchPlan):
        self.plan = plan
        self.budget = RateBudget()
        self.requests = 0
        self.not_modified = 0
        self._lock = threading.Lock()
        self._idle: dict[tuple[str, str], list] = {}
        self._tls = None  # the ssl context, made when the first https connection opens
        self._cache: dict[str, dict] = {}
        self._dirty = False
        self._cache_path = None
        if plan.cache_dir:
            os.makedirs(plan.cache_dir, exist_ok=True)
            self._cache_path = os.path.join(plan.cache_dir, "etag_cache.json")
            if os.path.exists(self._cache_path):
                self._cache = _load_cache(self._cache_path)
        token = plan.token or os.environ.get(TOKEN_ENV_VAR)
        self._headers = {
            "Accept": "application/vnd.github+json",
            "Accept-Encoding": "gzip",
            "User-Agent": f"ghreview/{__version__}",  # GitHub refuses API requests without one
        }
        if token:
            self._headers["Authorization"] = f"Bearer {token}"

    def persist_cache(self) -> None:
        """Write the cache file if any response was stored since the last write."""
        # Under the lock: other threads must neither change the dict mid-dump
        # nor write this process's temporary file at the same time.
        with self._lock:
            if self._cache_path is None or not self._dirty:
                return
            # In key order: the bytes must not depend on which thread stored an entry first.
            self._cache = dict(sorted(self._cache.items()))
            # Entry by entry, each through the C encoder: one dumps of the whole
            # dict would hold several times the file's size at once.  The
            # separators are json.dumps's, so the bytes are the same.
            with _atomic_write(self._cache_path) as fh:
                fh.write("{")
                sep = ""
                for key, entry in self._cache.items():
                    fh.write(f"{sep}{json.dumps(key)}: {json.dumps(entry)}")
                    sep = ", "
                fh.write("}")
            self._dirty = False

    def close(self) -> None:
        """Close every idle connection; a later request opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for connections in idle.values():
            for conn, _ in connections:
                conn.close()

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
        status, response_headers, body = self._follow(url, headers)
        with self._lock:
            self.requests += 1
            self.budget.update(response_headers)
            if status == 304 and cached is not None:
                self.not_modified += 1
                return cached["body"], cached["next"], True
            if status == 403 and self.budget.remaining == 0:
                raise BudgetExhaustedError(self.budget.reset_at)
        if status == 404:
            raise _NotFound(url)
        if status >= 400:
            raise FetchError(f"HTTP {status} from {url}")
        payload = _json_body(url, response_headers, body)
        next_url = _next_link(response_headers.get("Link"))
        etag = response_headers.get("ETag")
        if etag:
            with self._lock:
                self._cache[key] = {"etag": etag, "body": payload, "next": next_url}
                self._dirty = True
        return payload, next_url, False

    def _follow(self, url: str, headers: dict[str, str]):
        """GET a URL and the redirects it answers with: the last (status, headers, body).

        A redirect to another origin drops the Authorization header.  A
        malformed response raises FetchError naming the URL that sent it.
        """
        import http.client

        for _ in range(_MAX_REDIRECTS + 1):
            try:
                status, response_headers, body = self._send(url, headers)
            except http.client.HTTPException as exc:
                raise FetchError(f"bad HTTP response from {url}: {exc!r}") from exc
            location = response_headers.get("Location")
            if status not in _REDIRECTS or not location:
                return status, response_headers, body
            target = urljoin(url, location)
            if urlsplit(target)[:2] != urlsplit(url)[:2]:
                headers = {k: v for k, v in headers.items() if k != "Authorization"}
            url = target
        raise FetchError(f"more than {_MAX_REDIRECTS} redirects, the last to {url}")

    def _send(self, url: str, headers: dict[str, str]):
        """One GET on an idle connection to the URL's origin, or on a new one.

        A reused connection that fails before a status line arrives was
        closed by the server while idle, so the request is sent once more on
        a new connection.  After a status line nothing is resent.
        """
        url = quote(url, safe=_URL_SAFE)  # a space or a non-ASCII character goes out %-escaped
        parts = urlsplit(url)
        origin = (parts.scheme, parts.netloc)
        target = parts.path or "/"
        if parts.query:
            target += "?" + parts.query
        with self._lock:
            idle = self._idle.get(origin)
            entry = idle.pop() if idle else None
        response = None
        if entry is not None:
            try:
                response = self._start(entry, url, target, headers)
            except (ConnectionResetError, BrokenPipeError):  # RemoteDisconnected is a ConnectionResetError
                entry = None
        if entry is None:
            entry = self._open(parts)
            response = self._start(entry, url, target, headers)
        connection = entry[0]
        try:
            body = response.read()
        except BaseException:
            connection.close()
            raise
        if response.will_close:
            connection.close()
        else:
            with self._lock:
                self._idle.setdefault(origin, []).append(entry)
        return response.status, response.headers, body

    @staticmethod
    def _start(entry, url: str, target: str, headers: dict[str, str]):
        """Send the request and read the status line and headers; a failure closes the connection."""
        connection, absolute = entry
        try:
            connection.request("GET", url if absolute else target, headers=headers)
            return connection.getresponse()
        except BaseException:
            connection.close()
            raise

    def _open(self, parts):
        """A new connection to an origin, with whether requests on it carry the absolute URL.

        The proxy environment is read here, once per connection: an http
        origin goes through ``http_proxy`` with absolute URLs, an https one
        tunnels through ``https_proxy``, unless ``no_proxy`` names its host.
        """
        import http.client  # here, not at module level: commands that never fetch skip its import cost
        import ssl
        import urllib.request

        if parts.scheme not in ("http", "https") or not parts.hostname:
            raise FetchError(f"cannot fetch {parts.geturl()}: not an http or https URL")
        address = parts.netloc.rpartition("@")[2]  # host[:port], without any user:password@
        host, port = address, None
        proxy = urllib.request.getproxies().get(parts.scheme)
        if proxy and not urllib.request.proxy_bypass(address):
            proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            host, port = proxy_parts.hostname, proxy_parts.port or 80
        else:
            proxy = None
        if parts.scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=_TIMEOUT_S), proxy is not None
        with self._lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
        connection = http.client.HTTPSConnection(host, port, timeout=_TIMEOUT_S, context=self._tls)
        if proxy is not None:
            connection.set_tunnel(address)
        return connection, False

    def _pages(self, url: str):
        """Each page's (URL, payload), following next links for up to max_pages pages;
        a listing that goes on past them is cut there with a warning."""
        next_url: str | None = url
        for _ in range(self.plan.max_pages):
            page_url = next_url
            payload, next_url, _ = self.get(page_url)
            yield page_url, payload
            if next_url is None:
                return
        log.warning("stopped %s after max_pages=%d; later pages were not fetched", url, self.plan.max_pages)

    def paged(self, url: str) -> list[tuple[str, dict]]:
        """Follow next links up to max_pages; each object of the array pages beside its page's URL."""
        out: list[tuple[str, dict]] = []
        for page_url, payload in self._pages(url):
            if not isinstance(payload, list) or not all(isinstance(item, dict) for item in payload):
                raise PayloadDecodeError(page_url, "expected a JSON array of objects")
            out.extend((page_url, item) for item in payload)
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
    """Write the client's cache and close its idle connections when the block
    ends; if the block failed, a cache write error is logged rather than raised
    in place of the block's error."""
    try:
        yield
    except BaseException:
        try:
            client.persist_cache()
        except OSError as cache_error:
            log.warning("ETag cache not written: %s", cache_error)
        raise
    else:
        client.persist_cache()
    finally:
        client.close()


def _read_repository(slug: str, plan: FetchPlan, client: GitHubClient, loader: _Loader) -> list[tuple[str, dict]]:
    """Read one repository's repo, issue, comment and commit records into ``loader``.

    Returns a user record, beside its URL, for every login those records
    name, with follower counts resolved.  Raises UnknownRepoError on 404.
    The ETag cache is written when the repository's fetch ends, whether it
    succeeded or not.
    """
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
        return _user_records(client, logins)


def fetch_repository(slug: str, plan: FetchPlan, client: GitHubClient | None = None) -> tuple[Repository, dict[str, User]]:
    """Fetch one repository's full event tree: ``fetch_corpus`` of that one target.

    Returns the repository plus every user it references, with follower
    counts resolved.  Raises UnknownRepoError on 404.
    """
    corpus = fetch_corpus(replace(plan, targets=(slug,), topic=None), client)
    return corpus.repos[0], corpus.users


def search_by_topic(topic: str, plan: FetchPlan, client: GitHubClient | None = None) -> list[str]:
    """Repository slugs carrying the topic, across paginated search results."""
    if not topic:
        raise ValueError("topic must be non-empty")
    client = client or GitHubClient(plan)
    base = plan.base_url
    url = f"{base}/search/repositories?{_query({'q': f'topic:{topic}', 'per_page': plan.page_size})}"
    slugs: list[str] = []
    with _persisting(client):
        for page_url, payload in client._pages(url):
            if not isinstance(payload, dict) or not isinstance(payload.get("items"), list):
                raise PayloadDecodeError(page_url, "expected a search result object")
            for item in payload["items"]:
                slug = _field(item, page_url, "full_name")
                if not isinstance(slug, str):
                    raise PayloadDecodeError(page_url, f"field 'full_name' must be a string, got {slug!r}")
                slugs.append(slug)
    return slugs


def fetch_corpus(plan: FetchPlan, client: GitHubClient | None = None) -> Corpus:
    """Fetch every planned target, each once, into one corpus.

    One archive loader reads every target's records, then links and checks
    them all at once, so the corpus holds one ``User`` per login.  Users
    are fetched per repository; the last repository's answer for a login
    wins.  A record the loader rejects raises PayloadDecodeError naming the
    URL that sent it: a read error as soon as its page arrives, a broken
    link-time rule after the last target.
    """
    client = client or GitHubClient(plan)
    slugs = list(plan.targets)
    if plan.topic:
        slugs.extend(search_by_topic(plan.topic, plan, client))
    loader = _Loader(lenient=False)
    users: dict[str, tuple[str, dict]] = {}  # login -> (URL, user record)
    try:
        for slug in dict.fromkeys(slugs):
            for url, user in _read_repository(slug, plan, client, loader):
                users[user["login"]] = url, user
        for _, (url, user) in sorted(users.items()):
            loader.read(url, "user", user)
        return loader.link({"snapshot_at": time.time()})
    except ArchiveError as err:  # a fetched record's source is the URL that sent it
        raise PayloadDecodeError(err.line_no, err.reason) from None
