"""Local HTTP stand-in for the REST API, backed by deterministic fixtures.

Serves two repositories plus a topic-search dataset with real pagination
(Link headers), ETag/304 revalidation, rate-limit headers that count down
per full response, a 403-at-zero budget mode, and an injectable failure
switch for interruption tests. Further switches redirect a repository's
URLs, gzip bodies, speak HTTP/1.1 keep-alive (and drop each connection
after one reply), or answer with a garbage status line. Every request's
target and headers are recorded, so the server also stands in for an
http proxy that tests can inspect; a `CONNECT` tunnel it records and
refuses.
All content is index arithmetic, no RNG, so expected record counts are
plain constants.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import re
import threading
import time
from contextlib import contextmanager
from datetime import datetime, timedelta, timezone
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

LOGIN_POOL = [
    "amir", "bea", "chen", "dara", "eli", "fay",
    "gus", "hana", "iris", "jon", "kira", "lev",
]
FOLLOWERS = {login: 10 * (k + 1) for k, login in enumerate(LOGIN_POOL)}

WIDGETS = "octo/widgets"
TOOLS = "acme/tools"
MISSING = "ghost/missing"
SEARCH_TOPIC = "robotics"

WIDGETS_ISSUES = 120
WIDGETS_COMMENTS = sum(i % 4 for i in range(1, WIDGETS_ISSUES + 1))  # 180
WIDGETS_COMMITS_TOTAL = 150
WIDGETS_COMMITS_KEPT = sum(1 for j in range(150) if j % 10 != 0)  # 135
WIDGETS_CONTRIBUTORS = 5
TOOLS_ISSUES = 30
TOOLS_COMMENTS = sum(i % 3 for i in range(1, TOOLS_ISSUES + 1))  # 30
TOOLS_COMMITS_KEPT = sum(1 for j in range(20) if j % 7 != 0)  # 17
SEARCH_RESULTS = 150

_BASE = datetime(2020, 1, 1, tzinfo=timezone.utc)


def _iso(hours: float) -> str:
    return (_BASE + timedelta(hours=hours)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _repo_payload(slug: str, owner: str, stars: int, forks: int, subs: int) -> dict:
    return {
        "full_name": slug,
        "owner": {"login": owner},
        "created_at": _iso(0),
        "stargazers_count": stars,
        "forks_count": forks,
        "subscribers_count": subs,
        "watchers_count": stars,  # mirrors the API quirk; subscribers win
    }


def _issues_for(slug: str, count: int, comment_mod: int) -> tuple[list, dict]:
    issues = []
    comments: dict[int, list] = {}
    for i in range(1, count + 1):
        n_comments = i % comment_mod
        item = {
            "number": i,
            "user": {"login": LOGIN_POOL[i % len(LOGIN_POOL)]},
            "created_at": _iso(i * 5),
            "comments": n_comments,
        }
        if i % 2 == 0:
            item["closed_at"] = _iso(i * 5 + 1)
            item["closed_by"] = {"login": LOGIN_POOL[(i + 3) % len(LOGIN_POOL)]}
        if i % 3 == 0:
            item["pull_request"] = {"url": f"https://example.invalid/{slug}/pull/{i}"}
        issues.append(item)
        if n_comments:
            comments[i] = [
                {
                    "user": {"login": LOGIN_POOL[(i + k + 1) % len(LOGIN_POOL)]},
                    "created_at": _iso(i * 5 + (k + 1) / 60),
                    "body": f"note {i}-{k}",
                }
                for k in range(n_comments)
            ]
    return issues, comments


def _commits_for(count: int, skip_mod: int) -> list:
    out = []
    for j in range(count):
        author = None if j % skip_mod == 0 else {"login": LOGIN_POOL[j % len(LOGIN_POOL)]}
        out.append(
            {
                "author": author,
                "commit": {"author": {"date": _iso(j * 3)}},
                "stats": {"additions": 10 + j % 7, "deletions": j % 5},
            }
        )
    return out


def build_dataset() -> dict:
    widgets_issues, widgets_comments = _issues_for(WIDGETS, WIDGETS_ISSUES, 4)
    tools_issues, tools_comments = _issues_for(TOOLS, TOOLS_ISSUES, 3)
    return {
        "repos": {
            WIDGETS: {
                "payload": _repo_payload(WIDGETS, "amir", 42, 7, 11),
                "contributors": [{"login": LOGIN_POOL[k]} for k in range(WIDGETS_CONTRIBUTORS)],
                "issues": widgets_issues,
                "comments": widgets_comments,
                "commits": _commits_for(WIDGETS_COMMITS_TOTAL, 10),
            },
            TOOLS: {
                "payload": _repo_payload(TOOLS, "bea", 5, 1, 2),
                "contributors": [{"login": LOGIN_POOL[k]} for k in range(3)],
                "issues": tools_issues,
                "comments": tools_comments,
                "commits": _commits_for(20, 7),
            },
        },
        "users": dict(FOLLOWERS),
        "search": {
            SEARCH_TOPIC: [{"full_name": f"lab{n:03d}/bot"} for n in range(SEARCH_RESULTS)]
        },
    }


class FixtureState:
    """Mutable server-side knobs and counters, shared across handler threads."""

    def __init__(self, dataset: dict, *, limit: int = 5000, fail_after: int | None = None):
        self.dataset = dataset
        self.remaining = limit
        self.reset_at = int(time.time()) + 3600
        self.fail_after = fail_after
        self.redirects: dict[str, str] = {}  # slug -> where its URLs moved (a path or an absolute URL)
        self.gzip = False  # compress bodies for clients that accept gzip
        self.close_after_reply = False  # close each connection after one reply, without saying so
        self.bad_status = False  # answer every request with a garbage status line
        self.requests = 0
        self.full_responses = 0
        self.not_modified = 0
        self.gzipped = 0
        self.connections = 0
        self.seen: list[tuple[str, object]] = []  # (request target, headers) per request
        self.lock = threading.Lock()


_REPO_RE = re.compile(r"^/repos/([^/]+/[^/]+)$")
_SUB_RE = re.compile(r"^/repos/([^/]+/[^/]+)/(contributors|issues|commits)$")
_COMMENTS_RE = re.compile(r"^/repos/([^/]+/[^/]+)/issues/(\d+)/comments$")
_USER_RE = re.compile(r"^/users/([^/]+)$")


def _make_handler(state: FixtureState, keep_alive: bool):
    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1" if keep_alive else "HTTP/1.0"

        def log_message(self, *args):  # keep test output quiet
            pass

        def setup(self):
            super().setup()
            with state.lock:
                state.connections += 1

        def _rate_headers(self):
            self.send_header("X-RateLimit-Remaining", str(max(state.remaining, 0)))
            self.send_header("X-RateLimit-Reset", str(state.reset_at))

        def _reply_json(self, obj, next_url: str | None):
            body = json.dumps(obj).encode("utf-8")
            etag = '"' + hashlib.sha256(body).hexdigest()[:16] + '"'
            if self.headers.get("If-None-Match") == etag:
                with state.lock:
                    state.not_modified += 1
                self.send_response(304)
                self.send_header("Content-Length", "0")
                self._rate_headers()
                self.end_headers()
                return
            with state.lock:
                if state.fail_after is not None and state.full_responses >= state.fail_after:
                    self.send_response(500)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if state.remaining <= 0:
                    self.send_response(403)
                    self.send_header("Content-Length", "0")
                    self.send_header("X-RateLimit-Remaining", "0")
                    self.send_header("X-RateLimit-Reset", str(state.reset_at))
                    self.end_headers()
                    return
                state.remaining -= 1
                state.full_responses += 1
                gzipped = state.gzip and "gzip" in self.headers.get("Accept-Encoding", "")
                state.gzipped += gzipped
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            if gzipped:
                body = gzip.compress(body)
                self.send_header("Content-Encoding", "gzip")
            self.send_header("Content-Length", str(len(body)))
            self.send_header("ETag", etag)
            self._rate_headers()
            if next_url is not None:
                self.send_header("Link", f'<{next_url}>; rel="next"')
            self.end_headers()
            self.wfile.write(body)

        def _not_found(self):
            body = b'{"message":"Not Found"}'
            self.send_response(404)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self._rate_headers()
            self.end_headers()
            self.wfile.write(body)

        def _paginate(self, items: list, path: str, query: dict):
            per_page = int(query.get("per_page", ["30"])[0])
            page = int(query.get("page", ["1"])[0])
            start = (page - 1) * per_page
            chunk = items[start : start + per_page]
            next_url = None
            if start + per_page < len(items):
                params = {k: v[0] for k, v in query.items() if k != "page"}
                params["page"] = str(page + 1)
                qs = "&".join(f"{k}={v}" for k, v in params.items())
                host = self.headers.get("Host")
                next_url = f"http://{host}{path}?{qs}"
            return chunk, next_url

        def do_GET(self):
            with state.lock:
                state.requests += 1
                state.seen.append((self.path, self.headers))
            if state.bad_status:
                self.wfile.write(b"NONSENSE\r\n\r\n")
                self.close_connection = True
                return
            self._route()
            if state.close_after_reply:
                self.close_connection = True

        def do_CONNECT(self):  # as a proxy, it records the tunnel asked for and refuses it
            with state.lock:
                state.requests += 1
                state.seen.append((self.path, self.headers))
            self.send_response(502)
            self.send_header("Content-Length", "0")
            self.end_headers()
            self.close_connection = True

        def _route(self):
            parsed = urlparse(self.path)  # a request through a proxy names the absolute URL
            path, query = parsed.path, parse_qs(parsed.query)
            for slug, moved in state.redirects.items():
                old, new = f"/repos/{slug}", urlparse(moved).path
                if path == old or path.startswith(old + "/"):
                    location = moved + path[len(old):] + (f"?{parsed.query}" if parsed.query else "")
                    self.send_response(301)
                    self.send_header("Location", location)
                    self.send_header("Content-Length", "0")
                    self.end_headers()
                    return
                if path == new or path.startswith(new + "/"):
                    path = old + path[len(new):]
            repos = state.dataset["repos"]

            m = _REPO_RE.match(path)
            if m:
                repo = repos.get(m.group(1))
                if repo is None:
                    return self._not_found()
                return self._reply_json(repo["payload"], None)

            m = _SUB_RE.match(path)
            if m:
                repo = repos.get(m.group(1))
                if repo is None:
                    return self._not_found()
                chunk, next_url = self._paginate(repo[m.group(2)], parsed.path, query)
                return self._reply_json(chunk, next_url)

            m = _COMMENTS_RE.match(path)
            if m:
                repo = repos.get(m.group(1))
                if repo is None:
                    return self._not_found()
                items = repo["comments"].get(int(m.group(2)), [])
                chunk, next_url = self._paginate(items, parsed.path, query)
                return self._reply_json(chunk, next_url)

            m = _USER_RE.match(path)
            if m:
                followers = state.dataset["users"].get(m.group(1))
                if followers is None:
                    return self._not_found()
                return self._reply_json({"login": m.group(1), "followers": followers}, None)

            if path == "/search/repositories":
                q = query.get("q", [""])[0]
                topic = q.split("topic:", 1)[1] if "topic:" in q else ""
                items = state.dataset["search"].get(topic, [])
                chunk, next_url = self._paginate(items, parsed.path, query)
                return self._reply_json({"total_count": len(items), "items": chunk}, next_url)

            return self._not_found()

    return Handler


@contextmanager
def fixture_server(dataset: dict | None = None, *, limit: int = 5000, fail_after: int | None = None,
                   keep_alive: bool = False):
    """Yields (state, base_url) around a live threaded fixture server; with
    ``keep_alive`` it speaks HTTP/1.1 and keeps connections open between requests."""
    state = FixtureState(dataset if dataset is not None else build_dataset(),
                         limit=limit, fail_after=fail_after)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _make_handler(state, keep_alive))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield state, f"http://127.0.0.1:{server.server_port}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
