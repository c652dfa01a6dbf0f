"""Stand-in REST server for the ingest workload (stdlib ``http.server``).

Serves a dataset from ``corpora.ingest_dataset`` with the parts of the API
the fetcher uses: repository, contributors, issues, issue comments, commits
and users.  List endpoints paginate with ``per_page``/``page`` and a
``Link: <...>; rel="next"`` header.  Every body has an ETag derived from its
bytes, and a matching ``If-None-Match`` gets a 304.  Rate-limit headers
never run out.  The server counts requests and 304 answers.

Usage::

    with serve(dataset) as server:
        ...  # fetch from server.base_url
        server.requests, server.not_modified
"""

from __future__ import annotations

import hashlib
import json
import re
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

RATE_LIMIT = 5000
RESET_AT = 4102444800  # far in the future; the budget is never spent

_REPO_RE = re.compile(r"^/repos/([^/]+/[^/]+)$")
_LIST_RE = re.compile(r"^/repos/([^/]+/[^/]+)/(contributors|issues|commits)$")
_COMMENTS_RE = re.compile(r"^/repos/([^/]+/[^/]+)/issues/(\d+)/comments$")
_USER_RE = re.compile(r"^/users/([^/]+)$")


class RestServer(ThreadingHTTPServer):
    """Threaded HTTP server holding the dataset, the reply cache and counters."""

    daemon_threads = True

    def __init__(self, dataset: dict):
        super().__init__(("127.0.0.1", 0), _Handler)
        self.dataset = dataset
        self.requests = 0
        self.not_modified = 0
        self._lock = threading.Lock()
        self._replies: dict[str, tuple[int, bytes, str, str | None]] = {}

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.server_port}"

    def reset_counts(self) -> None:
        with self._lock:
            self.requests = 0
            self.not_modified = 0

    def count(self, not_modified: bool) -> None:
        with self._lock:
            self.requests += 1
            self.not_modified += not_modified

    def reply_for(self, target: str, host: str) -> tuple[int, bytes, str, str | None]:
        """(status, body, etag, next_url) for a request target, memoized."""
        with self._lock:
            cached = self._replies.get(target)
        if cached is None:
            status, obj, next_url = self._route(target, host)
            body = json.dumps(obj, separators=(",", ":")).encode("utf-8")
            etag = '"' + hashlib.sha256(body).hexdigest()[:20] + '"'
            cached = (status, body, etag, next_url)
            with self._lock:
                self._replies[target] = cached
        return cached

    def _route(self, target: str, host: str) -> tuple[int, object, str | None]:
        parsed = urlparse(target)
        path, query = parsed.path, parse_qs(parsed.query)
        repos = self.dataset["repos"]
        m = _REPO_RE.match(path)
        if m and m.group(1) in repos:
            return 200, repos[m.group(1)]["payload"], None
        m = _LIST_RE.match(path)
        if m and m.group(1) in repos:
            return self._page(repos[m.group(1)][m.group(2)], path, query, host)
        m = _COMMENTS_RE.match(path)
        if m and m.group(1) in repos:
            thread = repos[m.group(1)]["comments"].get(int(m.group(2)), [])
            return self._page(thread, path, query, host)
        m = _USER_RE.match(path)
        if m and m.group(1) in self.dataset["users"]:
            return 200, {"login": m.group(1), "followers": self.dataset["users"][m.group(1)]}, None
        return 404, {"message": "Not Found"}, None

    @staticmethod
    def _page(items: list, path: str, query: dict, host: str) -> tuple[int, list, str | None]:
        per_page = int(query.get("per_page", ["30"])[0])
        page = int(query.get("page", ["1"])[0])
        start = (page - 1) * per_page
        next_url = None
        if start + per_page < len(items):
            params = {k: v[0] for k, v in query.items() if k != "page"}
            params["page"] = str(page + 1)
            qs = "&".join(f"{k}={v}" for k, v in params.items())
            next_url = f"http://{host}{path}?{qs}"
        return 200, items[start : start + per_page], next_url


class _Handler(BaseHTTPRequestHandler):
    server: RestServer
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True  # headers and body go out in separate writes

    def log_message(self, *args) -> None:
        pass

    def do_GET(self) -> None:
        status, body, etag, next_url = self.server.reply_for(self.path, self.headers.get("Host", ""))
        not_modified = status == 200 and self.headers.get("If-None-Match") == etag
        self.server.count(not_modified)
        if not_modified:
            self.send_response(304)
            self.send_header("ETag", etag)
            self.send_header("Content-Length", "0")
            self._rate_headers()
            self.end_headers()
            return
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if status == 200:
            self.send_header("ETag", etag)
        if next_url is not None:
            self.send_header("Link", f'<{next_url}>; rel="next"')
        self._rate_headers()
        self.end_headers()
        self.wfile.write(body)

    def _rate_headers(self) -> None:
        self.send_header("X-RateLimit-Limit", str(RATE_LIMIT))
        self.send_header("X-RateLimit-Remaining", str(RATE_LIMIT))
        self.send_header("X-RateLimit-Reset", str(RESET_AT))


@contextmanager
def serve(dataset: dict):
    """Run a RestServer on an ephemeral localhost port for the block's duration."""
    server = RestServer(dataset)
    thread = threading.Thread(target=server.serve_forever, name="restserver", daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
