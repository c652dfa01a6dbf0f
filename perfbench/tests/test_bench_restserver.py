"""The stand-in REST server paginates, revalidates and counts."""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request

import corpora
from restserver import RATE_LIMIT, serve

_OPENER = urllib.request.build_opener(urllib.request.ProxyHandler({}))


def _get(url, etag=None):
    request = urllib.request.Request(url, headers={"If-None-Match": etag} if etag else {})
    try:
        with _OPENER.open(request, timeout=10) as response:
            return response.status, response.headers, response.read()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read()


def _next(headers):
    match = re.match(r'<([^>]+)>; rel="next"', headers.get("Link") or "")
    return match.group(1) if match else None


def test_link_pagination_walks_every_item_once():
    dataset = corpora.ingest_dataset(1)
    slug = corpora.INGEST_REPOS[0]
    with serve(dataset) as server:
        url = f"{server.base_url}/repos/{slug}/issues?state=all&per_page=100"
        numbers, pages = [], 0
        while url:
            status, headers, body = _get(url)
            assert status == 200
            numbers += [item["number"] for item in json.loads(body)]
            url = _next(headers)
            pages += 1
    assert numbers == list(range(1, corpora.INGEST_ISSUES + 1))
    assert pages == 3


def test_matching_etag_gets_304_and_is_counted():
    dataset = corpora.ingest_dataset(1)
    login = next(iter(dataset["users"]))
    with serve(dataset) as server:
        url = f"{server.base_url}/users/{login}"
        status, headers, body = _get(url)
        assert status == 200
        assert json.loads(body) == {"login": login, "followers": dataset["users"][login]}
        etag = headers["ETag"]
        assert _get(url)[1]["ETag"] == etag  # stable across requests
        status, headers, body = _get(url, etag)
        assert status == 304 and body == b""
        assert headers["X-RateLimit-Remaining"] == str(RATE_LIMIT)
        assert _get(url, '"stale"')[0] == 200
        assert _get(f"{server.base_url}/users/nobody")[0] == 404
        assert (server.requests, server.not_modified) == (5, 1)
        server.reset_counts()
        assert (server.requests, server.not_modified) == (0, 0)
