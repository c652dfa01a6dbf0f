"""REST client against a local fixture server: pagination, caching, budget."""

from __future__ import annotations

import json
import logging
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone
from urllib.parse import quote

import pytest

from ghreview import __version__
from ghreview.archive import _encode, load_archive, save_archive
from ghreview.cli import main
from ghreview.fetcher import (
    BudgetExhaustedError,
    FetchError,
    FetchPlan,
    GitHubClient,
    PayloadDecodeError,
    UnknownRepoError,
    _next_link,
    fetch_corpus,
    fetch_repository,
    search_by_topic,
)
from fetch_fixture import (
    FOLLOWERS,
    LOGIN_POOL,
    MISSING,
    SEARCH_RESULTS,
    SEARCH_TOPIC,
    TOOLS,
    TOOLS_COMMENTS,
    TOOLS_COMMITS_KEPT,
    TOOLS_ISSUES,
    WIDGETS,
    WIDGETS_COMMENTS,
    WIDGETS_COMMITS_KEPT,
    WIDGETS_COMMITS_TOTAL,
    WIDGETS_CONTRIBUTORS,
    WIDGETS_ISSUES,
    build_dataset,
    fixture_server,
)

PAGE = 100


def _plan(base_url: str, cache_dir=None, **kwargs) -> FetchPlan:
    return FetchPlan(
        base_url=base_url,
        page_size=PAGE,
        cache_dir=str(cache_dir) if cache_dir else None,
        **kwargs,
    )


def _pages(n_items: int) -> int:
    return max(1, math.ceil(n_items / PAGE))


def _expected_requests(n_issues, n_comment_mod, n_contributors, n_commits) -> int:
    commented = sum(1 for i in range(1, n_issues + 1) if i % n_comment_mod)
    return (
        1  # repository payload
        + _pages(n_contributors)
        + _pages(n_issues)
        + _pages(n_commits)
        + commented  # one single-page comment listing per commented issue
        + len(LOGIN_POOL)  # each distinct login resolved exactly once
    )


WIDGETS_REQUESTS = _expected_requests(WIDGETS_ISSUES, 4, WIDGETS_CONTRIBUTORS, WIDGETS_COMMITS_TOTAL)
TOOLS_REQUESTS = _expected_requests(TOOLS_ISSUES, 3, 3, 20)


# --- plan validation -------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [{"page_size": 0}, {"page_size": 101}, {"max_pages": 0}, {"workers": 0}],
)
def test_plan_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        FetchPlan(**kwargs)


# --- single repository -----------------------------------------------------


@pytest.fixture(scope="module")
def cold_widgets(tmp_path_factory):
    with fixture_server() as (state, base_url):
        plan = _plan(base_url, tmp_path_factory.mktemp("widgets_cache"))
        repo, users = fetch_repository(WIDGETS, plan)
        counters = (state.requests, state.full_responses, state.not_modified)
    return repo, users, counters


def test_all_pages_are_collected(cold_widgets):
    repo, users, _ = cold_widgets
    assert repo.id == WIDGETS
    assert len(repo.issues) == WIDGETS_ISSUES
    assert sum(len(i.comments) for i in repo.issues) == WIDGETS_COMMENTS
    assert len(repo.commits) == WIDGETS_COMMITS_KEPT
    assert len(repo.contributors) == WIDGETS_CONTRIBUTORS
    assert set(users) == set(LOGIN_POOL)


def test_fetched_names_are_shared(cold_widgets, assert_names_shared):
    repo, users, _ = cold_widgets
    assert_names_shared([repo], users)


def test_fetched_corpus_shares_one_user_per_login(tmp_path, assert_names_shared):
    with fixture_server() as (_, base_url):
        corpus = fetch_corpus(_plan(base_url, targets=(WIDGETS, TOOLS)))
    assert [r.id for r in corpus.repos] == [TOOLS, WIDGETS]
    assert_names_shared(corpus.repos, corpus.users)


def test_request_count_is_exactly_one_per_page(cold_widgets):
    _, _, (requests, full, not_modified) = cold_widgets
    assert full == WIDGETS_REQUESTS
    assert requests == full  # nothing was cached, nothing retried
    assert not_modified == 0


def test_repo_metadata_fields(cold_widgets):
    repo, users, _ = cold_widgets
    assert repo.owner == users["amir"]
    assert repo.owner.followers == FOLLOWERS["amir"]
    assert repo.stargazers == 42
    assert repo.forks == 7
    assert repo.watchers == 11  # subscribers win over the legacy watcher count
    assert repo.created_at == datetime(2020, 1, 1, tzinfo=timezone.utc).timestamp()


def test_issue_fields_follow_payload(cold_widgets):
    repo, users, _ = cold_widgets
    first = repo.issues[0]
    assert first.id == f"{WIDGETS}#1"
    assert first.opener == users[LOGIN_POOL[1]]
    assert first.created_at == repo.created_at + 5 * 3600
    assert first.closed_at is None and first.closer is None
    second = repo.issues[1]
    assert second.closed_at == repo.created_at + 11 * 3600
    assert second.closer == users[LOGIN_POOL[5]]
    by_number = {int(i.id.split("#")[1]): i for i in repo.issues}
    for n, issue in by_number.items():
        assert issue.has_linked_code == (n % 3 == 0)
        assert len(issue.comments) == n % 4
        assert (issue.closed_at is not None) == (n % 2 == 0)


def test_comment_bodies_and_order(cold_widgets):
    repo, users, _ = cold_widgets
    issue = next(i for i in repo.issues if i.id.endswith("#3"))
    assert [c.body for c in issue.comments] == ["note 3-0", "note 3-1", "note 3-2"]
    assert [c.created_at for c in issue.comments] == sorted(
        c.created_at for c in issue.comments
    )
    assert issue.comments[0].author == users[LOGIN_POOL[4]]


def test_commits_without_login_are_dropped(cold_widgets):
    repo, _, _ = cold_widgets
    assert len(repo.commits) == WIDGETS_COMMITS_KEPT
    assert all(c.author.login in LOGIN_POOL for c in repo.commits)
    assert all(c.lines_added >= 10 and 0 <= c.lines_removed < 5 for c in repo.commits)


def test_unknown_repo_raises():
    with fixture_server() as (_, base_url):
        with pytest.raises(UnknownRepoError) as err:
            fetch_repository(MISSING, _plan(base_url))
    assert err.value.slug == MISSING


def test_unknown_user_defaults_to_zero_followers():
    dataset = build_dataset()
    dataset["repos"][TOOLS]["issues"][0]["user"] = {"login": "zed"}
    with fixture_server(dataset) as (_, base_url):
        repo, users = fetch_repository(TOOLS, _plan(base_url))
    assert users["zed"].followers == 0
    assert repo.issues[0].opener.login == "zed"


# --- caching ---------------------------------------------------------------


def test_warm_rerun_sends_no_full_request(tmp_path):
    with fixture_server() as (state, base_url):
        plan = _plan(base_url, tmp_path / "cache", targets=(TOOLS, WIDGETS))
        cold = fetch_corpus(plan)
        cold_full = state.full_responses
        warm = fetch_corpus(plan)  # fresh client, same cache directory
        assert state.full_responses == cold_full
        assert state.not_modified > 0
    assert [r.id for r in cold.repos] == [TOOLS, WIDGETS]
    assert cold.repos == warm.repos
    assert cold.users == warm.users


def test_shared_user_lookups_are_cached_across_repos(tmp_path):
    with fixture_server() as (state, base_url):
        plan = _plan(base_url, tmp_path / "cache", targets=(TOOLS, WIDGETS))
        fetch_corpus(plan)
        # the second repository revalidates the twelve /users hits via 304
        assert state.full_responses == TOOLS_REQUESTS + WIDGETS_REQUESTS - len(LOGIN_POOL)
        assert state.not_modified == len(LOGIN_POOL)


def test_revalidation_does_not_spend_budget(tmp_path):
    with fixture_server() as (state, base_url):
        plan = _plan(base_url, tmp_path / "cache")
        repo_cold, _ = fetch_repository(WIDGETS, plan)
        remaining_after_cold = state.remaining
        client = GitHubClient(_plan(base_url, tmp_path / "cache"))
        repo_warm, _ = fetch_repository(WIDGETS, client.plan, client)
        assert state.remaining == remaining_after_cold
        assert client.budget.remaining == remaining_after_cold
    assert repo_cold == repo_warm


def _count_cache_writes(monkeypatch, cache_dir) -> list:
    """Record every os.replace onto the cache file; returns the growing log."""
    cache_path = os.path.join(str(cache_dir), "etag_cache.json")
    writes = []
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == cache_path:
            writes.append(dst)
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    return writes


def test_cache_is_written_once_per_repository(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    writes = _count_cache_writes(monkeypatch, cache_dir)
    with fixture_server() as (state, base_url):
        plan = _plan(base_url, cache_dir, targets=(TOOLS, WIDGETS))
        fetch_corpus(plan)
        assert 1 <= len(writes) <= len(plan.targets)
        writes.clear()
        cold_full = state.full_responses
        fetch_corpus(plan)  # every response is a 304: nothing new to write
        assert state.full_responses == cold_full
    assert writes == []


def test_shared_client_counts_and_persists_under_contention(tmp_path):
    cache_dir = tmp_path / "cache"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with fixture_server() as (state, base_url):
            client = GitHubClient(_plan(base_url, cache_dir))
            urls = [
                f"{base_url}/repos/{WIDGETS}/issues/{n}/comments?per_page={PAGE}"
                for n in range(1, WIDGETS_ISSUES + 1)
            ] * 2
            with ThreadPoolExecutor(max_workers=2 * (os.cpu_count() or 1) + 2) as pool:
                futures = [pool.submit(client.get, url) for url in urls]
                futures += [pool.submit(client.persist_cache) for _ in range(40)]
                for future in futures:
                    future.result(timeout=60)
            client.persist_cache()
            assert client.requests == state.requests == len(urls)
            assert client.not_modified == state.not_modified
    finally:
        sys.setswitchinterval(interval)
    cache = json.loads((cache_dir / "etag_cache.json").read_text(encoding="utf-8"))
    assert len(cache) == WIDGETS_ISSUES


def test_failed_cache_write_keeps_previous_cache(tmp_path, monkeypatch):
    cache_dir = tmp_path / "cache"
    with fixture_server() as (_, base_url):
        fetch_repository(TOOLS, _plan(base_url, cache_dir))
        previous = (cache_dir / "etag_cache.json").read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            fetch_repository(WIDGETS, _plan(base_url, cache_dir))
    assert (cache_dir / "etag_cache.json").read_bytes() == previous
    assert [p.name for p in cache_dir.iterdir()] == ["etag_cache.json"]


def _etag_cache(n_entries: int) -> dict[str, dict]:
    """A cache of ``n_entries`` issue pages, with non-ASCII text and every JSON type."""
    return {
        f"https://api.example/repos/o/r/issues?page={n}&per_page=100": {
            "etag": f'W/"{n:040x}"',
            "body": [
                {"number": 100 * n + k, "title": f"fix \u00e9t\u00e9 #{k} \u2014 \"q\"\n",
                 "closed_at": None, "locked": k % 2 == 0, "score": k / 7}
                for k in range(20)
            ],
            "next": None if n == n_entries - 1 else f"https://api.example/next?page={n + 1}",
        }
        for n in range(n_entries)
    }


def test_cache_file_is_the_json_dump_of_the_cache_written_entry_by_entry(tmp_path):
    import tracemalloc

    for n_entries in (0, 1, 200):
        cache_dir = tmp_path / f"cache{n_entries}"
        cache_dir.mkdir()
        cache = _etag_cache(n_entries)  # "page=10" comes before "page=2" in key order
        (cache_dir / "etag_cache.json").write_text(json.dumps(cache), encoding="utf-8")
        expected = json.dumps(dict(sorted(cache.items())))
        client = GitHubClient(FetchPlan(cache_dir=str(cache_dir)))
        client._dirty = True  # as if a response had been stored since the load
        tracemalloc.start()
        try:
            client.persist_cache()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        written = (cache_dir / "etag_cache.json").read_bytes()
        assert written == expected.encode("utf-8")
        # one dumps of the whole dict holds several times the file's size at once
        assert n_entries < 200 or peak < len(written) / 4


@pytest.mark.parametrize(
    "fetch",
    [
        pytest.param(lambda plan: fetch_repository(WIDGETS, plan), id="repository"),
        pytest.param(lambda plan: search_by_topic(SEARCH_TOPIC, plan), id="topic-search"),
    ],
)
def test_cache_write_error_does_not_replace_the_fetch_error(tmp_path, monkeypatch, caplog, fetch):
    def fail(src, dst):
        raise OSError("disk full")

    with fixture_server(fail_after=1) as (_, base_url):
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(FetchError, match="HTTP 500"):
            fetch(_plan(base_url, tmp_path / "cache"))
    assert "disk full" in caplog.text  # the cache error is logged, not lost


# --- rate budget -----------------------------------------------------------


def test_budget_exhaustion_surfaces_reset_time():
    with fixture_server(limit=5) as (state, base_url):
        with pytest.raises(BudgetExhaustedError) as err:
            fetch_repository(WIDGETS, _plan(base_url))
        assert err.value.reset_at == state.reset_at
        assert state.remaining == 0


def test_exhausted_client_refuses_before_sending():
    with fixture_server(limit=5) as (state, base_url):
        client = GitHubClient(_plan(base_url))
        with pytest.raises(BudgetExhaustedError):
            fetch_repository(WIDGETS, client.plan, client)
        seen = state.requests
        with pytest.raises(BudgetExhaustedError):
            client.get(f"{base_url}/repos/{WIDGETS}")
        assert state.requests == seen  # refusal happens client-side


def test_server_error_becomes_fetch_error():
    with fixture_server(fail_after=0) as (_, base_url):
        with pytest.raises(FetchError, match="HTTP 500"):
            fetch_repository(WIDGETS, _plan(base_url))


def test_missing_page_becomes_fetch_error_naming_its_url():
    with fixture_server() as (_, base_url):
        url = f"{base_url}/repos/{TOOLS}/no-such-listing"
        with pytest.raises(FetchError) as err:
            GitHubClient(_plan(base_url)).paged(url)
    assert str(err.value) == f"HTTP 404 from {url}"


# --- interruption and resumption -------------------------------------------


def test_resumed_fetch_converges_to_uninterrupted_result(tmp_path):
    plan_kwargs = {"targets": (TOOLS, WIDGETS)}
    with fixture_server() as (clean_state, base_url):
        clean = fetch_corpus(_plan(base_url, tmp_path / "clean", **plan_kwargs))
        clean_full = clean_state.full_responses

    with fixture_server(fail_after=40) as (state, base_url):
        resumed_plan = _plan(base_url, tmp_path / "resumed", **plan_kwargs)
        with pytest.raises(FetchError):
            fetch_corpus(resumed_plan)
        assert state.full_responses == 40
        state.fail_after = None
        resumed = fetch_corpus(resumed_plan)  # fresh client reuses the on-disk cache
        assert state.full_responses == clean_full  # cached pages were not refetched

    assert resumed.repos == clean.repos
    assert resumed.users == clean.users
    assert "snapshot_at" in resumed.meta


@pytest.mark.parametrize(
    "fail_after",
    [
        pytest.param(2, id="repo-pages"),
        pytest.param(10, id="comment-pages"),
        pytest.param(TOOLS_REQUESTS - len(LOGIN_POOL) + 5, id="user-pool"),
        pytest.param(TOOLS_REQUESTS + 30, id="second-repo"),
    ],
)
def test_failed_fetch_keeps_every_page_it_fetched(tmp_path, fail_after):
    # an uninterrupted run's full responses; the second repo revalidates the users
    clean_full = TOOLS_REQUESTS + WIDGETS_REQUESTS - len(LOGIN_POOL)
    with fixture_server(fail_after=fail_after) as (state, base_url):
        plan = _plan(base_url, tmp_path / "cache", targets=(TOOLS, WIDGETS))
        with pytest.raises(FetchError):
            fetch_corpus(plan)
        assert state.full_responses == fail_after
        state.fail_after = None
        fetch_corpus(plan)  # fresh client reads what the failed one wrote
        assert state.full_responses == clean_full


def test_interrupted_fetch_keeps_every_page_it_fetched(tmp_path):
    with fixture_server() as (state, base_url):
        plan = _plan(base_url, tmp_path / "cache", targets=(WIDGETS,))
        client = GitHubClient(plan)
        real_send = client._send
        sent = []

        def interrupted_send(url, headers):
            if len(sent) == 20:
                raise KeyboardInterrupt
            sent.append(url)
            return real_send(url, headers)

        client._send = interrupted_send
        with pytest.raises(KeyboardInterrupt):
            fetch_corpus(plan, client)
        assert state.full_responses == 20
        fetch_corpus(plan)
        assert state.full_responses == WIDGETS_REQUESTS
        assert state.not_modified == 20


# --- search ----------------------------------------------------------------


def test_topic_search_walks_every_page():
    with fixture_server() as (state, base_url):
        slugs = search_by_topic(SEARCH_TOPIC, _plan(base_url))
        assert state.full_responses == _pages(SEARCH_RESULTS)
    assert len(slugs) == SEARCH_RESULTS
    assert slugs[0] == "lab000/bot"
    assert slugs[-1] == f"lab{SEARCH_RESULTS - 1:03d}/bot"


def test_search_respects_page_ceiling():
    with fixture_server() as (_, base_url):
        slugs = search_by_topic(SEARCH_TOPIC, _plan(base_url, max_pages=1))
    assert len(slugs) == PAGE


@pytest.mark.parametrize(
    "fetch, cut",
    [
        pytest.param(
            lambda plan: fetch_repository(WIDGETS, plan),
            [f"/repos/{WIDGETS}/issues?state=all&per_page={PAGE}", f"/repos/{WIDGETS}/commits?per_page={PAGE}"],
            id="repository",
        ),
        pytest.param(
            lambda plan: search_by_topic(SEARCH_TOPIC, plan),
            [f"/search/repositories?q=topic:{SEARCH_TOPIC}&per_page={PAGE}"],
            id="topic-search",
        ),
    ],
)
def test_page_ceiling_warns_about_each_listing_it_cuts(caplog, fetch, cut):
    with fixture_server() as (_, base_url):
        with caplog.at_level(logging.WARNING, logger="ghreview.fetcher"):
            fetch(_plan(base_url, max_pages=1))
    assert caplog.messages == [
        f"stopped {base_url}{path} after max_pages=1; later pages were not fetched"
        for path in cut
    ]


def test_search_rejects_empty_topic():
    with fixture_server() as (_, base_url):
        with pytest.raises(ValueError):
            search_by_topic("", _plan(base_url))


def test_unexpected_payload_shape_is_reported():
    with fixture_server() as (_, base_url):
        client = GitHubClient(_plan(base_url))
        with pytest.raises(PayloadDecodeError, match="array"):
            client.paged(f"{base_url}/search/repositories?q=topic:{SEARCH_TOPIC}&per_page=100")


@pytest.mark.parametrize(
    "payload",
    [
        pytest.param({"items": 5}, id="items-not-a-list"),
        pytest.param({"items": [{"full_name": 5}]}, id="full-name-not-a-string"),
    ],
)
def test_malformed_search_result_is_reported(monkeypatch, payload):
    plan = _plan("http://127.0.0.1:9")
    client = GitHubClient(plan)
    monkeypatch.setattr(client, "get", lambda url: (payload, None, False))  # nothing is sent
    with pytest.raises(PayloadDecodeError) as err:
        search_by_topic(SEARCH_TOPIC, plan, client)
    assert err.value.url == f"http://127.0.0.1:9/search/repositories?q=topic:{SEARCH_TOPIC}&per_page={PAGE}"


def test_malformed_search_item_is_blamed_on_its_own_page():
    dataset = build_dataset()
    dataset["search"][SEARCH_TOPIC][120]["full_name"] = 5  # on page 2
    with fixture_server(dataset) as (_, base_url):
        with pytest.raises(PayloadDecodeError, match="'full_name' must be a string") as err:
            search_by_topic(SEARCH_TOPIC, _plan(base_url))
    assert err.value.url == f"{base_url}/search/repositories?q=topic:{SEARCH_TOPIC}&per_page={PAGE}&page=2"


# --- corpus assembly -------------------------------------------------------


def _archive_lines(corpus) -> list[str]:
    """Every record of a corpus as its archive line, in the corpus's own order."""
    lines = [_encode("user", user) for user in corpus.users.values()]
    for repo in corpus.repos:
        lines.append(_encode("repo", repo))
        for issue in repo.issues:
            lines.append(_encode("issue", issue))
            lines.extend(_encode("comment", comment) for comment in issue.comments)
        lines.extend(_encode("commit", commit) for commit in repo.commits)
    return lines


def test_fetched_corpus_equals_its_archive_reloaded(tmp_path):
    with fixture_server() as (_, base_url):
        fetched = fetch_corpus(_plan(base_url, targets=(TOOLS, WIDGETS)))
    save_archive(fetched, tmp_path / "fetched.ndjson")
    loaded = load_archive(tmp_path / "fetched.ndjson")
    assert _archive_lines(fetched) == _archive_lines(loaded)
    assert [r.contributors for r in fetched.repos] == [r.contributors for r in loaded.repos]
    assert len(_archive_lines(fetched)) == (
        len(LOGIN_POOL) + 2 + TOOLS_ISSUES + WIDGETS_ISSUES + TOOLS_COMMENTS + WIDGETS_COMMENTS
        + TOOLS_COMMITS_KEPT + WIDGETS_COMMITS_KEPT
    )


@pytest.mark.parametrize(
    ("once", "twice"),
    [
        pytest.param({"targets": (TOOLS, WIDGETS)}, {"targets": (TOOLS, WIDGETS, TOOLS)}, id="repo-twice"),
        pytest.param({"topic": "tools"}, {"targets": (TOOLS,), "topic": "tools"}, id="repo-and-topic"),
    ],
)
def test_a_target_named_twice_is_fetched_once(once, twice):
    dataset = build_dataset()
    dataset["search"]["tools"] = [{"full_name": TOOLS}]
    fetched = []
    for kwargs in (once, twice):
        with fixture_server(dataset) as (state, base_url):
            corpus = fetch_corpus(_plan(base_url, **kwargs))
        fetched.append((_archive_lines(corpus), state.requests))
    assert fetched[0] == fetched[1]


def test_category_is_stamped_from_plan():
    from ghreview.models import Category

    with fixture_server() as (_, base_url):
        repo, _ = fetch_repository(TOOLS, _plan(base_url, category=Category.ROS))
    assert repo.category is Category.ROS


# --- transport -------------------------------------------------------------


def test_moved_repository_is_fetched_through_its_redirect(tmp_path):
    with fixture_server() as (state, base_url):
        direct, _ = fetch_repository(WIDGETS, _plan(base_url))
        state.redirects[WIDGETS] = "/repositories/1"  # GitHub's answer for a renamed repository
        plan = _plan(base_url, tmp_path / "cache")
        moved, _ = fetch_repository(WIDGETS, plan)
        assert any(path.startswith("/repositories/1/") for path, _ in state.seen)
        full = state.full_responses
        fetch_repository(WIDGETS, plan)  # the cache is keyed by the URL asked for
        assert state.full_responses == full
    assert moved == direct


@pytest.mark.parametrize("other_host", [False, True], ids=["same-host", "other-host"])
def test_redirect_to_another_host_drops_the_token(other_host):
    with fixture_server() as (state, base_url):
        host = base_url.replace("127.0.0.1", "localhost") if other_host else ""
        state.redirects[WIDGETS] = f"{host}/repositories/1"
        payload, _, _ = GitHubClient(_plan(base_url, token="s3cret")).get(f"{base_url}/repos/{WIDGETS}")
    assert payload["full_name"] == WIDGETS
    (_, asked), (_, redirected) = state.seen
    assert asked["Authorization"] == "Bearer s3cret"
    assert redirected["Authorization"] == (None if other_host else "Bearer s3cret")


def test_requests_name_the_client_and_gzip_bodies_decode():
    with fixture_server() as (state, base_url):
        plain, _ = fetch_repository(TOOLS, _plan(base_url))
        state.gzip = True
        compressed, _ = fetch_repository(TOOLS, _plan(base_url))
        assert state.gzipped == TOOLS_REQUESTS
    assert compressed == plain
    assert {(h["User-Agent"], h["Accept"]) for _, h in state.seen} == {
        (f"ghreview/{__version__}", "application/vnd.github+json")
    }


def test_keep_alive_connections_are_reused():
    with fixture_server(keep_alive=True) as (state, base_url):
        plan = _plan(base_url)
        repo, _ = fetch_repository(WIDGETS, plan)
        assert state.requests == WIDGETS_REQUESTS
        assert state.connections <= plan.workers  # the main thread's, then one per user-pool worker
    assert len(repo.issues) == WIDGETS_ISSUES


def test_connection_closed_after_a_kept_alive_reply_is_replaced_without_resending():
    with fixture_server(keep_alive=True) as (state, base_url):
        state.close_after_reply = True
        repo, _ = fetch_repository(WIDGETS, _plan(base_url))
        assert state.requests == state.connections == WIDGETS_REQUESTS
    targets = [path for path, _ in state.seen]
    assert len(set(targets)) == len(targets)  # the server saw each URL once
    assert len(repo.issues) == WIDGETS_ISSUES
    assert sum(len(i.comments) for i in repo.issues) == WIDGETS_COMMENTS


def test_http_proxy_from_the_environment_unless_no_proxy_names_the_host(monkeypatch, capsys, tmp_path):
    unreachable = "http://127.0.0.1:9"  # nothing listens there: only the proxy can answer
    for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with fixture_server() as (state, proxy):
        monkeypatch.setenv("http_proxy", proxy)
        args = ["fetch", "--repo", TOOLS, "--base-url", unreachable]
        assert main(args + ["--out-archive", str(tmp_path / "proxied.ndjson")]) == 0
        assert {path.startswith(f"{unreachable}/") for path, _ in state.seen} == {True}
        requests = state.requests
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        assert main(args + ["--out-archive", str(tmp_path / "direct.ndjson")]) == 1
        assert state.requests == requests
    assert capsys.readouterr().err.startswith("error: ")
    assert load_archive(tmp_path / "proxied.ndjson").repos[0].id == TOOLS


def test_https_goes_through_the_proxy_in_a_tunnel(monkeypatch, capsys, tmp_path):
    for name in ("no_proxy", "NO_PROXY", "HTTPS_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with fixture_server() as (state, proxy):
        monkeypatch.setenv("https_proxy", proxy)
        rc = main(["fetch", "--repo", TOOLS, "--base-url", "https://127.0.0.1:9",
                   "--out-archive", str(tmp_path / "out.ndjson")])
    assert rc == 1
    assert [target for target, _ in state.seen] == ["127.0.0.1:9"]  # CONNECT's target
    assert "502" in capsys.readouterr().err


def test_garbage_status_line_is_an_error_naming_the_url(capsys, tmp_path):
    with fixture_server() as (state, base_url):
        state.bad_status = True
        rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url,
                   "--out-archive", str(tmp_path / "out.ndjson")])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith(f"error: bad HTTP response from {base_url}/repos/{TOOLS}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("base_url", ["127.0.0.1:9", "ftp://127.0.0.1:9"])
def test_base_url_must_be_http_or_https(capsys, tmp_path, base_url):
    rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url, "--out-archive", str(tmp_path / "out.ndjson")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: cannot fetch {base_url}/repos/{TOOLS}: not an http or https URL")


@pytest.mark.parametrize("slug", ["a b/c", "\u00e4/c"])
def test_characters_a_url_cannot_hold_are_escaped(slug):
    with fixture_server() as (state, base_url):
        with pytest.raises(UnknownRepoError):
            fetch_repository(slug, _plan(base_url))
    assert [target for target, _ in state.seen] == [f"/repos/{quote(slug)}"]


def test_credentials_in_the_base_url_are_not_part_of_its_host():
    with fixture_server() as (state, base_url):
        plan = _plan(base_url.replace("//", "//user:pw@"))
        repo, _ = fetch_repository(TOOLS, plan)
        assert state.requests == TOOLS_REQUESTS
    assert len(repo.issues) == TOOLS_ISSUES


def test_redirect_loop_stops_at_the_cap():
    with fixture_server() as (state, base_url):
        state.redirects[WIDGETS] = f"/repos/{WIDGETS}"
        with pytest.raises(FetchError, match="redirects"):
            GitHubClient(_plan(base_url)).get(f"{base_url}/repos/{WIDGETS}")
        assert 1 < state.requests < 10


@pytest.mark.parametrize(
    "header, expected",
    [
        pytest.param('<https://x/i?page=9>; rel="last", <https://x/i?page=2>; rel="next"',
                     "https://x/i?page=2", id="last-before-next"),
        pytest.param('<https://x/s?q=a,b&page=2>; rel="next", <https://x/s?q=a,b&page=5>; rel="last"',
                     "https://x/s?q=a,b&page=2", id="comma-in-query"),
        pytest.param('<https://x/i?page=1>; rel="prev", <https://x/i?page=1>; rel="first"',
                     None, id="no-next"),
        pytest.param(None, None, id="no-header"),
    ],
)
def test_link_header_next(header, expected):
    assert _next_link(header) == expected
