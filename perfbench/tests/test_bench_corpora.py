"""The workload generator is deterministic and its archives load cleanly."""

from __future__ import annotations

import hashlib
import json
import random

import corpora
from ghreview.archive import load_archive


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_same_seed_gives_byte_identical_archives(tmp_path):
    for tier in ("M", "L"):
        first, second = tmp_path / f"{tier}1.ndjson", tmp_path / f"{tier}2.ndjson"
        sizes = corpora.write_archive(first, tier, 7)
        assert corpora.write_archive(second, tier, 7) == sizes
        assert _sha(first) == _sha(second)


def test_seeds_change_content_but_not_issue_totals(tmp_path):
    a = corpora.write_archive(tmp_path / "a.ndjson", "M", 1)
    b = corpora.write_archive(tmp_path / "b.ndjson", "M", 2)
    assert _sha(tmp_path / "a.ndjson") != _sha(tmp_path / "b.ndjson")
    ladder = corpora.issue_ladder(corpora.TIERS["M"], random.Random(0))
    assert a["issues"] == b["issues"] == sum(ladder)
    assert a["repos"] == b["repos"] == 30


def test_hub_bot_comments_once_on_every_hub_issue(tmp_path):
    path = tmp_path / "l.ndjson"
    sizes = corpora.write_archive(path, "L", 3)
    hub = sizes["hub_repo"]
    records = [json.loads(line) for line in path.read_text().splitlines()]
    hub_issues = {r["id"] for r in records if r["kind"] == "issue" and r["repo"] == hub}
    bot_comments = [r["issue"] for r in records
                    if r["kind"] == "comment" and r["author"] == corpora.BOT_LOGIN]
    assert len(hub_issues) == min(corpora.issue_ladder(corpora.TIERS["L"], random.Random(0)))
    assert sorted(bot_comments) == sorted(hub_issues)


def test_archive_loads_strictly_with_the_recorded_sizes(tmp_path):
    path = tmp_path / "m.ndjson"
    sizes = corpora.write_archive(path, "M", 5)
    corpus = load_archive(path)
    assert len(corpus.repos) == sizes["repos"]
    assert len(corpus.users) == sizes["users"]
    assert sum(len(r.issues) for r in corpus.repos) == sizes["issues"]
    assert sum(len(i.comments) for r in corpus.repos for i in r.issues) == sizes["comments"]
    assert sum(len(r.commits) for r in corpus.repos) == sizes["commits"]


def test_ingest_dataset_is_deterministic_with_a_fixed_request_count():
    assert corpora.ingest_dataset(4) == corpora.ingest_dataset(4)
    assert corpora.ingest_dataset(4) != corpora.ingest_dataset(5)
    counts = {corpora.ingest_sizes(corpora.ingest_dataset(seed))["cold_requests"] for seed in range(4)}
    assert len(counts) == 1
