"""Command-line surface: exit codes, file layout, formatting, reproducibility."""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import importlib.metadata
import importlib.util
import json
import os
import shutil
import socket
import subprocess
import sys
import tarfile
from dataclasses import MISSING, fields
from pathlib import Path

import pytest

from ghreview import __version__, analytics, community, sentiment, simulator
from ghreview.archive import ArchiveError, load_archive, save_archive
from ghreview.cli import REPORT_FILES, build_parser, main
from ghreview.community import build_graph, ics
from ghreview.models import (Category, Corpus, FetchPlan, Issue, Repository, SimConfig, User,
                             reviewer_postings)
from ghreview.synthetic import random_corpus
from conftest import GOLDEN, TINY
from fetch_fixture import TOOLS, WIDGETS, build_dataset, fixture_server


def _rows(path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _by_first(path) -> dict[str, list[str]]:
    rows = _rows(path)
    return {row[0]: row[1:] for row in rows[1:]}


# --- argument handling -----------------------------------------------------


def test_no_arguments_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 2


def test_unknown_subcommand_is_a_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_malformed_duration_is_a_usage_error(tiny_path, out_dir):
    with pytest.raises(SystemExit) as err:
        main(["classify", "--in", tiny_path, "--out", out_dir, "--alpha", "6parsecs"])
    assert err.value.code == 2


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize("window", ["0s", "0"])
def test_non_positive_window_is_a_usage_error(tiny_path, out_dir, command, window):
    with pytest.raises(SystemExit) as err:
        main([command, "--in", tiny_path, "--out", out_dir, "--window", window])
    assert err.value.code == 2
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize("command", ["classify", "simulate", "report"])
@pytest.mark.parametrize("alpha", ["0h", "0"])
def test_non_positive_alpha_is_a_usage_error(tiny_path, out_dir, command, alpha):
    with pytest.raises(SystemExit) as err:
        main([command, "--in", tiny_path, "--out", out_dir, "--alpha", alpha])
    assert err.value.code == 2
    assert not os.path.exists(out_dir)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as err:
        main(["--version"])
    assert err.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_missing_input_file_fails_cleanly(capsys, out_dir):
    rc = main(["summary", "--in", "/nonexistent/archive.ndjson", "--out", out_dir])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# --- validate --------------------------------------------------------------


def test_validate_clean_archive(capsys, tiny_path):
    rc = main(["validate", "--in", tiny_path])
    assert rc == 0
    assert "OK: 3 repositories, 16 users" in capsys.readouterr().out


def test_validate_strict_rejects_junk_record(capsys, tmp_path, tiny_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(open(tiny_path).read() + '{"kind":"widget"}\n')
    rc = main(["validate", "--in", str(bad)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_validate_lenient_reports_dropped_lines(capsys, tmp_path, tiny_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(open(tiny_path).read() + '{"kind":"widget"}\n')
    rc = main(["validate", "--in", str(bad), "--lenient"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "rejected line 83" in out
    assert "OK: 3 repositories, 16 users" in out


def test_validate_help_says_lenient_only_changes_the_exit_status(capsys):
    with pytest.raises(SystemExit) as err:
        main(["validate", "--help"])
    assert err.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "exit 0 even if records are rejected (every rejected record is listed either way)" in help_text
    assert "drop bad records" not in help_text


def test_validate_reports_each_rejection_once_with_its_line(capsys, tmp_path, tiny_path):
    bad = tmp_path / "bad.ndjson"
    bad.write_text(open(tiny_path).read() + '{"kind":"widget"}\n')
    assert main(["validate", "--in", str(bad), "--lenient"]) == 0
    assert "rejected line 83: unknown record kind: 'widget'" in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("lenient", [False, True], ids=["strict", "lenient"])
def test_validate_lists_every_rejected_record_in_line_order(capsys, tmp_path, broken_core_lines, lenient):
    lines = [*broken_core_lines, '{"kind":"widget"}']
    bad = tmp_path / "bad.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    # dropping labA/core leaves its issues, their comments and its commits dangling
    records = [json.loads(line) for line in lines]
    dependents = [
        line_no for line_no, record in enumerate(records, start=1)
        if record.get("repo") == "labA/core" or str(record.get("issue", "")).startswith("labA/core#")
    ]
    rc = main(["validate", "--in", str(bad), *(["--lenient"] if lenient else [])])
    out, err = capsys.readouterr()
    rejected = [line for line in out.splitlines() if line.startswith("rejected ")]
    assert rejected[0] == "rejected line 18: labA/core: stargazers must be >= 0; forks must be >= 0"
    assert rejected[-1] == "rejected line 83: unknown record kind: 'widget'"
    numbers = [int(line.split()[2].rstrip(":")) for line in rejected]
    assert numbers == [18, *dependents, 83]
    assert all(line.count(f"line {n}:") == 1 for line, n in zip(rejected, numbers))
    if lenient:
        assert rc == 0 and err == ""
        assert out.splitlines()[-1] == "OK: 2 repositories, 16 users"
    else:
        assert rc == 1 and "OK" not in out
        assert err == f"error: {len(rejected)} records rejected\n"


# --- summary ---------------------------------------------------------------


def test_summary_table_values(tiny_path, out_dir):
    assert main(["summary", "--in", tiny_path, "--out", out_dir]) == 0
    table = _by_first(os.path.join(out_dir, "table1.csv"))
    header = _rows(os.path.join(out_dir, "table1.csv"))[0]
    assert header == ["statistic", "Random", "ROS", "Popular"]
    assert table["n_repos"] == ["1", "1", "1"]
    assert table["issues_per_repo"] == ["5", "4", "3"]
    assert table["mean_sentiment"] == ["0.09", "-0.0409091", "-0.138889"]


def test_summary_structured_format(tiny_path, out_dir):
    assert main(["summary", "--in", tiny_path, "--out", out_dir, "--format", "structured"]) == 0
    with open(os.path.join(out_dir, "table1.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    assert isinstance(payload, list)
    assert payload[0]["statistic"] == "n_repos"
    assert {"Random", "ROS", "Popular"} <= set(payload[0])


def test_manifest_captures_config_and_input_digest(tiny_path, out_dir):
    assert main(["summary", "--in", tiny_path, "--out", out_dir, "--seed", "5"]) == 0
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    assert manifest["tool"] == "ghreview"
    assert manifest["subcommand"] == "summary"
    assert manifest["seed"] == 5
    assert manifest["config"]["input"] == tiny_path
    expected = hashlib.sha256(open(tiny_path, "rb").read()).hexdigest()
    assert manifest["inputs"] == [{"name": "tiny_corpus.ndjson", "sha256": expected}]
    assert "generated_at" in manifest


# --- classify --------------------------------------------------------------


def test_classify_per_repo_values(tiny_path, out_dir):
    assert main(["classify", "--in", tiny_path, "--out", out_dir]) == 0
    table = _by_first(os.path.join(out_dir, "classify.csv"))
    assert table["labA/core"] == ["Random", "4", "600", "50", "0", "50", ""]
    assert table["labB/rosbot"] == ["ROS", "3", "720", "33.3333", "33.3333", "33.3333", ""]
    assert table["labC/webapp"] == ["Popular", "2", "840", "50", "0", "50", ""]


def test_classify_wider_band_merges_labels(tiny_path, out_dir):
    # alpha of 10 days swallows every gap of repo C into the regular band
    assert main(["classify", "--in", tiny_path, "--out", out_dir, "--alpha", "240h"]) == 0
    table = _by_first(os.path.join(out_dir, "classify.csv"))
    assert table["labC/webapp"][3:6] == ["0", "100", "0"]


def test_classify_notes_single_issue_repos(tmp_path, out_dir):
    owner = User(login="solo", followers=0)
    repo = Repository(
        id="solo/one",
        category=Category.RANDOM,
        created_at=1.5e9,
        owner=owner,
        issues=[
            Issue(id="solo/one#1", repo_id="solo/one", opener=owner, created_at=1.5e9 + 86400)
        ],
    )
    archive = tmp_path / "single.ndjson"
    save_archive(Corpus(repos=[repo], users={"solo": owner}), str(archive))
    assert main(["classify", "--in", str(archive), "--out", out_dir]) == 0
    row = _by_first(os.path.join(out_dir, "classify.csv"))["solo/one"]
    assert row[1] == "0"  # no gaps
    assert row[2] == ""  # no median
    assert row[6] != ""  # explanatory note


# --- simulate --------------------------------------------------------------


def test_simulate_ap_zero_identity(tiny_path, out_dir):
    assert main(["simulate", "--in", tiny_path, "--out", out_dir, "--ap", "0"]) == 0
    rows = _rows(os.path.join(out_dir, "table3.csv"))
    assert rows[0][:2] == ["category", "ap"]
    assert [r[0] for r in rows[1:]] == ["Random", "ROS", "Popular"]
    for row in rows[1:]:
        record = dict(zip(rows[0], row))
        assert record["ap"] == "0"
        assert record["regular_pct"] == record["before_regular_pct"]
        assert record["dense_pct"] == record["before_dense_pct"]
        assert record["injected_regular_pct"] == ""
        assert record["n_repos"] == "1" and record["n_excluded"] == "0"
    timeline = _rows(os.path.join(out_dir, "fig6_timeline.csv"))
    assert timeline[0] == [
        "category", "ap", "window_index", "before_regular_pct", "after_regular_pct", "n_repos",
    ]
    assert len(timeline) > 1


def test_simulate_rejects_out_of_range_probability(capsys, tiny_path, out_dir):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--in", tiny_path, "--out", out_dir, "--ap", "1.5"])
    assert err.value.code == 2
    assert "error:" in capsys.readouterr().err
    assert not os.path.exists(out_dir)


@pytest.mark.parametrize(
    ("flags", "rule"),
    [
        (["--ap", "1.5"], "acceptance_probability must lie in [0, 1], got 1.5"),
        (["--min-iap-issues", "1"], "min_iap_issues must be at least 2 (need one gap)"),
        (["--iap", "2y", "--horizon", "2y"], "horizon must exceed iap"),
        (["--window", "0"], "window must be positive, got 0.0"),
        (["--alpha", "0"], "alpha must be positive"),
    ],
)
def test_simulation_flags_are_checked_by_simconfigs_rules(capsys, tiny_path, out_dir, flags, rule):
    with pytest.raises(SystemExit) as err:
        main(["simulate", "--in", tiny_path, "--out", out_dir, *flags])
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ghreview simulate ")
    assert f"ghreview simulate: error: {rule}\n" in err
    assert not os.path.exists(out_dir)


def test_simulation_flag_defaults_are_simconfigs(tiny_path, out_dir, monkeypatch):
    handed = []
    real = simulator.simulate_corpus

    def recording(corpus, configs, **kwargs):
        handed.append(list(configs))
        return real(corpus, configs, **kwargs)

    monkeypatch.setattr(simulator, "simulate_corpus", recording)
    assert main(["simulate", "--in", tiny_path, "--out", out_dir]) == 0
    assert handed == [[SimConfig(acceptance_probability=ap) for ap in (0.3, 0.6, 0.9)]]


@pytest.mark.parametrize("command", ["simulate", "report"])
def test_every_simconfig_option_is_a_flag_with_its_default(command):
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a for a in sub.choices[command]._actions}
    common = {a.dest for a in sub.choices["summary"]._actions}  # --in, --out, --seed, ...
    options = {f.name: f.default for f in fields(SimConfig)}
    del options["acceptance_probability"], options["max_events"]  # --ap; a library-only cap
    # each simulation flag is a SimConfig field, and each field a flag with the field's default
    assert set(flags) - common - {"ap"} <= set(options)
    assert {name: flags[name].default if name in flags else MISSING for name in options} == options


# --- community -------------------------------------------------------------


def test_community_scores_match_library(tiny_path, tiny_corpus, out_dir):
    assert main(["community", "--in", tiny_path, "--out", out_dir]) == 0
    table = _by_first(os.path.join(out_dir, "community.csv"))
    for repo in tiny_corpus.repos:
        report = ics(build_graph(repo))
        row = table[repo.id]
        assert row[1] == str(report.issue_count)
        assert row[2] == str(report.e2_count)
        assert row[3] == f"{report.ics:.6g}"
        assert row[7] == ("true" if report.exceeds_one else "false")


# Every byte `community --export-graphs` writes for the tiny fixture; a CSV row ends in CRLF.
EXPORTED_GRAPHS = {
    "labA_core_e1.csv": [
        "reviewer,issue,weight",
        "alice,labA/core#4,1",
        "bob,labA/core#3,1",
        "carol,labA/core#1,1",
        "carol,labA/core#2,1",
        "carol,labA/core#3,1",
        "carol,labA/core#5,1",
        "dave,labA/core#1,1",
        "dave,labA/core#3,1",
    ],
    "labA_core_e2.csv": [
        "issue_a,issue_b,weight",
        "labA/core#1,labA/core#2,1",
        "labA/core#1,labA/core#3,2",
        "labA/core#1,labA/core#5,1",
        "labA/core#2,labA/core#3,1",
        "labA/core#2,labA/core#5,1",
        "labA/core#3,labA/core#5,1",
    ],
    "labB_rosbot_e1.csv": [
        "reviewer,issue,weight",
        "frank,labB/rosbot#1,2",
        "frank,labB/rosbot#2,1",
        "gina,labB/rosbot#2,2",
        "gina,labB/rosbot#3,1",
        "hank,labB/rosbot#1,1",
        "hank,labB/rosbot#2,1",
    ],
    "labB_rosbot_e2.csv": [
        "issue_a,issue_b,weight",
        "labB/rosbot#1,labB/rosbot#2,2",
        "labB/rosbot#2,labB/rosbot#3,1",
    ],
    "labC_webapp_e1.csv": [
        "reviewer,issue,weight",
        "kate,labC/webapp#2,1",
        "olga,labC/webapp#1,1",
        "olga,labC/webapp#2,2",
        "olga,labC/webapp#3,1",
        "pete,labC/webapp#2,1",
        "pete,labC/webapp#3,1",
    ],
    "labC_webapp_e2.csv": [
        "issue_a,issue_b,weight",
        "labC/webapp#1,labC/webapp#2,1",
        "labC/webapp#1,labC/webapp#3,1",
        "labC/webapp#2,labC/webapp#3,2",
    ],
}


def test_community_graph_export(tiny_path, out_dir):
    assert main(["community", "--in", tiny_path, "--out", out_dir, "--export-graphs"]) == 0
    graph_dir = os.path.join(out_dir, "graphs")
    names = sorted(os.listdir(graph_dir))
    # one reviewer-overlap layer and one co-review layer per repository
    assert len(names) == 6
    assert sum(name.endswith("_e1.csv") for name in names) == 3
    assert sum(name.endswith("_e2.csv") for name in names) == 3
    assert names == sorted(EXPORTED_GRAPHS)
    for name, rows in EXPORTED_GRAPHS.items():
        with open(os.path.join(graph_dir, name), "rb") as fh:
            assert fh.read() == "".join(f"{row}\r\n" for row in rows).encode(), name


# --- expertise -------------------------------------------------------------


def test_expertise_tables(tiny_path, out_dir):
    assert main(["expertise", "--in", tiny_path, "--out", out_dir]) == 0
    table = _by_first(os.path.join(out_dir, "table4.csv"))
    assert table["Random"] == ["4", "5", f"{100 * 120 / 265:.6g}", "20"]
    assert table["ROS"] == ["3", "4", "62.5", "50"]
    assert table["Popular"] == ["3", "3", f"{100 * 300 / 455:.6g}", f"{100 / 3:.6g}"]
    curve = _rows(os.path.join(out_dir, "fig7_coverage.csv"))
    assert len(curve) == 1 + 4 + 3 + 3  # header plus one point per reviewer


# --- correlate -------------------------------------------------------------


def test_correlate_small_categories_note_not_crash(tiny_path, out_dir):
    assert main(["correlate", "--in", tiny_path, "--out", out_dir]) == 0
    rows = _rows(os.path.join(out_dir, "table2.csv"))
    assert rows[0] == ["category", "feature", "r", "p", "n", "note"]
    assert len(rows) == 1 + 3 * 12  # three categories, twelve features
    for row in rows[1:]:
        assert row[2] == "" and row[3] == "" and row[4] == "0"
        assert row[5]  # every row explains why it is empty


def test_correlate_ics_target_writes_table5(tiny_path, out_dir):
    assert main(["correlate", "--in", tiny_path, "--out", out_dir, "--target", "ics"]) == 0
    rows = _rows(os.path.join(out_dir, "table5.csv"))
    assert len(rows) == 1 + 3 * 4  # three categories, four features


# --- sentiment -------------------------------------------------------------


def test_sentiment_per_repo_means(tiny_path, out_dir):
    assert main(["sentiment", "--in", tiny_path, "--out", out_dir]) == 0
    table = _by_first(os.path.join(out_dir, "sentiment.csv"))
    assert table["labA/core"] == ["Random", "10", "0.09"]
    assert table["labB/rosbot"] == ["ROS", "11", "-0.0409091"]
    assert table["labC/webapp"] == ["Popular", "9", "-0.138889"]


# --- fetch -----------------------------------------------------------------


def test_fetch_subcommand_writes_archive(capsys, tmp_path):
    archive = tmp_path / "fetched.ndjson"
    with fixture_server() as (_, base_url):
        rc = main(
            [
                "fetch",
                "--repo", TOOLS,
                "--repo", WIDGETS,
                "--base-url", base_url,
                "--out-archive", str(archive),
                "--cache-dir", str(tmp_path / "cache"),
            ]
        )
    assert rc == 0
    assert "fetched 2 repositories" in capsys.readouterr().out
    corpus = load_archive(str(archive))
    assert [r.id for r in corpus.repos] == [TOOLS, WIDGETS]
    assert os.path.exists(tmp_path / "manifest.json")


def test_fetch_sample_is_seeded(tmp_path):
    kept = []
    for attempt in ("one", "two"):
        archive = tmp_path / f"{attempt}.ndjson"
        with fixture_server() as (_, base_url):
            rc = main(
                [
                    "fetch",
                    "--repo", TOOLS,
                    "--repo", WIDGETS,
                    "--base-url", base_url,
                    "--out-archive", str(archive),
                    "--sample", "1",
                    "--seed", "3",
                ]
            )
        assert rc == 0
        corpus = load_archive(str(archive))
        kept.append([r.id for r in corpus.repos])
    assert kept[0] == kept[1]
    assert len(kept[0]) == 1


def test_fetch_rejects_a_negative_sample_before_any_request(capsys, tmp_path):
    archive = tmp_path / "fetched.ndjson"
    with fixture_server() as (state, base_url):
        with pytest.raises(SystemExit) as err:
            main(["fetch", "--repo", TOOLS, "--base-url", base_url,
                  "--out-archive", str(archive), "--sample", "-1"])
    assert err.value.code == 2
    assert "argument --sample: must not be negative: '-1'" in capsys.readouterr().err
    assert state.requests == 0
    assert not archive.exists()


def _body(archive) -> list[str]:
    """An archive's lines after the meta header, which holds the snapshot time."""
    return archive.read_text(encoding="utf-8").splitlines()[1:]


def test_fetch_sample_fetches_only_the_kept_repositories(tmp_path):
    sampled, alone = tmp_path / "sampled.ndjson", tmp_path / "alone.ndjson"
    with fixture_server() as (state, base_url):
        assert main(["fetch", "--repo", TOOLS, "--repo", WIDGETS, "--base-url", base_url,
                     "--out-archive", str(sampled), "--sample", "1", "--seed", "3"]) == 0
        sampled_requests = state.requests
    [kept] = [r.id for r in load_archive(str(sampled)).repos]
    with fixture_server() as (state, base_url):
        assert main(["fetch", "--repo", kept, "--base-url", base_url, "--out-archive", str(alone)]) == 0
    assert sampled_requests == state.requests  # not one request for the dropped repository
    assert _body(sampled) == _body(alone)


@pytest.mark.parametrize(
    ("flag", "value", "rule"),
    [
        ("--workers", "0", "workers must be positive"),
        ("--page-size", "500", "page_size must be in 1..100, got 500"),
        ("--max-pages", "0", "max_pages must be positive"),
    ],
)
def test_fetch_option_rules_are_usage_errors_of_fetch(capsys, tmp_path, flag, value, rule):
    archive = tmp_path / "fetched.ndjson"
    with fixture_server() as (state, base_url):
        with pytest.raises(SystemExit) as err:
            main(["fetch", "--repo", TOOLS, "--base-url", base_url,
                  "--out-archive", str(archive), flag, value])
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ghreview fetch ")
    assert f"ghreview fetch: error: {rule}\n" in err
    assert state.requests == 0
    assert not archive.exists()


def test_every_fetchplan_option_is_a_flag_with_its_default():
    [sub] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {a.dest: a for a in sub.choices["fetch"]._actions}
    options = {f.name: f.default for f in fields(FetchPlan)}
    del options["targets"]  # --repo
    # each fetch flag but the command's own is a FetchPlan field, and each field a flag
    # with the field's default
    assert set(flags) - {"help", "repo", "out_archive", "sample", "seed"} <= set(options)
    assert {name: flags[name].default if name in flags else MISSING for name in options} == options


@pytest.mark.parametrize("targets", [[], ["--repo", "a/b", "--sample", "0"]])
def test_fetch_with_nothing_to_fetch_is_a_usage_error(capsys, tmp_path, targets):
    with socket.socket() as sock:  # a port nothing listens on once closed
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    archive = tmp_path / "fetched.ndjson"
    with pytest.raises(SystemExit) as err:
        main(["fetch", *targets, "--base-url", f"http://127.0.0.1:{port}", "--out-archive", str(archive)])
    assert err.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ghreview fetch ")
    assert "ghreview fetch: error: nothing to fetch" in err
    assert list(tmp_path.iterdir()) == []  # no archive, no manifest


def _fetch_args(base_url, archive, *extra) -> list[str]:
    os.makedirs(os.path.dirname(archive), exist_ok=True)
    return ["fetch", "--repo", TOOLS, "--repo", WIDGETS, "--base-url", base_url,
            "--out-archive", str(archive), *extra]


def _manifest(directory) -> dict:
    with open(os.path.join(directory, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_fetch_manifest_redacts_the_token(tmp_path):
    with fixture_server() as (_, base_url):
        assert main(_fetch_args(base_url, tmp_path / "a" / "out.ndjson",
                                "--token", "SECRET123")) == 0
        assert main(_fetch_args(base_url, tmp_path / "b" / "out.ndjson")) == 0
    assert "SECRET123" not in (tmp_path / "a" / "manifest.json").read_text(encoding="utf-8")
    assert _manifest(tmp_path / "a")["config"]["token"] == "<redacted>"
    assert _manifest(tmp_path / "b")["config"]["token"] is None


def test_fetch_manifest_counts_requests_and_revalidations(tmp_path):
    cache = str(tmp_path / "cache")
    with fixture_server() as (state, base_url):
        for attempt in ("cold", "warm"):
            before = (state.requests, state.not_modified)
            assert main(_fetch_args(base_url, tmp_path / attempt / "out.ndjson",
                                    "--cache-dir", cache)) == 0
            counters = _manifest(tmp_path / attempt)["counters"]
            assert counters == {
                "requests": state.requests - before[0],
                "not_modified": state.not_modified - before[1],
            }
    assert 0 < _manifest(tmp_path / "cold")["counters"]["not_modified"] < counters["requests"]
    assert counters["not_modified"] == counters["requests"]  # warm: all 304s


def test_fetch_into_missing_directory_fails_before_any_request(capsys, tmp_path):
    archive = tmp_path / "missing" / "out.ndjson"
    with fixture_server() as (state, base_url):
        rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url, "--out-archive", str(archive)])
        assert state.requests == 0
    assert rc == 1
    err = capsys.readouterr().err
    assert str(archive) in err
    assert ".tmp" not in err


@pytest.mark.parametrize(
    ("keys", "path"),
    [
        pytest.param(("payload", "created_at"), "", id="repo"),
        pytest.param(("issues", 0, "created_at"), "/issues?state=all&per_page=100", id="issue"),
        pytest.param(("comments", 1, 0, "created_at"), "/issues/1/comments?per_page=100", id="comment"),
        # commit 0 has no author, so it is dropped before its date is read
        pytest.param(("commits", 1, "commit", "author", "date"), "/commits?per_page=100", id="commit"),
    ],
)
def test_fetch_names_the_url_of_a_bad_timestamp(capsys, tmp_path, keys, path):
    dataset = build_dataset()
    payload = dataset["repos"][TOOLS]
    for key in keys[:-1]:
        payload = payload[key]
    payload[keys[-1]] = "garbage"
    with fixture_server(dataset) as (_, base_url):
        rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url,
                   "--out-archive", str(tmp_path / "out.ndjson")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{base_url}/repos/{TOOLS}{path}: bad timestamp 'garbage'" in err
    assert "line 0" not in err


@pytest.mark.parametrize(
    ("keys", "path", "field"),
    [
        pytest.param(("issues", 0, "created_at"), "/issues?state=all&per_page=100", "created_at", id="issue"),
        pytest.param(("comments", 1, 0, "user"), "/issues/1/comments?per_page=100", "user.login", id="comment"),
    ],
)
def test_fetch_names_the_url_of_a_missing_field(capsys, tmp_path, keys, path, field):
    dataset = build_dataset()
    payload = dataset["repos"][TOOLS]
    for key in keys[:-1]:
        payload = payload[key]
    del payload[keys[-1]]
    with fixture_server(dataset) as (_, base_url):
        rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url,
                   "--out-archive", str(tmp_path / "out.ndjson")])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"error: undecodable payload from {base_url}/repos/{TOOLS}{path}: missing field {field!r}" in err
    assert "Traceback" not in err


def _set(*path_and_value):
    """A dataset edit: set ``dataset[path...]`` to the last argument."""
    *path, key, value = path_and_value

    def edit(dataset):
        for step in path:
            dataset = dataset[step]
        dataset[key] = value

    return edit


_ISSUES = f"/repos/{TOOLS}/issues?state=all&per_page=100"
_COMMENTS = f"/repos/{TOOLS}/issues/1/comments?per_page=100"
_COMMITS = f"/repos/{TOOLS}/commits?per_page=100"


# Each row is a payload the archive would not load; issue #1 of TOOLS opens at 05:00 and has
# one comment, issue #2 opens at 10:00 and is closed at 11:00, and commit 1 has an author.
@pytest.mark.parametrize(
    ("edit", "path", "reason"),
    [
        pytest.param(_set("repos", TOOLS, "payload", "created_at", "2020-01-01T06:00:00Z"), _ISSUES,
                     f"{TOOLS}#1: issue precedes repository created_at", id="repo-created-after-issue"),
        pytest.param(_set("repos", TOOLS, "payload", "stargazers_count", -3), f"/repos/{TOOLS}",
                     f"{TOOLS}: stargazers must be >= 0", id="negative-stargazers"),
        pytest.param(_set("repos", TOOLS, "comments", 1, 0, "created_at", "2020-01-01T04:00:00Z"), _COMMENTS,
                     f"{TOOLS}#1: comment precedes issue created_at", id="comment-before-issue"),
        pytest.param(_set("repos", TOOLS, "issues", 1, "closed_at", "2020-01-01T09:00:00Z"), _ISSUES,
                     f"{TOOLS}#2: closed_at must be >= created_at", id="closed-before-created"),
        pytest.param(_set("repos", TOOLS, "commits", 1, "stats", "additions", -5), _COMMITS,
                     f"{TOOLS}: line counts must be >= 0", id="negative-additions"),
        pytest.param(_set("repos", TOOLS, "comments", 1, 0, "body", 12), _COMMENTS,
                     "field 'body' must be a string", id="numeric-comment-body"),
        pytest.param(lambda dataset: dataset["repos"][TOOLS]["issues"][1].pop("closed_by"), _ISSUES,
                     f"{TOOLS}#2: closer present iff closed_at present", id="closed-without-closer"),
        pytest.param(_set("repos", TOOLS, "commits", 1, "abc"), _COMMITS,
                     "expected a JSON array of objects", id="commit-not-an-object"),
        pytest.param(_set("repos", TOOLS, "contributors", 0, 5), f"/repos/{TOOLS}/contributors?per_page=100",
                     "expected a JSON array of objects", id="contributor-not-an-object"),
        pytest.param(_set("repos", TOOLS, "commits", 1, "stats", "additions", "many"), _COMMITS,
                     "field 'lines_added' must be an integer", id="non-numeric-additions"),
        pytest.param(_set("users", "amir", "many"), "/users/amir",
                     "field 'followers' must be an integer", id="non-numeric-followers"),
    ],
)
def test_fetch_stops_on_a_payload_the_archive_rejects(capsys, tmp_path, edit, path, reason):
    dataset = build_dataset()
    edit(dataset)
    archive = tmp_path / "out.ndjson"
    with fixture_server(dataset) as (_, base_url):
        rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url, "--out-archive", str(archive)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: undecodable payload from {base_url}{path}: {reason}\n" in err
    assert "Traceback" not in err
    assert not archive.exists()


def test_fetch_reports_a_broken_link_rule_after_the_last_target(capsys, tmp_path):
    cache = tmp_path / "cache"
    with fixture_server() as (state, base_url):
        assert main(_fetch_args(base_url, tmp_path / "clean" / "out.ndjson")) == 0
        clean_requests = state.requests
    dataset = build_dataset()
    dataset["repos"][TOOLS]["issues"][1].pop("closed_by")  # breaks a rule that linking checks
    archive = tmp_path / "out.ndjson"
    with fixture_server(dataset) as (state, base_url):
        rc = main(_fetch_args(base_url, archive, "--cache-dir", str(cache)))  # TOOLS first
    err = capsys.readouterr().err
    assert rc == 1
    assert (f"error: undecodable payload from {base_url}{_ISSUES}: "
            f"{TOOLS}#2: closer present iff closed_at present\n") in err
    assert state.requests == clean_requests  # found once every target was read
    assert not archive.exists()
    assert (cache / "etag_cache.json").exists()


def test_fetch_output_does_not_depend_on_the_worker_count(tmp_path):
    archive, cache = tmp_path / "out.ndjson", tmp_path / "cache"
    outputs = []
    with fixture_server() as (_, base_url):
        for workers in ("1", "8"):
            shutil.rmtree(cache, ignore_errors=True)
            assert main(_fetch_args(base_url, archive, "--cache-dir", str(cache), "--workers", workers)) == 0
            manifest = _manifest(tmp_path)
            del manifest["generated_at"], manifest["config"]["workers"]
            outputs.append((_body(archive), (cache / "etag_cache.json").read_bytes(), manifest))
    assert outputs[0] == outputs[1]


# Issue #1 of TOOLS has one comment, so its number goes into a comments URL; the fixture
# server answers 404 for a path whose number is not a run of digits.
@pytest.mark.parametrize(
    ("number", "error"),
    [
        pytest.param("1/x", "undecodable payload from {base}" + _ISSUES + ": field 'number' must be an integer, got '1/x'",
                     id="number-not-an-int"),
        pytest.param(True, "undecodable payload from {base}" + _ISSUES + ": field 'number' must be an integer, got True",
                     id="number-a-bool"),
        pytest.param(-1, "HTTP 404 from {base}/repos/" + TOOLS + "/issues/-1/comments?per_page=100",
                     id="comments-page-404"),
    ],
)
def test_fetch_reports_a_bad_issue_number_or_missing_page(capsys, tmp_path, number, error):
    dataset = build_dataset()
    dataset["repos"][TOOLS]["issues"][0]["number"] = number
    archive = tmp_path / "out.ndjson"
    with fixture_server(dataset) as (_, base_url):
        rc = main(["fetch", "--repo", TOOLS, "--base-url", base_url, "--out-archive", str(archive)])
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {error.format(base=base_url)}\n" in err
    assert "Traceback" not in err
    assert not archive.exists()


def test_failed_manifest_write_keeps_the_previous_manifest(tmp_path, monkeypatch):
    archive = tmp_path / "out.ndjson"
    with fixture_server() as (_, base_url):
        assert main(_fetch_args(base_url, archive)) == 0
        previous = (tmp_path / "manifest.json").read_bytes()

        def failing_dump(obj, fh, **kwargs):
            fh.write('{"tool": ')
            raise OSError("disk full")

        monkeypatch.setattr(json, "dump", failing_dump)
        assert main(_fetch_args(base_url, archive)) == 1
    assert (tmp_path / "manifest.json").read_bytes() == previous
    assert list(tmp_path.glob(".manifest.json.*.tmp")) == []


@pytest.mark.parametrize(
    "content",
    [
        pytest.param('{"k": {"etag', id="truncated"),
        pytest.param("[]", id="not-an-object"),
        pytest.param('{"k": []}', id="entry-not-an-object"),
        pytest.param('{"k": {"body": [], "next": null}}', id="no-etag"),
        pytest.param('{"k": {"etag": 7, "body": [], "next": null}}', id="etag-not-a-string"),
        pytest.param('{"k": {"etag": "e", "next": null}}', id="no-body"),
        pytest.param('{"k": {"etag": "e", "body": []}}', id="no-next"),
        pytest.param('{"k": {"etag": "e", "body": [], "next": 3}}', id="next-not-a-url"),
        pytest.param(b'{"k": "\xff"}', id="not-utf8"),
    ],
)
def test_fetch_rejects_malformed_cache_naming_it(capsys, tmp_path, content):
    cache = tmp_path / "cache"
    cache.mkdir()
    path = cache / "etag_cache.json"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    # the cache is read before any request, so the base URL is never contacted
    rc = main(_fetch_args("http://127.0.0.1:9", tmp_path / "out.ndjson", "--cache-dir", str(cache)))
    assert rc == 1
    err = capsys.readouterr().err
    assert str(path) in err
    assert "Traceback" not in err


# --- report ----------------------------------------------------------------


def _run_report(tiny_path, out, *extra) -> int:
    return main(["report", "--in", tiny_path, "--out", str(out), *extra])


def test_report_writes_complete_directory(capsys, tiny_path, tmp_path):
    out = tmp_path / "report"
    assert _run_report(tiny_path, out) == 0
    assert "report written" in capsys.readouterr().out
    present = sorted(os.listdir(out))
    assert present == sorted(REPORT_FILES + ("manifest.json", "report.json"))
    with open(out / "report.json", encoding="utf-8") as fh:
        combined = json.load(fh)
    assert combined["seed"] == 0
    assert combined["alpha_hours"] == 6.0
    assert combined["acceptance_probabilities"] == [0.3, 0.6, 0.9]
    assert combined["categories"]["Random"]["summary"]["n_repos"] == 1


def test_report_refuses_to_clobber(capsys, tiny_path, tmp_path):
    out = tmp_path / "report"
    out.mkdir()
    marker = out / "precious.txt"
    marker.write_text("keep me\n")
    assert _run_report(tiny_path, out) == 1
    assert "exists" in capsys.readouterr().err
    assert marker.read_text() == "keep me\n"
    assert _run_report(tiny_path, out, "--force") == 0
    assert not marker.exists()
    assert (out / "table1.csv").exists()


def test_report_leaves_no_partials(tiny_path, tmp_path):
    out = tmp_path / "report"
    assert _run_report(tiny_path, out) == 0
    assert [p for p in os.listdir(tmp_path) if p.startswith(".report-")] == []


def test_report_runs_are_byte_identical(tiny_path, tmp_path):
    first = tmp_path / "first"
    second = tmp_path / "second"
    assert _run_report(tiny_path, first) == 0
    assert _run_report(tiny_path, second) == 0
    for name in REPORT_FILES + ("report.json",):
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    with open(first / "manifest.json", encoding="utf-8") as fh:
        m1 = json.load(fh)
    with open(second / "manifest.json", encoding="utf-8") as fh:
        m2 = json.load(fh)
    m1.pop("generated_at")
    m2.pop("generated_at")
    m1["config"].pop("out")
    m2["config"].pop("out")
    assert m1 == m2


def test_report_does_not_depend_on_the_hash_seed(tmp_path):
    archive, out = tmp_path / "corpus.ndjson", tmp_path / "report"
    save_archive(random_corpus(1), archive)
    outputs = []
    for hash_seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "ghreview.cli", "report", "--in", str(archive), "--out", str(out), "--force"],
            env=dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        files = {name: (out / name).read_bytes() for name in REPORT_FILES + ("report.json",)}
        manifest = _manifest(out)
        del manifest["generated_at"]
        outputs.append((files, manifest))
    assert outputs[0] == outputs[1]


def test_report_matches_committed_golden(tiny_path, tmp_path):
    out = tmp_path / "report"
    assert _run_report(tiny_path, out) == 0
    for name in REPORT_FILES + ("report.json",):
        got = (out / name).read_bytes()
        want = (GOLDEN / "report" / name).read_bytes()
        assert got == want, f"{name} diverged from the committed reference output"


def test_report_manifest_counters(tiny_path, tmp_path):
    assert _run_report(tiny_path, tmp_path / "default") == 0
    # only labA/core opens 5 issues inside the assessment period (B opens 4, C 3)
    assert _run_report(tiny_path, tmp_path / "strict", "--min-iap-issues", "5", "--ap", "0.5") == 0
    per_category = {"Random": 1, "ROS": 1, "Popular": 1}
    assert _manifest(tmp_path / "default")["counters"] == {
        "repos": per_category,
        "ics_undefined": {"Random": 0, "ROS": 0, "Popular": 0},  # scores 1.5, 2/3, 1.5
        "sim_excluded": {"0.3": 0, "0.6": 0, "0.9": 0},
    }
    assert _manifest(tmp_path / "strict")["counters"]["sim_excluded"] == {"0.5": 2}


@pytest.mark.parametrize("source", ["tiny", "synthetic"])
def test_report_computes_each_repository_quantity_once(tmp_path, monkeypatch, source):
    if source == "tiny":
        archive = str(TINY)
    else:  # four repos per category, so every correlation table is computed
        archive = str(tmp_path / "synthetic.ndjson")
        save_archive(random_corpus(5, n_repos=12), archive)
    postings: list[str] = []
    graphs: list[str] = []
    reference_calls = []

    def counted_postings(issues):
        issues = list(issues)
        postings.append(issues[0].repo_id)
        return reviewer_postings(issues)

    real_build_graph = community.build_graph
    real_reference_time = analytics.corpus_reference_time

    def counted_build_graph(repo, *args):
        graphs.append(repo.id)
        return real_build_graph(repo, *args)

    def counted_reference_time(corpus):
        reference_calls.append(1)
        return real_reference_time(corpus)

    for module in (analytics, community):
        monkeypatch.setattr(module, "reviewer_postings", counted_postings)
        monkeypatch.setattr(module, "build_graph", counted_build_graph)
    monkeypatch.setattr(analytics, "corpus_reference_time", counted_reference_time)
    assert _run_report(archive, tmp_path / "report") == 0
    repo_ids = sorted(r.id for r in load_archive(archive).repos)
    assert sorted(postings) == repo_ids
    assert sorted(graphs) == repo_ids
    # single-repo categories stop before any correlation reads the reference time
    assert len(reference_calls) == (0 if source == "tiny" else 1)


def _collector_state() -> tuple[int, bool]:
    return gc.get_freeze_count(), gc.isenabled()


def test_report_runs_with_the_corpus_frozen(tiny_path, tmp_path, monkeypatch):
    seen = []
    real = analytics.popularity_vs_comments

    def watched(corpus):
        seen.append(_collector_state())
        return real(corpus)

    monkeypatch.setattr(analytics, "popularity_vs_comments", watched)
    before = _collector_state()
    assert before[0] == 0
    assert _run_report(tiny_path, tmp_path / "report") == 0
    assert len(seen) == 1 and seen[0][0] > 0 and seen[0][1] == before[1]
    assert _collector_state() == before


@pytest.mark.parametrize(
    "failure",
    [
        pytest.param(None, id="bad-archive"),
        pytest.param(ArchiveError(7, "broken"), id="archive-error-after-load"),
        pytest.param(RuntimeError("stage bug"), id="uncaught-error-after-load"),
    ],
)
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_failed_command_restores_the_collector(tiny_path, tmp_path, monkeypatch, failure, enabled):
    archive = tiny_path
    if failure is None:
        archive = str(tmp_path / "bad.ndjson")
        (tmp_path / "bad.ndjson").write_text(open(tiny_path).read() + '{"kind":"widget"}\n')
    else:
        def failing(corpus):
            assert gc.get_freeze_count() > 0
            raise failure

        monkeypatch.setattr(analytics, "popularity_vs_comments", failing)
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        before = _collector_state()
        if isinstance(failure, RuntimeError):
            with pytest.raises(RuntimeError):
                _run_report(archive, tmp_path / "report")
        else:
            assert _run_report(archive, tmp_path / "report") == 1
        assert _collector_state() == before
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_callers_freeze_outlives_main(tiny_path, tmp_path):
    gc.freeze()
    try:
        assert gc.get_freeze_count() > 0
        assert _run_report(tiny_path, tmp_path / "report") == 0
        assert gc.get_freeze_count() > 0  # main thaws only a freeze of its own
    finally:
        gc.unfreeze()


def test_report_structured_format_writes_json_tables(tiny_path, tmp_path):
    out = tmp_path / "report"
    assert _run_report(tiny_path, out, "--format", "structured") == 0
    tables = [name.replace(".csv", ".json") for name in REPORT_FILES]
    assert sorted(os.listdir(out)) == sorted(tables + ["manifest.json", "report.json"])
    assert (out / "report.json").read_bytes() == (GOLDEN / "report" / "report.json").read_bytes()
    # the same Table 1 as `summary --format structured`
    assert (out / "table1.json").read_bytes() == (GOLDEN / "summary_structured" / "table1.json").read_bytes()
    with open(out / "fig8_popularity.json", encoding="utf-8") as fh:
        repo_ids = [row["repo_id"] for row in json.load(fh)]
    assert repo_ids == [row[0] for row in _rows(GOLDEN / "report" / "fig8_popularity.csv")[1:]]


# --- output directory ------------------------------------------------------


# Each committed golden directory and the arguments that reproduce it on the tiny fixture.
STAGE_GOLDENS = {
    "summary": ["summary"],
    "summary_structured": ["summary", "--format", "structured"],
    "classify": ["classify"],
    "simulate": ["simulate"],
    "community": ["community"],
    "expertise": ["expertise"],
    "correlate": ["correlate"],
    "sentiment": ["sentiment"],
}


@pytest.mark.parametrize("golden", sorted(STAGE_GOLDENS))
def test_stage_command_matches_committed_golden(tiny_path, tmp_path, golden):
    command, *extra = STAGE_GOLDENS[golden]
    out = tmp_path / golden
    assert main([command, "--in", tiny_path, "--out", str(out), *extra]) == 0
    want = sorted(os.listdir(GOLDEN / golden))
    assert sorted(os.listdir(out)) == sorted(want + ["manifest.json"])
    for name in want:
        got = (out / name).read_bytes()
        assert got == (GOLDEN / golden / name).read_bytes(), f"{name} diverged from the committed reference output"


@pytest.mark.parametrize("command", ["report", "summary"])
def test_out_directory_takes_the_umask_mode(tiny_path, tmp_path, command):
    old = os.umask(0o022)
    try:
        assert main([command, "--in", tiny_path, "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(old)
    assert (tmp_path / "out").stat().st_mode & 0o777 == 0o755


def _contents(directory) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in Path(directory).iterdir()}


def test_failed_forced_run_keeps_the_previous_out(tiny_path, tmp_path, monkeypatch):
    out = tmp_path / "report"
    assert _run_report(tiny_path, out) == 0
    before = _contents(out)

    def failing(corpus):
        raise OSError("disk full")

    monkeypatch.setattr(analytics, "popularity_vs_comments", failing)
    assert _run_report(tiny_path, out, "--force") == 1
    assert _contents(out) == before
    assert os.listdir(tmp_path) == ["report"]


@pytest.mark.parametrize("command", ["report", "summary"])
def test_forced_run_into_the_working_directory_deletes_nothing(tiny_path, tmp_path, monkeypatch, command):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    (cwd / "keep.txt").write_text("keep me\n")
    monkeypatch.chdir(cwd)
    assert main([command, "--in", tiny_path, "--out", ".", "--force"]) == 1
    assert os.listdir(cwd) == ["keep.txt"]
    assert os.listdir(tmp_path) == ["cwd"]


def test_forced_run_replaces_only_a_directory(tiny_path, tmp_path):
    (tmp_path / "real").mkdir()
    (tmp_path / "link").symlink_to("real")
    (tmp_path / "file").write_text("keep me\n")
    for name in ("file", "link"):
        assert _run_report(tiny_path, tmp_path / name, "--force") == 1
    assert sorted(os.listdir(tmp_path)) == ["file", "link", "real"]
    assert (tmp_path / "file").read_text() == "keep me\n"
    assert os.readlink(tmp_path / "link") == "real" and os.listdir(tmp_path / "real") == []


def test_second_command_into_one_out_is_refused_unless_forced(capsys, tiny_path, tmp_path):
    out = tmp_path / "out"
    assert main(["simulate", "--in", tiny_path, "--out", str(out)]) == 0
    first = _contents(out)
    assert main(["summary", "--in", tiny_path, "--out", str(out)]) == 1
    assert "exists" in capsys.readouterr().err
    assert _contents(out) == first
    assert main(["summary", "--in", tiny_path, "--out", str(out), "--force"]) == 0
    assert sorted(os.listdir(out)) == ["manifest.json", "table1.csv"]
    assert _manifest(out)["subcommand"] == "summary"
    assert os.listdir(tmp_path) == ["out"]


def test_stage_failure_after_the_load_leaves_no_out(capsys, tiny_path, tmp_path, monkeypatch):
    def failing(repo):
        raise OSError("disk full")

    monkeypatch.setattr(sentiment, "repo_sentiment", failing)
    assert main(["sentiment", "--in", tiny_path, "--out", str(tmp_path / "out")]) == 1
    assert "disk full" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_exported_graphs_arrive_with_the_tables(tiny_path, tmp_path, monkeypatch):
    out = tmp_path / "out"
    real = community.export_graph
    seen = []

    def watched(graph, directory):
        seen.append(out.exists())
        return real(graph, directory)

    monkeypatch.setattr(community, "export_graph", watched)
    assert main(["community", "--in", tiny_path, "--out", str(out), "--export-graphs"]) == 0
    assert seen == [False] * 3
    assert sorted(os.listdir(out)) == ["community.csv", "graphs", "manifest.json"]
    assert sorted(os.listdir(out / "graphs")) == sorted(EXPORTED_GRAPHS)

    calls = []

    def failing_second(graph, directory):
        calls.append(graph)
        if len(calls) == 2:
            raise OSError("disk full")
        return real(graph, directory)

    monkeypatch.setattr(community, "export_graph", failing_second)
    retry = tmp_path / "retry"
    assert main(["community", "--in", tiny_path, "--out", str(retry), "--export-graphs"]) == 1
    assert os.listdir(tmp_path) == ["out"]


# --- console entry point ---------------------------------------------------


ROOT = Path(__file__).resolve().parents[1]


def test_installed_script_round_trip(tmp_path):
    # Install this checkout as an installer would, offline and without the
    # `wheel` package: build an sdist with the project's own backend, unpack
    # it, and write the launcher for the console script its metadata declares.
    # The build runs on a copy, so the checkout gains no egg-info or build/.
    pytest.importorskip("setuptools.build_meta")
    project = tmp_path / "project"
    shutil.copytree(
        ROOT / "src",
        project / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(ROOT / name, project)
    build = subprocess.run(
        [sys.executable, "-c", "import setuptools.build_meta as b; b.build_sdist('dist')"],
        cwd=project,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert build.returncode == 0, f"sdist build failed:\n{build.stderr}"
    (sdist,) = (project / "dist").glob("*.tar.gz")
    with tarfile.open(sdist) as tar:
        # the "data" filter exists from Python 3.10.12 and 3.11.4 on
        tar.extraction_filter = getattr(tarfile, "data_filter", None)
        tar.extractall(tmp_path / "unpacked")
    (tree,) = (tmp_path / "unpacked").iterdir()
    site = tree / "src"

    scripts = [
        ep
        for dist in importlib.metadata.distributions(path=[str(site)])
        for ep in dist.entry_points.select(group="console_scripts", name="ghreview")
    ]
    assert len(scripts) == 1, f"expected one `ghreview` console script, found {scripts}"
    (script,) = scripts
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    launcher = bin_dir / "ghreview"
    launcher.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {script.module} import {script.attr}\n"
        f"sys.exit({script.attr}())\n",
        encoding="utf-8",
    )
    launcher.chmod(0o755)
    search_path = os.pathsep.join([str(bin_dir), os.environ.get("PATH", "")])
    exe = shutil.which("ghreview", path=search_path)
    assert exe == str(launcher), f"PATH resolves ghreview to {exe}, not the built launcher"

    # PYTHONPATH holds the unpacked sdist only: the checkout's src/ must not leak in
    env = dict(os.environ, PATH=search_path, PYTHONPATH=str(site))
    out = tmp_path / "report"
    proc = subprocess.run(
        [exe, "report", "--in", str(TINY), "--out", str(out)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    for name in REPORT_FILES:
        assert (out / name).exists(), f"report did not write {name}"


SRC = str(Path(importlib.util.find_spec("ghreview").origin).parents[1])

# The ghreview modules whose body has run.  The CLI enters its stage modules
# in sys.modules through importlib's LazyLoader, whose proxy stays a
# ModuleType subclass until the module's first attribute read.
_RAN = ("sorted(n for n, m in sys.modules.items() "
        "if n.startswith('ghreview') and type(m) is types.ModuleType)")


def test_cli_import_leaves_requests_unloaded():
    # only GitHubClient needs an HTTP stack; report, simulate and validate skip its import time
    code = (
        "import sys, types, ghreview.cli as cli; cli.build_parser(); "
        "print(any(m in sys.modules for m in ('requests', 'http.client', 'ssl'))); "
        f"print(*{_RAN})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    requests_loaded, ghreview_modules = proc.stdout.splitlines()
    assert requests_loaded == "False"
    # the parser needs the categories and the duration units, no stage
    assert ghreview_modules.split() == ["ghreview", "ghreview.cli", "ghreview.models", "ghreview.units"]


def test_cli_import_registers_every_stage_module_unrun():
    # a tool wrapping functions in every ghreview module of sys.modules right
    # after importing the CLI (perfbench/tracer.py) reaches every stage
    code = (
        "import sys, types, ghreview.cli; "
        "print(*sorted(n for n in sys.modules if n.startswith('ghreview'))); "
        f"print(*{_RAN})"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    registered, ran = (set(line.split()) for line in proc.stdout.splitlines())
    stages = {f"ghreview.{name}" for name in ("analytics", "archive", "community", "fetcher",
                                                "sentiment", "simulator", "temporal")}
    assert stages <= registered
    assert not stages & ran


# Runs one command in a fresh interpreter; the last stdout line lists the
# ghreview submodules that ran by the time it returned.
_RUN_AND_LIST = f"""
import sys, types
from ghreview.cli import main
try:
    rc = main(sys.argv[1:])
except SystemExit as exc:
    rc = exc.code
print(*(name.split(".", 1)[1] for name in {_RAN} if "." in name))
sys.exit(rc)
"""


def _modules_loaded_by(argv: list[str]) -> tuple[int, set[str]]:
    proc = subprocess.run(
        [sys.executable, "-c", _RUN_AND_LIST, *argv],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=60,
    )
    return proc.returncode, set(proc.stdout.splitlines()[-1].split())


def test_validate_loads_no_fetch_or_analysis_module():
    rc, loaded = _modules_loaded_by(["validate", "--in", str(TINY)])
    assert rc == 0
    assert "archive" in loaded
    assert not loaded & {"fetcher", "simulator", "analytics", "community", "sentiment", "temporal"}


def test_fetch_loads_no_analysis_module(tmp_path):
    with fixture_server() as (_, base_url):
        rc, loaded = _modules_loaded_by(["fetch", "--repo", TOOLS, "--base-url", base_url,
                                         "--out-archive", str(tmp_path / "fetched.ndjson")])
    assert rc == 0
    assert {"archive", "fetcher"} <= loaded
    assert not loaded & {"simulator", "analytics", "community", "sentiment", "temporal"}


@pytest.mark.parametrize("command", ["classify", "simulate", "report"])
def test_alpha_usage_error_loads_no_stage(tmp_path, command):
    rc, loaded = _modules_loaded_by([command, "--in", str(TINY), "--out", str(tmp_path / "out"),
                                     "--alpha", "0h"])
    assert rc == 2
    assert loaded == {"cli", "models", "units"}


@pytest.mark.parametrize("command", ["simulate", "report"])
@pytest.mark.parametrize(
    "flags",
    [
        ["--ap", "1.5"],
        ["--ap", "0.3", "nan"],
        ["--ap", "1e400"],
        ["--iap", "0"],
        ["--horizon", "1d"],  # not above the default 6mo --iap
        ["--iap", "2y", "--horizon", "2y"],
        ["--horizon", "9" * 400],  # overflows to an infinite duration
        ["--min-iap-issues", "1"],
    ],
)
def test_simulation_flag_usage_error_loads_no_stage(tmp_path, command, flags):
    out = tmp_path / "out"
    rc, loaded = _modules_loaded_by([command, "--in", str(TINY), "--out", str(out), *flags])
    assert rc == 2
    assert loaded == {"cli", "models", "units"}
    assert not out.exists()


@pytest.mark.parametrize("flags", [["--workers", "0"], ["--page-size", "500"], ["--max-pages", "0"]])
def test_fetch_flag_usage_error_loads_no_stage(tmp_path, flags):
    archive = tmp_path / "fetched.ndjson"
    rc, loaded = _modules_loaded_by(["fetch", "--repo", TOOLS, "--base-url", "http://127.0.0.1:9",
                                     "--out-archive", str(archive), *flags])
    assert rc == 2
    assert loaded == {"cli", "models", "units"}
    assert not archive.exists()


@pytest.mark.parametrize("command", ["report", "simulate"])
def test_refused_out_loads_no_stage(tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    rc, loaded = _modules_loaded_by([command, "--in", str(TINY), "--out", str(out)])
    assert rc == 1
    assert loaded == {"cli", "models", "units"}
    assert os.listdir(out) == []


def test_module_invocation_matches_script(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ghreview.cli", "validate", "--in", str(TINY)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert "OK" in proc.stdout
