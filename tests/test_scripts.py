"""The experiment scripts stay runnable end to end."""

from __future__ import annotations

import csv
import subprocess
import sys
from pathlib import Path

from ghreview.archive import load_archive

SCRIPTS = Path(__file__).parent.parent / "scripts"


def _run(script: str, *argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS / script), *argv],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_corpus_generator_writes_identical_archives_per_seed(tmp_path):
    first = tmp_path / "one.ndjson"
    second = tmp_path / "two.ndjson"
    for out in (first, second):
        proc = _run(
            "make_synthetic_corpus.py", "--out", str(out), "--n-repos", "6", "--seed", "1"
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 6 repositories" in proc.stdout
    assert first.read_bytes() == second.read_bytes()
    corpus = load_archive(str(first))
    assert len(corpus.repos) == 6
    assert not corpus.rejected


def test_corpus_generator_lognormal_kind_round_trips(tmp_path):
    out = tmp_path / "ln.ndjson"
    proc = _run(
        "make_synthetic_corpus.py",
        "--out", str(out),
        "--kind", "lognormal",
        "--n-repos", "3",
        "--median-gap", "5d",
        "--seed", "2",
    )
    assert proc.returncode == 0, proc.stderr
    corpus = load_archive(str(out))
    assert len(corpus.repos) == 3
    assert {r.category.value for r in corpus.repos} == {"Random", "ROS", "Popular"}


def test_sweep_prints_table_and_paired_trend(tmp_path):
    csv_out = tmp_path / "sweep.csv"
    proc = _run(
        "run_injection_sweep.py",
        "--n-repos", "4",
        "--ap", "0.2", "0.8",
        "--seed", "5",
        "--out", str(csv_out),
    )
    assert proc.returncode == 0, proc.stderr
    assert "non-decreasing 0.2 -> 0.8" in proc.stdout
    with open(csv_out, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "category"
    assert len(rows) == 3  # one category, two probabilities


def test_sweep_rejects_a_non_positive_alpha():
    proc = _run("run_injection_sweep.py", "--n-repos", "1", "--alpha", "0")
    assert proc.returncode == 2
    assert "duration must be positive" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_sweep_rejects_an_acceptance_probability_outside_zero_to_one():
    proc = _run("run_injection_sweep.py", "--n-repos", "1", "--ap", "0.3", "1.5")
    assert proc.returncode == 2
    assert "probability must lie in [0, 1]" in proc.stderr
    assert "Traceback" not in proc.stderr
