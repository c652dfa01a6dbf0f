"""BENCHMARK.json names exactly the workloads and metrics run.py produces."""

from __future__ import annotations

import json
import os

import run
from conftest import ROOT


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        definition = json.load(fh)
    assert {w["name"] for w in definition["workloads"]} == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in definition["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in definition["per_layer"]} == run.PER_LAYER
    setup = next(m for m in definition["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in definition["end_to_end"])
