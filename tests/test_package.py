"""The package namespace: every public name, resolved on first access."""

from __future__ import annotations

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ghreview

# the names each submodule exports through the package
PUBLIC = {
    "models": ["CATEGORY_ORDER", "Category", "Comment", "Commit", "Corpus", "Issue",
               "Repository", "User", "validate"],
    "archive": ["ArchiveError", "ArchiveIntegrityError", "ArchiveInvariantError",
                "ArchiveParseError", "load_archive", "save_archive"],
    "units": ["ALPHA_DEFAULT"],
    "temporal": ["Distribution", "GapSeries", "InsufficientDataError", "Label",
                 "classify_gaps", "idm", "issue_gaps"],
    "simulator": ["SimConfig", "SimResult", "simulate", "simulate_corpus"],
    "community": ["IssueCommunityGraph", "ICSReport", "build_graph", "ics"],
    "analytics": ["CorrelationReport", "CoverageReport", "EmptySelectionError",
                  "DegenerateSeriesError", "PearsonResult", "RepoSummary",
                  "correlate_features", "expertise_coverage", "pearson",
                  "popularity_vs_comments", "repo_summary"],
    "sentiment": ["SentimentLexicon", "default_lexicon", "repo_sentiment", "score_comment"],
    "fetcher": ["FetchPlan", "fetch_corpus", "fetch_repository", "search_by_topic"],
}


def test_every_public_name_is_its_modules_object():
    assert sorted(ghreview.__all__) == sorted(["__version__", *(n for names in PUBLIC.values() for n in names)])
    for module_name, names in PUBLIC.items():
        module = importlib.import_module(f"ghreview.{module_name}")
        for name in names:
            assert getattr(ghreview, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(ghreview.__all__) <= set(dir(ghreview))


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from ghreview import *", namespace)
    for name in ghreview.__all__:
        assert namespace[name] is getattr(ghreview, name), name


@pytest.mark.parametrize("name", ["no_such_name", "regular_fraction_timeline"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=name):
        getattr(ghreview, name)


def test_submodule_resolves_as_a_package_attribute():
    # a fresh interpreter, so no earlier import has bound the submodule
    code = "import ghreview; print(ghreview.temporal.__name__, ghreview.units.ALPHA_DEFAULT)"
    src = str(Path(importlib.util.find_spec("ghreview").origin).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ghreview.temporal", str(ghreview.ALPHA_DEFAULT)]
