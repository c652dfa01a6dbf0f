"""Repository-event analytics: archives, gap regularity, notification
simulation, issue community graphs, reviewer expertise, and sentiment.

Public names resolve on first access: ``import ghreview`` loads no
submodule, and ``ghreview.simulate`` imports ``ghreview.simulator`` only
when it is first read.  A submodule in the table below resolves the same
way: ``ghreview.temporal`` imports ``ghreview.temporal``.
"""

from importlib import import_module

__version__ = "0.1.0"

# submodule -> the public names it defines
_EXPORTS = {
    "models": ("CATEGORY_ORDER", "Category", "Comment", "Commit", "Corpus", "Issue",
               "Repository", "User", "validate"),
    "archive": ("ArchiveError", "ArchiveIntegrityError", "ArchiveInvariantError",
                "ArchiveParseError", "load_archive", "save_archive"),
    "units": ("ALPHA_DEFAULT",),
    "temporal": ("Distribution", "GapSeries", "InsufficientDataError", "Label",
                 "classify_gaps", "idm", "issue_gaps"),
    "simulator": ("SimConfig", "SimResult", "simulate", "simulate_corpus"),
    "community": ("IssueCommunityGraph", "ICSReport", "build_graph", "ics"),
    "analytics": ("CorrelationReport", "CoverageReport", "EmptySelectionError",
                  "DegenerateSeriesError", "PearsonResult", "RepoSummary",
                  "correlate_features", "expertise_coverage", "pearson",
                  "popularity_vs_comments", "repo_summary"),
    "sentiment": ("SentimentLexicon", "default_lexicon", "repo_sentiment", "score_comment"),
    "fetcher": ("FetchPlan", "fetch_corpus", "fetch_repository", "search_by_topic"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
