"""Lexicon-based polarity scoring of issue comments, in [-1, 1].

The scorer is intentionally self-contained: a bundled, versioned lexicon
plus three rules (polarity lookup, intensifier on the preceding token,
negation within the three preceding tokens).  A comment's score is the
mean of its hit contributions, clamped to [-1, 1]; text with no hits
scores exactly 0.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache
from importlib import resources
from pathlib import Path

from .models import Repository

NEGATION_WINDOW = 3

_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass
class SentimentLexicon:
    entries: dict[str, float] = field(default_factory=dict)
    negators: set[str] = field(default_factory=set)
    intensifiers: dict[str, float] = field(default_factory=dict)
    version: str = ""

    def __post_init__(self):
        for token, polarity in self.entries.items():
            if not -1.0 <= polarity <= 1.0:
                raise ValueError(f"polarity out of range for {token!r}: {polarity}")
        for token, mult in self.intensifiers.items():
            if not 0.0 < mult <= 4.0:
                raise ValueError(f"intensifier multiplier out of range for {token!r}: {mult}")


def parse_lexicon(text: str) -> SentimentLexicon:
    """Parse the tab-separated lexicon format.

    ``token<TAB>polarity`` defines an entry, ``!token`` a negator and
    ``*token<TAB>multiplier`` an intensifier.  Blank lines and ``#``
    comments are ignored; the first comment line is kept as the version tag.
    """
    entries: dict[str, float] = {}
    negators: set[str] = set()
    intensifiers: dict[str, float] = {}
    version = ""
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            if not version:
                version = line.lstrip("# ").strip()
            continue
        if line.startswith("!"):
            negators.add(line[1:].strip().lower())
            continue
        parts = line.split("\t")
        if line.startswith("*"):
            if len(parts) != 2:
                raise ValueError(f"lexicon line {line_no}: intensifier needs a multiplier")
            intensifiers[parts[0][1:].strip().lower()] = float(parts[1])
            continue
        if len(parts) != 2:
            raise ValueError(f"lexicon line {line_no}: expected token<TAB>polarity")
        entries[parts[0].strip().lower()] = float(parts[1])
    return SentimentLexicon(entries=entries, negators=negators, intensifiers=intensifiers, version=version)


def load_lexicon(path: str | Path | None = None) -> SentimentLexicon:
    """Load a lexicon file, defaulting to the bundled one."""
    if path is not None:
        return parse_lexicon(Path(path).read_text(encoding="utf-8"))
    text = resources.files("ghreview").joinpath("data/lexicon.tsv").read_text(encoding="utf-8")
    return parse_lexicon(text)


@cache
def default_lexicon() -> SentimentLexicon:
    return load_lexicon()


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def score_comment(text: str, lexicon: SentimentLexicon | None = None) -> float:
    """Polarity of one comment in [-1, 1]; 0 when nothing matches."""
    lex = lexicon if lexicon is not None else default_lexicon()
    entries, negators, intensifiers = lex.entries, lex.negators, lex.intensifiers
    tokens = tokenize(text)
    contributions: list[float] = []
    for i, token in enumerate(tokens):
        polarity = entries.get(token)
        if polarity is None:
            continue
        if i > 0:
            polarity *= intensifiers.get(tokens[i - 1], 1.0)
        if not negators.isdisjoint(tokens[max(0, i - NEGATION_WINDOW) : i]):
            polarity = -polarity
        contributions.append(polarity)
    if not contributions:
        return 0.0
    mean = sum(contributions) / len(contributions)
    return max(-1.0, min(1.0, mean))


def repo_sentiment(repo: Repository, lexicon: SentimentLexicon | None = None) -> tuple[float, int]:
    """Mean comment score for a repository and how many comments backed it.

    Comment-less repositories score 0 with a count of 0, which is the flag.
    """
    scores = [
        score_comment(c.body, lexicon)
        for issue in repo.issues
        for c in issue.comments
    ]
    if not scores:
        return 0.0, 0
    return sum(scores) / len(scores), len(scores)
