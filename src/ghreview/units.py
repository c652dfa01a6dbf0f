"""Fixed time-unit conversions and duration parsing.

Months and years are calendar-free fixed durations so every run is
reproducible regardless of locale or calendar arithmetic.
"""

from __future__ import annotations

import re

SECOND = 1.0
MINUTE = 60.0
HOUR = 3600.0
DAY = 86400.0
MONTH = 30.44 * DAY
YEAR = 365.25 * DAY

# Half-width of the Regular band (``temporal`` re-exports it); defined here
# so the CLI parser can default to it without importing ``temporal``.
ALPHA_DEFAULT = 6 * HOUR

_SUFFIXES = {
    "s": SECOND,
    "m": MINUTE,
    "h": HOUR,
    "d": DAY,
    "mo": MONTH,
    "y": YEAR,
}

_DURATION_RE = re.compile(r"^\s*([0-9]+(?:\.[0-9]+)?)\s*(s|m|h|d|mo|y)?\s*$")


def parse_duration(text: str | float) -> float:
    """Parse a duration like ``6h``, ``30d``, ``6mo`` or ``3y`` into seconds.

    A bare number is taken as seconds.
    """
    if isinstance(text, (int, float)):
        return float(text)
    m = _DURATION_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse duration: {text!r}")
    value = float(m.group(1))
    suffix = m.group(2)
    return value * (_SUFFIXES[suffix] if suffix else SECOND)
