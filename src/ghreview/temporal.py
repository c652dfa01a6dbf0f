"""Inter-issue gap extraction and the Dense/Regular/Dispersed classifier.

Each consecutive pair of issue-opening events yields one gap.  The gap
distribution's median (of positive durations, the IDM) is the reference
point: a gap inside [median - alpha, median + alpha] is Regular, below the
band Dense, above it Dispersed.  Alpha defaults to six hours.

Zero-duration gaps (two issues opened at the same second) are kept in the
series and always labeled Dense, but are excluded from the median so burst
activity cannot degenerate it.

The rule is defined here once, and ``simulator`` applies it through these
functions: ``median_of_sorted`` is the one median (``idm``, the timeline
and the notifier use it), ``classify_duration`` the one band, and
``split_sorted`` the same band counted over sorted gaps by bisection.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Sequence

from .models import Repository
from .units import ALPHA_DEFAULT


class InsufficientDataError(ValueError):
    """Raised when a median is requested from a series with no positive gap."""


class Label(str, enum.Enum):
    DENSE = "Dense"
    REGULAR = "Regular"
    DISPERSED = "Dispersed"


@dataclass(frozen=True)
class Distribution:
    dense_pct: float
    regular_pct: float
    dispersed_pct: float
    n_gaps: int


def gaps_from_times(times: Sequence[float]) -> list[float]:
    """Successive differences of sorted opening times."""
    ordered = sorted(times)
    return [b - a for a, b in zip(ordered, ordered[1:])]


def issue_gaps(repo: Repository) -> list[float]:
    """The gaps between successive issue openings of ``repo``, in opening order."""
    return gaps_from_times([i.created_at for i in repo.issues])


def median_of_sorted(xs: Sequence[float]) -> float | None:
    """Median of sorted ``xs``, None if empty; even counts average the two central values."""
    n = len(xs)
    if n == 0:
        return None
    mid = n >> 1
    return xs[mid] if n & 1 else 0.5 * (xs[mid - 1] + xs[mid])


def idm(gaps: Sequence[float]) -> float:
    """The median inter-issue distance of a series: the median of its positive gaps, in seconds."""
    median = median_of_sorted(sorted(d for d in gaps if d > 0))
    if median is None:
        raise InsufficientDataError("no positive-duration gaps")
    return median


def classify_duration(duration: float, median: float, alpha: float) -> Label:
    if duration == 0 or duration < median - alpha:
        return Label.DENSE
    if duration > median + alpha:
        return Label.DISPERSED
    return Label.REGULAR


def distribution_of_counts(n: int, dense: int, dispersed: int) -> Distribution:
    """The split of ``n`` gaps, ``dense`` of them Dense and ``dispersed`` Dispersed."""
    if n == 0:
        return Distribution(0.0, 0.0, 0.0, 0)
    regular = n - dense - dispersed
    return Distribution(100.0 * dense / n, 100.0 * regular / n, 100.0 * dispersed / n, n)


def band_bounds(ordered: Sequence[float], lo: float, hi: float, start: int = 0) -> tuple[int, int]:
    """Split sorted ``ordered[start:]`` by the band [lo, hi], in two bisections.

    Returns (i, j): ``ordered[start:i]`` lies below lo, ``ordered[i:j]`` inside
    the band and ``ordered[j:]`` above it.  A band with lo > hi, or a NaN
    bound, holds nothing (i == j), as the comparisons ``lo <= d <= hi`` find.
    """
    i = bisect.bisect_left(ordered, lo, start)
    return i, (bisect.bisect_right(ordered, hi, i) if lo <= hi else i)


def split_sorted(ordered: Sequence[float], n: int, median: float, alpha: float) -> Distribution:
    """``classify_gaps``'s split of ``n`` gaps against ``median``, given them sorted
    in ``ordered``, which may leave out zero gaps: those are Dense."""
    zeros = bisect.bisect_right(ordered, 0.0)
    i, j = band_bounds(ordered, median - alpha, median + alpha, zeros)
    return distribution_of_counts(n, n - len(ordered) + i, len(ordered) - j)


def classify_gaps(gaps: Sequence[float], alpha: float = ALPHA_DEFAULT) -> tuple[list[Label], Distribution]:
    """Label every gap against the series' own IDM and summarize the split."""
    median = idm(gaps)  # raises on empty/all-zero series
    labels = [classify_duration(d, median, alpha) for d in gaps]
    return labels, distribution_of_counts(
        len(labels), labels.count(Label.DENSE), labels.count(Label.DISPERSED)
    )


@dataclass(frozen=True)
class TimelinePoint:
    window_start: float
    regular_pct: float
    n_gaps: int


def _window_holding(end: float, t0: float, window: float, lo: int) -> int:
    """First window index k >= lo whose close, t0 + (k+1)*window, lies beyond end.

    Closes are compared as computed, so rounding decides an endpoint on a
    boundary exactly as a walk over every window would; the quotient only
    seeds a search whose cost is logarithmic in the windows skipped.
    """

    def closes_after(k: int) -> bool:
        return end < t0 + (k + 1) * window

    hi, step = max(lo, int((end - t0) // window)), 1
    while not closes_after(hi):
        lo, hi, step = hi + 1, hi + step, 2 * step
    while lo < hi:
        mid = (lo + hi) // 2
        if closes_after(mid):
            hi = mid
        else:
            lo = mid + 1
    return hi


def timeline_from_times(
    times: Sequence[float], window: float, alpha: float = ALPHA_DEFAULT
) -> list[TimelinePoint]:
    """Regular-share series under an expanding median.

    Windows tile the series from the first opening.  A gap belongs to the
    window holding its endpoint; its label is judged against the median of
    every gap ended by that window's close, matching the way the notifier
    re-estimates its waiting time as data accrues.  Empty windows are
    skipped, so the cost follows the number of gaps, not of windows.
    """
    if not window > 0:
        raise ValueError(f"window must be positive, got {window}")
    ordered = sorted(times)
    n = len(ordered)
    t0 = ordered[0] if ordered else 0.0
    gaps = [b - a for a, b in zip(ordered, ordered[1:])]  # gap i - 1 ends at ordered[i]
    positive: list[float] = []  # every positive gap ended so far, sorted
    points: list[TimelinePoint] = []
    i, k = 1, 0
    while i < n:
        k = _window_holding(ordered[i], t0, window, k)
        # the openings before the window's close end its gaps
        j = bisect.bisect_left(ordered, t0 + (k + 1) * window, i)
        in_window = sorted(gaps[i - 1 : j - 1])
        i = j
        z = bisect.bisect_right(in_window, 0.0)  # zero-duration bursts, all Dense
        positive += in_window[z:]
        positive.sort()  # one merge of two sorted runs
        regular = 0
        median = median_of_sorted(positive)
        if median is not None:
            first, end = band_bounds(in_window, median - alpha, median + alpha, z)
            regular = end - first
        points.append(
            TimelinePoint(
                window_start=t0 + k * window,
                regular_pct=100.0 * regular / len(in_window),
                n_gaps=len(in_window),
            )
        )
    return points
