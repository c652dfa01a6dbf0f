"""Deliberately naive replay interpreter used as the simulator oracle.

The production simulator keeps a running sorted list for the median and an
incremental schedule; this one recomputes everything from scratch at every
step with ``statistics.median`` over the full issue list. The two can only
agree event-for-event by computing the same process.

Contract mirrored here:
- assessment window [created, created + iap]; fewer than ``min_iap_issues``
  openings inside it (or no positive gap) excludes the repo;
- notification scheduled at last-issue-time + current median, never before
  the assessment window ends;
- a real issue at or before the scheduled time suppresses the fire and
  re-arms from the real issue;
- each fire is accepted with probability ``ap`` (one ``rng.random()`` draw
  per fire, rng seeded ``f"{seed}:{repo_id}"``); acceptance injects an
  issue at the fire time, either way the timer re-arms from the fire;
- the loop ends once the next fire would land beyond the horizon;
- the median only ever aggregates positive inter-issue gaps.
"""

from __future__ import annotations

import random
import statistics


def _median_of(issue_times: list[float]) -> float | None:
    gaps = [b - a for a, b in zip(issue_times, issue_times[1:]) if b - a > 0]
    if not gaps:
        return None
    return statistics.median(gaps)


def reference_simulate(
    repo_id: str,
    issue_times: list[float],
    *,
    ap: float,
    created_at: float,
    iap: float,
    horizon: float,
    seed: int = 0,
    min_iap_issues: int = 3,
):
    """Returns None when the repo is excluded, else a dict with the exact
    event tuples (time, kind, median-at-event), real/injected times and the
    final median."""
    iap_end = created_at + iap
    horizon_end = created_at + horizon
    all_real = [t for t in sorted(issue_times) if t <= horizon_end]
    iap_times = [t for t in all_real if t <= iap_end]
    if len(iap_times) < min_iap_issues:
        return None

    issues: list[float] = []
    events: list[tuple[float, str, float | None]] = []

    def add_issue(t: float, kind: str) -> None:
        issues.append(t)
        events.append((t, kind, _median_of(issues)))

    for t in iap_times:
        add_issue(t, "RealIssue")
    idm = _median_of(issues)
    if idm is None:
        return None

    rng = random.Random(f"{seed}:{repo_id}")
    post = [t for t in all_real if t > iap_end]
    injected: list[float] = []
    i = 0
    next_fire = max(issues[-1] + idm, iap_end)
    while True:
        upcoming = post[i] if i < len(post) else None
        if upcoming is not None and upcoming <= next_fire:
            add_issue(upcoming, "RealIssue")
            i += 1
            m = _median_of(issues)
            if m is not None:
                idm = m
            next_fire = max(upcoming + idm, iap_end)
            continue
        if next_fire > horizon_end:
            break
        events.append((next_fire, "NotificationFired", idm))
        if rng.random() < ap:
            events.append((next_fire, "NotificationAccepted", idm))
            injected.append(next_fire)
            add_issue(next_fire, "InjectedIssue")
            m = _median_of(issues)
            if m is not None:
                idm = m
        else:
            events.append((next_fire, "NotificationIgnored", idm))
        next_fire = max(next_fire + idm, iap_end)

    return {
        "events": events,
        "real_times": iap_times + post,
        "injected_times": injected,
        "final_idm": idm,
    }


def reference_distribution(durations: list[float], alpha: float) -> tuple[float, float, float]:
    """Independent banding: percentages (dense, regular, dispersed)."""
    median = sort_median_positive(durations)
    n = len(durations)
    dense = regular = dispersed = 0
    for d in durations:
        if d == 0 or d < median - alpha:
            dense += 1
        elif d > median + alpha:
            dispersed += 1
        else:
            regular += 1
    return (100.0 * dense / n, 100.0 * regular / n, 100.0 * dispersed / n)


def sort_median_positive(durations: list[float]) -> float:
    """Brute-force median of the positive entries, by explicit index arithmetic."""
    positive = sorted(d for d in durations if d > 0)
    n = len(positive)
    if n == 0:
        raise ValueError("no positive duration")
    if n % 2 == 1:
        return positive[n // 2]
    return (positive[n // 2 - 1] + positive[n // 2]) / 2.0


def reference_timeline(
    times: list[float], window: float, alpha: float
) -> list[tuple[float, float, int]]:
    """Walk every window from the first opening: a window holds the gaps
    ended before its close and not before the previous close, each banded
    against the sort-based median of every positive gap ended before that
    close. Returns (window_start, regular_pct, n_gaps) per non-empty window."""
    ordered = sorted(times)
    ends = [(b, b - a) for a, b in zip(ordered, ordered[1:])]
    points = []
    done = 0
    k = 0
    while done < len(ends):
        close = ordered[0] + (k + 1) * window
        ended = [d for end, d in ends if end < close]
        in_window = ended[done:]
        if in_window:
            regular = 0
            if any(d > 0 for d in ended):
                median = sort_median_positive(ended)
                regular = sum(1 for d in in_window if d != 0 and median - alpha <= d <= median + alpha)
            points.append((ordered[0] + k * window, 100.0 * regular / len(in_window), len(in_window)))
        done = len(ended)
        k += 1
    return points
