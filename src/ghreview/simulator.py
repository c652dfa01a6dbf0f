"""Notification-driven issue injection over replayed repository timelines.

The simulator replays a repository's recorded issue openings, and once an
initial assessment period (IAP) has seeded the inter-issue median (IDM), it
schedules a notification to fire whenever the gap since the last issue
reaches the current IDM.  Each fired notification is accepted with a fixed
probability; acceptance injects a synthetic issue at the fire time, and any
issue (real or injected) resets the clock and updates the running median.

All randomness flows from one generator seeded with ``f"{seed}:{repo_id}"``
so results are reproducible across processes and machines.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property

from .models import Corpus, Repository, SimConfig
from .temporal import (
    Distribution,
    classify_gaps,
    gaps_from_times,
    median_of_sorted,
    split_sorted,
    timeline_from_times,
)

__all__ = [
    "SimConfig",
    "EventKind",
    "SimEvent",
    "SimResult",
    "SimulationOverrunError",
    "simulate",
    "event_log_lines",
    "SimRow",
    "TimelineRow",
    "SimTable",
    "simulate_corpus",
]


class SimulationOverrunError(RuntimeError):
    """Raised when one run would emit more events than the configured cap."""


class EventKind(str, Enum):
    REAL_ISSUE = "RealIssue"
    NOTIFICATION_FIRED = "NotificationFired"
    NOTIFICATION_ACCEPTED = "NotificationAccepted"
    NOTIFICATION_IGNORED = "NotificationIgnored"
    INJECTED_ISSUE = "InjectedIssue"


@dataclass(frozen=True)
class SimEvent:
    """One timeline event.

    idm_at_event carries the running median as of this event: for issue
    events the value after folding the new gap in, for notification events
    the value the scheduler used.  None until a first positive gap exists.
    """

    time: float
    kind: EventKind
    idm_at_event: float | None


@dataclass(frozen=True)
class _Before:
    """The part of one repository's run that no acceptance probability changes.

    ``real_times`` holds the horizon-clipped openings inside the assessment
    period, then the later ones, replayed or generated; the first ``n_iap``
    are the period's.  ``iap_gaps`` are that period's positive gaps, sorted:
    they seed the notifier's running median.  ``distribution`` classifies
    the real series and ``timeline`` is its Fig 6 series.  A sweep computes
    this once per repository and shares it, read-only, between the runs at
    every acceptance probability.
    """

    repo_id: str
    iap_end: float
    horizon_end: float
    exclusion: str | None
    real_times: tuple[float, ...] = ()
    n_iap: int = 0
    iap_gaps: tuple[float, ...] = ()
    distribution: Distribution | None = None
    timeline: tuple[float, ...] = ()


@dataclass(frozen=True)
class SimResult:
    """One repository's run under one config.

    ``timeline`` is the after side's Fig 6 series: the Regular share of each
    non-empty ``config.window`` over the real and injected times.  The event
    log is replayed when first read, and the injected times are read from
    it: the RNG is keyed by seed and repo id, so the replay is exact.  So a
    sweep holds no per-run issue times; ``n_injected`` counts the
    injections without a replay.
    """

    repo_id: str
    config: SimConfig
    excluded: bool
    exclusion_reason: str | None
    real_times: tuple[float, ...] = ()
    before: Distribution | None = None
    after: Distribution | None = None
    injected_only: Distribution | None = None
    final_idm: float | None = None
    n_fires: int = 0  # notifications fired; n_injected of them were accepted
    n_injected: int = 0
    timeline: tuple[float, ...] = ()
    _before: _Before | None = field(default=None, repr=False, compare=False)

    @cached_property
    def events(self) -> tuple[SimEvent, ...]:
        sink: list[SimEvent] = []
        if self._before is not None:
            _notify(self._before, self.config, sink)
        return tuple(sink)

    @cached_property
    def injected_times(self) -> tuple[float, ...]:
        return tuple(e.time for e in self.events if e.kind is EventKind.INJECTED_ISSUE)


def _generative_times(
    gaps: list[float], t: float, iap_end: float, horizon_end: float, rng: random.Random
) -> list[float]:
    """Synthesize post-IAP issue times after ``t`` by resampling the IAP's positive gaps."""
    out: list[float] = []
    while True:
        t += rng.choice(gaps)
        if t > horizon_end:
            break
        if t > iap_end:
            out.append(t)
    return out


def _regular_shares(times: list[float] | tuple[float, ...], config: SimConfig) -> tuple[float, ...]:
    """The Regular share of each non-empty ``config.window`` over ``times``: one Fig 6 series."""
    return tuple(p.regular_pct for p in timeline_from_times(times, config.window, config.alpha))


def _before_side(repo: Repository, config: SimConfig) -> _Before:
    """Everything of a run that the acceptance probability leaves unchanged."""
    iap_end = repo.created_at + config.iap
    horizon_end = repo.created_at + config.horizon
    all_real = [i.created_at for i in repo.issues_by_time() if i.created_at <= horizon_end]
    n_iap = bisect.bisect_right(all_real, iap_end)
    if n_iap < config.min_iap_issues:
        reason = f"{n_iap} issues inside the assessment period, need {config.min_iap_issues}"
        return _Before(repo.id, iap_end, horizon_end, reason)
    iap_times = all_real[:n_iap]
    iap_gaps = [d for d in gaps_from_times(iap_times) if d > 0]
    if not iap_gaps:
        reason = "median undefined: no positive gap inside the assessment period"
        return _Before(repo.id, iap_end, horizon_end, reason)
    if config.generative:
        gen_rng = random.Random(f"{config.seed}:{repo.id}:gen")
        post_real = _generative_times(iap_gaps, iap_times[-1], iap_end, horizon_end, gen_rng)
    else:
        post_real = all_real[n_iap:]
    real_times = tuple(iap_times + post_real)
    _, before = classify_gaps(gaps_from_times(real_times), alpha=config.alpha)
    return _Before(
        repo.id, iap_end, horizon_end, None, real_times, n_iap, tuple(sorted(iap_gaps)), before,
        _regular_shares(real_times, config),
    )


def _notify(
    before: _Before, config: SimConfig, sink: list[SimEvent] | None = None
) -> tuple[list[float], list[int], float, int, list[float]]:
    """Run the notifier over one repository, appending its events to ``sink`` if given.

    Returns every issue time, real and injected, in the order the loop met
    them (time order); the positions of the injected ones in that list; the
    final median; the number of fires; and the sorted positive gaps of the
    issue times, whose median the final one is.  ``before`` is read, never
    changed.
    """
    real = before.real_times
    n_real = len(real)
    i = before.n_iap
    merged = list(real[:i])
    if sink is not None:
        seen: list[float] = []
        for k, t in enumerate(merged):
            if k and t - merged[k - 1] > 0:
                bisect.insort(seen, t - merged[k - 1])
            sink.append(SimEvent(t, EventKind.REAL_ISSUE, median_of_sorted(seen)))

    gaps = list(before.iap_gaps)  # a copy: every run starts from the shared seed
    idm = median_of_sorted(gaps)
    iap_end, horizon_end = before.iap_end, before.horizon_end
    ap, jitter, max_events = config.acceptance_probability, config.jitter, config.max_events
    rng = random.Random(f"{config.seed}:{before.repo_id}")
    draw = rng.random
    insort = bisect.insort
    real_issue, injected_issue = EventKind.REAL_ISSUE, EventKind.INJECTED_ISSUE
    injected_at: list[int] = []
    n_fires = 0
    last = base = merged[-1]
    next_real = real[i] if i < n_real else math.inf
    while True:
        # arm the notifier from the last issue or fire
        wait = idm
        if jitter:
            wait = max(0.0, wait + rng.uniform(-jitter, jitter))
        fire = base + wait
        if fire < iap_end:  # the notifier is dormant until the assessment period ends
            fire = iap_end
        # an issue at or before the scheduled fire suppresses the notification
        if next_real <= fire:
            base = next_real
            i += 1
            next_real = real[i] if i < n_real else math.inf
            kind = real_issue
        else:
            # every run ends here, so the cap sees the final count of events
            if len(merged) + 2 * n_fires > max_events:
                raise SimulationOverrunError(f"{before.repo_id}: event count exceeded {max_events}")
            if fire > horizon_end:
                break
            accepted = draw() < ap
            n_fires += 1
            base = fire
            if sink is not None:
                outcome = EventKind.NOTIFICATION_ACCEPTED if accepted else EventKind.NOTIFICATION_IGNORED
                sink.append(SimEvent(fire, EventKind.NOTIFICATION_FIRED, idm))
                sink.append(SimEvent(fire, outcome, idm))
            if not accepted:
                continue
            injected_at.append(len(merged))
            kind = injected_issue
        # record the issue at ``base``: fold its gap into the running median
        d = base - last
        last = base
        merged.append(base)
        if d > 0:
            insort(gaps, d)
            # median_of_sorted(gaps), inlined for the per-event hot path
            n = len(gaps)
            mid = n >> 1
            idm = gaps[mid] if n & 1 else 0.5 * (gaps[mid - 1] + gaps[mid])
        if sink is not None:
            sink.append(SimEvent(base, kind, idm))

    return merged, injected_at, idm, n_fires, gaps


def simulate(repo: Repository, config: SimConfig, *, _before: _Before | None = None) -> SimResult:
    """Replay one repository under the notification mechanism.

    Repositories with fewer than min_iap_issues issues inside the IAP are
    returned excluded rather than failing, mirroring the corpus-cleaning
    rule that sparse early activity is noise.  ``simulate_corpus`` passes
    the before side it shares between acceptance probabilities.
    """
    before = _before if _before is not None else _before_side(repo, config)
    if before.exclusion is not None:
        return SimResult(
            repo_id=repo.id, config=config, excluded=True, exclusion_reason=before.exclusion
        )
    merged, injected_at, final_idm, n_fires, gaps = _notify(before, config)
    # merged is in time order and final_idm is the median of its positive gaps,
    # so the split is classify_gaps's over merged's gaps
    after = split_sorted(gaps, len(merged) - 1, final_idm, config.alpha)

    injected_only = None
    if injected_at:  # the gap ending at merged[k] is the injection's
        injected = sorted([merged[k] - merged[k - 1] for k in injected_at])
        injected_only = split_sorted(injected, len(injected), final_idm, config.alpha)

    return SimResult(
        repo_id=repo.id,
        config=config,
        excluded=False,
        exclusion_reason=None,
        real_times=before.real_times,
        before=before.distribution,
        after=after,
        injected_only=injected_only,
        final_idm=final_idm,
        n_fires=n_fires,
        n_injected=len(injected_at),
        # merged is dropped on return: a sweep holds one run's issue times at a time
        timeline=_regular_shares(merged, config),
        _before=before,
    )


def event_log_lines(result: SimResult) -> list[str]:
    """Line-oriented event log for replay and debugging."""
    lines = []
    for event in result.events:
        lines.append(
            json.dumps(
                {
                    "time": event.time,
                    "kind": event.kind.value,
                    "idm": event.idm_at_event,
                },
                separators=(",", ":"),
            )
        )
    return lines


# ---------------------------------------------------------------------------
# Corpus-level aggregation.


@dataclass(frozen=True)
class SimRow:
    category: str
    ap: float
    dense_pct: float
    regular_pct: float
    dispersed_pct: float
    before_dense_pct: float
    before_regular_pct: float
    before_dispersed_pct: float
    injected_dense_pct: float | None
    injected_regular_pct: float | None
    injected_dispersed_pct: float | None
    n_repos: int
    n_excluded: int


@dataclass(frozen=True)
class TimelineRow:
    """One Fig 6 point: a category's mean regular share at one window index.

    ``window_index`` k is each repo's k-th non-empty window (one holding a
    gap end), not its k-th calendar window since the first opening.  The
    before and after series count their own non-empty windows, so the same
    k can name different calendar windows on the two sides.
    """

    category: str
    ap: float
    window_index: int
    before_regular_pct: float | None
    after_regular_pct: float
    n_repos: int


@dataclass(frozen=True)
class SimTable:
    rows: tuple[SimRow, ...]
    timelines: tuple[TimelineRow, ...]
    warnings: tuple[str, ...]
    results: dict[tuple[str, float], tuple[SimResult, ...]] = field(default_factory=dict)


def _mean_shares(dists: list[Distribution], prefix: str) -> dict[str, float | None]:
    """The ``SimRow`` fields ``prefix + <class>_pct``: each class's share averaged over ``dists``."""
    return {
        f"{prefix}{name}": sum(getattr(d, name) for d in dists) / len(dists) if dists else None
        for name in ("dense_pct", "regular_pct", "dispersed_pct")
    }


def _window_means(series: list[tuple[float, ...]]) -> list[tuple[float, int]]:
    """For each window index: the mean of the ``series`` values there, and how many series reach it."""
    columns: list[list[float]] = []
    for shares in series:
        for idx, share in enumerate(shares):
            if idx == len(columns):
                columns.append([])
            columns[idx].append(share)
    return [(sum(column) / len(column), len(column)) for column in columns]


def simulate_corpus(corpus: Corpus, configs: list[SimConfig]) -> SimTable:
    """Run every config over every repository, aggregated per category.

    Per-repo classification shares are averaged unweighted within each
    category.  Categories with no eligible repo are dropped from the table
    with a warning.  Timeline rows carry the mean regular share per
    window index, before and after injection, for trend plots.
    """
    rows: list[SimRow] = []
    timelines: list[TimelineRow] = []
    warnings: list[str] = []
    results: dict[tuple[str, float], tuple[SimResult, ...]] = {}
    if not corpus.repos:
        warnings.append("empty corpus: nothing to simulate")
    for category in corpus.categories():
        repos = sorted(corpus.by_category(category), key=lambda r: r.id)
        # per config with the AP taken out: each repo's before side, and the
        # mean before regular share per window index
        shared: dict[SimConfig, tuple[list[_Before], list[float]]] = {}
        for config in configs:
            ap = config.acceptance_probability
            key = replace(config, acceptance_probability=0.0)
            if key not in shared:
                sides = [_before_side(repo, config) for repo in repos]
                series = [side.timeline for side in sides if side.exclusion is None]
                shared[key] = sides, [mean for mean, _ in _window_means(series)]
            sides, before_means = shared[key]
            sims = tuple(simulate(repo, config, _before=side) for repo, side in zip(repos, sides))
            results[(category.value, ap)] = sims
            kept = [s for s in sims if not s.excluded]
            if not kept:
                warnings.append(
                    f"category {category.value}: no eligible repositories at ap={ap:g}"
                )
                continue
            rows.append(
                SimRow(
                    category=category.value,
                    ap=ap,
                    **_mean_shares([s.after for s in kept], ""),
                    **_mean_shares([s.before for s in kept], "before_"),
                    **_mean_shares([s.injected_only for s in kept if s.injected_only is not None], "injected_"),
                    n_repos=len(kept),
                    n_excluded=len(sims) - len(kept),
                )
            )
            for idx, (after_mean, n_repos) in enumerate(_window_means([s.timeline for s in kept])):
                timelines.append(
                    TimelineRow(
                        category=category.value,
                        ap=ap,
                        window_index=idx,
                        before_regular_pct=before_means[idx] if idx < len(before_means) else None,
                        after_regular_pct=after_mean,
                        n_repos=n_repos,
                    )
                )
    return SimTable(
        rows=tuple(rows),
        timelines=tuple(timelines),
        warnings=tuple(warnings),
        results=results,
    )
