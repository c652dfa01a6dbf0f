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

import json
import math
import random
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

from .models import Corpus, Repository
from .temporal import (
    ALPHA_DEFAULT,
    Distribution,
    RunningMedian,
    classify_gaps,
    distribution_of,
    gaps_from_times,
    timeline_from_times,
)
from .units import DAY, MONTH, YEAR

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


@dataclass(frozen=True)
class SimConfig:
    acceptance_probability: float
    iap: float = 6 * MONTH
    horizon: float = 3 * YEAR
    alpha: float = ALPHA_DEFAULT
    seed: int = 0
    min_iap_issues: int = 3
    # extensions, all inert by default: jitter spreads fire times,
    # generative resamples post-IAP gaps instead of replaying real ones
    jitter: float = 0.0
    generative: bool = False
    max_events: int = 1_000_000

    def __post_init__(self) -> None:
        # NaN fails no comparison below, and an infinite horizon never ends a run
        for name in ("iap", "horizon", "alpha", "jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 <= self.acceptance_probability <= 1.0:
            raise ValueError(
                f"acceptance_probability must lie in [0, 1], got {self.acceptance_probability}"
            )
        if self.horizon <= self.iap:
            raise ValueError("horizon must exceed iap")
        if self.iap <= 0:
            raise ValueError("iap must be positive")
        if self.min_iap_issues < 2:
            raise ValueError("min_iap_issues must be at least 2 (need one gap)")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")


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
class SimResult:
    """One repository's run under one config.  The event log is replayed when
    first read: the RNG is keyed by seed and repo id, so the replay is exact."""

    repo_id: str
    config: SimConfig
    excluded: bool
    exclusion_reason: str | None
    real_times: tuple[float, ...] = ()
    injected_times: tuple[float, ...] = ()
    before: Distribution | None = None
    after: Distribution | None = None
    injected_only: Distribution | None = None
    final_idm: float | None = None
    _repo: Repository | None = field(default=None, repr=False, compare=False)

    @cached_property
    def events(self) -> tuple[SimEvent, ...]:
        sink: list[SimEvent] = []
        if self._repo is not None:
            _notify(self._repo, self.config, sink)
        return tuple(sink)


def _generative_times(
    iap_times: list[float], iap_end: float, horizon_end: float, rng: random.Random
) -> list[float]:
    """Synthesize post-IAP issue times by resampling observed IAP gaps."""
    gaps = [b - a for a, b in zip(iap_times, iap_times[1:]) if b - a > 0]
    if not gaps:
        return []
    out: list[float] = []
    t = iap_times[-1]
    while True:
        t += rng.choice(gaps)
        if t > horizon_end:
            break
        if t > iap_end:
            out.append(t)
    return out


def _notify(
    repo: Repository, config: SimConfig, sink: list[SimEvent] | None = None
) -> str | tuple[list[float], list[float], float]:
    """Run the notifier over one repository, appending its events to ``sink`` if given.

    Returns the exclusion reason, or the real and injected times and the final median.
    """
    iap_end = repo.created_at + config.iap
    horizon_end = repo.created_at + config.horizon
    all_real = [i.created_at for i in repo.issues_by_time() if i.created_at <= horizon_end]
    iap_times = [t for t in all_real if t <= iap_end]
    if len(iap_times) < config.min_iap_issues:
        return (
            f"{len(iap_times)} issues inside the assessment period, "
            f"need {config.min_iap_issues}"
        )

    rng = random.Random(f"{config.seed}:{repo.id}")
    median = RunningMedian()
    n_events = 0
    prev_time: float | None = None

    def record_issue(time: float, kind: EventKind) -> None:
        nonlocal prev_time, n_events
        if prev_time is not None:
            median.add_gap(time - prev_time)
        prev_time = time
        n_events += 1
        if sink is not None:
            sink.append(SimEvent(time=time, kind=kind, idm_at_event=median.value()))

    for t in iap_times:
        record_issue(t, EventKind.REAL_ISSUE)

    idm_current = median.value()
    if idm_current is None:
        return "median undefined: no positive gap inside the assessment period"

    if config.generative:
        gen_rng = random.Random(f"{config.seed}:{repo.id}:gen")
        post_real = _generative_times(iap_times, iap_end, horizon_end, gen_rng)
    else:
        post_real = [t for t in all_real if t > iap_end]

    injected: list[float] = []
    real_index = 0

    def arm(base: float) -> float:
        wait = idm_current
        if config.jitter > 0:
            wait = max(0.0, wait + rng.uniform(-config.jitter, config.jitter))
        # the notifier is dormant until the assessment period ends
        return max(base + wait, iap_end)

    assert prev_time is not None
    next_fire = arm(prev_time)
    while True:
        if n_events > config.max_events:
            raise SimulationOverrunError(
                f"{repo.id}: event count exceeded {config.max_events}"
            )
        next_real = post_real[real_index] if real_index < len(post_real) else None
        # an issue at or before the scheduled fire suppresses the notification
        if next_real is not None and next_real <= next_fire:
            record_issue(next_real, EventKind.REAL_ISSUE)
            real_index += 1
            idm_current = median.value() or idm_current
            next_fire = arm(next_real)
            continue
        if next_fire > horizon_end:
            break
        accepted = rng.random() < config.acceptance_probability
        n_events += 2
        if sink is not None:
            outcome = EventKind.NOTIFICATION_ACCEPTED if accepted else EventKind.NOTIFICATION_IGNORED
            sink.append(SimEvent(next_fire, EventKind.NOTIFICATION_FIRED, idm_current))
            sink.append(SimEvent(next_fire, outcome, idm_current))
        if accepted:
            injected.append(next_fire)
            record_issue(next_fire, EventKind.INJECTED_ISSUE)
            idm_current = median.value() or idm_current
        next_fire = arm(next_fire)

    return iap_times + post_real, injected, idm_current


def simulate(repo: Repository, config: SimConfig) -> SimResult:
    """Replay one repository under the notification mechanism.

    Repositories with fewer than min_iap_issues issues inside the IAP are
    returned excluded rather than failing, mirroring the corpus-cleaning
    rule that sparse early activity is noise.
    """
    run = _notify(repo, config)
    if isinstance(run, str):
        return SimResult(repo_id=repo.id, config=config, excluded=True, exclusion_reason=run)
    real_times, injected, final_idm = run
    merged = sorted(real_times + injected)
    _, before = classify_gaps(gaps_from_times(real_times), alpha=config.alpha)
    merged_labels, after = classify_gaps(gaps_from_times(merged), alpha=config.alpha)

    injected_set = set(injected)
    injected_labels = [
        label for label, end in zip(merged_labels, merged[1:]) if end in injected_set
    ]
    injected_only = distribution_of(injected_labels) if injected_labels else None

    return SimResult(
        repo_id=repo.id,
        config=config,
        excluded=False,
        exclusion_reason=None,
        real_times=tuple(real_times),
        injected_times=tuple(injected),
        before=before,
        after=after,
        injected_only=injected_only,
        final_idm=final_idm,
        _repo=repo,
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


def _mean_or_none(values: list[float]) -> float | None:
    if not values:
        return None
    return sum(values) / len(values)


def simulate_corpus(
    corpus: Corpus,
    configs: list[SimConfig],
    timeline_window: float = 30 * DAY,
) -> SimTable:
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
        for config in configs:
            ap = config.acceptance_probability
            sims = tuple(simulate(repo, config) for repo in repos)
            results[(category.value, ap)] = sims
            kept = [s for s in sims if not s.excluded]
            n_excluded = len(sims) - len(kept)
            if not kept:
                warnings.append(
                    f"category {category.value}: no eligible repositories at ap={ap:g}"
                )
                continue
            before = [s.before for s in kept]
            after = [s.after for s in kept]
            injected = [s.injected_only for s in kept if s.injected_only is not None]
            rows.append(
                SimRow(
                    category=category.value,
                    ap=ap,
                    dense_pct=sum(d.dense_pct for d in after) / len(after),
                    regular_pct=sum(d.regular_pct for d in after) / len(after),
                    dispersed_pct=sum(d.dispersed_pct for d in after) / len(after),
                    before_dense_pct=sum(d.dense_pct for d in before) / len(before),
                    before_regular_pct=sum(d.regular_pct for d in before) / len(before),
                    before_dispersed_pct=sum(d.dispersed_pct for d in before) / len(before),
                    injected_dense_pct=_mean_or_none([d.dense_pct for d in injected]),
                    injected_regular_pct=_mean_or_none([d.regular_pct for d in injected]),
                    injected_dispersed_pct=_mean_or_none([d.dispersed_pct for d in injected]),
                    n_repos=len(kept),
                    n_excluded=n_excluded,
                )
            )
            before_by_idx: dict[int, list[float]] = {}
            after_by_idx: dict[int, list[float]] = {}
            for sim in kept:
                for idx, point in enumerate(
                    timeline_from_times(list(sim.real_times), timeline_window, config.alpha)
                ):
                    before_by_idx.setdefault(idx, []).append(point.regular_pct)
                merged = sorted(sim.real_times + sim.injected_times)
                for idx, point in enumerate(
                    timeline_from_times(merged, timeline_window, config.alpha)
                ):
                    after_by_idx.setdefault(idx, []).append(point.regular_pct)
            for idx in sorted(after_by_idx):
                after_vals = after_by_idx[idx]
                timelines.append(
                    TimelineRow(
                        category=category.value,
                        ap=ap,
                        window_index=idx,
                        before_regular_pct=_mean_or_none(before_by_idx.get(idx, [])),
                        after_regular_pct=sum(after_vals) / len(after_vals),
                        n_repos=len(after_vals),
                    )
                )
    return SimTable(
        rows=tuple(rows),
        timelines=tuple(timelines),
        warnings=tuple(warnings),
        results=results,
    )
