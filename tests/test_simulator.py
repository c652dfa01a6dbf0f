"""Notification-injection simulator: oracle equality, identities, mechanism."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace

import pytest

from ghreview import simulator
from ghreview.models import Category, Issue, Repository, User
from ghreview.simulator import (
    EventKind,
    SimConfig,
    SimEvent,
    SimulationOverrunError,
    event_log_lines,
    simulate,
    simulate_corpus,
)
from ghreview.synthetic import lognormal_repo, periodic_repo, random_corpus
from ghreview.temporal import (
    Label,
    classify_gaps,
    distribution_of_counts,
    gaps_from_times,
    timeline_from_times,
)
from ghreview.units import DAY, HOUR, MONTH, YEAR
from reference_sim import (
    reference_distribution,
    reference_simulate,
    reference_timeline,
    sort_median_positive,
)

IAP_DAYS = 6 * MONTH / DAY  # 182.64


def distribution_of(labels):
    """The split of a list of labels."""
    return distribution_of_counts(len(labels), labels.count(Label.DENSE), labels.count(Label.DISPERSED))


def _events(result):
    return [(e.time, e.kind.value, e.idm_at_event) for e in result.events]


# --- configuration guard rails --------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"acceptance_probability": -0.1},
        {"acceptance_probability": 1.5},
        {"acceptance_probability": 0.5, "horizon": 1 * MONTH},  # below iap
        {"acceptance_probability": 0.5, "iap": 0.0, "horizon": 1.0},
        {"acceptance_probability": 0.5, "min_iap_issues": 1},
        {"acceptance_probability": 0.5, "jitter": -1.0},
        {"acceptance_probability": 0.5, "alpha": 0.0},
        {"acceptance_probability": 0.5, "iap": math.nan},
        {"acceptance_probability": 0.5, "horizon": math.nan},
        {"acceptance_probability": 0.5, "horizon": math.inf},
        {"acceptance_probability": 0.5, "alpha": math.nan},
        {"acceptance_probability": 0.5, "alpha": math.inf},
        {"acceptance_probability": 0.5, "jitter": math.nan},
        {"acceptance_probability": 0.5, "jitter": math.inf},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


# --- exclusion rules -------------------------------------------------------


def test_sparse_iap_excludes():
    repo = periodic_repo("x/sparse", n_issues=2)
    result = simulate(repo, SimConfig(acceptance_probability=0.5))
    assert result.excluded
    assert "2 issues inside the assessment period" in result.exclusion_reason


def test_burst_only_iap_excludes():
    repo = periodic_repo("x/burst", n_issues=5, period=0.0)
    result = simulate(repo, SimConfig(acceptance_probability=0.5))
    assert result.excluded
    assert "no positive gap" in result.exclusion_reason


def test_issues_beyond_horizon_are_ignored():
    repo = periodic_repo("x/long", n_issues=1500)  # runs past three years
    result = simulate(repo, SimConfig(acceptance_probability=0.0))
    horizon_end = repo.created_at + 3 * YEAR
    assert result.real_times
    assert max(result.real_times) <= horizon_end
    assert len(result.real_times) == math.floor(3 * 365.25)


# --- oracle equality -------------------------------------------------------


def test_reference_interpreter_matches_fixture_repo(tiny_corpus):
    repo = tiny_corpus.repos[0]
    config = SimConfig(acceptance_probability=0.6, seed=42)
    got = simulate(repo, config)
    ref = reference_simulate(
        repo.id,
        [i.created_at for i in repo.issues],
        ap=0.6,
        created_at=repo.created_at,
        iap=config.iap,
        horizon=config.horizon,
        seed=42,
    )
    assert not got.excluded and ref is not None
    assert _events(got) == ref["events"]
    assert list(got.real_times) == ref["real_times"]
    assert list(got.injected_times) == ref["injected_times"]
    assert got.final_idm == ref["final_idm"]


def test_reference_interpreter_matches_lognormal_repos():
    for seed in range(25):
        repo = lognormal_repo(f"x/ln{seed}", seed=seed)
        for ap in (0.0, 0.3, 1.0):
            config = SimConfig(acceptance_probability=ap, seed=seed)
            got = simulate(repo, config)
            ref = reference_simulate(
                repo.id,
                [i.created_at for i in repo.issues],
                ap=ap,
                created_at=repo.created_at,
                iap=config.iap,
                horizon=config.horizon,
                seed=seed,
            )
            if got.excluded:
                assert ref is None
                continue
            assert _events(got) == ref["events"], (seed, ap)
            assert list(got.injected_times) == ref["injected_times"]


# --- acceptance probability endpoints --------------------------------------


def test_ap_zero_changes_nothing():
    corpus = random_corpus(17, n_repos=8, mean_gap=8 * DAY)
    config = SimConfig(acceptance_probability=0.0, seed=5)
    for repo in corpus.repos:
        result = simulate(repo, config)
        if result.excluded:
            continue
        assert result.injected_times == ()
        assert result.after == result.before
        assert not any(e.kind is EventKind.NOTIFICATION_ACCEPTED for e in result.events)


def test_ap_zero_log_is_reproducible():
    repo = lognormal_repo("x/logrepro", seed=3)
    config = SimConfig(acceptance_probability=0.0, seed=9)
    first = "\n".join(event_log_lines(simulate(repo, config)))
    second = "\n".join(event_log_lines(simulate(repo, config)))
    assert first == second


def test_ap_one_injects_on_every_fire():
    repo = periodic_repo("x/full", n_issues=182)
    result = simulate(repo, SimConfig(acceptance_probability=1.0, seed=0))
    fired = sum(1 for e in result.events if e.kind is EventKind.NOTIFICATION_FIRED)
    assert fired == len(result.injected_times) > 0
    assert not any(e.kind is EventKind.NOTIFICATION_IGNORED for e in result.events)


def test_ap_one_periodic_iap_injects_regular_gaps_exactly():
    # issues fill the whole assessment window on an exact one-day period, so
    # the first fire is unclamped and every injected gap equals the median
    repo = periodic_repo("x/mech", n_issues=182)
    result = simulate(repo, SimConfig(acceptance_probability=1.0, seed=1))
    expected_injections = math.floor(3 * 365.25) - 182
    assert len(result.injected_times) == expected_injections
    assert result.before.regular_pct == 100.0
    assert result.after.regular_pct == 100.0
    assert result.injected_only is not None
    assert result.injected_only.regular_pct == 100.0
    assert result.injected_only.n_gaps == expected_injections
    assert result.final_idm == DAY


def test_injected_only_counts_injections_not_real_openings_at_their_time():
    # a jittered wait clamps to 0 and the fire lands on the last real opening,
    # so some injected times equal real ones; only the injections count
    repo = periodic_repo("x/j", n_issues=400)
    result = simulate(repo, SimConfig(acceptance_probability=1.0, seed=0, jitter=3 * DAY))
    assert set(result.injected_times) & set(result.real_times)
    assert result.injected_only.n_gaps == len(result.injected_times) == 702
    # an independent merge: at equal times a real opening precedes the injection
    tagged = sorted([(t, False) for t in result.real_times] + [(t, True) for t in result.injected_times])
    labels, _ = classify_gaps(gaps_from_times([t for t, _ in tagged]), alpha=result.config.alpha)
    injected_labels = [label for label, (_, injected) in zip(labels, tagged[1:]) if injected]
    assert result.injected_only == distribution_of(injected_labels)


# --- scheduling details ----------------------------------------------------


def test_real_issue_on_fire_time_suppresses_notification():
    # period == median, so every post-window real lands exactly on the
    # scheduled fire; notifications only resume once the series ends
    repo = periodic_repo("x/tie", n_issues=400)
    result = simulate(repo, SimConfig(acceptance_probability=1.0, seed=2))
    last_real = max(result.real_times)
    fired_times = [e.time for e in result.events if e.kind is EventKind.NOTIFICATION_FIRED]
    assert fired_times  # plenty of room after day 400
    assert min(fired_times) == last_real + DAY
    assert all(t > last_real for t in fired_times)


def test_first_fire_waits_for_assessment_window():
    # three early issues, then silence: the one-day median would fire on
    # day four, but the notifier stays dormant until the window closes
    repo = periodic_repo("x/clamp", n_issues=3)
    config = SimConfig(acceptance_probability=0.0, seed=0)
    result = simulate(repo, config)
    fired_times = [e.time for e in result.events if e.kind is EventKind.NOTIFICATION_FIRED]
    assert fired_times[0] == repo.created_at + config.iap
    assert fired_times[1] - fired_times[0] == pytest.approx(DAY)


def test_accept_event_triple_shares_the_fire_time():
    repo = periodic_repo("x/triple", n_issues=182)
    result = simulate(repo, SimConfig(acceptance_probability=1.0, seed=3))
    kinds = [e.kind for e in result.events]
    first_fire = kinds.index(EventKind.NOTIFICATION_FIRED)
    assert kinds[first_fire : first_fire + 3] == [
        EventKind.NOTIFICATION_FIRED,
        EventKind.NOTIFICATION_ACCEPTED,
        EventKind.INJECTED_ISSUE,
    ]
    t = result.events[first_fire].time
    assert result.events[first_fire + 1].time == t
    assert result.events[first_fire + 2].time == t


def test_event_log_lines_are_compact_json():
    repo = periodic_repo("x/log", n_issues=182)
    result = simulate(repo, SimConfig(acceptance_probability=1.0, seed=4))
    lines = event_log_lines(result)
    assert len(lines) == len(result.events)
    first = json.loads(lines[0])
    assert set(first) == {"time", "kind", "idm"}
    assert first["kind"] == "RealIssue"
    assert first["idm"] is None  # no gap exists after the very first issue
    assert " " not in lines[0]


def test_seeds_decide_acceptance_patterns():
    repo = periodic_repo("x/seeds", n_issues=182)
    a = simulate(repo, SimConfig(acceptance_probability=0.5, seed=0))
    b = simulate(repo, SimConfig(acceptance_probability=0.5, seed=0))
    c = simulate(repo, SimConfig(acceptance_probability=0.5, seed=1))
    assert _events(a) == _events(b)
    assert _events(a) != _events(c)


def test_overrun_guard():
    repo = periodic_repo("x/cap", n_issues=182)
    with pytest.raises(SimulationOverrunError):
        simulate(repo, SimConfig(acceptance_probability=1.0, max_events=50))


def test_overrun_guard_counts_every_event():
    repo = periodic_repo("x/cap", n_issues=182)
    for config in (
        SimConfig(acceptance_probability=0.5, seed=5),
        SimConfig(acceptance_probability=0.0, seed=5),
        SimConfig(acceptance_probability=0.5, seed=5, jitter=6 * HOUR),
    ):
        n = len(simulate(repo, config).events)
        assert not simulate(repo, replace(config, max_events=n)).excluded
        with pytest.raises(SimulationOverrunError):
            simulate(repo, replace(config, max_events=n - 1))


# --- extensions (outside the replicated design) ----------------------------


def test_generative_mode_synthesizes_post_window_series():
    repo = lognormal_repo("x/gen", seed=6)
    config = SimConfig(acceptance_probability=0.5, seed=6, generative=True)
    result = simulate(repo, config)
    assert not result.excluded
    again = simulate(repo, config)
    assert _events(result) == _events(again)
    horizon_end = repo.created_at + config.horizon
    assert all(t <= horizon_end for t in result.real_times)
    # generated openings replace the replayed ones beyond the window
    iap_end = repo.created_at + config.iap
    replay = [i.created_at for i in repo.issues_by_time() if i.created_at > iap_end]
    generated = [t for t in result.real_times if t > iap_end]
    assert generated != replay


def test_jitter_keeps_determinism_and_window_rule():
    repo = periodic_repo("x/jit", n_issues=182)
    config = SimConfig(acceptance_probability=0.7, seed=8, jitter=2 * 3600.0)
    result = simulate(repo, config)
    again = simulate(repo, config)
    assert _events(result) == _events(again)
    iap_end = repo.created_at + config.iap
    fired = [e.time for e in result.events if e.kind is EventKind.NOTIFICATION_FIRED]
    assert all(t >= iap_end for t in fired)


# --- corpus aggregation ----------------------------------------------------


def _three_category_corpus():
    repos = [
        periodic_repo("a/random", category=Category.RANDOM, n_issues=182),
        lognormal_repo("b/ros", seed=1, category=Category.ROS),
        lognormal_repo("c/popular", seed=2, category=Category.POPULAR),
    ]
    from ghreview.models import Corpus

    return Corpus(repos=repos, users={})


def test_simulate_corpus_rows_and_results():
    corpus = _three_category_corpus()
    configs = [SimConfig(acceptance_probability=ap, seed=0) for ap in (0.0, 1.0)]
    table = simulate_corpus(corpus, configs)
    assert [(row.category, row.ap) for row in table.rows] == [
        ("Random", 0.0),
        ("Random", 1.0),
        ("ROS", 0.0),
        ("ROS", 1.0),
        ("Popular", 0.0),
        ("Popular", 1.0),
    ]
    by_key = {(row.category, row.ap): row for row in table.rows}
    for category in ("Random", "ROS", "Popular"):
        row = by_key[(category, 0.0)]
        assert row.regular_pct == row.before_regular_pct
        assert row.injected_regular_pct is None
        assert row.n_repos == 1 and row.n_excluded == 0
    assert by_key[("Random", 1.0)].regular_pct == 100.0
    assert set(table.results) == {(c, ap) for c in ("Random", "ROS", "Popular") for ap in (0.0, 1.0)}
    assert not table.warnings


def test_simulate_corpus_single_repo_matches_simulate():
    corpus = _three_category_corpus()
    config = SimConfig(acceptance_probability=0.8, seed=11)
    table = simulate_corpus(corpus, [config])
    row = next(r for r in table.rows if r.category == "ROS")
    direct = simulate(corpus.repos[1], config)
    assert row.regular_pct == direct.after.regular_pct
    assert row.before_dense_pct == direct.before.dense_pct


def test_simulate_corpus_warns_on_ineligible_category():
    from ghreview.models import Corpus

    corpus = Corpus(
        repos=[
            periodic_repo("a/ok", category=Category.RANDOM, n_issues=182),
            periodic_repo("b/thin", category=Category.ROS, n_issues=2),
        ],
        users={},
    )
    table = simulate_corpus(corpus, [SimConfig(acceptance_probability=0.5)])
    assert any("ROS" in w for w in table.warnings)
    assert all(row.category == "Random" for row in table.rows)


def test_simulate_corpus_empty_corpus_warns():
    from ghreview.models import Corpus

    table = simulate_corpus(Corpus(), [SimConfig(acceptance_probability=0.5)])
    assert table.rows == ()
    assert any("empty corpus" in w for w in table.warnings)


@pytest.mark.parametrize("window", [0.0, -1.0, math.nan])
def test_config_rejects_a_window_that_is_not_positive(window):
    with pytest.raises(ValueError, match="window must be positive"):
        SimConfig(acceptance_probability=0.5, window=window)


def test_config_accepts_an_infinite_window():
    # one window holds every gap, so each series has one point
    result = simulate(periodic_repo("a/one", n_issues=60), SimConfig(acceptance_probability=0.5, window=math.inf))
    assert len(result.timeline) == len(result._before.timeline) == 1


def test_sweep_holds_no_memory_per_injection():
    import tracemalloc

    from ghreview.models import Corpus

    # hourly openings seed a one-hour median; with every fire accepted the
    # notifier then injects an issue an hour until the three-year horizon
    corpus = Corpus(
        repos=[periodic_repo(f"m/hourly{k}", period=HOUR, n_issues=48) for k in range(4)], users={}
    )
    # one window spans the horizon, so both tables hold the same timeline rows
    window = 4 * YEAR
    # lazily built per-repo state is made here, outside the comparison
    simulate_corpus(corpus, [SimConfig(acceptance_probability=0.0, iap=DAY, window=window)])

    def held_by_sweep(ap):
        tracemalloc.start()
        try:
            table = simulate_corpus(corpus, [SimConfig(acceptance_probability=ap, iap=DAY, window=window)])
            return table, tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    _, idle_bytes = held_by_sweep(0.0)
    busy, busy_bytes = held_by_sweep(1.0)
    # at AP 1 every fire is accepted, so the fires count the injections
    assert sum(s.n_fires for s in busy.results[("Random", 1.0)]) >= 100_000
    assert abs(busy_bytes - idle_bytes) < 64 * 1024


def test_timeline_rows_cover_window_indexes():
    corpus = _three_category_corpus()
    table = simulate_corpus(corpus, [SimConfig(acceptance_probability=1.0, seed=0)])
    random_rows = [t for t in table.timelines if t.category == "Random"]
    assert random_rows
    indexes = [t.window_index for t in random_rows]
    assert indexes == sorted(indexes)
    assert all(row.n_repos == 1 for row in random_rows)
    assert all(0.0 <= row.after_regular_pct <= 100.0 for row in random_rows)


def test_simulate_corpus_builds_the_event_log_only_when_read(monkeypatch):
    built = []

    def counting_event(*args, **kwargs):
        built.append(1)
        return SimEvent(*args, **kwargs)

    monkeypatch.setattr(simulator, "SimEvent", counting_event)
    corpus = _three_category_corpus()
    config = SimConfig(acceptance_probability=0.5, seed=3)
    table = simulate_corpus(corpus, [config])
    assert built == []
    result = table.results[("ROS", 0.5)][0]
    assert _events(result) and len(built) == len(result.events)
    assert _events(result) == _events(simulate(corpus.repos[1], config))


def test_fire_count_matches_the_replayed_log():
    corpus = random_corpus(23, n_repos=8, issues_range=(3, 60), mean_gap=6 * DAY)
    for ap in (0.0, 0.4, 1.0):
        for repo in corpus.repos:
            result = simulate(repo, SimConfig(acceptance_probability=ap, seed=2))
            fired = sum(1 for e in result.events if e.kind is EventKind.NOTIFICATION_FIRED)
            assert result.n_fires == fired
            assert not result.excluded or result.n_fires == 0
    periodic = simulate(periodic_repo("x/fires", n_issues=182), SimConfig(acceptance_probability=1.0))
    assert periodic.n_fires == len(periodic.injected_times) > 0


# --- the before side shared across acceptance probabilities ----------------

APS = (0.0, 0.2, 0.5, 0.9, 1.0)
MODES = {
    "replay": {},
    "generative": {"generative": True},
    "jitter": {"jitter": 5 * HOUR},
}


def _fields(result):
    return (
        result.excluded,
        result.exclusion_reason,
        result.before,
        result.after,
        result.injected_only,
        result.real_times,
        result.injected_times,
        result.final_idm,
        result.n_fires,
        result.timeline,
        _events(result),
    )


def _sweep_corpus(seed):
    corpus = random_corpus(seed, n_repos=9, issues_range=(2, 70), mean_gap=5 * DAY)
    # one repo too sparse to simulate, one whose assessment period holds a burst only
    corpus.repos.append(periodic_repo(f"z/sparse{seed}", category=Category.ROS, n_issues=2))
    corpus.repos.append(periodic_repo(f"z/burst{seed}", category=Category.POPULAR, period=0.0, n_issues=5))
    return corpus


def _naive_timelines(corpus, configs, window):
    """Fig 6 rows recomputed per AP from independent runs, sorting every series."""
    rows = []
    for category in corpus.categories():
        repos = sorted(corpus.by_category(category), key=lambda r: r.id)
        for config in configs:
            kept = [s for s in (simulate(r, config) for r in repos) if not s.excluded]
            before, after = {}, {}
            for sim in kept:
                merged = sorted(sim.real_times + sim.injected_times)
                for series, by_idx in ((sorted(sim.real_times), before), (merged, after)):
                    for idx, point in enumerate(timeline_from_times(series, window, config.alpha)):
                        by_idx.setdefault(idx, []).append(point.regular_pct)
            for idx in sorted(after):
                b = before.get(idx)
                rows.append(
                    simulator.TimelineRow(
                        category=category.value,
                        ap=config.acceptance_probability,
                        window_index=idx,
                        before_regular_pct=sum(b) / len(b) if b else None,
                        after_regular_pct=sum(after[idx]) / len(after[idx]),
                        n_repos=len(after[idx]),
                    )
                )
    return rows


@pytest.mark.parametrize("mode", sorted(MODES))
def test_simulate_corpus_matches_independent_runs(mode):
    window = 21 * DAY
    for seed in range(3):
        corpus = _sweep_corpus(seed)
        configs = [SimConfig(acceptance_probability=ap, seed=seed, window=window, **MODES[mode]) for ap in APS]
        table = simulate_corpus(corpus, configs)
        n_excluded = 0
        for category in corpus.categories():
            repos = sorted(corpus.by_category(category), key=lambda r: r.id)
            for config in configs:
                sims = table.results[(category.value, config.acceptance_probability)]
                assert len(sims) == len(repos)
                for repo, sim in zip(repos, sims):
                    alone = simulate(repo, config)
                    assert _fields(sim) == _fields(alone), (seed, repo.id, config.acceptance_probability)
                    n_excluded += sim.excluded
        assert n_excluded >= 2 * len(APS)  # the sparse and the burst repo at every AP
        assert list(table.timelines) == _naive_timelines(corpus, configs, window)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_each_run_carries_its_fig6_series(mode):
    def shares(times, config):
        return tuple(p.regular_pct for p in timeline_from_times(times, config.window, config.alpha))

    corpus = _sweep_corpus(7)
    for window in (9 * DAY, 40 * DAY):
        for ap in APS:
            config = SimConfig(acceptance_probability=ap, seed=7, window=window, **MODES[mode])
            for repo in corpus.repos:
                result = simulate(repo, config)
                before = simulator._before_side(repo, config)
                if result.excluded:
                    assert result.timeline == before.timeline == ()
                    continue
                merged = sorted(result.real_times + result.injected_times)
                assert result.timeline == shares(merged, config), (repo.id, ap)
                assert before.timeline == shares(result.real_times, config), repo.id
                assert result.timeline


@pytest.mark.parametrize("mode", sorted(MODES))
def test_injection_count_matches_the_replayed_times(mode):
    configs = [SimConfig(acceptance_probability=ap, seed=4, **MODES[mode]) for ap in APS]
    table = simulate_corpus(_sweep_corpus(4), configs)
    sims = [sim for group in table.results.values() for sim in group]
    assert all(sim.n_injected == len(sim.injected_times) for sim in sims)
    assert sum(sim.n_injected for sim in sims) > 0


@pytest.mark.parametrize("mode", sorted(MODES))
def test_ap_order_does_not_change_any_run(mode):
    # every AP reads the same before side; a run that changed it would make
    # the results depend on the order the APs run in
    corpus = _sweep_corpus(7)
    configs = [SimConfig(acceptance_probability=ap, seed=3, **MODES[mode]) for ap in APS]
    forward = simulate_corpus(corpus, configs)
    backward = simulate_corpus(corpus, configs[::-1])
    assert set(forward.results) == set(backward.results)
    for key, sims in forward.results.items():
        assert [_fields(s) for s in sims] == [_fields(s) for s in backward.results[key]]

    def by_key(table):
        return sorted(table.rows, key=lambda r: (r.category, r.ap)), sorted(
            table.timelines, key=lambda t: (t.category, t.ap, t.window_index)
        )

    assert by_key(forward) == by_key(backward)


def test_sweep_computes_each_before_side_once(monkeypatch):
    corpus = _sweep_corpus(4)
    configs = [SimConfig(acceptance_probability=ap, seed=1) for ap in APS]
    kept = [r for r in corpus.repos if not simulate(r, configs[0]).excluded]
    calls = {"classify_gaps": 0, "timeline_from_times": 0, "issues_by_time": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("classify_gaps", "timeline_from_times"):
        monkeypatch.setattr(simulator, name, counted(name, getattr(simulator, name)))
    monkeypatch.setattr(
        Repository, "issues_by_time", counted("issues_by_time", Repository.issues_by_time)
    )
    table = simulate_corpus(corpus, configs)
    # one before side per kept repo, one after side per kept repo and AP; the
    # after split is read from the notifier's own sorted gaps, not classified
    assert calls == {
        "classify_gaps": len(kept),
        "timeline_from_times": len(kept) * (1 + len(APS)),
        "issues_by_time": len(corpus.repos),
    }
    # reading the replayed event logs recomputes no before side
    for sims in table.results.values():
        for sim in sims:
            sim.events
    assert calls["classify_gaps"] == len(kept)
    assert calls["issues_by_time"] == len(corpus.repos)


# --- the after split read from the notifier's sorted gaps ------------------


def _repo_at(repo_id, created_at, times):
    owner = User("dev0", 0)
    issues = [Issue(f"{repo_id}#{k}", repo_id, owner, t) for k, t in enumerate(times)]
    return Repository(repo_id, Category.RANDOM, created_at, owner, (owner,), issues=issues)


def _band_edge_repo(rng, repo_id, period, alpha):
    """Whole-second openings, mostly ``period`` apart so the median stays
    ``period``, mixed with zero-gap ties and gaps of ``period -/+ alpha``."""
    times = [period * k for k in range(1, 5)]
    for _ in range(rng.randint(5, 40)):
        odd = rng.choice([period - alpha, period + alpha, 0, 0, rng.randint(1, 4 * period)])
        for gap in rng.sample([period, period, period, odd], 4):
            times.append(times[-1] + gap)
    config = SimConfig(
        acceptance_probability=0.0, iap=12 * period, horizon=2 * times[-1], alpha=alpha
    )
    return _repo_at(repo_id, 0, times), config


def _check_after_split(repo, config):
    """The after split and the injected split against classify_gaps and the
    sort-based banding of the merged series; returns the band-edge gaps seen."""
    result = simulate(repo, config)
    if result.excluded:
        return 0
    alpha = config.alpha
    merged = result.real_times + result.injected_times
    durations = gaps_from_times(merged)
    after = result.after
    assert after == classify_gaps(durations, alpha=alpha)[1]
    assert (after.dense_pct, after.regular_pct, after.dispersed_pct) == reference_distribution(
        durations, alpha
    )
    assert after.n_gaps == len(merged) - 1
    # at equal times a real opening precedes the injection
    tagged = sorted([(t, False) for t in result.real_times] + [(t, True) for t in result.injected_times])
    labels, _ = classify_gaps(gaps_from_times([t for t, _ in tagged]), alpha=alpha)
    injected = [label for label, (_, is_injected) in zip(labels, tagged[1:]) if is_injected]
    assert result.injected_only == (distribution_of(injected) if injected else None)

    times, _, final_idm, _, gaps = simulator._notify(simulator._before_side(repo, config), config)
    assert times == sorted(merged)
    assert gaps == sorted(d for d in gaps_from_times(times) if d > 0)
    assert final_idm == result.final_idm == sort_median_positive(durations)
    return sum(d in (final_idm - alpha, final_idm + alpha) for d in durations)


@pytest.mark.parametrize("mode", sorted(MODES))
def test_after_split_matches_classify_gaps_on_random_repos(mode):
    for seed in range(3):
        for repo in _sweep_corpus(seed).repos:
            for ap in APS:
                _check_after_split(repo, SimConfig(acceptance_probability=ap, seed=seed, **MODES[mode]))


@pytest.mark.parametrize("mode", sorted(MODES))
def test_after_split_matches_classify_gaps_on_band_edges(mode):
    rng = random.Random(31)
    edges = 0
    for n in range(40):
        period, alpha = rng.choice([(86_400, 21_600), (604_800, 86_400), (3600, 1)])
        repo, config = _band_edge_repo(rng, f"x/edge{n}", period, alpha)
        for ap in (0.0, 0.5, 1.0):
            edges += _check_after_split(
                repo, replace(config, acceptance_probability=ap, seed=n, **MODES[mode])
            )
    assert edges > 50


def test_after_split_keeps_zero_injected_gaps_dense_under_a_wide_band():
    # the band reaches below zero, and jittered fires clamp onto the last
    # opening, so zero-length injected gaps would fall inside it
    repo = periodic_repo("x/wide", n_issues=400)
    config = SimConfig(acceptance_probability=1.0, seed=0, jitter=3 * DAY, alpha=2 * DAY)
    _check_after_split(repo, config)
    result = simulate(repo, config)
    assert result.final_idm < config.alpha
    assert 0 < result.injected_only.dense_pct < 100.0


@pytest.mark.parametrize("mode", sorted(MODES))
def test_sweep_timelines_match_the_window_walk_oracle(mode, monkeypatch):
    series = []

    def recording(times, window, alpha):
        points = timeline_from_times(times, window, alpha)
        series.append((list(times), window, alpha, points))
        return points

    monkeypatch.setattr(simulator, "timeline_from_times", recording)
    configs = [SimConfig(acceptance_probability=ap, seed=2, window=21 * DAY, **MODES[mode]) for ap in APS]
    table = simulate_corpus(_sweep_corpus(5), configs)
    after_sides = {
        tuple(sorted(sim.real_times + sim.injected_times))
        for sims in table.results.values()
        for sim in sims
        if not sim.excluded
    }
    assert after_sides <= {tuple(times) for times, *_ in series}
    for times, window, alpha, points in series:
        got = [(p.window_start, p.regular_pct, p.n_gaps) for p in points]
        assert got == reference_timeline(times, window, alpha)
