"""Gap extraction, the inter-issue median, and Dense/Regular/Dispersed banding."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ghreview.temporal import (
    ALPHA_DEFAULT,
    InsufficientDataError,
    Label,
    classify_duration,
    classify_gaps,
    gaps_from_times,
    idm,
    issue_gaps,
    timeline_from_times,
)
from ghreview.models import Category, Issue, Repository, User
from ghreview.units import DAY, HOUR
from reference_sim import reference_distribution, reference_timeline, sort_median_positive

BASE = 1_600_000_000


# --- gap extraction --------------------------------------------------------


def test_gaps_from_times_sorts_first():
    assert gaps_from_times([30.0, 10.0, 20.0]) == [10.0, 10.0]


def test_gaps_of_singleton_and_empty():
    assert gaps_from_times([5.0]) == []
    assert gaps_from_times([]) == []


def test_fixture_gap_series(tiny_corpus):
    a, b, c = tiny_corpus.repos
    assert issue_gaps(a) == [10 * DAY, 20 * DAY, 30 * DAY, 50 * DAY]
    assert issue_gaps(b) == [15 * DAY, 30 * DAY, 40 * DAY]
    assert issue_gaps(c) == [30 * DAY, 40 * DAY]
    # two issues opened in the same second keep their zero gap, in opening order
    owner = User("dev0")
    times = [BASE + 3 * DAY, BASE + DAY, BASE, BASE + DAY]
    issues = [Issue(f"x/y#{k}", "x/y", owner, t) for k, t in enumerate(times)]
    tied = Repository("x/y", Category.RANDOM, BASE, owner, issues=issues)
    assert issue_gaps(tied) == [DAY, 0.0, 2 * DAY]


# --- median ----------------------------------------------------------------


def test_fixture_idm(tiny_corpus):
    a, b, c = tiny_corpus.repos
    assert idm(issue_gaps(a)) == 25 * DAY
    assert idm(issue_gaps(b)) == 30 * DAY
    assert idm(issue_gaps(c)) == 35 * DAY


def test_median_ignores_zero_gaps():
    assert idm([0.0, 0.0, 4.0, 8.0]) == 6.0


def test_median_requires_a_positive_gap():
    with pytest.raises(InsufficientDataError):
        idm([0.0, 0.0])
    with pytest.raises(InsufficientDataError):
        idm([])


def test_idm_matches_sort_oracle_over_seeds():
    for seed in range(200):
        rng = random.Random(seed)
        n = rng.randint(1, 60)
        gaps = [rng.choice([0.0, rng.uniform(1, 5_000_000)]) for _ in range(n)]
        if not any(g > 0 for g in gaps):
            gaps.append(rng.uniform(1, 10))
        assert idm(gaps) == sort_median_positive(gaps)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
        min_size=1,
        max_size=80,
    )
)
def test_idm_property_matches_sort_oracle(gaps):
    if not any(g > 0 for g in gaps):
        with pytest.raises(InsufficientDataError):
            idm(gaps)
    else:
        assert idm(gaps) == sort_median_positive(gaps)


# --- banding ---------------------------------------------------------------


def test_classify_duration_band_edges():
    median, alpha = 100.0, 6.0
    assert classify_duration(94.0, median, alpha) is Label.REGULAR
    assert classify_duration(106.0, median, alpha) is Label.REGULAR
    assert classify_duration(93.999, median, alpha) is Label.DENSE
    assert classify_duration(106.001, median, alpha) is Label.DISPERSED
    assert classify_duration(0.0, median, alpha) is Label.DENSE


def test_fixture_distributions(tiny_corpus):
    a, b, c = tiny_corpus.repos
    labels_a, dist_a = classify_gaps(issue_gaps(a))
    assert [l.value for l in labels_a] == ["Dense", "Dense", "Dispersed", "Dispersed"]
    assert (dist_a.dense_pct, dist_a.regular_pct, dist_a.dispersed_pct) == (50.0, 0.0, 50.0)

    labels_b, dist_b = classify_gaps(issue_gaps(b))
    assert [l.value for l in labels_b] == ["Dense", "Regular", "Dispersed"]
    assert dist_b.dense_pct == pytest.approx(100 / 3)
    assert dist_b.regular_pct == pytest.approx(100 / 3)

    _, dist_c = classify_gaps(issue_gaps(c))
    assert (dist_c.dense_pct, dist_c.regular_pct, dist_c.dispersed_pct) == (50.0, 0.0, 50.0)


def test_distribution_matches_independent_banding():
    for seed in range(150):
        rng = random.Random(1000 + seed)
        gaps = [rng.choice([0.0, rng.expovariate(1 / (3 * DAY))]) for _ in range(rng.randint(1, 50))]
        if not any(g > 0 for g in gaps):
            gaps[0] = DAY
        _, dist = classify_gaps(gaps)
        expected = reference_distribution(gaps, ALPHA_DEFAULT)
        assert dist.dense_pct == pytest.approx(expected[0], abs=1e-9)
        assert dist.regular_pct == pytest.approx(expected[1], abs=1e-9)
        assert dist.dispersed_pct == pytest.approx(expected[2], abs=1e-9)
        assert dist.dense_pct + dist.regular_pct + dist.dispersed_pct == pytest.approx(100.0, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    gaps=st.lists(st.floats(min_value=0, max_value=90 * DAY, allow_nan=False), min_size=1, max_size=40),
    alpha_hours=st.floats(min_value=0.5, max_value=48),
)
def test_every_label_respects_the_band(gaps, alpha_hours):
    if not any(g > 0 for g in gaps):
        gaps = gaps + [DAY]
    alpha = alpha_hours * HOUR
    labels, _ = classify_gaps(gaps, alpha=alpha)
    median = sort_median_positive(gaps)
    for duration, label in zip(gaps, labels):
        if duration == 0:
            assert label is Label.DENSE
        elif duration < median - alpha:
            assert label is Label.DENSE
        elif duration > median + alpha:
            assert label is Label.DISPERSED
        else:
            assert label is Label.REGULAR


# --- timeline --------------------------------------------------------------


def test_fixture_timeline(tiny_corpus):
    a = tiny_corpus.repos[0]
    points = timeline_from_times([i.created_at for i in a.issues], window=30 * DAY)
    got = [((p.window_start - BASE) / DAY, p.regular_pct, p.n_gaps) for p in points]
    assert got == [(10.0, 100.0, 1), (40.0, 0.0, 1), (70.0, 0.0, 1), (100.0, 0.0, 1)]


def test_timeline_needs_two_openings():
    assert timeline_from_times([BASE], 30 * DAY) == []
    assert timeline_from_times([], 30 * DAY) == []


def test_timeline_gap_on_boundary_rolls_to_next_window():
    # one gap of exactly one window: its endpoint defines a second window
    times = [0.0, 30 * DAY]
    points = timeline_from_times(times, 30 * DAY)
    assert len(points) == 1
    assert points[0].window_start == 30 * DAY
    assert points[0].regular_pct == 100.0  # single gap equals its own median


def test_timeline_periodic_series_is_regular_after_warmup():
    times = [k * DAY for k in range(40)]
    points = timeline_from_times(times, 7 * DAY)
    assert all(p.regular_pct == 100.0 for p in points)
    assert sum(p.n_gaps for p in points) == 39


def test_timeline_expanding_median_uses_history():
    # three tight gaps seed a 1 d median; the later 10 d gap is judged
    # against that history, not against its own window alone
    times = [0.0, DAY, 2 * DAY, 3 * DAY, 13 * DAY]
    points = timeline_from_times(times, 5 * DAY, alpha=6 * HOUR)
    assert [p.n_gaps for p in points] == [3, 1]
    assert points[0].regular_pct == 100.0
    assert points[1].regular_pct == 0.0


def test_timeline_counts_every_gap_once():
    rng = random.Random(7)
    for _ in range(40):
        times = sorted(rng.uniform(0, 400 * DAY) for _ in range(rng.randint(2, 60)))
        points = timeline_from_times(times, 30 * DAY)
        assert sum(p.n_gaps for p in points) == len(times) - 1


def _points(times, window, alpha=ALPHA_DEFAULT):
    return [(p.window_start, p.regular_pct, p.n_gaps) for p in timeline_from_times(times, window, alpha)]


def test_timeline_matches_window_walk_oracle():
    rng = random.Random(11)
    for _ in range(150):
        times = [rng.uniform(0, 400 * DAY) for _ in range(rng.randint(0, 60))]
        window = rng.choice([DAY, 7 * DAY, 30 * DAY, rng.uniform(0.5 * DAY, 60 * DAY)])
        alpha = rng.choice([ALPHA_DEFAULT, HOUR, 3 * DAY])
        assert _points(times, window, alpha) == reference_timeline(times, window, alpha)


def test_timeline_oracle_on_zero_gap_ties():
    rng = random.Random(12)
    for _ in range(150):
        # few distinct days, so bursts of equal openings are common, some
        # of them before any positive gap exists
        times = [BASE + rng.randint(0, 12) * DAY for _ in range(rng.randint(2, 40))]
        window = rng.choice([DAY, 2 * DAY, 5 * DAY])
        assert _points(times, window) == reference_timeline(times, window, ALPHA_DEFAULT)


def test_timeline_oracle_on_window_boundaries():
    rng = random.Random(13)
    for _ in range(150):
        # every opening is a whole number of windows from the first, so
        # every gap ends exactly on a window close
        window = rng.choice([1.0, 3.0, DAY, 7 * DAY])
        times = [BASE + rng.randint(0, 30) * window for _ in range(rng.randint(2, 40))]
        alpha = rng.choice([0.0, ALPHA_DEFAULT])
        assert _points(times, window, alpha) == reference_timeline(times, window, alpha)


@pytest.mark.parametrize(
    "alpha",
    [0.0, -HOUR, -30 * DAY, 1000 * DAY, float("nan")],
    ids=["zero", "negative", "very-negative", "beyond-median", "nan"],
)
def test_timeline_oracle_on_degenerate_alpha(alpha):
    # a negative or NaN alpha leaves the band empty; one beyond the median
    # takes in every positive gap below it, but never a zero gap
    rng = random.Random(15)
    for _ in range(100):
        times = [BASE + rng.choice([0, rng.randint(0, 60)]) * DAY for _ in range(rng.randint(2, 40))]
        window = rng.choice([DAY, 7 * DAY, 30 * DAY])
        assert _points(times, window, alpha) == reference_timeline(times, window, alpha)


def test_timeline_cost_follows_gaps_not_windows():
    # the last gap ends about 10**12 one-second windows after the first opening
    assert _points([0.0, 1.0, 2.0, 1e12], 1.0) == [(1.0, 100.0, 1), (2.0, 100.0, 1), (1e12, 0.0, 1)]


def test_timeline_oracle_below_float_resolution():
    # near 1.6e9 s adjacent floats are 2**-22 s apart, so window closes
    # computed from sub-resolution windows round onto a staircase, and a
    # close can round back onto the gap end it should lie beyond
    assert _points([1.6e9, 1.6e9], 1e-7) == [(1.6e9, 0.0, 1)]
    rng = random.Random(14)
    for _ in range(60):
        times = [1.6e9 + rng.randint(0, 40) * 2.0**-22 for _ in range(rng.randint(2, 30))]
        window = rng.choice([1e-8, 1e-7, 3e-7])
        assert _points(times, window, 0.0) == reference_timeline(times, window, 0.0)


# --- the inline Regular band against classify_duration ---------------------


def _band_edge_durations(rng):
    """Random durations and zero gaps, plus gaps exactly at the median's band edges.

    One edge below and one above the median leave the median unchanged.
    """
    durations = [rng.choice([0.0, 0.0, rng.uniform(1, 90) * HOUR]) for _ in range(rng.randint(1, 40))]
    durations.append(rng.uniform(1, 90) * HOUR)
    median = sort_median_positive(durations)
    alpha = min(rng.choice([ALPHA_DEFAULT, HOUR, 2 * DAY]), median / 2)
    for _ in range(rng.randint(1, 3)):
        durations.insert(rng.randint(0, len(durations)), median - alpha)
        durations.insert(rng.randint(0, len(durations)), median + alpha)
    return durations, alpha


def test_classify_gaps_matches_classify_duration_gap_by_gap():
    rng = random.Random(21)
    for _ in range(300):
        durations, alpha = _band_edge_durations(rng)
        median = idm(durations)
        labels, dist = classify_gaps(durations, alpha=alpha)
        assert labels == [classify_duration(d, median, alpha) for d in durations]
        edges = [label for d, label in zip(durations, labels) if d in (median - alpha, median + alpha)]
        assert edges and all(label is Label.REGULAR for label in edges)
        assert dist.regular_pct == 100.0 * labels.count(Label.REGULAR) / len(labels)


def _band_edge_times(rng, period, alpha):
    """Openings whose every prefix is mostly ``period`` gaps, so the running
    median stays ``period`` and gaps of ``period -/+ alpha`` sit on the band
    edges; zero gaps and other gaps are mixed in.  Whole seconds keep every
    gap exact."""
    times = [BASE, BASE + period, BASE + 2 * period, BASE + 3 * period]
    for _ in range(rng.randint(1, 30)):
        odd = rng.choice([period - alpha, period + alpha, 0, rng.randint(1, 4 * period)])
        for gap in rng.sample([period, period, period, odd], 4):
            times.append(times[-1] + gap)
    return times


def _check_timeline_against_classify_duration(times, window, alpha):
    """Band every window's gaps with classify_duration; returns the band-edge gaps seen."""
    gaps = gaps_from_times(times)
    ended = edges = 0
    for point in timeline_from_times(times, window, alpha):
        in_window = gaps[ended : ended + point.n_gaps]
        ended += point.n_gaps
        regular = 0
        if any(d > 0 for d in gaps[:ended]):
            median = sort_median_positive(gaps[:ended])
            labels = [classify_duration(d, median, alpha) for d in in_window]
            regular = labels.count(Label.REGULAR)
            edges += sum(d in (median - alpha, median + alpha) for d in in_window)
        assert point.regular_pct == 100.0 * regular / point.n_gaps
    assert ended == len(gaps)
    return edges


def test_timeline_band_matches_classify_duration_on_band_edges():
    rng = random.Random(22)
    edges = 0
    for _ in range(150):
        period, alpha = rng.choice([(86_400, 21_600), (604_800, 86_400), (3600, 1)])
        times = _band_edge_times(rng, period, alpha)
        window = rng.choice([period, 3 * period, 10 * period])
        edges += _check_timeline_against_classify_duration(times, window, alpha)
        assert _points(times, window, alpha) == reference_timeline(times, window, alpha)
    assert edges > 100


def test_timeline_band_matches_classify_duration_on_random_series():
    rng = random.Random(23)
    for _ in range(150):
        times = [BASE + rng.choice([0, rng.randint(0, 200 * 86_400)]) for _ in range(rng.randint(2, 60))]
        alpha = rng.choice([ALPHA_DEFAULT, HOUR, 3 * DAY])
        _check_timeline_against_classify_duration(times, rng.choice([DAY, 7 * DAY, 30 * DAY]), alpha)


@pytest.mark.parametrize("window", [0.0, -DAY, float("nan")])
def test_timeline_rejects_non_positive_window(window):
    with pytest.raises(ValueError):
        timeline_from_times([0.0, DAY], window)
