import itertools
import math
import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gapextremes import oracle_suite
from gapextremes.limit_laws import LimitLawParams, joint_counts_pmf
from gapextremes.limit_oracle import sample_limit_counts, sample_limit_maxima_locations
from gapextremes.oracle_suite import (
    COUNT_LEVELS,
    COUNT_SETTINGS,
    MAXIMA_PARAMS,
    MAXIMA_ST_GRID,
    MAXIMA_XY_GRID,
    counts_suite,
    maxima_suite,
)
from gapextremes.streams import substream
from pairs import pair_cdf
from reference import overall_loc


def test_counts_suite_theory_equals_scalar_pmf_exactly():
    settings = {
        f"g{gamma:g}-{law.describe()}-m{measure:g}": (LimitLawParams(gamma, law), measure)
        for gamma, law, measure in COUNT_SETTINGS
    }
    y_level, x_level = COUNT_LEVELS
    rows = counts_suite(samples=20000, seed=1)
    assert rows
    for row in rows:
        match = re.fullmatch(r"counts\[(.*)\]\((\d+),(\d+),(\d+),(\d+)\)", row.check_id)
        label, cell = match.group(1), [int(k) for k in match.group(2, 3, 4, 5)]
        params, measure = settings[label]
        assert type(row.theory) is float
        assert row.theory == joint_counts_pmf(params, measure, x_level, y_level, *cell)


def test_maxima_suite_heights_equal_scalar_calls_exactly():
    rows = [row for row in maxima_suite(samples=20000, seed=1) if row.check_id.startswith("heights")]
    assert len(rows) == 81
    for row in rows:
        s, t, x, y = map(float, re.fullmatch(r"heights\((.*)\)", row.check_id).group(1).split(","))
        assert type(row.theory) is float
        assert row.theory == pair_cdf(MAXIMA_PARAMS, "obs_missed", s, t, x, y)


def test_counts_suite_hits_equal_a_mask_tally_of_the_same_draws():
    samples, seed = 20000, 1
    # the suite's thresholds at this size: min_prob floored at 25 / samples
    min_prob = max(1e-4, 25.0 / samples)
    support_floor = max(5, int(samples * min_prob * 0.25))
    rows = {row.check_id: row for row in counts_suite(samples=samples, seed=seed)}
    y_level, x_level = COUNT_LEVELS
    checked = 0
    for idx, (gamma, law, measure) in enumerate(COUNT_SETTINGS):
        params = LimitLawParams(gamma, law)
        stream = substream(seed, idx, "oracle-counts")
        observed, missed = sample_limit_counts(params, measure, COUNT_LEVELS, stream, size=samples)
        # (observed@x, missed@x, observed@y, missed@y) per draw
        columns = (observed[1], missed[1], observed[0], missed[0])
        label = f"g{gamma:g}-{law.describe()}-m{measure:g}"
        for check_id, row in rows.items():
            match = re.fullmatch(r"counts\[(.*)\]\((\d+),(\d+),(\d+),(\d+)\)", check_id)
            if match.group(1) != label:
                continue
            cell = [int(k) for k in match.group(2, 3, 4, 5)]
            mask = np.ones(samples, dtype=bool)
            for column, k in zip(columns, cell):
                mask &= column == k
            hits = np.count_nonzero(mask)
            assert hits >= support_floor
            assert row.empirical * samples == pytest.approx(hits, abs=1e-6)
            checked += 1
        # every cell at or above the support floor whose limit probability
        # reaches min_prob has a row
        for cell, hits in Counter(zip(*(column.tolist() for column in columns))).items():
            if hits >= support_floor and joint_counts_pmf(params, measure, x_level, y_level,
                                                           *cell) >= min_prob:
                assert f"counts[{label}]({','.join(map(str, cell))})" in rows
    assert checked == len(rows) > 0


def _mask_hits(draws):
    """Hits of every maxima_suite row, by one boolean mask per threshold
    over the (observed_max, missed_max, observed_loc, missed_loc) draws."""
    observed_max, missed_max, observed_loc, missed_loc = draws
    hits = {}
    for s, t, x, y in itertools.product(MAXIMA_ST_GRID, MAXIMA_ST_GRID, MAXIMA_XY_GRID,
                                        MAXIMA_XY_GRID):
        mask = (observed_loc <= s) & (missed_loc <= t) & (observed_max <= x) & (missed_max <= y)
        hits[f"heights({s},{t},{x},{y})"] = np.count_nonzero(mask)
    locs = {"observed": observed_loc, "missed": missed_loc, "all": overall_loc(draws)}
    pairs = {"obs_missed": ("observed", "missed"), "obs_all": ("observed", "all"),
             "missed_all": ("missed", "all")}
    for (pair, (first, second)), s, t in itertools.product(pairs.items(), MAXIMA_ST_GRID,
                                                           MAXIMA_ST_GRID):
        hits[f"locations[{pair}]({s},{t})"] = np.count_nonzero((locs[first] <= s)
                                                               & (locs[second] <= t))
    return hits


def _assert_hits_equal(rows, hits, samples):
    assert [row.check_id for row in rows] == list(hits)
    for row in rows:
        assert row.samples == samples
        assert row.empirical * samples == pytest.approx(hits[row.check_id], abs=1e-6)


def test_maxima_suite_hits_equal_a_mask_tally_of_the_same_draws():
    samples, seed = 20000, 1
    draws = sample_limit_maxima_locations(MAXIMA_PARAMS, substream(seed, 0, "oracle-maxima"),
                                          size=samples)
    hits = _mask_hits(draws)
    assert len(hits) == 81 + 27
    _assert_hits_equal(maxima_suite(samples=samples, seed=seed), hits, samples)


def test_maxima_suite_tally_at_grid_points_and_beyond(monkeypatch):
    # every combination of locations and heights on, between and above
    # the grid points, with -inf heights (an empty class) and tied maxima
    locs = (0.1, 0.25, 0.5, 0.6, 0.75, 1.0)
    tops = (-math.inf, -0.5, 0.0, 0.3, 1.2, 3.0)
    draws = tuple(np.array(column) for column in zip(*itertools.product(tops, tops, locs, locs)))
    monkeypatch.setattr(oracle_suite, "sample_limit_maxima_locations",
                        lambda params, stream, size: draws)
    samples = draws[0].size
    hits = _mask_hits(draws)
    assert 0 < min(hits.values()) and max(hits.values()) < samples
    _assert_hits_equal(maxima_suite(samples=samples, seed=1), hits, samples)


def test_left_bin_is_searchsorted_left():
    grid = (-0.5, 0.3, 1.2)
    v = np.array([-math.inf, -1.0, -0.5, 0.0, 0.3, 0.31, 1.2, 5.0, math.inf, math.nan])
    assert np.array_equal(oracle_suite._left_bin(v, grid), np.searchsorted(grid, v, side="left"))


@pytest.mark.parametrize("value", [1 << 15, -1], ids=["key-width", "negative"])
@pytest.mark.parametrize("field, level", [("observed", 0), ("observed", 1), ("missed", 0),
                                          ("missed", 1)])
def test_counts_suite_refuses_counts_outside_the_key(monkeypatch, field, level, value):
    # one such count would spill into its neighbour's bits of the packed key
    def sampler(params, measure, levels, stream, size):
        counts = {"observed": np.zeros((2, size), dtype=np.int64),
                  "missed": np.zeros((2, size), dtype=np.int64)}
        counts[field][level, 0] = value
        return counts["observed"], counts["missed"]

    monkeypatch.setattr(oracle_suite, "sample_limit_counts", sampler)
    with pytest.raises(ValueError):
        counts_suite(samples=1000, seed=1)


@pytest.mark.parametrize("suite", [counts_suite, maxima_suite])
def test_suite_memory_is_about_the_draws(suite):
    # a batch's draws take 48 bytes per sample in either suite; the bound
    # leaves room for one tally's working arrays, not for a second batch
    # or for a stacked copy of the counts and its raveled index
    samples = 200_000
    tracemalloc.start()
    try:
        assert suite(samples=samples, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * samples, peak / samples
