"""Equivalence suites pitting the closed-form evaluators against the
brute-force limit samplers.

``counts_suite`` checks the joint count pmf cell by cell against the
empirical distribution of the thinning sampler, evaluating all cells of a
setting in one batch; ``maxima_suite`` checks the locations-and-heights
laws against the Gumbel-race sampler.  Both are deterministic given
(samples, seed) and report one z-scored row per checked quantity.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .harness import compare_estimates, estimate_from_count
from .lambdalaw import LambdaLaw
from .limit_laws import (
    LimitLawParams,
    joint_counts_pmf_batch,
    locations_heights_cdf,
)
from .limit_oracle import sample_limit_counts, sample_limit_maxima_locations
from .streams import substream

__all__ = ["CheckRow", "COUNT_SETTINGS", "counts_suite", "maxima_suite"]


@dataclass(frozen=True)
class CheckRow:
    check_id: str
    samples: int
    empirical: float
    theory: float
    z: float
    passed: bool


def _check(check_id: str, hits: int, theory: float, n: int, sigma: float) -> CheckRow:
    est = estimate_from_count(check_id, hits, n)
    z, passed = compare_estimates(est, theory, sigma)
    return CheckRow(check_id, n, est.p_hat, theory, z, passed)


#: (gamma, lambda law, family measure) — covers every gamma, law and
#: measure the count-pmf machinery branches on, at levels x=1 > y=0
COUNT_SETTINGS = (
    (0.0, LambdaLaw.point(0.5), 1.0),
    (0.0, LambdaLaw.uniform(0.0, 1.0), 0.5),
    (0.5, LambdaLaw.beta(2.0, 2.0), 1.0),
    (0.5, LambdaLaw.point(0.5), 0.5),
    (1.0, LambdaLaw.uniform(0.0, 1.0), 1.0),
    (1.0, LambdaLaw.beta(2.0, 2.0), 0.5),
)

COUNT_LEVELS = (0.0, 1.0)  # y (low), x (high)


#: cells per count of a joint cell (observed@x, missed@x, observed@y,
#: missed@y): its C-order index is the four 15-bit counts packed in an int64
_COUNT_DIMS = (1 << 15,) * 4


def _cell_index(columns, dims) -> np.ndarray:
    """Each draw's C-order index over ``dims`` cells, formed in place over
    the first of its integer columns, one per axis; a generator's columns
    are freed one by one, as soon as each is added."""
    columns = iter(columns)
    index = next(columns)
    for dim in dims[1:]:
        index *= dim
        index += next(columns)
    return index


def counts_suite(
    samples: int = 1_000_000,
    seed: int = 0,
    sigma: float = 4.0,
    min_prob: float = 1e-4,
) -> list[CheckRow]:
    """Cellwise pmf agreement for every setting in COUNT_SETTINGS.

    Every joint count cell with limit probability >= ``min_prob`` is
    checked within ``sigma`` binomial standard errors.  Candidate cells
    come from the empirical support: a cell of probability min_prob is
    expected ``samples * min_prob`` times, so requiring a quarter of that
    cannot lose a qualifying cell in any realistic draw.

    Below 25 expected hits the normal approximation behind the z-score
    breaks down, so ``min_prob`` is floored at 25 / samples; at the
    standard contract size of 1e6 samples the floor is inactive.
    """
    rows = []
    min_prob = max(min_prob, 25.0 / samples)
    support_floor = max(5, int(samples * min_prob * 0.25))
    y_level, x_level = COUNT_LEVELS
    for idx, (gamma, law, measure) in enumerate(COUNT_SETTINGS):
        params = LimitLawParams(gamma, law)
        stream = substream(seed, idx, "oracle-counts")
        observed, missed = sample_limit_counts(params, measure, COUNT_LEVELS, stream, size=samples)
        # a count outside the key width would spill into its neighbour's cell
        if not all(0 <= c.min() and c.max() < _COUNT_DIMS[0] for c in (observed, missed)):
            raise ValueError(f"cell counts must lie in [0, {_COUNT_DIMS[0] - 1}]")
        keys = _cell_index((observed[1], missed[1], observed[0], missed[0]), _COUNT_DIMS)
        del observed, missed  # the keys hold the observed rows only
        uniq, counts = np.unique(keys, return_counts=True)
        del keys  # before the next setting's draws
        keep = counts >= support_floor
        label = f"g{gamma:g}-{law.describe()}-m{measure:g}"
        candidates = np.column_stack(np.unravel_index(uniq[keep], _COUNT_DIMS))
        theories = joint_counts_pmf_batch(params, measure, x_level, y_level, candidates)
        for (k1, k2, k3, k4), hits, theory in zip(candidates, counts[keep], theories):
            if theory < min_prob:
                continue
            rows.append(_check(f"counts[{label}]({k1},{k2},{k3},{k4})", int(hits), float(theory),
                               samples, sigma))
    return rows


def _left_bin(v: np.ndarray, grid) -> np.ndarray:
    """``np.searchsorted(grid, v, side="left")`` without a binary search
    per draw: v <= grid[i] exactly when the bin is <= i (NaN tops all)."""
    bins = np.full(v.shape, len(grid))
    for point in grid:
        bins -= v <= point
    return bins


def _tally_below(columns):
    """Draws at or below each grid point of (values, grid) columns: cell
    counts over the left bins, cumulated along every axis.  An axis has one
    more entry than its grid, and its last entry leaves that column free."""
    dims = tuple(len(grid) + 1 for _, grid in columns)
    index = _cell_index((_left_bin(v, grid) for v, grid in columns), dims)
    below = np.bincount(index, minlength=math.prod(dims)).reshape(dims)
    for axis in range(len(dims)):
        below = below.cumsum(axis)
    return below


MAXIMA_PARAMS = LimitLawParams(0.5, LambdaLaw.beta(2.0, 3.0))
MAXIMA_ST_GRID = (0.25, 0.5, 0.75)
MAXIMA_XY_GRID = (-0.5, 0.3, 1.2)


def maxima_suite(
    samples: int = 1_000_000, seed: int = 0, sigma: float = 4.0
) -> list[CheckRow]:
    """Locations-and-heights grid of the two classes plus the location-only
    law of every two of the three classes."""
    params = MAXIMA_PARAMS
    stream = substream(seed, 0, "oracle-maxima")
    observed_max, missed_max, observed_loc, missed_loc = sample_limit_maxima_locations(
        params, stream, size=samples)
    rows = []

    # draws at or below each (s, t, x, y) grid point
    below = _tally_below(((observed_loc, MAXIMA_ST_GRID), (missed_loc, MAXIMA_ST_GRID),
                          (observed_max, MAXIMA_XY_GRID), (missed_max, MAXIMA_XY_GRID)))
    # one height integral per (x, y), shared by the whole (s, t) grid
    s_grid, t_grid = np.meshgrid(MAXIMA_ST_GRID, MAXIMA_ST_GRID, indexing="ij")
    heights = {
        (x, y): locations_heights_cdf(params, {"observed": s_grid, "missed": t_grid},
                                      {"observed": x, "missed": y})
        for x in MAXIMA_XY_GRID
        for y in MAXIMA_XY_GRID
    }
    for (i, s), (j, t), (k, x), (l, y) in itertools.product(
            enumerate(MAXIMA_ST_GRID), enumerate(MAXIMA_ST_GRID), enumerate(MAXIMA_XY_GRID),
            enumerate(MAXIMA_XY_GRID)):
        rows.append(_check(f"heights({s},{t},{x},{y})", int(below[i, j, k, l]),
                           float(heights[x, y][i, j]), samples, sigma))

    overall_loc = np.where(observed_max >= missed_max, observed_loc, missed_loc)
    del observed_max, missed_max
    # draws with the observed, missed and overall locations at or below
    # each grid point; the last index of an axis leaves that class free
    below = _tally_below(((observed_loc, MAXIMA_ST_GRID), (missed_loc, MAXIMA_ST_GRID),
                          (overall_loc, MAXIMA_ST_GRID)))
    pairs = {"obs_missed": (("observed", "missed"), below[:, :, -1]),
             "obs_all": (("observed", "all"), below[:, -1, :]),
             "missed_all": (("missed", "all"), below[-1, :, :])}
    for pair, ((first, second), hits) in pairs.items():
        # the location-only law: no heights
        locations = locations_heights_cdf(params, {first: s_grid, second: t_grid}, {})
        for (i, s), (j, t) in itertools.product(enumerate(MAXIMA_ST_GRID), repeat=2):
            rows.append(_check(f"locations[{pair}]({s},{t})", int(hits[i, j]),
                               float(locations[i, j]), samples, sigma))
    return rows
