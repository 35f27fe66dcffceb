"""Equivalence suites pitting the closed-form evaluators against the
brute-force limit samplers.

``counts_suite`` checks the joint count pmf cell by cell against the
empirical distribution of the thinning sampler, evaluating all cells of a
setting in one batch; ``maxima_suite`` checks the locations-and-heights
laws against the Gumbel-race sampler.  Both are deterministic given
(samples, seed) and report one z-scored row per checked quantity.
"""
from __future__ import annotations

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
        batch = sample_limit_counts(params, measure, COUNT_LEVELS, stream, size=samples)
        # joint cells (observed@x, missed@x, observed@y, missed@y)
        cells = np.stack([batch.observed[1], batch.missed[1], batch.observed[0], batch.missed[0]])
        keys = np.ravel_multi_index(cells, (1 << 15,) * 4, mode="raise")
        uniq, counts = np.unique(keys, return_counts=True)
        keep = counts >= support_floor
        label = f"g{gamma:g}-{law.describe()}-m{measure:g}"
        candidates = np.stack(np.unravel_index(uniq[keep], (1 << 15,) * 4), axis=1)
        theories = joint_counts_pmf_batch(params, measure, x_level, y_level, candidates)
        for (k1, k2, k3, k4), hits, theory in zip(candidates, counts[keep], theories):
            if theory < min_prob:
                continue
            rows.append(
                _check(
                    f"counts[{label}]({k1},{k2},{k3},{k4})",
                    int(hits),
                    float(theory),
                    samples,
                    sigma,
                )
            )
    return rows


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
    batch = sample_limit_maxima_locations(params, stream, size=samples)
    rows = []

    s_hits = {s: batch.observed_loc <= s for s in MAXIMA_ST_GRID}
    t_hits = {t: batch.missed_loc <= t for t in MAXIMA_ST_GRID}
    x_hits = {x: batch.observed_max <= x for x in MAXIMA_XY_GRID}
    y_hits = {y: batch.missed_max <= y for y in MAXIMA_XY_GRID}
    # one height integral per (x, y), shared by the whole (s, t) grid
    s_grid, t_grid = np.meshgrid(MAXIMA_ST_GRID, MAXIMA_ST_GRID, indexing="ij")
    heights = {
        (x, y): locations_heights_cdf(params, {"observed": s_grid, "missed": t_grid},
                                      {"observed": x, "missed": y})
        for x in MAXIMA_XY_GRID
        for y in MAXIMA_XY_GRID
    }
    for i, s in enumerate(MAXIMA_ST_GRID):
        for j, t in enumerate(MAXIMA_ST_GRID):
            for x in MAXIMA_XY_GRID:
                for y in MAXIMA_XY_GRID:
                    hits = np.count_nonzero(s_hits[s] & t_hits[t] & x_hits[x] & y_hits[y])
                    theory = float(heights[x, y][i, j])
                    rows.append(
                        _check(f"heights({s},{t},{x},{y})", hits, theory, samples, sigma)
                    )

    locs = {"observed": batch.observed_loc, "missed": batch.missed_loc, "all": batch.overall_loc}
    pairs = {"obs_missed": ("observed", "missed"), "obs_all": ("observed", "all"),
             "missed_all": ("missed", "all")}
    for pair, (first, second) in pairs.items():
        # the location-only law: no heights
        locations = locations_heights_cdf(params, {first: s_grid, second: t_grid}, {})
        for i, s in enumerate(MAXIMA_ST_GRID):
            for j, t in enumerate(MAXIMA_ST_GRID):
                hits = np.count_nonzero((locs[first] <= s) & (locs[second] <= t))
                theory = float(locations[i, j])
                rows.append(_check(f"locations[{pair}]({s},{t})", hits, theory, samples, sigma))
    return rows
