"""Direct simulation of the limiting exceedance objects.

Instead of simulating finite paths, draw the limit itself: a fraction
``lambda``, a factor ``xi``, and then conditionally independent Poisson
counts (or Gumbel-located maxima) with the intensities the closed-form
evaluators integrate over.  Sampling here shares no code path with the
quadrature evaluators, so agreement between the two is a genuine
cross-check.

Counts across levels are coupled by binomial thinning: raising the level
from x to x' keeps each point independently with probability
g(x', z) / g(x, z) = exp(-(x' - x)), a constant, so the nested-count
structure of the limit holds pathwise by construction.  Count events over
several interval families are sampled, as points of the limiting
processes, by ``count_event_hits`` in ``tests/reference.py``.
"""
from __future__ import annotations

from dataclasses import dataclass

import math
import numpy as np

from .errors import InvalidParameterError
from .limit_laws import LimitLawParams, g_intensity

__all__ = [
    "LimitSample",
    "sample_limit_counts",
    "sample_limit_maxima_locations",
]


@dataclass(frozen=True)
class LimitSample:
    """A batch of draws from the limit; count fields are (n_levels, size)
    and every other array is (size,).  Fields not produced by the sampler
    that built the batch are None."""

    lam: np.ndarray
    xi: np.ndarray
    observed: np.ndarray | None = None
    missed: np.ndarray | None = None
    observed_max: np.ndarray | None = None
    missed_max: np.ndarray | None = None
    observed_loc: np.ndarray | None = None
    missed_loc: np.ndarray | None = None

    @property
    def overall_loc(self) -> np.ndarray:
        return np.where(self.observed_max >= self.missed_max, self.observed_loc, self.missed_loc)


def _draw_latents(params: LimitLawParams, stream: np.random.Generator, size: int):
    lam = np.asarray(params.lambda_law.sample(stream, size), dtype=float)
    xi = stream.standard_normal(size)
    return lam, xi


def sample_limit_counts(
    params: LimitLawParams,
    measure: float,
    levels,
    stream: np.random.Generator,
    size: int = 1,
) -> LimitSample:
    """Joint observed/missed exceedance counts of one family of measure
    ``measure`` at several levels.

    Base counts at the lowest level are Poisson with intensities
    lam * measure * g and (1 - lam) * measure * g; each higher level is a
    binomial thinning of the one below it.
    """
    levels = tuple(float(x) for x in levels)
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise InvalidParameterError(f"levels must be strictly increasing, got {levels}")
    if not 0.0 <= measure <= 1.0:
        raise InvalidParameterError(f"family measure must lie in [0,1], got {measure}")

    lam, xi = _draw_latents(params, stream, size)
    # the level-0 means share one buffer, and the level-0 rows are drawn
    # first and freed once copied: the peak is the draws themselves
    mean = measure * g_intensity(params.gamma, levels[0], xi)
    level0 = [stream.poisson(lam * mean)]
    mean *= 1.0 - lam
    level0.append(stream.poisson(mean))
    del mean
    observed = np.empty((len(levels), size), dtype=np.int64)
    observed[0] = level0.pop(0)
    missed = np.empty_like(observed)
    missed[0] = level0.pop()
    for i in range(1, len(levels)):
        keep = math.exp(-(levels[i] - levels[i - 1]))
        observed[i] = stream.binomial(observed[i - 1], keep)
        missed[i] = stream.binomial(missed[i - 1], keep)
    assert (observed[1:] <= observed[:-1]).all() and (missed[1:] <= missed[:-1]).all()
    return LimitSample(lam=lam, xi=xi, observed=observed, missed=missed)


def sample_limit_maxima_locations(
    params: LimitLawParams, stream: np.random.Generator, size: int = 1
) -> LimitSample:
    """Class maxima heights and argmax locations of the limit.

    Given (lambda, xi) the observed maximum is Gumbel with location
    ln(lambda) - gamma + sqrt(2 gamma) xi (-inf when lambda = 0), the
    missed maximum the same with 1 - lambda, independent of each other;
    locations are independent uniforms on (0, 1].  The overall maximum and
    its location are inherited from the larger class maximum.
    """
    lam, xi = _draw_latents(params, stream, size)
    drift = -params.gamma + math.sqrt(2.0 * params.gamma) * xi
    with np.errstate(divide="ignore"):
        observed_max = np.log(lam) + drift + stream.gumbel(size=size)
        missed_max = np.log1p(-lam) + drift + stream.gumbel(size=size)
    del drift  # freed before the locations are drawn: the peak is the draws
    observed_loc = 1.0 - stream.random(size)
    missed_loc = 1.0 - stream.random(size)
    return LimitSample(
        lam=lam,
        xi=xi,
        observed_max=observed_max,
        missed_max=missed_max,
        observed_loc=observed_loc,
        missed_loc=missed_loc,
    )
