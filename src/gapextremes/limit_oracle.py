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

import math
import numpy as np

from .errors import InvalidParameterError
from .limit_laws import LimitLawParams, g_intensity

__all__ = ["sample_limit_counts", "sample_limit_maxima_locations"]


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
) -> tuple[np.ndarray, np.ndarray]:
    """Joint observed/missed exceedance counts of one family of measure
    ``measure`` at several levels: two int64 arrays of shape
    (len(levels), size), the observed counts and the missed counts.

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
    # the level-0 means share one buffer, and the latents and the level-0
    # rows are freed once used: the peak is the draws themselves
    mean = measure * g_intensity(params.gamma, levels[0], xi)
    del xi
    level0 = [stream.poisson(lam * mean)]
    mean *= 1.0 - lam
    del lam
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
    return observed, missed


def sample_limit_maxima_locations(
    params: LimitLawParams, stream: np.random.Generator, size: int = 1
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Class maxima heights and argmax locations of the limit: four arrays
    of shape (size,), the observed and missed maxima, then the observed
    and missed locations.

    Given (lambda, xi) the observed maximum is Gumbel with location
    ln(lambda) - gamma + sqrt(2 gamma) xi (-inf when lambda = 0), the
    missed maximum the same with 1 - lambda, independent of each other;
    locations are independent uniforms on (0, 1], and +inf for an empty
    class (a maximum of -inf), as the path record gives it.  The overall maximum and
    its location are inherited from the larger class maximum.
    """
    lam, xi = _draw_latents(params, stream, size)
    drift = -params.gamma + math.sqrt(2.0 * params.gamma) * xi
    del xi
    with np.errstate(divide="ignore"):
        observed_max = np.log(lam) + drift + stream.gumbel(size=size)
        missed_max = np.log1p(-lam) + drift + stream.gumbel(size=size)
    del lam, drift  # freed before the locations are drawn: the peak is the draws
    observed_loc = 1.0 - stream.random(size)
    missed_loc = 1.0 - stream.random(size)
    # an empty class (a maximum of -inf) has no location
    observed_loc[observed_max == -np.inf] = np.inf
    missed_loc[missed_max == -np.inf] = np.inf
    return observed_max, missed_max, observed_loc, missed_loc
