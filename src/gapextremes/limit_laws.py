"""Closed-form limit distributions, evaluated by quadrature.

Everything here mixes two latent variables: the observed fraction
``lambda`` (law supplied by the caller) and a standard-normal factor
``xi`` carrying the long-range dependence.  Conditionally on both, the
exceedance processes of the observed and missed classes are independent
Poisson with intensities ``lam * g`` and ``(1 - lam) * g``, where

    g(x, z) = exp(-x - gamma + sqrt(2 gamma) z)

is the limiting mean number of exceedances of level u_n(x) given xi = z.
Every limit evaluator is thus an expectation of a product of Poisson
probabilities: it validates its arguments and hands an integrand
``f(lam, g)`` to one kernel, ``_mixed_poisson``, which alone contracts it
against the quadrature rules, refines until stable (quadrature.converge)
and clips to [0, 1].  The exact finite-n identity keeps its own integral.

Level arguments accept +inf to drop the corresponding constraint.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import InvalidParameterError
from .extremes import LevelParams
from .lambdalaw import LambdaLaw
from .quadrature import QuadratureRule, converge

__all__ = [
    "LimitLawParams",
    "g_intensity",
    "joint_maxima_cdf",
    "order_stats_obs_missed_cdf",
    "order_stats_vs_all_cdf",
    "joint_counts_pmf",
    "void_probability_intervals",
    "finite_n_one_factor_prob",
    "locations_heights_cdf",
    "locations_cdf",
]

# cap on log g so exp never overflows; exp(700) ~ 1e304 still kills any
# survival factor it multiplies, and 0 * exp(700) stays 0 (no inf * 0 NaNs)
_LOG_CAP = 700.0

_UNIT_LAW = LambdaLaw.point(1.0)


@dataclass(frozen=True)
class LimitLawParams:
    """Dependence strength and observed-fraction law of a limit regime."""

    gamma: float
    lambda_law: LambdaLaw

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise InvalidParameterError(f"gamma must be finite and >= 0, got {self.gamma}")


def g_intensity(gamma: float, x, z):
    """exp(-x - gamma + sqrt(2 gamma) z), elementwise over x and z.

    Computed in log space; underflows to 0, and +inf levels map to
    intensity 0 (the dropped-constraint convention).
    """
    if gamma < 0.0:
        raise InvalidParameterError(f"gamma must be >= 0, got {gamma}")
    log_g = -np.asarray(x, dtype=float) - gamma + math.sqrt(2.0 * gamma) * np.asarray(z, dtype=float)
    out = np.exp(np.minimum(log_g, _LOG_CAP))
    return out if out.ndim else float(out)


def _poisson_pmf(k: int, mu: np.ndarray) -> np.ndarray:
    """Poisson pmf with the 0^0 = 1 convention at mu = 0."""
    return np.exp(special.xlogy(k, mu) - mu - special.gammaln(k + 1))


def _poisson_cdf(kmax: int, mu: np.ndarray) -> np.ndarray:
    """P(Poisson(mu) <= kmax); equals 1 at mu = 0."""
    return special.pdtr(kmax, mu)


def _clip_prob(value: float) -> float:
    return min(max(value, 0.0), 1.0)


def _mixed_poisson(params: LimitLawParams, integrand) -> float:
    """E over (lambda, xi) of ``integrand(lam, g)``, with ``lam`` the
    fraction column and ``g(level)`` the intensity at the factor nodes."""

    def evaluate(rule: QuadratureRule) -> float:
        return rule.expect(integrand(rule.lam_col, lambda x: g_intensity(params.gamma, x, rule.z)))

    return _clip_prob(converge(params.lambda_law, evaluate))


def joint_maxima_cdf(params: LimitLawParams, x: float, y: float) -> float:
    """Limit of P(observed max <= u_n(x), missed max <= u_n(y))."""
    return order_stats_obs_missed_cdf(params, 1, 1, x, y)


def order_stats_obs_missed_cdf(
    params: LimitLawParams, k: int, l: int, x: float, y: float
) -> float:
    """Limit of P(k-th observed max <= u_n(x), l-th missed max <= u_n(y)).

    Conditionally on (lambda, xi) the two classes are independent, so the
    value is E of the product of two Poisson cdfs at k-1 and l-1.
    """
    if k < 1 or l < 1:
        raise InvalidParameterError(f"order statistic ranks must be >= 1, got k={k}, l={l}")
    return _mixed_poisson(
        params,
        lambda lam, g: _poisson_cdf(k - 1, lam * g(x)) * _poisson_cdf(l - 1, (1.0 - lam) * g(y)),
    )


def order_stats_vs_all_cdf(
    params: LimitLawParams, which: str, k: int, m: int, x: float, y: float
) -> float:
    """Limit of P(k-th class max <= u_n(x), m-th overall max <= u_n(y))
    for ``which`` in {"observed", "missed"}.

    Given the i class exceedances above the higher level (mean f g_top,
    f the class fraction, g_top = min(g_x, g_y)), the class exceedances
    left above x and all others above y are independent Poisson counts.
    """
    if which not in ("observed", "missed"):
        raise InvalidParameterError(f"class must be observed or missed, got {which!r}")
    if k < 1 or m < 1:
        raise InvalidParameterError(f"ranks must be >= 1, got k={k}, m={m}")

    def integrand(lam, g):
        frac = lam if which == "observed" else 1.0 - lam
        gx, gy = g(x), g(y)
        g_top = np.minimum(gx, gy)
        return sum(
            _poisson_pmf(i, frac * g_top)
            * _poisson_cdf(k - 1 - i, frac * (gx - g_top))
            * _poisson_cdf(m - 1 - i, gy - frac * g_top)
            for i in range(min(k, m))
        )

    return _mixed_poisson(params, integrand)


def joint_counts_pmf(
    params: LimitLawParams,
    measure: float,
    x: float,
    y: float,
    k1: int,
    k2: int,
    k3: int,
    k4: int,
) -> float:
    """Limit pmf of the joint exceedance counts of one interval family:
    (observed at x, missed at x, observed at y, missed at y) = (k1..k4).

    Count patterns violating the nesting forced by the level ordering get
    exact probability 0.
    """
    if not 0.0 < measure <= 1.0:
        raise InvalidParameterError(f"family measure must lie in (0,1], got {measure}")
    counts = (k1, k2, k3, k4)
    if any(int(c) != c or c < 0 for c in counts):
        raise InvalidParameterError(f"counts must be nonnegative integers, got {counts}")
    if x > y:
        if k1 > k3 or k2 > k4:
            return 0.0
        lo_level, hi_level = y, x
        obs_hi, obs_lo, mis_hi, mis_lo = k1, k3, k2, k4
    else:
        if k3 > k1 or k4 > k2:
            return 0.0
        lo_level, hi_level = x, y
        obs_hi, obs_lo, mis_hi, mis_lo = k3, k1, k4, k2

    def integrand(lam, g):
        g_hi = g(hi_level)
        gap = g(lo_level) - g_hi
        return (
            _poisson_pmf(obs_hi, lam * measure * g_hi)
            * _poisson_pmf(obs_lo - obs_hi, lam * measure * gap)
            * _poisson_pmf(mis_hi, (1.0 - lam) * measure * g_hi)
            * _poisson_pmf(mis_lo - mis_hi, (1.0 - lam) * measure * gap)
        )

    return _mixed_poisson(params, integrand)


def void_probability_intervals(params: LimitLawParams, cells) -> float:
    """Probability that every cell is free of exceedances in the limit.

    ``cells`` is an iterable of (measure, x, y): measure of a family, the
    observed-class level and the missed-class level on it.  Families are
    disjoint, so conditionally on (lambda, xi) the void events multiply.
    """
    cells = [(float(w), float(x), float(y)) for w, x, y in cells]
    if not cells:
        raise InvalidParameterError("need at least one cell")
    total_measure = sum(w for w, _, _ in cells)
    if any(w <= 0.0 for w, _, _ in cells) or total_measure > 1.0 + 1e-12:
        raise InvalidParameterError(
            f"cell measures must be positive with total <= 1, got total {total_measure}"
        )
    return _mixed_poisson(
        params,
        lambda lam, g: np.exp(-sum(w * (lam * g(x) + (1.0 - lam) * g(y)) for w, x, y in cells)),
    )


def finite_n_one_factor_prob(n: int, gamma: float, cells) -> float:
    """Exact finite-n probability, for the one-factor model with a fixed
    indicator pattern, that every cell keeps its observed values below
    u_n(x_i) and its missed values below u_n(y_i).

    ``cells`` is an iterable of (n_obs, n_miss, x, y).  Conditionally on
    the shared factor the coordinates are independent, so the probability
    is a one-dimensional normal integral of a product of powers of Phi at
    the factor-adjusted levels.
    """
    n = int(n)
    lp = LevelParams.for_length(n)
    if gamma < 0.0 or gamma >= math.log(n):
        raise InvalidParameterError(f"need 0 <= gamma < ln n, got gamma={gamma}, n={n}")
    cells = [(int(no), int(nm), float(x), float(y)) for no, nm, x, y in cells]
    if any(no < 0 or nm < 0 for no, nm, _, _ in cells):
        raise InvalidParameterError("cell counts must be nonnegative")
    if sum(no + nm for no, nm, _, _ in cells) > n:
        raise InvalidParameterError("total cell counts exceed the path length")
    rho = gamma / math.log(n)
    scale = math.sqrt(1.0 - rho)
    shift = math.sqrt(rho)

    def evaluate(rule: QuadratureRule) -> float:
        log_prob = np.zeros_like(rule.z)
        for n_obs, n_miss, x, y in cells:
            if n_obs:
                u = (lp.level(x) - shift * rule.z) / scale
                log_prob += n_obs * special.log_ndtr(u)
            if n_miss:
                u = (lp.level(y) - shift * rule.z) / scale
                log_prob += n_miss * special.log_ndtr(u)
        return rule.expect(np.exp(log_prob))

    return _clip_prob(converge(_UNIT_LAW, evaluate))


def locations_heights_cdf(
    params: LimitLawParams, pair: str, s: float, t: float, x: float, y: float
) -> float:
    """Joint limit law of two scaled argmax locations and the two class
    maxima heights.

    ``pair`` selects which classes the (location <= s, location <= t,
    height <= u_n(x), height <= u_n(y)) quadruple refers to:

    * ``obs_missed`` — observed (s, x) and missed (t, y); any x, y.
    * ``obs_all`` — observed (s, x) and overall (t, y); needs x <= y.
    * ``missed_all`` — missed (s, x) and overall (t, y); needs x <= y.
    """
    if not (0.0 < s <= 1.0 and 0.0 < t <= 1.0):
        raise InvalidParameterError(f"scaled locations must lie in (0,1], got s={s}, t={t}")
    if pair not in ("obs_missed", "obs_all", "missed_all"):
        raise InvalidParameterError(f"unknown pair {pair!r}")

    if pair == "obs_missed":
        return _clip_prob(s * t * joint_maxima_cdf(params, x, y))

    if x > y:
        raise InvalidParameterError(f"pair {pair} is defined for x <= y only, got x={x} > y={y}")

    def integrand(lam, g):
        frac = lam if pair == "obs_all" else 1.0 - lam
        gx = g(x)
        joint = np.exp(-(frac * gx + (1.0 - frac) * g(y)))
        # P(the pair's class carries the overall max and it is <= u_n(x))
        race = frac * np.exp(-gx)
        return s * t * (joint - race) + min(s, t) * race

    return _mixed_poisson(params, integrand)


def locations_cdf(lambda_law: LambdaLaw, pair: str, s: float, t: float) -> float:
    """Marginal joint law of two scaled argmax locations.

    Observed and missed locations are asymptotically independent uniforms;
    the overall location coincides with the observed one exactly when the
    observed class wins the maximum race, which happens with probability
    E[lambda].
    """
    if not (0.0 < s <= 1.0 and 0.0 < t <= 1.0):
        raise InvalidParameterError(f"scaled locations must lie in (0,1], got s={s}, t={t}")
    mean = lambda_law.mean()
    if pair == "obs_missed":
        return _clip_prob(s * t)
    if pair == "obs_all":
        return _clip_prob(s * t * (1.0 - mean) + min(s, t) * mean)
    if pair == "missed_all":
        return _clip_prob(s * t * mean + min(s, t) * (1.0 - mean))
    raise InvalidParameterError(f"unknown pair {pair!r}")
