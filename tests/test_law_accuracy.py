"""The limit laws and the exact finite-n identity against
``scipy.integrate.quad``, sharing no quadrature code with the package.

For gamma > 0 every integrand steps from 1 to 0 around
z* = (x + gamma) / sqrt(2 gamma), which the reference integrals split at.
The fraction expectations are closed forms: given a, b >= 0,
E exp(-lam a - (1 - lam) b) is a Kummer function for Beta laws
(Uniform(0, 1) = Beta(1, 1)) and an exponential for point laws.
"""
import math

import pytest
from scipy import integrate, special

from gapextremes.errors import QuadratureConvergenceError
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import (
    LimitLawParams,
    joint_maxima_cdf,
    locations_heights_cdf,
    void_probability_intervals,
)
from pairs import pair_cdf
from reference import finite_n_cells_prob

TOL = 1e-9
GAMMAS = (0.0, 0.5, 2.0, 4.0, 8.0, 11.0)
XS = (-8.0, -5.0, -2.0, 0.0, 2.0, 5.0, 8.0)
#: (package law, reference law): ("point", p) or ("beta", alpha, beta)
LAWS = (
    (LambdaLaw.point(0.5), ("point", 0.5)),
    (LambdaLaw.uniform(0.0, 1.0), ("beta", 1.0, 1.0)),
    (LambdaLaw.beta(2.0, 3.0), ("beta", 2.0, 3.0)),
)


def _g(gamma, x, z):
    return math.exp(min(-x - gamma + math.sqrt(2.0 * gamma) * z, 700.0))


def _mix(law, a, b):
    """E exp(-lam a - (1 - lam) b) for a, b >= 0."""
    if law[0] == "point":
        return math.exp(-law[1] * a - (1.0 - law[1]) * b)
    _, alpha, beta = law
    base = math.exp(-min(a, b))
    if base == 0.0:  # the Kummer factor lies in [0, 1]
        return 0.0
    if a >= b:
        return base * special.hyp1f1(alpha, alpha + beta, b - a)
    return base * special.hyp1f1(beta, alpha + beta, a - b)


def _mean(law):
    return law[1] if law[0] == "point" else law[1] / (law[1] + law[2])


def _expect_z(fn, steps):
    """E fn(xi), xi ~ N(0, 1), split at every step."""
    cuts = [-math.inf, *sorted(steps), math.inf]
    total = sum(
        integrate.quad(lambda z: fn(z) * math.exp(-0.5 * z * z), a, b, epsabs=1e-14,
                       epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts, cuts[1:])
    )
    return total / math.sqrt(2.0 * math.pi)


def _limit_steps(gamma, *levels):
    if gamma == 0.0:
        return []
    return [(x + gamma) / math.sqrt(2.0 * gamma) for x in levels]


@pytest.mark.parametrize("gamma", GAMMAS)
def test_joint_max_matches_quad(gamma):
    errors = []
    for law, ref in LAWS:
        params = LimitLawParams(gamma, law)
        for x in XS:
            for y in (x - 4.5, x + 0.7, x + 3.0):
                expected = _expect_z(lambda z: _mix(ref, _g(gamma, x, z), _g(gamma, y, z)),
                                     _limit_steps(gamma, x, y))
                errors.append(abs(joint_maxima_cdf(params, x, y) - expected))
    assert all(e < TOL for e in errors), max(errors)  # a NaN fails too


@pytest.mark.xfail(raises=QuadratureConvergenceError, strict=True)
def test_joint_max_far_apart_levels_under_uniform_law():
    # a fraction rule defect, not a z rule one (gamma = 0 has one z node):
    # exp(-lam (g(x) - g(y))) has a boundary layer of width 1 / |g(x) - g(y)|
    # at an end of [0, 1], which a Uniform law weights by that width and
    # 512 Gauss-Legendre fraction nodes do not resolve
    params = LimitLawParams(0.0, LambdaLaw.uniform(0.0, 1.0))
    expected = _mix(("beta", 1.0, 1.0), _g(0.0, -2.0, 0.0), _g(0.0, -11.0, 0.0))
    assert joint_maxima_cdf(params, -2.0, -11.0) == pytest.approx(expected, abs=TOL)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_void_cells_match_quad(gamma):
    errors = []
    for law, ref in LAWS:
        params = LimitLawParams(gamma, law)
        for x in XS[::2]:
            cells = [(0.25, x, x + 1.0), (0.5, x - 1.5, 0.3 * x)]

            def fn(z):
                return _mix(ref, sum(w * _g(gamma, a, z) for w, a, _ in cells),
                            sum(w * _g(gamma, b, z) for w, _, b in cells))

            steps = _limit_steps(gamma, *(v for _, a, b in cells for v in (a, b)))
            got = void_probability_intervals(params, cells)
            errors.append(abs(got - _expect_z(fn, steps)))
    assert all(e < TOL for e in errors), max(errors)  # a NaN fails too


@pytest.mark.parametrize("gamma", GAMMAS)
def test_locations_obs_all_matches_quad(gamma):
    s, t = 0.4, 0.75
    errors = []
    for law, ref in LAWS:
        params = LimitLawParams(gamma, law)
        for x in XS[::2]:
            y = x + 0.7

            def fn(z):
                gx, gy = _g(gamma, x, z), _g(gamma, y, z)
                race = _mean(ref) * math.exp(-gx)
                return s * t * (_mix(ref, gx, gy) - race) + min(s, t) * race

            got = pair_cdf(params, "obs_all", s, t, x, y)
            errors.append(abs(got - _expect_z(fn, _limit_steps(gamma, x, y))))
    assert all(e < TOL for e in errors), max(errors)  # a NaN fails too


#: (locations, heights) per class: the observed class wins above the
#: missed height (a > b, missed unlocated), the missed class wins above the
#: observed height (b > a, observed unlocated), three located classes
CLASS_CASES = (
    ({"observed": 0.4, "all": 0.75}, {"observed": 1.0, "missed": -0.2, "all": 1.5}),
    ({"missed": 0.6, "all": 0.3}, {"observed": -0.4, "missed": 0.9}),
    ({"observed": 0.3, "missed": 0.7, "all": 0.5}, {"missed": 0.4, "all": 0.8}),
)


@pytest.mark.parametrize("gamma", GAMMAS)
def test_locations_of_classes_match_quad(gamma):
    errors = []
    for law, ref in LAWS:
        params = LimitLawParams(gamma, law)
        for locs, heights in CLASS_CASES:
            loc = {c: locs.get(c, 1.0) for c in ("observed", "missed", "all")}
            for shift in XS[::2]:
                h = {c: heights.get(c, math.inf) + shift for c in ("observed", "missed", "all")}
                a, b = min(h["observed"], h["all"]), min(h["missed"], h["all"])

                def fn(z):
                    ga, gb, gc = (_g(gamma, v, z) for v in (a, b, min(a, b)))
                    joint = _mix(ref, ga, gb)
                    p = _mean(ref)
                    obs = p * math.exp(-gc) + (joint - math.exp(-gb) if a > b else 0.0)
                    miss = (1.0 - p) * math.exp(-gc) + (joint - math.exp(-ga) if b > a else 0.0)
                    return (min(loc["observed"], loc["all"]) * loc["missed"] * obs
                            + loc["observed"] * min(loc["missed"], loc["all"]) * miss)

                got = locations_heights_cdf(params, locs, {c: h[c] for c in heights})
                errors.append(abs(got - _expect_z(fn, _limit_steps(gamma, *{a, b} - {math.inf}))))
    assert all(e < TOL for e in errors), max(errors)  # a NaN fails too


@pytest.mark.parametrize("gamma", GAMMAS + (11.4,))
def test_finite_n_matches_quad(gamma):
    n = 100_000
    a = math.sqrt(2.0 * math.log(n))
    b = a - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a)
    rho = gamma / math.log(n)
    errors = []
    for x in XS[::2]:
        cells = [(30_000, 20_000, x, x + 1.0), (10_000, 40_000, x - 1.0, x + 0.5)]
        powers = [(k, level) for no, nm, lo, hi in cells for k, level in ((no, lo), (nm, hi))]

        def fn(z):
            return math.exp(sum(
                k * special.log_ndtr((level / a + b - math.sqrt(rho) * z) / math.sqrt(1.0 - rho))
                for k, level in powers))

        expected = _expect_z(fn, _limit_steps(gamma, *(level for _, level in powers)))
        errors.append(abs(finite_n_cells_prob(n, gamma, cells) - expected))
    assert all(e < TOL for e in errors), max(errors)  # a NaN fails too
