import dataclasses
import itertools
import math
import warnings
from statistics import NormalDist

import numpy as np
import pytest
from scipy import special

from gapextremes import limit_laws
from gapextremes.errors import InvalidParameterError
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import (
    LimitLawParams,
    g_intensity,
    g_step,
    joint_counts_pmf,
    joint_counts_pmf_batch,
    joint_maxima_cdf,
    locations_heights_cdf,
    order_stats_obs_missed_cdf,
    order_stats_vs_all_cdf,
    void_probability_intervals,
)
from gapextremes.quadrature import converge
from pairs import pair_cdf
from reference import complement, finite_n_cells_prob, normal_hermite_rule

INF = math.inf

POINT_HALF = LimitLawParams(0.0, LambdaLaw.point(0.5))
UNIT_GAMMA1 = LimitLawParams(1.0, LambdaLaw.point(1.0))
MIXED = LimitLawParams(1.0, LambdaLaw.uniform(0.0, 1.0))
BETA_HALF = LimitLawParams(0.5, LambdaLaw.beta(2.0, 2.0))


# ---------------------------------------------------------------------------
# g


def test_g_trivial_values():
    assert g_intensity(0.0, 0.0, 3.7) == 1.0
    assert g_intensity(0.0, 1.0, -2.0) == pytest.approx(math.exp(-1.0))
    assert g_intensity(1.0, 0.0, 0.0) == pytest.approx(math.exp(-1.0))


def test_g_extended_levels_and_overflow():
    assert g_intensity(1.0, INF, 0.0) == 0.0
    huge = g_intensity(1.0, -INF, 0.0)
    assert np.isfinite(huge) and huge > 1e300
    assert 0.0 * huge == 0.0  # the cap keeps lambda = 0 factors NaN-free
    assert g_intensity(2.0, -800.0, 0.0) > 1e300
    assert g_intensity(0.0, 800.0, 0.0) == 0.0  # underflow permitted


def test_g_normalization_grid():
    # integral of g dPhi equals exp(-x) exactly (lognormal mean identity)
    z, w = normal_hermite_rule(64)
    for gamma in (0.0, 0.5, 1.0, 2.0):
        for x in (-2.0, -1.0, 0.0, 1.0, 2.0):
            value = w @ g_intensity(gamma, x, z)
            assert abs(value - math.exp(-x)) < 1e-10


def test_g_negative_gamma_rejected():
    with pytest.raises(InvalidParameterError):
        g_intensity(-0.1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# joint maxima


def test_joint_maxima_trivial_cases():
    assert joint_maxima_cdf(POINT_HALF, 0.0, 0.0) == pytest.approx(math.exp(-1.0), abs=1e-12)
    got = joint_maxima_cdf(LimitLawParams(0.0, LambdaLaw.uniform(0, 1)), 0.0, INF)
    assert got == pytest.approx(1.0 - math.exp(-1.0), abs=1e-10)


def test_joint_maxima_frozen_monte_carlo_pin():
    # 1e7-sample Monte Carlo over the latent factor (default_rng(7)) froze
    # E exp(-g(0, xi)) at gamma=1 to 0.608547044303 with se 9.537e-05
    got = joint_maxima_cdf(UNIT_GAMMA1, 0.0, INF)
    assert abs(got - 0.608547044303) < 4 * 9.536984e-05


def test_joint_maxima_constant_lambda_reduction():
    # gamma = 0, lambda = p: product of Gumbel powers G^p(x) G^(1-p)(y)
    for p in (0.0, 0.25, 0.5, 1.0):
        params = LimitLawParams(0.0, LambdaLaw.point(p))
        for x, y in [(0.0, 0.0), (-1.0, 0.5), (2.0, -0.3)]:
            target = math.exp(-p * math.exp(-x)) * math.exp(-(1 - p) * math.exp(-y))
            assert joint_maxima_cdf(params, x, y) == pytest.approx(target, abs=1e-12)


def test_joint_maxima_monotone_and_limits():
    params = BETA_HALF
    grid = [-2.0, -1.0, 0.0, 1.0, 3.0]
    values = [joint_maxima_cdf(params, x, 0.4) for x in grid]
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(a <= b + 1e-14 for a, b in zip(values, values[1:]))
    assert joint_maxima_cdf(params, 40.0, 40.0) == pytest.approx(1.0, abs=1e-8)


# ---------------------------------------------------------------------------
# order statistics, observed vs missed


def test_order_stats_k1_l1_equals_joint():
    for params in (POINT_HALF, MIXED, BETA_HALF):
        for x, y in [(0.0, 0.5), (1.2, -0.7)]:
            assert order_stats_obs_missed_cdf(params, 1, 1, x, y) == joint_maxima_cdf(
                params, x, y
            )


def test_order_stats_poisson_case():
    # lambda = 1 kills the missed class; P(Poisson(1) <= 1) = 2/e
    params = LimitLawParams(0.0, LambdaLaw.point(1.0))
    got = order_stats_obs_missed_cdf(params, 2, 1, 0.0, -3.0)
    assert got == pytest.approx(2.0 * math.exp(-1.0), abs=1e-12)


def test_order_stats_monotone_in_rank():
    vals = [order_stats_obs_missed_cdf(BETA_HALF, k, 2, 0.0, 0.3) for k in (1, 2, 3, 5)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert order_stats_obs_missed_cdf(BETA_HALF, 60, 60, 3.0, 3.0) == pytest.approx(
        1.0, abs=1e-8
    )


def test_order_stats_rank_validation():
    with pytest.raises(InvalidParameterError):
        order_stats_obs_missed_cdf(POINT_HALF, 0, 1, 0.0, 0.0)


# ---------------------------------------------------------------------------
# order statistics vs overall


def test_vs_all_collapse_to_single_class():
    # k = m = 1, lambda = 1: the overall max is the observed max
    params = LimitLawParams(0.0, LambdaLaw.point(1.0))
    got = order_stats_vs_all_cdf(params, "observed", 1, 1, 0.0, 5.0)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_vs_all_branch_consistency_at_equal_levels():
    # the x < y and x >= y decompositions agree at x = y
    params = LimitLawParams(1.0, LambdaLaw.uniform(0, 1))
    for which, k, m in [("observed", 2, 3), ("missed", 3, 2), ("observed", 1, 4)]:
        lo = order_stats_vs_all_cdf(params, which, k, m, 0.3, math.nextafter(0.3, 1.0))
        hi = order_stats_vs_all_cdf(params, which, k, m, 0.3, 0.3)
        assert abs(lo - hi) < 1e-10


def test_vs_all_marginal_consistency():
    # m-th overall max alone: both class arguments give the same marginal
    for params in (MIXED, BETA_HALF):
        a = order_stats_vs_all_cdf(params, "observed", 1, 3, INF, 0.2)
        b = order_stats_vs_all_cdf(params, "missed", 1, 3, INF, 0.2)
        assert a == pytest.approx(b, abs=1e-11)


def test_vs_all_upper_bounded_by_marginals():
    v = order_stats_vs_all_cdf(BETA_HALF, "observed", 2, 3, 0.1, 0.4)
    marg = order_stats_vs_all_cdf(BETA_HALF, "observed", 2, 3, 0.1, INF)
    assert 0.0 <= v <= marg <= 1.0


def _poisson(i: int, mu: float) -> float:
    return mu**i * math.exp(-mu) / math.factorial(i)


@pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
def test_vs_all_matches_exact_enumeration(p):
    # gamma = 0, point law: three independent Poisson counts, the class
    # above the higher level (a), the class between the levels (b) and the
    # other class above y (c), summed exhaustively
    params = LimitLawParams(0.0, LambdaLaw.point(p))
    for which in ("observed", "missed"):
        frac = p if which == "observed" else 1.0 - p
        for x, y in ((0.3, -0.4), (-0.4, 0.3)):
            gx, gy = math.exp(-x), math.exp(-y)
            mu_a, mu_b, mu_c = frac * min(gx, gy), frac * abs(gx - gy), (1.0 - frac) * gy
            for k in range(1, 6):
                for m in range(1, 6):
                    exact = 0.0
                    for a, b, c in itertools.product(range(k + m), repeat=3):
                        class_x, all_y = (a + b, a + c) if x < y else (a, a + b + c)
                        if class_x < k and all_y < m:
                            exact += _poisson(a, mu_a) * _poisson(b, mu_b) * _poisson(c, mu_c)
                    got = order_stats_vs_all_cdf(params, which, k, m, x, y)
                    assert got == pytest.approx(exact, abs=1e-13), (which, x, y, k, m)


def test_missed_class_is_observed_under_complement_law():
    base = LambdaLaw.beta(2.0, 5.0)
    params = LimitLawParams(0.7, base)
    flipped = LimitLawParams(0.7, complement(base))
    for k, m, x, y in [(2, 3, 0.1, 0.6), (1, 2, 0.5, -0.2)]:
        a = order_stats_vs_all_cdf(params, "missed", k, m, x, y)
        b = order_stats_vs_all_cdf(flipped, "observed", k, m, x, y)
        assert a == pytest.approx(b, abs=1e-11)
    a = order_stats_obs_missed_cdf(params, 2, 3, 0.4, -0.1)
    b = order_stats_obs_missed_cdf(flipped, 3, 2, -0.1, 0.4)
    assert a == pytest.approx(b, abs=1e-11)


# ---------------------------------------------------------------------------
# joint counts pmf


def test_pmf_void_cell():
    got = joint_counts_pmf(LimitLawParams(0.0, LambdaLaw.point(1.0)), 1.0, 0.0, 0.0, 0, 0, 0, 0)
    assert got == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_pmf_nesting_violations_are_zero():
    assert joint_counts_pmf(MIXED, 0.5, 1.0, 0.0, 3, 0, 1, 0) == 0.0
    assert joint_counts_pmf(MIXED, 0.5, 1.0, 0.0, 0, 2, 0, 1) == 0.0
    assert joint_counts_pmf(MIXED, 0.5, 0.0, 1.0, 1, 0, 3, 0) == 0.0
    # equal levels force equal counts
    assert joint_counts_pmf(MIXED, 0.5, 0.3, 0.3, 2, 0, 1, 0) == 0.0


def test_pmf_validation():
    with pytest.raises(InvalidParameterError):
        joint_counts_pmf(MIXED, 0.0, 1.0, 0.0, 0, 0, 0, 0)
    with pytest.raises(InvalidParameterError):
        joint_counts_pmf(MIXED, 0.5, 1.0, 0.0, -1, 0, 0, 0)


def test_pmf_normalization():
    # truncation rank from the literal tail rule: smallest K with
    # P(Pois(mu_max) > K) < 1e-12 at the largest quadrature node
    params = LimitLawParams(0.0, LambdaLaw.uniform(0, 1))
    measure = 0.5
    mu_max = measure * 1.0  # gamma = 0: g(0, z) = 1, lambda <= 1
    K = 0
    while 1.0 - special.pdtr(K, mu_max) >= 1e-12:
        K += 1
    total = 0.0
    for k3 in range(K + 1):
        for k1 in range(k3 + 1):
            for k4 in range(K + 1):
                for k2 in range(k4 + 1):
                    total += joint_counts_pmf(params, measure, 1.0, 0.0, k1, k2, k3, k4)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_pmf_marginalizes_to_low_level_counts():
    # summing the high-level counts telescopes (Poisson splitting), leaving
    # the joint law of the low-level pair; reference computed by quadrature
    # built independently on numpy's hermgauss/leggauss
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    measure, x, y = 0.5, 1.0, 0.0
    for k3, k4 in [(0, 0), (2, 1), (1, 3)]:
        total = sum(
            joint_counts_pmf(params, measure, x, y, k1, k2, k3, k4)
            for k1 in range(k3 + 1)
            for k2 in range(k4 + 1)
        )
        t, wz = np.polynomial.hermite.hermgauss(160)
        z = math.sqrt(2.0) * t
        wz = wz / wz.sum()
        u, wl = np.polynomial.legendre.leggauss(160)
        lam = 0.5 * (u + 1.0)
        wl = wl / wl.sum()
        gy = np.exp(-y - params.gamma + math.sqrt(2 * params.gamma) * z)
        L, G = lam[:, None], gy[None, :]

        def pois(k, mu):
            return np.exp(special.xlogy(k, mu) - mu - special.gammaln(k + 1))

        ref = float(wl @ (pois(k3, L * measure * G) * pois(k4, (1 - L) * measure * G)) @ wz)
        assert total == pytest.approx(ref, abs=1e-9)


SUM_MAX = limit_laws._CDF_SUM_MAX


@pytest.mark.filterwarnings("error")  # an overflow or a 0 * inf fails the test
@pytest.mark.parametrize("k", [0, 1, 2, 4, SUM_MAX, SUM_MAX + 1, 200])
def test_poisson_cdf_matches_incomplete_gamma(k):
    mu = np.array([0.0, 5e-324, 1e-12, 1.0, 50.0, 573.0, 744.0, 746.0, 1e5, 1e300])
    got = limit_laws._poisson_cdf(k, mu)
    assert got.shape == mu.shape
    assert np.all(np.abs(got - special.pdtr(k, mu)) <= 1e-14)  # a NaN fails too


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [0, 1, 2, 7, 40, 200, 1999])
def test_poisson_pmf_matches_xlogy_gammaln(k):
    # lgamma may round the last bit unlike gammaln, and the log pmf then
    # rounds by up to an ulp of its largest term: relative error 2 eps
    # times that size, below 1e-14 while the size is below 22
    assert limit_laws._poisson_pmf(k, np.zeros(1)).tolist() == [float(k == 0)]
    mu = np.concatenate([[5e-324, 1e-300, 1e-12], np.geomspace(1e-6, 1e4, 2001), [744.0, 1e5]])
    got = limit_laws._poisson_pmf(k, mu)
    ref = np.exp(special.xlogy(k, mu) - mu - special.gammaln(k + 1))
    size = np.abs(special.xlogy(k, mu)) + mu + math.lgamma(k + 1)
    assert got.shape == mu.shape
    assert np.all(np.abs(got - ref) <= 2.0 * np.finfo(float).eps * size * ref)  # a NaN fails too


def test_log_ndtr_matches_scipy():
    t = np.concatenate([np.linspace(-1e3, 40.0, 200_001), np.linspace(-40.0, 40.0, 100_001),
                        [-20.0, np.nextafter(-20.0, 0.0), -0.0, 0.0, 5e-324]])
    got = limit_laws._log_ndtr(t)
    # past t = 37.5 the tail Q is subnormal and scipy rounds log1p(-Q) to 0
    np.testing.assert_allclose(got, special.log_ndtr(t), rtol=1e-13, atol=1e-300)
    assert limit_laws._log_ndtr(np.array([-np.inf, np.inf])).tolist() == [-np.inf, 0.0]
    assert limit_laws._log_ndtr(np.empty((2, 0))).shape == (2, 0)
    assert limit_laws._log_ndtr(np.array([[-30.0], [1.0]])).shape == (2, 1)


def test_normal_quantile_of_one_over_n_matches_ndtri():
    # finite_n_one_factor_prob's level t0 = -Phi^-1(1/n)
    for n in [3, 4, 10, 1000, 10**5, 10**9, 2**53 + 1, 10**17, 1e30, 1e100, 1e300]:
        got = -NormalDist().inv_cdf(1.0 / n)
        assert got == pytest.approx(-special.ndtri(1.0 / n), rel=4e-16, abs=0.0)


# ---------------------------------------------------------------------------
# void probabilities


def test_void_single_cell_lambda_free():
    for law in (LambdaLaw.point(0.2), LambdaLaw.uniform(0, 1), LambdaLaw.beta(2, 5)):
        got = void_probability_intervals(LimitLawParams(0.0, law), [(0.5, 0.0, 0.0)])
        assert got == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_void_cells_merge_by_measure():
    params = MIXED
    cells = [(0.2, 0.1, 0.7), (0.3, 0.1, 0.7)]
    merged = [(0.5, 0.1, 0.7)]
    assert void_probability_intervals(params, cells) == pytest.approx(
        void_probability_intervals(params, merged), abs=1e-12
    )


def test_void_validation():
    with pytest.raises(InvalidParameterError):
        void_probability_intervals(MIXED, [])
    with pytest.raises(InvalidParameterError):
        void_probability_intervals(MIXED, [(0.6, 0, 0), (0.6, 0, 0)])
    with pytest.raises(InvalidParameterError):
        void_probability_intervals(MIXED, [(-0.1, 0, 0)])


def test_void_matches_joint_maxima_on_unit_interval():
    for params in (POINT_HALF, MIXED):
        a = void_probability_intervals(params, [(1.0, 0.2, 0.9)])
        b = joint_maxima_cdf(params, 0.2, 0.9)
        assert a == pytest.approx(b, abs=1e-12)


# ---------------------------------------------------------------------------
# exact finite-n one-factor probability


def test_finite_n_independence_case():
    # gamma = 0: the factor drops out and the answer is Phi(u_n(x))^n
    n = 100
    u = 2.3662547929063940  # u_100(0), frozen
    got = finite_n_cells_prob(n, 0.0, [(100, 0, 0.0, INF)])
    assert got == pytest.approx(special.ndtr(u) ** n, abs=1e-10)


def test_finite_n_validation():
    with pytest.raises(InvalidParameterError):
        finite_n_cells_prob(100, 0.0, [(60, 50, 0.0, 0.0)])
    # the sampler's rule, CovarianceSpec.rho_n, with its message
    with pytest.raises(InvalidParameterError, match=r"one_factor requires gamma < ln n \(4\.60517\)"):
        finite_n_cells_prob(100, math.log(100), [(10, 10, 0.0, 0.0)])
    with pytest.raises(InvalidParameterError):
        finite_n_cells_prob(100, 0.0, [(-1, 5, 0.0, 0.0)])
    whole = limit_laws.compile_counts([("observed", ((0.0, 1.0),), 0.0)])
    with pytest.raises(InvalidParameterError):  # one (n_obs, n_miss) pair per atom
        limit_laws.finite_n_one_factor_prob(100, 0.0, whole, [(10, 10), (5, 5)])


@pytest.mark.parametrize("x", [-1e200, -1e308], ids=["x=-1e200", "x=-1e308"])
@pytest.mark.parametrize("gamma", [0.0, 1.0, 0.9999 * math.log(1000)],
                         ids=["gamma=0", "gamma=1", "gamma=0.9999ln(n)"])
def test_finite_n_at_a_level_near_the_float_minimum(x, gamma):
    # log Phi(t) squares t, which overflows below about -1e154, and near
    # gamma = ln n the map's divide by sqrt(1 - rho) overflows too; both give
    # -inf, so a class with indices at the level is never void
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert finite_n_cells_prob(1000, gamma, [(10, 10, x, 0.0)]) == 0.0
        assert finite_n_cells_prob(1000, gamma, [(10, 10, 0.0, x)]) == 0.0


def test_finite_n_against_one_factor_simulation():
    # alternating pattern on n = 200, gamma = 1, two cells; Monte Carlo with
    # 2e4 replications agrees within 4 binomial standard errors
    from gapextremes.extremes import LevelParams
    from gapextremes.gaussian import CovarianceSpec, build_model, sample_path
    from gapextremes.streams import substreams

    n, reps, gamma = 200, 20_000, 1.0
    model = build_model(n, CovarianceSpec("one_factor", gamma=gamma))
    eps = (np.arange(n) % 2 == 0)  # 1-based odd indices observed
    ranges = [(0, 60), (100, 180)]  # (0, 0.3] and (0.5, 0.9]
    x, y = 0.0, 0.5
    cells = []
    for lo, hi in ranges:
        n_obs = int(eps[lo:hi].sum())
        cells.append((n_obs, (hi - lo) - n_obs, x, y))
    exact = finite_n_cells_prob(n, gamma, cells)

    lp = LevelParams.for_length(n)
    ux, uy = lp.level(x), lp.level(y)
    hits = 0
    for stream in substreams(314, range(reps), "path"):
        v = sample_path(model, stream)[0]
        ok = True
        for lo, hi in ranges:
            seg, seg_eps = v[lo:hi], eps[lo:hi]
            if np.any(seg[seg_eps] > ux) or np.any(seg[~seg_eps] > uy):
                ok = False
                break
        hits += ok
    p_hat = hits / reps
    se = math.sqrt(exact * (1 - exact) / reps)
    assert abs(p_hat - exact) < 4 * se


BATCH_CELLS = [
    (0, 0, 0, 0),
    (1, 0, 2, 1),
    (0, 2, 1, 3),
    (2, 1, 3, 1),
    (3, 0, 1, 0),  # breaks the nesting for x > y
    (1, 0, 3, 0),  # breaks the nesting for x < y
    (0, 4, 0, 4),
    (1, 1, 1, 1),
]


@pytest.mark.parametrize(
    "law", [LambdaLaw.point(0.5), LambdaLaw.uniform(0.0, 1.0), LambdaLaw.beta(2.0, 2.0)]
)
@pytest.mark.parametrize("gamma", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("measure", [0.5, 1.0])
@pytest.mark.parametrize("x, y", [(1.0, 0.0), (-0.5, 0.7)])
def test_pmf_batch_equals_scalar_exactly(law, gamma, measure, x, y):
    params = LimitLawParams(gamma, law)
    batch = joint_counts_pmf_batch(params, measure, x, y, np.array(BATCH_CELLS))
    assert batch.shape == (len(BATCH_CELLS),)
    for cell, value in zip(BATCH_CELLS, batch):
        assert value == joint_counts_pmf(params, measure, x, y, *cell)
    assert (batch == 0.0).sum() >= 1  # some row breaks the nesting either way


def _pmf_one_cell_quadrature(params, measure, x, y, k1, k2, k3, k4):
    # reference: one converge loop per cell over the product of the four
    # Poisson pmfs, as an unbatched evaluation computes it
    lo, hi = min(x, y), max(x, y)
    obs_hi, obs_lo, mis_hi, mis_lo = (k1, k3, k2, k4) if x > y else (k3, k1, k4, k2)

    def pmf(k, mu):  # the program's formula: log and lgamma round unlike xlogy and gammaln
        if k == 0:
            return np.exp(-mu)
        return np.exp(k * np.log(mu) - mu - math.lgamma(k + 1))

    def evaluate(rule):
        lam = rule.lam_col
        g_hi = g_intensity(params.gamma, hi, rule.z)
        gap = g_intensity(params.gamma, lo, rule.z) - g_hi
        return rule.expect(
            pmf(obs_hi, lam * measure * g_hi)
            * pmf(obs_lo - obs_hi, lam * measure * gap)
            * pmf(mis_hi, (1.0 - lam) * measure * g_hi)
            * pmf(mis_lo - mis_hi, (1.0 - lam) * measure * gap)
        )

    # the batch's z rule: aligned to the step of each level
    steps = () if params.gamma == 0.0 else tuple(g_step(params.gamma, v) for v in (lo, hi))
    return min(max(converge(params.lambda_law, evaluate, steps=steps, shape=(1,))[0], 0.0), 1.0)


@pytest.mark.parametrize("params", [POINT_HALF, MIXED, BETA_HALF])
def test_pmf_batch_matches_per_cell_quadrature_exactly(params):
    for x, y in [(1.0, 0.0), (-0.5, 0.7)]:
        above_x, above_y = (slice(0, 2), slice(2, 4)) if x > y else (slice(2, 4), slice(0, 2))
        nested = [c for c in BATCH_CELLS if np.all(np.less_equal(c[above_x], c[above_y]))]
        batch = joint_counts_pmf_batch(params, 0.5, x, y, nested)
        assert batch.tolist() == [_pmf_one_cell_quadrature(params, 0.5, x, y, *c) for c in nested]


@pytest.mark.parametrize("law", [LambdaLaw.uniform(0.0, 1.0), LambdaLaw.beta(2.0, 2.0)])
def test_pmf_batch_pending_rows_equal_all_rows_exactly(law, monkeypatch):
    # converge hands later rules only the unsettled rows; evaluating every
    # row at every rule instead must give the same floats.  At levels this
    # far apart some rows settle a doubling later than the rest.
    params = LimitLawParams(4.0, law)
    cells = [c for c in itertools.product(range(3), repeat=4) if c[0] <= c[2] and c[1] <= c[3]]
    pending = joint_counts_pmf_batch(params, 1.0, 6.0, -6.0, cells)
    sizes = []

    def all_rows(law, evaluate, **kwargs):
        def every(rule):
            sizes.append(rule.rows.size)
            every_row = dataclasses.replace(rule, rows=np.arange(len(cells)))
            return np.asarray(evaluate(every_row))[rule.rows]

        return converge(law, every, **kwargs)

    monkeypatch.setattr(limit_laws, "converge", all_rows)
    assert joint_counts_pmf_batch(params, 1.0, 6.0, -6.0, cells).tolist() == pending.tolist()
    assert sizes[0] == sizes[1] > sizes[2] > 0


def test_pmf_batch_validation_and_empty():
    with pytest.raises(InvalidParameterError):
        joint_counts_pmf_batch(MIXED, 0.5, 1.0, 0.0, [(0, 0, 0)])
    with pytest.raises(InvalidParameterError):
        joint_counts_pmf_batch(MIXED, 0.5, 1.0, 0.0, [(0, 0, 0, 0), (0, 1.5, 0, 2)])
    with pytest.raises(InvalidParameterError):
        joint_counts_pmf_batch(MIXED, 1.5, 1.0, 0.0, [(0, 0, 0, 0)])
    assert joint_counts_pmf_batch(MIXED, 0.5, 1.0, 0.0, np.zeros((0, 4), int)).shape == (0,)
    assert joint_counts_pmf_batch(MIXED, 0.5, 1.0, 0.0, [(3, 0, 1, 0)]).tolist() == [0.0]


@pytest.mark.parametrize("pair", ["obs_missed", "obs_all", "missed_all"])
def test_locations_heights_array_locations_equal_scalar_calls(pair):
    grid = (0.25, 0.5, 1.0)
    s, t = np.meshgrid(grid, grid, indexing="ij")
    for params in (POINT_HALF, BETA_HALF):
        got = pair_cdf(params, pair, s, t, -0.3, 0.4)
        assert got.shape == (3, 3)
        for i, j in itertools.product(range(3), repeat=2):
            assert got[i, j] == pair_cdf(params, pair, grid[i], grid[j], -0.3, 0.4)
    with pytest.raises(InvalidParameterError):
        pair_cdf(POINT_HALF, pair, s, t * 2.0, -0.3, 0.4)


# ---------------------------------------------------------------------------
# locations and heights


def test_locations_heights_product_form():
    got = pair_cdf(POINT_HALF, "obs_missed", 0.5, 0.5, 0.0, 0.0)
    assert got == pytest.approx(0.25 * math.exp(-1.0), abs=1e-12)


def test_locations_heights_st_one_reduction():
    for params in (POINT_HALF, MIXED):
        got = pair_cdf(params, "obs_missed", 1.0, 1.0, 0.3, -0.2)
        assert got == pytest.approx(joint_maxima_cdf(params, 0.3, -0.2), abs=1e-12)


def test_locations_heights_class_level_above_overall():
    # the class max never exceeds the overall max: a class level above the
    # overall one is slack, so x > y is the law at (y, y)
    for pair in ("obs_all", "missed_all"):
        assert pair_cdf(MIXED, pair, 0.5, 0.5, 0.6, 0.1) == pair_cdf(MIXED, pair, 0.5, 0.5, 0.1, 0.1)
    # obs_missed has no level restriction
    pair_cdf(MIXED, "obs_missed", 0.5, 0.5, 0.6, 0.1)


def test_locations_heights_split_identity():
    # the race term and its complement reassemble the joint maxima law at
    # equal levels, for both restricted pairs
    for params in (MIXED, BETA_HALF):
        for x in (-0.5, 0.4):
            joint = joint_maxima_cdf(params, x, x)
            assert pair_cdf(params, "obs_all", 1.0, 1.0, x, x) == pytest.approx(
                joint, abs=1e-10
            )
            assert pair_cdf(params, "missed_all", 1.0, 1.0, x, x) == pytest.approx(
                joint, abs=1e-10
            )


def test_locations_heights_obs_all_strong_dependence():
    # gamma = 4: one quadrature loop over the folded integrand converges here
    from scipy import integrate

    gamma, s, t, x, y = 4.0, 0.5, 0.75, 0.0, 0.7

    def integrand(z):
        gx, gy = g_intensity(gamma, x, z), g_intensity(gamma, y, z)
        joint = math.exp(-0.5 * gx - 0.5 * gy)
        race = 0.5 * math.exp(-gx)
        return (s * t * (joint - race) + min(s, t) * race) * math.exp(-0.5 * z * z)

    step = (x + gamma) / math.sqrt(2.0 * gamma)
    parts = (integrate.quad(integrand, -math.inf, step, epsabs=1e-14)[0]
             + integrate.quad(integrand, step, math.inf, epsabs=1e-14)[0])
    expected = parts / math.sqrt(2.0 * math.pi)
    got = pair_cdf(LimitLawParams(gamma, LambdaLaw.point(0.5)), "obs_all", s, t, x, y)
    assert got == pytest.approx(expected, abs=1e-10)


def test_locations_heights_complement_symmetry():
    base = LambdaLaw.beta(2.0, 5.0)
    a = pair_cdf(LimitLawParams(0.5, base), "missed_all", 0.3, 0.8, 0.0, 0.5)
    b = pair_cdf(
        LimitLawParams(0.5, complement(base)), "obs_all", 0.3, 0.8, 0.0, 0.5
    )
    assert a == pytest.approx(b, abs=1e-11)


def _locations_cdf(law, pair, s, t):
    # the location-only law: heights at +inf drop their constraints
    return pair_cdf(LimitLawParams(0.0, law), pair, s, t, INF, INF)


def test_locations_cdf_values():
    assert _locations_cdf(LambdaLaw.uniform(0, 1), "obs_missed", 0.3, 0.7) == pytest.approx(0.21)
    # all observed: the overall location is the observed location
    assert _locations_cdf(LambdaLaw.point(1.0), "obs_all", 0.3, 0.7) == pytest.approx(0.3)
    assert _locations_cdf(LambdaLaw.point(0.0), "missed_all", 0.3, 0.7) == pytest.approx(0.3)
    got = _locations_cdf(LambdaLaw.beta(2, 3), "obs_all", 0.6, 0.2)
    assert got == pytest.approx(0.6 * 0.2 * 0.6 + 0.2 * 0.4)


@pytest.mark.parametrize("which, empty_at", [("observed", 0.0), ("missed", 1.0)])
def test_located_class_the_fraction_law_can_empty(which, empty_at):
    # an atom at lambda = 0 empties the observed class and one at 1 the
    # missed class; an empty class has no location, so its location term
    # is false on that atom and only the other atom counts
    params = LimitLawParams(0.5, LambdaLaw.point(empty_at))
    assert locations_heights_cdf(params, {which: 0.5}, {which: 0.0}) == 0.0
    assert locations_heights_cdf(params, {which: 0.5, "all": 0.7}, {}) == 0.0
    mixed = LimitLawParams(0.5, LambdaLaw.discrete([empty_at, 0.5], [0.5, 0.5]))
    half = LimitLawParams(0.5, LambdaLaw.point(0.5))
    got = locations_heights_cdf(mixed, {which: 0.5}, {which: 0.0})
    assert got == pytest.approx(0.5 * locations_heights_cdf(half, {which: 0.5}, {which: 0.0}),
                                abs=1e-12)
    # the other class and the overall class are never empty
    other = "missed" if which == "observed" else "observed"
    assert locations_heights_cdf(params, {other: 0.5, "all": 0.5}, {}) == pytest.approx(0.5)


def test_locations_cdf_symmetry_and_validation():
    law = LambdaLaw.beta(2.0, 5.0)
    a = _locations_cdf(law, "obs_all", 0.3, 0.8)
    b = _locations_cdf(complement(law), "missed_all", 0.3, 0.8)
    assert a == pytest.approx(b, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        _locations_cdf(law, "obs_missed", 0.0, 0.5)
    with pytest.raises(InvalidParameterError):
        locations_heights_cdf(LimitLawParams(0.0, law), {"everything": 0.5}, {})
