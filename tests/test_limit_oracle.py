import itertools
import math

import numpy as np
import pytest
from scipy import stats

from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import (
    LimitLawParams,
    g_intensity,
    g_step,
    joint_counts_pmf,
    locations_heights_cdf,
    order_stats_obs_missed_cdf,
    order_stats_vs_all_cdf,
    void_probability_intervals,
)
from gapextremes.limit_oracle import (
    _draw_latents,
    sample_limit_counts,
    sample_limit_maxima_locations,
)
from gapextremes.quadrature import rule_for
from gapextremes.streams import substream
from pairs import pair_cdf
from reference import count_event_hits, lambda_mean, overall_loc, overall_max


def _z(emp, theory, n):
    se = math.sqrt(theory * (1.0 - theory) / n)
    return (emp - theory) / se


def test_point_one_kills_missed_class():
    params = LimitLawParams(0.5, LambdaLaw.point(1.0))
    _, missed = sample_limit_counts(params, 1.0, [0.0], substream(1, 0, "t"), size=5000)
    assert (missed == 0).all()
    m = sample_limit_maxima_locations(params, substream(1, 1, "t"), size=5000)
    _, missed_max, observed_loc, _ = m
    assert (missed_max == -math.inf).all()
    assert np.array_equal(overall_loc(m), observed_loc)


def test_zero_measure_degenerates():
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    observed, missed = sample_limit_counts(params, 0.0, [0.0, 1.0], substream(2, 0, "t"), size=2000)
    assert (observed == 0).all() and (missed == 0).all()


def test_levels_must_increase():
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    with pytest.raises(Exception):
        sample_limit_counts(params, 1.0, [1.0, 0.0], substream(3, 0, "t"))


def test_nesting_holds_pathwise():
    params = LimitLawParams(1.0, LambdaLaw.uniform(0, 1))
    observed, missed = sample_limit_counts(params, 1.0, [-1.0, 0.0, 0.5, 2.0], substream(4, 0, "t"),
                                           size=20_000)
    assert (np.diff(observed, axis=0) <= 0).all()
    assert (np.diff(missed, axis=0) <= 0).all()


def test_joint_pmf_equivalence():
    # derived oracle pin: empirical joint pmf against the quadrature pmf
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    n = 300_000
    observed, missed = sample_limit_counts(params, 0.5, [0.0, 1.0], substream(11, 0, "t"), size=n)
    obs_x, mis_x, obs_y, mis_y = observed[1], missed[1], observed[0], missed[0]
    for cell in [(0, 0, 0, 0), (1, 0, 2, 1), (0, 1, 1, 1), (1, 1, 1, 1)]:
        k1, k2, k3, k4 = cell
        emp = float(np.mean((obs_x == k1) & (mis_x == k2) & (obs_y == k3) & (mis_y == k4)))
        theory = joint_counts_pmf(params, 0.5, 1.0, 0.0, *cell)
        assert abs(_z(emp, theory, n)) < 4.0, cell


def test_order_stats_equivalence_via_counts():
    # P(2nd observed max <= u(x), 2nd missed max <= u(y)) equals
    # P(obs count at x <= 1, missed count at y <= 1) over the unit family
    params = LimitLawParams(0.5, LambdaLaw.beta(2, 2))
    n = 300_000
    x, y = 0.0, 0.5
    observed, missed = sample_limit_counts(params, 1.0, [x, y], substream(12, 0, "t"), size=n)
    emp = float(np.mean((observed[0] <= 1) & (missed[1] <= 1)))
    theory = order_stats_obs_missed_cdf(params, 2, 2, x, y)
    assert abs(_z(emp, theory, n)) < 4.0


def test_vs_all_equivalence_via_counts():
    # missed l=2 against overall m=2 at x=0.2 > y=-0.1
    params = LimitLawParams(0.0, LambdaLaw.point(0.4))
    n = 300_000
    y, x = -0.1, 0.2
    observed, missed = sample_limit_counts(params, 1.0, [y, x], substream(13, 0, "t"), size=n)
    total_y = observed[0] + missed[0]
    emp = float(np.mean((missed[1] <= 1) & (total_y <= 1)))
    theory = order_stats_vs_all_cdf(params, "missed", 2, 2, x, y)
    assert abs(_z(emp, theory, n)) < 4.0


def test_void_equivalence():
    params = LimitLawParams(1.0, LambdaLaw.uniform(0, 1))
    cells = [(0.3, 0.0, 1.0), (0.4, -1.0, 2.0)]
    # the cells as void terms on adjacent intervals of their measures
    terms = [
        (which, [interval], level, "eq", 0)
        for interval, (_, x, y) in zip([(0.0, 0.3), (0.3, 0.7)], cells)
        for which, level in (("observed", x), ("missed", y))
    ]
    n = 300_000
    emp = count_event_hits(terms, params.gamma, params.lambda_law.sample, n, 14)
    theory = void_probability_intervals(params, cells)
    assert abs(_z(emp, theory, n)) < 4.0


def test_count_moments_match_mixed_poisson():
    # mean and variance of the level-x count against the law-of-total-
    # variance value computed by quadrature
    gamma, measure, x = 1.0, 1.0, 0.5
    law = LambdaLaw.beta(2, 2)
    params = LimitLawParams(gamma, law)
    n = 400_000
    observed, _ = sample_limit_counts(params, measure, [x], substream(15, 0, "t"), size=n)
    counts = observed[0]

    rule = rule_for(law, 96, 96, steps=(g_step(gamma, x),))
    mu = rule.lam_col * measure * g_intensity(gamma, x, rule.z)
    mean_theory = rule.expect(mu)
    var_theory = mean_theory + rule.expect(mu**2) - mean_theory**2
    assert mean_theory == pytest.approx(lambda_mean(law) * measure * math.exp(-x), rel=1e-9)

    se_mean = counts.std(ddof=1) / math.sqrt(n)
    assert abs(counts.mean() - mean_theory) < 4 * se_mean
    dev2 = (counts - counts.mean()) ** 2
    se_var = dev2.std(ddof=1) / math.sqrt(n)
    assert abs(counts.var(ddof=1) - var_theory) < 4 * se_var


def test_conditional_independence_of_classes():
    # inside a narrow (lambda, xi) bin the observed and missed counts are
    # independent Poissons, so their correlation vanishes
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    n = 400_000
    observed, missed = sample_limit_counts(params, 1.0, [0.0], substream(16, 0, "t"), size=n)
    # the sampler draws (lambda, xi) first: the same draws from an identical stream
    lam, xi = _draw_latents(params, substream(16, 0, "t"), n)
    sel = (np.abs(lam - 0.5) < 0.05) & (np.abs(xi) < 0.1)
    obs, mis = observed[0][sel], missed[0][sel]
    assert sel.sum() > 2000
    corr = np.corrcoef(obs, mis)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(sel.sum())


def test_locations_are_uniform():
    params = LimitLawParams(0.5, LambdaLaw.beta(2, 2))
    _, _, observed_loc, missed_loc = sample_limit_maxima_locations(
        params, substream(17, 0, "t"), size=200_000)
    assert stats.kstest(observed_loc, "uniform").pvalue > 0.01
    assert stats.kstest(missed_loc, "uniform").pvalue > 0.01
    assert (observed_loc > 0).all() and (observed_loc <= 1).all()


@pytest.mark.parametrize("p, empty", [(0.0, "observed"), (1.0, "missed")])
def test_empty_class_has_no_location(p, empty):
    # a point law at 0 empties the observed class and one at 1 the missed
    # class; its location is +inf, as in the path record, so its location
    # cdf is 0 while the other classes stay uniform
    params = LimitLawParams(0.5, LambdaLaw.point(p))
    n = 100_000
    m = sample_limit_maxima_locations(params, substream(21, 0, "t"), size=n)
    _, _, observed_loc, missed_loc = m
    loc = {"observed": observed_loc, "missed": missed_loc, "all": overall_loc(m)}
    assert (loc[empty] == math.inf).all()
    for which, s in itertools.product(loc, (0.25, 0.5, 1.0)):
        theory = locations_heights_cdf(params, {which: s}, {})
        emp = float(np.mean(loc[which] <= s))
        if which == empty:
            assert emp == theory == 0.0
        elif s == 1.0:
            assert emp == theory == 1.0
        else:
            assert abs(_z(emp, theory, n)) < 4.0


def test_maxima_locations_equivalence():
    # joint location/height law, including the overall-class pairs
    params = LimitLawParams(0.0, LambdaLaw.uniform(0, 1))
    n = 400_000
    m = sample_limit_maxima_locations(params, substream(18, 0, "t"), size=n)
    observed_max, missed_max, observed_loc, missed_loc = m
    s, t, x, y = 0.4, 0.7, 0.0, 0.5

    emp = float(np.mean((observed_loc <= s) & (missed_loc <= t)
                        & (observed_max <= x) & (missed_max <= y)))
    assert abs(_z(emp, pair_cdf(params, "obs_missed", s, t, x, y), n)) < 4.0

    emp = float(np.mean((observed_loc <= s) & (overall_loc(m) <= t)
                        & (observed_max <= x) & (overall_max(m) <= y)))
    assert abs(_z(emp, pair_cdf(params, "obs_all", s, t, x, y), n)) < 4.0

    emp = float(np.mean((missed_loc <= s) & (overall_loc(m) <= t)
                        & (missed_max <= x) & (overall_max(m) <= y)))
    assert abs(_z(emp, pair_cdf(params, "missed_all", s, t, x, y), n)) < 4.0


@pytest.mark.parametrize(
    "locs, heights",
    [
        ({"observed": 0.4, "all": 0.75}, {"observed": 1.0, "missed": -0.2, "all": 1.5}),
        ({"missed": 0.6, "all": 0.3}, {"observed": -0.4, "missed": 0.9}),
        ({"observed": 0.3, "missed": 0.7, "all": 0.5}, {"missed": 0.4, "all": 0.8}),
    ],
    ids=["observed-wins-above", "missed-wins-above", "three-classes"],
)
def test_maxima_locations_of_classes(locs, heights):
    # the observed class may win above the (unlocated) missed height, the
    # missed class above the (unlocated) observed height, and every class
    # may be located
    params = LimitLawParams(0.5, LambdaLaw.beta(2, 3))
    n = 400_000
    m = sample_limit_maxima_locations(params, substream(20, 0, "t"), size=n)
    observed_max, missed_max, observed_loc, missed_loc = m
    loc = {"observed": observed_loc, "missed": missed_loc, "all": overall_loc(m)}
    top = {"observed": observed_max, "missed": missed_max, "all": overall_max(m)}
    hits = np.ones(n, dtype=bool)
    for which, s in locs.items():
        hits &= loc[which] <= s
    for which, x in heights.items():
        hits &= top[which] <= x
    assert abs(_z(float(hits.mean()), locations_heights_cdf(params, locs, heights), n)) < 4.0


def test_maxima_race_probability():
    # P(observed class wins) = E[lambda] — the Gumbel race underlying the
    # overall-location laws
    law = LambdaLaw.beta(2, 3)
    observed_max, missed_max, _, _ = sample_limit_maxima_locations(
        LimitLawParams(1.0, law), substream(19, 0, "t"), size=400_000)
    emp = float(np.mean(observed_max > missed_max))
    assert abs(_z(emp, lambda_mean(law), 400_000)) < 4.0
