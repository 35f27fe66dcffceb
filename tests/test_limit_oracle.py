import math

import numpy as np
import pytest
from scipy import stats

from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import (
    LimitLawParams,
    joint_counts_pmf,
    locations_heights_cdf,
    order_stats_obs_missed_cdf,
    order_stats_vs_all_cdf,
    void_probability_intervals,
)
from gapextremes.limit_oracle import (
    sample_cell_counts,
    sample_limit_counts,
    sample_limit_maxima_locations,
)
from gapextremes.quadrature import rule_for
from gapextremes.streams import substream
from pairs import pair_cdf


def _z(emp, theory, n):
    se = math.sqrt(theory * (1.0 - theory) / n)
    return (emp - theory) / se


def test_point_one_kills_missed_class():
    params = LimitLawParams(0.5, LambdaLaw.point(1.0))
    s = sample_limit_counts(params, 1.0, [0.0], substream(1, 0, "t"), size=5000)
    assert (s.missed == 0).all()
    m = sample_limit_maxima_locations(params, substream(1, 1, "t"), size=5000)
    assert (m.missed_max == -math.inf).all()
    assert np.array_equal(m.overall_loc, m.observed_loc)


def test_zero_measure_degenerates():
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    s = sample_limit_counts(params, 0.0, [0.0, 1.0], substream(2, 0, "t"), size=2000)
    assert (s.observed == 0).all() and (s.missed == 0).all()


def test_levels_must_increase():
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    with pytest.raises(Exception):
        sample_limit_counts(params, 1.0, [1.0, 0.0], substream(3, 0, "t"))


def test_nesting_holds_pathwise():
    params = LimitLawParams(1.0, LambdaLaw.uniform(0, 1))
    s = sample_limit_counts(params, 1.0, [-1.0, 0.0, 0.5, 2.0], substream(4, 0, "t"), size=20_000)
    assert (np.diff(s.observed, axis=0) <= 0).all()
    assert (np.diff(s.missed, axis=0) <= 0).all()


def test_joint_pmf_equivalence():
    # derived oracle pin: empirical joint pmf against the quadrature pmf
    params = LimitLawParams(0.5, LambdaLaw.uniform(0, 1))
    n = 300_000
    s = sample_limit_counts(params, 0.5, [0.0, 1.0], substream(11, 0, "t"), size=n)
    obs_x, mis_x, obs_y, mis_y = s.observed[1], s.missed[1], s.observed[0], s.missed[0]
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
    s = sample_limit_counts(params, 1.0, [x, y], substream(12, 0, "t"), size=n)
    emp = float(np.mean((s.observed[0] <= 1) & (s.missed[1] <= 1)))
    theory = order_stats_obs_missed_cdf(params, 2, 2, x, y)
    assert abs(_z(emp, theory, n)) < 4.0


def test_vs_all_equivalence_via_counts():
    # missed l=2 against overall m=2 at x=0.2 > y=-0.1
    params = LimitLawParams(0.0, LambdaLaw.point(0.4))
    n = 300_000
    y, x = -0.1, 0.2
    s = sample_limit_counts(params, 1.0, [y, x], substream(13, 0, "t"), size=n)
    total_y = s.observed[0] + s.missed[0]
    emp = float(np.mean((s.missed[1] <= 1) & (total_y <= 1)))
    theory = order_stats_vs_all_cdf(params, "missed", 2, 2, x, y)
    assert abs(_z(emp, theory, n)) < 4.0


def test_void_equivalence():
    params = LimitLawParams(1.0, LambdaLaw.uniform(0, 1))
    cells = [(0.3, 0.0, 1.0), (0.4, -1.0, 2.0)]
    n = 300_000
    obs, mis, _ = sample_cell_counts(params, cells, substream(14, 0, "t"), size=n)
    emp = float(np.mean((obs == 0).all(axis=0) & (mis == 0).all(axis=0)))
    theory = void_probability_intervals(params, cells)
    assert abs(_z(emp, theory, n)) < 4.0


def test_count_moments_match_mixed_poisson():
    # mean and variance of the level-x count against the law-of-total-
    # variance value computed by quadrature
    gamma, measure, x = 1.0, 1.0, 0.5
    law = LambdaLaw.beta(2, 2)
    params = LimitLawParams(gamma, law)
    n = 400_000
    s = sample_limit_counts(params, measure, [x], substream(15, 0, "t"), size=n)
    counts = s.observed[0]

    rule = rule_for(law, 96, 96)
    from gapextremes.limit_laws import g_intensity

    mu = rule.lam_col * measure * g_intensity(gamma, x, rule.z)
    mean_theory = rule.expect(mu)
    var_theory = mean_theory + rule.expect(mu**2) - mean_theory**2
    assert mean_theory == pytest.approx(law.mean() * measure * math.exp(-x), rel=1e-9)

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
    s = sample_limit_counts(params, 1.0, [0.0], substream(16, 0, "t"), size=n)
    sel = (np.abs(s.lam - 0.5) < 0.05) & (np.abs(s.xi) < 0.1)
    obs, mis = s.observed[0][sel], s.missed[0][sel]
    assert sel.sum() > 2000
    corr = np.corrcoef(obs, mis)[0, 1]
    assert abs(corr) < 4.0 / math.sqrt(sel.sum())


def test_locations_are_uniform():
    params = LimitLawParams(0.5, LambdaLaw.beta(2, 2))
    m = sample_limit_maxima_locations(params, substream(17, 0, "t"), size=200_000)
    assert stats.kstest(m.observed_loc, "uniform").pvalue > 0.01
    assert stats.kstest(m.missed_loc, "uniform").pvalue > 0.01
    assert (m.observed_loc > 0).all() and (m.observed_loc <= 1).all()


def test_maxima_locations_equivalence():
    # joint location/height law, including the overall-class pairs
    params = LimitLawParams(0.0, LambdaLaw.uniform(0, 1))
    n = 400_000
    m = sample_limit_maxima_locations(params, substream(18, 0, "t"), size=n)
    s, t, x, y = 0.4, 0.7, 0.0, 0.5

    emp = float(np.mean((m.observed_loc <= s) & (m.missed_loc <= t)
                        & (m.observed_max <= x) & (m.missed_max <= y)))
    assert abs(_z(emp, pair_cdf(params, "obs_missed", s, t, x, y), n)) < 4.0

    emp = float(np.mean((m.observed_loc <= s) & (m.overall_loc <= t)
                        & (m.observed_max <= x) & (m.overall_max <= y)))
    assert abs(_z(emp, pair_cdf(params, "obs_all", s, t, x, y), n)) < 4.0

    emp = float(np.mean((m.missed_loc <= s) & (m.overall_loc <= t)
                        & (m.missed_max <= x) & (m.overall_max <= y)))
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
    loc = {"observed": m.observed_loc, "missed": m.missed_loc, "all": m.overall_loc}
    top = {"observed": m.observed_max, "missed": m.missed_max, "all": m.overall_max}
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
    m = sample_limit_maxima_locations(LimitLawParams(1.0, law), substream(19, 0, "t"), size=400_000)
    emp = float(np.mean(m.observed_max > m.missed_max))
    assert abs(_z(emp, law.mean(), 400_000)) < 4.0
