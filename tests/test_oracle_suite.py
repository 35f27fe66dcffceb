import re

from gapextremes.limit_laws import LimitLawParams, joint_counts_pmf, locations_heights_cdf
from gapextremes.oracle_suite import (
    COUNT_LEVELS,
    COUNT_SETTINGS,
    MAXIMA_PARAMS,
    counts_suite,
    maxima_suite,
)


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
        assert row.theory == locations_heights_cdf(MAXIMA_PARAMS, "obs_missed", s, t, x, y)
