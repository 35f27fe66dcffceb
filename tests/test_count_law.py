"""The band-cell law of count events, against a direct sampler of the
limiting point processes and against equivalent spellings of one event."""
import itertools
import math

import numpy as np
import pytest

from gapextremes import limit_laws
from gapextremes.errors import InvalidParameterError
from gapextremes.events import CountTerm, Event, order_stat, theory_finite_n, theory_limit
from gapextremes.extremes import IntervalFamily
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import LimitLawParams
from reference import assert_within_sigma, count_event_hits

PARAMS = LimitLawParams(0.5, LambdaLaw.beta(2.0, 2.0))
INF = math.inf
REPS = 200_000


def _beta22(rng, size):
    return rng.beta(2.0, 2.0, size)


def _count(which, intervals, x, op, value):
    return CountTerm(which, IntervalFamily.of(*intervals), x, op, value)


def check_against_sampler(terms, seed, params=PARAMS, sample_lambda=_beta22):
    """theory_limit of the count terms within 4 sigma of the direct sampler."""
    theory = theory_limit(Event("e", tuple(terms)), params)
    spec = [(t.which, t.family.intervals, t.x, t.op, t.value) for t in terms]
    hits = count_event_hits(spec, params.gamma, sample_lambda, REPS, seed)
    assert_within_sigma(hits, theory, REPS)


@pytest.mark.parametrize(
    "terms",
    [
        # three-class order statistics
        (order_stat("observed", 2, 0.1), order_stat("missed", 2, 0.4), order_stat("all", 3, 0.0)),
        (order_stat("observed", 1, -0.2), order_stat("missed", 3, 0.3), order_stat("all", 2, 0.6)),
        # 'le' counts at two levels on overlapping families
        (_count("observed", [(0.0, 0.6)], 0.0, "le", 1), _count("all", [(0.3, 1.0)], 0.5, "le", 2)),
        (_count("all", [(0.0, 0.7)], -0.3, "le", 3),
         _count("missed", [(0.2, 0.5), (0.6, 0.9)], 0.8, "le", 0),
         _count("observed", [(0.4, 1.0)], 0.8, "le", 1)),
        # a one-class 'eq' count
        (_count("missed", [(0.2, 0.9)], -0.3, "eq", 1),),
        # 'eq' and 'le' terms mixed on overlapping families
        (_count("observed", [(0.0, 0.5)], 0.0, "eq", 1),
         _count("all", [(0.25, 1.0)], 0.4, "le", 1)),
    ],
    ids=["three-class", "three-class-mixed-ranks", "le-two-levels-overlapping",
         "le-three-families", "one-class-eq", "eq-le-overlapping"],
)
def test_new_shapes_match_direct_sampler(terms):
    check_against_sampler(terms, seed=11)


def test_asymmetric_law_matches_direct_sampler():
    # Beta(2, 2) is symmetric, so it cannot tell the two classes apart
    params = LimitLawParams(1.0, LambdaLaw.beta(2.0, 5.0))
    terms = (order_stat("observed", 2, 0.1), order_stat("missed", 1, 0.4),
             order_stat("all", 3, -0.2))
    check_against_sampler(terms, 12, params, lambda rng, size: rng.beta(2.0, 5.0, size))


OVERLAPPING = (
    _count("observed", [(0.0, 0.6)], 0.0, "le", 1),
    _count("all", [(0.3, 1.0)], 0.5, "le", 2),
    _count("missed", [(0.1, 0.4)], -0.5, "eq", 1),
    order_stat("observed", 3, 1.0),
)


def test_count_value_ignores_term_order():
    values = {theory_limit(Event("e", order), PARAMS)
              for order in itertools.permutations(OVERLAPPING)}
    assert len(values) == 1 and None not in values


def test_count_value_ignores_equivalent_spellings():
    unit = IntervalFamily.unit()
    spelled = theory_limit(Event("e", (order_stat("observed", 3, 0.2),
                                       order_stat("all", 4, 0.0))), PARAMS)
    counted = theory_limit(Event("e", (CountTerm("observed", unit, 0.2, "le", 2),
                                       CountTerm("all", unit, 0.0, "le", 3))), PARAMS)
    assert spelled == counted
    # a duplicated term is the same constraint
    duplicated = theory_limit(Event("e", OVERLAPPING + OVERLAPPING[:2]), PARAMS)
    assert duplicated == theory_limit(Event("e", OVERLAPPING), PARAMS)
    # 'eq 0' and 'le 0' differ only in the Poisson factor used (pmf or cdf at 0)
    eq0 = theory_limit(Event("e", (_count("all", [(0.2, 0.8)], 0.3, "eq", 0),
                                   _count("observed", [(0.5, 1.0)], -0.2, "eq", 0))), PARAMS)
    le0 = theory_limit(Event("e", (_count("all", [(0.2, 0.8)], 0.3, "le", 0),
                                   _count("observed", [(0.5, 1.0)], -0.2, "le", 0))), PARAMS)
    assert eq0 == pytest.approx(le0, abs=1e-15)
    # contradictory equalities on one count are impossible
    fam = [(0.2, 0.8)]
    assert theory_limit(Event("e", (_count("observed", fam, 0.3, "eq", 1),
                                    _count("observed", fam, 0.3, "eq", 2))), PARAMS) == 0.0


def test_compile_counts_cells():
    cells = limit_laws.compile_counts([
        ("observed", ((0.0, 0.6),), 0.0),
        ("all", ((0.3, 1.0),), 0.5),
        ("observed", ((0.0, 0.6),), 0.0),  # a duplicate maps to the first
    ])
    assert cells.index == (0, 1, 0)
    assert [intervals for intervals, _ in cells.atoms] == [
        ((0.0, 0.3),), ((0.3, 0.6),), ((0.6, 1.0),)]
    assert [measure for _, measure in cells.atoms] == [0.3, 0.6 - 0.3, 1.0 - 0.6]
    # observed above 0.5 in the middle atom is the only count both terms
    # share; each term's other counts merge into its private variable
    assert cells.variables == (
        ((0,), ((0, "observed", INF, 0.0), (1, "observed", 0.5, 0.0))),
        ((0, 1), ((1, "observed", INF, 0.5),)),
        ((1,), ((1, "missed", INF, 0.5), (2, "observed", INF, 0.5), (2, "missed", INF, 0.5))),
    )


def test_finite_n_void_on_overlapping_families():
    n, gamma = 100, 0.5
    pattern = np.arange(n) % 2 == 0
    ev = Event("v", (
        _count("observed", [(0.0, 0.6)], 0.0, "eq", 0),
        _count("all", [(0.4, 1.0)], 0.5, "le", 0),
        _count("missed", [(0.2, 0.5)], -0.5, "eq", 0),
    ))
    # atoms (0,.2] (.2,.4] (.4,.5] (.5,.6] (.6,1] hold indices 0-19, 20-39,
    # 40-49, 50-59 and 60-99, half of each observed; each class keeps below
    # the lowest level any term counts it at in the atom
    atoms = [(10, 10, 0.0, INF), (10, 10, 0.0, -0.5), (5, 5, 0.0, -0.5), (5, 5, 0.0, 0.5),
             (20, 20, 0.5, 0.5)]
    assert theory_finite_n(ev, n, gamma, pattern) == limit_laws.finite_n_one_factor_prob(
        n, gamma, atoms)


def test_assignment_cap_gives_no_theory():
    # min(k, m) = 5000 values of the shared class count above the higher level
    ev = Event("cap", (order_stat("observed", 5000, 0.0), order_stat("all", 5000, 0.5)))
    assert theory_limit(ev, PARAMS) is None
    with pytest.raises(InvalidParameterError):
        limit_laws.order_stats_vs_all_cdf(PARAMS, "observed", 5000, 5000, 0.0, 0.5)
    # an infeasible equality settled only by the last of many shared counts
    # stops at the cap rather than searching every assignment
    nested = [CountTerm("all", IntervalFamily.unit(), float(x), "le", 30) for x in range(8)]
    nested.append(CountTerm("observed", IntervalFamily.unit(), 0.0, "eq", 1000))
    assert theory_limit(Event("deep", tuple(nested)), PARAMS) is None
