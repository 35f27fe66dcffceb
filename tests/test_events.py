import itertools
import math

import numpy as np
import pytest

from gapextremes import limit_laws
from gapextremes.errors import ConfigError
from gapextremes.events import (
    CompiledEvents,
    CountTerm,
    Event,
    LocationTerm,
    order_stat,
    theory_finite_n,
    theory_limit,
)
from gapextremes.extremes import IntervalFamily, LevelParams
from gapextremes.harness import parse_config, parse_event
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import LimitLawParams
from gapextremes.missingness import MissingnessModel, fixed_pattern
from pairs import pair_cdf
from reference import (
    assert_within_sigma,
    count_event_hits,
    exceedance_counts,
    family_measure,
    finite_n_cells_prob,
    kth_maximum,
    lambda_mean,
    max_location,
)

PARAMS = LimitLawParams(0.5, LambdaLaw.beta(2.0, 2.0))
INF = math.inf


def test_parse_event_roundtrip():
    doc = {
        "id": "ev",
        "terms": [
            {"type": "order_stat", "class": "observed", "k": 2, "x": 0.5},
            {"type": "count", "class": "missed", "intervals": [[0.0, 0.5]], "x": 0.0,
             "op": "eq", "value": 0},
            {"type": "location", "class": "all", "s": 0.25},
        ],
    }
    event = parse_event(doc)
    assert event.event_id == "ev"
    assert event.terms[0] == order_stat("observed", 2, 0.5)
    assert isinstance(event.terms[1], CountTerm)
    assert event.terms[2] == LocationTerm("all", 0.25)


def test_parse_event_strict_keys():
    with pytest.raises(ConfigError):
        parse_event({"id": "e", "terms": [], "extra": 1})
    with pytest.raises(ConfigError):
        parse_event({"id": "e", "terms": [{"type": "order_stat", "class": "observed",
                                           "k": 1, "x": 0.0, "y": 1.0}]})
    with pytest.raises(ConfigError):
        parse_event({"id": "e", "terms": [{"type": "nope"}]})
    with pytest.raises(ConfigError):
        parse_event({"id": "e", "terms": []})


def test_compiled_events_match_direct_functions():
    rng = np.random.default_rng(123)
    n = 200
    family = IntervalFamily.of((0.1, 0.4), (0.6, 0.9))
    events = [
        Event("a", (order_stat("observed", 1, 0.0), order_stat("missed", 1, 0.5))),
        Event("b", (order_stat("all", 3, -0.5),)),
        Event("c", (CountTerm("observed", family, 0.0, "eq", 0),
                    CountTerm("missed", family, 0.2, "le", 2))),
        Event("d", (LocationTerm("observed", 0.5), LocationTerm("all", 0.25))),
        Event("e", (order_stat("observed", 2, 0.3), LocationTerm("missed", 0.75))),
    ]
    compiled = CompiledEvents(events, n)
    lp = LevelParams.for_length(n)
    for _ in range(50):
        values = rng.standard_normal(n)
        eps = rng.random(n) < rng.random()
        got = compiled(values, eps)
        rec = exceedance_counts(values, eps, [0.0, 0.2], [family])
        expected = [
            kth_maximum(values, eps, "observed", 1) <= lp.level(0.0)
            and kth_maximum(values, eps, "missed", 1) <= lp.level(0.5),
            kth_maximum(values, eps, "all", 3) <= lp.level(-0.5),
            rec.observed[0, 0] == 0 and rec.missed[1, 0] <= 2,
            (max_location(values, eps, "observed") or n + 1) <= math.floor(0.5 * n)
            and (max_location(values, eps, "all") or n + 1) <= math.floor(0.25 * n),
            kth_maximum(values, eps, "observed", 2) <= lp.level(0.3)
            and (max_location(values, eps, "missed") or n + 1) <= math.floor(0.75 * n),
        ]
        assert got.tolist() == expected


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize(
    "pair", [("observed", "missed"), ("observed", "all"), ("missed", "all")], ids="-".join
)
def test_order_stat_spells_a_whole_path_count(pair, k):
    # k-th class maximum <= u_n(x) iff at most k - 1 class values exceed u_n(x)
    levels = (0.1, 0.4)
    order_doc = {"id": "e", "terms": [
        {"type": "order_stat", "class": which, "k": k, "x": x} for which, x in zip(pair, levels)]}
    count_doc = {"id": "e", "terms": [
        {"type": "count", "class": which, "intervals": [[0, 1]], "x": x, "op": "le", "value": k - 1}
        for which, x in zip(pair, levels)]}
    by_order, by_count = parse_event(order_doc), parse_event(count_doc)

    limit = theory_limit(by_order, PARAMS)
    assert limit is not None and limit == theory_limit(by_count, PARAMS)

    n, gamma = 60, 0.5
    pattern = fixed_pattern(MissingnessModel.periodic("10"), n)
    finite = theory_finite_n(by_order, n, gamma, pattern)
    assert finite == theory_finite_n(by_count, n, gamma, pattern)
    assert (finite is not None) == (k == 1)

    rng = np.random.default_rng(k)
    compiled_order, compiled_count = CompiledEvents([by_order], n), CompiledEvents([by_count], n)
    for _ in range(50):
        values = rng.standard_normal(n) + 2.0
        eps = rng.random(n) < rng.random()
        assert compiled_order(values, eps).tolist() == compiled_count(values, eps).tolist()

    config = {"model": {"family": "one_factor", "n": n, "gamma": gamma},
              "missingness": {"kind": "periodic", "pattern": "10"}, "reps": 1, "master_seed": 0}
    assert (parse_config({**config, "targets": [order_doc]}).hash()
            == parse_config({**config, "targets": [count_doc]}).hash())


def test_compiled_events_empty_class_location_is_false():
    event = Event("loc", (LocationTerm("missed", 1.0),))
    compiled = CompiledEvents([event], 10)
    values = np.zeros(10)
    assert not compiled(values, np.ones(10, dtype=bool))[0]
    assert compiled(values, np.zeros(10, dtype=bool))[0]


# ---------------------------------------------------------------------------
# limit-theory recognition


def test_theory_order_stat_pairs():
    ev = Event("x", (order_stat("observed", 2, 0.1), order_stat("missed", 3, 0.4)))
    assert theory_limit(ev, PARAMS) == limit_laws.order_stats_obs_missed_cdf(PARAMS, 2, 3, 0.1, 0.4)

    ev = Event("x", (order_stat("observed", 2, 0.1), order_stat("all", 3, 0.4)))
    assert theory_limit(ev, PARAMS) == limit_laws.order_stats_vs_all_cdf(PARAMS, "observed", 2, 3, 0.1, 0.4)

    ev = Event("x", (order_stat("missed", 1, 0.5), order_stat("all", 2, 0.2)))
    assert theory_limit(ev, PARAMS) == limit_laws.order_stats_vs_all_cdf(PARAMS, "missed", 1, 2, 0.5, 0.2)


def test_theory_order_stat_marginals():
    ev = Event("x", (order_stat("observed", 2, 0.1),))
    assert theory_limit(ev, PARAMS) == limit_laws.order_stats_obs_missed_cdf(PARAMS, 2, 1, 0.1, INF)
    ev = Event("x", (order_stat("all", 2, 0.1),))
    assert theory_limit(ev, PARAMS) == limit_laws.order_stats_vs_all_cdf(PARAMS, "observed", 1, 2, INF, 0.1)


def test_theory_void_counts():
    left = IntervalFamily.of((0.0, 0.3))
    right = IntervalFamily.of((0.5, 0.9))
    ev = Event(
        "v",
        (
            CountTerm("observed", left, 0.0, "eq", 0),
            CountTerm("missed", left, 0.5, "eq", 0),
            CountTerm("all", right, 0.2, "le", 0),
        ),
    )
    expected = limit_laws.void_probability_intervals(
        PARAMS, [(0.3, 0.0, 0.5), (0.4, 0.2, 0.2)]
    )
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-15)


def test_theory_void_multiple_levels_fold_to_min():
    fam = IntervalFamily.of((0.0, 0.5))
    ev = Event(
        "v",
        (
            CountTerm("observed", fam, 0.0, "eq", 0),
            CountTerm("observed", fam, 0.7, "eq", 0),  # redundant given level 0
        ),
    )
    expected = limit_laws.void_probability_intervals(PARAMS, [(0.5, 0.0, INF)])
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-15)


def test_theory_void_does_not_depend_on_term_order():
    # summed in first-seen family order, these give two values differing in
    # the last bit, for the limit and the finite-n value alike
    families = [IntervalFamily.of((c, c + 0.25)) for c in (0.0, 0.25, 0.5, 0.75)]
    terms = [CountTerm(which, fam, x, "eq", 0) for which, fam, x in
             zip(("observed", "missed", "observed", "all"), families, (0.5, 1.0, -0.5, 0.0))]
    pattern = fixed_pattern(MissingnessModel.periodic("110"), 200)
    limits, finites = set(), set()
    for order in itertools.permutations(terms):
        limits.add(theory_limit(Event("v", order), PARAMS))
        finites.add(theory_finite_n(Event("v", order), 200, 0.0, pattern))
    assert len(limits) == len(finites) == 1 and None not in limits | finites


def test_theory_counts_pmf_quadruple():
    fam = IntervalFamily.of((0.2, 0.7))
    ev = Event(
        "pmf",
        (
            CountTerm("observed", fam, 1.0, "eq", 1),
            CountTerm("missed", fam, 1.0, "eq", 0),
            CountTerm("observed", fam, 0.0, "eq", 2),
            CountTerm("missed", fam, 0.0, "eq", 1),
        ),
    )
    expected = limit_laws.joint_counts_pmf(PARAMS, 0.5, 1.0, 0.0, 1, 0, 2, 1)
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-15)


def test_theory_counts_pair_single_level():
    fam = IntervalFamily.of((0.2, 0.7))
    ev = Event(
        "pair",
        (CountTerm("observed", fam, 0.3, "eq", 2), CountTerm("missed", fam, 0.3, "eq", 1)),
    )
    expected = limit_laws.joint_counts_pmf(PARAMS, 0.5, 0.3, 0.3, 2, 1, 2, 1)
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-15)


def test_theory_locations():
    ev = Event("l", (LocationTerm("observed", 0.3), LocationTerm("missed", 0.7)))
    assert theory_limit(ev, PARAMS) == pytest.approx(0.21, abs=1e-12)

    ev = Event("l", (LocationTerm("observed", 0.3), LocationTerm("all", 0.7)))
    # the overall location is the observed one when the observed class
    # wins the maximum race, with probability E[lambda]
    mean = lambda_mean(PARAMS.lambda_law)
    expected = 0.3 * 0.7 * (1 - mean) + 0.3 * mean
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-10)

    ev = Event("l", (LocationTerm("observed", 0.4),))
    assert theory_limit(ev, PARAMS) == pytest.approx(0.4, abs=1e-12)

    ev = Event("l", (LocationTerm("all", 0.4),))
    assert theory_limit(ev, PARAMS) == pytest.approx(0.4, abs=1e-12)
    assert type(theory_limit(ev, PARAMS)) is float


def test_theory_locations_with_heights():
    ev = Event(
        "lh",
        (
            LocationTerm("observed", 0.3),
            LocationTerm("missed", 0.7),
            order_stat("observed", 1, 0.0),
            order_stat("missed", 1, 0.5),
        ),
    )
    expected = pair_cdf(PARAMS, "obs_missed", 0.3, 0.7, 0.0, 0.5)
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-15)

    # overall pair where the class level exceeds the overall level: the class
    # constraint is slack and must be tightened, not rejected
    ev = Event(
        "lh2",
        (
            LocationTerm("observed", 0.3),
            LocationTerm("all", 0.7),
            order_stat("observed", 1, 0.9),
            order_stat("all", 1, 0.2),
        ),
    )
    expected = pair_cdf(PARAMS, "obs_all", 0.3, 0.7, 0.2, 0.2)
    assert theory_limit(ev, PARAMS) == pytest.approx(expected, abs=1e-15)


def test_theory_unrecognized_shapes():
    fam = IntervalFamily.of((0.0, 0.5))
    # count-only events outside the former dispatch shapes get the band-cell
    # law: a redundant second level, three classes, an 'le' count on part
    # of the path
    assert theory_limit(Event("u", (order_stat("observed", 1, 0.0),
                                    order_stat("observed", 2, 0.5))), PARAMS) == pytest.approx(
        theory_limit(Event("u", (order_stat("observed", 1, 0.0),)), PARAMS), abs=1e-15)
    # at k = 1 three classes are a void cell
    assert theory_limit(Event("u", (order_stat("observed", 1, 0.0),
                                    order_stat("missed", 1, 0.1),
                                    order_stat("all", 1, 0.2))), PARAMS) == pytest.approx(
        limit_laws.void_probability_intervals(PARAMS, [(1.0, 0.0, 0.1)]), abs=1e-15)
    # the 'le' count is a sum of joint count pmf cells of one level, each
    # settled to 1e-10 on its own
    cells = [(k1, k2, k1, k2) for k1 in range(3) for k2 in range(60)]
    summed = limit_laws.joint_counts_pmf_batch(PARAMS, 0.5, 0.0, 0.0, cells).sum()
    assert theory_limit(Event("u", (CountTerm("observed", fam, 0.0, "le", 2),)), PARAMS) == (
        pytest.approx(summed, abs=1e-8))
    assert theory_limit(Event("u", (LocationTerm("observed", 0.5),
                                    order_stat("observed", 2, 0.0))), PARAMS) is None
    assert theory_limit(Event("u", (LocationTerm("observed", 0.5),
                                    CountTerm("observed", fam, 0.0, "eq", 0))), PARAMS) is None


PMF_FAM = IntervalFamily.of((0.2, 0.7))
REPS = 200_000
FREE = range(60)  # a free count: its pmf beyond 60 is below 1e-12


def _eq(which, x, value, family=PMF_FAM):
    return CountTerm(which, family, x, "eq", value)


def _pmf_sum(x, y, cells):
    """Sum of joint count pmf cells on PMF_FAM: an equivalent spelling of
    an event that leaves some of the four counts free."""
    return limit_laws.joint_counts_pmf_batch(PARAMS, family_measure(PMF_FAM), x, y, cells).sum()


def _sampled(terms):
    """Hit fraction of the direct limit sampler (``reference``)."""
    spec = [(t.which, t.family.intervals, t.x, t.op, t.value) for t in terms]
    return count_event_hits(spec, PARAMS.gamma, lambda rng, size: rng.beta(2.0, 2.0, size), REPS, 5)


@pytest.mark.parametrize(
    "terms, expected",
    [
        ((_eq("observed", 0.3, 2), _eq("missed", 0.3, 1)), ("pmf", (0.3, 0.3, 2, 1, 2, 1))),
        ((_eq("missed", -0.4, 0), _eq("observed", -0.4, 3)), ("pmf", (-0.4, -0.4, 3, 0, 3, 0))),
        ((_eq("observed", 1.0, 1), _eq("missed", 1.0, 0), _eq("observed", 0.0, 2),
          _eq("missed", 0.0, 1)), ("pmf", (1.0, 0.0, 1, 0, 2, 1))),
        ((_eq("missed", 0.0, 1), _eq("observed", 0.0, 2), _eq("missed", 1.0, 0),
          _eq("observed", 1.0, 1)), ("pmf", (1.0, 0.0, 1, 0, 2, 1))),
        ((_eq("observed", 0.3, 2),),
         ("sum", lambda: _pmf_sum(0.3, 0.3, [(2, k, 2, k) for k in FREE]))),
        ((_eq("observed", 1.0, 1), _eq("missed", 1.0, 0), _eq("observed", 0.0, 2)),
         ("sum", lambda: _pmf_sum(1.0, 0.0, [(1, 0, 2, k) for k in FREE]))),
        # a duplicated term is the same constraint
        ((_eq("observed", 0.3, 2), _eq("missed", 0.3, 1), _eq("observed", 0.3, 2)),
         ("pmf", (0.3, 0.3, 2, 1, 2, 1))),
        # contradictory equalities on one count
        ((_eq("observed", 0.3, 2), _eq("observed", 0.3, 1), _eq("missed", 0.3, 1),
          _eq("missed", 0.0, 1)), ("exact", 0.0)),
        ((_eq("observed", 1.0, 1), _eq("missed", 1.0, 0), _eq("observed", 0.5, 1),
          _eq("missed", 0.5, 1), _eq("observed", 0.0, 2), _eq("missed", 0.0, 1)),
         ("sampled", None)),
        # the observed count cannot exceed the count of all values
        ((_eq("observed", 0.3, 2), _eq("all", 0.3, 1)), ("exact", 0.0)),
        ((_eq("observed", 0.3, 2), CountTerm("missed", PMF_FAM, 0.3, "le", 1)),
         ("sum", lambda: _pmf_sum(0.3, 0.3, [(2, 0, 2, 0), (2, 1, 2, 1)]))),
        ((_eq("observed", 0.3, 2), _eq("missed", 0.3, 1, IntervalFamily.of((0.8, 0.9)))),
         ("sampled", None)),
    ],
    ids=["one-level", "one-level-missed-first", "two-level-higher-first",
         "two-level-higher-second", "one-class", "missing-cell", "duplicate",
         "duplicate-class-level", "three-levels", "all-class", "le-term", "two-families"],
)
def test_theory_counts_pmf_dispatch(terms, expected):
    got = theory_limit(Event("pmf", terms), PARAMS)
    kind, reference = expected
    if kind == "pmf":
        assert got == limit_laws.joint_counts_pmf(PARAMS, family_measure(PMF_FAM), *reference)
    elif kind == "exact":
        assert got == reference
    elif kind == "sum":
        assert got == pytest.approx(reference(), abs=1e-8)  # each cell settles to 1e-10
    else:
        assert_within_sigma(_sampled(terms), got, REPS)


def _loc_event(*terms):
    return Event("l", terms)


@pytest.mark.parametrize(
    "event, expected",
    [
        (_loc_event(LocationTerm("observed", 0.4)), ("obs_missed", 0.4, 1.0, INF, INF)),
        (_loc_event(LocationTerm("observed", 0.4), order_stat("observed", 1, 0.2)),
         ("obs_missed", 0.4, 1.0, 0.2, INF)),
        (_loc_event(LocationTerm("missed", 0.6)), ("obs_missed", 1.0, 0.6, INF, INF)),
        (_loc_event(order_stat("missed", 1, -0.3), LocationTerm("missed", 0.6)),
         ("obs_missed", 1.0, 0.6, INF, -0.3)),
        (_loc_event(LocationTerm("all", 0.4)), 0.4),
        (_loc_event(LocationTerm("all", 0.4), order_stat("all", 1, INF)), 0.4),
        # every value at or below u_n(-inf) is impossible
        (_loc_event(LocationTerm("all", 0.4), order_stat("all", 1, -INF)), 0.0),
        (_loc_event(LocationTerm("all", 0.4), order_stat("all", 1, 0.2)),
         ("obs_all", 1.0, 0.4, 0.2, 0.2)),
        (_loc_event(LocationTerm("observed", 0.3), LocationTerm("missed", 0.7),
                    order_stat("missed", 1, 0.5), order_stat("observed", 1, 0.0)),
         ("obs_missed", 0.3, 0.7, 0.0, 0.5)),
        (_loc_event(LocationTerm("all", 0.7), LocationTerm("observed", 0.3),
                    order_stat("observed", 1, 0.9), order_stat("all", 1, 0.2)),
         ("obs_all", 0.3, 0.7, 0.2, 0.2)),
        (_loc_event(LocationTerm("missed", 0.3), LocationTerm("all", 0.7),
                    order_stat("missed", 1, -0.1), order_stat("all", 1, 0.2)),
         ("missed_all", 0.3, 0.7, -0.1, 0.2)),
        (_loc_event(LocationTerm("observed", 0.3), LocationTerm("missed", 0.7),
                    LocationTerm("all", 0.5)),
         ({"observed": 0.3, "missed": 0.7, "all": 0.5}, {})),
        (_loc_event(LocationTerm("observed", 0.3), LocationTerm("observed", 0.7)), None),
        (_loc_event(LocationTerm("observed", 0.3), order_stat("missed", 1, 0.0)),
         ({"observed": 0.3}, {"missed": 0.0})),
    ],
    ids=["observed", "observed-height", "missed", "missed-height", "all", "all-height-inf",
         "all-height-neg-inf", "all-height",
         "obs-missed-heights", "obs-all-heights", "missed-all-heights", "three-classes",
         "repeated-class", "height-without-location"],
)
def test_theory_locations_dispatch(event, expected):
    got = theory_limit(event, PARAMS)
    if expected is None or isinstance(expected, float):
        assert got == expected
    elif isinstance(expected[0], dict):  # per-class locations and heights
        assert got == limit_laws.locations_heights_cdf(PARAMS, *expected)
    else:
        assert got == pair_cdf(PARAMS, *expected)


# ---------------------------------------------------------------------------
# finite-n theory recognition


def test_finite_n_maxima_event():
    n, gamma = 100, 1.0
    pattern = np.arange(n) % 2 == 0
    ev = Event("m", (order_stat("observed", 1, 0.0), order_stat("missed", 1, 0.5)))
    expected = finite_n_cells_prob(n, gamma, [(50, 50, 0.0, 0.5)])
    assert theory_finite_n(ev, n, gamma, pattern) == pytest.approx(expected, abs=1e-15)

    ev_all = Event("m2", (order_stat("all", 1, 0.3),))
    expected = finite_n_cells_prob(n, gamma, [(50, 50, 0.3, 0.3)])
    assert theory_finite_n(ev_all, n, gamma, pattern) == pytest.approx(expected, abs=1e-15)


def test_finite_n_void_event():
    n, gamma = 100, 0.5
    pattern = np.arange(n) % 2 == 0
    left = IntervalFamily.of((0.0, 0.3))
    right = IntervalFamily.of((0.5, 0.9))
    ev = Event(
        "v",
        (
            CountTerm("observed", left, 0.0, "eq", 0),
            CountTerm("missed", left, 0.5, "eq", 0),
            CountTerm("observed", right, 0.0, "eq", 0),
            CountTerm("missed", right, 0.5, "eq", 0),
        ),
    )
    expected = finite_n_cells_prob(
        n, gamma, [(15, 15, 0.0, 0.5), (20, 20, 0.0, 0.5)]
    )
    assert theory_finite_n(ev, n, gamma, pattern) == pytest.approx(expected, abs=1e-15)


def test_finite_n_unsupported():
    pattern = np.arange(100) % 2 == 0
    assert theory_finite_n(Event("u", (order_stat("observed", 2, 0.0),)), 100, 1.0, pattern) is None
    assert theory_finite_n(Event("u", (LocationTerm("observed", 0.5),)), 100, 1.0, pattern) is None
    ev = Event("m", (order_stat("observed", 1, 0.0),))
    assert theory_finite_n(ev, 100, 1.0, None) is None
