"""Metamorphic relations of the laws: identities that any correct limit or
finite-n law satisfies, checked to 1e-12 on generated events.

* Swapping the observed and missed classes, with the fraction law
  reflected (lambda -> 1 - lambda) and the periodic word complemented,
  leaves every limit and finite-n value unchanged.
* A count term ``le v`` is the sum of ``eq k`` over k = 0 .. v.
* An order-statistic event never falls when one of its levels rises.
"""
import dataclasses
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from gapextremes.events import CountTerm, Event, LocationTerm, order_stat
from gapextremes.events import theory_finite_n, theory_limit
from gapextremes.extremes import IntervalFamily
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.limit_laws import LimitLawParams

TOL = 1e-12
SWAP = {"observed": "missed", "missed": "observed", "all": "all"}
CLASSES = tuple(SWAP)

#: fractions on a dyadic grid, so that 1 - lambda is exact
_FRACTION = st.integers(0, 64).map(lambda k: k / 64)
_LEVEL = st.floats(-2.0, 3.0)
_GAMMA = st.floats(0.0, 2.0)


@st.composite
def _laws(draw):
    kind = draw(st.sampled_from(["point", "uniform", "beta", "discrete"]))
    if kind == "point":
        return LambdaLaw.point(draw(_FRACTION))
    if kind == "uniform":
        a, b = sorted(draw(st.lists(_FRACTION, min_size=2, max_size=2, unique=True)))
        return LambdaLaw.uniform(a, b)
    if kind == "beta":
        return LambdaLaw.beta(draw(st.floats(0.5, 5.0)), draw(st.floats(0.5, 5.0)))
    values = draw(st.lists(_FRACTION, min_size=1, max_size=3))
    return LambdaLaw.discrete(values, [1.0 / len(values)] * len(values))


def _reflected(law: LambdaLaw) -> LambdaLaw:
    """The law of 1 - lambda."""
    if law.kind == "point":
        return LambdaLaw.point(1.0 - law.params[0])
    if law.kind == "uniform":
        a, b = law.params
        return LambdaLaw.uniform(1.0 - b, 1.0 - a)
    if law.kind == "beta":
        return LambdaLaw.beta(*reversed(law.params))
    values, weights = law.params
    return LambdaLaw.discrete([1.0 - v for v in values], weights)


@st.composite
def _family(draw):
    points = sorted(draw(st.sets(st.floats(0.0, 1.0), min_size=2, max_size=4)))
    return IntervalFamily.of(*zip(points[::2], points[1::2]))


def _count_terms(values):
    return st.builds(CountTerm, st.sampled_from(CLASSES), _family(), _LEVEL,
                     st.sampled_from(["eq", "le"]), values)


_ORDER_STATS = st.builds(order_stat, st.sampled_from(CLASSES), st.integers(1, 3), _LEVEL)
_LOCATIONS = st.builds(LocationTerm, st.sampled_from(CLASSES),
                       st.floats(0.0, 1.0, exclude_min=True))
_HEIGHTS = st.builds(order_stat, st.sampled_from(CLASSES), st.just(1), _LEVEL)


def _events(terms):
    return st.lists(terms, min_size=1, max_size=3).map(lambda t: Event("e", tuple(t)))


#: count events, and located classes with their heights
_EVENTS = st.one_of(
    _events(st.one_of(_count_terms(st.integers(0, 3)), _ORDER_STATS)),
    _events(st.one_of(_LOCATIONS, _HEIGHTS)),
)


def _swapped(event: Event) -> Event:
    terms = tuple(dataclasses.replace(t, which=SWAP[t.which]) for t in event.terms)
    return Event(event.event_id, terms)


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOL


RELATION_SETTINGS = settings(max_examples=120, derandomize=True, deadline=None, database=None)


@RELATION_SETTINGS
@given(_EVENTS, _GAMMA, _laws())
def test_swapping_the_classes_keeps_every_limit(event, gamma, law):
    value = theory_limit(event, LimitLawParams(gamma, law))
    mirrored = theory_limit(_swapped(event), LimitLawParams(gamma, _reflected(law)))
    assert _close(value, mirrored), (value, mirrored)


@RELATION_SETTINGS
@given(_events(st.one_of(_count_terms(st.just(0)), _HEIGHTS)), st.integers(3, 10**6),
       st.floats(0.0, 1.0), st.text("01", min_size=1, max_size=8))
def test_swapping_the_classes_keeps_every_finite_n_value(event, n, share, word):
    gamma = share * math.log(n) * 0.99  # below ln n
    pattern = tuple(map(int, word))
    value = theory_finite_n(event, n, gamma, pattern)
    mirrored = theory_finite_n(_swapped(event), n, gamma, tuple(1 - b for b in pattern))
    assert value is not None
    assert _close(value, mirrored), (value, mirrored)


@RELATION_SETTINGS
@given(_count_terms(st.integers(0, 4)), st.lists(_count_terms(st.integers(0, 2)), max_size=2),
       _GAMMA, _laws())
def test_a_le_count_is_the_sum_of_its_eq_counts(term, others, gamma, law):
    params = LimitLawParams(gamma, law)

    def prob(op, value):
        lead = dataclasses.replace(term, op=op, value=value)
        return theory_limit(Event("e", (lead, *others)), params)

    total = prob("le", term.value)
    assert total is not None
    parts = [prob("eq", k) for k in range(term.value + 1)]
    assert abs(total - math.fsum(parts)) <= TOL, (total, parts)


@RELATION_SETTINGS
@given(_events(_ORDER_STATS), st.integers(0, 2), st.floats(0.0, 2.0), _GAMMA, _laws())
def test_an_order_statistic_event_never_falls_as_its_level_rises(event, index, rise, gamma,
                                                                 law):
    params = LimitLawParams(gamma, law)
    index %= len(event.terms)
    terms = list(event.terms)
    terms[index] = dataclasses.replace(terms[index], x=terms[index].x + rise)
    low, high = theory_limit(event, params), theory_limit(Event("e", tuple(terms)), params)
    assert high >= low - TOL, (low, high)


@RELATION_SETTINGS
@given(_events(_HEIGHTS), st.integers(0, 2), st.floats(0.0, 2.0), st.integers(3, 10**6),
       st.floats(0.0, 1.0), st.text("01", min_size=1, max_size=8))
def test_a_finite_n_void_event_never_falls_as_its_level_rises(event, index, rise, n, share,
                                                              word):
    gamma, pattern = share * math.log(n) * 0.99, tuple(map(int, word))
    index %= len(event.terms)
    terms = list(event.terms)
    terms[index] = dataclasses.replace(terms[index], x=terms[index].x + rise)
    low = theory_finite_n(event, n, gamma, pattern)
    high = theory_finite_n(Event("e", tuple(terms)), n, gamma, pattern)
    assert high >= low - TOL, (low, high)
