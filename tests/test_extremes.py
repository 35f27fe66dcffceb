import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gapextremes.errors import InvalidParameterError
from gapextremes.events import (
    LOCATION_X,
    CompiledEvents,
    CountTerm,
    Event,
    LocationTerm,
    order_stat,
)
from gapextremes.extremes import CLASSES, IntervalFamily, LevelParams, transformed_level
from gapextremes.gaussian import CovarianceSpec, build_model, sample_path
from reference import exceedance_counts, family_measure, kth_maximum, max_location

# frozen from 40-digit evaluation of the definitions at n = 100
B_100 = 2.3662547929063940
INV_A_100 = 0.3295051144911304
RHO_100 = 0.21714724095162591


def test_level_frozen_values():
    lp = LevelParams.for_length(100)
    assert lp.level(0.0) == pytest.approx(B_100, abs=1e-6)
    assert lp.level(1.0) - lp.level(0.0) == pytest.approx(INV_A_100, abs=1e-6)
    assert lp.level(0.0) == lp.b_n


def test_level_needs_n_at_least_3():
    with pytest.raises(InvalidParameterError):
        LevelParams.for_length(2)


def test_transformed_level_gamma_zero_is_identity():
    lp = LevelParams.for_length(50)
    for x, z in [(0.0, 0.0), (1.5, -2.0), (-0.7, 3.0)]:
        assert transformed_level(50, x, z, 0.0) == pytest.approx(lp.level(x), abs=1e-14)


def test_transformed_level_frozen_value():
    got = transformed_level(100, 0.0, 0.0, 1.0)
    assert got == pytest.approx(B_100 / math.sqrt(1.0 - RHO_100), abs=1e-6)
    assert got == pytest.approx(2.6743698245869211, abs=1e-9)


def test_transformed_level_gamma_too_large():
    with pytest.raises(InvalidParameterError):
        transformed_level(100, 0.0, 0.0, math.log(100))


def test_transformed_level_asymptotic_intensity():
    # n (1 - Phi(u_n(x, z))) approaches exp(-x - gamma + sqrt(2 gamma) z);
    # an n-sweep over 1e4..1e7 put the relative gap at x=0, z=1, gamma=1
    # between 4.8e-4 and 1e-2, so 0.01 is a safe frozen tolerance at n=1e6
    from scipy.special import ndtr

    n, x, z, gamma = 10**6, 0.0, 1.0, 1.0
    u = transformed_level(n, x, z, gamma)
    target = math.exp(-x - gamma + math.sqrt(2 * gamma) * z)
    rel_gap = abs(n * (1.0 - ndtr(u)) - target) / target
    assert rel_gap < 0.01


def test_interval_family_validation():
    with pytest.raises(InvalidParameterError):
        IntervalFamily.of((0.5, 0.4))
    with pytest.raises(InvalidParameterError):
        IntervalFamily.of((0.0, 0.6), (0.5, 0.9))  # overlap
    with pytest.raises(InvalidParameterError):
        IntervalFamily.of((0.0, 1.2))
    fam = IntervalFamily.of((0.0, 0.25), (0.5, 1.0))
    assert family_measure(fam) == pytest.approx(0.75)


def test_interval_membership_convention():
    # (0, 0.5] at n=4 contains indices {1, 2}: floor(0) < j <= floor(2)
    fam = IntervalFamily.of((0.0, 0.5))
    assert fam.index_ranges(4) == [(0, 2)]
    # decimal endpoints stay on their intended lattice points
    assert IntervalFamily.of((0.3, 0.6)).index_ranges(10) == [(3, 6)]
    assert IntervalFamily.of((0.1, 0.2)).index_ranges(1000) == [(100, 200)]


def test_index_ranges_exact_beyond_float_precision():
    # n c rounds in floating point past 2^53: the float form
    # floor(n * c + 1e-9) loses the last index at both these lengths
    for n in (2**53 + 1, 10**17 + 1):
        assert IntervalFamily.unit().index_ranges(n) == [(0, n)]
    for n, c in [(10**17 + 1, 0.3), (2**60 + 3, 1 / 3), (3 * 10**20 + 7, 0.7)]:
        [(lo, hi)] = IntervalFamily.of((c, 1.0)).index_ranges(n)
        assert (lo, hi) == (math.floor(n * Fraction(c) + Fraction(1e-9)), n)


def test_index_ranges_equal_the_float_form_up_to_3e5():
    ends = [0.0, 0.05, 0.1, 0.125, 0.2, 0.25, 0.3, 1 / 3, 0.4, 0.5, 0.6, 2 / 3, 0.7, 0.75,
            0.8, 0.9, 1.0]
    family = IntervalFamily.of(*zip(ends, ends[1:]))
    n = np.arange(1, 300_001)
    # the ends are integer arithmetic only, so an object array of Python
    # ints gives every length's ends at once
    got = family.index_ranges(n.astype(object))
    for (lo, hi), (c, d) in zip(got, family.intervals):
        assert np.array_equal(lo, np.floor(n * c + 1e-9))
        assert np.array_equal(hi, np.floor(n * d + 1e-9))


def test_exceedance_counts_basic():
    n = 10
    values = np.full(n, -10.0)
    values[[2, 5, 7]] = 10.0  # 1-based indices 3, 6, 8 exceed everything
    eps = np.array([1, 1, 1, 0, 0, 0, 1, 0, 1, 1])
    fam_lo = IntervalFamily.of((0.0, 0.5))
    fam_hi = IntervalFamily.of((0.5, 1.0))
    rec = exceedance_counts(values, eps, [0.0], [fam_lo, fam_hi, IntervalFamily.unit()])
    assert rec.observed[0].tolist() == [1, 0, 1]  # index 3 observed; 6, 8 missed
    assert rec.missed[0].tolist() == [0, 2, 2]
    assert rec.total[0].tolist() == [1, 2, 3]


def test_exceedance_counts_all_below():
    values = np.full(8, -50.0)
    rec = exceedance_counts(values, np.ones(8), [0.0, 1.0], [IntervalFamily.unit()])
    assert rec.observed.sum() == 0 and rec.missed.sum() == 0


def test_exceedance_counts_length_mismatch():
    with pytest.raises(InvalidParameterError):
        exceedance_counts(np.zeros(5), np.ones(4), [0.0], [IntervalFamily.unit()])


def test_kth_maximum_enumeration():
    values = np.array([3.0, 1.0, 2.0])
    assert kth_maximum(values, np.array([1, 1, 0]), "observed", 2) == 1.0
    assert kth_maximum(values, np.array([1, 1, 1]), "missed", 1) == -math.inf
    assert kth_maximum(values, np.array([1, 1, 1]), "all", 1) == 3.0
    assert kth_maximum(values, np.array([0, 1, 1]), "observed", 1) == 2.0


def test_kth_maximum_strict_boundary():
    # a class of exactly k members has a k-th maximum
    values = np.array([3.0, 1.0, 2.0])
    eps = np.array([1, 0, 1])
    assert kth_maximum(values, eps, "observed", 2) == 2.0


def test_max_location():
    values = np.array([3.0, 1.0, 2.0])
    assert max_location(values, np.array([1, 1, 0]), "observed") == 1
    assert max_location(values, np.array([0, 1, 1]), "observed") == 3
    assert max_location(values, np.array([1, 1, 1]), "missed") is None
    assert max_location(values, np.array([0, 0, 0]), "all") == 1
    # deterministic tie: smallest index
    assert max_location(np.array([5.0, 5.0]), np.array([1, 1]), "observed") == 1


# ---------------------------------------------------------------------------
# property tests


def _fractions(denominators=(4, 5, 8, 10)):
    return st.builds(
        Fraction, st.integers(min_value=0, max_value=40), st.sampled_from(denominators)
    ).filter(lambda f: 0 <= f <= 1)


@st.composite
def _disjoint_family(draw):
    cuts = draw(
        st.lists(_fractions(), min_size=2, max_size=6, unique=True).map(sorted)
    )
    intervals = [(float(c), float(d)) for c, d in zip(cuts[:-1], cuts[1:])]
    # keep alternate pieces so adjacent intervals stay disjoint but gapped
    return IntervalFamily.of(*intervals[::2])


@st.composite
def _path_case(draw):
    n = draw(st.integers(min_value=3, max_value=64))
    values = draw(
        st.lists(
            st.floats(min_value=-6, max_value=6, allow_nan=False),
            min_size=n,
            max_size=n,
        )
    )
    eps = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.asarray(values), np.asarray(eps)


@given(_path_case(), _disjoint_family(), st.floats(-2, 2), st.floats(0, 2))
@settings(max_examples=200, deadline=None)
def test_counts_properties(case, family, x, dx):
    values, eps = case
    n = len(values)
    levels = [x, x + dx]
    rec = exceedance_counts(values, eps, levels, [family])
    # partition: observed + missed = all, recomputed independently
    lp = LevelParams.for_length(n)
    mask = np.zeros(n, dtype=bool)
    for lo, hi in family.index_ranges(n):
        mask[lo:hi] = True
    for i, lev in enumerate(levels):
        brute_all = int(np.sum((values > lp.level(lev)) & mask))
        assert rec.total[i, 0] == brute_all
    # level nesting: higher level never counts more
    assert rec.observed[1, 0] <= rec.observed[0, 0]
    assert rec.missed[1, 0] <= rec.missed[0, 0]


@given(_path_case(), st.floats(-2, 2))
@settings(max_examples=200, deadline=None)
def test_counts_additive_over_disjoint_pieces(case, x):
    values, eps = case
    left = IntervalFamily.of((0.0, 0.5))
    right = IntervalFamily.of((0.5, 1.0))
    union = IntervalFamily.of((0.0, 0.5), (0.5, 1.0))
    rec = exceedance_counts(values, eps, [x], [left, right, union])
    assert rec.observed[0, 0] + rec.observed[0, 1] == rec.observed[0, 2]
    assert rec.missed[0, 0] + rec.missed[0, 1] == rec.missed[0, 2]


@given(_path_case(), st.integers(1, 8), st.floats(-2, 2), st.sampled_from(["observed", "missed", "all"]))
@settings(max_examples=200, deadline=None)
def test_order_statistic_count_duality(case, k, x, which):
    # k-th max <= u_n(x) iff the class count over (0,1] is <= k-1
    values, eps = case
    n = len(values)
    u = LevelParams.for_length(n).level(x)
    kth = kth_maximum(values, eps, which, k)
    rec = exceedance_counts(values, eps, [x], [IntervalFamily.unit()])
    count = {"observed": rec.observed, "missed": rec.missed, "all": rec.total}[which][0, 0]
    assert (kth <= u) == (count <= k - 1)


@given(_path_case())
@settings(max_examples=200, deadline=None)
def test_max_location_class_consistency(case):
    values, eps = case
    loc_all = max_location(values, eps, "all")
    obs = kth_maximum(values, eps, "observed", 1)
    mis = kth_maximum(values, eps, "missed", 1)
    if obs > mis:
        assert loc_all == max_location(values, eps, "observed")
    elif mis > obs:
        assert loc_all == max_location(values, eps, "missed")


@given(
    _path_case(),
    st.sampled_from(["drawn", "observed", "missed"]),
    st.booleans(),
    st.lists(st.integers(1, 70), min_size=1, max_size=3),
    _disjoint_family(),
    st.floats(-2, 2),
    st.integers(0, 4),
    st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_observable_record_matches_reference(case, fill, ties, ks, family, x, value, s):
    values, eps = case
    if fill != "drawn":  # every coordinate in one class: the other is empty
        eps = np.full(len(eps), int(fill == "observed"))
    if ties:  # coarse values tie the maximum, and the first index wins
        values = np.round(values)
    n = len(values)
    levels = (x, x + 0.5)
    events = [
        Event(which, tuple(order_stat(which, k, x) for k in ks) + (
            CountTerm(which, family, levels[0], "eq", value),
            CountTerm(which, family, levels[1], "le", value),
            LocationTerm(which, s),
        ))
        for which in CLASSES
    ]
    compiled = CompiledEvents(events, n)
    rec = compiled.record(values, eps.astype(bool))

    lp = LevelParams.for_length(n)
    # the order statistics are counted over the whole path, the second family
    counts = exceedance_counts(values, eps, levels, [family, IntervalFamily.unit()])
    by_class = {"observed": counts.observed, "missed": counts.missed, "all": counts.total}
    level_index = {lp.level(lev): i for i, lev in enumerate(levels)}
    family_index = {tuple(family.index_ranges(n)): 0, ((0, n),): 1}
    for col, (kind, which, *spec) in enumerate(compiled.observables):
        if kind == "count":
            ranges, u = spec
            expected = by_class[which][level_index[u], family_index[ranges]]
        else:
            loc = max_location(values, eps, which)
            expected = math.inf if loc is None else loc
        assert rec[col] == expected, (kind, which, spec)

    hits = compiled(values, eps.astype(bool))
    for event, hit in zip(events, hits):
        which = event.event_id
        count = by_class[which][:, 0]
        loc = max_location(values, eps, which)
        assert hit == (
            all(kth_maximum(values, eps, which, k) <= lp.level(x) for k in ks)
            and count[0] == value
            and count[1] <= value
            and loc is not None
            and loc <= math.floor(s * n + 1e-9)
        )


#: levels of the block test: finite, or infinite at either end
_LEVEL = st.one_of(st.floats(-2, 2), st.sampled_from([-math.inf, math.inf]))


@st.composite
def _block_case(draw):
    """A (B, n) block of paths and indicators whose rows are drawn, tie
    their maxima, lie below every finite level, hold one class only, or
    hold infinite and huge negative values."""
    n = draw(st.integers(3, 40))
    values, eps = [], []
    for _ in range(draw(st.integers(1, 6))):
        row = np.asarray(draw(st.lists(st.floats(-6, 6), min_size=n, max_size=n)))
        ind = np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        shape = draw(st.sampled_from(["drawn", "ties", "low", "observed", "missed", "extreme"]))
        if shape == "extreme":
            row = np.array(draw(st.lists(st.sampled_from([-math.inf, -1e308, math.inf, 0.0]),
                                         min_size=n, max_size=n)))
        elif shape == "ties":
            row = np.round(row)
        elif shape == "low":  # below u_n(-2) for every n >= 3
            row = row - 20.0
        elif shape != "drawn":
            ind = np.full(n, shape == "observed")
        values.append(row)
        eps.append(ind)
    return np.array(values), np.array(eps)


@given(
    _block_case(),
    _disjoint_family(),
    st.lists(_LEVEL, min_size=1, max_size=3),
    st.integers(1, 3),
    st.integers(0, 3),
    st.floats(0.01, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_block_record_matches_rows_and_reference(case, family, levels, k, value, s):
    values, eps = case
    n = values.shape[1]
    lp = LevelParams.for_length(n)
    # a value exactly at a level does not exceed it
    values[0, :len(levels)] = [lp.level(x) if math.isfinite(x) else 0.0 for x in levels]
    several = IntervalFamily.of((0.1, 0.3), (0.5, 0.6), (0.8, 1.0))
    families = [family, several, IntervalFamily.unit()]
    events = [
        Event(which, tuple(CountTerm(which, fam, x, "le", value)
                           for fam in families[:2] for x in levels)
              + (order_stat(which, k, levels[0]), LocationTerm(which, s)))
        for which in CLASSES
    ]
    compiled = CompiledEvents(events, n)
    block = compiled.record(values, eps)
    assert block.shape == (len(values), len(compiled.observables))
    rows = [compiled.record(v, e) for v, e in zip(values, eps)]
    assert np.array_equal(block, np.array(rows))
    assert np.array_equal(compiled(values, eps), np.array([compiled(v, e) for v, e in zip(values, eps)]))

    level_index = {lp.level(x): i for i, x in enumerate(levels)}
    family_index = {tuple(fam.index_ranges(n)): j for j, fam in enumerate(families)}
    for v, e, rec in zip(values, eps, rows):
        counts = exceedance_counts(v, e, levels, families)
        by_class = {"observed": counts.observed, "missed": counts.missed, "all": counts.total}
        for col, (kind, which, *spec) in enumerate(compiled.observables):
            if kind == "count":
                ranges, u = spec
                expected = by_class[which][level_index[u], family_index[ranges]]
            else:  # an empty class, or one whose maximum is -inf, has no location
                loc = max_location(v, e, which)
                empty = loc is None or kth_maximum(v, e, which, 1) == -math.inf
                expected = math.inf if empty else loc
            assert rec[col] == expected, (kind, which, spec)


# ---------------------------------------------------------------------------
# location columns: the first class maximum among the scanned points, or a
# masked argmax for a row with no class point above u_n(LOCATION_X)


def _locations(values, eps):
    """The record's location columns of a block, one per class in CLASSES
    order, and the reference's: +inf for an empty class or one whose
    values are all -inf."""
    events = [Event(which, (LocationTerm(which, 1.0),)) for which in CLASSES]
    compiled = CompiledEvents(events, values.shape[1])
    assert [obs[1] for obs in compiled.observables] == list(CLASSES)
    expected = []
    for v, e in zip(values, eps):
        row = []
        for which in CLASSES:
            loc = max_location(v, e, which)
            empty = loc is None or kth_maximum(v, e, which, 1) == -math.inf
            row.append(math.inf if empty else loc)
        expected.append(row)
    return compiled.record(values, eps), np.array(expected, dtype=float)


def _answered_from_points(values, eps, which):
    """Rows whose class has a value above the scan level u_n(LOCATION_X)."""
    mask = {"all": np.ones_like(eps), "observed": eps, "missed": ~eps}[which]
    return ((values > LevelParams.for_length(values.shape[1]).level(LOCATION_X)) & mask).any(axis=1)


def test_location_maximum_at_the_scan_level_falls_back():
    # a class maximum exactly at u_n(LOCATION_X) does not exceed it: the row
    # has no point, and the masked argmax finds the first of the two
    n = 50
    u = LevelParams.for_length(n).level(LOCATION_X)
    values = np.full((1, n), u - 1.0)
    eps = np.zeros((1, n), dtype=bool)
    eps[0, [10, 20, 30]] = True
    values[0, [10, 20]] = u
    values[0, 40] = u - 0.5  # the missed maximum, also below the level
    assert not _answered_from_points(values, eps, "all").any()
    got, expected = _locations(values, eps)
    assert np.array_equal(got, expected)
    assert got[0].tolist() == [11, 41, 11]


def test_location_tie_above_the_scan_level_takes_the_first_index():
    n = 40
    values = np.full((2, n), -1e3)
    eps = np.zeros((2, n), dtype=bool)
    eps[:, [3, 7, 9]] = True
    values[:, [3, 7, 9, 12, 25]] = [4.0, 5.0, 5.0, 5.0, 5.0]  # observed 8 and 10, missed 13 and 26
    values[1, 3] = 5.0  # in the second row the first observed value ties as well
    assert _answered_from_points(values, eps, "observed").all()
    got, expected = _locations(values, eps)
    assert np.array_equal(got, expected)
    assert got.tolist() == [[8, 13, 8], [4, 13, 4]]


def test_location_block_mixes_points_and_fallback_rows():
    n = 30
    rng = np.random.default_rng(5)
    values = rng.standard_normal((8, n))
    eps = rng.random((8, n)) < 0.5
    values[1] -= 20.0  # every class below the scan level
    values[2, ~eps[2]] -= 20.0  # observed from points, missed from below
    values[3, eps[3]] -= 20.0  # the other way round
    eps[4] = False  # an empty observed class
    values[5, ~eps[5]] = -np.inf  # a missed class at -inf
    values[6, eps[6]] = np.inf  # an observed class at +inf, tied
    values[7] = np.round(values[7])  # ties between and within classes
    for which in CLASSES:
        points = _answered_from_points(values, eps, which)
        assert points.any() and not points.all(), which
    got, expected = _locations(values, eps)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, np.array([_locations(v[None], e[None])[0][0]
                                         for v, e in zip(values, eps)]))


def test_location_at_n_3_where_the_level_is_below_most_values():
    u = LevelParams.for_length(3).level(LOCATION_X)
    assert u < -1.0
    rng = np.random.default_rng(6)
    values = np.round(rng.standard_normal((400, 3)), 1)
    eps = rng.random((400, 3)) < 0.5
    assert (values > u).mean() > 0.85
    got, expected = _locations(values, eps)
    assert np.array_equal(got, expected)


def test_location_of_log_decay_two_row_draws():
    model = build_model(256, CovarianceSpec("log_decay", gamma=0.5))
    rng = np.random.default_rng(7)
    values = np.concatenate([sample_path(model, rng) for _ in range(20)])
    eps = rng.random(values.shape) < 0.5
    assert values.shape == (40, 256)
    got, expected = _locations(values, eps)
    assert np.array_equal(got, expected)
    assert np.array_equal(got[:2], _locations(values[:2], eps[:2])[0])
