"""Event vocabulary of the experiment driver.

An event is a conjunction of threshold terms on the observables of one
replication: exceedance counts over interval families and scaled argmax
locations.  An order statistic is an exceedance count: the k-th largest
value of a class is at most u_n(x) exactly when fewer than k class values
exceed u_n(x), so ``order_stat`` builds a count of at most k - 1 over
the whole path.  Every count-only event, and argmax locations of any
classes with k = 1 heights on any class, get a theory value; other events
simulate fine but carry no theory columns.  The JSON form of an event is
read by ``harness``.

For simulation, ``CompiledEvents`` reduces a replication to one
*observable record*: a float vector with one column per distinct
observable the events mention, of two kinds: a class exceedance count
over a family at a level, and a class argmax location.  Every term is a
bound on one column, so an event is a conjunction of interval checks on
the record, whichever sampler produced it.  Records are computed for a
block of replications at once, one row each, as a *scan* and a *tally*.
At the levels u_n(x) only O(1) of the n values of a path exceed, so the
scan gives the points (row, index, height, observed) of the block above
one scan level: the lowest count level, lowered to u_n(LOCATION_X) when a
class is located.  The tally reads every column from the points: a count
column counts the class points above its level in its family, and a
location column takes the first maximum among a row's class points.  Only
a row whose class has no point above the scan level takes the argmax of
its class values in the block.  ``tests/reference.py``
computes the same observables one at a time and is the reference the
record is tested against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limit_laws
from .errors import ConfigError
from .extremes import CLASSES, IntervalFamily, LevelParams, index_floor
from .limit_laws import LimitLawParams

__all__ = [
    "LOCATION_X",
    "CountTerm",
    "LocationTerm",
    "Event",
    "order_stat",
    "CompiledEvents",
    "theory_limit",
    "theory_finite_n",
]


@dataclass(frozen=True)
class CountTerm:
    """Class exceedance count of a family at level x, compared to a value.

    The level may be infinite (+inf: nothing exceeds it; -inf: every class
    member does) but not NaN."""

    which: str
    family: IntervalFamily
    x: float
    op: str
    value: int

    def __post_init__(self) -> None:
        if self.which not in CLASSES:
            raise ConfigError(f"unknown class {self.which!r}")
        if math.isnan(self.x):
            raise ConfigError("level x must be a number or +-Infinity, got NaN")
        if self.op not in ("eq", "le"):
            raise ConfigError(f"count op must be 'eq' or 'le', got {self.op!r}")
        if self.value < 0:
            raise ConfigError(f"count value must be >= 0, got {self.value}")

    @property
    def bounds(self) -> tuple[float, int]:
        """(lo, hi) with lo <= count <= hi; lo is -inf for 'le'."""
        return (self.value if self.op == "eq" else -math.inf, self.value)


def order_stat(which: str, k: int, x: float) -> CountTerm:
    """The k-th largest value of a class is at most u_n(x): fewer than k
    class values over the whole path exceed u_n(x).  A class with fewer
    than k members satisfies it."""
    if k < 1:
        raise ConfigError(f"order statistic rank must be >= 1, got {k}")
    return CountTerm(which, IntervalFamily.unit(), x, "le", k - 1)


@dataclass(frozen=True)
class LocationTerm:
    """Scaled argmax location of a class is <= s."""

    which: str
    s: float

    def __post_init__(self) -> None:
        if self.which not in CLASSES:
            raise ConfigError(f"unknown class {self.which!r}")
        if not 0.0 < self.s <= 1.0:
            raise ConfigError(f"location threshold must lie in (0,1], got {self.s}")


@dataclass(frozen=True)
class Event:
    event_id: str
    terms: tuple

    def __post_init__(self) -> None:
        if not self.event_id:
            raise ConfigError("event id must be nonempty")
        if not self.terms:
            raise ConfigError(f"event {self.event_id!r} has no terms")


#: Scan level of a located class, u_n(LOCATION_X).  About e^3 ~ 20 values
#: of an iid path exceed u_n(-3), so most rows hold their class maximum among
#: the scanned points and only the others take a masked argmax.  At x = -2
#: about 40 % of the rows of a one_factor block fell back and the record was
#: slower than one masked argmax per class; x = -4 gained nothing more.
LOCATION_X = -3.0


class CompiledEvents:
    """Events bound to a path length, evaluated on one observable record
    per replication, for a block of replications at a time.

    ``observables`` lists the distinct observables the events mention, one
    record column each: ``("count", which, ranges, u)``, the class
    exceedance count above level u over the 0-based half-open index ranges
    of a family; and ``("location", which)``, the 1-based index of the
    first class maximum.  ``record(values, eps_bool)`` takes a (B, n) block
    of paths and indicators and returns the (B, columns) records; calling
    with the same block returns (B, events) booleans: whether all of an
    event's bounds lo <= record[col] <= hi hold.  A single path of shape
    (n,) gives a single record and a single row of booleans.
    """

    def __init__(self, events, n: int):
        self.events = tuple(events)
        self.n = int(n)
        lp = LevelParams.for_length(self.n)
        columns: dict[tuple, int] = {}
        cols, limits, starts = [], [], []
        for event in self.events:
            starts.append(len(cols))
            for term in event.terms:
                if isinstance(term, CountTerm):
                    ranges = tuple(term.family.index_ranges(self.n))
                    key = ("count", term.which, ranges, lp.level(term.x))
                    bounds = term.bounds
                else:
                    key = ("location", term.which)
                    bounds = (-math.inf, index_floor(self.n, term.s))  # the end of (0, s]
                cols.append(columns.setdefault(key, len(columns)))
                limits.append(bounds)
        self.observables = tuple(columns)
        # a count column keeps its class, its level and the sorted edges of
        # its ranges (an index is a member when an odd number of edges lie
        # at or below it; None for the whole path)
        self._counts, self._locations = [], []
        for col, (kind, which, *spec) in enumerate(self.observables):
            if kind == "location":
                self._locations.append((col, which))
                continue
            ranges, u = spec
            edges = None if ranges == ((0, self.n),) else np.array(ranges).ravel()
            self._counts.append((col, which, edges, u))
        # the scan level: the lowest count level, and u_n(LOCATION_X) when a
        # class is located
        self._scan = min((u for *_, u in self._counts), default=math.inf)
        if self._locations:
            self._scan = min(self._scan, lp.level(LOCATION_X))
        self._cols = np.array(cols)
        self._lo, self._hi = np.array(limits, dtype=float).T
        self._starts = np.array(starts)

    def record(self, values: np.ndarray, eps_bool: np.ndarray) -> np.ndarray:
        """The observable records of a (B, n) block of paths: a (B, columns)
        float array, one row per path.  An empty class has location +inf,
        and so has a nonempty class whose values are all -inf."""
        values = np.asarray(values, dtype=float)
        eps_bool = np.asarray(eps_bool, dtype=bool)
        if values.ndim == 1:
            return self.record(values[None], eps_bool[None])[0]
        rows = len(values)
        rec = np.empty((rows, len(self.observables)))
        # the scan: every value above the scan level, in row-major order
        row, index = np.divmod(np.flatnonzero(values > self._scan), values.shape[1])
        height, observed = values[row, index], eps_bool[row, index]
        member = {"all": True, "observed": observed, "missed": ~observed}
        # the tally: every count column counts a subset of the points ...
        for col, which, edges, u in self._counts:
            keep = (height > u) & member[which]
            if edges is not None:
                keep &= np.searchsorted(edges, index, side="right") % 2 == 1
            rec[:, col] = np.bincount(row[keep], minlength=rows)
        # ... and a location column takes the first maximum of each row's
        # run of class points
        for col, which in self._locations:
            r, i, h = row, index, height
            if which != "all":
                r, i, h = r[member[which]], i[member[which]], h[member[which]]
            start = np.flatnonzero(np.diff(r, prepend=-1))
            top = np.repeat(np.maximum.reduceat(h, start), np.diff(start, append=len(h)))
            at_top = np.flatnonzero(h == top)
            first = at_top[np.diff(r[at_top], prepend=-1) != 0]
            rec[r[first], col] = i[first] + 1
            # a row with no class point above the scan level takes the
            # argmax of its class, every non-member at -inf
            has_point = np.zeros(rows, dtype=bool)
            has_point[r[start]] = True
            below = np.flatnonzero(~has_point)
            arr = values[below]
            if which != "all":
                np.copyto(arr, -np.inf, where=eps_bool[below] != (which == "observed"))
            arg = arr.argmax(axis=1)
            peak = arr[np.arange(len(below)), arg]
            rec[below, col] = np.where(peak > -np.inf, arg + 1, np.inf)
        return rec

    def __call__(self, values: np.ndarray, eps_bool: np.ndarray) -> np.ndarray:
        rec = self.record(values, eps_bool)[..., self._cols]
        inside = (self._lo <= rec) & (rec <= self._hi)
        return np.logical_and.reduceat(inside, self._starts, axis=-1)


def _split_terms(event: Event):
    counts = [t for t in event.terms if isinstance(t, CountTerm)]
    locs = [t for t in event.terms if isinstance(t, LocationTerm)]
    return counts, locs


def theory_limit(event: Event, params: LimitLawParams) -> float | None:
    """Limiting probability of the event, or None when it has no closed
    form.  Events with argmax locations take the locations-and-heights
    law (with k = 1 heights); every other event is a conjunction of count
    bounds, which the band-cell law covers up to its assignment cap."""
    counts, locs = _split_terms(event)
    if locs:
        return _locations_theory(counts, locs, params)
    cells = limit_laws.compile_counts([(t.which, t.family.intervals, t.x) for t in counts])
    value = limit_laws.count_bounds_prob(params, cells, [[t.bounds for t in counts]])
    return None if value is None else float(value[0])


def _locations_theory(counts, locs, params: LimitLawParams) -> float | None:
    """Argmax locations, one per class, with heights: whole-path counts
    of at most 0 (the class max is at most u_n(x)), one per class."""
    s = {t.which: t.s for t in locs}
    h = {t.which: t.x for t in counts if t.value == 0 and t.family == IntervalFamily.unit()}
    if len(s) != len(locs) or len(h) != len(counts):
        return None
    return limit_laws.locations_heights_cdf(params, s, h)


def theory_finite_n(event: Event, n: int, gamma: float, pattern) -> float | None:
    """Exact finite-n probability via the one-factor identity, for void
    events (every count at most 0) under a deterministic indicator
    pattern: the band-cell law of the event's count terms, weighted by the
    numbers of observed and missed indices in each atom, counted from the
    prefix sums of the 0/1 word ``pattern`` tiled to length n (None for
    random missingness) without building the n-long pattern."""
    counts, locs = _split_terms(event)
    if pattern is None or locs or any(t.value for t in counts):
        return None
    cells = limit_laws.compile_counts([(t.which, t.family.intervals, t.x) for t in counts])
    prefix = [0, *np.cumsum(np.asarray(pattern, dtype=bool)).tolist()]
    period = len(prefix) - 1

    def observed(m: int) -> int:  # observed indices among the first m
        return m // period * prefix[-1] + prefix[m % period]

    weights = []
    for intervals, _ in cells.atoms:
        ranges = IntervalFamily(intervals).index_ranges(n)
        obs = sum(observed(hi) - observed(lo) for lo, hi in ranges)
        weights.append((obs, sum(hi - lo for lo, hi in ranges) - obs))
    return limit_laws.finite_n_one_factor_prob(n, gamma, cells, weights)
