"""Event vocabulary of the experiment driver.

An event is a conjunction of threshold terms on the observables of one
replication: exceedance counts over interval families and scaled argmax
locations.  An order statistic is an exceedance count: the k-th largest
value of a class is at most u_n(x) exactly when fewer than k class values
exceed u_n(x), so ``order_stat`` parses to a count of at most k - 1 over
the whole path.  These are exactly the event shapes whose limits the
closed-form evaluators cover, so most events can be given a theoretical
value automatically; events outside the recognized shapes simulate fine
but carry no theory columns.

For simulation, ``CompiledEvents`` reduces a replication to one
*observable record*: a float vector with one column per distinct
observable the events mention, of two kinds: a class exceedance count
over a family at a level, and a class argmax location.  Every term is a
bound on one column, so an event is a conjunction of interval checks on
the record, whichever sampler produced it.  ``extremes`` computes the
same observables one at a time and is the reference the record is tested
against.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limit_laws
from .errors import ConfigError, GapExtremesError
from .extremes import CLASSES, IntervalFamily, LevelParams
from .limit_laws import LimitLawParams

__all__ = [
    "CountTerm",
    "LocationTerm",
    "Event",
    "order_stat",
    "parse_event",
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


def _require_keys(doc: dict, required: set[str], optional: set[str], where: str) -> None:
    """Check that ``doc`` is a JSON object with exactly the allowed keys and
    no boolean value.  No config field is boolean, and Python would read
    ``true`` as the number 1."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    for key, value in doc.items():
        if _has_boolean(value):
            raise ConfigError(f"{where}: {key} must not be a boolean")


def _has_boolean(value) -> bool:
    """A boolean, or a (nested) list holding one; objects are checked by
    their own ``_require_keys``."""
    if isinstance(value, list):
        return any(map(_has_boolean, value))
    return isinstance(value, bool)


def _integer(value, where: str) -> int:
    """An integer config value.  An integral float such as ``3000.0`` is
    accepted; a fractional or non-finite one is an error (``int`` would
    truncate it or overflow)."""
    if isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{where} must be an integer, got {value!r}")
    return int(value)


def _term(where: str, make, *args):
    """``make(*args)``, with a range error prefixed by the term's location."""
    try:
        return make(*args)
    except GapExtremesError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def parse_event(doc: dict) -> Event:
    """Build an Event from its JSON document form.  Unknown keys error, and
    every term error names its event and term."""
    _require_keys(doc, {"id", "terms"}, set(), "event")
    terms = []
    for i, term in enumerate(doc["terms"]):
        where = f"event {doc['id']!r} term {i}"
        if not isinstance(term, dict) or "type" not in term:
            raise ConfigError(f"{where}: terms need a 'type' key")
        kind = term["type"]
        if kind == "order_stat":
            _require_keys(term, {"type", "class", "k", "x"}, set(), where)
            k = _integer(term["k"], f"{where}: k")
            terms.append(_term(where, order_stat, term["class"], k, float(term["x"])))
        elif kind == "count":
            _require_keys(term, {"type", "class", "intervals", "x", "op", "value"}, set(), where)
            family = _term(where, IntervalFamily.of, *term["intervals"])
            value = _integer(term["value"], f"{where}: value")
            terms.append(
                _term(where, CountTerm, term["class"], family, float(term["x"]), term["op"], value)
            )
        elif kind == "location":
            _require_keys(term, {"type", "class", "s"}, set(), where)
            terms.append(_term(where, LocationTerm, term["class"], float(term["s"])))
        else:
            raise ConfigError(f"{where}: unknown term type {kind!r}")
    return Event(event_id=str(doc["id"]), terms=tuple(terms))


class CompiledEvents:
    """Events bound to a path length, evaluated on one observable record
    per replication.

    ``observables`` lists the distinct observables the events mention, one
    record column each: ``("count", which, ranges, u)``, the class
    exceedance count above level u over the 0-based half-open index ranges
    of a family; and ``("location", which)``, the 1-based index of the
    first class maximum.  ``record(values, eps_bool)`` computes every
    column once per path.  Every term is one bound lo <= record[col] <= hi,
    and calling with (values, eps_bool) returns one boolean per event:
    whether all its bounds hold.
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
                    bounds = (term.value if term.op == "eq" else -math.inf, term.value)
                else:
                    key = ("location", term.which)
                    bounds = (-math.inf, math.floor(term.s * self.n + 1e-9))
                cols.append(columns.setdefault(key, len(columns)))
                limits.append(bounds)
        self.observables = tuple(columns)
        self._classes = {key[1] for key in self.observables}
        self._cols = np.array(cols)
        self._lo, self._hi = np.array(limits, dtype=float).T
        self._starts = np.array(starts)

    def record(self, values: np.ndarray, eps_bool: np.ndarray) -> np.ndarray:
        """The observable record of one path: one float per column of
        ``observables``.  An empty class has location +inf."""
        # a class is the path with every non-member at -inf, which exceeds
        # no level
        masked = {
            which: values if which == "all"
            else np.where(eps_bool if which == "observed" else ~eps_bool, values, -np.inf)
            for which in self._classes
        }
        rec = np.empty(len(self.observables))
        for col, (kind, which, *spec) in enumerate(self.observables):
            arr = masked[which]
            if kind == "count":
                ranges, u = spec
                rec[col] = sum(np.count_nonzero(arr[a:b] > u) for a, b in ranges)
            else:
                top = int(np.argmax(arr))
                rec[col] = top + 1 if arr[top] > -np.inf else np.inf
        return rec

    def __call__(self, values: np.ndarray, eps_bool: np.ndarray) -> np.ndarray:
        rec = self.record(values, eps_bool)[self._cols]
        return np.logical_and.reduceat((self._lo <= rec) & (rec <= self._hi), self._starts)


def _split_terms(event: Event):
    counts = [t for t in event.terms if isinstance(t, CountTerm)]
    locs = [t for t in event.terms if isinstance(t, LocationTerm)]
    return counts, locs


def _families_disjoint(families) -> bool:
    intervals = sorted(iv for fam in families for iv in fam.intervals)
    return all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))


def _path_bounds(count_terms) -> dict[str, tuple[int, float]] | None:
    """class -> (k, x) when every term bounds a class count over the whole
    path from above, count <= k - 1 at level x (the k-th class maximum is
    at most u_n(x)), at most once per class; otherwise None."""
    spec: dict[str, tuple[int, float]] = {}
    for term in count_terms:
        upper = term.op == "le" or term.value == 0
        if not upper or term.family != IntervalFamily.unit() or term.which in spec:
            return None
        spec[term.which] = (term.value + 1, term.x)
    return spec


def _void_cells(count_terms) -> list[tuple[IntervalFamily, float, float]] | None:
    """Group void count terms into per-family (observed level, missed level)
    cells, folding multiple levels per class through nesting (a count void
    at two levels is void at the lower one).  Cells come sorted by interval,
    so the theory value does not depend on the order of the terms."""
    if any(t.value != 0 for t in count_terms):
        return None
    by_family: dict[IntervalFamily, tuple[float, float]] = {}
    for term in count_terms:
        x_eff, y_eff = by_family.get(term.family, (math.inf, math.inf))
        if term.which in ("observed", "all"):
            x_eff = min(x_eff, term.x)
        if term.which in ("missed", "all"):
            y_eff = min(y_eff, term.x)
        by_family[term.family] = (x_eff, y_eff)
    if not _families_disjoint(by_family):
        return None
    return [(fam, *by_family[fam]) for fam in sorted(by_family, key=lambda f: f.intervals)]


def theory_limit(event: Event, params: LimitLawParams) -> float | None:
    """Limiting probability of the event, or None when the event does not
    match a closed-form shape.

    Shapes are tried in order: argmax locations (with k = 1 heights);
    whole-path upper bounds on fewer than three classes (order statistics);
    void cells on disjoint families; 'eq' counts (the joint count pmf)."""
    counts, locs = _split_terms(event)
    if locs:
        return _locations_theory(counts, locs, params)

    spec = _path_bounds(counts)
    if spec is not None and len(spec) < 3:
        # an absent class is the dropped constraint (rank 1 at +inf)
        unconstrained = (1, math.inf)
        if "all" not in spec:
            (k, x), (l, y) = spec.get("observed", unconstrained), spec.get("missed", unconstrained)
            return limit_laws.order_stats_obs_missed_cdf(params, k, l, x, y)
        which = "missed" if "missed" in spec else "observed"
        (k, x), (m, y) = spec.get(which, unconstrained), spec["all"]
        return limit_laws.order_stats_vs_all_cdf(params, which, k, m, x, y)

    cells = _void_cells(counts)
    if cells is not None:
        return limit_laws.void_probability_intervals(
            params, [(fam.measure, x, y) for fam, x, y in cells]
        )
    return _counts_pmf_theory(counts, params)


def _counts_pmf_theory(counts, params: LimitLawParams) -> float | None:
    """Joint count pmf theory: 'eq' terms of the observed and missed classes
    on one family, at one or two levels, each (class, level) exactly once.
    One level is the pmf at x = y."""
    values = {(t.which, t.x): t.value for t in counts}
    levels = sorted({x for _, x in values}, reverse=True)
    families = {t.family for t in counts}
    if (any(t.op != "eq" or t.which == "all" for t in counts) or len(families) != 1
            or len(levels) > 2 or not len(counts) == len(values) == 2 * len(levels)):
        return None
    x, y = levels[0], levels[-1]  # x is the higher level
    return limit_laws.joint_counts_pmf(
        params, families.pop().measure, x, y,
        values["observed", x], values["missed", x], values["observed", y], values["missed", y],
    )


def _locations_theory(counts, locs, params: LimitLawParams) -> float | None:
    """Argmax locations of at most two classes, with k = 1 heights on
    located classes.  An absent location is 1 and an absent height +inf
    (the dropped constraint); the pair is obs_missed unless 'all' is
    located."""
    loc = {t.which: t.s for t in locs}
    bounds = _path_bounds(counts)
    if (len(loc) != len(locs) or len(loc) == 3 or bounds is None
            or any(k != 1 for k, _ in bounds.values()) or not set(bounds) <= set(loc)):
        return None
    s = dict.fromkeys(CLASSES, 1.0) | loc
    h = dict.fromkeys(CLASSES, math.inf) | {which: x for which, (_, x) in bounds.items()}
    if "all" not in loc:
        return limit_laws.locations_heights_cdf(
            params, "obs_missed", s["observed"], s["missed"], h["observed"], h["missed"]
        )
    if len(loc) == 1 and math.isinf(h["all"]):
        return s["all"]
    member = "missed" if "missed" in loc else "observed"
    pair = "missed_all" if member == "missed" else "obs_all"
    # the class max never exceeds the overall max, so its level can be
    # tightened to min(x_class, x_all), after which x <= y always holds
    return limit_laws.locations_heights_cdf(
        params, pair, s[member], s["all"], min(h[member], h["all"]), h["all"]
    )


def theory_finite_n(event: Event, n: int, gamma: float, pattern: np.ndarray | None) -> float | None:
    """Exact finite-n probability via the one-factor identity, available
    for void-type events under a deterministic indicator pattern."""
    if pattern is None:
        return None
    counts, locs = _split_terms(event)
    grouped = None if locs else _void_cells(counts)
    if grouped is None:
        return None
    pattern = np.asarray(pattern).astype(bool)
    cells = []
    for family, x_eff, y_eff in grouped:
        mask = family.member_mask(n)
        cells.append((int((pattern & mask).sum()), int((~pattern & mask).sum()), x_eff, y_eff))
    return limit_laws.finite_n_one_factor_prob(n, gamma, cells)
