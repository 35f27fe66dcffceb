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
from .errors import ConfigError
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
    """Check that ``doc`` is a JSON object with exactly the allowed keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be an object, got {type(doc).__name__}")
    keys = set(doc)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise ConfigError(f"{where}: missing keys {sorted(missing)}")
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


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
    except ConfigError as exc:
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
            family = IntervalFamily.of(*term["intervals"])
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
    at two levels is void at the lower one)."""
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
    return [(fam, x, y) for fam, (x, y) in by_family.items()]


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
    """Joint count pmf theory for 'eq' terms of obs/missed classes on one
    family at one or two levels."""
    if any(t.op != "eq" or t.which == "all" for t in counts):
        return None
    families = {t.family for t in counts}
    if len(families) != 1:
        return None
    family = families.pop()
    levels = sorted({t.x for t in counts})
    if len(levels) > 2:
        return None
    values: dict[tuple[str, float], int] = {}
    for t in counts:
        key = (t.which, t.x)
        if key in values:
            return None
        values[key] = t.value
    if len(levels) == 1 and len(values) == 2:
        x = levels[0]
        k1 = values.get(("observed", x))
        k2 = values.get(("missed", x))
        if k1 is None or k2 is None:
            return None
        return limit_laws.joint_counts_pmf(params, family.measure, x, x, k1, k2, k1, k2)
    if len(levels) == 2 and len(values) == 4:
        y, x = levels  # x is the higher level
        try:
            k1, k2 = values[("observed", x)], values[("missed", x)]
            k3, k4 = values[("observed", y)], values[("missed", y)]
        except KeyError:
            return None
        return limit_laws.joint_counts_pmf(params, family.measure, x, y, k1, k2, k3, k4)
    return None


def _locations_theory(counts, locs, params: LimitLawParams) -> float | None:
    loc_spec: dict[str, float] = {}
    for term in locs:
        if term.which in loc_spec:
            return None
        loc_spec[term.which] = term.s
    height_spec = _path_bounds(counts)
    if height_spec is None or any(k != 1 for k, _ in height_spec.values()):
        return None
    if not set(height_spec) <= set(loc_spec):
        return None
    height = {which: x for which, (_, x) in height_spec.items()}
    classes = frozenset(loc_spec)

    def hx(which: str) -> float:
        return height.get(which, math.inf)

    if classes == {"observed", "missed"}:
        return limit_laws.locations_heights_cdf(
            params, "obs_missed", loc_spec["observed"], loc_spec["missed"],
            hx("observed"), hx("missed"),
        )
    if classes == {"observed", "all"} or classes == {"missed", "all"}:
        pair = "obs_all" if "observed" in classes else "missed_all"
        member = "observed" if "observed" in classes else "missed"
        # the class max never exceeds the overall max, so its level can be
        # tightened to min(x_class, x_all), after which x <= y always holds
        x = min(hx(member), hx("all"))
        return limit_laws.locations_heights_cdf(
            params, pair, loc_spec[member], loc_spec["all"], x, hx("all")
        )
    if len(classes) == 1:
        which = next(iter(classes))
        s = loc_spec[which]
        if which == "observed":
            return limit_laws.locations_heights_cdf(
                params, "obs_missed", s, 1.0, hx("observed"), math.inf
            )
        if which == "missed":
            return limit_laws.locations_heights_cdf(
                params, "obs_missed", 1.0, s, math.inf, hx("missed")
            )
        y = hx("all")
        if math.isinf(y):
            return s
        return limit_laws.locations_heights_cdf(params, "obs_all", 1.0, s, y, y)
    return None


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
