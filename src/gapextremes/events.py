"""Event vocabulary of the experiment driver.

An event is a conjunction of threshold terms on the observables of one
replication: order statistics against levels, exceedance counts over
interval families, and scaled argmax locations.  These are exactly the
event shapes whose limits the closed-form evaluators cover, so most
events can be given a theoretical value automatically; events outside the
recognized shapes simulate fine but carry no theory columns.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limit_laws
from .errors import ConfigError, InvalidParameterError
from .extremes import CLASSES, IntervalFamily, LevelParams
from .limit_laws import LimitLawParams

__all__ = [
    "OrderStatTerm",
    "CountTerm",
    "LocationTerm",
    "Event",
    "parse_event",
    "CompiledEvents",
    "theory_limit",
    "theory_finite_n",
]


@dataclass(frozen=True)
class OrderStatTerm:
    """k-th largest of a class stays below u_n(x)."""

    which: str
    k: int
    x: float

    def __post_init__(self) -> None:
        if self.which not in CLASSES:
            raise ConfigError(f"unknown class {self.which!r}")
        if self.k < 1:
            raise ConfigError(f"order statistic rank must be >= 1, got {self.k}")


@dataclass(frozen=True)
class CountTerm:
    """Class exceedance count of a family at level x, compared to a value."""

    which: str
    family: IntervalFamily
    x: float
    op: str
    value: int

    def __post_init__(self) -> None:
        if self.which not in CLASSES:
            raise ConfigError(f"unknown class {self.which!r}")
        if self.op not in ("eq", "le"):
            raise ConfigError(f"count op must be 'eq' or 'le', got {self.op!r}")
        if self.value < 0:
            raise ConfigError(f"count value must be >= 0, got {self.value}")

    def is_void(self) -> bool:
        return self.value == 0


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


def parse_event(doc: dict) -> Event:
    """Build an Event from its JSON document form.  Unknown keys error."""
    _require_keys(doc, {"id", "terms"}, set(), "event")
    terms = []
    for i, term in enumerate(doc["terms"]):
        where = f"event {doc['id']!r} term {i}"
        if not isinstance(term, dict) or "type" not in term:
            raise ConfigError(f"{where}: terms need a 'type' key")
        kind = term["type"]
        if kind == "order_stat":
            _require_keys(term, {"type", "class", "k", "x"}, set(), where)
            terms.append(OrderStatTerm(term["class"], int(term["k"]), float(term["x"])))
        elif kind == "count":
            _require_keys(term, {"type", "class", "intervals", "x", "op", "value"}, set(), where)
            family = IntervalFamily.of(*term["intervals"])
            terms.append(
                CountTerm(term["class"], family, float(term["x"]), term["op"], int(term["value"]))
            )
        elif kind == "location":
            _require_keys(term, {"type", "class", "s"}, set(), where)
            terms.append(LocationTerm(term["class"], float(term["s"])))
        else:
            raise ConfigError(f"{where}: unknown term type {kind!r}")
    return Event(event_id=str(doc["id"]), terms=tuple(terms))


class CompiledEvents:
    """Events bound to a path length, evaluated with per-path caching.

    Calling with (values, eps_bool) returns one boolean per event.  Class
    maxima, order statistics, exceedance masks and argmax locations are
    computed at most once per path however many terms share them.
    """

    def __init__(self, events, n: int, *, strict_order_stats: bool = False):
        self.events = tuple(events)
        self.n = int(n)
        self.strict = strict_order_stats
        lp = LevelParams.for_length(self.n)
        self._plans = []
        for event in self.events:
            plan = []
            for term in event.terms:
                if isinstance(term, OrderStatTerm):
                    plan.append(("kth", term.which, term.k, lp.level(term.x)))
                elif isinstance(term, CountTerm):
                    ranges = tuple(term.family.index_ranges(self.n))
                    plan.append(("count", term.which, ranges, lp.level(term.x), term.op, term.value))
                else:
                    limit = math.floor(term.s * self.n + 1e-9)
                    plan.append(("loc", term.which, limit))
            self._plans.append(tuple(plan))

    def __call__(self, values: np.ndarray, eps_bool: np.ndarray) -> np.ndarray:
        cache: dict = {}

        def masked(which):
            key = ("masked", which)
            if key not in cache:
                if which == "all":
                    cache[key] = values
                elif which == "observed":
                    cache[key] = np.where(eps_bool, values, -np.inf)
                else:
                    cache[key] = np.where(eps_bool, -np.inf, values)
            return cache[key]

        def kth_value(which, k):
            key = ("kth", which, k)
            if key not in cache:
                if k == 1 and not self.strict:
                    cache[key] = masked(which).max()
                else:
                    arr = masked(which)
                    finite = arr[arr > -np.inf] if which != "all" else arr
                    size = len(finite)
                    if size < k or (self.strict and size == k):
                        cache[key] = -np.inf
                    else:
                        cache[key] = np.partition(finite, size - k)[size - k]
            return cache[key]

        def exceed_mask(which, u):
            key = ("exceed", which, u)
            if key not in cache:
                hits = values > u
                if which == "observed":
                    hits = hits & eps_bool
                elif which == "missed":
                    hits = hits & ~eps_bool
                cache[key] = hits
            return cache[key]

        def location(which):
            key = ("loc", which)
            if key not in cache:
                arr = masked(which)
                top = arr.max()
                cache[key] = None if top == -np.inf else int(np.argmax(arr)) + 1
            return cache[key]

        out = np.zeros(len(self.events), dtype=bool)
        for idx, plan in enumerate(self._plans):
            ok = True
            for step in plan:
                if step[0] == "kth":
                    _, which, k, u = step
                    # strict mode can return -inf for a class of exactly k,
                    # which still satisfies <= u; that is the intended reading
                    if not kth_value(which, k) <= u:
                        ok = False
                elif step[0] == "count":
                    _, which, ranges, u, op, value = step
                    hits = exceed_mask(which, u)
                    count = sum(int(hits[lo:hi].sum()) for lo, hi in ranges)
                    ok = count == value if op == "eq" else count <= value
                else:
                    _, which, limit = step
                    loc = location(which)
                    ok = loc is not None and loc <= limit
                if not ok:
                    break
            out[idx] = ok
        return out


def _split_terms(event: Event):
    order = [t for t in event.terms if isinstance(t, OrderStatTerm)]
    counts = [t for t in event.terms if isinstance(t, CountTerm)]
    locs = [t for t in event.terms if isinstance(t, LocationTerm)]
    return order, counts, locs


def _families_disjoint(families) -> bool:
    intervals = sorted(iv for fam in families for iv in fam.intervals)
    return all(a[1] <= b[0] for a, b in zip(intervals, intervals[1:]))


def _void_cells(count_terms) -> list[tuple[IntervalFamily, float, float]] | None:
    """Group void count terms into per-family (observed level, missed level)
    cells, folding multiple levels per class through nesting (a count void
    at two levels is void at the lower one)."""
    if not all(t.is_void() for t in count_terms):
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


def _order_stat_levels(order_terms) -> dict[str, tuple[int, float]] | None:
    """class -> (k, x), or None when a class appears twice."""
    spec: dict[str, tuple[int, float]] = {}
    for term in order_terms:
        if term.which in spec:
            return None
        spec[term.which] = (term.k, term.x)
    return spec


def theory_limit(event: Event, params: LimitLawParams) -> float | None:
    """Limiting probability of the event, or None when the event does not
    match a closed-form shape."""
    order, counts, locs = _split_terms(event)

    if order and not counts and not locs:
        spec = _order_stat_levels(order)
        if spec is None or len(spec) == 3:
            return None
        # an absent class is the dropped constraint (rank 1 at +inf)
        unconstrained = (1, math.inf)
        if "all" not in spec:
            (k, x), (l, y) = spec.get("observed", unconstrained), spec.get("missed", unconstrained)
            return limit_laws.order_stats_obs_missed_cdf(params, k, l, x, y)
        which = "missed" if "missed" in spec else "observed"
        (k, x), (m, y) = spec.get(which, unconstrained), spec["all"]
        return limit_laws.order_stats_vs_all_cdf(params, which, k, m, x, y)

    if counts and not order and not locs:
        cells = _void_cells(counts)
        if cells is not None:
            return limit_laws.void_probability_intervals(
                params, [(fam.measure, x, y) for fam, x, y in cells]
            )
        return _counts_pmf_theory(counts, params)

    if locs and not counts:
        return _locations_theory(order, locs, params)

    return None


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


def _locations_theory(order, locs, params: LimitLawParams) -> float | None:
    loc_spec: dict[str, float] = {}
    for term in locs:
        if term.which in loc_spec:
            return None
        loc_spec[term.which] = term.s
    height_spec = _order_stat_levels(order)
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
    pattern = np.asarray(pattern).astype(bool)
    order, counts, locs = _split_terms(event)
    if locs:
        return None

    if order and not counts:
        spec = _order_stat_levels(order)
        if spec is None or any(k != 1 for k, _ in spec.values()):
            return None
        x_eff = min(spec.get("observed", (1, math.inf))[1], spec.get("all", (1, math.inf))[1])
        y_eff = min(spec.get("missed", (1, math.inf))[1], spec.get("all", (1, math.inf))[1])
        n_obs = int(pattern.sum())
        cells = [(n_obs, n - n_obs, x_eff, y_eff)]
        return limit_laws.finite_n_one_factor_prob(n, gamma, cells)

    if counts and not order:
        grouped = _void_cells(counts)
        if grouped is None:
            return None
        cells = []
        for family, x_eff, y_eff in grouped:
            mask = family.member_mask(n)
            n_obs = int((pattern & mask).sum())
            n_miss = int((~pattern & mask).sum())
            cells.append((n_obs, n_miss, x_eff, y_eff))
        return limit_laws.finite_n_one_factor_prob(n, gamma, cells)

    return None
