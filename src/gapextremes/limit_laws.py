"""Closed-form limit distributions, evaluated by quadrature.

Everything here mixes two latent variables: the observed fraction
``lambda`` (law supplied by the caller) and a standard-normal factor
``xi`` carrying the long-range dependence.  Conditionally on both, the
exceedance processes of the observed and missed classes are independent
Poisson with intensities ``lam * g`` and ``(1 - lam) * g``, where

    g(x, z) = exp(-x - gamma + sqrt(2 gamma) z)

is the limiting mean number of exceedances of level u_n(x) given xi = z.
Every law hands a batch integrand ``f(lam, g, rows)`` and the levels it
uses to one kernel, ``_mixed_poisson``, which alone contracts it against
the quadrature rules, refines until stable (quadrature.converge; the batch
shares each rule, every element settling on its own, and finer rules see
only the pending elements) and clips to [0, 1].  For gamma > 0 the
integrand steps from 1 to 0 where g(x, z) crosses 1, at
z = (x + gamma) / sqrt(2 gamma) (``g_step``), so the z rule is cut at each
level's step; with gamma = 0 it has one node.

Count events have one law.  ``compile_counts`` cuts (0, 1] into atoms at
the terms' interval endpoints and the levels into bands; given (lambda,
xi) the exceedances per (atom, class, band) are independent Poisson, and
those the same terms count merge into one variable.  ``count_bounds_prob``
takes rows of per-term (lo, hi) bounds, sums over the pruned assignments
of the shared variables, takes each term's private variable in closed
form, and multiplies the factors in canonical order from per-rule tables.
A cdf factor P(N <= k) is the finite sum of its pmfs up to k =
``_CDF_SUM_MAX``, and scipy's incomplete gamma above; a pmf factor keeps
the log form exp(k log mu - mu - log k!), whose bits the tests pin.
The order-statistic, joint-count and void evaluators wrap it, and so does
the exact finite-n void identity of the one-factor model: -log Phi of the
factor-shifted level in place of g, each atom's class counts in place of
lam |atom|, under the unit fraction law and with its own steps.

The locations-and-heights law of any located classes is a batch of two
race terms, one per class that may carry the overall maximum; the
location factors multiply them outside the kernel.

Level arguments accept +inf to drop the corresponding constraint.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from statistics import NormalDist

import numpy as np

from .errors import InvalidParameterError
from .extremes import CLASSES, LevelParams, transformed_level
from .lambdalaw import LambdaLaw
from .quadrature import QuadratureRule, converge

__all__ = [
    "LimitLawParams",
    "CountCells",
    "MAX_ASSIGNMENTS",
    "compile_counts",
    "count_bounds_prob",
    "g_intensity",
    "g_step",
    "joint_maxima_cdf",
    "order_stats_obs_missed_cdf",
    "order_stats_vs_all_cdf",
    "joint_counts_pmf",
    "joint_counts_pmf_batch",
    "void_probability_intervals",
    "finite_n_one_factor_prob",
    "locations_heights_cdf",
]

# cap on log g so exp never overflows; exp(700) ~ 1e304 still kills any
# survival factor it multiplies, and 0 * exp(700) stays 0 (no inf * 0 NaNs)
_LOG_CAP = 700.0

_UNIT_LAW = LambdaLaw.point(1.0)


@dataclass(frozen=True)
class LimitLawParams:
    """Dependence strength and observed-fraction law of a limit regime."""

    gamma: float
    lambda_law: LambdaLaw

    def __post_init__(self) -> None:
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise InvalidParameterError(f"gamma must be finite and >= 0, got {self.gamma}")


def g_intensity(gamma: float, x, z):
    """exp(-x - gamma + sqrt(2 gamma) z), elementwise over x and z.

    Computed in log space; underflows to 0, and +inf levels map to
    intensity 0 (the dropped-constraint convention).
    """
    if gamma < 0.0:
        raise InvalidParameterError(f"gamma must be >= 0, got {gamma}")
    log_g = -np.asarray(x, dtype=float) - gamma + math.sqrt(2.0 * gamma) * np.asarray(z, dtype=float)
    out = np.exp(np.minimum(log_g, _LOG_CAP))
    return out if out.ndim else float(out)


#: highest count whose Poisson cdf is a finite sum: one exp and 3k passes
#: over the points cost less than scipy's incomplete gamma up to k near 40
_CDF_SUM_MAX = 32


def _poisson_pmf(k: int, mu: np.ndarray) -> np.ndarray:
    """Poisson pmf with the 0^0 = 1 convention at mu = 0."""
    if k == 0:  # bit for bit exp(0 * log(mu) - mu - lgamma(1)), mu = 0 too
        return np.exp(-mu)
    with np.errstate(divide="ignore"):  # log 0 = -inf gives pmf 0
        log_pmf = k * np.log(mu) - mu - math.lgamma(k + 1)
    return np.exp(log_pmf, out=log_pmf)


def _poisson_cdf(k: int, mu: np.ndarray) -> np.ndarray:
    """P(Poisson(mu) <= k).  Up to ``_CDF_SUM_MAX`` it is the sum of the
    pmfs e^-mu mu^j / j!, j <= k, each term from the last in place: no term
    exceeds 1, and where e^-mu underflows (mu > 745) the cdf is below
    e^-600.  Larger k goes to scipy's incomplete gamma, imported here
    only: importing ``scipy.special`` costs a process 0.2 s or more."""
    if not 0 <= k <= _CDF_SUM_MAX:
        from scipy.special import pdtr

        return pdtr(k, mu)
    total = np.exp(-mu)
    term = total.copy()
    for j in range(1, int(k) + 1):
        term *= mu
        term /= j
        total += term
    return total


#: below this level log Phi is its asymptotic series, as in scipy's log_ndtr;
#: the first omitted term, 25!! / 20^26, is below 1e-20
_LOG_NDTR_SERIES_BELOW = -20.0
_LOG_NDTR_SERIES_TERMS = 12


def _log_ndtr(t: np.ndarray) -> np.ndarray:
    """log Phi(t), elementwise: log(Q) at t <= 0 and log1p(-Q) above, with
    the normal tail Q = erfc(|t| / sqrt 2) / 2, and far below 0
    -t^2/2 - log(-t sqrt(2 pi)) + log(1 - 1/t^2 + 3/t^4 - ...), so
    -inf maps to -inf and +inf to 0."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    far = t < _LOG_NDTR_SERIES_BELOW
    if far.any():
        u = t[far]
        r, series = 1.0 / (u * u), np.ones_like(u)
        for j in range(_LOG_NDTR_SERIES_TERMS, 0, -1):  # Horner in 1/t^2
            series = 1.0 - (2 * j - 1) * r * series
        out[far] = -0.5 * u * u - np.log(-u * math.sqrt(2.0 * math.pi)) + np.log(series)
    near = ~far
    t = t[near]
    tail = np.fromiter(map(math.erfc, (np.abs(t) * math.sqrt(0.5)).tolist()), float, t.size)
    tail *= 0.5
    with np.errstate(divide="ignore"):  # the unused log(Q) where Q underflows
        out[near] = np.where(t > 0.0, np.log1p(-tail), np.log(tail))
    return out


def _clip_prob(value):
    """Clamp to [0, 1] elementwise; a scalar comes back as a float."""
    value = np.clip(value, 0.0, 1.0)
    return value if value.ndim else float(value)


def g_step(gamma: float, x: float) -> tuple[float, float]:
    """Centre and width in z of the step of exp(-g(x, z)) from 1 to 0:
    g(x, z) = 1 at z = (x + gamma) / sqrt(2 gamma), and it grows by e
    every 1 / sqrt(2 gamma).  Needs gamma > 0 and a finite x."""
    root = math.sqrt(2.0 * gamma)
    return (x + gamma) / root, 1.0 / root


def _mixed_poisson(params: LimitLawParams, integrand, levels, shape: tuple,
                   per_level=g_intensity, step=g_step):
    """E over (lambda, xi) of a batch of integrals of the given ``shape``.
    ``integrand(lam, g, rows)`` gets the fraction column ``lam``, the
    per-level map ``g(level) = per_level(gamma, level, z)`` at the factor
    nodes z (the intensity ``g_intensity`` for the limit laws) and the flat
    indices of the elements still pending, and yields one value array for
    each of them.  ``levels`` are those the integrand may use; the z rule
    is aligned to the step (centre, width) ``step(gamma, level)`` of each
    finite one, and has one node when gamma = 0 or no level is finite.
    The result is an array of that shape whose elements each converge on
    their own."""
    steps = () if params.gamma == 0.0 else tuple(
        step(params.gamma, x) for x in sorted(set(levels)) if math.isfinite(x))

    def evaluate(rule: QuadratureRule):
        def g(x):
            return per_level(params.gamma, x, rule.z)

        return [rule.expect(v) for v in integrand(rule.lam_col, g, rule.rows)]

    return _clip_prob(converge(params.lambda_law, evaluate, steps=steps, shape=shape))


#: most search steps per row of bounds; an event needing more gets no value
MAX_ASSIGNMENTS = 4096


@dataclass(frozen=True)
class CountCells:
    """The cells of count terms.  ``index`` maps each input term to one of
    the distinct (class, intervals, x) terms, numbered 0, 1, ...  ``atoms``
    are (intervals, measure): pieces of (0, 1] between endpoints, grouped
    by the terms covering them.  ``variables`` are independent Poisson
    counts, as (members, pieces) in canonical (atom, class, band) order:
    the terms each counts toward, and its (atom, class, top, bottom) pieces."""

    index: tuple
    atoms: tuple
    variables: tuple


def compile_counts(terms) -> CountCells:
    """Cells of the count terms (class, intervals, x), each the count of
    class exceedances of u_n(x) over a union of intervals (c, d]."""
    keys: dict[tuple, int] = {}
    index = tuple(keys.setdefault((w, tuple(map(tuple, iv)), float(x)), len(keys))
                  for w, iv, x in terms)
    distinct = tuple(keys)
    cuts = sorted({end for _, iv, _ in distinct for pair in iv for end in pair})
    groups: dict[frozenset, list] = {}
    for a, b in zip(cuts, cuts[1:]):
        cover = frozenset(t for t, (_, iv, _) in enumerate(distinct)
                          if any(c <= a and b <= d for c, d in iv))
        if cover:
            groups.setdefault(cover, []).append((a, b))
    levels = sorted({x for *_, x in distinct if x < math.inf}, reverse=True)
    runs: dict[tuple, list] = {}
    for atom, cover in enumerate(groups):
        for which in ("observed", "missed"):
            members = [tuple(t for t in sorted(cover) if distinct[t][0] in (which, "all")
                             and level >= distinct[t][2]) for level in levels]
            for j, run in enumerate(members):
                if run and run not in members[j + 1:j + 2]:  # the last band of a run
                    top = (math.inf, *levels)[members.index(run)]  # runs are contiguous
                    runs.setdefault(run, []).append((atom, which, top, levels[j]))
    atoms = tuple((tuple(p), float(sum(d - c for c, d in p))) for p in groups.values())
    return CountCells(index, atoms, tuple((m, tuple(p)) for m, p in runs.items()))


def _assignments(cells: CountCells, row):
    """One tuple of factor keys (variable, pmf or cdf, count) per admissible
    assignment of the shared variables under one row of bounds; None past the cap.
    Every pushed entry is popped, so the search gives up as soon as the
    entries visited and pending would pass the cap, before it pushes them."""
    n = max(cells.index, default=-1) + 1
    lo, hi = [-math.inf] * n, [math.inf] * n
    for t, (a, b) in zip(cells.index, row):
        if a not in (b, -math.inf):
            raise InvalidParameterError(f"bounds must be (k, k) or (-inf, k), got {(a, b)}")
        lo[t], hi[t] = max(lo[t], a), min(hi[t], b)
    members = [m for m, _ in cells.variables]
    private = {m[0]: v for v, m in enumerate(members) if len(m) == 1}
    shared = [v for v, m in enumerate(members) if len(m) > 1]
    last = {t: v for v in shared for t in members[v]}
    if any(lo[t] > hi[t] or not (t in private or t in last or lo[t] <= 0 <= hi[t])
           for t in range(n)):
        return []
    found, stack, visits = [], [(0, [0] * n, ())], 0
    while stack:
        i, sums, keys = stack.pop()
        visits += 1
        if i == len(shared):
            keys += tuple((v, "pmf" if lo[t] == hi[t] else "cdf", hi[t] - sums[t])
                          for t, v in private.items())
            found.append(tuple(sorted(keys)))
            continue
        v, ts = shared[i], members[shared[i]]
        # a term without a private variable is settled by its last shared one
        low = int(max([0] + [lo[t] - sums[t] for t in ts if last[t] == v and t not in private]))
        high = int(min(hi[t] - sums[t] for t in ts))
        if visits + len(stack) + max(0, high - low + 1) > MAX_ASSIGNMENTS:
            return None
        for c in reversed(range(low, high + 1)):
            sums_c = [s + c if t in ts else s for t, s in enumerate(sums)]
            stack.append((i + 1, sums_c, keys + ((v, "pmf", c),)))
    return found


def count_bounds_prob(params: LimitLawParams, cells: CountCells, bounds, weights=None,
                      per_level=g_intensity, step=g_step) -> np.ndarray | None:
    """Probability, per row of ``bounds``, that every count term of
    ``cells`` lies in its integer bounds (lo, hi): hi finite, lo = hi or
    -inf.  A row no assignment satisfies gets exactly 0, a row without
    variables 1, and None comes back past ``MAX_ASSIGNMENTS`` steps.

    A piece (atom, class, top, bottom) of a variable has mean
    w (G(bottom) - G(top)), with G the per-level map ``per_level`` and its
    ``step`` as ``_mixed_poisson`` takes them.  By default this is the
    limit: G is g and w the class fraction times the atom's measure;
    ``weights`` maps (atom, class) to w in its place."""
    rows = [_assignments(cells, row) for row in bounds]
    if None in rows:
        return None
    out = np.array([float(r == [()]) for r in rows])
    live = [i for i, r in enumerate(rows) if r and r != [()]]
    levels = {x for _, pieces in cells.variables
              for *_, top, bottom in pieces for x in (top, bottom)}

    def integrand(lam, g, pending):
        pending = [live[i] for i in pending]
        fracs, at = {"observed": lam, "missed": 1.0 - lam}, {x: g(x) for x in levels}
        weight = weights or {(atom, which): fracs[which] * measure
                             for atom, (_, measure) in enumerate(cells.atoms) for which in fracs}
        table, left = {}, Counter(key for i in pending for keys in rows[i] for key in keys)

        def factor(key):  # a table entry lives from the first use of its key to the last
            v, kind, k = key
            if key not in table:
                mu = reduce(add, (weight[atom, which] * (at[bottom] - at[top])
                                  for atom, which, top, bottom in cells.variables[v][1]))
                table[key] = _poisson_pmf(k, mu) if kind == "pmf" else _poisson_cdf(k, mu)
            left[key] -= 1
            return table[key] if left[key] else table.pop(key)

        for i in pending:  # products and sums start from their first term
            yield reduce(add, (reduce(mul, map(factor, keys)) for keys in rows[i]))

    if live:
        out[live] = _mixed_poisson(params, integrand, levels, (len(live),), per_level, step)
    return out


def _event_prob(params: LimitLawParams, terms) -> float:
    """``count_bounds_prob`` of one event of (class, intervals, x, lo, hi) terms."""
    cells = compile_counts([t[:3] for t in terms])
    value = count_bounds_prob(params, cells, [[t[3:] for t in terms]])
    if value is None:
        raise InvalidParameterError(f"the event needs more than {MAX_ASSIGNMENTS} search steps")
    return float(value[0])


def joint_maxima_cdf(params: LimitLawParams, x: float, y: float) -> float:
    """Limit of P(observed max <= u_n(x), missed max <= u_n(y))."""
    return order_stats_obs_missed_cdf(params, 1, 1, x, y)


def order_stats_obs_missed_cdf(params: LimitLawParams, k: int, l: int, x: float, y: float) -> float:
    """Limit of P(k-th observed max <= u_n(x), l-th missed max <= u_n(y))."""
    if k < 1 or l < 1:
        raise InvalidParameterError(f"order statistic ranks must be >= 1, got k={k}, l={l}")
    return _event_prob(params, [("observed", ((0.0, 1.0),), x, -math.inf, k - 1),
                                ("missed", ((0.0, 1.0),), y, -math.inf, l - 1)])


def order_stats_vs_all_cdf(params: LimitLawParams, which: str, k: int, m: int,
                           x: float, y: float) -> float:
    """Limit of P(k-th class max <= u_n(x), m-th overall max <= u_n(y))
    for ``which`` in {"observed", "missed"}."""
    if which not in ("observed", "missed"):
        raise InvalidParameterError(f"class must be observed or missed, got {which!r}")
    if k < 1 or m < 1:
        raise InvalidParameterError(f"ranks must be >= 1, got k={k}, m={m}")
    return _event_prob(params, [(which, ((0.0, 1.0),), x, -math.inf, k - 1),
                                ("all", ((0.0, 1.0),), y, -math.inf, m - 1)])


def joint_counts_pmf(params: LimitLawParams, measure: float, x: float, y: float,
                     k1: int, k2: int, k3: int, k4: int) -> float:
    """Limit pmf of the joint exceedance counts of one interval family:
    (observed at x, missed at x, observed at y, missed at y) = (k1..k4).
    Count patterns violating the nesting of the levels get exactly 0."""
    return float(joint_counts_pmf_batch(params, measure, x, y, [(k1, k2, k3, k4)])[0])


def joint_counts_pmf_batch(params: LimitLawParams, measure: float, x: float, y: float,
                           counts) -> np.ndarray:
    """``joint_counts_pmf`` for every row (k1, k2, k3, k4) of the (C, 4)
    array ``counts``, as a length-C array.  All rows share each quadrature
    rule and its Poisson tables; a row's value is the same float a lone
    evaluation of it gives."""
    if not 0.0 < measure <= 1.0:
        raise InvalidParameterError(f"family measure must lie in (0,1], got {measure}")
    counts = np.asarray(counts)
    if counts.ndim != 2 or counts.shape[1] != 4:
        raise InvalidParameterError(f"counts must be a (C, 4) array, got shape {counts.shape}")
    for row in counts.tolist():
        if any(int(c) != c or c < 0 for c in row):
            raise InvalidParameterError(f"counts must be nonnegative integers, got {tuple(row)}")
    family = ((0.0, measure),)
    cells = compile_counts([(w, family, level) for level in (x, y) for w in ("observed", "missed")])
    rows = counts.astype(int).tolist()
    return count_bounds_prob(params, cells, [[(c, c) for c in row] for row in rows])


def void_probability_intervals(params: LimitLawParams, cells) -> float:
    """Probability that every cell is free of exceedances in the limit.
    ``cells`` is an iterable of (measure, x, y): measure of a family, the
    observed-class level and the missed-class level on it.  The families
    are disjoint, so they are laid end to end."""
    cells = [(float(w), float(x), float(y)) for w, x, y in cells]
    if not cells:
        raise InvalidParameterError("need at least one cell")
    total_measure = sum(w for w, _, _ in cells)
    if any(w <= 0.0 for w, _, _ in cells) or total_measure > 1.0 + 1e-12:
        raise InvalidParameterError(
            f"cell measures must be positive with total <= 1, got total {total_measure}")
    ends = np.cumsum([0.0] + [w for w, _, _ in cells]).tolist()
    return _event_prob(params, [(which, ((a, b),), level, 0, 0)
                                for a, b, (_, x, y) in zip(ends, ends[1:], cells)
                                for which, level in (("observed", x), ("missed", y))])


def finite_n_one_factor_prob(n: int, gamma: float, cells: CountCells, counts) -> float:
    """Exact finite-n probability, for the one-factor model with a fixed
    indicator pattern, that no count term of ``cells`` has an exceedance.
    ``counts`` holds each atom's (observed, missed) numbers of indices.

    Conditionally on the shared factor the coordinates are independent,
    and one stays below a level with probability Phi(t) at the
    factor-shifted level t = ``transformed_level``.  So this is the
    band-cell law on the void row, with -log Phi(t) in place of g and the
    class counts in place of lam |atom|, under the unit fraction law: its
    factors telescope to E_z prod Phi(t)^count at each atom's lowest
    level per class.
    """
    n = int(n)
    norming = LevelParams.for_length(n)  # n >= 3
    if gamma < 0.0 or gamma >= math.log(n):
        raise InvalidParameterError(f"need 0 <= gamma < ln n, got gamma={gamma}, n={n}")
    counts = [(int(no), int(nm)) for no, nm in counts]
    if len(counts) != len(cells.atoms):
        raise InvalidParameterError(f"need {len(cells.atoms)} atom counts, got {len(counts)}")
    if any(no < 0 or nm < 0 for no, nm in counts):
        raise InvalidParameterError("cell counts must be nonnegative")
    if sum(no + nm for no, nm in counts) > n:
        raise InvalidParameterError("total cell counts exceed the path length")
    rho, t0 = gamma / math.log(n), -NormalDist().inv_cdf(1.0 / n)
    # caps -log Phi at -inf levels: a class without indices adds 0, not
    # 0 * inf, and n indices at the cap still sum to a finite mean
    cap = np.finfo(float).max / (n + 1)

    def neg_log_phi(g, x, z):
        return np.minimum(-_log_ndtr(transformed_level(n, x, z, g)), cap)

    def step(_, x):
        # n (1 - Phi(t)) = 1 at t0, and falls by e every 1 / t0 past it
        return ((norming.level(x) - math.sqrt(1.0 - rho) * t0) / math.sqrt(rho),
                math.sqrt(1.0 - rho) / (t0 * math.sqrt(rho)))

    weights = {(atom, which): k for atom, pair in enumerate(counts)
               for which, k in zip(("observed", "missed"), pair)}
    void = [(0, 0)] * len(cells.index)
    return float(count_bounds_prob(LimitLawParams(gamma, _UNIT_LAW), cells, [void], weights,
                                   neg_log_phi, step)[0])


def locations_heights_cdf(params: LimitLawParams, s, h):
    """Joint limit law of the scaled argmax locations and the maxima of
    the classes: P(location <= s[c], max <= u_n(h[c]) for every class c).

    ``s`` and ``h`` map classes (observed, missed, all) to locations and
    heights; an absent location is 1 and an absent height +inf.  Given
    (lambda, xi) the locations are uniform and independent of the heights,
    and the overall argmax is that of the class carrying the overall max.
    The law splits on that class: with a = min(h_obs, h_all) and
    b = min(h_miss, h_all) the observed class wins below the heights with
    probability R_obs = lam e^{-g(min(a, b))} + [a > b] (e^{-lam g(a) -
    (1 - lam) g(b)} - e^{-g(b)}), and R_miss is the same with the classes
    swapped.  The locations then contribute min(s_obs, s_all) s_miss and
    s_obs min(s_miss, s_all), outside the quadrature: locations may be
    numpy arrays, broadcast together, from one height integral.
    """
    if not set(s) | set(h) <= set(CLASSES):
        raise InvalidParameterError(f"classes must be among {CLASSES}, got {set(s) | set(h)}")
    s = dict.fromkeys(CLASSES, 1.0) | dict(s)
    h = dict.fromkeys(CLASSES, math.inf) | dict(h)
    if not all(np.all((0.0 < v) & (v <= 1.0)) for v in s.values()):
        raise InvalidParameterError(f"scaled locations must lie in (0,1], got {s}")
    tops = (min(h["observed"], h["all"]), min(h["missed"], h["all"]))

    def integrand(lam, g, rows):
        fracs = (lam, 1.0 - lam)
        for row in rows:  # the race won by the observed (0) or the missed (1) class
            own, other = tops[row], tops[1 - row]
            race = fracs[row] * np.exp(-g(min(tops)))
            if own > other:  # the winner may exceed the loser's height
                joint = np.exp(-fracs[row] * g(own) - fracs[1 - row] * g(other))
                race = race + joint - np.exp(-g(other))
            yield race

    won_obs, won_miss = _mixed_poisson(params, integrand, tops, (2,))
    return _clip_prob(np.minimum(s["observed"], s["all"]) * s["missed"] * won_obs
                      + s["observed"] * np.minimum(s["missed"], s["all"]) * won_miss)
