"""Independent references for the tests, sharing no code with the package's
evaluators and samplers.

``exceedance_counts``, ``kth_maximum`` and ``max_location`` compute the
observables of one (path, indicators) pair one at a time, as plain numbers:
the reference the observable record of ``events.CompiledEvents`` is tested
against.  They take the path as an array of n values and the indicators as
an array of n 0/1 or boolean entries; a class with too few members has -inf
order statistics and an absent (None) location.  ``model_correlation`` is
the exact lag correlation of a Gaussian model and ``complement`` the law of
1 - lambda.

``count_event_hits`` samples the limiting exceedance point processes
themselves.  Given the observed fraction lambda and the factor xi, the
exceedances of each class form a Poisson process of (location, height)
points on (0, 1] with mean frac * g(x) points above level x, where
g(x) = exp(-x - gamma + sqrt(2 gamma) xi) and frac is lambda for the
observed class and 1 - lambda for the missed one.  So above the lowest
level L of an event there are Poisson(frac * g(L)) points per class, at
uniform locations and heights L + Exp(1).  A count term counts the points
of its class inside its intervals above its level; no atoms, bands or
merged variables are formed.

``finite_n_void_prob`` is the exact finite-n void probability of the
one-factor model by ``scipy.integrate.quad``, index by index: given the
factor, each index stays below the lowest level a term counts its class
at.  ``lambda_mean``, ``family_measure``, ``overall_max`` and
``overall_loc`` are the plain quantities the tests compare against.
``finite_n_cells_prob`` is not a reference: it calls the package's
finite-n identity with (n_obs, n_miss, x, y) cells, each laid end to end
as its own atom.

``substream`` is numpy's own seeding route, ``Generator(PCG64(SeedSequence(
[master_seed, replication, label_key(label)])))``, the reference the bulk
state derivation of ``gapextremes.streams`` is tested against.
``per_replication_counts`` runs the experiment engine's replications one at
a time on those streams: row r % k of draw r // k and the indicators of
replication r, k paths per draw.
"""
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from gapextremes import limit_laws
from gapextremes.errors import InvalidParameterError
from gapextremes.events import CompiledEvents
from gapextremes.extremes import CLASSES, IntervalFamily, LevelParams
from gapextremes.gaussian import GaussianModel, sample_path
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.missingness import sample_indicators
from gapextremes.streams import label_key


@dataclass(frozen=True)
class ExceedanceRecord:
    """Joint exceedance counts, shaped (len(levels), len(families))."""

    levels: tuple[float, ...]
    families: tuple[IntervalFamily, ...]
    observed: np.ndarray
    missed: np.ndarray

    @property
    def total(self) -> np.ndarray:
        return self.observed + self.missed


def _class_mask(eps_bool: np.ndarray, which: str) -> np.ndarray | None:
    if which == "observed":
        return eps_bool
    if which == "missed":
        return ~eps_bool
    if which == "all":
        return None
    raise InvalidParameterError(f"unknown class {which!r}; expected one of {CLASSES}")


def exceedance_counts(path, eps, levels, families) -> ExceedanceRecord:
    """Observed/missed exceedance counts for every (level, family) pair.

    ``levels`` are x-arguments, converted internally through u_n.
    """
    values = np.asarray(path, dtype=float)
    eps_bool = np.asarray(eps, dtype=bool)
    n = len(values)
    if len(eps_bool) != n:
        raise InvalidParameterError(
            f"path and indicators disagree in length: {n} vs {len(eps_bool)}"
        )
    levels = tuple(float(x) for x in levels)
    families = tuple(families)
    lp = LevelParams.for_length(n)

    obs = np.zeros((len(levels), len(families)), dtype=np.int64)
    mis = np.zeros_like(obs)
    for i, x in enumerate(levels):
        exceed = values > lp.level(x)
        hit_obs = exceed & eps_bool
        hit_mis = exceed & ~eps_bool
        for j, fam in enumerate(families):
            for lo, hi in fam.index_ranges(n):
                obs[i, j] += int(hit_obs[lo:hi].sum())
                mis[i, j] += int(hit_mis[lo:hi].sum())
    return ExceedanceRecord(levels=levels, families=families, observed=obs, missed=mis)


def kth_maximum(path, eps, which: str, k: int) -> float:
    """k-th largest value of a class, -inf when the class has fewer than
    k members."""
    if k < 1:
        raise InvalidParameterError(f"need k >= 1, got {k}")
    values = np.asarray(path, dtype=float)
    mask = _class_mask(np.asarray(eps, dtype=bool), which)
    cls_values = values if mask is None else values[mask]
    size = len(cls_values)
    if size < k:
        return float("-inf")
    return float(np.partition(cls_values, size - k)[size - k])


def max_location(path, eps, which: str) -> int | None:
    """Smallest 1-based index attaining the class maximum; None if the
    class is empty."""
    values = np.asarray(path, dtype=float)
    mask = _class_mask(np.asarray(eps, dtype=bool), which)
    if mask is None:
        return int(np.argmax(values)) + 1
    if not mask.any():
        return None
    masked = np.where(mask, values, -np.inf)
    return int(np.argmax(masked)) + 1


def count_event_hits(terms, gamma, sample_lambda, reps, seed):
    """Fraction of ``reps`` draws in which every count term holds.

    ``terms`` are (class, intervals, x, op, value) with class observed,
    missed or all and op 'eq' or 'le'; ``sample_lambda(rng, size)`` draws
    the observed fraction.
    """
    rng = np.random.default_rng(seed)
    lam = sample_lambda(rng, reps)
    xi = rng.standard_normal(reps)
    floor = min(x for _, _, x, _, _ in terms)
    mean_above_floor = np.exp(-floor - gamma + math.sqrt(2.0 * gamma) * xi)
    points = {}
    for which, frac in (("observed", lam), ("missed", 1.0 - lam)):
        owner = np.repeat(np.arange(reps), rng.poisson(frac * mean_above_floor))
        location = 1.0 - rng.uniform(size=owner.size)  # uniform on (0, 1]
        height = floor + rng.exponential(size=owner.size)
        points[which] = owner, location, height
    holds = np.ones(reps, dtype=bool)
    for which, intervals, x, op, value in terms:
        count = np.zeros(reps, dtype=np.int64)
        for member in (("observed", "missed") if which == "all" else (which,)):
            owner, location, height = points[member]
            inside = np.zeros(owner.size, dtype=bool)
            for c, d in intervals:
                inside |= (c < location) & (location <= d)
            count += np.bincount(owner[inside & (height > x)], minlength=reps)
        holds &= (count == value) if op == "eq" else (count <= value)
    return float(holds.mean())


def assert_within_sigma(p_hat, theory, reps, sigma=4.0):
    """|p_hat - theory| within ``sigma`` binomial standard errors of theory."""
    se = math.sqrt(theory * (1.0 - theory) / reps)
    assert abs(p_hat - theory) <= sigma * se, (p_hat, theory, se)


def normal_hermite_rule(m):
    """Gauss-Hermite nodes and weights of m points for the standard-normal
    weight: z = sqrt(2) t, weights normalized to sum to one."""
    t, w = special.roots_hermite(m)
    return math.sqrt(2.0) * t, w / w.sum()


def model_correlation(model: GaussianModel, k: int) -> float:
    """Exact model covariance at lag ``k`` (unit variance at lag 0)."""
    k = int(k)
    if not 0 <= k < model.n:
        raise InvalidParameterError(f"lag must satisfy 0 <= k < n={model.n}, got {k}")
    if k == 0:
        return 1.0
    if model.spec.family == "one_factor":
        return model.rho_n
    return model.spec.gamma / math.log(k + model.spec.shift)


def complement(law: LambdaLaw) -> LambdaLaw:
    """Law of 1 - X when X follows ``law``."""
    if law.kind == "point":
        return LambdaLaw.point(1.0 - law.params[0])
    if law.kind == "discrete":
        values, weights = law.params
        return LambdaLaw.discrete([1.0 - v for v in values], weights)
    if law.kind == "uniform":
        a, b = law.params
        return LambdaLaw.uniform(1.0 - b, 1.0 - a)
    alpha, beta = law.params
    return LambdaLaw.beta(beta, alpha)


def lambda_mean(law: LambdaLaw) -> float:
    """Mean of the fraction law."""
    if law.kind == "point":
        return law.params[0]
    if law.kind == "discrete":
        values, weights = law.params
        return float(np.dot(values, weights))
    a, b = law.params
    return 0.5 * (a + b) if law.kind == "uniform" else a / (a + b)


def family_measure(family: IntervalFamily) -> float:
    """Total length of the intervals of a family."""
    return float(sum(d - c for c, d in family.intervals))


def overall_max(draws) -> np.ndarray:
    """Overall maximum of the limit's (observed_max, missed_max,
    observed_loc, missed_loc) draws."""
    observed_max, missed_max, _, _ = draws
    return np.maximum(observed_max, missed_max)


def overall_loc(draws) -> np.ndarray:
    """Overall argmax location of the same draws: that of the class
    carrying the larger maximum."""
    observed_max, missed_max, observed_loc, missed_loc = draws
    return np.where(observed_max >= missed_max, observed_loc, missed_loc)


def finite_n_cells_prob(n, gamma, cells):
    """``limit_laws.finite_n_one_factor_prob`` of (n_obs, n_miss, x, y)
    cells: cell i is the atom (i / m, (i + 1) / m] of m cells, its observed
    class counted at x and its missed class at y."""
    cells = list(cells)
    ends = np.linspace(0.0, 1.0, len(cells) + 1).tolist()
    terms = [(which, ((a, b),), level) for a, b, (_, _, x, y) in zip(ends, ends[1:], cells)
             for which, level in (("observed", x), ("missed", y))]
    return limit_laws.finite_n_one_factor_prob(
        n, gamma, limit_laws.compile_counts(terms), [cell[:2] for cell in cells])


def finite_n_void_prob(n, gamma, pattern, terms):
    """P(no term has an exceedance) for the one-factor model of length n
    with indicator ``pattern``; ``terms`` are (class, intervals, x).  Given
    the factor z the values are independent, and index i stays below its
    lowest level x_i with probability Phi(t(x_i, z)),
    t(x, z) = (u_n(x) - sqrt(rho) z) / sqrt(1 - rho), rho = gamma / ln n.
    So the value is E_z prod_x Phi(t(x, z))^k_x, k_x indices at level x."""
    pattern = np.asarray(pattern, dtype=bool)
    lowest = np.full(n, math.inf)
    for which, intervals, x in terms:
        member = np.zeros(n, dtype=bool)
        for lo, hi in IntervalFamily.of(*intervals).index_ranges(n):
            member[lo:hi] = True
        if which != "all":
            member &= pattern if which == "observed" else ~pattern
        lowest[member] = np.minimum(lowest[member], x)
    levels, k = np.unique(lowest[lowest < math.inf], return_counts=True)
    if levels.size and levels[0] == -math.inf:
        return 0.0
    lp, rho = LevelParams.for_length(n), gamma / math.log(n)
    u = levels / lp.a_n + lp.b_n

    def fn(z):
        t = (u - math.sqrt(rho) * z) / math.sqrt(1.0 - rho)
        return math.exp(float(np.dot(k, special.log_ndtr(t))))

    # each factor falls from 1 to 0 where n (1 - Phi(t)) crosses 1
    t0 = -special.ndtri(1.0 / n)
    steps = [] if gamma == 0.0 else sorted((u - math.sqrt(1.0 - rho) * t0) / math.sqrt(rho))
    cuts = [-math.inf, *steps, math.inf]
    total = sum(
        integrate.quad(lambda z: fn(z) * math.exp(-0.5 * z * z), a, b, epsabs=1e-14,
                       epsrel=1e-13, limit=200)[0]
        for a, b in zip(cuts, cuts[1:]))
    return total / math.sqrt(2.0 * math.pi)


def substream(master_seed, replication, label):
    """numpy's generator for the entropy [master_seed, replication,
    label_key(label)]."""
    entropy = np.random.SeedSequence([master_seed, replication, label_key(label)])
    return np.random.Generator(np.random.PCG64(entropy))


def per_replication_counts(config, lo, hi):
    """Event hit counts of replications lo..hi-1 of an experiment config, one
    replication at a time on ``substream`` streams."""
    model = config.build_model()
    k = model.spec.paths_per_draw
    compiled = CompiledEvents(config.events, config.n)
    counts = np.zeros(len(config.events), dtype=np.int64)
    for r in range(lo, hi):
        path = sample_path(model, substream(config.master_seed, r // k, "path"))[r % k]
        eps = sample_indicators(config.missingness, config.n,
                                substream(config.master_seed, r, "indicators"))
        counts += compiled(path, eps)
    return counts
