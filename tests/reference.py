"""Independent references for the tests, sharing no code with the package's
evaluators.

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
"""
import math

import numpy as np


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
