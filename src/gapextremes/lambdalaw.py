"""Distributions on [0, 1] for the limiting observed fraction.

The same law object is used in two roles: drawing the fraction for
exchangeable missingness simulation, and taking expectations over it in
the closed-form limit evaluators (exact sums for atomic laws, Gauss
quadrature for the continuous ones).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# imported, not reached as np.polynomial: numpy would load it lazily, inside
# the first theory evaluation instead of at start-up
from numpy.polynomial.legendre import leggauss

from .errors import InvalidParameterError

__all__ = ["LambdaLaw"]

_KINDS = ("point", "discrete", "uniform", "beta")


def _beta_rule(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule with ``n`` nodes for the Beta(alpha, beta) law on [0, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of the
    monic Jacobi polynomials with weight (1-x)^a (1+x)^b on [-1, 1], mapped
    by x -> (x+1)/2, where the density u^(alpha-1) (1-u)^(beta-1) needs
    a = beta-1 and b = alpha-1.  Each weight is the reciprocal of the
    Christoffel sum of the squared orthonormal polynomials at its node.
    """
    a, b = beta - 1.0, alpha - 1.0
    s, k = a + b, np.arange(1.0, n)
    c = 2.0 * k + s
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)  # the general form is 0/0 at s = 0
    diag[1:] = (b * b - a * a) / (c * (c + 2.0))
    off = np.empty(n - 1)
    off[:1] = 4.0 * (1.0 + a) * (1.0 + b) / ((s + 2.0) ** 2 * (s + 3.0))  # 0/0 at s = -1
    k, c = k[1:], c[1:]
    off[1:] = 4.0 * k * (k + a) * (k + b) * (k + s) / (c * c * (c + 1.0) * (c - 1.0))
    diag, off = 0.5 * (diag + 1.0), 0.5 * np.sqrt(off)
    u = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    lower = np.concatenate(([0.0], off))
    prev, cur, total = np.zeros(n), np.ones(n), np.ones(n)
    for j in range(n - 1):
        prev, cur = cur, ((u - diag[j]) * cur - lower[j] * prev) / off[j]
        total += cur * cur
    w = 1.0 / total
    return u, w / w.sum()


@dataclass(frozen=True)
class LambdaLaw:
    """Law of a random variable supported on [0, 1].

    Construct through the classmethods; ``params`` holds the raw
    parameters in a hashable form so laws can key caches.
    """

    kind: str
    params: tuple

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown lambda-law kind {self.kind!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def point(cls, p: float) -> "LambdaLaw":
        p = float(p)
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"point mass must lie in [0,1], got {p}")
        return cls("point", (p,))

    @classmethod
    def discrete(cls, values, weights) -> "LambdaLaw":
        values = tuple(float(v) for v in values)
        weights = tuple(float(w) for w in weights)
        if len(values) != len(weights) or not values:
            raise InvalidParameterError("values and weights must be equal-length and nonempty")
        if any(not 0.0 <= v <= 1.0 for v in values):
            raise InvalidParameterError("discrete atoms must lie in [0,1]")
        if any(not w > 0.0 for w in weights):  # NaN too
            raise InvalidParameterError("weights must be positive")
        total = sum(weights)
        if abs(total - 1.0) > 1e-9:
            raise InvalidParameterError(f"weights must sum to 1, got {total}")
        weights = tuple(w / total for w in weights)
        return cls("discrete", (values, weights))

    @classmethod
    def uniform(cls, a: float, b: float) -> "LambdaLaw":
        a, b = float(a), float(b)
        if not 0.0 <= a < b <= 1.0:
            raise InvalidParameterError(f"need 0 <= a < b <= 1, got a={a}, b={b}")
        return cls("uniform", (a, b))

    @classmethod
    def beta(cls, alpha: float, beta: float) -> "LambdaLaw":
        alpha, beta = float(alpha), float(beta)
        if not (0.0 < alpha < math.inf and 0.0 < beta < math.inf):  # NaN too
            raise InvalidParameterError(
                f"beta shape parameters must be positive and finite, got {alpha}, {beta}"
            )
        return cls("beta", (alpha, beta))

    # -- queries -----------------------------------------------------------

    def sample(self, rng: np.random.Generator, size: int | None = None) -> np.ndarray | float:
        if self.kind == "point":
            p = self.params[0]
            return p if size is None else np.full(size, p)
        if self.kind == "discrete":
            values, weights = self.params
            return rng.choice(np.asarray(values), size=size, p=np.asarray(weights))
        if self.kind == "uniform":
            a, b = self.params
            return rng.uniform(a, b, size=size)
        alpha, beta = self.params
        return rng.beta(alpha, beta, size=size)

    def nodes(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Nodes and weights so that E[f] ~= sum(w * f(nodes)).

        Exact for atomic laws regardless of ``n``; Gauss-Legendre /
        Gauss-Jacobi with ``n`` nodes otherwise.  Weights are normalized
        to sum to one.
        """
        if self.kind == "point":
            return np.array([self.params[0]]), np.array([1.0])
        if self.kind == "discrete":
            values, weights = self.params
            return np.asarray(values, dtype=float), np.asarray(weights, dtype=float)
        if self.kind == "uniform":
            a, b = self.params
            t, w = leggauss(n)
            return 0.5 * (b - a) * t + 0.5 * (b + a), w / w.sum()
        return _beta_rule(n, *self.params)

    def describe(self) -> str:
        """Short human/CSV-friendly rendering, e.g. ``point(0.5)``."""
        if self.kind == "point":
            return f"point({self.params[0]:g})"
        if self.kind == "discrete":
            values, weights = self.params
            atoms = ",".join(f"{v:g}:{w:g}" for v, w in zip(values, weights))
            return f"discrete({atoms})"
        if self.kind == "uniform":
            a, b = self.params
            return f"uniform({a:g},{b:g})"
        alpha, beta = self.params
        return f"beta({alpha:g},{beta:g})"
