"""Levels and interval families of a length-n path.

The normalizing levels are the classical Gumbel linearization
u_n(x) = x / a_n + b_n with a_n = sqrt(2 ln n) and
b_n = a_n - (ln ln n + ln 4pi) / (2 a_n), which makes
n * (1 - Phi(u_n(x))) -> exp(-x).

Observables are split into three classes: ``observed`` (eps_j = 1),
``missed`` (eps_j = 0) and ``all``.  An interval family picks the indices
of a path that fall in a union of subintervals of (0, 1].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameterError

__all__ = ["CLASSES", "LevelParams", "IntervalFamily", "transformed_level"]

CLASSES = ("observed", "missed", "all")


@dataclass(frozen=True)
class LevelParams:
    """Norming constants of a path length."""

    n: int
    a_n: float
    b_n: float

    @classmethod
    def for_length(cls, n: int) -> "LevelParams":
        n = int(n)
        if n < 3:
            raise InvalidParameterError(f"levels need n >= 3, got {n}")
        a = math.sqrt(2.0 * math.log(n))
        b = a - (math.log(math.log(n)) + math.log(4.0 * math.pi)) / (2.0 * a)
        return cls(n=n, a_n=a, b_n=b)

    def level(self, x: float) -> float:
        """u_n(x) = x / a_n + b_n.  Accepts +-inf and maps them through."""
        return x / self.a_n + self.b_n


def transformed_level(n: int, x: float, z, gamma: float):
    """Level seen by the independent comparison coordinates of the
    one-factor model given factor value ``z``:
    (u_n(x) - sqrt(rho_n) z) / sqrt(1 - rho_n) with rho_n = gamma / ln n.
    ``z`` may be an array of factor values; the result is then an array of
    its shape.
    """
    if gamma < 0.0:
        raise InvalidParameterError(f"gamma must be >= 0, got {gamma}")
    lp = LevelParams.for_length(n)
    if gamma >= math.log(n):
        raise InvalidParameterError(
            f"need gamma < ln n ({math.log(n):.6g}), got {gamma}"
        )
    rho = gamma / math.log(n)
    return (lp.level(x) - math.sqrt(rho) * z) / math.sqrt(1.0 - rho)


#: 1e-9 as the ratio of integers its float equals
_NUDGE = (1e-9).as_integer_ratio()


def _index_floor(n: int, c: float) -> int:
    """floor(n c + 1e-9), exact in integers: beyond n = 2^53 the float
    product would round off the last indices.  The tiny nudge keeps the
    floor stable when n c is an integer up to float rounding (0.3 * 10)."""
    (p, q), (a, b) = c.as_integer_ratio(), _NUDGE
    return (n * p * b + a * q) // (q * b)


@dataclass(frozen=True)
class IntervalFamily:
    """Finite disjoint union of half-open subintervals of (0, 1].

    Index j of a length-n path belongs to (c, d] iff
    floor(n c) < j <= floor(n d)  (1-based j).
    """

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.intervals:
            raise InvalidParameterError("interval family must be nonempty")
        prev_d = 0.0
        for c, d in self.intervals:
            if not (0.0 <= c < d <= 1.0):
                raise InvalidParameterError(f"bad interval ({c}, {d}]")
            if c < prev_d:
                raise InvalidParameterError("intervals must be disjoint and sorted")
            prev_d = d

    @classmethod
    def of(cls, *intervals) -> "IntervalFamily":
        return cls(tuple((float(c), float(d)) for c, d in intervals))

    @classmethod
    def unit(cls) -> "IntervalFamily":
        return cls(((0.0, 1.0),))

    def index_ranges(self, n: int) -> list[tuple[int, int]]:
        """0-based half-open [lo, hi) ranges of member indices."""
        return [(_index_floor(n, c), _index_floor(n, d)) for c, d in self.intervals]
