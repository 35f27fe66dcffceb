"""Observables of a (path, indicators) pair.

The normalizing levels are the classical Gumbel linearization
u_n(x) = x / a_n + b_n with a_n = sqrt(2 ln n) and
b_n = a_n - (ln ln n + ln 4pi) / (2 a_n), which makes
n * (1 - Phi(u_n(x))) -> exp(-x).

Every function takes the path as an array of n values and the indicators
as an array of n 0/1 or boolean entries, and returns plain numbers.
Counts, order statistics and argmax locations are split into three
classes: ``observed`` (eps_j = 1), ``missed`` (eps_j = 0) and ``all``.
Missing members of a class are represented as -inf order statistics and
absent (None) locations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

__all__ = [
    "CLASSES",
    "LevelParams",
    "IntervalFamily",
    "ExceedanceRecord",
    "level",
    "transformed_level",
    "exceedance_counts",
    "kth_maximum",
    "max_location",
]

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
        return x / self.a_n + self.b_n


def level(n: int, x: float) -> float:
    """u_n(x) = x / a_n + b_n.  Accepts +-inf and maps them through."""
    return LevelParams.for_length(n).level(x)


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

    @property
    def measure(self) -> float:
        return float(sum(d - c for c, d in self.intervals))

    def index_ranges(self, n: int) -> list[tuple[int, int]]:
        """0-based half-open [lo, hi) ranges of member indices."""
        # the tiny nudge keeps floor(n*c) stable when n*c is an integer up
        # to float rounding (e.g. 0.3 * 10)
        return [
            (math.floor(n * c + 1e-9), math.floor(n * d + 1e-9)) for c, d in self.intervals
        ]

    def member_mask(self, n: int) -> np.ndarray:
        mask = np.zeros(n, dtype=bool)
        for lo, hi in self.index_ranges(n):
            mask[lo:hi] = True
        return mask


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
