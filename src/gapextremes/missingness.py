"""Observation-indicator models.

Each model produces an indicator vector eps of length n, a boolean array
with True meaning observed, whose observed fraction S_n / n converges (in
probability) to a possibly random limit:

* ``exchangeable`` — draw the fraction once per replication from a
  LambdaLaw, then conditionally iid Bernoulli; random limit.  Under a
  point law LambdaLaw.point(p) the indicators are iid Bernoulli(p), the
  model a config spells ``iid_bernoulli``.
* ``periodic`` — a deterministic 0/1 word tiled to length n; constant
  limit equal to the word's density.

Indicators are sampled from their own stream, independent of whatever
stream drives the Gaussian path.  Per call, ``exchangeable`` draws its
fraction first (a point law draws nothing) and then n uniforms, and
``periodic`` draws nothing.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError
from .lambdalaw import LambdaLaw

__all__ = ["MissingnessModel", "sample_indicators"]

_KINDS = ("exchangeable", "periodic")


@dataclass(frozen=True)
class MissingnessModel:
    kind: str
    lambda_law: LambdaLaw | None = None
    pattern: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise InvalidParameterError(f"unknown missingness kind {self.kind!r}")
        if self.kind == "exchangeable":
            if self.lambda_law is None:
                raise InvalidParameterError("exchangeable requires a lambda law")
        else:
            if not self.pattern:
                raise InvalidParameterError("periodic pattern must be nonempty")
            if any(b not in (0, 1) for b in self.pattern):
                raise InvalidParameterError("periodic pattern must be a 0/1 word")

    @classmethod
    def iid_bernoulli(cls, p: float) -> "MissingnessModel":
        """iid Bernoulli(p) indicators: exchangeable under the point law p."""
        return cls.exchangeable(LambdaLaw.point(p))

    @classmethod
    def exchangeable(cls, law: LambdaLaw) -> "MissingnessModel":
        return cls("exchangeable", lambda_law=law)

    @classmethod
    def periodic(cls, pattern) -> "MissingnessModel":
        word = tuple(int(b) for b in pattern)
        return cls("periodic", pattern=word)

    def limit_law(self) -> LambdaLaw:
        """Law of the limiting observed fraction implied by the model."""
        if self.kind == "periodic":
            return LambdaLaw.point(sum(self.pattern) / len(self.pattern))
        return self.lambda_law


def fixed_pattern(model: MissingnessModel, n: int) -> np.ndarray:
    """The deterministic eps of a periodic model, tiled to length n, as a
    bool array."""
    if model.kind != "periodic":
        raise InvalidParameterError("fixed_pattern is defined for periodic models only")
    word = np.asarray(model.pattern, dtype=bool)
    reps = -(-n // len(word))
    return np.tile(word, reps)[:n]


def sample_indicators(
    model: MissingnessModel, n: int, stream: np.random.Generator
) -> np.ndarray:
    """Draw eps_1..eps_n from the model: a bool array of shape (n,), True
    meaning observed."""
    n = int(n)
    if n < 1:
        raise InvalidParameterError(f"need n >= 1, got {n}")
    if model.kind == "periodic":
        return fixed_pattern(model, n)
    lam = float(model.lambda_law.sample(stream))  # a point law draws nothing
    return stream.random(n) < lam
