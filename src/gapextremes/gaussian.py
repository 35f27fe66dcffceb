"""Samplers for length-n standard Gaussian paths.

Two stationary families, both with unit marginal variance:

* ``one_factor`` — Y_j = sqrt(1-rho_n) Z_j + sqrt(rho_n) xi with a shared
  standard-normal factor xi and rho_n = gamma / ln n.  Conditional on xi
  the coordinates are independent, so finite-n event probabilities reduce
  to one-dimensional integrals; this makes it the reference family for
  exact verification.  At gamma = 0 the coordinates are independent, the
  model a config spells ``iid``.
* ``log_decay`` — genuine stationary covariance r_k = gamma / ln(k + shift),
  whose lag-k correlation times ln k tends to gamma.  Sampled exactly by
  circulant embedding (FFT) when the embedding is positive semidefinite.
  One transform of complex noise yields two independent paths with the
  target covariance, its real and its imaginary part (Wood & Chan 1994;
  Dietrich & Newsam 1997).

``sample_path`` returns the paths one stream yields, a float64 array of
shape (paths_per_draw, n): one path for one_factor, two for log_decay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NonEmbeddableCovarianceError
from .extremes import MIN_N

__all__ = [
    "FAMILIES",
    "CovarianceSpec",
    "GaussianModel",
    "MAX_N",
    "build_model",
    "sample_path",
]

FAMILIES = ("one_factor", "log_decay")

#: relative tolerance for clipping round-off negatives in the embedding spectrum
SPECTRUM_CLIP_REL = 1e-8

#: The largest n a model is built for: the log_decay embedding's noise,
#: 2m < 8n float64 values, and a one-row block of the engine then fit
#: numpy's largest array.
MAX_N = np.iinfo(np.intp).max // 64


@dataclass(frozen=True)
class CovarianceSpec:
    """Covariance family and its limiting dependence parameter.

    ``gamma`` is the limit of r_k * ln k; ``shift`` enters only the
    log_decay family, whose lag-k correlation is gamma / ln(k + shift).
    """

    family: str
    gamma: float = 0.0
    shift: float = math.e

    @property
    def paths_per_draw(self) -> int:
        """Paths one call of ``sample_path`` returns: the two halves of a
        circulant transform for log_decay, else one."""
        return 2 if self.family == "log_decay" else 1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown family {self.family!r}")
        if not np.isfinite(self.gamma) or self.gamma < 0.0:
            raise InvalidParameterError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.family == "log_decay" and not -1.0 < self.shift < math.inf:  # NaN too
            raise InvalidParameterError(
                "log_decay shift must be finite and exceed -1 so ln(k + shift) is defined "
                f"at every lag k >= 1, got {self.shift}"
            )

    def check(self, n: int) -> None:
        """Refuse a path length n by every check that needs no array:
        InvalidParameterError for n below MIN_N, gamma >= ln n for one_factor,
        or a log_decay lag correlation that is not finite or of modulus >= 1."""
        if n < MIN_N:
            raise InvalidParameterError(f"{self.family} requires n >= {MIN_N}, got {n}")
        if self.family == "one_factor":
            if self.gamma >= math.log(n):
                raise InvalidParameterError(
                    f"one_factor requires gamma < ln n ({math.log(n):.6g}), got {self.gamma}"
                )
            return
        # shift > -1, so ln(k + shift) rises with k and is positive from k = 2
        # on: |r_k| peaks at lag 1 or lag 2, and those two lags decide all
        for k in (1, 2):
            r = _log_decay_correlation(self.gamma, self.shift, k)
            if not abs(r) < 1.0:  # NaN too
                raise InvalidParameterError(
                    f"log_decay correlation at lag {k} is {r:.6g}; |r_k| < 1 required "
                    f"(gamma={self.gamma}, shift={self.shift})"
                )

    def rho_n(self, n: int) -> float:
        """The one_factor correlation gamma / ln n at path length n, after
        ``check(n)``: the sampler's and the exact finite-n law's alike."""
        self.check(n)
        return self.gamma / math.log(n)


@dataclass(frozen=True)
class GaussianModel:
    """A sampler specification for a fixed path length ``n``.

    For log_decay, ``scale`` holds sqrt(max(spectrum, 0) / m) of the size-m
    circulant embedding: the factor applied to the complex noise.
    """

    n: int
    spec: CovarianceSpec
    rho_n: float = 0.0
    scale: np.ndarray | None = field(default=None, repr=False, compare=False)


def _log_decay_correlation(gamma: float, shift: float, k) -> np.ndarray:
    # ln(k + shift) = 0 gives an infinite or NaN r_k, which CovarianceSpec.check refuses
    with np.errstate(divide="ignore", invalid="ignore"):
        return gamma / np.log(np.asarray(k, dtype=float) + shift)


def build_model(n: int, spec: CovarianceSpec) -> GaussianModel:
    """Check (n, spec) and precompute whatever sampling needs.

    For log_decay this builds and spectrally validates the circulant
    embedding of the covariance over the next power of two >= 2n.  Raises
    what ``spec.check(n)`` raises; MemoryError for n above MAX_N, before
    anything is allocated; NonEmbeddableCovarianceError when the embedding
    spectrum has an entry below -tol_clip or not finite.
    """
    n = int(n)
    spec.check(n)
    if n > MAX_N:
        raise MemoryError(f"n = {n} exceeds {MAX_N}, beyond numpy's largest array")
    if spec.family == "one_factor":
        return GaussianModel(n=n, spec=spec, rho_n=spec.rho_n(n))

    # log_decay: the circulant embedding must be (numerically) psd
    m = 1 << (2 * n - 1).bit_length()
    row = np.empty(m)
    row[0] = 1.0
    circ_lags = np.minimum(np.arange(1, m), m - np.arange(1, m))
    row[1:] = _log_decay_correlation(spec.gamma, spec.shift, circ_lags)
    spectrum = np.fft.fft(row).real
    tol_clip = SPECTRUM_CLIP_REL * spectrum.max()
    if not spectrum.min() >= -tol_clip:  # NaN too
        raise NonEmbeddableCovarianceError(
            f"embedding spectrum reaches {spectrum.min():.3e} < -{tol_clip:.3e} at "
            f"size {m}; r_k = {spec.gamma:g}/ln(k+{spec.shift:g}) is not embeddable for n={n}"
        )
    scale = np.sqrt(np.maximum(spectrum, 0.0) / m)
    scale.setflags(write=False)
    return GaussianModel(n=n, spec=spec, scale=scale)


def sample_path(model: GaussianModel, stream: np.random.Generator) -> np.ndarray:
    """Draw the paths one stream yields: a float64 array of shape
    (model.spec.paths_per_draw, n).

    The draw order per call is fixed, so identical (model, stream state)
    yields bit-identical paths:

    * one_factor — n standard normals Z, then the factor xi (one row);
    * log_decay — 2m standard normals read as m interleaved (real,
      imaginary) pairs of circulant noise, m the embedding size; the real
      and imaginary parts of its transform are the two rows.
    """
    n = model.n
    if model.spec.family == "one_factor":
        values = math.sqrt(1.0 - model.rho_n) * stream.standard_normal((1, n))
        values += math.sqrt(model.rho_n) * stream.standard_normal()
        return values
    # log_decay: complex white noise shaped by the embedding spectrum; both
    # parts of the length-m transform carry the target covariance and are
    # independent of each other.
    scale = model.scale
    noise = stream.standard_normal(2 * len(scale)).view(np.complex128)
    noise *= scale
    y = np.fft.fft(noise)
    return np.stack((y.real[:n], y.imag[:n]))

