"""Samplers for length-n standard Gaussian paths.

Three stationary families, all with unit marginal variance:

* ``iid`` — independent coordinates.
* ``one_factor`` — Y_j = sqrt(1-rho_n) Z_j + sqrt(rho_n) xi with a shared
  standard-normal factor xi and rho_n = gamma / ln n.  Conditional on xi
  the coordinates are independent, so finite-n event probabilities reduce
  to one-dimensional integrals; this makes it the reference family for
  exact verification.
* ``log_decay`` — genuine stationary covariance r_k = gamma / ln(k + shift),
  whose lag-k correlation times ln k tends to gamma.  Sampled exactly by
  circulant embedding (FFT) when the embedding is positive semidefinite.
  One transform of complex noise yields two independent paths with the
  target covariance, its real and its imaginary part (Wood & Chan 1994;
  Dietrich & Newsam 1997).

``sample_path`` returns the paths one stream yields, a float64 array of
shape (paths_per_draw, n): one path for iid and one_factor, two for
log_decay.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, NonEmbeddableCovarianceError

__all__ = [
    "FAMILIES",
    "CovarianceSpec",
    "GaussianModel",
    "build_model",
    "sample_path",
    "model_correlation",
]

FAMILIES = ("iid", "one_factor", "log_decay")

#: relative tolerance for clipping round-off negatives in the embedding spectrum
SPECTRUM_CLIP_REL = 1e-8


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
        if self.family == "iid" and self.gamma != 0.0:
            raise InvalidParameterError("iid family requires gamma = 0")
        if self.family == "log_decay" and not 1.0 - math.e < self.shift < math.inf:  # NaN too
            raise InvalidParameterError(
                "log_decay shift must be finite and exceed 1 - e so ln(k + shift) is defined, "
                f"got {self.shift}"
            )


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

    @property
    def paths_per_draw(self) -> int:
        return self.spec.paths_per_draw


def _log_decay_correlation(gamma: float, shift: float, k) -> np.ndarray:
    return gamma / np.log(np.asarray(k, dtype=float) + shift)


def build_model(n: int, spec: CovarianceSpec) -> GaussianModel:
    """Validate parameters and precompute whatever sampling needs.

    For log_decay this builds and spectrally validates the circulant
    embedding of the covariance over the next power of two >= 2n.

    Raises
    ------
    InvalidParameterError
        n too small, gamma >= ln n for one_factor, or a log_decay lag
        correlation with modulus >= 1.
    NonEmbeddableCovarianceError
        The embedding spectrum has an entry below -tol_clip.
    """
    n = int(n)
    if spec.family == "one_factor":
        if n < 3:
            raise InvalidParameterError(f"one_factor requires n >= 3, got {n}")
        if spec.gamma >= math.log(n):
            raise InvalidParameterError(
                f"one_factor requires gamma < ln n ({math.log(n):.6g}), got {spec.gamma}"
            )
        return GaussianModel(n=n, spec=spec, rho_n=spec.gamma / math.log(n))

    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    if spec.family == "iid":
        return GaussianModel(n=n, spec=spec)

    # log_decay: the lag correlations themselves must be valid ...
    lags = np.arange(1, n)
    r = _log_decay_correlation(spec.gamma, spec.shift, lags)
    bad = np.abs(r) >= 1.0
    if bad.any():
        k = int(lags[bad][0])
        raise InvalidParameterError(
            f"log_decay correlation at lag {k} is {r[bad][0]:.6g}; |r_k| < 1 required "
            f"(gamma={spec.gamma}, shift={spec.shift})"
        )
    # ... and the circulant embedding must be (numerically) psd.
    m = 1 << (2 * n - 1).bit_length()
    row = np.empty(m)
    row[0] = 1.0
    circ_lags = np.minimum(np.arange(1, m), m - np.arange(1, m))
    row[1:] = _log_decay_correlation(spec.gamma, spec.shift, circ_lags)
    spectrum = np.fft.fft(row).real
    tol_clip = SPECTRUM_CLIP_REL * spectrum.max()
    if spectrum.min() < -tol_clip:
        raise NonEmbeddableCovarianceError(
            f"embedding spectrum reaches {spectrum.min():.3e} < -{tol_clip:.3e} at "
            f"size {m}; r_k = {spec.gamma:g}/ln(k+{spec.shift:g}) is not embeddable for n={n}"
        )
    scale = np.sqrt(np.maximum(spectrum, 0.0) / m)
    scale.setflags(write=False)
    return GaussianModel(n=n, spec=spec, scale=scale)


def sample_path(model: GaussianModel, stream: np.random.Generator) -> np.ndarray:
    """Draw the paths one stream yields: a float64 array of shape
    (model.paths_per_draw, n).

    The draw order per call is fixed, so identical (model, stream state)
    yields bit-identical paths:

    * iid — n standard normals, the path itself (one row);
    * one_factor — n standard normals Z, then the factor xi (one row);
    * log_decay — 2m standard normals read as m interleaved (real,
      imaginary) pairs of circulant noise, m the embedding size; the real
      and imaginary parts of its transform are the two rows.
    """
    n = model.n
    family = model.spec.family
    if family == "iid":
        return stream.standard_normal((1, n))
    if family == "one_factor":
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


def model_correlation(model: GaussianModel, k: int) -> float:
    """Exact model covariance at lag ``k`` (unit variance at lag 0)."""
    k = int(k)
    if not 0 <= k < model.n:
        raise InvalidParameterError(f"lag must satisfy 0 <= k < n={model.n}, got {k}")
    if k == 0:
        return 1.0
    if model.spec.family == "iid":
        return 0.0
    if model.spec.family == "one_factor":
        return model.rho_n
    return float(_log_decay_correlation(model.spec.gamma, model.spec.shift, k))
