"""Extreme-value simulation and limit-law verification for stationary
Gaussian sequences with randomly missing observations.

The package has three layers:

* simulators — Gaussian paths (``gaussian``), observation indicators
  (``missingness``) and path observables (``extremes``);
* closed-form limit laws evaluated by quadrature (``limit_laws``) with an
  independent brute-force sampler of the limiting objects
  (``limit_oracle``);
* a reproducible experiment harness and CLI (``harness``, ``cli``) that
  pits the simulators against the formulas.
"""

from .errors import (
    ConfigError,
    GapExtremesError,
    InvalidParameterError,
    NonEmbeddableCovarianceError,
    QuadratureConvergenceError,
)
from .extremes import (
    IntervalFamily,
    LevelParams,
    exceedance_counts,
    kth_maximum,
    level,
    max_location,
    transformed_level,
)
from .gaussian import (
    CovarianceSpec,
    GaussianModel,
    build_model,
    model_correlation,
    sample_path,
)
from .lambdalaw import LambdaLaw
from .limit_laws import (
    LimitLawParams,
    finite_n_one_factor_prob,
    g_intensity,
    joint_counts_pmf,
    joint_counts_pmf_batch,
    joint_maxima_cdf,
    locations_cdf,
    locations_heights_cdf,
    order_stats_obs_missed_cdf,
    order_stats_vs_all_cdf,
    void_probability_intervals,
)
from .limit_oracle import (
    LimitSample,
    sample_cell_counts,
    sample_limit_counts,
    sample_limit_maxima_locations,
)
from .missingness import MissingnessModel, sample_indicators
from .harness import (
    ComparisonReport,
    EstimateRecord,
    ExperimentConfig,
    compare_estimates,
    parse_config,
    run_experiment,
)
from .streams import substream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
