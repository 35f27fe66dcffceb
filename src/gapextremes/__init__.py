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

Names are imported from their modules, ``from gapextremes.harness import
parse_config``; the package root exports none.
"""

__version__ = "0.1.0"
