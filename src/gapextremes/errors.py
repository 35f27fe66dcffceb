"""Exception types shared across the package."""


class GapExtremesError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(GapExtremesError, ValueError):
    """A model or evaluator argument violates its precondition."""


class NonEmbeddableCovarianceError(GapExtremesError, ValueError):
    """The circulant embedding of the requested covariance has an eigenvalue
    below -tol_clip, so the field cannot be sampled at this size without
    distorting the correlation structure."""


class QuadratureConvergenceError(GapExtremesError, ArithmeticError):
    """Successive node-count doublings kept changing the integral by more
    than the tolerance before the node budget was exhausted, or a fraction
    law has no finite Gauss rule."""


class ConfigError(GapExtremesError, ValueError):
    """An experiment configuration document failed validation."""
