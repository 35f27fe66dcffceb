"""Quadrature rules for the two integrals every limit formula needs:
the standard-normal integral dPhi(z) over the latent factor, and the
expectation over the observed-fraction law.

Rules are cached per (law, node count).  Reported values go through
``converge``: evaluate at ``DEFAULT_NODES``, double until two consecutive
answers agree to ``CONVERGENCE_TOL``, and raise after ``MAX_NODES``.
``converge`` works elementwise: an evaluation may return an array of
independent integrals, each of which keeps the finer of its own first
pair of answers within the tolerance, so a batch shares one rule per
doubling and every element equals what it would converge to alone.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import special

from .errors import QuadratureConvergenceError
from .lambdalaw import LambdaLaw

__all__ = ["QuadratureRule", "rule_for", "converge", "DEFAULT_NODES", "MAX_NODES"]

DEFAULT_NODES = 64
MAX_NODES = 512
CONVERGENCE_TOL = 1e-10


@lru_cache(maxsize=None)
def _phi_nodes(m: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Hermite adapted to the standard-normal weight: z = sqrt(2) t,
    # weights normalized to sum to one (so integrating 1 is exact).
    t, w = special.roots_hermite(m)
    z = np.sqrt(2.0) * t
    w = w / w.sum()
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


@lru_cache(maxsize=None)
def _lam_nodes(law: LambdaLaw, m: int) -> tuple[np.ndarray, np.ndarray]:
    lam, w = law.nodes(m)
    lam = np.asarray(lam, dtype=float)
    w = np.asarray(w, dtype=float)
    lam.setflags(write=False)
    w.setflags(write=False)
    return lam, w


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor rule: E over the fraction law in rows, dPhi(z) in columns."""

    n_z: int
    n_lambda: int
    z: np.ndarray = field(repr=False, compare=False)
    z_weights: np.ndarray = field(repr=False, compare=False)
    lam: np.ndarray = field(repr=False, compare=False)
    lam_weights: np.ndarray = field(repr=False, compare=False)

    @property
    def lam_col(self) -> np.ndarray:
        """Fraction nodes as a column, for broadcasting against z rows."""
        return self.lam[:, None]

    def expect(self, values: np.ndarray) -> float:
        """Contract a (n_lambda, n_z) or (n_z,) array of integrand values."""
        values = np.asarray(values)
        if values.ndim == 1:
            return float(self.z_weights @ values)
        return float(self.lam_weights @ values @ self.z_weights)


def rule_for(
    law: LambdaLaw, n_z: int = DEFAULT_NODES, n_lambda: int = DEFAULT_NODES
) -> QuadratureRule:
    z, wz = _phi_nodes(n_z)
    lam, wl = _lam_nodes(law, n_lambda)
    return QuadratureRule(
        n_z=n_z, n_lambda=n_lambda, z=z, z_weights=wz, lam=lam, lam_weights=wl
    )


def converge(law: LambdaLaw, evaluate):
    """Evaluate ``evaluate(rule)`` under node doubling, from
    ``DEFAULT_NODES`` up to ``MAX_NODES``, until stable.

    Returns the finer of the first pair of answers within
    ``CONVERGENCE_TOL`` of each other.  When ``evaluate`` returns an
    array, that test runs per element: each element keeps its own first
    stable answer, doubling stops once every element has settled, and the
    result is a float array of the same shape.  A scalar ``evaluate`` gives
    a float.  Atomic fraction laws only ever escalate the z rule.
    """
    m = DEFAULT_NODES
    previous = evaluate(rule_for(law, m, m))
    result = np.array(previous, dtype=float)
    pending = np.ones(result.shape, dtype=bool)
    while m < MAX_NODES:
        m *= 2
        current = np.asarray(evaluate(rule_for(law, m, m)), dtype=float)
        settled = pending & (np.abs(current - previous) < CONVERGENCE_TOL)
        result[settled] = current[settled]
        pending &= ~settled
        if not pending.any():
            return result if result.ndim else float(result)
        previous = current
    unsettled = f"{np.count_nonzero(pending)} of {pending.size} elements " if pending.ndim else ""
    raise QuadratureConvergenceError(
        f"integral did not stabilize to {CONVERGENCE_TOL:g} within {MAX_NODES} nodes "
        f"({unsettled}unsettled at {m} nodes)"
    )
