"""Quadrature rules for the two integrals every limit formula needs:
the standard-normal integral dPhi(z) over the latent factor, and the
expectation over the observed-fraction law.

The z rule is aligned to the steps of the integrand: the limit laws'
integrands fall from 1 to 0 around a centre c over a width w per level.
It is composite Gauss-Legendre on [-Z_EDGE, Z_EDGE] (normal mass
outside: 1.5e-23) over ``PANELS`` uniform panels, cut again at c + j w
for j in ``STEP_OFFSETS`` and every step, with m / PANELS nodes per
panel.  An empty tuple of steps means the integrand does not depend on
z, and the rule has one z node.

Legendre nodes and fraction-law rules are cached per node count.
Reported values go through ``converge``: evaluate at ``DEFAULT_NODES``,
double until two consecutive answers agree to ``CONVERGENCE_TOL``, and
raise after ``MAX_NODES``.  ``converge`` works elementwise on a batch of
independent integrals: each keeps the finer of its own first pair of
answers within the tolerance, so a batch shares one rule per doubling
and every element equals what it would converge to alone.  Each rule
carries the flat indices of the elements still pending in ``rows``, and
the evaluation returns just those.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import QuadratureConvergenceError
from .lambdalaw import LambdaLaw

__all__ = ["QuadratureRule", "rule_for", "converge", "DEFAULT_NODES", "MAX_NODES"]

DEFAULT_NODES = 64
MAX_NODES = 512
CONVERGENCE_TOL = 1e-10

Z_EDGE = 10.0
PANELS = 8
#: breakpoints c + j w of a step: the fall to 0 is doubly exponential
#: above c, the approach to 1 only exponential below it
STEP_OFFSETS = range(-6, 4)


def _frozen(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=None)
def _legendre_nodes(k: int) -> tuple[np.ndarray, np.ndarray]:
    # numpy's rule, as the uniform fraction law's: scipy's first root
    # finder call costs a process about 50 ms
    return _frozen(*np.polynomial.legendre.leggauss(k))


def _stepped_nodes(m: int, steps: tuple) -> tuple[np.ndarray, np.ndarray]:
    """z nodes and normal weights of the step-aligned rule."""
    if not steps:
        return _frozen(np.zeros(1), np.ones(1))
    cuts = np.linspace(-Z_EDGE, Z_EDGE, PANELS + 1).tolist()
    cuts += [c + j * w for c, w in steps for j in STEP_OFFSETS]
    cuts = np.unique(np.clip(cuts, -Z_EDGE, Z_EDGE))
    t, wt = _legendre_nodes(m // PANELS)
    half, mid = np.diff(cuts)[:, None] / 2.0, (cuts[1:] + cuts[:-1])[:, None] / 2.0
    z = (mid + half * t).ravel()
    w = (half * wt).ravel() * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return _frozen(z, w)


@lru_cache(maxsize=None)
def _lam_nodes(law: LambdaLaw, m: int) -> tuple[np.ndarray, np.ndarray]:
    lam, w = law.nodes(m)
    return _frozen(np.asarray(lam, dtype=float), np.asarray(w, dtype=float))


@dataclass(frozen=True)
class QuadratureRule:
    """Tensor rule: E over the fraction law in rows, dPhi(z) in columns.
    ``steps`` are the (centre, width) steps the z nodes are aligned to;
    ``rows`` holds the flat indices of the batch elements still pending
    under ``converge`` (None on a rule built outside it)."""

    n_z: int
    n_lambda: int
    z: np.ndarray = field(repr=False, compare=False)
    z_weights: np.ndarray = field(repr=False, compare=False)
    lam: np.ndarray = field(repr=False, compare=False)
    lam_weights: np.ndarray = field(repr=False, compare=False)
    steps: tuple
    rows: np.ndarray | None = field(default=None, repr=False, compare=False)

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

    def describe(self) -> str:
        """The rule's nodes in its own terms, e.g. for error messages."""
        if self.z.size == 1:
            z = "1 z node"
        else:
            per_panel = self.n_z // PANELS
            z = f"{self.z.size // per_panel} Gauss-Legendre z panels of {per_panel} nodes"
        return f"{z} x {self.lam.size} fraction nodes"


def rule_for(law: LambdaLaw, n_z: int, n_lambda: int, steps: tuple) -> QuadratureRule:
    """The z rule aligned to ``steps``, with ``n_z / PANELS`` nodes per
    panel, times the fraction rule of ``n_lambda`` nodes."""
    z, wz = _stepped_nodes(n_z, steps)
    lam, wl = _lam_nodes(law, n_lambda)
    return QuadratureRule(
        n_z=n_z, n_lambda=n_lambda, z=z, z_weights=wz, lam=lam, lam_weights=wl, steps=steps
    )


def converge(law: LambdaLaw, evaluate, steps: tuple, shape: tuple = ()):
    """Evaluate ``evaluate(rule)`` under node doubling, from
    ``DEFAULT_NODES`` up to ``MAX_NODES``, until stable; ``steps`` are
    handed to ``rule_for``.

    Returns the finer of the first pair of answers within
    ``CONVERGENCE_TOL`` of each other.  A nonempty ``shape`` makes it a
    batch of that many independent integrals: that test runs per element,
    each element keeps its own first stable answer, doubling stops once
    every element has settled, and the result is a float array of that
    shape.  Every rule names the pending elements by their flat indices in
    ``rule.rows`` (all of them on the first rule), and ``evaluate`` returns
    the values of just those.  A scalar ``evaluate`` gives a float.
    Atomic fraction laws only ever escalate the z rule.
    """
    rows = np.arange(math.prod(shape))
    previous, result = np.full(rows.size, np.nan), np.empty(rows.size)
    m = DEFAULT_NODES
    while m <= MAX_NODES:
        rule = dataclasses.replace(rule_for(law, m, m, steps), rows=rows)
        current = np.asarray(evaluate(rule), dtype=float).reshape(rows.size)
        settled = np.abs(current - previous[rows]) < CONVERGENCE_TOL  # none on the first rule
        result[rows[settled]] = current[settled]
        previous[rows] = current
        rows = rows[~settled]
        if not rows.size:
            return result.reshape(shape) if shape else float(result[0])
        m *= 2
    unsettled = f", {rows.size} of {result.size} elements unsettled" if shape else ""
    raise QuadratureConvergenceError(
        f"integral did not stabilize to {CONVERGENCE_TOL:g} by the rule of "
        f"{rule.describe()}{unsettled}"
    )
