import math

import numpy as np
import pytest
from scipy import special

from gapextremes.errors import InvalidParameterError
from gapextremes.lambdalaw import LambdaLaw
from reference import complement, lambda_mean


def test_point_validation():
    LambdaLaw.point(0.0)
    LambdaLaw.point(1.0)
    with pytest.raises(InvalidParameterError):
        LambdaLaw.point(1.5)


def test_discrete_validation():
    with pytest.raises(InvalidParameterError):
        LambdaLaw.discrete([0.2, 0.8], [0.5, 0.6])  # weights exceed 1
    with pytest.raises(InvalidParameterError):
        LambdaLaw.discrete([0.2, 1.8], [0.5, 0.5])  # atom outside [0,1]
    law = LambdaLaw.discrete([0.2, 0.8], [0.25, 0.75])
    assert lambda_mean(law) == pytest.approx(0.2 * 0.25 + 0.8 * 0.75)


def test_uniform_beta_validation():
    with pytest.raises(InvalidParameterError):
        LambdaLaw.uniform(0.5, 0.5)
    with pytest.raises(InvalidParameterError):
        LambdaLaw.uniform(-0.1, 0.5)
    with pytest.raises(InvalidParameterError):
        LambdaLaw.beta(0.0, 2.0)


@pytest.mark.parametrize(
    "law,mean",
    [
        (LambdaLaw.point(0.3), 0.3),
        (LambdaLaw.uniform(0.0, 1.0), 0.5),
        (LambdaLaw.uniform(0.2, 0.6), 0.4),
        (LambdaLaw.beta(2.0, 3.0), 0.4),
    ],
)
def test_means(law, mean):
    assert lambda_mean(law) == pytest.approx(mean)


@pytest.mark.parametrize(
    "law",
    [
        LambdaLaw.point(0.3),
        LambdaLaw.discrete([0.1, 0.5, 0.9], [0.2, 0.3, 0.5]),
        LambdaLaw.uniform(0.1, 0.7),
        LambdaLaw.beta(2.0, 5.0),
    ],
)
def test_nodes_integrate_moments(law):
    # Gauss rules with m nodes are exact for polynomials of degree 2m-1,
    # so low moments must match closed forms to machine precision
    lam, w = law.nodes(32)
    assert w.sum() == pytest.approx(1.0, abs=1e-14)
    assert (w > 0).all()
    assert np.dot(w, lam) == pytest.approx(lambda_mean(law), abs=1e-12)
    rng = np.random.default_rng(99)
    draws = law.sample(rng, size=200_000)
    for p in (2, 3):
        exact = float(np.dot(w, lam**p))
        mc = float(np.mean(np.asarray(draws) ** p))
        se = float(np.std(np.asarray(draws) ** p) / np.sqrt(200_000))
        assert abs(mc - exact) < 5 * se + 1e-12


@pytest.mark.parametrize("alpha,beta", [(2.0, 2.0), (2.0, 3.0), (0.5, 0.5), (0.7, 3.5), (3.5, 0.7)])
@pytest.mark.parametrize("m", [1, 2, 3, 64, 512])
def test_beta_nodes_match_scipy_gauss_jacobi(m, alpha, beta):
    lam, w = LambdaLaw.beta(alpha, beta).nodes(m)
    x, ref_w = special.roots_jacobi(m, beta - 1.0, alpha - 1.0)
    ref_lam, ref_w = 0.5 * (x + 1.0), ref_w / ref_w.sum()
    assert lam.shape == w.shape == (m,)
    assert np.max(np.abs(lam - ref_lam)) <= 4e-15
    assert (w > 0).all() and abs(w.sum() - 1.0) <= 1e-14
    # at m = 512 and beta(0.7, 3.5) scipy's own E[exp(-5 u)] is 1e-12 from 1F1(0.7; 4.2; -5)
    for f in (lambda u: np.cos(3.0 * u), lambda u: np.exp(-5.0 * u), np.sqrt):
        assert abs(np.dot(w, f(lam)) - np.dot(ref_w, f(ref_lam))) <= 2e-12


@pytest.mark.filterwarnings("error")  # the 0/0 recurrence terms at alpha + beta = 1 and 2
@pytest.mark.parametrize("alpha,beta", [(0.3, 0.7), (0.5, 1.5), (1.0, 1.0), (0.05, 0.2)])
@pytest.mark.parametrize("m", [1, 2, 3, 64, 512])
def test_beta_nodes_integrate_exact_moments(m, alpha, beta):
    # a rule with m nodes is exact to degree 2m - 1; scipy's roots_jacobi
    # itself strays by up to 1e-8 here at m = 512, so the moments are the
    # reference: E[u^p] = prod_{i<p} (alpha + i) / (alpha + beta + i)
    lam, w = LambdaLaw.beta(alpha, beta).nodes(m)
    assert (w > 0).all() and ((lam > 0) & (lam < 1)).all()
    for p in range(min(2 * m, 8)):
        exact = math.prod((alpha + i) / (alpha + beta + i) for i in range(p))
        assert abs(np.dot(w, lam**p) - exact) <= 1e-12


@pytest.mark.parametrize(
    "law",
    [
        LambdaLaw.point(0.3),
        LambdaLaw.discrete([0.1, 0.9], [0.4, 0.6]),
        LambdaLaw.uniform(0.2, 0.6),
        LambdaLaw.beta(2.0, 5.0),
    ],
)
def test_complement_flips_mean(law):
    comp = complement(law)
    assert lambda_mean(comp) == pytest.approx(1.0 - lambda_mean(law))
    # complement of complement round-trips
    assert lambda_mean(complement(comp)) == pytest.approx(lambda_mean(law))


def test_describe():
    assert LambdaLaw.point(0.5).describe() == "point(0.5)"
    assert LambdaLaw.uniform(0, 1).describe() == "uniform(0,1)"
    assert LambdaLaw.beta(2, 2).describe() == "beta(2,2)"


def test_hashable_for_caching():
    assert hash(LambdaLaw.beta(2, 2)) == hash(LambdaLaw.beta(2, 2))
    d = {LambdaLaw.point(0.5): 1}
    assert d[LambdaLaw.point(0.5)] == 1
