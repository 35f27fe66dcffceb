import numpy as np
import pytest

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
