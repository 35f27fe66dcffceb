import numpy as np
import pytest
from scipy import stats

from gapextremes.errors import InvalidParameterError
from gapextremes.harness import parse_config
from gapextremes.lambdalaw import LambdaLaw
from gapextremes.missingness import (
    MissingnessModel,
    fixed_pattern,
    sample_indicators,
)
from gapextremes.streams import substream, substreams


def test_all_observed():
    model = MissingnessModel.iid_bernoulli(1.0)
    out = sample_indicators(model, 5, np.random.default_rng(0))
    assert out.tolist() == [1, 1, 1, 1, 1]


def test_periodic_pattern():
    model = MissingnessModel.periodic("10")
    out = sample_indicators(model, 6, np.random.default_rng(0))
    assert out.tolist() == [1, 0, 1, 0, 1, 0]
    # tiling truncates
    out7 = sample_indicators(model, 7, np.random.default_rng(0))
    assert out7.tolist() == [1, 0, 1, 0, 1, 0, 1]


def test_validation():
    with pytest.raises(InvalidParameterError):
        MissingnessModel.periodic("")
    with pytest.raises(InvalidParameterError):
        MissingnessModel.periodic("102")
    with pytest.raises(InvalidParameterError):
        sample_indicators(MissingnessModel.iid_bernoulli(0.5), 0, np.random.default_rng(0))


def test_exchangeable_uniform_fraction_ks():
    # S_n/n mixes the uniform draw with Binomial noise of sd 0.005 at
    # n = 1e4; the empirical law over 1e4 replications passes a KS test
    # against Uniform(0,1) at the 1% level
    model = MissingnessModel.exchangeable(LambdaLaw.uniform(0.0, 1.0))
    reps, n = 10_000, 10_000
    fractions = np.empty(reps)
    for r, stream in enumerate(substreams(2024, range(reps), "ind")):
        fractions[r] = sample_indicators(model, n, stream).mean()
    assert stats.kstest(fractions, "uniform").pvalue > 0.01


def test_exchangeable_concentrates_on_lambda():
    # E|S_n/n - Lambda| below 0.02 at n = 1e4 over 1e3 replications
    model = MissingnessModel.exchangeable(LambdaLaw.beta(2.0, 2.0))
    reps, n = 1000, 10_000
    gaps = np.empty(reps)
    for r in range(reps):
        out = sample_indicators(model, n, substream(7, r, "ind"))
        # Lambda is the first draw of the indicator stream
        lam = model.lambda_law.sample(substream(7, r, "ind"))
        gaps[r] = abs(out.mean() - lam)
    assert gaps.mean() < 0.02


def test_limit_law():
    assert MissingnessModel.iid_bernoulli(0.3).limit_law() == LambdaLaw.point(0.3)
    assert MissingnessModel.periodic("110").limit_law() == LambdaLaw.point(2.0 / 3.0)
    law = LambdaLaw.beta(2, 2)
    assert MissingnessModel.exchangeable(law).limit_law() is law


def test_iid_bernoulli_is_exchangeable_under_a_point_law():
    # the iid_bernoulli spelling parses into the exchangeable model of the
    # point law, the same config, and its indicators draw no fraction
    def parsed(missingness):
        return parse_config({
            "model": {"family": "one_factor", "n": 100, "gamma": 0.5},
            "missingness": missingness,
            "targets": [{"id": "e", "terms": [{"type": "order_stat", "class": "all", "k": 1,
                                               "x": 0.0}]}],
            "reps": 1,
            "master_seed": 0,
        })

    iid = parsed({"kind": "iid_bernoulli", "p": 0.3})
    point = parsed({"kind": "exchangeable", "lambda_law": {"kind": "point", "p": 0.3}})
    assert iid == point and iid.hash() == point.hash()
    assert iid.missingness == MissingnessModel.exchangeable(LambdaLaw.point(0.3))
    for r in range(20):
        eps = sample_indicators(iid.missingness, 1000, substream(3, r, "indicators"))
        assert np.array_equal(eps, substream(3, r, "indicators").random(1000) < 0.3)


def test_fixed_pattern_requires_periodic():
    with pytest.raises(InvalidParameterError):
        fixed_pattern(MissingnessModel.iid_bernoulli(0.5), 10)


def test_indicator_stream_decoupled_from_path_stream():
    # indicators depend only on their own substream: regenerating with the
    # same indicator stream is bit-identical no matter what other streams did
    for model in (
        MissingnessModel.iid_bernoulli(0.3),
        MissingnessModel.exchangeable(LambdaLaw.uniform(0, 1)),
        MissingnessModel.periodic("110"),
    ):
        a = sample_indicators(model, 1000, substream(1, 0, "indicators"))
        _ = substream(99, 0, "path").standard_normal(12345)  # unrelated consumption
        b = sample_indicators(model, 1000, substream(1, 0, "indicators"))
        assert a.dtype == bool and a.shape == (1000,)
        assert np.array_equal(a, b)
