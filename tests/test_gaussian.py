import copy
import math

import numpy as np
import pytest

from gapextremes.errors import ConfigError, InvalidParameterError, NonEmbeddableCovarianceError
from gapextremes.gaussian import MAX_N, CovarianceSpec, build_model, sample_path
from gapextremes.harness import parse_config
from reference import model_correlation

RHO_100_GAMMA1 = 0.21714724095162591  # 1 / ln 100, high-precision


def _parsed_model(**model):
    """The model section of a minimal config, parsed."""
    return parse_config({
        "model": model,
        "missingness": {"kind": "periodic", "pattern": "10"},
        "targets": [{"id": "e", "terms": [{"type": "order_stat", "class": "all", "k": 1,
                                           "x": 0.0}]}],
        "reps": 1,
        "master_seed": 0,
    })


def test_iid_model_correlations():
    model = build_model(100, CovarianceSpec("one_factor"))
    assert model_correlation(model, 0) == 1.0
    for k in (1, 5, 99):
        assert model_correlation(model, k) == 0.0


def test_one_factor_rho():
    model = build_model(100, CovarianceSpec("one_factor", gamma=1.0))
    assert model.rho_n == pytest.approx(RHO_100_GAMMA1, abs=1e-12)
    assert model_correlation(model, 37) == pytest.approx(RHO_100_GAMMA1, abs=1e-12)


def test_one_factor_precondition_boundary():
    # gamma >= ln 2 makes rho_n >= 1
    with pytest.raises(InvalidParameterError):
        build_model(2, CovarianceSpec("one_factor", gamma=1.0))
    with pytest.raises(InvalidParameterError):
        build_model(100, CovarianceSpec("one_factor", gamma=math.log(100)))


def test_rho_n_gamma_too_large():
    # the one rule of the sampler and the exact finite-n law
    spec = CovarianceSpec("one_factor", gamma=math.log(100))
    with pytest.raises(InvalidParameterError, match=r"one_factor requires gamma < ln n \(4\.60517\)"):
        spec.rho_n(100)
    assert spec.rho_n(101) == math.log(100) / math.log(101)


def test_rho_n_beyond_the_largest_model():
    # the law reads rho_n at any n the check accepts, past MAX_N as well
    spec = CovarianceSpec("one_factor", gamma=1.0)
    n = 2 * 10**18
    assert n > MAX_N
    assert spec.rho_n(n) == 1.0 / math.log(n)
    with pytest.raises(MemoryError):
        build_model(n, spec)


def test_iid_requires_zero_gamma():
    # iid is read as one_factor at gamma = 0, and no other gamma
    with pytest.raises(ConfigError, match="iid is one_factor at gamma = 0"):
        _parsed_model(family="iid", n=100, gamma=0.5)
    with pytest.raises(ConfigError, match="'shift' applies to the log_decay family only"):
        _parsed_model(family="iid", n=100, shift=3.0)
    with pytest.raises(ConfigError, match="one_factor requires n >= 3"):
        _parsed_model(family="iid", n=2)
    with pytest.raises(InvalidParameterError, match="unknown family 'iid'"):
        CovarianceSpec("iid")


def test_lag_out_of_range():
    model = build_model(50, CovarianceSpec("one_factor"))
    with pytest.raises(InvalidParameterError):
        model_correlation(model, 50)
    with pytest.raises(InvalidParameterError):
        model_correlation(model, -1)


def test_log_decay_rejects_unit_correlation():
    # shift = e - 1 puts r_1 = gamma / ln(e) = gamma; gamma = 2 violates |r| < 1
    with pytest.raises(InvalidParameterError):
        build_model(100, CovarianceSpec("log_decay", gamma=2.0, shift=math.e - 1.0))


@pytest.mark.parametrize("shift", [-1.5, -1.0, 1.0 - math.e + 1e-9])
def test_log_decay_shift_must_exceed_minus_one(shift):
    # ln(1 + shift) is undefined at lag 1, so the paths would be NaN
    with pytest.raises(InvalidParameterError, match="exceed -1"):
        CovarianceSpec("log_decay", gamma=0.01, shift=shift)


@pytest.mark.parametrize("gamma", [0.0, 0.5])
def test_log_decay_refuses_a_non_finite_correlation(gamma):
    # shift = 0 puts ln(1 + shift) = 0 at lag 1: r_1 is NaN at gamma = 0
    # and infinite above it
    with pytest.raises(InvalidParameterError, match="at lag 1 is (nan|inf)"):
        build_model(100, CovarianceSpec("log_decay", gamma=gamma, shift=0.0))


def test_log_decay_non_embeddable():
    # r_1 = 1.3 / ln(1+e) = 0.9899 is valid pointwise but the embedding
    # spectrum goes negative (observed for all tested sizes)
    with pytest.raises(NonEmbeddableCovarianceError):
        build_model(256, CovarianceSpec("log_decay", gamma=1.3))


def test_log_decay_correlation_values():
    model = build_model(128, CovarianceSpec("log_decay", gamma=0.5))
    assert model_correlation(model, 1) == pytest.approx(0.5 / math.log(1 + math.e))
    assert model_correlation(model, 10) == pytest.approx(0.5 / math.log(10 + math.e))
    # r_k ln k -> gamma
    k = 10**7
    assert 0.5 / math.log(k + math.e) * math.log(k) == pytest.approx(0.5, rel=1e-6)


def test_determinism():
    for spec in (
        CovarianceSpec("one_factor"),
        CovarianceSpec("one_factor", gamma=0.5),
        CovarianceSpec("log_decay", gamma=0.5),
    ):
        model = build_model(64, spec)
        a = sample_path(model, np.random.default_rng(42))
        b = sample_path(model, np.random.default_rng(42))
        assert a.dtype == np.float64 and a.shape == (model.spec.paths_per_draw, 64)
        assert np.array_equal(a, b)


def test_iid_pooled_moments_and_lag():
    model = build_model(100_000, CovarianceSpec("one_factor"))
    rng = np.random.default_rng(11)
    pooled = np.concatenate([sample_path(model, rng) for _ in range(10)]).ravel()
    n = len(pooled)
    assert abs(pooled.mean()) < 4.0 / math.sqrt(n)
    assert abs(pooled.var() - 1.0) < 4.0 * math.sqrt(2.0 / n)
    lag1 = np.mean(pooled[:-1] * pooled[1:])
    assert abs(lag1) < 4.0 / math.sqrt(n - 1)


def test_one_factor_pair_correlation():
    # empirical Corr(Y_1, Y_2) over 1e5 replications within 4 sigma of rho_n
    model = build_model(100, CovarianceSpec("one_factor", gamma=1.0))
    rng = np.random.default_rng(5)
    reps = 100_000
    pairs = np.empty((reps, 2))
    for r in range(reps):
        pairs[r] = sample_path(model, rng)[0, :2]
    corr = np.corrcoef(pairs[:, 0], pairs[:, 1])[0, 1]
    se = (1.0 - RHO_100_GAMMA1**2) / math.sqrt(reps)
    assert abs(corr - RHO_100_GAMMA1) < 4.0 * se


def test_one_factor_latent_regression():
    # conditional on xi = z the coordinates are iid N(sqrt(rho) z, 1 - rho):
    # regressing pooled coordinates on xi recovers slope sqrt(rho) and
    # residual variance 1 - rho
    n, reps = 50, 20_000
    model = build_model(n, CovarianceSpec("one_factor", gamma=1.0))
    rho = model.rho_n
    rng = np.random.default_rng(17)
    xs, ys = np.empty(reps * n), np.empty(reps * n)
    for r in range(reps):
        # sample_path draws n normals, then xi: replay a copy of the stream
        replay = copy.deepcopy(rng)
        ys[r * n : (r + 1) * n] = sample_path(model, rng)
        replay.standard_normal(n)
        xs[r * n : (r + 1) * n] = replay.standard_normal()
    slope = np.dot(xs, ys) / np.dot(xs, xs)
    resid_var = np.var(ys - slope * xs)
    assert slope == pytest.approx(math.sqrt(rho), abs=0.01)
    assert resid_var == pytest.approx(1.0 - rho, abs=0.01)
    assert model.rho_n == pytest.approx(1.0 / math.log(n))


def test_one_factor_gamma_zero_matches_iid():
    # the iid spelling parses into one_factor at gamma = 0, the same config;
    # its paths are bit for bit the first n normals of each stream, the
    # draws of an independent sampler (xi enters times sqrt(0) = 0)
    iid = _parsed_model(family="iid", n=1000)
    one = _parsed_model(family="one_factor", n=1000, gamma=0)
    assert iid == one and iid.hash() == one.hash()
    model = iid.build_model()
    assert model.rho_n == 0.0
    for seed in range(20):
        path = sample_path(model, np.random.default_rng(seed))
        assert np.array_equal(path, np.random.default_rng(seed).standard_normal((1, 1000)))


def test_log_decay_sampling_matches_model_correlation():
    # each draw yields two paths: 2000 draws give the 4000 paths
    n, reps = 512, 4000
    model = build_model(n, CovarianceSpec("log_decay", gamma=0.5))
    rng = np.random.default_rng(7)
    paths = np.stack([sample_path(model, rng) for _ in range(reps // 2)]).reshape(reps, n)
    # within-path dependence inflates pooled-moment noise, so standard
    # errors come from the spread of per-path statistics
    per_mean = paths.mean(axis=1)
    assert abs(per_mean.mean()) < 4.0 * per_mean.std(ddof=1) / math.sqrt(reps)
    per_sq = np.mean(paths**2, axis=1)
    assert abs(per_sq.mean() - 1.0) < 4.0 * per_sq.std(ddof=1) / math.sqrt(reps)
    for k in (1, 2, 10):
        per_path = np.mean(paths[:, :-k] * paths[:, k:], axis=1)
        est = per_path.mean()
        se = per_path.std(ddof=1) / math.sqrt(reps)
        assert abs(est - model_correlation(model, k)) < 4.0 * se


def test_log_decay_halves_independent_and_each_matches_model_correlation():
    # the real and imaginary rows of one draw: zero cross-covariance at
    # lags 0, 1 and 10 in both directions, and each row alone has the
    # model's moments; standard errors from the spread of per-draw statistics
    n, draws = 512, 2000
    model = build_model(n, CovarianceSpec("log_decay", gamma=0.5))
    assert model.spec.paths_per_draw == 2
    rng = np.random.default_rng(19)
    pairs = np.stack([sample_path(model, rng) for _ in range(draws)])
    re, im = pairs[:, 0], pairs[:, 1]

    def within_4se(per_draw, target):
        se = per_draw.std(ddof=1) / math.sqrt(draws)
        return abs(per_draw.mean() - target) < 4.0 * se

    assert within_4se(np.mean(re * im, axis=1), 0.0)
    for k in (1, 10):
        assert within_4se(np.mean(re[:, :-k] * im[:, k:], axis=1), 0.0)
        assert within_4se(np.mean(im[:, :-k] * re[:, k:], axis=1), 0.0)
    for row in (re, im):
        assert within_4se(row.mean(axis=1), 0.0)
        assert within_4se(np.mean(row**2, axis=1), 1.0)
        for k in (1, 2, 10):
            assert within_4se(np.mean(row[:, :-k] * row[:, k:], axis=1), model_correlation(model, k))


@pytest.mark.parametrize("n", [2, 3, 10, 300])
def test_log_decay_lag_check_agrees_with_a_scan_of_every_lag(n):
    # |r_k| peaks at lag 1 or 2, so checking those two refuses exactly the
    # specs that a scan of lags 1 .. n-1 refuses, and names the same lag;
    # below n = 3 every spec is refused by its size, as one_factor's is
    for gamma in np.linspace(0.0, 3.0, 31):
        for shift in (-0.99, -0.5, 0.0, 0.5, math.e - 1.0, math.e, 6.0):
            spec = CovarianceSpec("log_decay", gamma=gamma, shift=shift)
            if n < 3:
                with pytest.raises(InvalidParameterError,
                                   match=f"log_decay requires n >= 3, got {n}"):
                    spec.check(n)
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                r = gamma / np.log(np.arange(1, n) + shift)
            bad = np.flatnonzero(~(np.abs(r) < 1.0))
            if bad.size:
                with pytest.raises(InvalidParameterError, match=f"at lag {bad[0] + 1} is "):
                    spec.check(n)
            else:
                spec.check(n)
