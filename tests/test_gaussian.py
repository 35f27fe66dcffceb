import copy
import math

import numpy as np
import pytest
from scipy import stats

from gapextremes.errors import InvalidParameterError, NonEmbeddableCovarianceError
from gapextremes.gaussian import (
    CovarianceSpec,
    build_model,
    model_correlation,
    sample_path,
)

RHO_100_GAMMA1 = 0.21714724095162591  # 1 / ln 100, high-precision


def test_iid_model_correlations():
    model = build_model(100, CovarianceSpec("iid"))
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


def test_iid_requires_zero_gamma():
    with pytest.raises(InvalidParameterError):
        CovarianceSpec("iid", gamma=0.5)


def test_lag_out_of_range():
    model = build_model(50, CovarianceSpec("iid"))
    with pytest.raises(InvalidParameterError):
        model_correlation(model, 50)
    with pytest.raises(InvalidParameterError):
        model_correlation(model, -1)


def test_log_decay_rejects_unit_correlation():
    # shift = e - 1 puts r_1 = gamma / ln(e) = gamma; gamma = 2 violates |r| < 1
    with pytest.raises(InvalidParameterError):
        build_model(100, CovarianceSpec("log_decay", gamma=2.0, shift=math.e - 1.0))


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
        CovarianceSpec("iid"),
        CovarianceSpec("one_factor", gamma=0.5),
        CovarianceSpec("log_decay", gamma=0.5),
    ):
        model = build_model(64, spec)
        a = sample_path(model, np.random.default_rng(42))
        b = sample_path(model, np.random.default_rng(42))
        assert a.dtype == np.float64 and a.shape == (model.paths_per_draw, 64)
        assert np.array_equal(a, b)


def test_iid_pooled_moments_and_lag():
    model = build_model(100_000, CovarianceSpec("iid"))
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
    # gamma = 0 degenerates to independence; two-sample KS at the 1% level
    one = build_model(1000, CovarianceSpec("one_factor", gamma=0.0))
    iid = build_model(1000, CovarianceSpec("iid"))
    rng = np.random.default_rng(3)
    a = np.concatenate([sample_path(one, rng)[0] for _ in range(100)])
    b = np.concatenate([sample_path(iid, rng)[0] for _ in range(100)])
    assert stats.ks_2samp(a, b).pvalue > 0.01


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
    assert model.paths_per_draw == 2
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
