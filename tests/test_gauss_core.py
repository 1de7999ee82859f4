"""Spiked covariances, the Gaussian sampling laws, and the likelihood
ratio, checked against dense linear algebra and Monte Carlo oracles."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_spectra import gauss_core
from ce_spectra.gauss_core import (
    CollapsedEstimateError,
    GaussianLaw,
    SpikedCovariance,
    WeightedSample,
    log_density,
    log_likelihood_ratio,
    log_ratio_to_standard,
    proj_r,
    sample,
)
from ce_spectra.seeding import stream

LOG_2PI = 1.8378770664093454836


def spike(d: int, lambdas, cols) -> SpikedCovariance:
    vecs = np.zeros((len(cols), d))
    for k, c in enumerate(cols):
        vecs[k, c] = 1.0
    return SpikedCovariance(dim=d, lambdas=np.asarray(lambdas, dtype=float),
                            directions=vecs)


def random_orthonormal(rng, d: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return q.T


# ------------------------------------------------------ SpikedCovariance


def test_spiked_validation():
    with pytest.raises(ValueError):
        spike(4, [2.0, 0.5], [0, 1])  # not ascending
    with pytest.raises(ValueError):
        spike(4, [-1.0], [0])  # not positive
    with pytest.raises(ValueError):
        SpikedCovariance(dim=4, lambdas=np.array([2.0]),
                         directions=np.full((1, 4), 0.5) * 2.0)  # not unit
    with pytest.raises(ValueError):
        SpikedCovariance(dim=4, lambdas=np.array([1.0, 2.0]),
                         directions=np.vstack([np.eye(4)[0], np.eye(4)[0]]))


def test_spiked_dense_and_logdet():
    sp = spike(3, [0.5, 4.0], [2, 0])
    dense = sp.dense()
    assert np.allclose(dense, np.diag([4.0, 1.0, 0.5]))
    assert sp.log_det() == pytest.approx(math.log(2.0), rel=1e-14)
    assert sp.lambda_extremes() == (0.5, 4.0)


def test_spiked_extremes_include_unit_bulk():
    # With r < d the untouched directions keep variance 1.
    assert spike(5, [2.0, 3.0], [0, 1]).lambda_extremes() == (1.0, 3.0)
    assert spike(5, [0.25, 0.5], [0, 1]).lambda_extremes() == (0.25, 1.0)
    assert spike(2, [0.25, 0.5], [0, 1]).lambda_extremes() == (0.25, 0.5)


# ----------------------------------------------------------- GaussianLaw


def test_law_factories_and_extremes():
    law = GaussianLaw.identity(3)
    assert law.covariance_extremes() == (1.0, 1.0)
    sp = spike(3, [0.5], [0])
    law2 = GaussianLaw.with_spiked(sp, np.ones(3))
    assert law2.covariance_extremes() == (0.5, 1.0)
    law3 = GaussianLaw.dense(np.zeros(2), np.diag([2.0, 8.0]))
    lo, hi = law3.covariance_extremes()
    assert (lo, hi) == (pytest.approx(2.0), pytest.approx(8.0))


def test_dense_law_requires_positive_definite():
    from ce_spectra.numerics import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        GaussianLaw.dense(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


# -------------------------------------------------------------- sampling


def test_sampling_reproducible():
    law = GaussianLaw.with_spiked(spike(6, [0.25, 4.0], [0, 1]), np.arange(6.0))
    a = sample(law, 50, stream(3, "a"))
    b = sample(law, 50, stream(3, "a"))
    assert np.array_equal(a, b)


def test_unit_spike_equals_identity_draws():
    # lambda = 1 must reproduce the identity law bit for bit.
    sp = spike(4, [1.0], [2])
    a = sample(GaussianLaw.with_spiked(sp, None), 100, stream(9, "u"))
    b = sample(GaussianLaw.identity(4), 100, stream(9, "u"))
    assert np.array_equal(a, b)


def test_sample_covariance_matches_law():
    d, n = 20, 200000
    vecs = random_orthonormal(stream(1, "vecs"), d, 2)
    sp = SpikedCovariance(dim=d, lambdas=np.array([0.25, 4.0]), directions=vecs)
    mean = np.linspace(-1.0, 1.0, d)
    x = sample(GaussianLaw.with_spiked(sp, mean), n, stream(1, "cov"))
    emp_mean = x.mean(axis=0)
    emp_cov = np.cov(x.T)
    # 3 sigma of the largest-variance entry CLT.
    assert np.max(np.abs(emp_mean - mean)) < 3.0 * 2.0 / math.sqrt(n)
    assert np.max(np.abs(emp_cov - sp.dense())) < 3.0 * 8.0 / math.sqrt(n)


def test_dense_law_sampling_matches_spiked():
    d = 6
    vecs = random_orthonormal(stream(4, "vd"), d, 2)
    sp = SpikedCovariance(dim=d, lambdas=np.array([0.5, 3.0]), directions=vecs)
    mean = np.ones(d)
    x = sample(GaussianLaw.dense(mean, sp.dense()), 100000, stream(4, "dl"))
    emp_cov = np.cov(x.T)
    assert np.max(np.abs(emp_cov - sp.dense())) < 3.0 * 6.0 / math.sqrt(100000)


# --------------------------------------------------------- log densities


def test_log_density_standard_normal_at_zero():
    law = GaussianLaw.identity(2)
    assert log_density(law, np.zeros((1, 2)))[0] == pytest.approx(-LOG_2PI, rel=1e-14)


def test_log_density_spiked_matches_dense_formula():
    d = 5
    vecs = random_orthonormal(stream(5, "ld"), d, 2)
    sp = SpikedCovariance(dim=d, lambdas=np.array([0.5, 2.5]), directions=vecs)
    mean = np.linspace(0.0, 1.0, d)
    law_s = GaussianLaw.with_spiked(sp, mean)
    law_d = GaussianLaw.dense(mean, sp.dense())
    x = sample(law_s, 40, stream(5, "pts"))
    got_s = log_density(law_s, x)
    got_d = log_density(law_d, x)
    cov = sp.dense()
    inv = np.linalg.inv(cov)
    _, logdet = np.linalg.slogdet(cov)
    want = [-0.5 * (d * LOG_2PI + logdet + (xi - mean) @ inv @ (xi - mean))
            for xi in x]
    assert np.allclose(got_s, want, atol=1e-10)
    assert np.allclose(got_d, want, atol=1e-10)


def test_log_density_scalar_input():
    # Inputs are (n, d) batches; a single point or a wrong width is an error.
    law = GaussianLaw.identity(3)
    for bad in (np.zeros(3), np.zeros((2, 4)), np.zeros((1, 1, 3))):
        with pytest.raises(ValueError):
            log_density(law, bad)
        with pytest.raises(ValueError):
            log_ratio_to_standard(law, bad)
    with pytest.raises(ValueError):
        log_likelihood_ratio(spike(3, [0.5], [0]), np.zeros(3))


# ------------------------------------------------------ likelihood ratio


def test_likelihood_ratio_at_origin():
    # At x = 0 the ratio is |Sigma|^(1/2).
    sp = spike(4, [0.25], [1])
    origin = np.zeros((1, 4))
    assert np.exp(log_likelihood_ratio(sp, origin))[0] == pytest.approx(0.5, rel=1e-14)
    sp2 = spike(4, [4.0], [1])
    assert np.exp(log_likelihood_ratio(sp2, origin))[0] == pytest.approx(2.0, rel=1e-14)


def test_likelihood_ratio_matches_density_ratio():
    d = 50
    vecs = random_orthonormal(stream(6, "lr"), d, 3)
    sp = SpikedCovariance(dim=d, lambdas=np.array([0.3, 0.8, 5.0]),
                          directions=vecs)
    g = GaussianLaw.with_spiked(sp, None)
    f = GaussianLaw.identity(d)
    x = sample(g, 1000, stream(6, "pts"))
    want = log_density(f, x) - log_density(g, x)
    got = log_likelihood_ratio(sp, x)
    assert np.max(np.abs(got - want)) < 1e-10


def test_likelihood_ratio_depends_only_on_projections():
    # Moving x inside the orthogonal complement leaves the ratio fixed.
    sp = spike(6, [0.5, 2.0], [0, 1])
    x = np.zeros((1, 6))
    x[0, 0], x[0, 1] = 1.0, -2.0
    base = log_likelihood_ratio(sp, x)
    x2 = x.copy()
    x2[0, 3] = 17.0
    assert log_likelihood_ratio(sp, x2) == pytest.approx(base, rel=1e-14)


@pytest.mark.parametrize("lam", [0.6, 0.8])
def test_likelihood_ratio_integrates_to_one(lam):
    # E_g[l] = 1; lam < 1 keeps the variance of l finite (needs lam > 1/2).
    d = 3
    sp = spike(d, [lam], [0])
    n = 400000
    x = sample(GaussianLaw.with_spiked(sp, None), n, stream(7, "int", str(lam)))
    vals = np.exp(log_likelihood_ratio(sp, x))
    se = vals.std() / math.sqrt(n)
    assert abs(vals.mean() - 1.0) < 4.0 * se + 1e-12


def test_log_ratio_to_standard_zero_for_standard():
    law = GaussianLaw.identity(4)
    x = sample(law, 10, stream(8, "std"))
    out = log_ratio_to_standard(law, x)
    assert np.array_equal(np.asarray(out), np.zeros(10))


def test_log_ratio_to_standard_shifted_dense():
    mean = np.array([1.0, -1.0])
    law = GaussianLaw.dense(mean, np.diag([2.0, 0.5]))
    x = sample(law, 200, stream(8, "sh"))
    want = log_density(GaussianLaw.identity(2), x) - log_density(law, x)
    got = log_ratio_to_standard(law, x)
    assert np.allclose(got, want, atol=1e-10)


# ---------------------------------------------------------------- proj_r


def test_proj_r_reads_quadratic_forms():
    sigma = np.diag([4.0, 0.25, 1.0])
    sp = proj_r(sigma, np.eye(3)[:2])
    assert np.allclose(sp.lambdas, [0.25, 4.0])
    assert np.allclose(np.abs(sp.directions), np.eye(3)[[1, 0]])
    # Orthogonal complement keeps variance one.
    assert np.allclose(sp.dense(), np.diag([4.0, 0.25, 1.0]))


def test_proj_r_general_direction():
    v = np.array([[3.0, 4.0, 0.0]]) / 5.0
    sigma = np.diag([2.0, 1.0, 1.0])
    sp = proj_r(sigma, v)
    want = float(v[0] @ sigma @ v[0])
    assert sp.lambdas[0] == pytest.approx(want, rel=1e-14)


def test_proj_r_floor_and_collapse():
    sigma = np.diag([-1.0, 2.0])
    sp = proj_r(sigma, np.eye(2))
    assert sp.lambdas[0] == gauss_core.LAMBDA_FLOOR
    with pytest.raises(CollapsedEstimateError):
        proj_r(np.diag([-1.0, -2.0]), np.eye(2))


def test_proj_r_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        proj_r(np.eye(3), np.array([[1.0, 1.0, 0.0]]))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_proj_r_lambdas_ascending(seed):
    rng = stream(seed, "gc", "asc")
    d = 5
    a = rng.standard_normal((d, d))
    sigma = a @ a.T / d + 0.1 * np.eye(d)
    vecs = random_orthonormal(rng, d, 3)
    sp = proj_r(sigma, vecs)
    assert np.all(np.diff(sp.lambdas) >= 0.0)
    assert np.all(sp.lambdas > 0.0)


# --------------------------------------------------------- WeightedSample


def test_weighted_sample_from_scores():
    # The event is {score >= 0}: a score of exactly 0 is a hit.
    x = np.zeros((4, 2))
    ws = WeightedSample(x, np.zeros(4), np.array([-1.0, -1e-300, 0.0, 2.0]))
    assert ws.indicators.tolist() == [False, False, True, True]
    assert ws.size == 4 and ws.dim == 2


def test_weighted_sample_validation():
    x = np.zeros((3, 2))
    with pytest.raises(ValueError):
        WeightedSample(x, np.zeros(2), np.zeros(3))
    with pytest.raises(ValueError):
        WeightedSample(x, np.zeros(3), np.zeros(2))
    with pytest.raises(ValueError):
        WeightedSample(x, np.array([0.0, np.nan, 0.0]), np.zeros(3))
