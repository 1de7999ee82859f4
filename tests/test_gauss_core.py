"""Spiked covariances, the Gaussian sampling laws, and the likelihood
ratio, checked against dense linear algebra and Monte Carlo oracles."""
import math

import numpy as np
import pytest

from ce_spectra import gauss_core
from ce_spectra.numerics import sym_eigen_extremes
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
    return SpikedCovariance(lambdas=np.asarray(lambdas, dtype=float),
                            directions=vecs)


def random_orthonormal(rng, d: int, r: int) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((d, r)))
    return q.T


def draw(law: GaussianLaw, n: int, rng) -> np.ndarray:
    """n points of the law from n fresh standard-normal rows of rng."""
    return sample(law, rng.standard_normal((n, law.dim)))


def dense_law(mean, cov) -> GaussianLaw:
    return GaussianLaw.dense(mean, cov, sym_eigen_extremes(cov))


# ------------------------------------------------------ SpikedCovariance


def test_spiked_validation():
    with pytest.raises(ValueError):
        spike(4, [2.0, 0.5], [0, 1])  # not ascending
    with pytest.raises(ValueError):
        spike(4, [-1.0], [0])  # not positive
    with pytest.raises(ValueError):
        SpikedCovariance(lambdas=np.array([2.0]),
                         directions=np.full((1, 4), 0.5) * 2.0)  # not unit
    with pytest.raises(ValueError):
        SpikedCovariance(lambdas=np.array([1.0, 2.0]),
                         directions=np.vstack([np.eye(4)[0], np.eye(4)[0]]))


def test_spiked_dense_and_logdet():
    sp = spike(3, [0.5, 4.0], [2, 0])
    dense = sp.dense()
    assert np.allclose(dense, np.diag([4.0, 1.0, 0.5]))
    assert sp.log_det() == pytest.approx(math.log(2.0), rel=1e-14, abs=0)
    assert sp.lambda_min() == 0.5


def test_spiked_extremes_include_unit_bulk():
    # With r < d the untouched directions keep variance 1.
    assert spike(5, [2.0, 3.0], [0, 1]).lambda_min() == 1.0
    assert spike(5, [0.25, 0.5], [0, 1]).lambda_min() == 0.25
    assert spike(2, [0.25, 0.5], [0, 1]).lambda_min() == 0.25


# ----------------------------------------------------------- GaussianLaw


def test_law_factories_and_extremes():
    law = GaussianLaw.identity(3)
    assert law.lambda_min() == 1.0
    sp = spike(3, [0.5], [0])
    law2 = GaussianLaw.with_spiked(sp, np.ones(3))
    assert law2.lambda_min() == 0.5
    law3 = dense_law(np.zeros(2), np.diag([2.0, 8.0]))
    assert law3.lambda_min() == pytest.approx(2.0)


def test_dense_law_requires_positive_definite():
    from ce_spectra.numerics import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        dense_law(np.zeros(2), np.array([[1.0, 1.0], [1.0, 1.0]]))


# -------------------------------------------------------------- sampling


def test_sampling_reproducible():
    law = GaussianLaw.with_spiked(spike(6, [0.25, 4.0], [0, 1]), np.arange(6.0))
    a = draw(law, 50, stream(3, "a"))
    b = draw(law, 50, stream(3, "a"))
    assert np.array_equal(a, b)


def test_unit_spike_equals_identity_draws():
    # lambda = 1 must reproduce the identity law bit for bit.
    sp = spike(4, [1.0], [2])
    a = draw(GaussianLaw.with_spiked(sp, None), 100, stream(9, "u"))
    b = draw(GaussianLaw.identity(4), 100, stream(9, "u"))
    assert np.array_equal(a, b)


def test_sample_covariance_matches_law():
    d, n = 20, 200000
    vecs = random_orthonormal(stream(1, "vecs"), d, 2)
    sp = SpikedCovariance(lambdas=np.array([0.25, 4.0]), directions=vecs)
    mean = np.linspace(-1.0, 1.0, d)
    x = draw(GaussianLaw.with_spiked(sp, mean), n, stream(1, "cov"))
    emp_mean = x.mean(axis=0)
    emp_cov = np.cov(x.T)
    # 3 sigma of the largest-variance entry CLT.
    assert np.max(np.abs(emp_mean - mean)) < 3.0 * 2.0 / math.sqrt(n)
    assert np.max(np.abs(emp_cov - sp.dense())) < 3.0 * 8.0 / math.sqrt(n)


def test_dense_law_sampling_matches_spiked():
    d = 6
    vecs = random_orthonormal(stream(4, "vd"), d, 2)
    sp = SpikedCovariance(lambdas=np.array([0.5, 3.0]), directions=vecs)
    mean = np.ones(d)
    x = draw(dense_law(mean, sp.dense()), 100000, stream(4, "dl"))
    emp_cov = np.cov(x.T)
    assert np.max(np.abs(emp_cov - sp.dense())) < 3.0 * 6.0 / math.sqrt(100000)


# --------------------------------------------------------- log densities


def test_log_density_standard_normal_at_zero():
    law = GaussianLaw.identity(2)
    assert log_density(law, np.zeros((1, 2)))[0] == pytest.approx(-LOG_2PI, rel=1e-14, abs=0)


def test_log_density_spiked_matches_dense_formula():
    d = 5
    vecs = random_orthonormal(stream(5, "ld"), d, 2)
    sp = SpikedCovariance(lambdas=np.array([0.5, 2.5]), directions=vecs)
    mean = np.linspace(0.0, 1.0, d)
    law_s = GaussianLaw.with_spiked(sp, mean)
    law_d = dense_law(mean, sp.dense())
    x = draw(law_s, 40, stream(5, "pts"))
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
            log_ratio_to_standard(law, bad, bad)
    with pytest.raises(ValueError):
        log_likelihood_ratio(spike(3, [0.5], [0]), np.zeros(3))


# ------------------------------------------------------ likelihood ratio


def test_likelihood_ratio_at_origin():
    # At x = 0 the ratio is |Sigma|^(1/2).
    sp = spike(4, [0.25], [1])
    origin = np.zeros((1, 4))
    assert np.exp(log_likelihood_ratio(sp, origin))[0] == pytest.approx(0.5, rel=1e-14, abs=0)
    sp2 = spike(4, [4.0], [1])
    assert np.exp(log_likelihood_ratio(sp2, origin))[0] == pytest.approx(2.0, rel=1e-14, abs=0)


def test_likelihood_ratio_matches_density_ratio():
    d = 50
    vecs = random_orthonormal(stream(6, "lr"), d, 3)
    sp = SpikedCovariance(lambdas=np.array([0.3, 0.8, 5.0]),
                          directions=vecs)
    g = GaussianLaw.with_spiked(sp, None)
    f = GaussianLaw.identity(d)
    x = draw(g, 1000, stream(6, "pts"))
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
    assert log_likelihood_ratio(sp, x2) == pytest.approx(base, rel=1e-14, abs=0)


def test_rank_one_ratio_matches_squared_coordinate():
    # Rank one squares and scales the coordinate x @ v in place; the bytes
    # equal the formula written out, for an axis read as its column (either
    # sign) and a dense direction.
    # Rank two keeps the product and still matches the density oracle.
    d = 50
    x = stream(6, "r1").standard_normal((500, d)) * 2.0
    dense_v = random_orthonormal(stream(6, "r1v"), d, 1)
    for sp in (spike(d, [0.4], [7]),
               SpikedCovariance(lambdas=[0.4], directions=-np.eye(d)[None, 3]),
               SpikedCovariance(lambdas=[3.0], directions=dense_v)):
        v, lam = sp.directions[0], sp.lambdas[0]
        want = 0.5 * (sp.log_det() + (1.0 / lam - 1.0) * (x @ v) ** 2)
        assert np.array_equal(log_likelihood_ratio(sp, x), want)
    sp2 = spike(d, [0.4, 3.0], [7, 2])
    want = (log_density(GaussianLaw.identity(d), x)
            - log_density(GaussianLaw.with_spiked(sp2), x))
    assert np.max(np.abs(log_likelihood_ratio(sp2, x) - want)) < 1e-10


@pytest.mark.parametrize("lam", [0.6, 0.8])
def test_likelihood_ratio_integrates_to_one(lam):
    # E_g[l] = 1; lam < 1 keeps the variance of l finite (needs lam > 1/2).
    d = 3
    sp = spike(d, [lam], [0])
    n = 400000
    x = draw(GaussianLaw.with_spiked(sp, None), n, stream(7, "int", str(lam)))
    vals = np.exp(log_likelihood_ratio(sp, x))
    se = vals.std() / math.sqrt(n)
    assert abs(vals.mean() - 1.0) < 4.0 * se + 1e-12


def squared_norms(z: np.ndarray) -> np.ndarray:
    """|z|^2 per row, taken before sample writes the points over z."""
    return np.einsum("ij,ij->i", z, z)


def test_log_ratio_to_standard_zero_for_standard():
    law = GaussianLaw.identity(4)
    z = stream(8, "std").standard_normal((10, 4))
    z_sq = squared_norms(z)
    out = log_ratio_to_standard(law, sample(law, z), z_sq)
    assert np.array_equal(np.asarray(out), np.zeros(10))


def test_log_ratio_to_standard_shifted_dense():
    mean = np.array([1.0, -1.0])
    law = dense_law(mean, np.diag([2.0, 0.5]))
    z = stream(8, "sh").standard_normal((200, 2))
    z_sq = squared_norms(z)
    x = sample(law, z)
    want = log_density(GaussianLaw.identity(2), x) - log_density(law, x)
    got = log_ratio_to_standard(law, x, z_sq)
    assert np.allclose(got, want, atol=1e-10)



def whitened_laws(d: int):
    """Identity, spiked and dense laws, each with a nonzero mean."""
    mean = np.linspace(-1.0, 2.0, d)
    vecs = random_orthonormal(stream(8, "wl"), d, 2)
    sp = SpikedCovariance(lambdas=np.array([0.4, 3.0]), directions=vecs)
    a = stream(8, "wd").standard_normal((d, d))
    return {"identity": GaussianLaw(mean=mean),
            "spiked": GaussianLaw.with_spiked(sp, mean),
            "dense": dense_law(mean, a @ a.T / d + 0.5 * np.eye(d))}


@pytest.mark.parametrize("kind", ["identity", "spiked", "dense"])
def test_log_ratio_to_standard_matches_densities(kind):
    # The whitened formula 1/2 (log|Sigma| + |z|^2 - |x|^2) against the
    # density oracle, for every covariance representation.
    d = 7
    law = whitened_laws(d)[kind]
    z = stream(8, "wz", kind).standard_normal((300, d))
    z_sq = squared_norms(z)
    x = sample(law, z)
    want = log_density(GaussianLaw.identity(d), x) - log_density(law, x)
    assert np.max(np.abs(log_ratio_to_standard(law, x, z_sq) - want)) < 1e-10


def test_log_ratio_to_standard_rejects_mismatched_draws():
    law = GaussianLaw.identity(3)
    with pytest.raises(ValueError):
        log_ratio_to_standard(law, np.zeros((4, 3)), np.zeros(5))
    with pytest.raises(ValueError):
        log_ratio_to_standard(law, np.zeros((4, 3)), np.zeros((4, 3)))


@pytest.mark.parametrize("kind", ["identity", "spiked", "axis", "dense"])
def test_sample_maps_draws_in_place(kind):
    # sample writes the points over z and returns z's own buffer; the bytes
    # equal the out-of-place product on a copy: z + update + mean for the
    # identity and spiked laws (dgemm for a general direction, the columns
    # for axes), the triangular multiply for a dense law.
    if kind == "axis":
        law = GaussianLaw.with_spiked(spike(5, [0.5, 2.0], [3, 1]), np.arange(5.0))
    else:
        law = whitened_laws(5)[kind]
    z = stream(8, "keep").standard_normal((50, 5))
    if law.dense_chol is not None:
        from scipy.linalg.blas import dtrmm

        want = dtrmm(1.0, law.dense_chol, z.copy().T, lower=1).T
    else:
        want = z.copy()
        if law.spiked is not None:
            sp = law.spiked
            want += ((z @ sp.directions.T) * (np.sqrt(sp.lambdas) - 1.0)) @ sp.directions
    want += law.mean
    x = sample(law, z)
    assert np.shares_memory(x, z)
    assert np.array_equal(x, want)


def test_sample_bytes_match_rank_update_formula():
    # Spiked and identity draws are z + update + mean, in that order, so a
    # seed gives the same points as the formula written out. Axis-aligned
    # spikes update their own columns, other directions go through dgemm;
    # both must keep these bytes, with a zero mean and a nonzero one.
    laws = [whitened_laws(6)["spiked"]]
    for d in (2, 50):
        for lambdas, cols in (([0.5], [1]), ([0.3, 4.0], [d - 1, 0])):
            sp = spike(d, lambdas, cols)
            laws += [GaussianLaw.with_spiked(sp),
                     GaussianLaw.with_spiked(sp, np.linspace(-2.0, 1.0, d))]
    dense_v = random_orthonormal(stream(8, "bytes-v"), 50, 1)
    laws.append(GaussianLaw.with_spiked(
        SpikedCovariance(lambdas=[0.7], directions=dense_v), np.full(50, 0.25)))
    for law in laws:
        sp = law.spiked
        z = stream(8, "bytes", law.dim).standard_normal((40, law.dim))
        coords = z @ sp.directions.T
        want = z + (coords * (np.sqrt(sp.lambdas) - 1.0)) @ sp.directions
        assert np.array_equal(sample(law, z), want + law.mean)
    ident = whitened_laws(6)["identity"]
    z = stream(8, "bytes").standard_normal((40, 6))
    want = z + ident.mean
    assert np.array_equal(sample(ident, z), want)


# ---------------------------------------------------------------- proj_r


def test_proj_r_reads_quadratic_forms():
    sigma = np.diag([4.0, 0.25, 1.0])
    for axis, want in ((0, 4.0), (1, 0.25)):
        sp = proj_r(sigma, np.eye(3)[axis])
        assert sp.rank == 1
        assert sp.lambdas.tolist() == [want]
        assert np.array_equal(sp.directions, np.eye(3)[[axis]])
        # Orthogonal complement keeps variance one.
        assert np.allclose(sp.dense(), np.diag(np.where(np.arange(3) == axis, want, 1.0)))


def test_proj_r_general_direction():
    v = np.array([3.0, 4.0, 0.0]) / 5.0
    sigma = np.diag([2.0, 1.0, 1.0])
    sp = proj_r(sigma, v)
    want = float(v @ sigma @ v)
    assert sp.lambdas[0] == pytest.approx(want, rel=1e-14, abs=0)


def test_proj_r_floor_and_collapse():
    floor = gauss_core.LAMBDA_FLOOR
    assert proj_r(np.diag([floor, 2.0]), np.eye(2)[0]).lambdas.tolist() == [floor]
    for below in (0.5 * floor, 0.0, -1.0):
        with pytest.raises(CollapsedEstimateError):
            proj_r(np.diag([below, 2.0]), np.eye(2)[0])


def test_proj_r_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        proj_r(np.eye(3), np.array([1.0, 1.0, 0.0]))


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
