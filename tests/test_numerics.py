"""Scalar special functions and the matrix helpers, against independent
oracles: high-precision reference values frozen from mpmath, and a
characteristic-polynomial eigensolver that shares no code with eigh."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_spectra import numerics
from ce_spectra.numerics import (
    DomainError,
    NotPositiveDefiniteError,
    NotSymmetricError,
    cholesky,
    gamma_inverse_cdf,
    operator_norm_diff,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    sym_eigen_extremes,
)
from ce_spectra.seeding import stream

# mpmath, 30 significant digits.
PHI_TABLE = {
    0.1: 0.53982783727702898367,
    0.5: 0.69146246127401310364,
    1.0: 0.84134474606854294859,
    1.5: 0.933192798731141934,
    2.5: 0.99379033467422386483,
    4.0: 0.99996832875816688008,
    6.0: 0.99999999901341235496,
    -1.0: 0.15865525393145705141,
    -2.0: 0.0227501319481792072,
    -5.0: 2.8665157187919391167e-7,
}
Z90 = 1.281551565544600467
LOG_PHI_MINUS_40 = -804.60844201375378817
LOG_PHI_MINUS_8 = -35.013437159914549896
# Gamma(shape 6, scale 6) quantiles.
GAMMA_6_6_TABLE = {
    0.01: 10.711706911813175404,
    0.1: 18.911388178752969892,
    0.25: 25.315256298407380179,
    0.5: 34.020967132272421399,
    0.75: 44.53621101312053372,
    0.9: 55.648043360109732525,
    0.99: 78.650901916607550345,
}


def test_cdf_matches_reference_table():
    for x, want in PHI_TABLE.items():
        assert std_normal_cdf(x) == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_cdf_vectorizes():
    xs = np.array(sorted(PHI_TABLE))
    got = std_normal_cdf(xs)
    assert got.shape == xs.shape
    for x, g in zip(xs, got):
        assert g == pytest.approx(PHI_TABLE[float(x)], rel=1e-14)


def test_log_cdf_deep_tail():
    assert numerics.log_std_normal_cdf(-40.0) == pytest.approx(
        LOG_PHI_MINUS_40, rel=1e-12)
    assert numerics.log_std_normal_cdf(-8.0) == pytest.approx(
        LOG_PHI_MINUS_8, rel=1e-12)
    # Plain cdf underflows far sooner than the log form.
    assert numerics.log_std_normal_cdf(0.0) == pytest.approx(-math.log(2.0))


def test_pdf_at_zero():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                                rel=1e-14)


def test_quantile_frozen_points():
    assert std_normal_quantile(0.9) == pytest.approx(Z90, rel=1e-13)
    assert std_normal_quantile(0.025) == pytest.approx(-1.9599639845400542355,
                                                       rel=1e-13)
    assert std_normal_quantile(0.5) == 0.0


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_domain(u):
    with pytest.raises(DomainError):
        std_normal_quantile(u)


# Upper range stops at 5: beyond that, Phi(x) rounds so close to 1 that the
# round trip loses digits in the double representation itself.
@given(st.floats(min_value=-7.0, max_value=5.0))
@settings(max_examples=100)
def test_cdf_quantile_round_trip(x):
    assert std_normal_quantile(float(std_normal_cdf(x))) == pytest.approx(
        x, abs=1e-9)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=100)
def test_cdf_symmetry(x):
    assert float(std_normal_cdf(x) + std_normal_cdf(-x)) == pytest.approx(
        1.0, abs=1e-14)


def test_gamma_quantiles_frozen():
    for u, want in GAMMA_6_6_TABLE.items():
        assert gamma_inverse_cdf(u, 6.0, 6.0) == pytest.approx(want, rel=1e-12)


def test_gamma_scale_is_linear():
    base = gamma_inverse_cdf(0.5, 6.0, 1.0)
    assert gamma_inverse_cdf(0.5, 6.0, 6.0) == pytest.approx(6.0 * base, rel=1e-13)


@pytest.mark.parametrize("u,shape,scale", [
    (-0.1, 6.0, 6.0), (1.0, 6.0, 6.0), (1.5, 6.0, 6.0),
    (0.5, 0.0, 6.0), (0.5, -1.0, 6.0), (0.5, 6.0, 0.0), (0.5, 6.0, -2.0),
])
def test_gamma_domain(u, shape, scale):
    with pytest.raises(DomainError):
        gamma_inverse_cdf(u, shape, scale)


@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6),
       st.floats(min_value=0.5, max_value=20.0),
       st.floats(min_value=0.1, max_value=10.0))
@settings(max_examples=100)
def test_gamma_round_trip(u, shape, scale):
    from scipy.special import gammainc

    x = gamma_inverse_cdf(u, shape, scale)
    assert float(gammainc(shape, x / scale)) == pytest.approx(u, abs=1e-8)


# ------------------------------------------------------- matrix helpers


def char_poly_eigs(m: np.ndarray) -> np.ndarray:
    """Independent eigenvalue oracle: Faddeev-LeVerrier coefficients of the
    characteristic polynomial, roots via the companion matrix."""
    d = m.shape[0]
    coeffs = np.zeros(d + 1)
    coeffs[0] = 1.0
    mk = np.zeros_like(m)
    for k in range(1, d + 1):
        mk = m @ mk + coeffs[k - 1] * np.eye(d)
        prod = m @ mk
        coeffs[k] = -np.trace(prod) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)


def random_symmetric(rng, d: int, spread: float = 2.0) -> np.ndarray:
    a = rng.standard_normal((d, d)) * spread
    return 0.5 * (a + a.T)


def test_eigen_extremes_against_char_poly():
    rng = stream(2024, "numerics", "eig")
    for _ in range(5):
        m = random_symmetric(rng, 8)
        ex = sym_eigen_extremes(m)
        roots = char_poly_eigs(m)
        assert ex.lambda_min == pytest.approx(roots[0], rel=1e-8, abs=1e-8)
        assert ex.lambda_max == pytest.approx(roots[-1], rel=1e-8, abs=1e-8)


def test_eigen_extremes_pairs_reconstruct():
    rng = stream(2024, "numerics", "pairs")
    m = random_symmetric(rng, 12)
    ex = sym_eigen_extremes(m)
    assert np.allclose(m @ ex.v_min, ex.lambda_min * ex.v_min, atol=1e-10)
    assert np.linalg.norm(ex.v_min) == pytest.approx(1.0, abs=1e-12)


def test_eigen_sign_convention():
    ex = sym_eigen_extremes(np.diag([3.0, -1.0]))
    # The largest-magnitude entry of the eigenvector is positive.
    assert ex.v_min[np.argmax(np.abs(ex.v_min))] > 0.0
    assert ex.lambda_min == pytest.approx(-1.0)
    assert ex.lambda_max == pytest.approx(3.0)


def test_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigen_extremes(np.array([[0.0, 1.0], [0.5, 0.0]]))
    with pytest.raises(NotSymmetricError):
        sym_eigen_extremes(np.ones((2, 3)))
    with pytest.raises(NotSymmetricError):
        sym_eigen_extremes(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_operator_norm_diff_frozen():
    assert operator_norm_diff(np.diag([1.0, 3.0]), np.eye(2)) == pytest.approx(2.0)
    assert operator_norm_diff(np.eye(4), np.eye(4)) == 0.0


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_operator_norm_triangle(d, seed):
    rng = stream(seed, "numerics", "triangle")
    a = random_symmetric(rng, d)
    b = random_symmetric(rng, d)
    c = random_symmetric(rng, d)
    lhs = operator_norm_diff(a, c)
    rhs = operator_norm_diff(a, b) + operator_norm_diff(b, c)
    assert lhs <= rhs + 1e-9


def test_cholesky_exact_example():
    m = np.array([[4.0, 2.0], [2.0, 5.0]])
    want = np.array([[2.0, 0.0], [1.0, 2.0]])
    assert np.allclose(cholesky(m), want, atol=1e-15)


def test_cholesky_reports_failing_pivot():
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert err.value.pivot_index == 1
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky(np.array([[-1.0, 0.0], [0.0, 1.0]]))
    assert err.value.pivot_index == 0


def test_cholesky_matches_library():
    rng = stream(2024, "numerics", "chol")
    a = rng.standard_normal((9, 9))
    m = a @ a.T + 9 * np.eye(9)
    assert np.allclose(cholesky(m), np.linalg.cholesky(m), atol=1e-10)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_cholesky_reconstructs(d, seed):
    rng = stream(seed, "numerics", "spd")
    a = rng.standard_normal((d, d))
    m = a @ a.T + d * np.eye(d)
    lower = cholesky(m)
    assert np.allclose(lower @ lower.T, m, atol=1e-9 * d)
    assert np.allclose(np.triu(lower, 1), 0.0)


# ------------------------------------------------------------- seeding


def test_stream_reproducible_and_key_sensitive():
    a = stream(7, "x", 0).standard_normal(4)
    b = stream(7, "x", 0).standard_normal(4)
    c = stream(7, "x", 1).standard_normal(4)
    d = stream(8, "x", 0).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_rejects_empty_key():
    with pytest.raises(ValueError):
        stream()
