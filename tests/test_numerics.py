"""Scalar special functions and the matrix helpers, against independent
oracles: high-precision reference values frozen from mpmath, and a
characteristic-polynomial eigensolver that shares no code with eigh."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.special import ndtr

from ce_spectra import numerics
from ce_spectra.numerics import (
    PIVOT_RTOL,
    SYM_RTOL,
    NotPositiveDefiniteError,
    NotSymmetricError,
    cholesky,
    gamma_inverse_cdf,
    operator_norm_diff,
    require_symmetric,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_tail,
    sym_eigen_extremes,
    sym_eigenvalues,
)
from ce_spectra.seeding import key_word, stream

EPS = np.finfo(float).eps

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
        assert g == pytest.approx(PHI_TABLE[float(x)], rel=1e-14, abs=0)


def test_tail_matches_reference_table_and_scipy():
    # The stdlib erfc against the mpmath table and scipy's ndtr. Past x = 8
    # the rounded argument x / sqrt(2) costs digits, so the deep-tail bound
    # is looser; it stops where ndtr leaves the normal double range.
    for x, want in PHI_TABLE.items():
        assert std_normal_tail(-x) == pytest.approx(want, rel=1e-14, abs=0)
    xs = np.linspace(-8.0, 8.0, 3201)
    assert [std_normal_tail(-x) for x in xs] == pytest.approx(ndtr(xs), rel=2e-14, abs=0)
    deep = np.linspace(-37.5, -8.0, 5901)
    deep = deep[ndtr(deep) > 1e-300]
    assert [std_normal_tail(-x) for x in deep] == pytest.approx(ndtr(deep), rel=1e-12, abs=0)


def test_log_cdf_deep_tail():
    assert numerics.log_std_normal_cdf(-40.0) == pytest.approx(
        LOG_PHI_MINUS_40, rel=1e-12)
    assert numerics.log_std_normal_cdf(-8.0) == pytest.approx(
        LOG_PHI_MINUS_8, rel=1e-12)
    # Plain cdf underflows far sooner than the log form.
    assert numerics.log_std_normal_cdf(0.0) == pytest.approx(-math.log(2.0))


def test_pdf_at_zero():
    assert std_normal_pdf(0.0) == pytest.approx(1.0 / math.sqrt(2.0 * math.pi),
                                                rel=1e-14, abs=0)


def test_quantile_frozen_points():
    assert std_normal_quantile(0.9) == pytest.approx(Z90, rel=1e-13, abs=0)
    assert std_normal_quantile(0.025) == pytest.approx(-1.9599639845400542355,
                                                       rel=1e-13, abs=0)
    assert std_normal_quantile(0.5) == 0.0


@pytest.mark.parametrize("u", [0.0, 1.0, -0.1, 1.1, math.nan])
def test_quantile_domain(u):
    with pytest.raises(ValueError, match="strictly inside"):
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
    with pytest.raises(ValueError, match="strictly inside|must be positive"):
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


def test_sym_eigenvalues_match_eigh():
    rng = stream(2024, "numerics", "eigvals")
    for d in (1, 5, 40):
        m = random_symmetric(rng, d)
        want = np.linalg.eigh(m)[0]
        got = sym_eigenvalues(m)
        assert got.shape == (d,)
        assert np.all(np.diff(got) >= 0.0)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    # Symmetric only within SYM_RTOL: the eigenvalues of the symmetric part.
    near = m.copy()
    near[0, -1] += 0.5 * SYM_RTOL * np.max(np.abs(m))
    sym = 0.5 * (near + near.T)
    assert sym_eigenvalues(near).tobytes() == np.linalg.eigvalsh(sym).tobytes()


def test_sym_eigenvalues_rejects_bad_input():
    with pytest.raises(NotSymmetricError):
        sym_eigenvalues(np.ones((2, 3)))
    with pytest.raises(NotSymmetricError):
        sym_eigenvalues(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(NotSymmetricError):
        sym_eigenvalues(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_require_symmetric_tolerance():
    rng = stream(2024, "numerics", "symcheck")
    m = random_symmetric(rng, 6)
    assert require_symmetric(m) is m
    # Asymmetric within SYM_RTOL of the largest entry: still accepted.
    scale = np.max(np.abs(m))
    near = m.copy()
    near[0, 1] += 0.5 * SYM_RTOL * scale
    assert not np.array_equal(near, near.T)
    assert require_symmetric(near) is near
    far = m.copy()
    far[0, 1] += 1e3 * SYM_RTOL * scale
    with pytest.raises(NotSymmetricError):
        require_symmetric(far)


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



def test_cholesky_pivot_tolerance_beyond_lapack():
    # Positive definite, so LAPACK factors it, but the second pivot is below
    # PIVOT_RTOL times the mean diagonal.
    m = np.diag([1.0, 1e-14])
    _, info = lapack.dpotrf(m, lower=1)
    assert info == 0
    with pytest.raises(NotPositiveDefiniteError) as err:
        cholesky(m)
    assert err.value.pivot_index == 1
    assert err.value.value == pytest.approx(1e-14, rel=1e-12, abs=0)
    assert err.value.tol == pytest.approx(PIVOT_RTOL * (1.0 + 1e-14) / 2.0, rel=1e-12, abs=0)


def rank_deficient(d: int, seed: int) -> tuple[int, np.ndarray]:
    """(rank, b b^T) for a Gaussian (d, rank) matrix b, 1 <= rank < d."""
    rng = stream(seed, "numerics", "rank")
    rank = int(rng.integers(1, d))
    b = rng.standard_normal((d, rank))
    m = b @ b.T
    return rank, 0.5 * (m + m.T)


def first_unclear_pivot(m: np.ndarray) -> tuple[int, float, float, float]:
    """(j, pivot, bound, tol) at the first pivot of the textbook column loop
    that is not above tolerance by more than its rounding bound.

    A computed Cholesky factor is the exact one of m + E with
    |E| <= gamma_{d+1} |L| |L^T| (Higham, Thm 10.3), and |L| |L^T| is at most
    r r^T with r = sqrt(diag m). Through the Schur complement, pivot j then
    lies within gamma_{d+1} (r_j + |x| . r_{<j})^2 of m's exact pivot, where
    x solves m_{<j,<j} x = m_{<j,j}. Any two factorizations, this loop and
    LAPACK's ``dpotrf`` included, so agree on a pivot's side of the
    tolerance unless it lies within twice that bound.
    """
    d = m.shape[0]
    tol = PIVOT_RTOL * max(float(np.trace(m)), 0.0) / d
    gamma = (d + 1) * EPS / (1.0 - (d + 1) * EPS)
    r = np.sqrt(np.abs(np.diagonal(m)))
    lower = np.zeros_like(m)
    for j in range(d):
        pivot = m[j, j] - lower[j, :j] @ lower[j, :j]
        x = np.linalg.solve(m[:j, :j], m[:j, j]) if j else np.zeros(0)
        bound = 2.0 * gamma * (r[j] + np.abs(x) @ r[:j]) ** 2
        if not pivot > tol + bound:
            return j, pivot, bound, tol
        lower[j, j] = math.sqrt(pivot)
        lower[j + 1:, j] = (m[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / lower[j, j]
    raise AssertionError("every pivot is clearly above tolerance")


# (d, seed) of rank-deficient matrices whose pivot after the rank is
# rounding noise that reaches PIVOT_RTOL: b's leading rank x rank block has
# a condition number of 136 to 1600, and the noise grows with its square.
# With the OpenBLAS that NumPy and SciPy bundle, the loop and ``cholesky``
# stopped at different pivots (11, 41192: loop at 4, ``cholesky`` at 3;
# 5, 1020: loop 3, ``cholesky`` 4), or ``cholesky`` accepted every pivot
# (4, 640 and 5, 23). Both answers are within rounding.
CHOLESKY_NOISE_CASES = [(11, 41192), (5, 1020), (4, 640), (5, 23)]


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=50)
@example(11, 41192)
@example(5, 1020)
@example(4, 640)
@example(5, 23)
def test_cholesky_fails_where_the_loop_fails(d, seed):
    # Rank-deficient positive semidefinite matrices: the pivot after the rank
    # is rounding noise. Where the loop's pivot is below tolerance by more
    # than its rounding bound, ``cholesky`` fails exactly there; within the
    # bound either answer is right, but no pivot clearly above tolerance
    # may fail.
    rank, m = rank_deficient(d, seed)
    j, pivot, bound, tol = first_unclear_pivot(m)
    assert j <= rank
    if pivot <= tol - bound:
        with pytest.raises(NotPositiveDefiniteError) as err:
            cholesky(m)
        assert err.value.pivot_index == j
        return
    try:
        cholesky(m)
    except NotPositiveDefiniteError as err:
        assert err.pivot_index >= j


@pytest.mark.parametrize("d,seed", CHOLESKY_NOISE_CASES)
def test_cholesky_noise_cases_lie_within_rounding(d, seed):
    # PIVOT_RTOL sits below the rounding noise of these inputs: the pivot
    # after the rank is within its rounding bound of the tolerance.
    rank, m = rank_deficient(d, seed)
    j, pivot, bound, tol = first_unclear_pivot(m)
    assert j == rank
    assert tol - bound < pivot <= tol + bound
    assert bound > tol


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


def test_stream_rejects_integer_key_outside_32_bits():
    # Masking would alias -1 with 2^32 - 1 and 2^32 with 0; both edges of
    # the range still draw.
    for part in (-1, 2 ** 32):
        with pytest.raises(ValueError, match=r"\[0, 2\^32\)"):
            stream(part, "x")
    assert key_word(0) == 0 and key_word(2 ** 32 - 1) == 2 ** 32 - 1
    # In-range keys keep the draws they gave when integers were masked.
    assert stream(2 ** 32 - 1, "x", 0).standard_normal(2).tolist() == [
        -1.6270920357942937, -1.0061719624463867]
    assert stream(0, "phase", "slab", 7).standard_normal(2).tolist() == [
        0.20635644466931455, -0.21956312592735858]


def test_stream_takes_integer_key_components_only():
    # Truncating would make stream(1.5) draw the bytes of stream(1).
    for part in (1.5, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            stream(part, "x")
    # NumPy integers are integers: same word, same stream.
    assert key_word(np.int64(3)) == 3
    assert np.array_equal(stream(np.int64(3), "x", np.uint32(1)).standard_normal(4),
                          stream(3, "x", 1).standard_normal(4))
