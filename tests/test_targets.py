"""Score functions and their closed-form conditionals, checked against
frozen high-precision constants and plain Monte Carlo."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from ce_spectra.gauss_core import GaussianLaw, SpikedCovariance, sample
from ce_spectra.phase_lab import prop_range_width
from ce_spectra.seeding import stream
from ce_spectra.targets import (
    TABLE_SIZES,
    benchmark_target,
    count_target,
    halfspace_target,
    linear_target,
    quadratic_target,
    slab_target,
)

# mpmath, 30 significant digits.
TAIL_5 = 2.8665157187919391167e-7
SLAB_P_K1 = 0.68268949213708589717
SLAB_VAR_K1 = 0.29112509477279321119
HS_MEAN_K0 = 0.79788456080286535588
HS_VAR_K0 = 0.36338022763241865692
Z90 = 1.281551565544600467
HS_MEAN_Z90 = 1.7549833193248680663


# ------------------------------------------------------------ benchmarks


def test_linear_values_and_reference():
    t = linear_target(100)
    assert t.dim == 100 and t.name == "lin"
    assert t.reference_p == pytest.approx(TAIL_5, rel=1e-12, abs=0)
    x = np.stack([np.zeros(100), np.full(100, 0.5)])
    assert t(x) == pytest.approx([-5.0, 0.5 * math.sqrt(100) - 5.0])


def test_quadratic_values():
    t = quadratic_target(d=4)
    x = np.array([[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
    # <x, 1>/sqrt(d) - 4 - 1.25 (x_1 - x_2)^2
    assert t(x) == pytest.approx([0.5 - 4.0 - 1.25, -4.0])
    assert benchmark_target("quad").reference_p == 6.6206e-6


def test_quadratic_reference_by_quadrature():
    # The score depends on the independent pair z = <x, 1>/sqrt(d) ~ N(0, 1)
    # and w = x_1 - x_2 ~ N(0, 2), so p = E_w[Phi(-(4 + 1.25 w^2))].
    def integrand(w):
        density = math.exp(-0.25 * w * w) / math.sqrt(4.0 * math.pi)
        return special.ndtr(-(4.0 + 1.25 * w * w)) * density

    p, _ = integrate.quad(integrand, -math.inf, math.inf, epsabs=0.0, epsrel=1e-12)
    assert p == pytest.approx(6.6206e-6, rel=1e-4)
    assert benchmark_target("quad").reference_p == pytest.approx(p, rel=0.01)


def test_count_values():
    d = 9
    t = count_target(d=d)
    # Row 0 is x = 0: s(0) = sqrt(gamma median), every inner term 0 < 0.5 sqrt(d).
    # Row 1: huge positive coordinates push every count to one.
    x = np.stack([np.zeros(d), np.full(d, 40.0)])
    assert t(x) == pytest.approx([-(0.25 * d + 0.1), (d - 2) - (0.25 * d + 0.1)])
    assert benchmark_target("fin").reference_p == 1.7348e-6
    # The reference holds at the published dimension only.
    assert t.reference_p is None


def count_probability_by_quadrature(d: int, nodes: int = 200) -> float:
    """P(phi >= 0) of the fin score under the standard normal.

    Given (x_1, x_2), the d - 2 indicators are independent with success
    probability p_j = P(0.25 x_1 + c x_j >= 0.5 sqrt(d) s(x_2)) =
    Phi((0.25 x_1 - 0.5 sqrt(d) s) / c), c = 3 sqrt(1 - 0.0625), where s^2
    is the Gamma(shape 6, rate 6) quantile at Phi(x_2). The event is a
    Binomial(d - 2, p_j) count of at least ceil(0.25 d + 0.1); Gauss-Hermite
    quadrature integrates its tail over (x_1, x_2).
    """
    nodes_1d, weights = np.polynomial.hermite_e.hermegauss(nodes)
    weights = weights / math.sqrt(2.0 * math.pi)
    x1, x2 = np.meshgrid(nodes_1d, nodes_1d, indexing="ij")
    s = np.sqrt(special.gammaincinv(6.0, special.ndtr(x2)) / 6.0)
    c = 3.0 * math.sqrt(1.0 - 0.0625)
    p_j = special.ndtr((0.25 * x1 - 0.5 * math.sqrt(d) * s) / c)
    tail = stats.binom.sf(math.ceil(0.25 * d + 0.1) - 1, d - 2, p_j)
    return float(np.sum(np.outer(weights, weights) * tail))


def test_count_reference_by_quadrature():
    d = TABLE_SIZES["fin"][0]
    p = count_probability_by_quadrature(d)
    assert p == pytest.approx(1.73484e-6, rel=1e-4)
    assert count_probability_by_quadrature(d, nodes=300) == pytest.approx(p, rel=1e-6, abs=0)
    assert count_target(d).reference_p == pytest.approx(p, rel=0.01)


@pytest.mark.parametrize("d", [8, 12])
def test_count_score_matches_quadrature_by_monte_carlo(d):
    # At small d the event is common, so plain Monte Carlo pins the code's
    # score to the formula the quadrature integrates.
    n = 200000
    x = stream(0, "targets", "fin_mc", d).standard_normal((n, d))
    hits = float(np.mean(count_target(d)(x) >= 0.0))
    want = count_probability_by_quadrature(d)
    assert hits == pytest.approx(want, abs=4.0 * math.sqrt(want * (1.0 - want) / n))


def test_count_monotone_in_tail_coordinates():
    d = 12
    t = count_target(d=d)
    rng = stream(0, "targets", "mono")
    x = rng.standard_normal((1, d))
    lifted = x.copy()
    lifted[0, 5] = 50.0
    assert t(lifted)[0] >= t(x)[0]


def test_count_survives_extreme_conditioning_coordinate():
    d = 5
    t = count_target(d=d)
    x = np.zeros((2, d))
    x[0, 1] = 50.0  # Phi saturates to 1; the gamma quantile must stay finite
    x[1, 1] = -50.0
    assert np.all(np.isfinite(t(x)))


def test_dimension_checks():
    # Scores take (n, d) batches only.
    for bad in (np.zeros(7), np.zeros((1, 7)), np.zeros(100), np.zeros((1, 1, 100))):
        with pytest.raises(ValueError):
            linear_target(100)(bad)
    with pytest.raises(ValueError):
        quadratic_target(d=1)
    with pytest.raises(ValueError):
        count_target(d=2)


def test_benchmark_registry():
    for name, (d, _) in TABLE_SIZES.items():
        t = benchmark_target(name)
        assert t.dim == d and t.name == name
    assert benchmark_target("lin", d=10).dim == 10
    with pytest.raises(ValueError):
        benchmark_target("nope")


# ------------------------------------------------- slab and halfspace


def test_slab_frozen_constants():
    t = slab_target(3, 1.0)
    a = t.analytic
    assert t.reference_p == pytest.approx(SLAB_P_K1, rel=1e-12, abs=0)
    assert a.sigma.lambdas[0] == pytest.approx(SLAB_VAR_K1, rel=1e-12, abs=0)
    assert np.array_equal(a.mu, np.zeros(3))
    assert t(np.array([[0.5, 9.0, 9.0], [-2.0, 0.0, 0.0]])) == pytest.approx([0.5, -1.0])
    # Below half-width 1, erf and the series of the integral of x^2 phi keep
    # every digit that 2 Phi(K) - 1 and 1 - 2 K phi(K) / p lose to
    # cancellation (mpmath, 60 digits; 800 at 1e-150, where K^3 underflows).
    for width, p, variance in ((1e-150, 7.9788456080286535588e-151, 3.3333333333333333333e-301),
                               (1e-8, 7.9788456080286534258e-9, 3.3333333333333332889e-17),
                               (1e-3, 7.9788442782212516918e-4, 3.3333328888889100529e-7),
                               (0.5, 0.38292492254802620728, 0.080589154600811698428),
                               # Near 1 the series needs its terms: 12 miss by 1e-13.
                               (0.999, 0.68220530871736342784, 0.29062269268247388362)):
        slab = slab_target(2, width)
        assert slab.reference_p == pytest.approx(p, rel=1e-14, abs=0)
        assert slab.analytic.sigma.lambdas[0] == pytest.approx(variance, rel=1e-14, abs=0)


def test_halfspace_frozen_constants():
    t = halfspace_target(3, 0.0)
    a = t.analytic
    assert t.reference_p == pytest.approx(0.5, rel=1e-14, abs=0)
    assert a.mu[0] == pytest.approx(HS_MEAN_K0, rel=1e-12, abs=0)
    assert a.sigma.lambdas[0] == pytest.approx(HS_VAR_K0, rel=1e-12, abs=0)
    t90 = halfspace_target(2, Z90)
    assert t90.reference_p == pytest.approx(0.1, rel=1e-12, abs=0)
    assert t90.analytic.mu[0] == pytest.approx(HS_MEAN_Z90, rel=1e-12)
    # From offset 3 on the continued fraction keeps every digit, which the
    # direct variance 1 - h (h - K) loses to cancellation (mpmath, 40 digits).
    for offset, mean, variance in ((3.0, 3.2830986549304365069, 0.070559186785268116862),
                                   (8.0, 8.1213681122361126807, 0.014324883443340910176),
                                   (20.0, 20.049753068527850542, 0.0024632616150521635997),
                                   (30.0, 30.033259667433677037, 0.0011037715118900910011)):
        hs = halfspace_target(2, offset).analytic
        assert hs.mu[0] == pytest.approx(mean, rel=1e-14, abs=0)
        assert hs.sigma.lambdas[0] == pytest.approx(variance, rel=1e-14, abs=0)


def test_conditional_moments_match_monte_carlo():
    # Estimate the conditional moments by brute force under f.
    n = 10 ** 6
    rng = stream(1, "targets", "mc")
    x = rng.standard_normal(n)

    slab = slab_target(1, 1.0)
    hit = np.abs(x) <= 1.0
    assert hit.mean() == pytest.approx(slab.reference_p, rel=5e-3)
    assert x[hit].var() == pytest.approx(slab.analytic.sigma.lambdas[0], rel=1e-2)

    hs = halfspace_target(1, 0.0)
    hit = x >= 0.0
    assert hit.mean() == pytest.approx(hs.reference_p, rel=5e-3)
    assert x[hit].mean() == pytest.approx(hs.analytic.mu[0], rel=1e-2)
    assert x[hit].var() == pytest.approx(hs.analytic.sigma.lambdas[0], rel=1e-2)


def test_hit_probability_under_spiked_law():
    # q_of against the exact normal computation for a scaled u-marginal.
    d = 4
    u = np.zeros(d)
    u[0] = 1.0
    t = halfspace_target(d, 1.0)
    g = SpikedCovariance(lambdas=np.array([0.25]), directions=u[None, :])
    # Var along u is 0.25, so q = 1 - Phi(1 / 0.5) = Phi(-2).
    from ce_spectra.numerics import std_normal_cdf

    assert t.analytic.q_of(g) == pytest.approx(float(std_normal_cdf(-2.0)), rel=1e-12, abs=0)

    s = slab_target(d, 1.0)
    q = s.analytic.q_of(g)
    assert q == pytest.approx(float(2.0 * std_normal_cdf(2.0) - 1.0), rel=1e-12, abs=0)

    # Under the standard law (a unit spike on u), q is p bit for bit.
    standard = SpikedCovariance(lambdas=np.array([1.0]), directions=u[None, :])
    for target in (s, slab_target(d, prop_range_width(1.0, 0.5, 1000)), t):
        assert target.analytic.q_of(standard) == target.reference_p


def test_hit_probability_spike_off_axis_empirical():
    d = 3
    rng = stream(2, "targets", "q")
    qmat, _ = np.linalg.qr(rng.standard_normal((d, 1)))
    v = qmat.T
    g = SpikedCovariance(lambdas=np.array([0.5]), directions=v)
    t = halfspace_target(d, 0.5)
    want = t.analytic.q_of(g)
    x = sample(GaussianLaw.with_spiked(g, None),
               stream(2, "targets", "qs").standard_normal((400000, d)))
    got = float(np.mean(t(x) >= 0.0))
    assert got == pytest.approx(want, abs=4.0 * math.sqrt(want * (1 - want) / 400000))


def test_width_and_offset_validation():
    with pytest.raises(ValueError):
        slab_target(2, 0.0)
    with pytest.raises(ValueError):
        halfspace_target(2, math.inf)
    # A hit probability below the normal range is refused, subnormal (38) or
    # rounded to 0 (39); the largest accepted offset is about 37.52.
    for offset in (38.0, 39.0):
        with pytest.raises(ValueError, match=f"halfspace offset {offset} gives hit probability "
                                             r".*, below the normal float range"):
            halfspace_target(3, offset)
    assert 1e-308 < halfspace_target(3, 37.5).reference_p < 1e-306
    with pytest.raises(ValueError, match="slab half-width 1e-310 gives hit probability "
                                         r".*, below the normal float range"):
        slab_target(3, 1e-310)
    assert slab_target(3, 1e-16).reference_p == pytest.approx(8.0e-17, rel=1e-2)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_scores_depend_only_on_projection(seed):
    # phi(x) = phi(P x) for the slab and halfspace scores with u = e1.
    rng = stream(seed, "targets", "proj")
    d = 4
    x = rng.standard_normal((1, d))
    y = x.copy()
    y[0, 1:] = rng.standard_normal(3)
    slab = slab_target(d, 1.5)
    hs = halfspace_target(d, 0.7)
    assert slab(x) == pytest.approx(slab(y), rel=1e-13, abs=1e-13)
    assert hs(x) == pytest.approx(hs(y), rel=1e-13, abs=1e-13)


# ------------------------------------------------------ prop_range_width


def test_prop_range_width_values():
    assert prop_range_width(1.0, 0.5, round(math.e ** 2)) == pytest.approx(
        1.0 + math.sqrt(2.0 * 0.5 * math.log(round(math.e ** 2))), rel=1e-12)
    # alpha lambda1 log n = 1 gives K = 1 + sqrt(2).
    n = round(math.e ** 2)
    assert prop_range_width(1.0, 0.5, n) == pytest.approx(
        1.0 + math.sqrt(math.log(n)), rel=1e-12)
    assert prop_range_width(0.0, 0.5, 100) == 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.01, max_value=1.0),
       st.integers(min_value=2, max_value=10 ** 9))
@settings(max_examples=100)
def test_prop_range_width_monotone_in_alpha(alpha, lambda1, n):
    k = prop_range_width(alpha, lambda1, n)
    assert k >= 1.0
    assert prop_range_width(1.0, lambda1, n) >= k
