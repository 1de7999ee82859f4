"""Weighted estimators against brute-force textbook implementations that
exponentiate the weights directly."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ce_spectra.estimators import (
    DegenerateSampleError,
    _log_weight_moments,
    ice_delta,
    indicator_delta,
    is_probability,
    log_max_hit_ratio,
    max_weight_statistic,
    quantile_threshold,
    sigma_a_estimator,
    smooth_weighted_mean_cov,
    weighted_mean_cov,
)
from ce_spectra.gauss_core import WeightedSample
from ce_spectra.numerics import std_normal_cdf
from ce_spectra.seeding import stream

TAIL_5 = 2.8665157187919391167e-7
SLAB_P_K1 = 0.68268949213708589717


def make_sample(rng, n=400, d=3, hit_rate=0.5, lr_spread=0.5):
    x = rng.standard_normal((n, d))
    lr = rng.standard_normal(n) * lr_spread
    scores = rng.standard_normal(n) + std_normal_cdf(0.0) * 0.0
    scores = scores - np.quantile(scores, 1.0 - hit_rate)
    return WeightedSample(x, lr, scores)


# ---------------------------------------------------------- is_probability


def test_is_probability_matches_direct_sum():
    rng = stream(0, "est", "p")
    ws = make_sample(rng)
    want = float(np.sum(np.exp(ws.log_ratios) * ws.indicators)) / ws.size
    assert is_probability(ws) == pytest.approx(want, rel=1e-12, abs=0)


def test_is_probability_no_hits_is_zero():
    x = np.zeros((5, 2))
    ws = WeightedSample(x, np.zeros(5), -np.ones(5))
    assert is_probability(ws) == 0.0


def test_is_probability_survives_huge_log_weights():
    x = np.zeros((4, 1))
    lr = np.array([800.0, 799.0, -inf_safe(), 0.0])
    ws = WeightedSample(x, lr, np.ones(4))
    got = is_probability(ws)
    assert math.isinf(got) and got > 0.0


def inf_safe():
    # WeightedSample requires finite log ratios; use a very negative stand-in
    return -700.0


# ------------------------------------------------------ quantile_threshold


def test_quantile_threshold_small_cases():
    s = np.array([3.0, 1.0, 2.0, 4.0])
    # m=4, rho=0.25: k = floor(0.75 * 4) = 3rd ascending order statistic.
    assert quantile_threshold(s, 0.25) == 3.0
    # rho = 0.5: k = 2.
    assert quantile_threshold(s, 0.5) == 2.0
    # index clamps at 1 when rho -> 1.
    assert quantile_threshold(s, 0.999) == 1.0


def test_quantile_threshold_validation():
    with pytest.raises(DegenerateSampleError):
        quantile_threshold(np.array([]), 0.1)
    with pytest.raises(ValueError):
        quantile_threshold(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        quantile_threshold(np.array([1.0]), 1.0)


@given(st.integers(min_value=1, max_value=200),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_quantile_threshold_matches_sort(m, rho, seed):
    scores = stream(seed, "est", "q").standard_normal(m)
    k = max(int(math.floor((1.0 - rho) * m)), 1)
    assert quantile_threshold(scores, rho) == float(np.sort(scores)[k - 1])


# ------------------------------------------------------- weighted moments


def textbook_moments(x, w):
    w = w / w.sum()
    mu = w @ x
    sigma = (x * w[:, None]).T @ x - np.outer(mu, mu)
    return mu, 0.5 * (sigma + sigma.T)


def test_weighted_mean_cov_matches_textbook():
    rng = stream(1, "est", "mc")
    ws = make_sample(rng, n=600, d=4)
    res = weighted_mean_cov(ws, 0.0)
    w = np.exp(ws.log_ratios) * ws.indicators
    mu, sigma = textbook_moments(ws.points, w)
    assert np.allclose(res.mu_hat, mu, atol=1e-12)
    assert np.allclose(res.sigma_hat, sigma, atol=1e-12)
    assert res.p_hat == pytest.approx(w.sum() / ws.size, rel=1e-12, abs=0)
    assert res.n_hits == int(ws.indicators.sum())



def test_weighted_mean_cov_hit_rows_match_full_batch():
    # Rows below the threshold weigh exactly 0; dropping them before the
    # moments must agree with the full batch carrying zero weights.
    rng = stream(1, "est", "hits")
    ws = make_sample(rng, n=2000, d=5, hit_rate=0.1, lr_spread=3.0)
    threshold = float(np.quantile(ws.scores, 0.95))
    ind = ws.scores >= threshold
    log_w = np.where(ind, ws.log_ratios, -np.inf)
    mu, sigma, p_hat = _log_weight_moments(ws.points.copy(), log_w, ws.size)
    res = weighted_mean_cov(ws, threshold)
    assert np.max(np.abs(res.mu_hat - mu)) < 1e-12
    assert np.max(np.abs(res.sigma_hat - sigma)) < 1e-12
    assert res.p_hat == pytest.approx(p_hat, rel=1e-12, abs=0)
    assert res.n_hits == int(ind.sum()) == 100

def test_weighted_mean_cov_rederives_indicators():
    rng = stream(1, "est", "re")
    ws = make_sample(rng)
    hi = float(np.quantile(ws.scores, 0.9))
    res = weighted_mean_cov(ws, hi)
    assert res.n_hits == int(np.sum(ws.scores >= hi))


def test_weighted_mean_cov_zero_hits_raises():
    x = np.zeros((5, 2))
    ws = WeightedSample(x, np.zeros(5), -np.ones(5))
    with pytest.raises(DegenerateSampleError):
        weighted_mean_cov(ws, 0.0)


def test_weighted_mean_cov_huge_weights_stay_finite():
    # Peak log weight overflows exp; moments must stay finite anyway.
    rng = stream(1, "est", "huge")
    x = rng.standard_normal((50, 2))
    lr = np.linspace(0.0, 900.0, 50)
    ws = WeightedSample(x, lr, np.ones(50))
    res = weighted_mean_cov(ws, 0.0)
    assert np.all(np.isfinite(res.mu_hat))
    assert np.all(np.isfinite(res.sigma_hat))
    assert math.isinf(res.p_hat)


def test_smooth_weights_match_direct_construction():
    rng = stream(2, "est", "sm")
    ws = make_sample(rng, n=500, d=3)
    bw = 0.7
    points = ws.points.copy()  # the estimator owns the sample's points
    res = smooth_weighted_mean_cov(ws, bw)
    w = np.exp(ws.log_ratios) * std_normal_cdf(ws.scores / bw)
    mu, sigma = textbook_moments(points, np.asarray(w))
    assert np.allclose(res.mu_hat, mu, atol=1e-10)
    assert np.allclose(res.sigma_hat, sigma, atol=1e-10)


def test_smooth_weights_reach_far_tail():
    # Scores far below zero still contribute through the log CDF.
    x = np.array([[1.0], [2.0]])
    ws = WeightedSample(x, np.zeros(2), np.array([-40.0, -41.0]))
    res = smooth_weighted_mean_cov(ws, 1.0)
    assert np.all(np.isfinite(res.mu_hat))
    assert res.n_hits == 0


def test_smooth_bandwidth_validation():
    rng = stream(2, "est", "bw")
    ws = make_sample(rng, n=10)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            smooth_weighted_mean_cov(ws, bad)


# -------------------------------------------------------- sigma_a (known p)


def test_sigma_a_matches_direct_sum():
    rng = stream(3, "est", "sa")
    ws = make_sample(rng, n=400, d=3)
    p, mu = 0.37, np.array([0.2, -0.1, 0.0])
    got = sigma_a_estimator(ws, ws.size, p, mu)
    w = np.exp(ws.log_ratios) * ws.indicators
    want = (ws.points * w[:, None]).T @ ws.points / (ws.size * p) - np.outer(mu, mu)
    assert np.allclose(got, 0.5 * (want + want.T), atol=1e-12)


def test_sigma_a_reads_hit_rows_only():
    # Rows outside the set weigh exactly 0, so their points must not reach
    # the sum at all: neither a huge nor a NaN point changes a single byte.
    rng = stream(3, "est", "sa_hits")
    ws = make_sample(rng, n=400, d=3)
    p, mu = 0.37, np.array([0.2, -0.1, 0.0])
    got = sigma_a_estimator(ws, ws.size, p, mu)
    miss = ~ws.indicators
    for value in (1e6, math.nan):
        points = ws.points.copy()
        points[miss] = ws.points[miss] * value
        moved = WeightedSample(points, ws.log_ratios, ws.scores)
        assert sigma_a_estimator(moved, moved.size, p, mu).tobytes() == got.tobytes()
    assert np.array_equal(got, got.T)


def test_sigma_a_hit_rows_alone_match_whole_batch():
    # The lab hands over a batch's hit rows alone with the batch's size:
    # the same terms over the same n, so the same bytes.
    rng = stream(3, "est", "sa_alone")
    ws = make_sample(rng, n=400, d=3)
    p, mu = 0.37, np.array([0.2, -0.1, 0.0])
    hit = ws.indicators
    alone = WeightedSample(ws.points[hit], ws.log_ratios[hit], ws.scores[hit])
    want = sigma_a_estimator(ws, ws.size, p, mu)
    assert sigma_a_estimator(alone, ws.size, p, mu).tobytes() == want.tobytes()
    # A block without hits hands over no rows at all.
    empty = WeightedSample(np.empty((0, 3)), np.empty(0), np.empty(0))
    assert np.array_equal(sigma_a_estimator(empty, 50, p, mu), -np.outer(mu, mu))


def test_sigma_a_rejects_batch_smaller_than_sample():
    ws = make_sample(stream(3, "est", "sa_n"), n=10, d=2)
    for n in (0, 9):
        with pytest.raises(ValueError, match="batch size"):
            sigma_a_estimator(ws, n, 0.5, np.zeros(2))


@pytest.mark.parametrize("n,d,hit_rate", [(2000, 400, 0.5), (300, 400, 1 / 300)])
def test_moments_exactly_symmetric_at_lab_shapes(n, d, hit_rate):
    # The syrk kernel mirrors one triangle; pin that at the dimensions the
    # phase lab uses, with half the rows hitting and with a single hit row.
    rng = stream(3, "est", "sym", d, n)
    ws = make_sample(rng, n=n, d=d, hit_rate=hit_rate)
    got = sigma_a_estimator(ws, ws.size, 0.3, np.zeros(d))
    assert np.array_equal(got, got.T)
    sigma = weighted_mean_cov(ws, 0.0).sigma_hat
    assert np.array_equal(sigma, sigma.T)


def test_sigma_a_no_hits_is_negative_outer():
    x = np.zeros((5, 2))
    ws = WeightedSample(x, np.zeros(5), -np.ones(5))
    mu = np.array([1.0, 2.0])
    assert np.allclose(sigma_a_estimator(ws, ws.size, 0.5, mu), -np.outer(mu, mu))


def test_sigma_a_validation():
    rng = stream(3, "est", "sav")
    ws = make_sample(rng, n=10, d=2)
    with pytest.raises(ValueError):
        sigma_a_estimator(ws, ws.size, 0.0, np.zeros(2))
    with pytest.raises(ValueError):
        sigma_a_estimator(ws, ws.size, 1.5, np.zeros(2))
    with pytest.raises(ValueError):
        sigma_a_estimator(ws, ws.size, 0.5, np.zeros(3))


# ------------------------------------------------------- spread statistics


def test_spread_statistic_constant_weights():
    x = np.zeros((64, 1))
    ws = WeightedSample(x, np.full(64, 3.0), np.ones(64))
    assert indicator_delta(ws) == pytest.approx(1.0, rel=1e-12)


def test_spread_statistic_single_weight():
    m = 49
    x = np.zeros((m, 1))
    scores = -np.ones(m)
    scores[0] = 1.0
    ws = WeightedSample(x, np.zeros(m), scores)
    assert indicator_delta(ws) == pytest.approx(math.sqrt(m), rel=1e-12)


def test_spread_statistic_all_zero_is_inf():
    x = np.zeros((8, 1))
    ws = WeightedSample(x, np.zeros(8), -np.ones(8))
    assert indicator_delta(ws) == math.inf


def test_ice_delta_matches_direct_formula():
    rng = stream(4, "est", "d")
    ws = make_sample(rng, n=256)
    bw = 0.9
    w = np.asarray(np.exp(ws.log_ratios) * std_normal_cdf(ws.scores / bw))
    want = math.sqrt(ws.size * float(w @ w)) / float(w.sum())
    assert ice_delta(ws, bw) == pytest.approx(want, rel=1e-10)


@given(st.integers(min_value=2, max_value=300),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=100)
def test_spread_statistic_at_least_one(m, seed):
    rng = stream(seed, "est", "ge1")
    lr = rng.standard_normal(m) * 2.0
    ws = WeightedSample(np.zeros((m, 1)), lr, np.ones(m))
    assert indicator_delta(ws) >= 1.0 - 1e-12


def test_ice_delta_monotone_toward_indicator():
    # As bandwidth -> 0 the smooth spread approaches the indicator spread.
    rng = stream(4, "est", "lim")
    ws = make_sample(rng, n=512)
    small = ice_delta(ws, 1e-9)
    assert small == pytest.approx(indicator_delta(ws), rel=1e-6)


# ----------------------------------------------------- max weight statistic


def test_max_weight_statistic():
    x = np.zeros((4, 2))
    lr = np.array([0.1, 2.0, 5.0, -1.0])
    scores = np.array([1.0, 1.0, -1.0, 1.0])
    ws = WeightedSample(x, lr, scores)
    # Largest hitting log ratio is 2.0; the 5.0 entry missed the set.
    assert max_weight_statistic(log_max_hit_ratio(ws), d=10, n=100) == pytest.approx(
        0.1 * math.exp(2.0), rel=1e-12, abs=0)
    assert log_max_hit_ratio(ws) == pytest.approx(2.0)
    # A log peak past the double range saturates to inf instead of raising.
    assert max_weight_statistic(800.0, d=10, n=100) == math.inf


def test_max_weight_statistic_no_hits():
    x = np.zeros((3, 1))
    ws = WeightedSample(x, np.zeros(3), -np.ones(3))
    assert max_weight_statistic(log_max_hit_ratio(ws), d=2, n=10) == 0.0
    assert log_max_hit_ratio(ws) == -math.inf


# ------------------------------------------------- statistical calibration


def test_is_probability_slab_calibrated():
    # Standard-normal proposal, slab event: weights are all one, so the
    # estimator is exact binomial Monte Carlo.
    n = 200000
    rng = stream(5, "est", "cal")
    x = rng.standard_normal((n, 1))
    scores = 1.0 - np.abs(x[:, 0])
    ws = WeightedSample(x, np.zeros(n), scores)
    got = is_probability(ws)
    se = math.sqrt(SLAB_P_K1 * (1.0 - SLAB_P_K1) / n)
    assert abs(got - SLAB_P_K1) < 4.0 * se


def test_is_probability_importance_sampled_tail():
    # Shifted proposal N(5, 1) for the 5-sigma tail of a single coordinate:
    # the tail probability estimate must match the frozen truth within CLT.
    n = 100000
    rng = stream(5, "est", "tail")
    y = rng.standard_normal(n) + 5.0
    lr = 0.5 * ((y - 5.0) ** 2 - y ** 2)  # log f/g, both unit variance
    scores = y - 5.0
    ws = WeightedSample(y[:, None], lr, scores)
    got = is_probability(ws)
    w = np.exp(lr) * (scores >= 0.0)
    se = float(np.std(w)) / math.sqrt(n)
    assert abs(got - TAIL_5) < 4.0 * se
    assert got == pytest.approx(TAIL_5, rel=0.05)
