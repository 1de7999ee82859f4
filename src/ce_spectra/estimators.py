"""Importance-weighted estimators over Gaussian samples.

Three covariance estimators live here and must not be conflated:

* weighted_mean_cov self-normalizes by the estimated hit probability of the
  current level (the adaptive schemes' update, biased 1/n normalization);
* smooth_weighted_mean_cov self-normalizes weights whose indicator is
  relaxed to Phi(score / bandwidth) (the smoothed schemes' update);
* sigma_a_estimator uses the *known* probability and mean of the target set
  (the estimation-lab object whose sample-size behavior is under study).
  Its sum runs over hit rows alone, so it takes the size n of the batch
  its sample came from, and a caller may hand over the hit rows alone.

An estimator owns the sample it is handed and may overwrite its points, as
gauss_core.sample owns the draws it maps; a caller reads what it needs from
sample.points first.

All weight aggregation happens in log space with max-subtraction; raw
exponentials appear only at the final scale factor, so an exploding weight
becomes a recorded inf rather than a NaN cascade.

A bandwidth search evaluates the smoothed spread, ice_delta, at some 84
bandwidths on one batch. zero_weight_keys gives each row a key, which does
not depend on the bandwidth, below which its smoothed weight is sure to
round to exactly 0.0 against the batch's peak (a Chernoff bound on the row
against a Mills-ratio bound on an anchor row). With the keys sorted once,
each evaluation computes log Phi only on the rows whose key is at most the
bandwidth; the others weigh exactly 0. The scaled weights, their sum and
their dot product still run over every row in the same order, so the
spread comes out with the same bits.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .gauss_core import WeightedSample


class DegenerateSampleError(ValueError):
    """No sample point hit the set; the weighted moments do not exist."""


@dataclass(frozen=True)
class EstimationResult:
    p_hat: float
    mu_hat: np.ndarray
    sigma_hat: np.ndarray
    n_hits: int


def is_probability(sample: WeightedSample) -> float:
    """Importance-sampling probability (1/n) sum l_i xi_i."""
    if sample.size == 0:
        raise DegenerateSampleError("empty sample")
    if not np.any(sample.indicators):
        return 0.0
    lw = sample.log_ratios[sample.indicators]
    peak = float(np.max(lw))
    return numerics.exp_saturated(peak) * float(np.sum(np.exp(lw - peak))) / sample.size


def check_rho(rho: float) -> None:
    """The level fraction rho lies strictly inside (0, 1)."""
    if not 0.0 < rho < 1.0:
        raise ValueError(f"rho must lie strictly inside (0, 1), got {rho}")


def quantile_threshold(scores: np.ndarray, rho: float) -> float:
    """Level threshold: the floor((1-rho) m)-th ascending order statistic.

    The 1-based index is clamped below at 1, so rho -> 1 degrades to the
    sample minimum rather than an index error.
    """
    scores = np.asarray(scores, dtype=float)
    m = scores.shape[0]
    if m == 0:
        raise DegenerateSampleError("empty score batch")
    check_rho(rho)
    k = max(int(math.floor((1.0 - rho) * m)), 1)
    return float(np.partition(scores, k - 1)[k - 1])


def _scaled_gram(rows: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_i a_i x_i x_i^T for nonnegative weights a, the x_i being rows.

    rows is the caller's to give up: it is scaled by sqrt(a_i) in place
    into B, and the result is B^T B. NumPy sends the product of a matrix
    with its own transpose (same buffer, transposed view) to BLAS syrk,
    which computes one triangle and mirrors it: half the flops of a general
    product, and an exactly symmetric result. That exactness is NumPy's
    dispatch, not a documented guarantee; the tests pin it at the shapes
    the estimators see, and the eigen routines symmetrize anyway.
    """
    rows *= np.sqrt(a)[:, None]
    return rows.T @ rows


def _log_weight_moments(points: np.ndarray, log_w: np.ndarray, n: int):
    """Self-normalized weighted mean and covariance from log weights.

    Returns (mu, sigma, mean_weight) where mean_weight = (1/n) sum w may be
    inf when the peak log weight overflows; mu and sigma stay finite because
    the peak cancels inside the normalization. n is the batch size, which
    exceeds the number of rows when zero-weight rows were left out. points
    is overwritten (see _scaled_gram).
    """
    peak = float(np.max(log_w))
    if peak == -math.inf:
        raise DegenerateSampleError("all weights are zero")
    a = np.exp(log_w - peak)
    total = float(np.sum(a))
    mu = (a / total) @ points
    sigma = _scaled_gram(points, a) / total - np.outer(mu, mu)
    mean_weight = numerics.exp_saturated(peak) * total / n
    return mu, sigma, mean_weight


def weighted_mean_cov(sample: WeightedSample, threshold: float) -> EstimationResult:
    """Level-conditional weighted mean and covariance.

    Indicators are re-derived from the stored scores against the given
    threshold. The weights are divided by the estimated level probability
    p_hat = (1/n) sum l xi, so they sum to n exactly. Rows below the
    threshold weigh exactly 0, so the moments are formed from the hit rows
    alone.
    """
    ind = sample.scores >= threshold
    n_hits = int(np.sum(ind))
    if n_hits == 0:
        raise DegenerateSampleError(f"no scores reached threshold {threshold:.6g}")
    mu, sigma, p_hat = _log_weight_moments(sample.points[ind], sample.log_ratios[ind],
                                           sample.size)
    return EstimationResult(p_hat=float(p_hat), mu_hat=mu, sigma_hat=sigma, n_hits=n_hits)


# A log weight this far below the batch's peak has an exponential of
# exactly 0.0: exp underflows to 0 below about -745.13.
_UNDERFLOW_GAP = 746.0
# Relative slack on every term of the bounds in zero_weight_keys: it covers
# the rounding of s / b, of log Phi and of the log weights' sums.
_ROUNDING = 2.0 ** -20
# zero_weight_keys clips scores and log ratios to [-_BOX, _BOX], so that
# its products stay finite.
_BOX = 2.0 ** 250


@dataclass(frozen=True)
class ZeroWeightKeys:
    """One batch's rows in ascending order of their zero-weight key.

    At every bandwidth below keys[i], the smoothed weight of row rows[i]
    rounds to exactly 0 against the batch's peak. The keys do not depend
    on the bandwidth; a key of 0 marks a row that is always evaluated.
    """
    rows: np.ndarray
    keys: np.ndarray


def zero_weight_keys(sample: WeightedSample) -> ZeroWeightKeys:
    """Each row's zero-weight key, sorted once for a bandwidth search.

    Two bounds on log Phi(x) for x <= 0 give the keys:

    * Chernoff: log Phi(x) <= -x^2/2 - log 2;
    * Birnbaum's Mills-ratio bound, with log(1 + |x|) <= |x|:
      log Phi(x) >= -x^2/2 - |x| - log(2 pi)/2.

    The anchor j bounds the peak log weight from below: the hit with the
    largest log ratio when the batch has hits (log Phi >= -log 2 there),
    else the top score (Birnbaum). A non-hit row i is pruned at bandwidth b
    when its Chernoff bound lies more than _UNDERFLOW_GAP below the
    anchor's bound. With beta = 1/b this reads A beta^2 - B beta > c, with
    A = (s_i^2 - s_j^2)/2, B = |s_j| and c = lr_i - lr_j + _UNDERFLOW_GAP
    plus log(2 pi)/2 - log 2 without hits (s_j taken as 0 with hits). It
    holds for every beta beyond the larger root, so the key is
    2A / (B + sqrt(B^2 + 4 A c)), each term widened by _ROUNDING. Hits,
    ties with the anchor and rows with a NaN score or log ratio, or one
    above _BOX, keep key 0; so does every row when the anchor lies outside
    the box. Clipping a row's score or log ratio up to -_BOX, and raising
    c to at least 1, only lower its key.
    """
    lr, s = sample.log_ratios, sample.scores
    keys = np.zeros(sample.size)
    hit = s >= 0.0
    if np.any(hit):
        j = int(np.argmax(np.where(hit, lr, -np.inf)))
        s_j, gap = 0.0, _UNDERFLOW_GAP
    else:
        j = int(np.argmax(s))
        s_j, gap = float(s[j]), _UNDERFLOW_GAP + 0.5 * math.log(2.0 * math.pi) - math.log(2.0)
    lr_j = float(lr[j])
    if abs(lr_j) <= _BOX and s_j >= -_BOX:
        cand = np.flatnonzero((s < 0.0) & (lr <= _BOX))
        s_i = np.maximum(s[cand], -_BOX)
        lr_i = np.maximum(lr[cand], -_BOX)
        a = 0.5 * ((1.0 - _ROUNDING) * s_i * s_i - (1.0 + _ROUNDING) * s_j * s_j)
        keep = a > 0.0
        cand, a, lr_i = cand[keep], a[keep], lr_i[keep]
        b = (1.0 + _ROUNDING) * abs(s_j)
        c = np.maximum(lr_i - lr_j + gap + _ROUNDING * (np.abs(lr_i) + abs(lr_j)), 1.0)
        keys[cand] = 2.0 * a / (b + np.sqrt(b * b + 4.0 * a * c))
    rows = np.argsort(keys)
    return ZeroWeightKeys(rows=rows, keys=keys[rows])


def _log_smoothed_weights(sample: WeightedSample, bandwidth: float,
                          keys: ZeroWeightKeys | None = None):
    """(log_w, rows): log w_i = log l_i + log Phi(s_i / bandwidth), the
    smoothed weights, on the sample's rows `rows`.

    Without keys, rows is every row in order. With keys, it is the rows
    whose key is at most the bandwidth; every other weight is exactly 0.
    """
    if bandwidth <= 0.0 or not math.isfinite(bandwidth):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")
    rows = (slice(None) if keys is None
            else keys.rows[:np.searchsorted(keys.keys, bandwidth, side="right")])
    log_w = sample.log_ratios[rows] + numerics.log_std_normal_cdf(sample.scores[rows] / bandwidth)
    return log_w, rows


def smooth_weighted_mean_cov(sample: WeightedSample, bandwidth: float) -> EstimationResult:
    """Weighted moments with the indicator relaxed to Phi(score/bandwidth).

    Weights l_i Phi(s_i / bandwidth) are self-normalized by their mean, the
    smooth analogue of the level probability. n_hits counts the exact
    indicator score >= 0 for diagnostics.
    """
    log_w, _ = _log_smoothed_weights(sample, bandwidth)
    mu, sigma, norm = _log_weight_moments(sample.points, log_w, sample.size)
    return EstimationResult(p_hat=float(norm), mu_hat=mu, sigma_hat=sigma,
                            n_hits=int(np.count_nonzero(sample.indicators)))


def sigma_a_estimator(sample: WeightedSample, n: int, p: float, mu: np.ndarray) -> np.ndarray:
    """Conditional covariance estimate with known p and mu:

        Sigma-hat_A = (1/(n p)) sum l_i xi_i X_i X_i^T - mu mu^T.

    No self-normalization: the scale is the true probability, which is what
    exposes the sample-size phase transition. Rows outside the set weigh
    exactly 0, so the sum runs over sample's hit rows alone, and sample may
    hold just those: n is the size of the batch they came from, at least
    sample.size. The result is exactly symmetric.
    """
    if n <= 0 or n < sample.size:
        raise ValueError(f"batch size {n} must be positive and at least the sample's "
                         f"{sample.size} rows")
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must lie in (0, 1], got {p}")
    mu = np.asarray(mu, dtype=float)
    d = sample.dim
    if mu.shape != (d,):
        raise ValueError(f"mu must have shape ({d},)")
    ind = sample.indicators
    if not np.any(ind):
        return -np.outer(mu, mu)
    lw = sample.log_ratios[ind]
    peak = float(np.max(lw))
    scale = numerics.exp_saturated(peak) / (n * p)
    second = _scaled_gram(sample.points[ind], np.exp(lw - peak))
    second *= scale
    second -= np.outer(mu, mu)
    return second


def ice_delta(sample: WeightedSample, bandwidth: float,
              keys: ZeroWeightKeys | None = None) -> float:
    """Spread statistic sqrt(m sum w^2) / sum w of the smoothed weights.

    Weights are w_i = l_i Phi(s_i / bandwidth). Equals 1 exactly for
    constant weights and sqrt(m) when a single weight carries everything;
    by Cauchy-Schwarz it is never below 1. Returns +inf when every weight
    underflows to zero. keys, the sample's zero_weight_keys, skips log Phi
    on rows whose weight is exactly 0 and leaves the result's bits alone.
    """
    return _log_spread(*_log_smoothed_weights(sample, bandwidth, keys), sample.size)


def indicator_delta(sample: WeightedSample) -> float:
    """Same spread statistic with exact-indicator weights w_i = l_i xi_i."""
    hit = sample.indicators
    return _log_spread(sample.log_ratios[hit], hit, sample.size)


def _log_spread(log_w: np.ndarray, rows, m: int) -> float:
    """The spread of m weights, exp(log_w) on rows and exactly 0 elsewhere.

    The scaled weights, their sum and their dot product run over all m in
    row order, so the result does not depend on which zero weights the
    caller left out of rows.
    """
    peak = float(np.max(log_w, initial=-math.inf))
    if peak == -math.inf:
        return math.inf
    a = np.zeros(m)
    a[rows] = np.exp(log_w - peak)
    total = float(np.sum(a))
    return math.sqrt(m * float(a @ a)) / total


def max_weight_statistic(log_peak: float, d: int, n: int) -> float:
    """(d/n) max_i xi_i l_i, the scaled peak weight, from log_peak, its
    log_max_hit_ratio; 0 when nothing hit, inf past the double range."""
    return (d / n) * numerics.exp_saturated(log_peak)


def log_max_hit_ratio(sample: WeightedSample) -> float:
    """log max_i xi_i l_i; -inf when no indicator is set."""
    return float(np.max(sample.log_ratios, where=sample.indicators, initial=-math.inf))
