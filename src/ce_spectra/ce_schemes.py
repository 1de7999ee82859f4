"""Adaptive importance-sampling schemes over Gaussian sampling laws.

Four variants run one iteration, ``iterate``:

* ce        : multilevel scheme, dense covariance updates;
* ce_proj   : same levels, covariance projected onto one learned direction;
* ice       : smoothed indicator with adaptive bandwidth, dense updates;
* ice_proj  : smoothed indicator with projected covariance.

Only the level stage depends on the scheme. It draws a fresh batch and sets
the level: the rho-quantile threshold of the scores (ce, ce_proj), or the
bandwidth of the smoothed indicator tuned to the target weight spread (ice,
ice_proj), once the stop criterion has been checked on that batch. The
update is shared: an independent fresh batch, the level-conditional
weighted mean and covariance, their checks, and the next law, dense or
projected. A run either converges (level threshold reaches 0, or the
exact-indicator weight spread falls below target), hits the iteration
budget, or diverges: in the smoothed level stage when no bandwidth gives
a finite spread, or in the update on zero hits (or smoothed weights that
all underflow), a non-finite statistic, Cholesky failure of the dense
update, a collapsed projection, or a top eigenvalue past the configured
cap; the update's failures share one exit. A hard-threshold level of 0
converges the run, so a failure of that iteration's discarded update shows
in its trace alone. Diverged runs keep their last
usable law so a probability estimate is still recorded, mirroring how
failed repetitions are reported rather than discarded.

Batches read only for scores and log ratios draw the target's decisive
coordinates when it has them (``LimitState.decisive``): the hard level
stage for every law, the smoothed level stage and the final estimate for
spiked laws, whose ratio reads a few coordinates too. The
learn batch is always drawn in full, since the update needs points in R^d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .estimators import (
    DegenerateSampleError,
    ZeroWeightKeys,
    check_rho,
    indicator_delta,
    ice_delta,
    is_probability,
    quantile_threshold,
    smooth_weighted_mean_cov,
    weighted_mean_cov,
    zero_weight_keys,
)
from .gauss_core import (
    CollapsedEstimateError,
    GaussianLaw,
    WeightedSample,
    log_ratio_from_rows,
    log_ratio_to_standard,
    proj_r,
    ratio_rows,
    sample,
    sample_rows,
)
from .seeding import stream
from .targets import LimitState

SCHEMES = ("ce", "ce_proj", "ice", "ice_proj")
STRATEGIES = ("none", "eig_min", "mean")

BANDWIDTH_FLOOR = 1e-6
BANDWIDTH_LOG_TOL = 1e-4
BANDWIDTH_GRID = 64
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class SchemeConfig:
    scheme: str
    strategy: str = "none"
    rho: float = 0.1
    delta_target: float = 1.5
    m: int = 5000
    n: int = 5000
    n_p: int = 2000
    t_max: int = 30
    divergence_lambda_cap: float = 1e6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.projected and self.strategy == "none":
            raise ValueError(f"scheme {self.scheme!r} needs a direction strategy")
        if not self.projected and self.strategy != "none":
            raise ValueError(f"scheme {self.scheme!r} does not take a direction strategy")
        check_rho(self.rho)
        if not 1.0 <= self.delta_target < math.inf:
            raise ValueError(f"delta_target must lie in [1, inf), got {self.delta_target}")
        for name in ("m", "n"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        for name in ("n_p", "t_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not self.divergence_lambda_cap > 0.0:
            raise ValueError("divergence_lambda_cap must be positive")

    @property
    def projected(self) -> bool:
        return self.scheme.endswith("_proj")

    @property
    def smoothed(self) -> bool:
        return self.scheme.startswith("ice")


@dataclass(frozen=True)
class IterationTrace:
    q_or_sigma: float
    p_hat_t: float
    lambda_min_proj: float
    lambda_max_raw: float
    diverged: bool
    n_hits: int


@dataclass(frozen=True)
class RunResult:
    p_hat: float
    traces: tuple[IterationTrace, ...]
    converged: bool

    @property
    def iterations_used(self) -> int:
        return len(self.traces)

    @property
    def diverged(self) -> bool:
        """False for a converged run, even where its discarded last update failed."""
        return not self.converged and bool(self.traces) and self.traces[-1].diverged

    @property
    def lambda_min_floor(self) -> float:
        """The smallest finite lambda_min of the sampling laws that entered
        the non-diverged iterations; 0.0 when there is none."""
        return min((tr.lambda_min_proj for tr in self.traces
                    if not tr.diverged and math.isfinite(tr.lambda_min_proj)), default=0.0)


def select_direction(extremes: numerics.EigenExtremes, mu_hat: np.ndarray,
                     strategy: str) -> np.ndarray:
    """Single projection direction from the raw update (mu_hat, sigma_hat).

    extremes are sigma_hat's eigen-extremes. eig_min takes the eigenvector
    of the smallest eigenvalue (the axis the estimate is collapsing along);
    mean takes mu_hat normalized, which is scale free by construction.
    """
    if strategy == "eig_min":
        return extremes.v_min
    if strategy == "mean":
        norm = float(np.linalg.norm(mu_hat))
        if norm == 0.0:
            raise CollapsedEstimateError("mean strategy needs a nonzero mean vector")
        return np.asarray(mu_hat, dtype=float) / norm
    raise ValueError(f"no direction strategy {strategy!r}")


def _next_law(est, cfg: SchemeConfig, extremes: numerics.EigenExtremes) -> GaussianLaw:
    """Build the next sampling law; exceptions signal divergence upstream."""
    if cfg.projected:
        v = select_direction(extremes, est.mu_hat, cfg.strategy)
        spiked = proj_r(est.sigma_hat, v)
        return GaussianLaw.with_spiked(spiked, mean=est.mu_hat)
    return GaussianLaw.dense(est.mu_hat, est.sigma_hat, extremes)


def _weighted_batch(law: GaussianLaw, size: int, rng: np.random.Generator,
                    target: LimitState) -> WeightedSample:
    """size fresh points from the law with their log ratios and scores.

    The draws' squared norms are taken before sample writes the points over
    them, so the batch is held once.
    """
    z = rng.standard_normal((size, law.dim))
    z_sq = np.einsum("ij,ij->i", z, z)
    x = sample(law, z)
    return WeightedSample(x, log_ratio_to_standard(law, x, z_sq), target(x))


def _level_scores(law: GaussianLaw, size: int, rng: np.random.Generator,
                  target: LimitState) -> np.ndarray:
    """size fresh scores from the law: of its draws' decisive coordinates
    when the target has them, else of full points."""
    dec = target.decisive
    if dec is None:
        return target(sample(law, rng.standard_normal((size, law.dim))))
    return dec.score(sample_rows(law, dec.rows, size, rng))


def _ratio_batch(law: GaussianLaw, size: int, rng: np.random.Generator,
                 target: LimitState) -> WeightedSample:
    """size fresh log ratios and scores from the law, for a caller that
    reads nothing else. For a target with decisive rows and a spiked law,
    the draws are the coordinates along those rows and along the rows that
    fix the ratio, which are the sample's points; a dense law's ratio reads
    every coordinate, so it draws full points."""
    dec = target.decisive
    if dec is None or law.dense_chol is not None:
        return _weighted_batch(law, size, rng, target)
    k = dec.rows.shape[0]
    y = sample_rows(law, np.concatenate([dec.rows, ratio_rows(law)]), size, rng)
    return WeightedSample(y, log_ratio_from_rows(law, y[:, k:]), dec.score(y[:, :k]))


def bandwidth_objective(sample_: WeightedSample, bandwidth: float, delta_target: float,
                        keys: ZeroWeightKeys | None = None) -> float:
    value = ice_delta(sample_, bandwidth, keys)
    if not math.isfinite(value):
        return math.inf
    return (value - delta_target) ** 2


def optimize_bandwidth(sample_: WeightedSample, sigma_hi: float,
                       delta_target: float) -> float | None:
    """Bandwidth minimizing (spread - target)^2 over (BANDWIDTH_FLOOR, sigma_hi].

    A BANDWIDTH_GRID-point log-grid scan brackets the best cell, then
    golden-section refines inside it to BANDWIDTH_LOG_TOL in log bandwidth;
    the returned value never exceeds sigma_hi, except that a ceiling at or
    below BANDWIDTH_FLOOR gives the floor itself. None signals that the
    objective is infinite everywhere or that sigma_hi is not finite (no
    usable bandwidth). The sample's zero-weight keys are sorted once, so
    each evaluation skips log Phi on the rows whose weight is exactly 0.
    """
    floor = BANDWIDTH_FLOOR
    if not math.isfinite(sigma_hi):
        return None
    if sigma_hi <= floor:
        return floor if math.isfinite(bandwidth_objective(sample_, floor, delta_target)) else None
    keys = zero_weight_keys(sample_)

    def f(t: float) -> float:
        return bandwidth_objective(sample_, math.exp(t), delta_target, keys)

    xs = np.linspace(math.log(floor), math.log(sigma_hi), BANDWIDTH_GRID)
    vals = np.array([f(t) for t in xs])
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        return None
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, BANDWIDTH_GRID - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > BANDWIDTH_LOG_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return min(math.exp(0.5 * (a + b)), sigma_hi)


def iterate(law: GaussianLaw, bandwidth: float | None, target: LimitState,
            cfg: SchemeConfig, rng_level: np.random.Generator,
            rng_learn: np.random.Generator) -> tuple[GaussianLaw, IterationTrace | None]:
    """One iteration of any scheme: level stage, then one shared update.

    Returns (next law, trace). A trace of None means the smoothed schemes'
    stop criterion held on the fresh level batch: the law is final. On
    divergence the law comes back unchanged, and the trace carries the flag
    and the statistics computed before the failure. bandwidth, the smoothed
    schemes' search ceiling, is the last trace's level (its q_or_sigma);
    None, before the first trace, is derived from the level scores' spread.
    """
    # The level stage: the recorded level is the threshold actually used for
    # conditioning, the score quantile capped at 0, or the tuned bandwidth.
    if cfg.smoothed:
        ws = _ratio_batch(law, cfg.m, rng_level, target)
        if indicator_delta(ws) <= cfg.delta_target:
            return law, None
        if bandwidth is None:
            # Quartiles among infinite scores come out nan or inf (an
            # invalid subtraction inside percentile); optimize_bandwidth
            # turns that ceiling into the no-bandwidth divergence.
            with np.errstate(invalid="ignore"):
                q25, q75 = np.percentile(ws.scores, [25.0, 75.0])
            bandwidth = max(10.0 * float(q75 - q25), BANDWIDTH_FLOOR)
        level = optimize_bandwidth(ws, bandwidth, cfg.delta_target)
        del ws  # the level batch is gone before the learn batch is drawn
        if level is None:
            return law, IterationTrace(
                q_or_sigma=math.nan, p_hat_t=math.nan, lambda_min_proj=law.lambda_min(),
                lambda_max_raw=math.nan, diverged=True, n_hits=0)
        estimator = smooth_weighted_mean_cov
        ws = _weighted_batch(law, cfg.n, rng_learn, target)
    else:
        # The streams are independent, so drawing the learn batch first
        # leaves every byte alone; the small level block then comes after
        # it on the heap, which keeps the process's peak memory down.
        ws = _weighted_batch(law, cfg.n, rng_learn, target)
        level = min(quantile_threshold(_level_scores(law, cfg.m, rng_level, target), cfg.rho),
                    0.0)
        estimator = weighted_mean_cov

    # The update on the learn batch; the level-conditional estimator compares
    # the scores with the level itself. require_symmetric rejects a
    # non-finite sigma_hat, and a finite sigma_hat has a finite mu_hat, its
    # diagonal holding -mu_i^2.
    p_hat, n_hits, lam_max, nxt = 0.0, 0, math.nan, None
    try:
        est = estimator(ws, level)
        p_hat, n_hits = est.p_hat, est.n_hits
        extremes = numerics.sym_eigen_extremes(est.sigma_hat)
        lam_max = extremes.lambda_max
        if math.isfinite(p_hat) and lam_max <= cfg.divergence_lambda_cap:
            nxt = _next_law(est, cfg, extremes)
    except (DegenerateSampleError, numerics.NotPositiveDefiniteError,
            numerics.NotSymmetricError, CollapsedEstimateError):
        pass  # diverged: the law stays, the trace keeps what was computed
    return law if nxt is None else nxt, IterationTrace(
        q_or_sigma=level, p_hat_t=p_hat, lambda_min_proj=law.lambda_min(),
        lambda_max_raw=lam_max, diverged=nxt is None, n_hits=n_hits)


def run_scheme(cfg: SchemeConfig, target: LimitState, key: tuple) -> RunResult:
    """Drive one full run and estimate the probability from the final law.

    All randomness is keyed by (*key, purpose, t), so a rerun with the same
    configuration and key reproduces the result bit for bit.
    """
    law = GaussianLaw.identity(target.dim)
    traces: list[IterationTrace] = []
    converged = False

    for t in range(cfg.t_max):
        # A smoothed search's ceiling: the last update's bandwidth, its level.
        nxt, trace = iterate(law, traces[-1].q_or_sigma if traces else None, target, cfg,
                             stream(*key, "y", t), stream(*key, "x", t))
        if trace is not None:
            traces.append(trace)
        # A hard level of 0: the current law places the level at the event
        # itself, so it is the final sampler; its last update is discarded, failed or not.
        converged = trace is None or (not cfg.smoothed and trace.q_or_sigma >= 0.0)
        if converged or trace.diverged:
            break
        law = nxt

    p_hat = is_probability(_ratio_batch(law, cfg.n_p, stream(*key, "final"), target))
    return RunResult(p_hat=p_hat, traces=tuple(traces), converged=converged)

