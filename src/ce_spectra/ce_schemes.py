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
budget, or diverges; divergence is any of: non-finite statistic, Cholesky
failure of the dense update, zero hits, a collapsed projection, or a top
eigenvalue past the configured cap. Diverged runs keep their last usable
law so a probability estimate is still recorded, mirroring how failed
repetitions are reported rather than discarded.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numerics
from .estimators import (
    DegenerateSampleError,
    check_rho,
    indicator_delta,
    ice_delta,
    is_probability,
    quantile_threshold,
    smooth_weighted_mean_cov,
    weighted_mean_cov,
)
from .gauss_core import (
    CollapsedEstimateError,
    GaussianLaw,
    WeightedSample,
    log_ratio_to_standard,
    proj_r,
    sample,
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
    seed: int = 0
    divergence_lambda_cap: float = 1e6

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        projected = self.scheme.endswith("_proj")
        if projected and self.strategy == "none":
            raise ValueError(f"scheme {self.scheme!r} needs a direction strategy")
        if not projected and self.strategy != "none":
            raise ValueError(f"scheme {self.scheme!r} does not take a direction strategy")
        check_rho(self.rho)
        if self.delta_target < 1.0:
            raise ValueError("delta_target below 1 is unreachable for the spread statistic")
        for name in ("m", "n"):
            if getattr(self, name) < 2:
                raise ValueError(f"{name} must be at least 2")
        for name in ("n_p", "t_max"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.divergence_lambda_cap <= 0.0:
            raise ValueError("divergence_lambda_cap must be positive")

    @property
    def projected(self) -> bool:
        return self.scheme.endswith("_proj")

    @property
    def smoothed(self) -> bool:
        return self.scheme.startswith("ice")


@dataclass(frozen=True)
class IterationTrace:
    t: int
    q_or_sigma: float
    p_hat_t: float
    lambda_min_proj: float
    lambda_max_raw: float
    diverged: bool
    n_hits: int


@dataclass(frozen=True)
class RunResult:
    p_hat: float
    relative_error: float
    traces: tuple[IterationTrace, ...]
    converged: bool
    iterations_used: int
    diverged: bool


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
        spiked = proj_r(est.sigma_hat, v[None, :])
        return GaussianLaw.with_spiked(spiked, mean=est.mu_hat)
    return GaussianLaw.dense(est.mu_hat, est.sigma_hat)


def bandwidth_objective(sample_: WeightedSample, bandwidth: float, delta_target: float) -> float:
    value = ice_delta(sample_, bandwidth)
    if not math.isfinite(value):
        return math.inf
    return (value - delta_target) ** 2


def optimize_bandwidth(sample_: WeightedSample, sigma_hi: float,
                       delta_target: float) -> float | None:
    """Bandwidth minimizing (spread - target)^2 over (BANDWIDTH_FLOOR, sigma_hi].

    A BANDWIDTH_GRID-point log-grid scan brackets the best cell, then
    golden-section refines inside it to BANDWIDTH_LOG_TOL in log bandwidth;
    the returned value never exceeds sigma_hi. None signals that the
    objective is infinite everywhere (no usable bandwidth).
    """
    floor = BANDWIDTH_FLOOR
    if sigma_hi <= floor:
        return floor if math.isfinite(bandwidth_objective(sample_, floor, delta_target)) else None
    lo, hi = math.log(floor), math.log(sigma_hi)
    xs = np.linspace(lo, hi, BANDWIDTH_GRID)
    vals = np.array([bandwidth_objective(sample_, math.exp(t), delta_target) for t in xs])
    best = int(np.argmin(vals))
    if not math.isfinite(vals[best]):
        return None
    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, BANDWIDTH_GRID - 1)]

    def f(t: float) -> float:
        return bandwidth_objective(sample_, math.exp(t), delta_target)

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
            cfg: SchemeConfig, t: int, rng_level: np.random.Generator,
            rng_learn: np.random.Generator
            ) -> tuple[GaussianLaw, float | None, IterationTrace | None]:
    """Iteration t of any scheme: level stage, then one shared update.

    Returns (next law, bandwidth, trace). On divergence the law comes back
    unchanged and the trace carries the flag. A trace of None means the
    smoothed schemes' stop criterion held on the fresh level batch: the law
    is final and nothing was updated. bandwidth is only read and tuned by
    the smoothed schemes; None means it has not been set yet, and it is
    then derived from the spread of the level scores.
    """
    lam_min_in = law.covariance_extremes()[0]

    def record(level: float, p_hat: float = math.nan, lam_max: float = math.nan,
               n_hits: int = 0, diverged: bool = True) -> IterationTrace:
        return IterationTrace(t=t, q_or_sigma=level, p_hat_t=p_hat,
                              lambda_min_proj=lam_min_in, lambda_max_raw=lam_max,
                              diverged=diverged, n_hits=n_hits)

    # The level stage: the recorded level is the threshold actually used for
    # conditioning, the score quantile capped at 0, or the tuned bandwidth.
    if cfg.smoothed:
        y = sample(law, cfg.m, rng_level)
        scores_y = target(y)
        ws_y = WeightedSample(y, log_ratio_to_standard(law, y), scores_y)
        if indicator_delta(ws_y) <= cfg.delta_target:
            return law, bandwidth, None
        if bandwidth is None:
            q25, q75 = np.percentile(scores_y, [25.0, 75.0])
            bandwidth = max(10.0 * float(q75 - q25), BANDWIDTH_FLOOR)
        level = optimize_bandwidth(ws_y, bandwidth, cfg.delta_target)
        if level is None:
            return law, bandwidth, record(math.nan)
        bandwidth = level
        estimator = smooth_weighted_mean_cov
    else:
        level = min(quantile_threshold(target(sample(law, cfg.m, rng_level)), cfg.rho), 0.0)
        estimator = weighted_mean_cov

    # The update; the level-conditional estimator compares the scores with
    # the level itself.
    x = sample(law, cfg.n, rng_learn)
    ws = WeightedSample(x, log_ratio_to_standard(law, x), target(x))
    try:
        est = estimator(ws, level)
    except DegenerateSampleError:
        return law, bandwidth, record(level, 0.0)
    if not (np.all(np.isfinite(est.mu_hat)) and np.all(np.isfinite(est.sigma_hat))):
        return law, bandwidth, record(level, est.p_hat, n_hits=est.n_hits)
    extremes = numerics.sym_eigen_extremes(est.sigma_hat)
    stats = (level, est.p_hat, extremes.lambda_max, est.n_hits)
    if not math.isfinite(est.p_hat) or extremes.lambda_max > cfg.divergence_lambda_cap:
        return law, bandwidth, record(*stats)
    try:
        nxt = _next_law(est, cfg, extremes)
    except (numerics.NotPositiveDefiniteError, numerics.NotSymmetricError,
            CollapsedEstimateError):
        return law, bandwidth, record(*stats)
    return nxt, bandwidth, record(*stats, diverged=False)


def run_scheme(cfg: SchemeConfig, target: LimitState,
               seed_key: tuple | None = None) -> RunResult:
    """Drive one full run and estimate the probability from the final law.

    All randomness is keyed by (seed_key or cfg.seed, purpose, t), so a rerun
    with the same configuration reproduces the result bit for bit.
    """
    base = tuple(seed_key) if seed_key is not None else (cfg.seed,)
    law = GaussianLaw.identity(target.dim)
    traces: list[IterationTrace] = []
    converged = False
    bandwidth: float | None = None

    for t in range(cfg.t_max):
        nxt, bandwidth, trace = iterate(law, bandwidth, target, cfg, t,
                                        stream(*base, "y", t), stream(*base, "x", t))
        if trace is None:
            converged = True
            break
        traces.append(trace)
        if trace.diverged:
            break
        if not cfg.smoothed and trace.q_or_sigma >= 0.0:
            # The current law already places the level at the event itself;
            # it is the final sampler, and the last update is discarded.
            converged = True
            break
        law = nxt

    rng_final = stream(*base, "final")
    x = sample(law, cfg.n_p, rng_final)
    ws = WeightedSample(x, log_ratio_to_standard(law, x), target(x))
    p_hat = is_probability(ws)
    if target.reference_p:
        rel = abs(p_hat - target.reference_p) / target.reference_p
    else:
        rel = math.nan
    return RunResult(p_hat=p_hat, relative_error=rel, traces=tuple(traces),
                     converged=converged, iterations_used=len(traces),
                     diverged=bool(traces) and traces[-1].diverged)


@dataclass(frozen=True)
class HalfspacePath:
    """Noise-free level recursion for a halfspace target.

    For phi(x) = <u, x> - K and sampling laws N(m_t u, I + (s_t - 1) u u^T),
    every stage is Gaussian in the score, so the level threshold and the
    conditional moments of f are closed form:

        q_t     = m_t - K + sqrt(s_t) z_rho
        c_t     = K + min(q_t, 0)
        m_{t+1} = h(c_t),  s_{t+1} = 1 - h(c_t)(h(c_t) - c_t)

    with h the standard normal hazard. Serves as the exact template the
    stochastic scheme is checked against.
    """

    thresholds: tuple[float, ...]
    means: tuple[float, ...]
    variances: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.thresholds)


def deterministic_halfspace_path(offset: float, rho: float, t_max: int = 100) -> HalfspacePath:
    z_rho = float(numerics.std_normal_quantile(1.0 - rho))
    m, s = 0.0, 1.0
    thresholds: list[float] = []
    means = [m]
    variances = [s]
    converged = False
    for _ in range(t_max):
        q = m - offset + math.sqrt(s) * z_rho
        thresholds.append(q)
        if q >= 0.0:
            converged = True
            break
        c = offset + q  # q < 0 here, so this is K + min(q, 0)
        tail = float(numerics.std_normal_cdf(-c))
        hazard = float(numerics.std_normal_pdf(c)) / tail
        m = hazard
        s = 1.0 - hazard * (hazard - c)
        means.append(m)
        variances.append(s)
    return HalfspacePath(thresholds=tuple(thresholds), means=tuple(means),
                         variances=tuple(variances), converged=converged)
