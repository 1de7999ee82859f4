"""Sample-size phase transition lab for the known-truth covariance estimate.

Sweeps estimate Sigma_A from n = ceil(d^kappa) importance-weighted samples
against the analytic conditional moments of slab and halfspace targets,
under spiked sampling laws whose single spike either lies inside the
target's intrinsic direction (v_in_u) or orthogonal to it (v_in_u_perp).
The operator-norm error and the top eigenvalue of the estimate, reported as
medians over repetitions, locate the convergent and divergent regimes; the
slope of log max-weight against log n estimates the weight-growth exponent
that separates them.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import numerics
from .estimators import log_max_hit_ratio, max_weight_statistic, sigma_a_estimator
from .gauss_core import (
    GaussianLaw,
    SpikedCovariance,
    WeightedSample,
    log_likelihood_ratio,
    sample,
)
from .seeding import map_cells, stream
from .targets import LimitState, check_lambda1, halfspace_target, prop_range_width, slab_target

ALIGNMENTS = ("v_in_u", "v_in_u_perp")
TARGET_KINDS = ("slab", "halfspace")
DEFAULT_WIDTHS = {"slab": 1.0, "halfspace": 0.0}


def check_reps(reps: int) -> None:
    """Per-cell medians are taken over at least 10 repetitions."""
    if reps < 10:
        raise ValueError(f"at least 10 repetitions required, got {reps}")


@dataclass(frozen=True)
class SweepConfig:
    target: str
    alignment: str
    lambda1: float
    kappa: float
    dims: tuple[int, ...]
    reps: int
    alpha: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        dims = tuple(int(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if not dims:
            raise ValueError("dims must be non-empty")
        if any(b <= a for a, b in zip(dims, dims[1:])):
            raise ValueError("dims must be strictly ascending")
        check_reps(self.reps)
        # Target, alignment, lambda1, alpha and d >= 2 are checked where they
        # are used, by building the smallest cell's geometry.
        widened_alignment(self.target, self.alignment, self.lambda1, dims[0],
                          sample_size(dims[0], self.kappa), self.alpha)


@dataclass(frozen=True)
class SweepRow:
    d: int
    rep: int
    n: int
    op_error: float
    lambda_max_hat: float
    max_weight: float
    q_hat: float


@dataclass(frozen=True)
class SweepResult:
    config: SweepConfig
    rows: tuple[SweepRow, ...]

    def medians(self, attr: str) -> dict[int, float]:
        """Per-dimension median of one row attribute, over the dimensions
        that have rows."""
        by_d: dict[int, list[float]] = {}
        for r in self.rows:
            by_d.setdefault(r.d, []).append(getattr(r, attr))
        return {d: float(np.median(vals)) for d, vals in by_d.items()}


def build_alignment(target: str, alignment: str, lambda1: float, d: int,
                    width: float | None = None) -> tuple[LimitState, SpikedCovariance]:
    """Target and sampling covariance for one sweep cell.

    The target's intrinsic direction is e_1; the sampling spike sits on e_1
    (v_in_u) or e_2 (v_in_u_perp) with variance lambda1. lambda1 = 1 makes
    the sampling law the standard normal, the plain Monte Carlo case.
    """
    if target not in TARGET_KINDS:
        raise ValueError(f"unknown target kind {target!r}")
    if alignment not in ALIGNMENTS:
        raise ValueError(f"unknown alignment {alignment!r}")
    check_lambda1(lambda1)
    if d < 2:
        raise ValueError("alignment layouts need d >= 2")
    if width is None:
        width = DEFAULT_WIDTHS[target]
    if target == "slab":
        state = slab_target(d, width)
    else:
        state = halfspace_target(d, width)
    spike = np.zeros(d)
    spike[0 if alignment == "v_in_u" else 1] = 1.0
    cov = SpikedCovariance(dim=d, lambdas=np.array([lambda1]), directions=spike[None, :])
    return state, cov


def widened_alignment(target: str, alignment: str, lambda1: float, d: int, n: int,
                      alpha: float | None = None) -> tuple[LimitState, SpikedCovariance]:
    """build_alignment for a cell of n samples.

    With alpha the slab half-width grows with n as prop_range_width; alpha
    is ignored for the halfspace.
    """
    width = None
    if target == "slab" and alpha is not None:
        width = prop_range_width(alpha, lambda1, n)
    return build_alignment(target, alignment, lambda1, d, width)


def sample_size(d: int, kappa: float) -> int:
    return int(math.ceil(d ** kappa))


def sweep_cells(cfg: SweepConfig) -> list[tuple[SweepConfig, int, int]]:
    """sweep_cell arguments over dims x reps, dimension major."""
    return [(cfg, d, rep) for d in cfg.dims for rep in range(cfg.reps)]


def sweep_cell(cfg: SweepConfig, d: int, rep: int) -> SweepRow:
    """One (dimension, repetition) cell; pure function of (cfg.seed, d, rep)."""
    n = sample_size(d, cfg.kappa)
    state, cov = widened_alignment(cfg.target, cfg.alignment, cfg.lambda1, d, n, cfg.alpha)
    rng = stream(cfg.seed, "phase", cfg.target, cfg.alignment, d, rep)

    law = GaussianLaw.with_spiked(cov)
    x = sample(law, n, rng)
    ws = WeightedSample(x, log_likelihood_ratio(cov, x), state(x))

    analytic = state.analytic
    sigma_hat = sigma_a_estimator(ws, analytic.p, analytic.mu)
    extremes = numerics.sym_eigen_extremes(sigma_hat)
    return SweepRow(
        d=d,
        rep=rep,
        n=n,
        op_error=numerics.operator_norm_diff(sigma_hat, analytic.sigma.dense()),
        lambda_max_hat=extremes.lambda_max,
        max_weight=max_weight_statistic(ws, d, n),
        q_hat=float(np.mean(ws.indicators)),
    )


def phase_sweep(cfg: SweepConfig) -> SweepResult:
    """Full sweep over dims x reps, in this process; cells are independently
    seeded, so the rows equal the phase command's at any worker count."""
    return SweepResult(config=cfg, rows=tuple(map_cells(sweep_cell, sweep_cells(cfg), 1)))


@dataclass(frozen=True)
class GammaEstimate:
    """Least-squares slope of median log max-weight against log n."""

    slope: float
    intercept: float
    band: tuple[float, float]
    n_grid: tuple[int, ...]
    medians: tuple[float, ...]
    dropped: tuple[int, ...]


def gamma_cell(state: LimitState, g: SpikedCovariance, seed: int,
               grid_index: int, n: int, rep: int) -> float:
    """log max_i xi_i l_i for one (grid point, repetition) cell.

    Pure function of (seed, grid_index, rep) given the geometry, so
    estimate_gamma_star and the gamma command produce identical numbers.
    """
    rng = stream(seed, "gamma", grid_index, rep)
    law = GaussianLaw.with_spiked(g)
    x = sample(law, n, rng)
    ws = WeightedSample(x, log_likelihood_ratio(g, x), state(x))
    return log_max_hit_ratio(ws)


def gamma_fit(n_grid: Sequence[int], log_max: Sequence[Sequence[float]],
              seed: int = 0, bootstrap: int = 200) -> GammaEstimate:
    """Regression stage: medians, least-squares slope, bootstrap band.

    Grid points where any repetition recorded zero hits (log max -inf) are
    dropped with a warning before fitting.
    """
    n_grid = tuple(int(n) for n in n_grid)
    log_max = [tuple(float(v) for v in vals) for vals in log_max]
    if len(log_max) != len(n_grid):
        raise ValueError("one value list per grid point required")
    reps = len(log_max[0])

    kept = [i for i, vals in enumerate(log_max) if all(math.isfinite(v) for v in vals)]
    dropped = tuple(n_grid[i] for i in range(len(n_grid)) if i not in kept)
    if dropped:
        warnings.warn(f"dropping n grid points with zero hits: {dropped}")
    if len(kept) < 2:
        raise ValueError("fewer than two usable grid points for the regression")

    xs = np.log([n_grid[i] for i in kept])
    med = np.array([np.median(log_max[i]) for i in kept])
    slope, intercept = np.polyfit(xs, med, 1)

    rng = stream(seed, "gamma", "boot")
    slopes = np.empty(bootstrap)
    for b in range(bootstrap):
        resampled = [
            np.median(rng.choice(log_max[i], size=reps, replace=True)) for i in kept
        ]
        slopes[b] = np.polyfit(xs, np.array(resampled), 1)[0]
    band = (float(np.percentile(slopes, 2.5)), float(np.percentile(slopes, 97.5)))

    return GammaEstimate(slope=float(slope), intercept=float(intercept), band=band,
                         n_grid=tuple(n_grid[i] for i in kept),
                         medians=tuple(float(v) for v in med),
                         dropped=dropped)


def gamma_cells(target: LimitState | Callable[[int], LimitState], g: SpikedCovariance,
                n_grid: Sequence[int], reps: int, seed: int = 0) -> list[tuple]:
    """gamma_cell arguments over n_grid x reps, grid-point major.

    ``target`` is either a fixed limit state or a callable n -> limit state
    for families whose geometry widens with the sample size.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if len(n_grid) < 2 or any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be ascending with at least two points")
    check_reps(reps)
    cells = []
    for i, n in enumerate(n_grid):
        state = target if isinstance(target, LimitState) else target(n)
        cells += [(state, g, seed, i, n, rep) for rep in range(reps)]
    return cells


def estimate_gamma_star(target: LimitState | Callable[[int], LimitState],
                        g: SpikedCovariance, n_grid: Sequence[int], reps: int,
                        seed: int = 0) -> GammaEstimate:
    """Weight-growth exponent from the max-weight regression.

    ``target`` is as in gamma_cells. The band is a 95% bootstrap interval
    from resampling repetitions within each grid point.
    """
    cells = gamma_cells(target, g, n_grid, reps, seed)
    values = list(map_cells(gamma_cell, cells, 1))
    log_max = [values[i:i + reps] for i in range(0, len(values), reps)]
    return gamma_fit(n_grid, log_max, seed=seed)


def predicted_gamma_star(target: str, alignment: str, lambda1: float,
                         alpha: float | None) -> float:
    """Weight-growth exponent the max-weight regression should find.

    The weight depends on the spike coordinate only. For a slab with the
    spike inside its direction (v_in_u), a hit bounds that coordinate by the
    half-width, so the exponent is alpha (1 - lambda1) when the half-width
    grows as prop_range_width, and 0 for a fixed slab. Every other case
    gives 1 - lambda1. Both are 0 at lambda1 = 1, plain Monte Carlo.
    """
    if target == "slab" and alignment == "v_in_u":
        return alpha * (1.0 - lambda1) if alpha is not None else 0.0
    return 1.0 - lambda1


def kappa_conjecture_report(traces: Sequence) -> float:
    """Diagnostic growth ratio 1 / min_t lambda_min of the sampling spectra.

    Uses the non-diverged iterations of one run's trace; errors on an empty
    or all-diverged trace.
    """
    lam = [tr.lambda_min_proj for tr in traces
           if not tr.diverged and math.isfinite(tr.lambda_min_proj)]
    if not lam:
        raise ValueError("no usable iterations in trace")
    smallest = min(lam)
    if smallest <= 0.0:
        raise ValueError(f"nonpositive sampling eigenvalue {smallest}")
    return 1.0 / smallest
