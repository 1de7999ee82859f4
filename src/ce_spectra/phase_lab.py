"""Sample-size phase transition lab for the known-truth covariance estimate.

Sweeps estimate Sigma_A from n = ceil(d^kappa) importance-weighted samples
against the analytic conditional moments of slab and halfspace targets,
under spiked sampling laws whose single spike either lies inside the
target's intrinsic direction (v_in_u) or orthogonal to it (v_in_u_perp).
The operator-norm error and the top eigenvalue of the estimate, reported as
medians over repetitions, locate the convergent and divergent regimes; the
slope of log max-weight against log n estimates the weight-growth exponent
that separates them.

The hit depends on the target axis e_1 alone and the weight on the spike
axis alone, so a cell draws only its k <= 2 decisive coordinates (e_1, and
e_2 for v_in_u_perp) for every row. The other d - k coordinates are
standard normals independent of both; only a hit row enters Sigma-hat_A,
so a phase cell draws them for its hit rows alone, from a second stream,
and a gamma cell, which reads only the hit and the weight, never does.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from typing import Iterator, Sequence

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
from .seeding import check_seed, stream
from .targets import AnalyticConditional, LimitState, halfspace_target, slab_target

# Alignment -> axis of the sampling spike. The target's direction is axis 0
# (e_1), so v_in_u puts the spike on it and v_in_u_perp on e_2.
ALIGNMENTS = {"v_in_u": 0, "v_in_u_perp": 1}
# A lab cell draws, weighs and scores its rows in blocks whose widest array
# (the hit rows at d columns in phase, the decisive k columns in gamma)
# holds at most this many values (4 MB), so its memory is
# O(BLOCK_VALUES + d^2) at any n.
BLOCK_VALUES = 2 ** 19
# The most values, n d, a phase cell may hold: 13 times the d = 320,
# kappa = 2.4 cell the README times at 7 s, and over a minute of normal
# draws alone at 18 ns a value. A ladder past it would not finish (kappa =
# 20 at d = 50 asks for n = 9.5e33), so sweep_cells refuses it.
MAX_CELL_VALUES = 2 ** 32
# Target kind -> (builder, default width).
_TARGETS = {"slab": (slab_target, 1.0), "halfspace": (halfspace_target, 0.0)}


def prop_range_width(alpha: float, lambda1: float, n: int) -> float:
    """Slab half-width K = 1 + sqrt(2 alpha lambda1 log n) of a cell of n
    samples; alpha = 0 is the limiting convention K = 1."""
    return 1.0 + math.sqrt(2.0 * alpha * lambda1 * math.log(n))


@dataclass(frozen=True)
class LabGeometry:
    """One phase-lab law: target kind, spike placement, spike variance and,
    for a slab widening with n as prop_range_width, alpha. All four are
    checked here, once, and nowhere else: the spike variance lies in (0, 1]
    and alpha, where there is one, in [0, 1]. A cell can then be built at
    any d >= 2 and n >= 2, which the cell builders check.
    """

    target: str
    alignment: str
    lambda1: float
    alpha: float | None = None

    def __post_init__(self):
        if self.target not in _TARGETS:
            raise ValueError(f"unknown target kind {self.target!r}")
        if self.alignment not in ALIGNMENTS:
            raise ValueError(f"unknown alignment {self.alignment!r}")
        if self.alpha is not None and self.target != "slab":
            raise ValueError("alpha applies to the slab target only")
        if not 0.0 < self.lambda1 <= 1.0:
            raise ValueError(f"lambda1 must lie in (0, 1], got {self.lambda1}")
        if self.alpha is not None and not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0, 1], got {self.alpha}")

    def at(self, d: int, n: int) -> tuple[LimitState, SpikedCovariance]:
        """Target and sampling covariance of a cell of n samples in dimension d."""
        return self._layout(d, self._width(n))

    @property
    def decisive_dim(self) -> int:
        """k, the number of leading axes that decide a row's hit and weight:
        the target axis e_1, and the spike axis e_2 when it lies apart. A
        row's score and log likelihood ratio under at(d, n) are these of its
        first k coordinates under at(k, n), whatever d is."""
        return ALIGNMENTS[self.alignment] + 1

    def _width(self, n: int) -> float | None:
        return None if self.alpha is None else prop_range_width(self.alpha, self.lambda1, n)

    def _layout(self, d: int, width: float | None) -> tuple[LimitState, SpikedCovariance]:
        build, default_width = _TARGETS[self.target]
        spike = np.zeros(d)
        spike[ALIGNMENTS[self.alignment]] = 1.0
        cov = SpikedCovariance(dim=d, lambdas=np.array([self.lambda1]), directions=spike[None, :])
        return build(d, default_width if width is None else width), cov

    def predicted_gamma_star(self) -> float:
        """Weight-growth exponent the max-weight regression should find.

        The weight depends on the spike coordinate only. With the spike on a
        slab's direction (v_in_u) a hit bounds it by the half-width: the
        exponent is alpha (1 - lambda1), or 0 for a fixed slab. Every other
        case gives 1 - lambda1. Both are 0 at lambda1 = 1, plain Monte Carlo.
        """
        if self.target == "slab" and ALIGNMENTS[self.alignment] == 0:
            return self.alpha * (1.0 - self.lambda1) if self.alpha is not None else 0.0
        return 1.0 - self.lambda1


@dataclass(frozen=True)
class SweepRow:
    d: int
    rep: int
    n: int
    op_error: float
    lambda_max_hat: float
    max_weight: float
    q_hat: float


def median_by_d(rows: Sequence[SweepRow], attr: str) -> dict[int, float]:
    """Per-dimension median of one row attribute, over the dimensions that
    have rows, in the order of their first rows."""
    return {d: float(np.median([getattr(r, attr) for r in rows if r.d == d]))
            for d in dict.fromkeys(r.d for r in rows)}


def build_alignment(target: str, alignment: str, lambda1: float, d: int,
                    width: float | None = None) -> tuple[LimitState, SpikedCovariance]:
    """Target and sampling covariance for one sweep cell.

    The target's intrinsic direction is e_1; the sampling spike sits on e_1
    (v_in_u) or e_2 (v_in_u_perp) with variance lambda1. lambda1 = 1 makes
    the sampling law the standard normal, the plain Monte Carlo case.
    """
    if d < 2:
        raise ValueError("alignment layouts need d >= 2")
    return LabGeometry(target, alignment, lambda1)._layout(d, width)


def sample_size(d: int, kappa: float) -> int:
    """n = ceil(d^kappa); a ValueError where d^kappa overflows a float."""
    try:
        return int(math.ceil(d ** kappa))
    except OverflowError:
        raise ValueError(f"sample size {d}^{kappa:g} overflows a float") from None


def _grid(values: Sequence[int], name: str, var: str, reps: int, seed: int) -> tuple[int, ...]:
    """The grid name of var values as a tuple, checked to hold integers (a
    float or a string is refused, not truncated, as a float seed is),
    ascending from 2, with at least two entries; then per-cell medians need
    at least 10 repetitions, and seed must be a master seed."""
    try:
        values = tuple(operator.index(v) for v in values)
    except TypeError:
        raise ValueError(f"{name} entries must be integers, got {values!r}") from None
    if len(values) < 2 or values[0] < 2 or any(b <= a for a, b in zip(values, values[1:])):
        raise ValueError(f"{name} must be ascending from {var} >= 2 with at least two entries")
    if reps < 10:
        raise ValueError(f"at least 10 repetitions required, got {reps}")
    check_seed(seed)
    return values


def sweep_cells(geometry: LabGeometry, kappa: float, dims: Sequence[int], reps: int,
                seed: int = 0) -> list[tuple]:
    """sweep_cell arguments over dims x reps, dimension major, each cell of
    n = sample_size(d, kappa) draws, none holding more than MAX_CELL_VALUES
    values."""
    if not 0.0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive, got {kappa}")
    dims = _grid(dims, "dims grid", "d", reps, seed)
    sizes = [sample_size(d, kappa) for d in dims]
    if sizes[-1] * dims[-1] > MAX_CELL_VALUES:
        raise ValueError(f"a cell of n = {sizes[-1]:.3g} draws in d = {dims[-1]} holds "
                         f"{sizes[-1] * dims[-1]:.3g} values, past MAX_CELL_VALUES = 2^32")
    return [(geometry, seed, d, n, rep) for d, n in zip(dims, sizes) for rep in range(reps)]


def _decisive_blocks(geometry: LabGeometry, n: int, rows: int,
                     rng: np.random.Generator) -> Iterator[WeightedSample]:
    """The k decisive coordinates of n draws from rng, with their log
    likelihood ratios and scores, in consecutive blocks of at most rows rows
    (at least one). Consecutive standard-normal blocks from one generator
    are the bytes of one (n, k) draw, so the blocks hold that draw's rows in
    order, whatever their size."""
    state, cov = geometry.at(geometry.decisive_dim, n)
    law = GaussianLaw.with_spiked(cov)
    rows = max(rows, 1)
    for start in range(0, n, rows):
        x = sample(law, rng.standard_normal((min(rows, n - start), cov.dim)))
        yield WeightedSample(x, log_likelihood_ratio(cov, x), state(x))


def _phase_blocks(geometry: LabGeometry, d: int, n: int,
                  key: tuple) -> Iterator[tuple[WeightedSample, WeightedSample]]:
    """The row blocks of a phase cell of n draws in dimension d, each as
    (decisive, hits). decisive holds the block's k decisive coordinates,
    from the stream key; hits holds its hit rows in dimension d, whose
    other d - k coordinates come from the stream (*key, "fill"), drawn for
    the hit rows alone, in row order. A block's hit rows hold at most
    BLOCK_VALUES values."""
    fill = stream(*key, "fill")
    for block in _decisive_blocks(geometry, n, BLOCK_VALUES // d, stream(*key)):
        hit = block.indicators
        k = block.dim
        points = np.empty((int(np.count_nonzero(hit)), d))
        points[:, :k] = block.points[hit]
        points[:, k:] = fill.standard_normal((points.shape[0], d - k))
        yield block, WeightedSample(points, block.log_ratios[hit], block.scores[hit])


def _cell_estimate(geometry: LabGeometry, seed: int, d: int, n: int, rep: int,
                   analytic: AnalyticConditional) -> tuple[np.ndarray, float, int]:
    """Sigma-hat_A, the scaled peak weight and the hit count of the cell
    (d, rep) of n draws.

    Sigma-hat_A is linear in the sample, so the cell's estimate is the
    size-weighted mean of its blocks' estimates, summed from zero. The
    scaled peak weight is monotone in the peak, so its maximum over blocks
    is the batch's exactly, as is the hit count.
    """
    key = (seed, "phase", geometry.target, geometry.alignment, d, rep)
    sigma_hat = np.zeros((d, d))
    max_weight = 0.0
    hit_count = 0
    for block, hits in _phase_blocks(geometry, d, n, key):
        max_weight = max(max_weight, max_weight_statistic(block, d, n))
        hit_count += hits.size
        estimate = sigma_a_estimator(hits, block.size, analytic.p, analytic.mu)
        estimate *= block.size / n
        sigma_hat += estimate
    return sigma_hat, max_weight, hit_count


def sweep_cell(geometry: LabGeometry, seed: int, d: int, n: int, rep: int) -> SweepRow:
    """One (dimension, repetition) cell of n draws.

    Pure function of (seed, d, rep) given the geometry and n: its streams
    are keyed by (seed, "phase", target, alignment, d, rep), not by n, so
    the kappa branches of a run share them, the smaller n reading a prefix.
    """
    analytic = geometry.at(d, n)[0].analytic
    sigma_hat, max_weight, hit_count = _cell_estimate(geometry, seed, d, n, rep, analytic)
    return SweepRow(
        d=d,
        rep=rep,
        n=n,
        op_error=numerics.operator_norm_diff(sigma_hat, analytic.sigma.dense()),
        lambda_max_hat=float(numerics.sym_eigenvalues(sigma_hat)[-1]),
        max_weight=max_weight,
        q_hat=hit_count / n,
    )


@dataclass(frozen=True)
class GammaEstimate:
    """Least-squares slope of median log max-weight against log n."""

    slope: float
    intercept: float
    band: tuple[float, float]
    n_grid: tuple[int, ...]
    medians: tuple[float, ...]
    dropped: tuple[int, ...]


def gamma_cell(geometry: LabGeometry, seed: int, grid_index: int, n: int, rep: int) -> float:
    """log max_i xi_i l_i for one (grid point, repetition) cell.

    Pure function of (seed, grid_index, rep) given the geometry. The hit and
    the weight read the decisive coordinates alone, so the cell draws only
    those.
    """
    rng = stream(seed, "gamma", grid_index, rep)
    rows = BLOCK_VALUES // geometry.decisive_dim
    return max(log_max_hit_ratio(ws) for ws in _decisive_blocks(geometry, n, rows, rng))


def gamma_fit(n_grid: Sequence[int], log_max: Sequence[Sequence[float]],
              seed: int = 0, bootstrap: int = 200) -> GammaEstimate:
    """Regression stage: medians, least-squares slope, bootstrap band.

    Grid points where any repetition recorded zero hits (log max -inf) are
    dropped with a warning before fitting. The band is a 95% bootstrap
    interval from resampling repetitions within each grid point.
    """
    n_grid = tuple(int(n) for n in n_grid)
    log_max = [tuple(float(v) for v in vals) for vals in log_max]
    reps = len(log_max[0]) if log_max else 0
    if len(log_max) != len(n_grid) or reps == 0 or any(len(v) != reps for v in log_max):
        raise ValueError("one repetition list per grid point required, all of one nonzero length")

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


def gamma_cells(geometry: LabGeometry, n_grid: Sequence[int], reps: int,
                seed: int = 0) -> list[list[tuple]]:
    """gamma_cell arguments over n_grid x reps, one list per grid point."""
    n_grid = _grid(n_grid, "n_grid", "n", reps, seed)
    return [[(geometry, seed, i, n, rep) for rep in range(reps)]
            for i, n in enumerate(n_grid)]
