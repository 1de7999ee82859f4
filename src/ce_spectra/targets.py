"""Rare-event score functions and analytically solvable conditioned sets.

A limit state is a score function phi over (n, d) batches of points with
failure set A = {x : phi(x) >= 0}. The three benchmark scores (linear,
quadratic, finite count) match the published test problems; the slab and
halfspace targets carry closed-form conditional moments of the standard
normal given A, which the estimation lab uses as ground truth.

Scores here depend on a fixed low-dimensional intrinsic subspace U (the
span of u = e_1), so phi(x) = phi(P_U x) for slab and halfspace by
construction, and their scores and hit probabilities read the first column alone.
Score and hit-probability functions are module-level functions bound with
functools.partial, so limit states pickle and can be sent to worker
processes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from . import numerics
from .gauss_core import SpikedCovariance


@dataclass(frozen=True)
class AnalyticConditional:
    """Closed-form moments of the standard normal conditioned on A.

    q_of maps a zero-mean spiked sampling covariance to q = P_g(A), the
    hit probability under that law.
    """

    p: float
    mu: np.ndarray
    sigma: SpikedCovariance
    q_of: Callable[[SpikedCovariance], float]


@dataclass(frozen=True)
class LimitState:
    """Named score function over R^d with optional reference values."""

    name: str
    dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    reference_p: float | None = None
    analytic: AnalyticConditional | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.dim:
            raise ValueError(
                f"target {self.name} expects an (n, {self.dim}) batch, got shape {x.shape}"
            )
        return self.evaluator(x)


def _unit_ones(d: int) -> np.ndarray:
    return np.full(d, 1.0 / math.sqrt(d))


def _affine_score(u: np.ndarray, offset: float, x: np.ndarray) -> np.ndarray:
    return x @ u - offset


def linear_target(d: int) -> LimitState:
    """phi(x) = <x, 1>/sqrt(d) - 5; exact tail 1 - Phi(5) under f."""
    p = numerics.std_normal_tail(5.0)
    return LimitState(name="lin", dim=d, evaluator=partial(_affine_score, _unit_ones(d), 5.0),
                      reference_p=p)


def _quadratic_score(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = x[:, 0] - x[:, 1]
    return x @ u - 4.0 - 1.25 * diff * diff


def quadratic_target(d: int) -> LimitState:
    """phi(x) = <x, 1>/sqrt(d) - 4 - 1.25 (x_1 - x_2)^2."""
    if d < 2:
        raise ValueError("quadratic target needs d >= 2")
    return LimitState(name="quad", dim=d, evaluator=partial(_quadratic_score, _unit_ones(d)),
                      reference_p=6.6206e-6)


def _count_score(x: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    # Clip the normal CDF away from {0, 1}: the gamma quantile is infinite
    # at 1 and 0 at 0, where the division would poison the count.
    u2 = np.clip(numerics.std_normal_cdf(x[:, 1]), 1e-300, 1.0 - 1e-16)
    s = np.sqrt(numerics.gamma_inverse_cdf(u2, 6.0, 1.0 / 6.0))
    inner = (0.25 * x[:, :1] + 3.0 * math.sqrt(1.0 - 0.25 ** 2) * x[:, 2:]) / s[:, None]
    return np.sum(inner >= 0.5 * math.sqrt(d), axis=1) - (0.25 * d + 0.1)


def count_target(d: int) -> LimitState:
    """Counts coordinates j >= 3 whose mixed score clears 0.5 sqrt(d).

    phi(x) = sum_{j>=3} 1{ (0.25 x_1 + 3 sqrt(1 - 0.0625) x_j) / s(x_2)
                           >= 0.5 sqrt(d) }  -  0.25 d - 0.1
    with s(y) = sqrt of the Gamma(shape 6, rate 6) quantile at Phi(y). s^2
    is then chi^2_12 / 12, so the mixed scores are scaled Student-t with 12
    degrees of freedom sharing one mixing variable (a t-copula). The
    reference, 1.7348e-6, is P(phi >= 0) at the published d = 334 by
    quadrature over (x_1, x_2) of the Binomial(d - 2, p_j) tail of the
    count; it depends on d, so other dimensions carry none.
    """
    if d < 3:
        raise ValueError("count target needs d >= 3")
    return LimitState(name="fin", dim=d, evaluator=_count_score,
                      reference_p=1.7348e-6 if d == TABLE_SIZES["fin"][0] else None)


def _sd_along_e1(g: SpikedCovariance) -> float:
    coords = g.directions[:, 0]
    return math.sqrt(1.0 + float((g.lambdas - 1.0) @ (coords * coords)))


def _q_under(p_of: Callable[[float], float], level: float, g: SpikedCovariance) -> float:
    """Hit probability under N(0, g) of a target on e_1 whose hit
    probability under f is p_of(level): the level in units of g's standard
    deviation along e_1. So p is q under the standard law."""
    return p_of(level / _sd_along_e1(g))


def _e1_target(name: str, d: int, score: Callable[[np.ndarray], np.ndarray], p: float,
               mean: float, variance: float, q_of: Callable[[SpikedCovariance], float]
               ) -> LimitState:
    """A target on e_1 with hit probability p (its reference_p) and q_of,
    whose conditional law of f on A has the given mean and variance along
    e_1 and is standard elsewhere."""
    e1 = np.zeros(d)
    e1[0] = 1.0
    analytic = AnalyticConditional(
        p=p,
        mu=mean * e1,
        sigma=SpikedCovariance(dim=d, lambdas=np.array([variance]), directions=e1[None, :]),
        q_of=q_of,
    )
    return LimitState(name=name, dim=d, evaluator=score, reference_p=p, analytic=analytic)


def _slab_score(width: float, x: np.ndarray) -> np.ndarray:
    return width - np.abs(x[:, 0])


def _halfspace_score(offset: float, x: np.ndarray) -> np.ndarray:
    return x[:, 0] - offset


def _slab_p(width: float) -> float:
    return 2.0 * (1.0 - numerics.std_normal_tail(width)) - 1.0


def slab_target(d: int, width: float) -> LimitState:
    """A = {|<u, x>| <= K} with u = e_1: slab of half-width K around the origin.

    Conditional of f on A: mean 0, variance 1 - 2 K phi(K) / (2 Phi(K) - 1)
    along u, identity elsewhere.
    """
    if width <= 0.0 or not math.isfinite(width):
        raise ValueError(f"slab half-width must be positive, got {width}")
    p = _slab_p(width)
    if p == 0.0:
        raise ValueError(f"slab half-width {width} gives hit probability 0 in double precision")
    variance = 1.0 - 2.0 * width * numerics.std_normal_pdf(width) / p
    return _e1_target("slab", d, partial(_slab_score, width), p, 0.0, variance,
                      partial(_q_under, _slab_p, width))


def halfspace_target(d: int, offset: float) -> LimitState:
    """A = {<u, x> >= K} with u = e_1: halfspace at distance K.

    Conditional of f on A: mean h(K) u with hazard h = phi(K)/(1 - Phi(K)),
    variance 1 - h (h - K) along u, identity elsewhere.
    """
    if not math.isfinite(offset):
        raise ValueError(f"halfspace offset must be finite, got {offset}")
    p = numerics.std_normal_tail(offset)
    if p == 0.0:
        raise ValueError(f"halfspace offset {offset} gives hit probability 0 in double precision")
    hazard = numerics.std_normal_pdf(offset) / p
    variance = 1.0 - hazard * (hazard - offset)
    return _e1_target("halfspace", d, partial(_halfspace_score, offset), p, hazard, variance,
                      partial(_q_under, numerics.std_normal_tail, offset))


_BENCHMARK_BUILDERS = {
    "lin": linear_target,
    "quad": quadratic_target,
    "fin": count_target,
}

# Published (d, n) of each benchmark target: dimension and per-iteration sample size.
TABLE_SIZES = {"lin": (100, 10000), "quad": (334, 5000), "fin": (334, 5000)}


def benchmark_target(name: str, d: int | None = None) -> LimitState:
    """Benchmark score by short name, at its published dimension by default."""
    if name not in _BENCHMARK_BUILDERS:
        raise ValueError(f"unknown benchmark target {name!r}")
    if d is None:
        d = TABLE_SIZES[name][0]
    return _BENCHMARK_BUILDERS[name](d)
