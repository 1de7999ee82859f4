"""Rare-event score functions and analytically solvable conditioned sets.

A limit state is a score function phi over (n, d) batches of points with
failure set A = {x : phi(x) >= 0}. The three benchmark scores (linear,
quadratic, finite count) match the published test problems; the slab and
halfspace targets carry closed-form conditional moments of the standard
normal given A, which the estimation lab uses as ground truth.

Scores here depend on a fixed low-dimensional intrinsic subspace U (the
span of u = e_1), so phi(x) = phi(P_U x) for slab and halfspace by
construction.
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

_SQRT_2PI = math.sqrt(2.0 * math.pi)


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


def linear_target(d: int = 100) -> LimitState:
    """phi(x) = <x, 1>/sqrt(d) - 5; exact tail 1 - Phi(5) under f."""
    p = float(1.0 - numerics.std_normal_cdf(5.0))
    return LimitState(name="lin", dim=d, evaluator=partial(_affine_score, _unit_ones(d), 5.0),
                      reference_p=p)


def _quadratic_score(u: np.ndarray, x: np.ndarray) -> np.ndarray:
    diff = x[:, 0] - x[:, 1]
    return x @ u - 4.0 - 1.25 * diff * diff


def quadratic_target(d: int = 334) -> LimitState:
    """phi(x) = <x, 1>/sqrt(d) - 4 - 1.25 (x_1 - x_2)^2."""
    if d < 2:
        raise ValueError("quadratic target needs d >= 2")
    return LimitState(name="quad", dim=d, evaluator=partial(_quadratic_score, _unit_ones(d)),
                      reference_p=6.6e-6)


def _count_score(x: np.ndarray) -> np.ndarray:
    d = x.shape[1]
    # Clip the normal CDF away from {0, 1}: the gamma quantile is infinite
    # at 1 and 0 at 0, where the division would poison the count.
    u2 = np.clip(numerics.std_normal_cdf(x[:, 1]), 1e-300, 1.0 - 1e-16)
    s = np.sqrt(numerics.gamma_inverse_cdf(u2, 6.0, 1.0 / 6.0))
    inner = (0.25 * x[:, :1] + 3.0 * math.sqrt(1.0 - 0.25 ** 2) * x[:, 2:]) / s[:, None]
    return np.sum(inner >= 0.5 * math.sqrt(d), axis=1) - (0.25 * d + 0.1)


def count_target(d: int = 334) -> LimitState:
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
                      reference_p=1.7348e-6 if d == TABLE_DIMS["fin"] else None)


def _first_axis(d: int) -> np.ndarray:
    e = np.zeros(d)
    e[0] = 1.0
    return e


def _variance_along(g: SpikedCovariance, u: np.ndarray) -> float:
    coords = u @ g.directions.T
    return 1.0 + float((g.lambdas - 1.0) @ (coords * coords))


def _slab_score(u: np.ndarray, width: float, x: np.ndarray) -> np.ndarray:
    return width - np.abs(x @ u)


def _slab_q(u: np.ndarray, width: float, g: SpikedCovariance) -> float:
    return float(2.0 * numerics.std_normal_cdf(width / math.sqrt(_variance_along(g, u))) - 1.0)


def _halfspace_q(u: np.ndarray, offset: float, g: SpikedCovariance) -> float:
    return float(numerics.std_normal_cdf(-offset / math.sqrt(_variance_along(g, u))))


def slab_target(d: int, width: float) -> LimitState:
    """A = {|<u, x>| <= K} with u = e_1: slab of half-width K around the origin.

    Conditional of f on A: mean 0, variance 1 - 2 K phi(K) / (2 Phi(K) - 1)
    along u, identity elsewhere.
    """
    if width <= 0.0 or not math.isfinite(width):
        raise ValueError(f"slab half-width must be positive, got {width}")
    u = _first_axis(d)

    big_phi = float(numerics.std_normal_cdf(width))
    p = 2.0 * big_phi - 1.0
    pdf = math.exp(-0.5 * width * width) / _SQRT_2PI
    var_u = 1.0 - 2.0 * width * pdf / p

    analytic = AnalyticConditional(
        p=p,
        mu=np.zeros(d),
        sigma=SpikedCovariance(dim=d, lambdas=np.array([var_u]), directions=u[None, :]),
        q_of=partial(_slab_q, u, width),
    )
    return LimitState(name="slab", dim=d, evaluator=partial(_slab_score, u, width),
                      reference_p=p, analytic=analytic)


def halfspace_target(d: int, offset: float) -> LimitState:
    """A = {<u, x> >= K} with u = e_1: halfspace at distance K.

    Conditional of f on A: mean h(K) u with hazard h = phi(K)/(1 - Phi(K)),
    variance 1 - h (h - K) along u, identity elsewhere.
    """
    if not math.isfinite(offset):
        raise ValueError(f"halfspace offset must be finite, got {offset}")
    u = _first_axis(d)

    p = float(numerics.std_normal_cdf(-offset))
    pdf = math.exp(-0.5 * offset * offset) / _SQRT_2PI
    hazard = pdf / p
    var_u = 1.0 - hazard * (hazard - offset)

    analytic = AnalyticConditional(
        p=p,
        mu=hazard * u,
        sigma=SpikedCovariance(dim=d, lambdas=np.array([var_u]), directions=u[None, :]),
        q_of=partial(_halfspace_q, u, offset),
    )
    return LimitState(name="halfspace", dim=d, evaluator=partial(_affine_score, u, offset),
                      reference_p=p, analytic=analytic)


def check_lambda1(lambda1: float) -> None:
    """The spike variance of the phase-lab sampling laws lies in (0, 1]."""
    if not 0.0 < lambda1 <= 1.0:
        raise ValueError(f"lambda1 must lie in (0, 1], got {lambda1}")


def prop_range_width(alpha: float, lambda1: float, n: int) -> float:
    """Slab half-width K = 1 + sqrt(2 alpha lambda1 log n).

    alpha = 0 is the limiting convention K = 1.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    check_lambda1(lambda1)
    if n < 2:
        raise ValueError(f"sample size must be at least 2, got {n}")
    return 1.0 + math.sqrt(2.0 * alpha * lambda1 * math.log(n))


_BENCHMARK_BUILDERS = {
    "lin": linear_target,
    "quad": quadratic_target,
    "fin": count_target,
}

TABLE_DIMS = {"lin": 100, "quad": 334, "fin": 334}


def benchmark_target(name: str, d: int | None = None) -> LimitState:
    """Benchmark score by short name, at its published dimension by default."""
    if name not in _BENCHMARK_BUILDERS:
        raise ValueError(f"unknown benchmark target {name!r}")
    if d is None:
        d = TABLE_DIMS[name]
    return _BENCHMARK_BUILDERS[name](d)
