"""Scalar special functions and dense symmetric matrix primitives.

All routines are deterministic: identical inputs produce identical floats
regardless of call order or process count. Matrix arguments are validated
at this boundary (square, finite, symmetric to tolerance) so callers can
assume well-formed inputs downstream.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _special

# Entry-pair symmetry tolerance for accepting a matrix as symmetric.
SYM_RTOL = 1e-12

# Cholesky pivots must clear this fraction of the mean diagonal mass.
PIVOT_RTOL = 1e-12


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class NotSymmetricError(ValueError):
    """Matrix failed the symmetry or finiteness check."""


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """A Cholesky pivot fell at or below tolerance.

    ``pivot_index`` is 0-based; the message reports the 1-based position.
    """

    def __init__(self, pivot_index: int, value: float, tol: float):
        self.pivot_index = int(pivot_index)
        self.value = float(value)
        self.tol = float(tol)
        super().__init__(
            f"pivot {self.pivot_index + 1} = {self.value:.6e} "
            f"not above tolerance {self.tol:.6e}"
        )


def exp_saturated(x: float) -> float:
    """exp that overflows to +inf instead of raising.

    Peak log weights can exceed the double range; downstream code treats
    the resulting inf as a divergence signal, so it must be a value, not
    an exception.
    """
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def std_normal_cdf(x):
    """Standard normal CDF, vectorized, absolute error below 1e-12."""
    return _special.ndtr(x)


def log_std_normal_cdf(x):
    """log(Phi(x)), accurate far into the left tail."""
    return _special.log_ndtr(x)


def std_normal_pdf(x):
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def std_normal_quantile(u):
    """Inverse standard normal CDF on the open interval (0, 1)."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    out = _special.ndtri(u)
    return float(out) if out.ndim == 0 else out


def gamma_inverse_cdf(u, shape: float, scale: float):
    """Quantile of the Gamma(shape, scale) distribution.

    Inverts the regularized lower incomplete gamma in the shape parameter,
    then multiplies by the scale.
    """
    if shape <= 0.0 or not math.isfinite(shape):
        raise DomainError(f"shape must be positive, got {shape}")
    if scale <= 0.0 or not math.isfinite(scale):
        raise DomainError(f"scale must be positive, got {scale}")
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    out = _special.gammaincinv(shape, u) * scale
    return float(out) if out.ndim == 0 else out


def require_symmetric(m) -> np.ndarray:
    """Validate a square, finite, symmetric matrix and return it as float64."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSymmetricError("matrix has non-finite entries")
    scale = np.max(np.abs(m)) if m.size else 0.0
    if not np.allclose(m, m.T, rtol=SYM_RTOL, atol=SYM_RTOL * max(1.0, scale)):
        raise NotSymmetricError("matrix is not symmetric within tolerance")
    return m


@dataclass(frozen=True)
class EigenExtremes:
    """Extreme eigenvalues of a symmetric matrix; eigenvector of the smallest."""

    lambda_min: float
    lambda_max: float
    v_min: np.ndarray


def _fix_sign(v: np.ndarray) -> np.ndarray:
    # Deterministic orientation: the largest-magnitude entry is positive,
    # first such index on ties.
    i = int(np.argmax(np.abs(v)))
    if v[i] < 0.0:
        return -v
    return v.copy()


def sym_eigen_extremes(m) -> EigenExtremes:
    """Smallest and largest eigenvalues of a symmetric matrix, and the
    eigenvector of the smallest.

    Full decomposition of the symmetrized input; the eigenvector carries a
    deterministic sign so repeated calls agree bit for bit.
    """
    m = require_symmetric(m)
    w, v = np.linalg.eigh(0.5 * (m + m.T))
    return EigenExtremes(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        v_min=_fix_sign(v[:, 0]),
    )


def operator_norm_diff(a, b) -> float:
    """Spectral norm of the difference of two symmetric matrices."""
    a = require_symmetric(a)
    b = require_symmetric(b)
    if a.shape != b.shape:
        raise NotSymmetricError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    w = np.linalg.eigvalsh(0.5 * (d + d.T))
    return float(max(abs(w[0]), abs(w[-1])))


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor with an explicit pivot tolerance.

    A pivot at or below ``PIVOT_RTOL * trace/dim`` raises
    NotPositiveDefiniteError carrying the failing index, so callers can
    distinguish a merely ill-conditioned estimate from a collapsed one.
    """
    m = require_symmetric(m)
    d = m.shape[0]
    tol = PIVOT_RTOL * max(float(np.trace(m)), 0.0) / max(d, 1)
    lower = np.zeros_like(m)
    for j in range(d):
        s = m[j, j] - lower[j, :j] @ lower[j, :j]
        if not (s > tol):
            raise NotPositiveDefiniteError(j, s, tol)
        root = math.sqrt(s)
        lower[j, j] = root
        if j + 1 < d:
            lower[j + 1 :, j] = (m[j + 1 :, j] - lower[j + 1 :, :j] @ lower[j, :j]) / root
    return lower
