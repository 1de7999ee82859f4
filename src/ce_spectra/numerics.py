"""Scalar special functions and dense symmetric matrix primitives.

All routines are deterministic: identical inputs produce identical floats
regardless of call order or process count. Matrix arguments are validated
at this boundary (square, finite, symmetric to tolerance) so callers can
assume well-formed inputs downstream.

scipy is imported inside the functions that call it, never at module level,
so a process that calls none of them (the phase lab) never loads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Entry-pair symmetry tolerance for accepting a matrix as symmetric.
SYM_RTOL = 1e-12

# Cholesky pivots must clear this fraction of the mean diagonal mass.
PIVOT_RTOL = 1e-12


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


def std_normal_tail(x: float) -> float:
    """1 - Phi(x) for a scalar x, from the standard library's erfc: no
    cancellation in the upper tail, and no scipy import."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def std_normal_pdf(x: float) -> float:
    """phi(x) for a scalar x, from the standard library: no scipy import."""
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def std_normal_cdf(x):
    """Standard normal CDF, vectorized, absolute error below 1e-12."""
    from scipy.special import ndtr

    return ndtr(x)


def log_std_normal_cdf(x):
    """log(Phi(x)), accurate far into the left tail."""
    from scipy.special import log_ndtr

    return log_ndtr(x)


def _open_unit(u) -> np.ndarray:
    """u as a float array, every entry strictly inside (0, 1)."""
    u = np.asarray(u, dtype=float)
    if not np.all((u > 0.0) & (u < 1.0)):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")
    return u


def std_normal_quantile(u):
    """Inverse standard normal CDF on the open interval (0, 1)."""
    from scipy.special import ndtri

    return ndtri(_open_unit(u))


def gamma_inverse_cdf(u, shape: float, scale: float):
    """Quantile of the Gamma(shape, scale) distribution.

    Inverts the regularized lower incomplete gamma in the shape parameter,
    then multiplies by the scale.
    """
    if shape <= 0.0 or not math.isfinite(shape):
        raise ValueError(f"shape must be positive, got {shape}")
    if scale <= 0.0 or not math.isfinite(scale):
        raise ValueError(f"scale must be positive, got {scale}")
    from scipy.special import gammaincinv

    return gammaincinv(shape, _open_unit(u)) * scale


def require_symmetric(m) -> np.ndarray:
    """Validate a square, finite, symmetric matrix and return it as float64.

    An exactly symmetric matrix passes on one comparison with its
    transpose; only a near-symmetric one pays for the tolerance test.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NotSymmetricError("matrix has non-finite entries")
    if np.array_equal(m, m.T):
        return m
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


def _symmetric_part(m) -> np.ndarray:
    """(m + m^T) / 2 of a checked symmetric m. The eigen routines decompose
    it, so a matrix symmetric only within SYM_RTOL gives the eigen pairs of
    its symmetric part, not of its lower triangle. An exactly symmetric m is
    its own symmetric part, bit for bit."""
    m = require_symmetric(m)
    return 0.5 * (m + m.T)


def sym_eigen_extremes(m) -> EigenExtremes:
    """Smallest and largest eigenvalues of a symmetric matrix, and the
    eigenvector of the smallest.

    Full decomposition of the symmetric part; the eigenvector carries a
    deterministic sign so repeated calls agree bit for bit.
    """
    w, v = np.linalg.eigh(_symmetric_part(m))
    return EigenExtremes(
        lambda_min=float(w[0]),
        lambda_max=float(w[-1]),
        v_min=_fix_sign(v[:, 0]),
    )


def sym_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, without eigenvectors."""
    return np.linalg.eigvalsh(_symmetric_part(m))


def operator_norm_diff(a, b) -> float:
    """Spectral norm of the difference of two symmetric matrices."""
    a = require_symmetric(a)
    b = require_symmetric(b)
    if a.shape != b.shape:
        raise NotSymmetricError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    # Symmetrized here, not by _symmetric_part: d may fail the check where the
    # tolerances of a and b do not add up, and its symmetric part cannot.
    w = np.linalg.eigvalsh(0.5 * (d + d.T))
    return float(max(abs(w[0]), abs(w[-1])))


def cholesky(m) -> np.ndarray:
    """Lower Cholesky factor (LAPACK ``dpotrf``) with an explicit pivot tolerance.

    A pivot at or below ``PIVOT_RTOL * trace/dim`` raises
    NotPositiveDefiniteError carrying the failing index, so callers can
    distinguish a merely ill-conditioned estimate from a collapsed one. The
    pivots are the squared diagonal of the factor; the failing one is
    recomputed from the factor's row only on the error path.
    """
    from scipy.linalg.lapack import dpotrf

    m = require_symmetric(m)
    d = m.shape[0]
    tol = PIVOT_RTOL * max(float(np.trace(m)), 0.0) / max(d, 1)
    lower, info = dpotrf(m, lower=1)
    # LAPACK stops at the first non-positive pivot (info is its 1-based
    # index); pivots before it still face the tolerance.
    done = info - 1 if info > 0 else d
    low = np.flatnonzero(~(np.diagonal(lower)[:done] ** 2 > tol))
    j = int(low[0]) if low.size else done
    if j < d:
        raise NotPositiveDefiniteError(j, m[j, j] - lower[j, :j] @ lower[j, :j], tol)
    return lower
