"""Gaussian laws with low-rank covariance structure.

The covariance model is a rank-r perturbation of the identity,

    Sigma = I + sum_k (lambda_k - 1) v_k v_k^T,

with orthonormal directions v_k. For such laws the density ratio against
the standard normal has the closed form

    l(x) = |Sigma|^{1/2} exp( 1/2 sum_k (1/lambda_k - 1) <v_k, x>^2 ),

which depends on x only through its projection onto span{v_k}. Ratios are
handled in log space throughout; exponentials appear only at final
aggregation so that heavy-weight samples degrade into recorded infinities
instead of silent NaNs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from . import numerics

ORTHO_TOL = 1e-10
LAMBDA_FLOOR = 1e-12

_LOG_2PI = 1.8378770664093454836


class CollapsedEstimateError(ValueError):
    """Every projected variance fell below the floor; the estimate is gone."""


@dataclass(frozen=True)
class SpikedCovariance:
    """I + sum_k (lambda_k - 1) v_k v_k^T with orthonormal rows in directions.

    lambdas are ascending and strictly positive; directions has shape (r, d).
    """

    dim: int
    lambdas: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        vecs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "directions", vecs)
        if vecs.shape != (lam.shape[0], self.dim):
            raise ValueError(
                f"directions shape {vecs.shape} does not match "
                f"rank {lam.shape[0]} and dim {self.dim}"
            )
        if lam.shape[0] > self.dim:
            raise ValueError("rank exceeds dimension")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise ValueError("spike variances must be finite and positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("spike variances must be ascending")
        gram = vecs @ vecs.T
        if not np.allclose(gram, np.eye(lam.shape[0]), atol=ORTHO_TOL):
            raise ValueError("directions must be orthonormal")

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]

    def dense(self) -> np.ndarray:
        out = np.eye(self.dim)
        out += (self.directions.T * (self.lambdas - 1.0)) @ self.directions
        return 0.5 * (out + out.T)

    def log_det(self) -> float:
        return float(np.sum(np.log(self.lambdas)))

    def lambda_extremes(self) -> tuple[float, float]:
        """Eigenvalue extremes; the identity block contributes 1 when r < d."""
        lo = float(self.lambdas[0])
        hi = float(self.lambdas[-1])
        if self.rank < self.dim:
            lo = min(lo, 1.0)
            hi = max(hi, 1.0)
        return lo, hi

    def quad_coords(self, x: np.ndarray) -> np.ndarray:
        """<v_k, x> for each direction; batched over leading axes."""
        return np.asarray(x, dtype=float) @ self.directions.T


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law with identity, spiked, or dense covariance.

    Exactly one covariance representation is set; dense laws carry their
    Cholesky factor from construction, so an invalid covariance fails fast.
    """

    mean: np.ndarray
    spiked: SpikedCovariance | None = None
    dense_cov: np.ndarray | None = field(default=None, repr=False)
    dense_chol: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1 or not np.all(np.isfinite(mean)):
            raise ValueError("mean must be a finite vector")
        object.__setattr__(self, "mean", mean)
        if self.spiked is not None and self.dense_cov is not None:
            raise ValueError("covariance given twice")
        if self.spiked is not None and self.spiked.dim != mean.shape[0]:
            raise ValueError("covariance dimension does not match mean")
        if self.dense_cov is not None and self.dense_chol is None:
            raise ValueError("dense laws are built via GaussianLaw.dense")

    @classmethod
    def identity(cls, dim: int) -> "GaussianLaw":
        return cls(mean=np.zeros(dim))

    @classmethod
    def with_spiked(cls, spiked: SpikedCovariance, mean: np.ndarray | None = None) -> "GaussianLaw":
        if mean is None:
            mean = np.zeros(spiked.dim)
        return cls(mean=mean, spiked=spiked)

    @classmethod
    def dense(cls, mean: np.ndarray, cov: np.ndarray) -> "GaussianLaw":
        """Dense-covariance law; raises NotPositiveDefiniteError when unusable."""
        chol = numerics.cholesky(cov)
        return cls(mean=np.asarray(mean, dtype=float), dense_cov=np.asarray(cov, dtype=float), dense_chol=chol)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    def covariance_extremes(self) -> tuple[float, float]:
        if self.spiked is not None:
            return self.spiked.lambda_extremes()
        if self.dense_cov is not None:
            ext = numerics.sym_eigen_extremes(self.dense_cov)
            return ext.lambda_min, ext.lambda_max
        return 1.0, 1.0


@dataclass(frozen=True)
class WeightedSample:
    """Sample points with log importance ratios and limit-state scores.

    indicators marks the event {score >= 0}.
    """

    points: np.ndarray
    log_ratios: np.ndarray
    scores: np.ndarray
    indicators: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        lr = np.asarray(self.log_ratios, dtype=float)
        sc = np.asarray(self.scores, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "log_ratios", lr)
        object.__setattr__(self, "scores", sc)
        object.__setattr__(self, "indicators", sc >= 0.0)
        if pts.ndim != 2:
            raise ValueError("points must be a (n, d) array")
        n = pts.shape[0]
        if lr.shape != (n,) or sc.shape != (n,):
            raise ValueError("log_ratios and scores must have length n")
        if not np.all(np.isfinite(lr)):
            raise ValueError("log ratios must be finite")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def sample(law: GaussianLaw, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n points from the law; O(n d r) for spiked covariances."""
    if n <= 0:
        raise ValueError(f"sample size must be positive, got {n}")
    z = rng.standard_normal((n, law.dim))
    if law.spiked is not None:
        sp = law.spiked
        coords = z @ sp.directions.T
        z += (coords * (np.sqrt(sp.lambdas) - 1.0)) @ sp.directions
    elif law.dense_chol is not None:
        z = z @ law.dense_chol.T
    return z + law.mean


def log_density(law: GaussianLaw, x: np.ndarray) -> np.ndarray | float:
    """Log density at x; accepts a single point (d,) or a batch (n, d)."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    y = np.atleast_2d(x) - law.mean
    d = law.dim
    if y.shape[1] != d:
        raise ValueError(f"point dimension {y.shape[1]} does not match law dimension {d}")
    if law.spiked is not None:
        sp = law.spiked
        coords = y @ sp.directions.T
        quad = np.sum(y * y, axis=1)
        quad += coords * coords @ (1.0 / sp.lambdas - 1.0)
        out = -0.5 * (d * _LOG_2PI + sp.log_det() + quad)
    elif law.dense_chol is not None:
        half = solve_triangular(law.dense_chol, y.T, lower=True).T
        log_det = 2.0 * float(np.sum(np.log(np.diag(law.dense_chol))))
        out = -0.5 * (d * _LOG_2PI + log_det + np.sum(half * half, axis=1))
    else:
        out = -0.5 * (d * _LOG_2PI + np.sum(y * y, axis=1))
    return float(out[0]) if single else out


def log_likelihood_ratio(sigma: SpikedCovariance, x: np.ndarray) -> np.ndarray | float:
    """log of f/g for f standard normal and g zero-mean with covariance sigma.

    Depends on x only through the spike coordinates, so the cost is
    O(n d r) with no dense algebra.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    coords = np.atleast_2d(x) @ sigma.directions.T
    out = 0.5 * (sigma.log_det() + coords * coords @ (1.0 / sigma.lambdas - 1.0))
    return float(out[0]) if single else out


def log_ratio_to_standard(law: GaussianLaw, x: np.ndarray) -> np.ndarray | float:
    """log of f/g for f the standard normal and g an arbitrary Gaussian law."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = np.atleast_2d(x)
    if law.spiked is None and law.dense_cov is None and not np.any(law.mean):
        out = np.zeros(pts.shape[0])
    else:
        out = -0.5 * (law.dim * _LOG_2PI + np.sum(pts * pts, axis=1))
        out -= log_density(law, pts)
    return float(out[0]) if single else out


def proj_r(sigma_hat: np.ndarray, directions: np.ndarray) -> SpikedCovariance:
    """Project a dense covariance estimate onto given spike directions.

    Returns I + sum_k (lambda_k - 1) v_k v_k^T with lambda_k the quadratic
    form v_k^T sigma_hat v_k, identity on the orthogonal complement.
    Variances below LAMBDA_FLOOR are clamped to it so a degenerating run
    keeps sampling long enough to record its blow-up; when every variance
    is below the floor the estimate is unusable and CollapsedEstimateError
    is raised.
    """
    sigma_hat = numerics.require_symmetric(sigma_hat)
    vecs = np.atleast_2d(np.asarray(directions, dtype=float))
    gram = vecs @ vecs.T
    if not np.allclose(gram, np.eye(vecs.shape[0]), atol=ORTHO_TOL):
        raise ValueError("projection directions must be orthonormal")
    lam = np.einsum("kd,de,ke->k", vecs, sigma_hat, vecs)
    if np.all(lam < LAMBDA_FLOOR):
        raise CollapsedEstimateError(
            f"all projected variances below floor {LAMBDA_FLOOR:.1e}: {lam}"
        )
    lam = np.maximum(lam, LAMBDA_FLOOR)
    order = np.argsort(lam, kind="stable")
    return SpikedCovariance(dim=sigma_hat.shape[0], lambdas=lam[order], directions=vecs[order])

