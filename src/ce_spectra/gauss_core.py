"""Gaussian laws with low-rank covariance structure.

The covariance model is a rank-r perturbation of the identity,

    Sigma = I + sum_k (lambda_k - 1) v_k v_k^T,

with orthonormal directions v_k. For such laws the density ratio against
the standard normal has the closed form

    l(x) = |Sigma|^{1/2} exp( 1/2 sum_k (1/lambda_k - 1) <v_k, x>^2 ),

which depends on x only through its projection onto span{v_k}. Ratios are
handled in log space throughout; exponentials appear only at final
aggregation so that heavy-weight samples degrade into recorded infinities
instead of silent NaNs. Densities and ratios take an (n, d) batch of points
and return one value per row; anything else is a ValueError.

Draws are whitened: ``sample`` maps a caller-drawn standard-normal batch z
to x = mean + A z with A A^T = Sigma, in place, so the ratio against the
standard normal needs no solve, for any covariance representation, once
the caller has taken |z|^2:

    log l(x) = 1/2 (log|Sigma| + |z|^2 - |x|^2).

A caller that reads only y = x B^T for a few rows B draws y itself
(``sample_rows``); for identity and spiked laws the coordinates along
``ratio_rows`` give the ratio too (``log_ratio_from_rows``).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numerics

ORTHO_TOL = 1e-10
LAMBDA_FLOOR = 1e-12

_LOG_2PI = 1.8378770664093454836


class CollapsedEstimateError(ValueError):
    """A projection is unusable: its variance fell below the floor, or it
    has no direction to project onto."""


@dataclass(frozen=True)
class SpikedCovariance:
    """I + sum_k (lambda_k - 1) v_k v_k^T with orthonormal rows in directions.

    lambdas are ascending and strictly positive; directions has shape (r, d).
    """

    lambdas: np.ndarray
    directions: np.ndarray

    def __post_init__(self):
        lam = np.atleast_1d(np.asarray(self.lambdas, dtype=float))
        vecs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "directions", vecs)
        if vecs.shape[0] != lam.shape[0]:
            raise ValueError(f"{vecs.shape[0]} directions for {lam.shape[0]} spike variances")
        if not np.all(np.isfinite(lam)) or np.any(lam <= 0.0):
            raise ValueError("spike variances must be finite and positive")
        if np.any(np.diff(lam) < 0.0):
            raise ValueError("spike variances must be ascending")
        # Orthonormality also refuses more directions than dimensions.
        gram = vecs @ vecs.T
        if not np.allclose(gram, np.eye(lam.shape[0]), atol=ORTHO_TOL):
            raise ValueError("directions must be orthonormal")

    @property
    def dim(self) -> int:
        return self.directions.shape[1]

    @property
    def rank(self) -> int:
        return self.lambdas.shape[0]

    def dense(self) -> np.ndarray:
        out = np.eye(self.dim)
        out += (self.directions.T * (self.lambdas - 1.0)) @ self.directions
        return 0.5 * (out + out.T)

    def log_det(self) -> float:
        return float(np.sum(np.log(self.lambdas)))

    def lambda_min(self) -> float:
        """Smallest eigenvalue; the identity block contributes 1 when r < d."""
        lo = float(self.lambdas[0])
        return min(lo, 1.0) if self.rank < self.dim else lo


@dataclass(frozen=True)
class GaussianLaw:
    """Normal law with identity, spiked, or dense covariance.

    At most one covariance representation is set. Dense laws carry their
    Cholesky factor from construction, so an invalid covariance fails fast,
    and the eigen-extremes their builder already computed.
    """

    mean: np.ndarray
    spiked: SpikedCovariance | None = None
    dense_chol: np.ndarray | None = field(default=None, repr=False)
    dense_extremes: numerics.EigenExtremes | None = field(default=None, repr=False)

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        if mean.ndim != 1 or not np.all(np.isfinite(mean)):
            raise ValueError("mean must be a finite vector")
        object.__setattr__(self, "mean", mean)
        if self.spiked is not None and self.dense_chol is not None:
            raise ValueError("covariance given twice")
        if self.spiked is not None and self.spiked.dim != mean.shape[0]:
            raise ValueError("covariance dimension does not match mean")
        if (self.dense_chol is None) != (self.dense_extremes is None):
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
    def dense(cls, mean: np.ndarray, cov: np.ndarray,
              extremes: numerics.EigenExtremes) -> "GaussianLaw":
        """Dense-covariance law; raises NotPositiveDefiniteError when unusable.

        extremes are cov's eigen-extremes (``numerics.sym_eigen_extremes``),
        which the caller has at hand; the law keeps them instead of
        decomposing cov again.
        """
        return cls(mean=np.asarray(mean, dtype=float), dense_chol=numerics.cholesky(cov),
                   dense_extremes=extremes)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def log_det(self) -> float:
        """log|Sigma|."""
        if self.spiked is not None:
            return self.spiked.log_det()
        if self.dense_chol is not None:
            return 2.0 * float(np.sum(np.log(np.diag(self.dense_chol))))
        return 0.0

    def lambda_min(self) -> float:
        """Smallest eigenvalue of the covariance."""
        if self.spiked is not None:
            return self.spiked.lambda_min()
        if self.dense_extremes is not None:
            return self.dense_extremes.lambda_min
        return 1.0


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


def _batch(x: np.ndarray, d: int) -> np.ndarray:
    """x as a float (n, d) batch; anything else is a ValueError."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"expected an (n, {d}) batch of points, got shape {x.shape}")
    return x


def sample(law: GaussianLaw, z: np.ndarray) -> np.ndarray:
    """Map a standard-normal (n, d) batch z to the law in place: mean + A z.

    A is Sigma^{1/2} for spiked laws and the lower Cholesky factor for dense
    ones (one triangular multiply). sample takes ownership of z: the points
    are written over the draws, and for a C-ordered float batch the result
    is z's own buffer, so a caller that needs |z|^2 (log_ratio_to_standard)
    takes it first. A zero mean is not added.
    """
    z = _batch(z, law.dim)
    if law.dense_chol is not None:
        from scipy.linalg.blas import dtrmm

        # x^T = L z^T; z^T is Fortran-ordered, so BLAS writes over it.
        z = dtrmm(1.0, law.dense_chol, z.T, lower=1, overwrite_b=1).T
    elif law.spiked is not None:
        _add_spike(z, law.spiked)
    if law.mean.any():
        z += law.mean
    return z


def _axis_columns(sp: SpikedCovariance) -> np.ndarray | None:
    """The column of each direction's one nonzero entry when every direction
    is an axis, else None. Orthonormal rows have a nonzero each, so rank
    nonzeros means one a row."""
    rows, cols = np.nonzero(sp.directions)
    return cols if rows.size == sp.rank else None


def _add_spike(z: np.ndarray, sp: SpikedCovariance) -> None:
    """z += ((z V^T) * (sqrt(lambdas) - 1)) V in place, V = sp.directions.

    When every direction is an axis, the update touches only those
    columns: each gains its own values times a scale, one strided pass of n
    values. Other directions cost one O(n d r) coordinate product, taken
    before z changes, and one dgemm that adds into z. Either way the bytes
    equal the product written out, for axis entries of +-1.
    """
    vecs = sp.directions
    scale = np.sqrt(sp.lambdas) - 1.0
    cols = _axis_columns(sp)
    if cols is not None:
        for k, j in enumerate(cols):
            col = z[:, j]
            col += col * (scale[k] * vecs[k, j] * vecs[k, j])
        return
    from scipy.linalg.blas import dgemm

    coords = z @ vecs.T
    coords *= scale
    # z^T += V^T coords^T: all three are Fortran-ordered views, so dgemm
    # writes straight into z.
    dgemm(1.0, vecs.T, coords.T, beta=1.0, c=z.T, overwrite_c=1)


def _rows_times_root(law: GaussianLaw, rows: np.ndarray) -> np.ndarray:
    """rows A for the square root A that ``sample`` applies: the lower
    Cholesky factor, I + sum_k (sqrt(lambda_k) - 1) v_k v_k^T, or I."""
    if law.dense_chol is not None:
        return rows @ law.dense_chol
    if law.spiked is None:
        return rows
    sp = law.spiked
    return rows + ((rows @ sp.directions.T) * (np.sqrt(sp.lambdas) - 1.0)) @ sp.directions


def sample_rows(law: GaussianLaw, rows: np.ndarray, size: int,
                rng: np.random.Generator) -> np.ndarray:
    """size draws of y = x rows^T for x from the law, without drawing x.

    y = rows mean + w R with w a standard-normal (size, k') block and R the
    triangular factor of the QR of (rows A)^T, k' = min(k, d): R^T R equals
    rows Sigma rows^T, so the draw is exact for dependent rows and for
    near-singular laws, where that product itself need not factor.
    """
    r = np.linalg.qr(_rows_times_root(law, rows).T, mode="r")
    y = rng.standard_normal((size, r.shape[0])) @ r
    offset = rows @ law.mean
    if offset.any():
        y += offset
    return y


def ratio_rows(law: GaussianLaw) -> np.ndarray:
    """The rows whose coordinates fix log f/g for an identity or spiked law
    g: its mean when nonzero, then its spike directions; (0, d) for the
    standard law. Dense laws have none."""
    if law.dense_chol is not None:
        raise ValueError("a dense law's ratio reads every coordinate")
    rows = [law.mean[None, :]] if law.mean.any() else []
    if law.spiked is not None:
        rows.append(law.spiked.directions)
    return np.concatenate(rows) if rows else np.zeros((0, law.dim))


def log_ratio_from_rows(law: GaussianLaw, c: np.ndarray) -> np.ndarray:
    """log f/g at points x whose coordinates along ratio_rows(law) are c:

        -<m, x> + |m|^2/2 + 1/2 sum_k (1/lambda_k - 1) <v_k, x - m>^2 + 1/2 log|Sigma|.
    """
    out = np.zeros(c.shape[0])
    mean = law.mean
    if mean.any():
        out += 0.5 * float(mean @ mean) - c[:, 0]
        c = c[:, 1:]
    if law.spiked is not None:
        sp = law.spiked
        c = c - sp.directions @ mean
        out += 0.5 * (c * c @ (1.0 / sp.lambdas - 1.0) + sp.log_det())
    return out


def log_density(law: GaussianLaw, x: np.ndarray) -> np.ndarray:
    y = _batch(x, law.dim) - law.mean
    d = law.dim
    if law.spiked is not None:
        sp = law.spiked
        coords = y @ sp.directions.T
        quad = np.sum(y * y, axis=1)
        quad += coords * coords @ (1.0 / sp.lambdas - 1.0)
        return -0.5 * (d * _LOG_2PI + sp.log_det() + quad)
    if law.dense_chol is not None:
        from scipy.linalg import solve_triangular

        half = solve_triangular(law.dense_chol, y.T, lower=True).T
        return -0.5 * (d * _LOG_2PI + law.log_det + np.sum(half * half, axis=1))
    return -0.5 * (d * _LOG_2PI + np.sum(y * y, axis=1))


def log_likelihood_ratio(sigma: SpikedCovariance, x: np.ndarray) -> np.ndarray:
    """log of f/g for f standard normal and g zero-mean with covariance sigma.

    Depends on x only through the spike coordinates, so the cost is
    O(n d r) with no dense algebra. A rank-one ratio squares and scales its
    one coordinate in place; when its direction is an axis, that coordinate
    is the column itself times the direction's entry, read without a pass
    over the other columns.
    """
    x = _batch(x, sigma.dim)
    if sigma.rank == 1:
        v = sigma.directions[0]
        cols = _axis_columns(sigma)
        quad = x @ v if cols is None else x[:, cols[0]] * v[cols[0]]
        np.square(quad, out=quad)
        quad *= 1.0 / sigma.lambdas[0] - 1.0
    else:
        coords = x @ sigma.directions.T
        quad = coords * coords @ (1.0 / sigma.lambdas - 1.0)
    quad += sigma.log_det()
    quad *= 0.5
    return quad


def log_ratio_to_standard(law: GaussianLaw, x: np.ndarray, z_sq: np.ndarray) -> np.ndarray:
    """log of f/g for f the standard normal and g any Gaussian law, at the
    points x = sample(law, z): 1/2 (log|Sigma| + |z|^2 - |x|^2), O(n d).

    z_sq holds the rows' |z|^2, taken before sample wrote the points over
    z. Exactly 0 for the standard law, where x equals z.
    """
    x = _batch(x, law.dim)
    z_sq = np.asarray(z_sq, dtype=float)
    if z_sq.shape != (x.shape[0],):
        raise ValueError(f"squared norms of shape {z_sq.shape} do not match "
                         f"points of shape {x.shape}")
    return 0.5 * (law.log_det + z_sq - np.einsum("ij,ij->i", x, x))


def proj_r(sigma_hat: np.ndarray, v: np.ndarray) -> SpikedCovariance:
    """Project a dense covariance estimate onto one unit spike direction v.

    Returns I + (lambda - 1) v v^T with lambda the quadratic form
    v^T sigma_hat v, identity on the orthogonal complement. A variance below
    LAMBDA_FLOOR leaves no usable estimate and raises CollapsedEstimateError.
    """
    sigma_hat = numerics.require_symmetric(sigma_hat)
    lam = np.einsum("d,de,e->", v, sigma_hat, v)
    if lam < LAMBDA_FLOOR:
        raise CollapsedEstimateError(
            f"projected variance {lam:.6e} below floor {LAMBDA_FLOOR:.1e}"
        )
    return SpikedCovariance(lambdas=lam, directions=v)
