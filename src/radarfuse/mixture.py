"""Gaussian mixture machinery: EM fitting, grid evaluation, KL divergence.

A mixture of m components is four arrays: ``weights (m,)``, ``means (m, 3)``,
``covs (m, 3, 3)`` (full covariances, matching the 14-value wire format) and
integer ``counts (m,)``, the points each component summarizes. The point
total is ``counts.sum()``: EM apportions the counts so that they sum exactly
to the number of fitted points. Probability grids are 2D, obtained by
marginalizing z. All grids carry probability mass (not density) and are
normalized to total mass 1. ``eval_on_grid`` is ``grid_density``, a
mixture's unnormalized mass per cell, followed by ``normalized_density``;
a weighted sum of mixtures is the normalized weighted sum of their
densities, so each mixture is evaluated once however many sums it joins.

A fit starts from a mixture. Cooperation's pooled likelihood starts from the
members' cluster moments; federation's posterior refit, the mixture a radar
broadcasts, starts from the radar's likelihood mixture.

EM works on quadratic point features. ``quad_features`` centres the points
on their mean and builds the (10, n) features ``[1, x, y, z, x², y², z², xy,
xz, yz]``. A caller that fits the same points more than once (a cloud's
cluster moments, its likelihood fit and its posterior refit) builds them once
and hands them to ``cluster_moments`` and ``fit_em``. Every component's
log-density ``log β − ½(x−μ)'P(x−μ) − ½ log|2πΣ|`` is linear in those
features, with one (10,) coefficient row per component, so
an E-step is one (m, 10) @ (10, n) product, and the M-step's weighted counts,
first and second moments are one (m, n) @ (n, 10) product. Centring keeps the
expanded quadratic forms free of cancellation between large terms. The
precisions and log-determinants come from the ``eigh`` that floors the
covariances, and no normalized responsibility matrix is built per iteration.

The E-step exponentiates only log-ratios at or above ``log(tiny)``: a
responsibility that would be subnormal or zero is set to exactly 0. This
changes no result bit (see ``fit_em``) and keeps ``exp`` off numpy's slow
subnormal and underflow paths, which cost 20 to 130 times the normal case
when components lie far apart.

Each guard runs its slow path only for the inputs that need it: the E-step
runs the masked ``exp`` only when one ``min`` finds a log-ratio below
``log(tiny)`` (7% of ``converging``'s E-steps, 92% of ``default``'s, in one
benchmark round); ``_floor_eigh`` symmetrizes only a stack not symmetric bit
for bit (11% of ``converging``'s starts) and builds a new one only when an
eigenvalue is below the floor (27% of ``converging``'s M-steps, none of
``default``'s); the M-step's dead-component branch runs only when needed.

Small fits cost more in numpy call overhead than in arithmetic; the kernels
skip what moves no bit. ``_eigh`` is the LAPACK gufunc ``np.linalg.eigh``
wraps, under its error state but without its checks (4.5 against 7.3 µs for
two matrices); the E-step fills its coefficients in place and
``grid_density`` each window in one buffer. On calls captured from one round
of each workload (one core), a ``converging`` likelihood fit took 162 µs (190
before), a ``default`` pooled fit 1,686 µs (1,876), a grid 85 µs (92).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
import numpy as np
from numpy.linalg import _umath_linalg

from .sensor import RANGE_RESOLUTION, ClusterResult

log = logging.getLogger(__name__)

# A radar cannot resolve structure below its range resolution.
COV_EIG_FLOOR = RANGE_RESOLUTION**2

_LOG_2PI = math.log(2.0 * math.pi)
# Below this, exp(·) is subnormal or zero; the E-step sets it to exactly 0.
_LOG_TINY = math.log(np.finfo(float).tiny)
_KL_FLOOR = 1e-12  # per-cell mass floor of kl_divergence

# EM point features are [1, x, y, z, x^2, y^2, z^2, xy, xz, yz]. A precision
# matrix P enters log N through -x'Px/2: entries (0,0), (1,1), (2,2), (0,1),
# (0,2), (1,2) of the flattened P, scaled by -1/2 on the diagonal and -1 off it.
_QUAD_ENTRIES = np.array([0, 4, 8, 1, 2, 5])
_QUAD_SCALE = np.array([-0.5, -0.5, -0.5, -1.0, -1.0, -1.0])
# Feature moment of each entry of E[xx'].
_SECOND_MOMENTS = np.array([[4, 7, 8], [7, 5, 9], [8, 9, 6]])


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned 2D grid over the monitored area."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float  # cell size, meters

    def __post_init__(self):
        # Written so that NaN fails each comparison.
        if not self.resolution > 0:
            raise ValueError("resolution must be > 0")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid extent must be non-degenerate")

    @property
    def nx(self) -> int:
        return max(1, int(round((self.x_max - self.x_min) / self.resolution)))

    @property
    def ny(self) -> int:
        return max(1, int(round((self.y_max - self.y_min) / self.resolution)))

    @property
    def n_cells(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.resolution * self.resolution

    def x_centers(self) -> np.ndarray:
        return self.x_min + (np.arange(self.nx) + 0.5) * self.resolution

    def y_centers(self) -> np.ndarray:
        return self.y_min + (np.arange(self.ny) + 0.5) * self.resolution

    def cell_index(self, xy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(iy, ix) of the cells containing the (m, 2) positions, clipped to the grid."""
        xy = np.atleast_2d(xy)
        ix = np.clip(((xy[:, 0] - self.x_min) / self.resolution).astype(int), 0, self.nx - 1)
        iy = np.clip(((xy[:, 1] - self.y_min) / self.resolution).astype(int), 0, self.ny - 1)
        return iy, ix


@dataclass
class DensityGrid:
    """Probability mass over a GridSpec; ``mass[iy, ix]`` sums to 1."""

    spec: GridSpec
    mass: np.ndarray  # (ny, nx)

    @classmethod
    def uniform(cls, spec: GridSpec) -> "DensityGrid":
        return cls(spec, np.full((spec.ny, spec.nx), 1.0 / spec.n_cells))

    def value_at(self, xy: np.ndarray) -> np.ndarray:
        """Mass of the cells containing the given (m, 2) positions."""
        iy, ix = self.spec.cell_index(xy)
        return self.mass[iy, ix]


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Weighted 3D Gaussian components and the point count of each."""

    weights: np.ndarray  # (m,)
    means: np.ndarray  # (m, 3)
    covs: np.ndarray  # (m, 3, 3) symmetric positive-definite
    counts: np.ndarray  # (m,) int

    def __post_init__(self):
        m = len(self.weights)
        for name, dtype, shape in (("weights", float, (m,)), ("means", float, (m, 3)),
                                   ("covs", float, (m, 3, 3)), ("counts", int, (m,))):
            value = np.asarray(getattr(self, name), dtype=dtype)
            if value.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {value.shape}")
            object.__setattr__(self, name, value)

    @classmethod
    def empty(cls) -> "GaussianMixture":
        return cls(np.empty(0), np.empty((0, 3)), np.empty((0, 3, 3)), np.empty(0, dtype=int))

    @property
    def n_components(self) -> int:
        return len(self.weights)

    @property
    def total_points(self) -> int:
        return int(self.counts.sum())

    def is_empty(self) -> bool:
        return self.n_components == 0


def choose_components(clusters: ClusterResult, m_max: int) -> int:
    """Component count: one per surviving cluster, capped at m_max."""
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    return min(clusters.n_clusters, m_max)


def cluster_moments(
    points: np.ndarray,
    labels: np.ndarray,
    n_clusters: int,
    keep: int | None = None,
    features: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster mean/covariance/count, optionally keeping the ``keep`` largest.

    Ties break toward the smaller cluster label; order is by label among the
    kept clusters, so the output is deterministic. Counts, sums and ``E[xx']``
    come from one product of the label indicators with the points'
    ``quad_features`` (built here unless ``features`` passes them in);
    ``cov = E[xx'] − μμ'`` loses a few ulps of ``|μ − centre|²`` to
    cancellation, as in ``fit_em``'s M-step.
    """
    feats, centre = quad_features(points) if features is None else features
    moments = (labels == np.arange(n_clusters)[:, None]) @ feats.T  # (k, 10)
    order = np.argsort(-moments[:, 0], kind="stable")  # stable: ties keep the smaller label
    moments = moments[np.sort(order[:keep])]
    counts = moments[:, 0]
    moments = moments / counts[:, None]
    means = moments[:, 1:4]
    covs = moments[:, _SECOND_MOMENTS] - means[:, :, None] * means[:, None, :]
    covs, _, _ = _floor_eigh(covs, COV_EIG_FLOOR, each=True)
    return means + centre, covs, counts


def quad_features(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (10, n) centred quadratic features of the points, and their centre."""
    centre = points.mean(axis=0)
    feats = np.empty((10, len(points)))
    feats[0] = 1.0
    xyz = np.subtract(points.T, centre[:, None], out=feats[1:4])
    np.multiply(xyz, xyz, out=feats[4:7])
    np.multiply(xyz[0], xyz[1:], out=feats[7:9])
    np.multiply(xyz[1], xyz[2], out=feats[9])
    return feats, centre


def _no_convergence(err, flag):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


@np.errstate(call=_no_convergence, invalid="call", over="ignore", divide="ignore", under="ignore")
def _eigh(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh`` of a float (m, 3, 3) stack: its gufunc, under its error state, without its checks."""
    return _umath_linalg.eigh_lo(covs, signature="d->dd")


def _floor_eigh(covs: np.ndarray, floor: float, each: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetrize a (m, 3, 3) stack and clip eigenvalues from below.

    When any matrix is below the floor the whole stack is rebuilt from its
    eigendecomposition; with ``each`` only the matrices below it are. Also
    returns the precisions ``V diag(1/λ) Vᵀ`` and log-determinants ``Σ log λ``.
    A stack that is symmetric bit for bit and above the floor is returned as
    it is; the caller's stack is never written.
    """
    if covs.tobytes() != covs.transpose(0, 2, 1).tobytes():
        covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    vals, vecs = _eigh(covs)
    low = ~(vals[:, 0] >= floor)
    if low.any():
        covs = covs.copy()  # never write the caller's stack
        if not each:
            low[:] = True
        vals[low] = np.maximum(vals[low], floor)
        covs[low] = np.einsum("mij,mj,mkj->mik", vecs[low], vals[low], vecs[low])
    prec = (vecs / vals[:, None, :]) @ vecs.transpose(0, 2, 1)
    return covs, prec, np.log(vals).sum(axis=1)


def _apportion(weights: np.ndarray, total: int) -> np.ndarray:
    """Integer counts proportional to ``weights`` summing exactly to ``total``."""
    if weights.sum() <= 0:
        weights = np.ones_like(weights)
    share = weights / weights.sum() * total
    base = np.floor(share).astype(int)
    remainder = total - base.sum()
    if remainder > 0:
        frac_order = np.argsort(-(share - base), kind="stable")
        base[frac_order[:remainder]] += 1
    return base


def fit_em(
    points: np.ndarray,
    start: GaussianMixture,
    *,
    point_weights: np.ndarray | None = None,
    features: tuple[np.ndarray, np.ndarray] | None = None,
    max_iters: int,
    tol: float,
    return_trace: bool = False,
):
    """Fit a Gaussian mixture by EM from the ``start`` mixture.

    The fit keeps ``start``'s components (its first n when there are only
    n < m points) and begins at their means, floored covariances and
    weights, normalized to sum to 1; ``start.counts`` is not read. An empty
    start raises ValueError. ``point_weights`` gives weighted EM (used to
    represent a posterior rather than a bare likelihood). ``features`` are
    the points' ``quad_features`` when the caller has them already; the fit
    is the same either way. The (weighted) log-likelihood is nondecreasing
    over iterations; an iteration that would decrease it (possible when the
    covariance floor engages) reverts to the previous parameters and stops.
    A fit that reaches ``max_iters`` checks its last M-step the same way;
    the returned trace holds the log-likelihood before each M-step, not the
    one after the last.

    Each iteration is two small matrix products over the centred quadratic
    features (see the module docstring) and one ``eigh``: the E-step takes
    ``e = exp(coef @ feats − max)`` and its column sums ``s``; the M-step
    takes counts, means and ``E[xx']`` from ``(e * (w / s)) @ feats.T``, sets
    ``cov = E[xx'] − μμ'`` and floors it, and the floor's ``eigh`` gives the
    next E-step its precisions and log-determinants. Means are kept centred
    during the fit and shifted back on return.

    The E-step sets to exactly 0 every ``exp(log p − max)`` below ``tiny``
    (the smallest normal double) instead of computing a subnormal or zero.
    That is exact: the top component of each point contributes 1 to ``s``,
    so adding a value below 2⁻¹⁰²² changes no bit of it or of the
    log-likelihood. A dropped ``e * (w / s)`` entry would lie below
    ``tiny · w``: a component whose entries all lie there has a weighted
    count under 1e-12 either way and takes the same dead-component branch,
    and in a live component's sums the dropped terms are absorbed.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        return (GaussianMixture.empty(), []) if return_trace else GaussianMixture.empty()
    if start.is_empty():
        raise ValueError("the start mixture must have at least one component")
    m = start.n_components
    if m > n:
        log.warning("reducing components from %d to %d (only %d points)", m, n, n)
        m = n

    # No step below writes an array it did not make, so the start is never written.
    covs, prec, logdet = _floor_eigh(start.covs[:m], COV_EIG_FLOOR, each=True)
    beta = start.weights[:m]
    beta = beta / beta.sum() if beta.sum() > 0 else np.full(m, 1.0 / m)

    if point_weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(point_weights, dtype=float)
        w = w * (n / w.sum()) if w.sum() > 0 else np.ones(n)

    # Work in coordinates centred on the points' mean, so the expanded
    # quadratic forms below cancel no large terms.
    feats, centre = quad_features(points) if features is None else features
    means = start.means[:m] - centre

    def e_step(beta, means, prec, logdet):
        coef = np.empty((len(means), 10))
        p_mu = np.einsum("mij,mj->mi", prec, means, out=coef[:, 1:4])
        coef[:, 0] = np.log(np.maximum(beta, 1e-300)) - 0.5 * (np.einsum("mi,mi->m", p_mu, means)
                                                               + logdet + 3 * _LOG_2PI)
        np.multiply(prec.reshape(-1, 9)[:, _QUAD_ENTRIES], _QUAD_SCALE, out=coef[:, 4:])
        logp = coef @ feats  # (m, n) log(beta_j N(x_i; mu_j, cov_j))
        top = logp.max(axis=0)
        d = np.subtract(logp, top, out=logp)
        if d.min() >= _LOG_TINY:
            e = np.exp(d, out=d)
        else:
            e = np.exp(d, out=np.zeros_like(d), where=d >= _LOG_TINY)
        s = e.sum(axis=0)
        return float(np.dot(w, top + np.log(s))), e, s

    trace: list[float] = []
    prev_ll = -np.inf
    prev = (beta, means, covs, prec, logdet)
    ll, e, s = e_step(beta, means, prec, logdet)
    for it in range(max_iters + 1):
        if ll < prev_ll - 1e-12 * max(1.0, abs(prev_ll)):
            beta, means, covs, prec, logdet = prev  # floored M-step overshot; keep the last good fit
            _, e, s = e_step(beta, means, prec, logdet)
            break
        if it == max_iters:  # the last M-step's log-likelihood is checked, not traced
            break
        trace.append(ll)
        if ll - prev_ll < tol * max(1.0, abs(ll)):
            break
        prev_ll = ll
        prev = (beta, means, covs, prec, logdet)

        e *= w / s  # the next E-step makes a new e
        moments = e @ feats.T  # (m, 10) weighted sums of the features
        nm = moments[:, 0]
        alive = nm > 1e-12
        every_alive = alive.all()
        moments = moments / (nm if every_alive else np.where(alive, nm, 1.0))[:, None]
        new_means = moments[:, 1:4]
        new_covs = moments[:, _SECOND_MOMENTS] - new_means[:, :, None] * new_means[:, None, :]
        new_covs, new_prec, new_logdet = _floor_eigh(new_covs, COV_EIG_FLOOR)
        if not every_alive:
            dead = ~alive
            new_means[dead] = means[dead]
            new_covs[dead] = covs[dead]
            new_prec[dead] = prec[dead]
            new_logdet[dead] = logdet[dead]
        beta = nm if every_alive else np.where(alive, nm, 0.0)
        beta = beta / total if (total := beta.sum()) > 0 else np.full(m, 1.0 / m)
        means, covs, prec, logdet = new_means, new_covs, new_prec, new_logdet
        ll, e, s = e_step(beta, means, prec, logdet)

    assert all(b - a >= -1e-9 * max(1.0, abs(a)) for a, b in zip(trace, trace[1:])), "EM log-likelihood decreased"

    mixture = GaussianMixture(beta, means + centre, covs, _apportion((e / s).sum(axis=1), n))
    return (mixture, trace) if return_trace else mixture


def grid_density(mixture: GaussianMixture, spec: GridSpec) -> np.ndarray | None:
    """Unnormalized mass per cell ``(ny, nx)`` of the mixture marginalized
    over z: its density times the cell area. None for an empty mixture,
    which has no density.

    Each component is evaluated on a 6-sigma window (the truncated tail mass is
    negligible) as ``weight · exp(−quad/2) / (2π√det)``, ``quad = inv00·dx² +
    2·inv01·dy·dx + inv11·dy²``, in one buffer, in place, in that operand order.
    """
    if mixture.is_empty():
        return None
    xc, yc = spec.x_centers(), spec.y_centers()
    dens = np.zeros((spec.ny, spec.nx))
    for weight, mu, cov in zip(mixture.weights, mixture.means[:, :2], mixture.covs[:, :2, :2]):
        det = cov[0, 0] * cov[1, 1] - cov[0, 1] * cov[1, 0]
        inv00, inv11, inv01 = cov[1, 1] / det, cov[0, 0] / det, -cov[0, 1] / det
        reach = 6.0 * math.sqrt(max(cov[0, 0], cov[1, 1]))
        ix0, ix1 = np.searchsorted(xc, (mu[0] - reach, mu[0] + reach))
        iy0, iy1 = np.searchsorted(yc, (mu[1] - reach, mu[1] + reach))
        if ix0 == ix1 or iy0 == iy1:
            continue
        dx, dy = xc[ix0:ix1] - mu[0], yc[iy0:iy1] - mu[1]
        win = (2.0 * inv01 * dy)[:, None] * dx  # the middle term of quad
        win += inv00 * (dx * dx)
        win += (inv11 * (dy * dy))[:, None]
        win *= -0.5
        np.exp(win, out=win)
        win *= weight
        win /= 2.0 * math.pi * math.sqrt(det)
        dens[iy0:iy1, ix0:ix1] += win
    return np.multiply(dens, spec.cell_area, out=dens)


def normalized_density(mass: np.ndarray | None, spec: GridSpec) -> DensityGrid:
    """The grid of a ``grid_density`` result. No density (an empty mixture)
    carries no information and maps to the uniform grid, as does, with a
    warning, a density with no mass on the grid."""
    if mass is None:
        return DensityGrid.uniform(spec)
    total = mass.sum()
    if total <= 0:
        log.warning("mixture mass entirely outside the grid; falling back to uniform")
        return DensityGrid.uniform(spec)
    return DensityGrid(spec, mass / total)


def eval_on_grid(mixture: GaussianMixture, spec: GridSpec) -> DensityGrid:
    """Mixture density marginalized over z, as normalized mass per cell; an
    empty mixture maps to the uniform grid."""
    return normalized_density(grid_density(mixture, spec), spec)


def kl_divergence(p: DensityGrid, q: DensityGrid) -> float:
    """KL divergence between two grids after flooring and renormalization.

    Flooring keeps the divergence finite under disjoint supports; the result
    is nonnegative and zero iff the grids match cell-wise.
    """
    if p.spec != q.spec:
        raise ValueError("grids must share extent and resolution")
    pf = np.maximum(p.mass, _KL_FLOOR)
    qf = np.maximum(q.mass, _KL_FLOOR)
    pf = pf / pf.sum()
    qf = qf / qf.sum()
    d = float(np.sum(pf * (np.log(pf) - np.log(qf))))
    return max(d, 0.0)
