"""Gaussian mixture machinery: EM fitting, grid evaluation, KL divergence.

A mixture of m components is four arrays: ``weights (m,)``, ``means (m, 3)``,
``covs (m, 3, 3)`` (full covariances, matching the 14-value wire format) and
integer ``counts (m,)``, the points each component summarizes. The point
total is ``counts.sum()``: EM apportions the counts so that they sum exactly
to the number of fitted points. Probability grids are 2D, obtained by
marginalizing z. All grids carry probability mass (not density) and are
normalized to total mass 1.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
import numpy as np

from .sensor import RANGE_RESOLUTION, ClusterResult

log = logging.getLogger(__name__)

# A radar cannot resolve structure below its range resolution.
COV_EIG_FLOOR = RANGE_RESOLUTION**2

_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned 2D grid over the monitored area."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    resolution: float  # cell size, meters

    def __post_init__(self):
        if self.resolution <= 0:
            raise ValueError("resolution must be > 0")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
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

    def normalized(self) -> "DensityGrid":
        total = self.mass.sum()
        if total <= 0:
            return DensityGrid.uniform(self.spec)
        return DensityGrid(self.spec, self.mass / total)

    def value_at(self, xy: np.ndarray) -> np.ndarray:
        """Mass of the cells containing the given (m, 2) positions."""
        iy, ix = self.spec.cell_index(xy)
        return self.mass[iy, ix]

    def argmax_center(self) -> np.ndarray:
        iy, ix = np.unravel_index(int(np.argmax(self.mass)), self.mass.shape)
        return np.array([self.spec.x_centers()[ix], self.spec.y_centers()[iy]])


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-cluster mean/covariance/count, optionally keeping the ``keep`` largest.

    Ties break toward the smaller cluster label; order is by label among the
    kept clusters, so the output is deterministic.
    """
    counts = np.array([int(np.sum(labels == c)) for c in range(n_clusters)])
    order = sorted(range(n_clusters), key=lambda c: (-counts[c], c))
    if keep is not None:
        order = order[:keep]
    order = sorted(order)
    means, covs, kept_counts = [], [], []
    for c in order:
        member = points[labels == c]
        means.append(member.mean(axis=0))
        covs.append(np.cov(member.T, bias=True) if len(member) > 1 else np.zeros((3, 3)))
        kept_counts.append(len(member))
    covs = _floor_covs(np.array(covs).reshape(-1, 3, 3), COV_EIG_FLOOR, each=True)
    return np.array(means), covs, np.array(kept_counts, dtype=float)


def _floor_covs(covs: np.ndarray, floor: float, each: bool = False) -> np.ndarray:
    """Symmetrize a (m, 3, 3) stack and clip eigenvalues from below.

    When any matrix is below the floor the whole stack is rebuilt from its
    eigendecomposition; with ``each`` only the matrices below it are.
    """
    covs = 0.5 * (covs + covs.transpose(0, 2, 1))
    vals, vecs = np.linalg.eigh(covs)
    low = ~(vals[:, 0] >= floor)
    if not low.any():
        return covs
    if not each:
        low[:] = True
    covs[low] = np.einsum("mij,mj,mkj->mik", vecs[low], np.maximum(vals[low], floor), vecs[low])
    return covs


def _inv_logdet(covs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form inverses and log-determinants of a (m, 3, 3) SPD stack."""
    c = covs
    cof00 = c[:, 1, 1] * c[:, 2, 2] - c[:, 1, 2] * c[:, 2, 1]
    cof01 = c[:, 1, 2] * c[:, 2, 0] - c[:, 1, 0] * c[:, 2, 2]
    cof02 = c[:, 1, 0] * c[:, 2, 1] - c[:, 1, 1] * c[:, 2, 0]
    det = c[:, 0, 0] * cof00 + c[:, 0, 1] * cof01 + c[:, 0, 2] * cof02
    inv = np.empty_like(c)
    inv[:, 0, 0] = cof00
    inv[:, 1, 1] = c[:, 0, 0] * c[:, 2, 2] - c[:, 0, 2] * c[:, 2, 0]
    inv[:, 2, 2] = c[:, 0, 0] * c[:, 1, 1] - c[:, 0, 1] * c[:, 1, 0]
    inv[:, 0, 1] = inv[:, 1, 0] = c[:, 0, 2] * c[:, 2, 1] - c[:, 0, 1] * c[:, 2, 2]
    inv[:, 0, 2] = inv[:, 2, 0] = c[:, 0, 1] * c[:, 1, 2] - c[:, 0, 2] * c[:, 1, 1]
    inv[:, 1, 2] = inv[:, 2, 1] = c[:, 0, 2] * c[:, 1, 0] - c[:, 0, 0] * c[:, 1, 2]
    inv /= det[:, None, None]
    return inv, np.log(det)


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
    n_components: int,
    init_means: np.ndarray,
    *,
    init_covs: np.ndarray | None = None,
    init_weights: np.ndarray | None = None,
    point_weights: np.ndarray | None = None,
    max_iters: int = 60,
    tol: float = 1e-5,
    cov_floor: float = COV_EIG_FLOOR,
    return_trace: bool = False,
):
    """Fit a Gaussian mixture by EM from a deterministic initialization.

    ``point_weights`` gives weighted EM (used to represent a posterior
    rather than a bare likelihood). The (weighted) log-likelihood is
    nondecreasing over iterations; an iteration that would decrease it
    (possible when the covariance floor engages) reverts to the previous
    parameters and stops. Component point counts are apportioned from the
    responsibilities so they sum exactly to the number of points.
    """
    points = np.asarray(points, dtype=float)
    n = len(points)
    if n == 0:
        return (GaussianMixture.empty(), []) if return_trace else GaussianMixture.empty()
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    m = n_components
    if m > n:
        log.warning("reducing components from %d to %d (only %d points)", m, n, n)
        m = n

    means = np.array(init_means, dtype=float)[:m].copy()
    if init_covs is not None:
        covs = np.array(init_covs, dtype=float)[:m].copy()
    else:
        base = np.cov(points.T, bias=True) if n > 1 else np.zeros((3, 3))
        covs = np.tile(base, (m, 1, 1))
    covs = _floor_covs(covs, cov_floor, each=True)
    if init_weights is not None:
        beta = np.asarray(init_weights, dtype=float)[:m].copy()
        beta = beta / beta.sum() if beta.sum() > 0 else np.full(m, 1.0 / m)
    else:
        beta = np.full(m, 1.0 / m)

    if point_weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(point_weights, dtype=float)
        w = w * (n / w.sum()) if w.sum() > 0 else np.ones(n)

    def e_step(beta, means, covs):
        inv, logdet = _inv_logdet(covs)
        diff = points[None, :, :] - means[:, None, :]  # (m, n, 3)
        maha = ((diff @ inv) * diff).sum(axis=2)
        logp = np.log(np.maximum(beta, 1e-300))[:, None] - 0.5 * (maha + (logdet + 3 * _LOG_2PI)[:, None])
        top = logp.max(axis=0)
        norm = top + np.log(np.exp(logp - top).sum(axis=0))
        return float(np.dot(w, norm)), np.exp(logp - norm)

    trace: list[float] = []
    prev_ll = -np.inf
    prev = (beta, means, covs)
    stale_resp = False
    ll, resp = e_step(beta, means, covs)
    for _ in range(max_iters):
        if ll < prev_ll - 1e-12 * max(1.0, abs(prev_ll)):
            beta, means, covs = prev  # floored M-step overshot; keep the last good fit
            stale_resp = True
            break
        trace.append(ll)
        if ll - prev_ll < tol * max(1.0, abs(ll)):
            break
        prev_ll = ll
        prev = (beta.copy(), means.copy(), covs.copy())

        wr = resp * w  # (m, n)
        nm = wr.sum(axis=1)
        alive = nm > 1e-12
        nm_safe = np.where(alive, nm, 1.0)
        new_means = (wr @ points) / nm_safe[:, None]
        diff = points[None, :, :] - new_means[:, None, :]
        new_covs = diff.transpose(0, 2, 1) @ (diff * wr[:, :, None]) / nm_safe[:, None, None]
        new_covs = _floor_covs(new_covs, cov_floor)
        dead = ~alive
        if dead.any():
            new_means[dead] = means[dead]
            new_covs[dead] = covs[dead]
        beta = np.where(alive, nm, 0.0)
        beta = beta / beta.sum() if beta.sum() > 0 else np.full(m, 1.0 / m)
        means, covs = new_means, new_covs
        ll, resp = e_step(beta, means, covs)

    if __debug__ and trace:
        steps = np.diff(trace)
        assert np.all(steps >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1]))), "EM log-likelihood decreased"

    if stale_resp:
        _, resp = e_step(beta, means, covs)
    mixture = GaussianMixture(beta, means, covs, _apportion(resp.sum(axis=1), n))
    return (mixture, trace) if return_trace else mixture


def eval_on_grid(mixture: GaussianMixture, spec: GridSpec) -> DensityGrid:
    """Mixture density marginalized over z, as normalized mass per cell.

    Each component is evaluated on a 6-sigma window (the truncated tail mass
    is negligible). An empty mixture carries no information and maps to the
    uniform grid.
    """
    if mixture.is_empty():
        return DensityGrid.uniform(spec)
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
        dx = xc[ix0:ix1] - mu[0]
        dy = yc[iy0:iy1] - mu[1]
        quad = (
            inv00 * (dx * dx)[None, :]
            + 2.0 * inv01 * dy[:, None] * dx[None, :]
            + inv11 * (dy * dy)[:, None]
        )
        dens[iy0:iy1, ix0:ix1] += weight * np.exp(-0.5 * quad) / (2.0 * math.pi * math.sqrt(det))
    mass = dens * spec.cell_area
    total = mass.sum()
    if total <= 0:
        log.warning("mixture mass entirely outside the grid; falling back to uniform")
        return DensityGrid.uniform(spec)
    return DensityGrid(spec, mass / total)


def kl_divergence(p: DensityGrid, q: DensityGrid, floor: float = 1e-12) -> float:
    """KL divergence between two grids after flooring and renormalization.

    Flooring keeps the divergence finite under disjoint supports; the result
    is nonnegative and zero iff the grids match cell-wise.
    """
    if p.spec != q.spec:
        raise ValueError("grids must share extent and resolution")
    if floor <= 0:
        raise ValueError("floor must be > 0")
    pf = np.maximum(p.mass, floor)
    qf = np.maximum(q.mass, floor)
    pf = pf / pf.sum()
    qf = qf / qf.sum()
    d = float(np.sum(pf * (np.log(pf) - np.log(qf))))
    return max(d, 0.0)


def grid_to_csv(grid: DensityGrid, path) -> None:
    """Write a grid as a row-major CSV matrix with an extent/resolution header."""
    spec = grid.spec
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x_min", "x_max", "y_min", "y_max", "resolution"])
        writer.writerow([repr(v) for v in (spec.x_min, spec.x_max, spec.y_min, spec.y_max, spec.resolution)])
        for row in grid.mass:
            writer.writerow([repr(float(v)) for v in row])


def grid_from_csv(path) -> DensityGrid:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    spec = GridSpec(*(float(v) for v in rows[1]))
    mass = np.array([[float(v) for v in row] for row in rows[2:]])
    return DensityGrid(spec, mass)
