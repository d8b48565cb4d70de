"""Bayesian fusion core.

Per-radar recursion: a motion prior built from the previously reconstructed
scene is combined cell-wise with a likelihood grid fitted to the current
point cloud. Three posteriors are supported:

* local    - own cloud only; its mixture is the transmissible parameter set
* global   - pooled clouds from the radar and its neighbors (cooperation)
* federated - convex combination of local-posterior mixtures (federation)

Target positions are the local maxima of the thresholded posterior grid.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.ndimage import gaussian_filter

from .mixture import (
    DensityGrid,
    GaussianMixture,
    GridSpec,
    choose_components,
    cluster_moments,
    eval_on_grid,
    fit_em,
)
from .sensor import GLOBAL, RANGE_RESOLUTION, ClusterResult, PointCloud

log = logging.getLogger(__name__)

# Random-walk step floor: even a stationary target diffuses by one
# resolvable range cell per update.
SIGMA_FLOOR = RANGE_RESOLUTION


@dataclass(frozen=True)
class FitOptions:
    """Mixture-fit knobs shared by all posterior builders."""

    m_max: int = 8
    max_iters: int = 60
    tol: float = 1e-5


@dataclass
class Posterior:
    grid: DensityGrid
    mixture: GaussianMixture
    epoch: int


@dataclass
class ReconstructedScene:
    """Grid cells whose peak-normalized posterior exceeds the threshold."""

    points: np.ndarray  # (s, 2) cell centers
    tau: float
    epoch: int

    def __len__(self) -> int:
        return len(self.points)


@dataclass
class TargetEstimates:
    positions: np.ndarray  # (m, 2)
    epoch: int

    def __len__(self) -> int:
        return len(self.positions)


def _require_global(cloud: PointCloud) -> None:
    if cloud.frame != GLOBAL:
        raise ValueError(f"fusion consumes {GLOBAL}-frame clouds, got {cloud.frame!r}")


def likelihood_from_cloud(
    cloud: PointCloud,
    clusters: ClusterResult,
    spec: GridSpec,
    fit: FitOptions = FitOptions(),
) -> tuple[DensityGrid, GaussianMixture]:
    """Likelihood grid and mixture for one preprocessed cloud.

    The component count comes from the cloud's clustering; an empty cloud
    (or no surviving clusters) is uninformative and yields a uniform grid.
    """
    return pooled_likelihood([(cloud, clusters)], spec, fit)


def pooled_likelihood(
    ensemble: Sequence[tuple[PointCloud, ClusterResult]],
    spec: GridSpec,
    fit: FitOptions = FitOptions(),
) -> tuple[DensityGrid, GaussianMixture]:
    """Likelihood of the pooled ensemble, fitted with one component per
    contributing cluster (component count sums over the member clouds)."""
    pools, means, covs, counts = [], [], [], []
    for cloud, clusters in ensemble:
        _require_global(cloud)
        m = choose_components(clusters, fit.m_max)
        if len(cloud) == 0 or m == 0:
            continue
        pools.append(cloud.points)
        mu, cv, ct = cluster_moments(cloud.points, clusters.labels, clusters.n_clusters, keep=m)
        means.append(mu)
        covs.append(cv)
        counts.append(ct)
    if not pools:
        return DensityGrid.uniform(spec), GaussianMixture.empty()
    points = np.concatenate(pools)
    mixture = fit_em(
        points,
        sum(len(mu) for mu in means),
        np.concatenate(means),
        init_covs=np.concatenate(covs),
        init_weights=np.concatenate(counts),
        max_iters=fit.max_iters,
        tol=fit.tol,
    )
    return eval_on_grid(mixture, spec), mixture


def bayes_product(likelihood: DensityGrid, prior: DensityGrid) -> DensityGrid:
    """Cell-wise product of likelihood and prior, renormalized."""
    if likelihood.spec != prior.spec:
        raise ValueError("likelihood and prior grids must match")
    product = likelihood.mass * prior.mass
    total = product.sum()
    if total <= 0.0:
        # Disjoint supports: the prior excluded every likely cell. Trust the
        # fresh evidence rather than a stale prior.
        log.warning("prior and likelihood supports are disjoint; restarting from likelihood")
        return DensityGrid(likelihood.spec, likelihood.mass.copy())
    return DensityGrid(likelihood.spec, product / total)


def motion_prior(
    prev_scene: ReconstructedScene | None,
    speed: float,
    dt: float,
    spec: GridSpec,
    sigma_floor: float = SIGMA_FLOOR,
) -> DensityGrid:
    """Prior from the previous reconstruction, diffused by a random-walk step.

    Each reconstructed point spreads as an isotropic Gaussian with
    sigma = speed * dt + sigma_floor. The points are grid cell centers, so
    the superposition is computed exactly as a separable Gaussian blur of
    the occupancy counts (truncated at 6 sigma). No previous scene means an
    uninformative uniform prior.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if speed < 0:
        raise ValueError("speed must be >= 0")
    if prev_scene is None or len(prev_scene) == 0:
        return DensityGrid.uniform(spec)
    sigma = speed * dt + sigma_floor
    counts = np.zeros((spec.ny, spec.nx))
    iy, ix = spec.cell_index(prev_scene.points)
    np.add.at(counts, (iy, ix), 1.0)
    mass = gaussian_filter(counts, sigma / spec.resolution, mode="constant", truncate=6.0)
    return DensityGrid(spec, mass).normalized()


def refit_posterior_mixture(
    cloud: PointCloud,
    lik_mixture: GaussianMixture,
    prior: DensityGrid,
    fit: FitOptions = FitOptions(),
) -> GaussianMixture:
    """Re-fit a cloud mixture with points weighted by the prior mass at
    their location, so the parameters summarize the posterior rather than
    the bare likelihood. With a flat prior the weights are equal and the
    refit reproduces the likelihood fit. The refit is stable only while the
    prior covers the currently detected clusters; the runner ensures that by
    seeding each prior with the thresholded likelihood support as well as
    the previous reconstruction."""
    if lik_mixture.is_empty():
        return GaussianMixture.empty()
    weights = prior.value_at(cloud.points[:, :2])
    return fit_em(
        cloud.points,
        lik_mixture.n_components,
        lik_mixture.means,
        init_covs=lik_mixture.covs,
        init_weights=lik_mixture.weights,
        point_weights=weights,
        max_iters=fit.max_iters,
        tol=fit.tol,
    )


def alpha_weights(q_counts: Sequence[int]) -> np.ndarray:
    """Convex combination weights proportional to per-radar point counts.

    The last weight closes the sum to exactly 1. All-zero counts carry no
    information and fall back to uniform weights.
    """
    q = np.asarray(q_counts, dtype=float)
    if len(q) == 0:
        raise ValueError("need at least one count")
    total = q.sum()
    if total <= 0:
        log.warning("all point counts are zero; using uniform combination weights")
        return np.full(len(q), 1.0 / len(q))
    w = q / total
    w[-1] = 1.0 - w[:-1].sum()
    return w


def federated_posterior(
    own: GaussianMixture,
    received: Sequence[GaussianMixture],
    weights: np.ndarray,
    spec: GridSpec,
    epoch: int,
) -> Posterior:
    """Posterior as the weighted union of local-posterior mixtures.

    Component weights are rescaled by the combination weights, so the union
    is itself a valid mixture. This grid seeds the local prior of the next
    update.
    """
    mixtures = [own, *received]
    if len(weights) != len(mixtures):
        raise ValueError("one weight per mixture is required")
    federated = GaussianMixture(
        np.concatenate([alpha * mix.weights for alpha, mix in zip(weights, mixtures)]),
        np.concatenate([mix.means for mix in mixtures]),
        np.concatenate([mix.covs for mix in mixtures]),
        np.concatenate([mix.counts for mix in mixtures]),
    )
    return Posterior(eval_on_grid(federated, spec), federated, epoch)


def grid_support(grid: DensityGrid, tau: float) -> np.ndarray:
    """Centers of the cells whose peak-normalized mass exceeds ``tau``.

    A flat grid (a radar with an empty cloud and a flat prior) prefers no
    cell over another, so it holds no evidence and has no support.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    peak = grid.mass.max()
    if peak <= 0 or peak == grid.mass.min():
        return np.empty((0, 2))
    iy, ix = np.nonzero(grid.mass > tau * peak)
    return np.column_stack([grid.spec.x_centers()[ix], grid.spec.y_centers()[iy]])


def reconstruct_scene(posterior: Posterior, tau: float) -> ReconstructedScene:
    """Cells whose posterior exceeds ``tau`` after peak normalization.

    Thresholding the peak-normalized grid keeps ``tau`` independent of the
    grid resolution.
    """
    return ReconstructedScene(grid_support(posterior.grid, tau), tau, posterior.epoch)


def extract_targets(posterior: Posterior, tau: float, min_separation: float) -> TargetEstimates:
    """MAP target positions: 8-neighborhood maxima of the thresholded grid.

    Candidates are accepted greedily in descending posterior order subject
    to a pairwise separation of at least ``min_separation``. Ties break by
    grid index, so the result only depends on posterior shape (it is
    invariant under positive rescaling of the grid). A flat grid holds no
    evidence and yields no targets.
    """
    mass = posterior.grid.mass
    spec = posterior.grid.spec
    peak = mass.max()
    if peak <= 0 or peak == mass.min():
        return TargetEstimates(np.empty((0, 2)), posterior.epoch)
    support = mass > tau * peak

    padded = np.full((spec.ny + 2, spec.nx + 2), -np.inf)
    padded[1:-1, 1:-1] = mass
    neighbor_max = np.full_like(mass, -np.inf)
    for dy in (-1, 0, 1):
        for dx in (-1, 0, 1):
            if dy == 0 and dx == 0:
                continue
            shifted = padded[1 + dy : 1 + dy + spec.ny, 1 + dx : 1 + dx + spec.nx]
            neighbor_max = np.maximum(neighbor_max, shifted)
    is_max = support & (mass >= neighbor_max)

    iy, ix = np.nonzero(is_max)
    order = np.lexsort((ix, iy, -mass[iy, ix]))
    xc, yc = spec.x_centers(), spec.y_centers()
    accepted: list[np.ndarray] = []
    for k in order:
        cand = np.array([xc[ix[k]], yc[iy[k]]])
        if all(np.linalg.norm(cand - a) >= min_separation for a in accepted):
            accepted.append(cand)
    positions = np.array(accepted) if accepted else np.empty((0, 2))
    return TargetEstimates(positions, posterior.epoch)
