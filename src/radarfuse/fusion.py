"""Bayesian fusion core.

Per-radar recursion: a motion prior diffused from the previous support is
combined cell-wise with a likelihood grid fitted to the current point cloud.
Posteriors are plain ``DensityGrid``s and supports are boolean ``(ny, nx)``
cell masks. Cooperation fits one likelihood to the pooled clouds of a radar
and its neighbors; federation combines the exchanged local-posterior
mixtures convexly: ``federated_posterior`` sums the members' unnormalized
densities (``grid_density``), which the caller evaluates once per mixture
however many radars combine it. ``grid_support`` thresholds a grid into a
support once; ``reconstruct_scene`` unites the posterior's support with the
fresh likelihood's into the next prior's, and ``extract_targets`` finds the
local maxima of the posterior within its support.

A likelihood fit starts from its clouds' ``cloud_start``s, their kept
cluster moments. The caller keeps a cloud's start for its later fits and
its ``quad_features`` for its likelihood fit and posterior refit.

A support covers a few small windows of the grid, so ``motion_prior`` and
``extract_targets`` work only in its ``_window`` (padded by the blur radius
for the prior). Their results are bit-identical to the full grid's.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np
from scipy.ndimage import correlate1d, gaussian_filter1d, maximum_filter

from .mixture import (
    DensityGrid,
    GaussianMixture,
    GridSpec,
    choose_components,
    cluster_moments,
    eval_on_grid,
    fit_em,
    normalized_density,
    quad_features,
)
from .sensor import RANGE_RESOLUTION, ClusterResult, PointCloud

log = logging.getLogger(__name__)

# Random-walk step floor: even a stationary target diffuses by one
# resolvable range cell per update.
SIGMA_FLOOR = RANGE_RESOLUTION


@dataclass(frozen=True)
class FitOptions:
    """Mixture-fit knobs shared by all posterior builders (and the scenario defaults)."""

    m_max: int = 8
    max_iters: int = 60
    tol: float = 1e-5


def cloud_start(
    cloud: PointCloud,
    clusters: ClusterResult,
    fit: FitOptions,
) -> tuple[GaussianMixture, tuple[np.ndarray, np.ndarray] | None]:
    """A cloud's EM start and its ``quad_features``.

    The start has one component per cluster kept by ``choose_components``,
    at the cluster's moments and weighted by its size. An empty cloud (or no
    surviving cluster) has an empty start and no features. The features are
    built once, for the moments, and serve every later fit of the cloud.
    """
    m = choose_components(clusters, fit.m_max)
    if len(cloud) == 0 or m == 0:
        return GaussianMixture.empty(), None
    features = quad_features(cloud.points)
    means, covs, counts = cluster_moments(cloud.points, clusters.labels, clusters.n_clusters, keep=m,
                                          features=features)
    return GaussianMixture(counts, means, covs, counts), features


def likelihood_from_cloud(
    cloud: PointCloud,
    start: GaussianMixture,
    spec: GridSpec,
    fit: FitOptions,
    features: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[DensityGrid, GaussianMixture]:
    """Likelihood grid and mixture for one preprocessed cloud, fitted from
    its ``cloud_start`` (with its features, if given). An empty start is
    uninformative and yields a uniform grid.
    """
    return pooled_likelihood([(cloud, start)], spec, fit, features)


def pooled_likelihood(
    ensemble: Sequence[tuple[PointCloud, GaussianMixture]],
    spec: GridSpec,
    fit: FitOptions,
    features: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[DensityGrid, GaussianMixture]:
    """Likelihood of the pooled ensemble of ``(cloud, cloud_start)`` pairs,
    fitted from the members' starts together: one component per
    contributing cluster. Members with an empty start add no points;
    ``features``, if given, are the ``quad_features`` of the others' pooled
    points."""
    members = [(cloud.points, start) for cloud, start in ensemble if not start.is_empty()]
    if not members:
        return DensityGrid.uniform(spec), GaussianMixture.empty()
    pools, starts = zip(*members)
    start = GaussianMixture(*(np.concatenate([getattr(s, name) for s in starts])
                              for name in ("weights", "means", "covs", "counts")))
    mixture = fit_em(np.concatenate(pools), start, features=features, max_iters=fit.max_iters, tol=fit.tol)
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
    support: np.ndarray,
    speed: float,
    dt: float,
    spec: GridSpec,
) -> DensityGrid:
    """Prior from the previous support mask, diffused by a random-walk step.

    Each cell of the boolean ``(ny, nx)`` support spreads as an isotropic
    Gaussian with sigma = speed * dt + SIGMA_FLOOR: a separable Gaussian blur
    of the mask (truncated at 6 sigma), ``gaussian_filter``'s two
    ``correlate1d`` passes with its kernel, which ``_blur_kernel`` builds
    once per sigma. The blur runs on the support's ``_window`` padded by
    the kernel radius: every cell outside it is a sum of zeros, and where
    the window is clipped its edge is the grid's, so the result equals the
    full-grid ``gaussian_filter`` bit for bit. An empty support means an
    uninformative uniform prior.
    """
    if dt <= 0:
        raise ValueError("dt must be > 0")
    if speed < 0:
        raise ValueError("speed must be >= 0")
    if support.shape != (spec.ny, spec.nx):
        raise ValueError(f"support mask must have shape {(spec.ny, spec.nx)}, got {support.shape}")
    kernel = _blur_kernel((speed * dt + SIGMA_FLOOR) / spec.resolution)
    win = _window(support, pad=len(kernel) // 2)
    if win is None:
        return DensityGrid.uniform(spec)
    mass = np.zeros((spec.ny, spec.nx))
    rows_blurred = correlate1d(support[win].astype(float), kernel, axis=0, mode="constant")
    mass[win] = correlate1d(rows_blurred, kernel, axis=1, mode="constant")
    return normalized_density(mass, spec)


def _window(support: np.ndarray, pad: int = 0) -> tuple[slice, slice] | None:
    """The bounding box of the ``support`` cells, widened by ``pad`` cells
    and clipped to the grid, or None for an empty support."""
    rows = np.flatnonzero(support.any(axis=1))
    if len(rows) == 0:
        return None
    cols = np.flatnonzero(support.any(axis=0))
    return (slice(max(rows[0] - pad, 0), rows[-1] + pad + 1),
            slice(max(cols[0] - pad, 0), cols[-1] + pad + 1))


@lru_cache(maxsize=16)
def _blur_kernel(sigma_px: float) -> np.ndarray:
    """``gaussian_filter``'s kernel at ``sigma_px`` and ``truncate=6``, bit
    for bit: the filter's response to a unit impulse. Read-only."""
    radius = int(6.0 * sigma_px + 0.5)  # gaussian_filter's kernel radius at truncate=6
    impulse = np.zeros(2 * radius + 1)
    impulse[radius] = 1.0
    kernel = gaussian_filter1d(impulse, sigma_px, mode="constant", truncate=6.0)
    kernel.flags.writeable = False
    return kernel


def refit_posterior_mixture(
    cloud: PointCloud,
    lik_mixture: GaussianMixture,
    prior: DensityGrid,
    fit: FitOptions,
    features: tuple[np.ndarray, np.ndarray] | None = None,
) -> GaussianMixture:
    """Re-fit a cloud mixture with points weighted by the prior mass at
    their location, so the parameters summarize the posterior rather than
    the bare likelihood. ``features`` are the cloud's ``quad_features``, if
    already built. With a flat prior the weights are equal and the
    refit reproduces the likelihood fit. The refit is stable only while the
    prior covers the currently detected clusters; the runner ensures that by
    seeding each prior with the thresholded likelihood support as well as
    the previous reconstruction."""
    if lik_mixture.is_empty():
        return GaussianMixture.empty()
    weights = prior.value_at(cloud.points[:, :2])
    return fit_em(cloud.points, lik_mixture, point_weights=weights, features=features,
                  max_iters=fit.max_iters, tol=fit.tol)


def alpha_weights(q_counts: Sequence[int]) -> np.ndarray:
    """Convex combination weights proportional to per-radar point counts.

    The last weight closes the sum to 1, clamped at 0 so that a last count
    of zero cannot get a negative weight from rounding. All-zero counts
    carry no information and fall back to uniform weights.
    """
    q = np.asarray(q_counts, dtype=float)
    if len(q) == 0:
        raise ValueError("need at least one count")
    total = q.sum()
    if total <= 0:
        log.warning("all point counts are zero; using uniform combination weights")
        return np.full(len(q), 1.0 / len(q))
    w = q / total
    w[-1] = max(1.0 - w[:-1].sum(), 0.0)
    return w


def federated_posterior(
    densities: Sequence[np.ndarray | None],
    weights: np.ndarray,
    spec: GridSpec,
) -> DensityGrid:
    """Posterior grid of the weighted union of local-posterior mixtures: the
    normalized ``weights``-weighted sum of their ``grid_density`` results.

    Weighting each density is rescaling its mixture's component weights, so
    this is the grid of the union mixture, each member evaluated once. A
    member without density (an empty mixture) adds nothing; when every
    member is empty the grid is uniform. This grid seeds the local prior of
    the next update.
    """
    if len(weights) != len(densities):
        raise ValueError("one weight per density is required")
    mass = None
    for alpha, density in zip(weights, densities):
        if density is not None:
            mass = alpha * density if mass is None else mass + alpha * density
    return normalized_density(mass, spec)


def grid_support(grid: DensityGrid, tau: float) -> np.ndarray:
    """Support mask ``(ny, nx)``: the cells whose peak-normalized mass
    exceeds ``tau``.

    Thresholding the peak-normalized grid keeps ``tau`` independent of the
    grid resolution. A flat grid (a radar with an empty cloud and a flat
    prior) prefers no cell over another, so it holds no evidence and has no
    support.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("tau must be in (0, 1)")
    peak = grid.mass.max()
    if peak <= 0 or peak == grid.mass.min():
        return np.zeros(grid.mass.shape, dtype=bool)
    return grid.mass > tau * peak


def reconstruct_scene(support: np.ndarray, fresh: np.ndarray) -> np.ndarray:
    """Support mask of the next prior: the posterior's support (its
    ``grid_support``) united with the fresh likelihood support mask.

    Without the fresh support one sub-threshold epoch would remove a target
    from the recursion permanently.
    """
    return support | fresh


def extract_targets(grid: DensityGrid, support: np.ndarray, min_separation: float) -> np.ndarray:
    """MAP target positions ``(m, 2)``: 8-neighborhood maxima of the grid
    among the cells of ``support``, its ``grid_support`` at some ``tau``.

    A support cell is a maximum when it equals the 3x3 ``maximum_filter``
    around it, so a tie with a neighbor keeps it: every cell of a flat top
    is one. Candidates are accepted greedily in descending posterior order,
    at least ``min_separation`` apart; ties break by grid index (row, then
    column), so the result depends only on posterior shape (it is invariant
    under positive rescaling). A flat grid has no support and no targets.

    A cell outside the support has mass at most ``tau * peak``, below every
    support cell, so the filter runs on the support's ``_window`` alone
    (``-inf`` beyond its edge) and gives the full grid's result.
    """
    box = _window(support)
    if box is None:
        return np.empty((0, 2))
    window = grid.mass[box]
    is_max = support[box] & (window == maximum_filter(window, size=3, mode="constant", cval=-np.inf))
    iy, ix = np.nonzero(is_max)
    iy, ix = iy + box[0].start, ix + box[1].start
    order = np.lexsort((ix, iy, -grid.mass[iy, ix]))
    xc, yc = grid.spec.x_centers(), grid.spec.y_centers()
    accepted: list[np.ndarray] = []
    for k in order:
        cand = np.array([xc[ix[k]], yc[iy[k]]])
        if all(np.linalg.norm(cand - a) >= min_separation for a in accepted):
            accepted.append(cand)
    return np.array(accepted) if accepted else np.empty((0, 2))
