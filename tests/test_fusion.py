import numpy as np
import pytest
from scipy.stats import multivariate_normal

from radarfuse.fusion import (
    FitOptions,
    alpha_weights,
    bayes_product,
    extract_targets,
    federated_posterior,
    grid_support,
    likelihood_from_cloud,
    motion_prior,
    pooled_likelihood,
    reconstruct_scene,
    refit_posterior_mixture,
)
from radarfuse.mixture import (
    DensityGrid,
    GaussianMixture,
    GridSpec,
    eval_on_grid,
)
from radarfuse.sensor import GLOBAL, PointCloud, dbscan

SPEC = GridSpec(0.0, 8.0, 0.0, 8.0, 0.1)
FIT = FitOptions()
NO_SUPPORT = np.empty((0, 2))


def cloud_of(points):
    return PointCloud(GLOBAL, np.asarray(points, dtype=float).reshape(-1, 3), 0, 1)


def clustered_cloud(points, eps=0.3, min_pts=5):
    cloud = cloud_of(points)
    return cloud, dbscan(cloud, eps, min_pts)


def random_mixture(rng, m, xy_range, var_range):
    """m isotropic components at z = 1 with one point each: Dirichlet weights,
    then each component's (x, y) and variance, drawn in that order."""
    weights = rng.dirichlet(np.ones(m))
    means, covs = [], []
    for _ in weights:
        means.append([*rng.uniform(*xy_range, 2), 1.0])
        covs.append(np.eye(3) * rng.uniform(*var_range))
    return GaussianMixture(weights, means, covs, np.ones(m, int))


def gaussian_mixture(mean, s2):
    return GaussianMixture([1.0], [[*mean, 1.0]], [np.eye(3) * s2], [10])


def gaussian_posterior(mean, s2):
    return eval_on_grid(gaussian_mixture(mean, s2), SPEC)


# ------------------------------------------------------------- likelihood


def test_single_cluster_likelihood_peaks_at_centroid():
    rng = np.random.default_rng(0)
    pts = rng.normal([3.0, 4.0, 1.0], 0.1, (100, 3))
    cloud, clusters = clustered_cloud(pts)
    grid, mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    assert mix.n_components == 1
    assert np.linalg.norm(grid.argmax_center() - pts[:, :2].mean(axis=0)) < 0.11


def test_two_cluster_likelihood_is_bimodal():
    rng = np.random.default_rng(1)
    a = rng.normal([2.0, 2.0, 1.0], 0.1, (80, 3))
    b = rng.normal([6.0, 6.0, 1.0], 0.1, (80, 3))
    cloud, clusters = clustered_cloud(np.concatenate([a, b]))
    grid, mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    assert mix.n_components == 2
    est = extract_targets(grid, 0.2, 0.5)
    assert len(est) == 2
    got = sorted(tuple(p) for p in est)
    assert np.linalg.norm(np.array(got[0]) - [2, 2]) < 0.15
    assert np.linalg.norm(np.array(got[1]) - [6, 6]) < 0.15


def test_empty_cloud_gives_uniform_likelihood():
    cloud, clusters = clustered_cloud(np.empty((0, 3)))
    grid, mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    assert mix.is_empty()
    assert np.allclose(grid.mass, 1.0 / SPEC.n_cells)


# ------------------------------------------------------------ motion prior


def test_single_point_prior_is_a_bump():
    prior = motion_prior(np.array([[4.05, 4.05]]), 1.0, 0.01, SPEC)
    assert prior.mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(prior.argmax_center(), [4.05, 4.05])


def test_step_size_rule():
    # sigma(v) = v * dt + floor; with floor 0 the blur is exactly v * dt.
    prior = motion_prior(np.array([[4.05, 4.05]]), 1.0, 0.01, SPEC, sigma_floor=0.0)
    # oracle: direct superposition with sigma = 0.01
    gx, gy = np.meshgrid(SPEC.x_centers(), SPEC.y_centers())
    d2 = (gx - 4.05) ** 2 + (gy - 4.05) ** 2
    oracle = np.exp(-0.5 * d2 / 0.01**2)
    oracle /= oracle.sum()
    assert np.max(np.abs(prior.mass - oracle)) < 1e-9


def test_empty_previous_scene_gives_uniform_prior():
    prior = motion_prior(np.empty((0, 2)), 1.0, 0.01, SPEC)
    assert np.allclose(prior.mass, 1.0 / SPEC.n_cells)


def test_prior_matches_superposition_oracle():
    rng = np.random.default_rng(2)
    iy = rng.integers(10, 70, 12)
    ix = rng.integers(10, 70, 12)
    points = np.column_stack([SPEC.x_centers()[ix], SPEC.y_centers()[iy]])
    sigma = 1.5 * 0.05 + 0.042
    prior = motion_prior(points, 1.5, 0.05, SPEC)

    gx, gy = np.meshgrid(SPEC.x_centers(), SPEC.y_centers())
    oracle = np.zeros_like(gx)
    for p in points:
        oracle += np.exp(-0.5 * ((gx - p[0]) ** 2 + (gy - p[1]) ** 2) / sigma**2)
    oracle /= oracle.sum()
    assert np.max(np.abs(prior.mass - oracle)) < 1e-6 * oracle.max()


# ------------------------------------------------------- posterior updates


def test_flat_prior_returns_likelihood():
    rng = np.random.default_rng(3)
    cloud, clusters = clustered_cloud(rng.normal([5, 3, 1], 0.1, (60, 3)))
    lik_grid, lik_mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    prior = DensityGrid.uniform(SPEC)
    grid = bayes_product(lik_grid, prior)
    assert np.max(np.abs(grid.mass - lik_grid.mass)) < 1e-12
    # with equal weights the posterior refit reproduces the likelihood fit
    refit = refit_posterior_mixture(cloud, lik_mix, prior, FIT)
    assert np.allclose(refit.means, lik_mix.means) and np.allclose(refit.covs, lik_mix.covs)
    assert refit.weights == pytest.approx(lik_mix.weights)


def test_flat_likelihood_returns_prior():
    cloud, clusters = clustered_cloud(np.empty((0, 3)))
    prior = gaussian_posterior([3, 3], 0.3)
    lik_grid, lik_mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    assert np.max(np.abs(bayes_product(lik_grid, prior).mass - prior.mass)) < 1e-12
    refit = refit_posterior_mixture(cloud, lik_mix, prior, FIT)
    assert refit.is_empty() and refit.total_points == 0


def test_prior_pulls_posterior_toward_truth():
    # Monte Carlo: peaked prior at the true position vs noisy likelihood.
    truth = np.array([4.0, 4.0])
    prior = gaussian_posterior(truth, 0.09)
    rng = np.random.default_rng(4)
    post_err, lik_err = [], []
    for _ in range(100):
        pts = rng.normal([*truth, 1.0], 0.5, (30, 3))
        cloud, clusters = clustered_cloud(pts, eps=0.8, min_pts=3)
        if clusters.n_clusters == 0:
            continue
        lik_grid, _ = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
        post = bayes_product(lik_grid, prior)
        lik_err.append(np.linalg.norm(lik_grid.argmax_center() - truth))
        post_err.append(np.linalg.norm(DensityGrid(SPEC, post.mass).argmax_center() - truth))
    assert np.mean(post_err) < np.mean(lik_err)


def test_coop_posterior_with_flat_prior_is_pooled_likelihood():
    rng = np.random.default_rng(5)
    ens = [
        clustered_cloud(rng.normal([2, 2, 1], 0.1, (60, 3))),
        clustered_cloud(rng.normal([6, 6, 1], 0.1, (60, 3))),
    ]
    lik_grid, mixture = pooled_likelihood(ens, SPEC, FIT)
    post = bayes_product(lik_grid, DensityGrid.uniform(SPEC))
    assert np.max(np.abs(post.mass - lik_grid.mass)) < 1e-12
    assert mixture.n_components == 2  # one per contributed cluster
    est = extract_targets(post, 0.2, 0.5)
    assert len(est) == 2


def test_coop_posterior_empty_ensemble_returns_prior():
    prior = gaussian_posterior([5, 5], 0.2)
    ens = [clustered_cloud(np.empty((0, 3)))]
    lik_grid, mixture = pooled_likelihood(ens, SPEC, FIT)
    assert mixture.is_empty()
    assert np.max(np.abs(bayes_product(lik_grid, prior).mass - prior.mass)) < 1e-12


def test_coop_posterior_merges_disjoint_views():
    # Two radars each seeing only one target still fuse to a bimodal scene.
    rng = np.random.default_rng(6)
    radar1 = clustered_cloud(rng.normal([2, 2, 1], 0.1, (80, 3)))
    radar2 = clustered_cloud(rng.normal([6, 6, 1], 0.1, (80, 3)))
    prior = DensityGrid.uniform(SPEC)
    lik_grid, mixture = pooled_likelihood([radar1, radar2], SPEC, FIT)
    post = bayes_product(lik_grid, prior)
    est = extract_targets(post, 0.2, 0.5)
    assert len(est) == 2
    # oracle: posterior grid is exactly the cell-wise product with the prior
    lik = eval_on_grid(mixture, SPEC)
    assert np.max(np.abs(post.mass - lik.mass)) < 1e-12


# ------------------------------------------------------------ federation


def test_alpha_weights_examples():
    assert np.allclose(alpha_weights([625, 625]), [0.5, 0.5])
    assert np.allclose(alpha_weights([100, 300]), [0.25, 0.75])
    w = alpha_weights([625, 815, 560])
    assert np.allclose(w, [0.3125, 0.4075, 0.28])
    assert w.sum() == 1.0


def test_alpha_weights_all_zero_falls_back_to_uniform():
    assert np.allclose(alpha_weights([0, 0, 0]), [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        alpha_weights([])


def test_single_radar_federation_is_identity():
    own = gaussian_mixture([3, 4], 0.1)
    fed = federated_posterior(own, [], np.array([1.0]), SPEC)
    direct = eval_on_grid(own, SPEC)
    assert np.max(np.abs(fed.mass - direct.mass)) < 1e-12


def test_identical_locals_federate_to_the_same_posterior():
    mix = gaussian_mixture([4, 4], 0.2)
    fed = federated_posterior(mix, [mix, mix], np.full(3, 1 / 3), SPEC)
    assert np.max(np.abs(fed.mass - eval_on_grid(mix, SPEC).mass)) < 1e-9


def test_federated_weights_rescale():
    a = gaussian_mixture([2, 2], 0.1)
    b = gaussian_mixture([6, 6], 0.1)
    fed = federated_posterior(a, [b], np.array([0.25, 0.75]), SPEC)
    # Component weights are scaled by alpha, so the grid is the
    # alpha-weighted average of the local grids.
    expected = 0.25 * eval_on_grid(a, SPEC).mass + 0.75 * eval_on_grid(b, SPEC).mass
    assert np.max(np.abs(fed.mass - expected)) < 1e-9
    assert abs(fed.mass.sum() - 1.0) <= 1e-9


def test_all_empty_mixtures_federate_to_uniform():
    fed = federated_posterior(
        GaussianMixture.empty(), [GaussianMixture.empty()], np.array([0.5, 0.5]), SPEC
    )
    assert np.allclose(fed.mass, 1.0 / SPEC.n_cells)


# --------------------------------------------------------- reconstruction


def test_reconstruct_unimodal_blob():
    post = gaussian_posterior([4.05, 4.05], 0.04)
    recon = reconstruct_scene(post, NO_SUPPORT, 0.45)
    assert len(recon) > 0
    dists = np.linalg.norm(recon - [4.05, 4.05], axis=1)
    assert dists.max() < 0.5  # contiguous region around the peak
    assert np.any(dists < 0.08)


def test_reconstruct_tau_near_one_keeps_argmax_only():
    post = gaussian_posterior([4.05, 4.05], 0.04)
    recon = reconstruct_scene(post, NO_SUPPORT, 0.999)
    assert 1 <= len(recon) <= 4
    assert np.all(np.linalg.norm(recon - [4.05, 4.05], axis=1) < 0.15)


def test_reconstruct_uniform_keeps_no_cell():
    # A flat posterior holds no evidence: no cell and no target stands out.
    post = DensityGrid.uniform(SPEC)
    assert len(reconstruct_scene(post, NO_SUPPORT, 0.45)) == 0
    assert len(extract_targets(post, 0.45, 0.5)) == 0


def test_reconstruct_unites_posterior_and_fresh_support():
    post = gaussian_posterior([4.05, 4.05], 0.04)
    own = grid_support(post, 0.45)
    fresh = np.array([[1.05, 1.05], own[0]])
    recon = reconstruct_scene(post, fresh, 0.45)
    assert np.array_equal(recon, np.unique(np.concatenate([own, fresh[:1]]), axis=0))
    # A flat posterior keeps only the fresh support, and vice versa.
    assert np.array_equal(reconstruct_scene(DensityGrid.uniform(SPEC), fresh, 0.45), fresh)
    assert np.array_equal(reconstruct_scene(post, NO_SUPPORT, 0.45), own)


def test_reconstruct_rejects_bad_tau():
    post = gaussian_posterior([4, 4], 0.04)
    for tau in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            reconstruct_scene(post, NO_SUPPORT, tau)
        with pytest.raises(ValueError):
            extract_targets(post, tau, 0.5)


# ------------------------------------------------------------- extraction


def test_extract_single_gaussian():
    post = gaussian_posterior([3.0, 6.0], 0.09)
    est = extract_targets(post, 0.45, 0.5)
    assert len(est) == 1
    assert np.linalg.norm(est[0] - [3.0, 6.0]) <= 0.11


def test_extract_two_separated_gaussians():
    mix = GaussianMixture([0.5, 0.5], [[3.0, 4.0, 1.0], [5.0, 4.0, 1.0]], [np.eye(3) * 0.04] * 2, [5, 5])
    est = extract_targets(eval_on_grid(mix, SPEC), 0.45, 0.5)
    assert len(est) == 2
    xs = sorted(p[0] for p in est)
    assert abs(xs[0] - 3.0) < 0.11 and abs(xs[1] - 5.0) < 0.11


def test_extract_merged_peak_is_unresolved():
    # Oracle: the summed density of two close wide components has one maximum.
    mix = GaussianMixture([0.5, 0.5], [[4.0, 4.0, 1.0], [4.2, 4.0, 1.0]], [np.eye(3) * 0.09] * 2, [5, 5])
    xs = np.linspace(3.0, 5.2, 441)
    dens = sum(
        weight * multivariate_normal(mean[:2], cov[:2, :2]).pdf(np.column_stack([xs, np.full_like(xs, 4.0)]))
        for weight, mean, cov in zip(mix.weights, mix.means, mix.covs)
    )
    interior_maxima = np.sum((dens[1:-1] > dens[:-2]) & (dens[1:-1] >= dens[2:]))
    assert interior_maxima == 1
    est = extract_targets(eval_on_grid(mix, SPEC), 0.45, 0.5)
    assert len(est) == 1


def test_extract_is_scale_invariant():
    rng = np.random.default_rng(9)
    mix = GaussianMixture(
        [0.4, 0.35, 0.25],
        [[2, 2, 1.0], [5.5, 3.2, 1.0], [3.1, 6.0, 1.0]],
        [np.eye(3) * s2 for s2 in (0.05, 0.08, 0.03)],
        [1, 1, 1],
    )
    grid = eval_on_grid(mix, SPEC)
    a = extract_targets(grid, 0.45, 0.5)
    b = extract_targets(DensityGrid(SPEC, grid.mass * 4.0), 0.45, 0.5)
    assert np.array_equal(a, b)


def exhaustive_extract(mass, spec, tau, min_sep):
    """Independent enumeration: explicit loops over cells and neighbors."""
    peak = mass.max()
    cands = []
    for iy in range(spec.ny):
        for ix in range(spec.nx):
            if mass[iy, ix] <= tau * peak:
                continue
            ok = True
            for dy in (-1, 0, 1):
                for dx in (-1, 0, 1):
                    if dy == 0 and dx == 0:
                        continue
                    y, x = iy + dy, ix + dx
                    if 0 <= y < spec.ny and 0 <= x < spec.nx and mass[y, x] > mass[iy, ix]:
                        ok = False
            if ok:
                cands.append((-mass[iy, ix], iy, ix))
    cands.sort()
    accepted = []
    for _, iy, ix in cands:
        pos = np.array([spec.x_centers()[ix], spec.y_centers()[iy]])
        if all(np.linalg.norm(pos - a) >= min_sep for a in accepted):
            accepted.append(pos)
    return np.array(accepted) if accepted else np.empty((0, 2))


def test_extract_matches_exhaustive_enumeration():
    rng = np.random.default_rng(10)
    spec = GridSpec(0.0, 4.0, 0.0, 4.0, 0.1)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        mix = random_mixture(rng, m, (0.5, 3.5), (0.02, 0.2))
        post = eval_on_grid(mix, spec)
        got = extract_targets(post, 0.45, 0.5)
        expected = exhaustive_extract(post.mass, spec, 0.45, 0.5)
        assert np.array_equal(got, expected)


def test_grid_support_threshold_strictness():
    # Cells exactly at tau * peak are not support; a flat grid has none.
    mass = np.full((SPEC.ny, SPEC.nx), 0.45)
    mass[10, 20] = mass[30, 40] = 1.0
    support = grid_support(DensityGrid(SPEC, mass), 0.45)
    assert np.allclose(support, [[SPEC.x_centers()[20], SPEC.y_centers()[10]],
                                 [SPEC.x_centers()[40], SPEC.y_centers()[30]]])
    assert len(grid_support(DensityGrid.uniform(SPEC), 0.45)) == 0
