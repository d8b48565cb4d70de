import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.ndimage import gaussian_filter
from scipy.stats import multivariate_normal

from radarfuse.fusion import (
    SIGMA_FLOOR,
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
    grid_density,
    normalized_density,
)
from radarfuse.sensor import PointCloud, dbscan
from test_mixture import argmax_center

SPEC = GridSpec(0.0, 8.0, 0.0, 8.0, 0.1)
FIT = FitOptions()
NO_SUPPORT = np.zeros((SPEC.ny, SPEC.nx), dtype=bool)


def mask_at(xy, spec=SPEC):
    """Support mask holding the cells that contain the (s, 2) positions."""
    mask = np.zeros((spec.ny, spec.nx), dtype=bool)
    mask[spec.cell_index(np.asarray(xy, dtype=float))] = True
    return mask


def centers_of(mask, spec=SPEC):
    """(s, 2) centers of a support mask's cells."""
    iy, ix = np.nonzero(mask)
    return np.column_stack([spec.x_centers()[ix], spec.y_centers()[iy]])


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=float).reshape(-1, 3))


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


def targets(grid, tau, min_separation):
    """``extract_targets`` within the grid's own support at ``tau``, as the runner calls it."""
    return extract_targets(grid, grid_support(grid, tau), min_separation)


# ------------------------------------------------------------- likelihood


def test_single_cluster_likelihood_peaks_at_centroid():
    rng = np.random.default_rng(0)
    pts = rng.normal([3.0, 4.0, 1.0], 0.1, (100, 3))
    cloud, clusters = clustered_cloud(pts)
    grid, mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    assert mix.n_components == 1
    assert np.linalg.norm(argmax_center(grid) - pts[:, :2].mean(axis=0)) < 0.11


def test_two_cluster_likelihood_is_bimodal():
    rng = np.random.default_rng(1)
    a = rng.normal([2.0, 2.0, 1.0], 0.1, (80, 3))
    b = rng.normal([6.0, 6.0, 1.0], 0.1, (80, 3))
    cloud, clusters = clustered_cloud(np.concatenate([a, b]))
    grid, mix = likelihood_from_cloud(cloud, clusters, SPEC, FIT)
    assert mix.n_components == 2
    est = targets(grid, 0.2, 0.5)
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
    prior = motion_prior(mask_at([[4.05, 4.05]]), 1.0, 0.01, SPEC)
    assert prior.mass.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(argmax_center(prior), [4.05, 4.05])


def test_step_size_rule():
    # sigma(v) = v * dt + SIGMA_FLOOR
    prior = motion_prior(mask_at([[4.05, 4.05]]), 1.0, 0.01, SPEC)
    # oracle: direct superposition with sigma = 1.0 * 0.01 + SIGMA_FLOOR
    gx, gy = np.meshgrid(SPEC.x_centers(), SPEC.y_centers())
    d2 = (gx - 4.05) ** 2 + (gy - 4.05) ** 2
    oracle = np.exp(-0.5 * d2 / (0.01 + SIGMA_FLOOR) ** 2)
    oracle /= oracle.sum()
    assert np.max(np.abs(prior.mass - oracle)) < 1e-9


def test_empty_previous_scene_gives_uniform_prior():
    prior = motion_prior(NO_SUPPORT, 1.0, 0.01, SPEC)
    assert np.allclose(prior.mass, 1.0 / SPEC.n_cells)


def test_prior_matches_superposition_oracle():
    rng = np.random.default_rng(2)
    iy = rng.integers(10, 70, 12)
    ix = rng.integers(10, 70, 12)
    last_y, last_x = SPEC.ny - 1, SPEC.nx - 1
    edges_and_corners = ([0, 0, last_y, last_y, 0, 37, last_y, 52], [0, last_x, 0, last_x, 44, 0, 21, last_x])
    # The same cells alone, then with cells on every edge and in every corner.
    for extra_y, extra_x in [([], []), edges_and_corners]:
        cy, cx = np.concatenate([iy, extra_y]).astype(int), np.concatenate([ix, extra_x]).astype(int)
        points = np.column_stack([SPEC.x_centers()[cx], SPEC.y_centers()[cy]])
        sigma = 1.5 * 0.05 + 0.042
        prior = motion_prior(mask_at(points), 1.5, 0.05, SPEC)

        gx, gy = np.meshgrid(SPEC.x_centers(), SPEC.y_centers())
        oracle = np.zeros_like(gx)
        for p in points:
            oracle += np.exp(-0.5 * ((gx - p[0]) ** 2 + (gy - p[1]) ** 2) / sigma**2)
        oracle /= oracle.sum()
        assert np.max(np.abs(prior.mass - oracle)) < 1e-6 * oracle.max()


WIDE = GridSpec(0.0, 6.0, 0.0, 4.0, 0.1)  # 40 rows x 60 columns: catches swapped axes


@st.composite
def support_masks(draw):
    """A grid and a sparse support mask on it: single cells that favour the
    first and last rows and columns, plus up to three rectangular blobs."""
    spec = draw(st.sampled_from([SPEC, WIDE]))
    mask = np.zeros((spec.ny, spec.nx), dtype=bool)

    def index(n):
        return st.one_of(st.sampled_from([0, 1, n - 2, n - 1]), st.integers(0, n - 1))

    for iy, ix in draw(st.lists(st.tuples(index(spec.ny), index(spec.nx)), max_size=12)):
        mask[iy, ix] = True
    for iy, ix, h, w in draw(st.lists(st.tuples(index(spec.ny), index(spec.nx), st.integers(1, 6),
                                                st.integers(1, 6)), max_size=3)):
        mask[iy : iy + h, ix : ix + w] = True
    return spec, mask


@settings(max_examples=150, deadline=None)
@given(support_masks(), st.floats(0.0, 3.0), st.sampled_from([0.01, 0.05, 0.1]))
def test_windowed_prior_equals_full_grid_blur(spec_mask, speed, dt):
    # The full-grid blur is the oracle: the window must not move a single bit,
    # for masks on the grid's edges and corners and for the empty mask.
    spec, mask = spec_mask
    sigma = speed * dt + 0.042
    oracle = normalized_density(
        gaussian_filter(mask.astype(float), sigma / spec.resolution, mode="constant", truncate=6.0), spec
    )
    prior = motion_prior(mask, speed, dt, spec)
    assert np.array_equal(prior.mass, oracle.mass)


def test_prior_rejects_mask_of_wrong_shape():
    for support in (np.zeros((WIDE.nx, WIDE.ny), dtype=bool), np.zeros((WIDE.ny, WIDE.nx + 1), dtype=bool),
                    centers_of(mask_at([[1.05, 1.05]]), WIDE)):
        with pytest.raises(ValueError):
            motion_prior(support, 1.0, 0.01, WIDE)


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
        lik_err.append(np.linalg.norm(argmax_center(lik_grid) - truth))
        post_err.append(np.linalg.norm(argmax_center(post) - truth))
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
    est = targets(post, 0.2, 0.5)
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
    est = targets(post, 0.2, 0.5)
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


@settings(max_examples=300)
@given(st.lists(st.one_of(st.just(0), st.integers(0, 10**6)), min_size=1, max_size=10))
@example([291, 440, 33, 0])  # closing the sum on a zero count once gave it -2.2e-16
def test_alpha_weights_are_a_convex_combination(counts):
    w = alpha_weights(counts)
    assert np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-12
    if sum(counts) == 0:
        assert np.array_equal(w, np.full(len(counts), 1.0 / len(counts)))


def test_alpha_weights_all_zero_falls_back_to_uniform():
    assert np.allclose(alpha_weights([0, 0, 0]), [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(ValueError):
        alpha_weights([])


def union_mixture_grid(mixtures, weights, spec=SPEC):
    """The federated grid evaluated as the union mixture, its component
    weights rescaled by the combination weights: ``federated_posterior``'s
    reference."""
    union = GaussianMixture(
        np.concatenate([alpha * mix.weights for alpha, mix in zip(weights, mixtures)]),
        np.concatenate([mix.means for mix in mixtures]),
        np.concatenate([mix.covs for mix in mixtures]),
        np.concatenate([mix.counts for mix in mixtures]),
    )
    return eval_on_grid(union, spec)


def federate(mixtures, weights, spec=SPEC):
    return federated_posterior([grid_density(mix, spec) for mix in mixtures], np.asarray(weights, float), spec)


def test_single_radar_federation_is_identity():
    own = gaussian_mixture([3, 4], 0.1)
    fed = federate([own], [1.0])
    direct = eval_on_grid(own, SPEC)
    assert np.max(np.abs(fed.mass - direct.mass)) < 1e-12


def test_identical_locals_federate_to_the_same_posterior():
    mix = gaussian_mixture([4, 4], 0.2)
    fed = federate([mix, mix, mix], np.full(3, 1 / 3))
    assert np.max(np.abs(fed.mass - eval_on_grid(mix, SPEC).mass)) < 1e-9


def test_federated_weights_rescale():
    a = gaussian_mixture([2, 2], 0.1)
    b = gaussian_mixture([6, 6], 0.1)
    fed = federate([a, b], [0.25, 0.75])
    # Component weights are scaled by alpha, so the grid is the
    # alpha-weighted average of the local grids.
    expected = 0.25 * eval_on_grid(a, SPEC).mass + 0.75 * eval_on_grid(b, SPEC).mass
    assert np.max(np.abs(fed.mass - expected)) < 1e-9
    assert abs(fed.mass.sum() - 1.0) <= 1e-9


def test_all_empty_mixtures_federate_to_uniform(caplog):
    fed = federate([GaussianMixture.empty(), GaussianMixture.empty()], [0.5, 0.5])
    assert np.array_equal(fed.mass, DensityGrid.uniform(SPEC).mass)
    assert not caplog.records  # no evidence, not a fallback


def test_federated_posterior_is_the_union_mixture_grid():
    rng = np.random.default_rng(12)
    empty = GaussianMixture.empty()
    for trial in range(30):
        mixtures = [random_mixture(rng, int(rng.integers(1, 5)), (0.5, 7.5), (0.005, 0.3)) for _ in range(3)]
        weights = alpha_weights(rng.integers(1, 200, 3))
        if trial % 3 == 1:  # an empty own mixture: a zero point count gives it weight 0
            mixtures[0], weights = empty, alpha_weights([0, *rng.integers(1, 200, 2)])
        if trial % 3 == 2:  # a member weighted 0
            weights = np.array([0.4, 0.0, 0.6])
        fed, ref = federate(mixtures, weights), union_mixture_grid(mixtures, weights)
        assert np.all(np.abs(fed.mass - ref.mass) <= 1e-12 * ref.mass)


def test_federated_mass_off_the_grid_falls_back_to_uniform(caplog):
    mixtures = [gaussian_mixture([4, 4], 0.1), gaussian_mixture([50, 50], 0.1)]
    fed = federate(mixtures, [0.0, 1.0])
    assert np.array_equal(fed.mass, union_mixture_grid(mixtures, [0.0, 1.0]).mass)
    assert np.array_equal(fed.mass, DensityGrid.uniform(SPEC).mass)
    assert [r.getMessage() for r in caplog.records] == ["mixture mass entirely outside the grid; falling back to uniform"] * 2


# --------------------------------------------------------- reconstruction


def test_reconstruct_unimodal_blob():
    post = gaussian_posterior([4.05, 4.05], 0.04)
    recon = centers_of(reconstruct_scene(grid_support(post, 0.45), NO_SUPPORT))
    assert len(recon) > 0
    dists = np.linalg.norm(recon - [4.05, 4.05], axis=1)
    assert dists.max() < 0.5  # contiguous region around the peak
    assert np.any(dists < 0.08)


def test_reconstruct_tau_near_one_keeps_argmax_only():
    post = gaussian_posterior([4.05, 4.05], 0.04)
    recon = centers_of(reconstruct_scene(grid_support(post, 0.999), NO_SUPPORT))
    assert 1 <= len(recon) <= 4
    assert np.all(np.linalg.norm(recon - [4.05, 4.05], axis=1) < 0.15)


def test_reconstruct_uniform_keeps_no_cell():
    # A flat posterior holds no evidence: no cell and no target stands out.
    post = DensityGrid.uniform(SPEC)
    assert not reconstruct_scene(grid_support(post, 0.45), NO_SUPPORT).any()
    assert len(targets(post, 0.45, 0.5)) == 0


def test_reconstruct_unites_posterior_and_fresh_support():
    post = gaussian_posterior([4.05, 4.05], 0.04)
    own = grid_support(post, 0.45)
    fresh = mask_at([[1.05, 1.05], centers_of(own)[0]])
    recon = reconstruct_scene(own, fresh)
    expected = own.copy()
    expected[10, 10] = True  # the cell holding (1.05, 1.05)
    assert np.array_equal(recon, expected)
    # A flat posterior keeps only the fresh support, and vice versa.
    assert np.array_equal(reconstruct_scene(grid_support(DensityGrid.uniform(SPEC), 0.45), fresh), fresh)
    assert np.array_equal(reconstruct_scene(grid_support(post, 0.45), NO_SUPPORT), own)


def test_grid_support_rejects_bad_tau():
    post = gaussian_posterior([4, 4], 0.04)
    for tau in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(ValueError):
            grid_support(post, tau)


# ------------------------------------------------------------- extraction


def test_extract_single_gaussian():
    post = gaussian_posterior([3.0, 6.0], 0.09)
    est = targets(post, 0.45, 0.5)
    assert len(est) == 1
    assert np.linalg.norm(est[0] - [3.0, 6.0]) <= 0.11


def test_extract_two_separated_gaussians():
    mix = GaussianMixture([0.5, 0.5], [[3.0, 4.0, 1.0], [5.0, 4.0, 1.0]], [np.eye(3) * 0.04] * 2, [5, 5])
    est = targets(eval_on_grid(mix, SPEC), 0.45, 0.5)
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
    est = targets(eval_on_grid(mix, SPEC), 0.45, 0.5)
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
    a = targets(grid, 0.45, 0.5)
    b = targets(DensityGrid(SPEC, grid.mass * 4.0), 0.45, 0.5)
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


def edge_mixture(rng, m, spec, var_range):
    """Like ``random_mixture``, but every mean lies within 0.1 m of an edge
    of ``spec`` on at least one axis, and of a corner when both are drawn."""
    weights = rng.dirichlet(np.ones(m))
    means, covs = [], []
    for _ in weights:
        near = rng.permutation([True, bool(rng.integers(2))])
        xy = []
        for on_edge, lo, hi in zip(near, (spec.x_min, spec.y_min), (spec.x_max, spec.y_max)):
            if not on_edge:
                xy.append(rng.uniform(lo + 0.5, hi - 0.5))
            elif rng.integers(2):
                xy.append(rng.uniform(lo, lo + 0.1))
            else:
                xy.append(rng.uniform(hi - 0.1, hi))
        means.append([*xy, 1.0])
        covs.append(np.eye(3) * rng.uniform(*var_range))
    return GaussianMixture(weights, means, covs, np.ones(m, int))


def test_extract_matches_exhaustive_enumeration():
    rng = np.random.default_rng(10)
    spec = GridSpec(0.0, 4.0, 0.0, 4.0, 0.1)
    for _ in range(25):
        m = int(rng.integers(1, 5))
        mix = random_mixture(rng, m, (0.5, 3.5), (0.02, 0.2))
        post = eval_on_grid(mix, spec)
        got = targets(post, 0.45, 0.5)
        expected = exhaustive_extract(post.mass, spec, 0.45, 0.5)
        assert np.array_equal(got, expected)
    # Mass on the edges and in the corners, where the support meets the grid's edge.
    for _ in range(40):
        mix = edge_mixture(rng, int(rng.integers(1, 5)), spec, (0.002, 0.2))
        post = eval_on_grid(mix, spec)
        got = targets(post, 0.45, 0.5)
        expected = exhaustive_extract(post.mass, spec, 0.45, 0.5)
        assert np.array_equal(got, expected)


def test_grid_support_threshold_strictness():
    # Cells exactly at tau * peak are not support; a flat grid has none.
    mass = np.full((SPEC.ny, SPEC.nx), 0.45)
    mass[10, 20] = mass[30, 40] = 1.0
    support = grid_support(DensityGrid(SPEC, mass), 0.45)
    assert support.shape == (SPEC.ny, SPEC.nx)
    assert np.array_equal(np.argwhere(support), [[10, 20], [30, 40]])
    assert not grid_support(DensityGrid.uniform(SPEC), 0.45).any()
