import csv
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

from radarfuse import mixture
from radarfuse.harness import GRID_DUMP_HEADER, write_csv
from radarfuse.fusion import FitOptions
from radarfuse.mixture import (
    COV_EIG_FLOOR,
    DensityGrid,
    GaussianMixture,
    GridSpec,
    _floor_eigh,
    choose_components,
    cluster_moments,
    eval_on_grid,
    fit_em,
    kl_divergence,
    normalized_density,
    quad_features,
)
from radarfuse.sensor import ClusterResult

SPEC = GridSpec(0.0, 8.0, 0.0, 8.0, 0.1)

# fit_em takes its iteration cap and tolerance from the caller; these are the
# scenario defaults.
EM = {"max_iters": FitOptions.max_iters, "tol": FitOptions.tol}


def argmax_center(grid):
    """(x, y) center of the grid's most massive cell."""
    iy, ix = np.unravel_index(int(np.argmax(grid.mass)), grid.mass.shape)
    return np.array([grid.spec.x_centers()[ix], grid.spec.y_centers()[iy]])


def iso_cov(s2):
    return np.eye(3) * s2


def em_start(points, means, covs=None, weights=None):
    """A start mixture for ``fit_em`` at ``means``. Covariances default to the
    points' biased sample covariance for every component, weights to equal
    ones; the counts are zero, as ``fit_em`` does not read them."""
    m = len(means)
    if covs is None:
        covs = np.tile(np.cov(points.T, bias=True) if len(points) > 1 else np.zeros((3, 3)), (m, 1, 1))
    return GaussianMixture(np.ones(m) if weights is None else weights, means, covs, np.zeros(m, dtype=int))


def test_grid_spec_refuses_nan():
    nan = float("nan")
    for bounds in ((0, 1, 0, 1, nan), (nan, 1, 0, 1, 0.1), (0, nan, 0, 1, 0.1), (0, 1, nan, 1, 0.1),
                   (0, 1, 0, nan, 0.1)):
        with pytest.raises(ValueError):
            GridSpec(*bounds)


# ------------------------------------------------------ component count


def test_choose_components():
    assert choose_components(ClusterResult(np.zeros(9, int), 3), 8) == 3
    assert choose_components(ClusterResult(np.empty(0, int), 0), 8) == 0
    assert choose_components(ClusterResult(np.zeros(20, int), 12), 8) == 8


# ---------------------------------------------------------------- fit_em


def test_single_component_is_moment_matching():
    rng = np.random.default_rng(0)
    pts = rng.normal([1.0, 2.0, 0.5], [0.3, 0.2, 0.4], (500, 3))
    mix = fit_em(pts, em_start(pts, pts.mean(axis=0, keepdims=True)), **EM)
    assert mix.weights[0] == pytest.approx(1.0)
    assert np.allclose(mix.means[0], pts.mean(axis=0), atol=1e-9)
    sample_cov = np.cov(pts.T, bias=True)
    floored = sample_cov.copy()  # floor is below the sample variances here
    assert np.allclose(mix.covs[0], floored, atol=1e-9)
    assert mix.counts[0] == 500


def test_two_blob_fit_matches_membership_oracle():
    # Oracle: per-blob moments computed from ground-truth membership.
    rng = np.random.default_rng(1)
    a = rng.normal([0, 0, 0], 0.1, (200, 3))
    b = rng.normal([10, 0, 0], 0.1, (200, 3))
    pts = np.concatenate([a, b])
    init = np.array([a.mean(axis=0), b.mean(axis=0)])
    mix = fit_em(pts, em_start(pts, init), **EM)
    for i, blob in zip(np.argsort(mix.means[:, 0]), (a, b)):
        assert np.linalg.norm(mix.means[i] - blob.mean(axis=0)) < 0.05
    weights = sorted(mix.weights)
    assert abs(weights[0] - 0.5) < 0.05 and abs(weights[1] - 0.5) < 0.05


def test_weights_sum_to_one_and_counts_close():
    rng = np.random.default_rng(2)
    for trial in range(20):
        m = int(rng.integers(1, 5))
        centers = rng.uniform(0, 8, (m, 3))
        pts = np.concatenate([rng.normal(c, 0.2, (rng.integers(20, 80), 3)) for c in centers])
        mix = fit_em(pts, em_start(pts, centers), **EM)
        assert abs(mix.weights.sum() - 1.0) <= 1e-9
        assert mix.counts.sum() == mix.total_points == len(pts)


def test_log_likelihood_nondecreasing():
    rng = np.random.default_rng(3)
    for trial in range(50):
        m = int(rng.integers(1, 4))
        pts = rng.normal(0, 1.0, (100, 3)) + rng.uniform(-2, 2, 3)
        init = pts[rng.choice(100, m, replace=False)]
        _, trace = fit_em(pts, em_start(pts, init), return_trace=True, **EM)
        diffs = np.diff(trace)
        assert np.all(diffs >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


@st.composite
def em_problems(draw):
    """A cloud of n points whose centre lies up to 10 m from the origin on each
    axis, m = 1..5 starting components with anisotropic SPD covariances above
    the floor, starting weights and per-point weights."""
    m = draw(st.integers(1, 5))
    n = draw(st.integers(m, 120))
    centre = draw(hnp.arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
    points = centre + draw(hnp.arrays(np.float64, (n, 3), elements=st.floats(-2.0, 2.0)))
    means = centre + draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(-2.0, 2.0)))
    lower = draw(hnp.arrays(np.float64, (m, 3, 3), elements=st.floats(-1.0, 1.0)))
    diag = draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(0.05, 1.5)))
    chol = np.tril(lower, -1) + diag[:, :, None] * np.eye(3)
    covs = chol @ chol.transpose(0, 2, 1) + 2 * COV_EIG_FLOOR * np.eye(3)
    weights = draw(hnp.arrays(np.float64, m, elements=st.floats(0.05, 1.0)))
    point_weights = draw(hnp.arrays(np.float64, n, elements=st.floats(0.01, 5.0)))
    return points, means, covs, weights, point_weights


@settings(deadline=None)
@given(problem=em_problems())
def test_initial_log_likelihood_matches_direct_evaluation(problem):
    points, means, covs, weights, point_weights = problem
    n = len(points)
    logpdf = np.array([np.atleast_1d(multivariate_normal.logpdf(points, mu, cov)) for mu, cov in zip(means, covs)])
    per_point = logsumexp(logpdf, axis=0, b=(weights / weights.sum())[:, None])
    for w in (None, point_weights):
        _, trace = fit_em(points, em_start(points, means, covs, weights),
                          point_weights=w, max_iters=1, tol=EM["tol"], return_trace=True)
        expected = float(np.dot(np.ones(n) if w is None else w * (n / w.sum()), per_point))
        assert abs(trace[0] - expected) <= 1e-9 * max(1.0, abs(expected))


@settings(deadline=None)
@given(problem=em_problems())
def test_log_likelihood_trace_never_steps_down(problem):
    points, means, covs, weights, point_weights = problem
    for w in (None, point_weights):
        _, trace = fit_em(points, em_start(points, means, covs, weights),
                          point_weights=w, max_iters=40, tol=1e-10, return_trace=True)
        steps = np.diff(trace)
        assert np.all(steps >= -1e-9 * np.maximum(1.0, np.abs(trace[:-1])))


LOG_TINY = np.log(np.finfo(float).tiny)


@st.composite
def separated_em_problems(draw):
    """Two or three components whose neighbouring means lie 30–300 scale
    lengths apart along x (300 at most end to end), six points per component
    spread by the component's Cholesky factor, and points between
    neighbouring start means where the log-ratio of the two components'
    weighted densities takes a drawn value: down to far below log(tiny), and
    often near −20, where an E-step cutoff set above log(tiny) would drop
    responsibilities that the M-step's covariances feel."""
    m = draw(st.integers(2, 3))
    scale = draw(st.floats(0.2, 1.0))
    gaps = draw(hnp.arrays(np.float64, m - 1, elements=st.floats(30.0, 300.0 / (m - 1))))
    means = np.zeros((m, 3))
    means[1:, 0] = np.cumsum(gaps) * scale
    means += draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(-2.0, 2.0)))
    lower = draw(hnp.arrays(np.float64, (m, 3, 3), elements=st.floats(-0.5, 0.5)))
    diag = draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(0.5, 1.5)))
    chol = scale * (np.tril(lower, -1) + diag[:, :, None] * np.eye(3))
    covs = chol @ chol.transpose(0, 2, 1) + 2 * COV_EIG_FLOOR * np.eye(3)  # unfloored by the fit
    axes = math.sqrt(3.0) * np.concatenate([np.eye(3), -np.eye(3)])  # mean 0, covariance I
    points = [mu + axes @ c.T for mu, c in zip(means, chol)]
    init_means = means + draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(-1.0, 1.0))) * scale
    weights = draw(hnp.arrays(np.float64, m, elements=st.floats(0.05, 1.0)))

    seg = draw(hnp.arrays(np.int64, draw(st.integers(0, 30)), elements=st.integers(0, m - 2)))
    ratio = draw(hnp.arrays(np.float64, len(seg), elements=st.one_of(st.floats(15.0, 30.0), st.floats(0.0, 800.0))))
    ratio *= np.where(draw(hnp.arrays(bool, len(seg))), 1.0, -1.0)
    delta = init_means[seg + 1] - init_means[seg]
    prec = np.linalg.inv(covs)
    a = np.einsum("ki,kij,kj->k", delta, prec[seg], delta)
    b = np.einsum("ki,kij,kj->k", delta, prec[seg + 1], delta)
    logdet = np.linalg.slogdet(covs)[1]
    c = np.log(weights[seg + 1] / weights[seg]) - 0.5 * (logdet[seg + 1] - logdet[seg])
    lo, hi = np.zeros(len(seg)), np.ones(len(seg))
    for _ in range(60):  # bisect the log-ratio, which increases along the segment
        mid = 0.5 * (lo + hi)
        below = c + 0.5 * a * mid**2 - 0.5 * b * (1.0 - mid) ** 2 < ratio
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    points.append(init_means[seg] + lo[:, None] * delta)

    points = np.concatenate(points)
    point_weights = draw(hnp.arrays(np.float64, len(points), elements=st.floats(0.01, 5.0)))
    return points, init_means, covs, weights, point_weights


def reference_em_step(points, logp, w):
    """One EM step from the weighted log-densities ``logp`` (m, n): the
    log-likelihood of the start and the weights, means and floored
    covariances after the M-step."""
    per_point = logsumexp(logp, axis=0)
    resp = np.exp(logp - per_point) * w
    nm = resp.sum(axis=1)
    new_means = resp @ points / nm[:, None]
    diff = points[None, :, :] - new_means[:, None, :]
    new_covs = np.einsum("mn,mni,mnj->mij", resp, diff, diff) / nm[:, None, None]
    vals, vecs = np.linalg.eigh(new_covs)
    new_covs = np.einsum("mij,mj,mkj->mik", vecs, np.maximum(vals, COV_EIG_FLOOR), vecs)
    return float(np.dot(w, per_point)), nm / nm.sum(), new_means, new_covs


@settings(deadline=None)
@given(problem=separated_em_problems())
def test_em_step_with_underflowing_responsibilities(problem):
    # Responsibilities below the smallest normal double are set to 0 in the
    # E-step; the log-likelihood and the M-step must not notice.
    points, means, covs, weights, point_weights = problem
    logp = np.log(weights / weights.sum())[:, None] + np.array(
        [multivariate_normal.logpdf(points, mu, cov) for mu, cov in zip(means, covs)]
    )
    assume(np.any(logp - logp.max(axis=0) < LOG_TINY))
    n = len(points)
    for w in (None, point_weights):
        ll, ref_weights, ref_means, ref_covs = reference_em_step(points, logp, np.ones(n) if w is None else w * (n / w.sum()))
        mix, trace = fit_em(points, em_start(points, means, covs, weights),
                            point_weights=w, max_iters=1, tol=EM["tol"], return_trace=True)
        assert abs(trace[0] - ll) <= 1e-9 * max(1.0, abs(ll))
        assert np.all(np.abs(mix.weights - ref_weights) <= 1e-9 * ref_weights)
        for mu, ref_mu, cov, ref_cov in zip(mix.means, ref_means, mix.covs, ref_covs):
            assert np.linalg.norm(mu - ref_mu) <= 1e-9 * max(1.0, np.linalg.norm(ref_mu))
            assert np.linalg.norm(cov - ref_cov) <= 1e-9 * np.linalg.norm(ref_cov)


@st.composite
def covariance_stacks(draw):
    """1..6 symmetric positive-definite 3x3 matrices with eigenvalues from
    1e-4 to 2 m² (so the floor engages in some and not in others) along
    random orthonormal axes."""
    m = draw(st.integers(1, 6))
    vals = 10.0 ** draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(-4.0, 0.3)))
    raw = draw(hnp.arrays(np.float64, (m, 3, 3), elements=st.floats(-1.0, 1.0)))
    axes = np.linalg.qr(raw + 3.0 * np.eye(3))[0]
    return np.einsum("mij,mj,mkj->mik", axes, vals, axes)


@settings(deadline=None)
@given(covs=covariance_stacks(), each=st.booleans())
def test_floor_eigh_returns_the_precisions_and_log_determinants_of_its_stack(covs, each):
    floored, prec, logdet = _floor_eigh(covs, COV_EIG_FLOOR, each=each)
    sym = 0.5 * (covs + covs.transpose(0, 2, 1))
    low = np.linalg.eigvalsh(sym)[:, 0] < COV_EIG_FLOOR
    for cov, p, ld, was_low, start in zip(floored, prec, logdet, low, sym):
        assert np.linalg.eigvalsh(cov)[0] >= COV_EIG_FLOOR * (1 - 1e-12)
        if each and not was_low:
            assert np.array_equal(cov, start)
        inv = np.linalg.inv(cov)
        assert np.linalg.norm(p - inv) <= 1e-12 * np.linalg.norm(inv)
        ref = np.linalg.slogdet(cov)[1]
        assert abs(ld - ref) <= 1e-12 * max(1.0, abs(ref))
    if not low.any():
        assert np.array_equal(floored, sym)


def test_component_far_from_every_point_keeps_its_start():
    # 64 points on a 1/64 m lattice: every sum, the mean and every shift by
    # it are exact, so the dead component's start comes back bit for bit.
    pts = np.array([2.0, 3.0, 1.0]) + np.random.default_rng(8).integers(-20, 21, (64, 3)) / 64.0
    assert np.array_equal(pts.mean(axis=0), pts.sum(axis=0) / 64)
    init = np.array([pts.mean(axis=0), [1002.0, 3.0, 1.0]])
    covs = np.array([iso_cov(0.5), np.diag([0.25, 0.5, 0.125])])
    mix = fit_em(pts, em_start(pts, init, covs), **EM)
    assert mix.weights[1] == 0.0 and mix.counts[1] == 0 and mix.counts[0] == 64
    assert np.array_equal(mix.means[1], init[1])
    assert np.array_equal(mix.covs[1], covs[1])
    alone = fit_em(pts, em_start(pts, init[:1], covs[:1]), **EM)
    assert np.allclose(mix.means[0], alone.means[0], rtol=1e-12, atol=0)
    assert np.allclose(mix.covs[0], alone.covs[0], rtol=1e-12, atol=1e-15)


def test_em_reverts_an_m_step_that_lowers_the_log_likelihood(monkeypatch):
    # No fit in the shipped scenarios reverts: clipping eigenvalues is the
    # exact M-step under the floor, so EM stays monotone. Inflating the
    # second M-step's covariances forces the fallback.
    rng = np.random.default_rng(9)
    pts = np.concatenate([rng.normal([1, 1, 1], 0.2, (60, 3)), rng.normal([3, 1, 1], 0.3, (40, 3))])
    init = np.array([[1.5, 1.2, 1.0], [2.5, 0.8, 1.0]])
    good, good_trace = fit_em(pts, em_start(pts, init), max_iters=1, tol=EM["tol"], return_trace=True)

    floor_eigh = mixture._floor_eigh
    m_steps = []

    def overshooting(covs, floor, each=False):
        if not each:
            m_steps.append(covs)
            if len(m_steps) == 2:
                covs = 100.0 * covs
        return floor_eigh(covs, floor, each)

    monkeypatch.setattr(mixture, "_floor_eigh", overshooting)
    mix, trace = fit_em(pts, em_start(pts, init), return_trace=True, **EM)
    assert len(m_steps) == 2 and trace[:1] == good_trace and len(trace) == 2
    for name in ("weights", "means", "covs", "counts"):
        assert np.array_equal(getattr(mix, name), getattr(good, name)), name


def test_mixture_arrays_must_agree_in_shape():
    mix = GaussianMixture([0.25, 0.75], np.zeros((2, 3)), [iso_cov(1.0)] * 2, [3, 4])
    assert mix.n_components == 2 and mix.total_points == 7 and mix.counts.dtype.kind == "i"
    with pytest.raises(ValueError, match="means"):
        GaussianMixture([1.0], np.zeros((2, 3)), [iso_cov(1.0)], [1])
    with pytest.raises(ValueError, match="covs"):
        GaussianMixture([1.0], np.zeros((1, 3)), iso_cov(1.0), [1])
    with pytest.raises(ValueError, match="counts"):
        GaussianMixture([1.0], np.zeros((1, 3)), [iso_cov(1.0)], [1, 2])


def test_component_reduction_and_empty_input():
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mix = fit_em(pts, em_start(pts, np.tile(pts.mean(axis=0), (5, 1))), **EM)
    assert mix.n_components <= 2
    empty = fit_em(np.empty((0, 3)), em_start(np.empty((0, 3)), np.zeros((1, 3))), **EM)
    assert empty.is_empty() and empty.total_points == 0
    with pytest.raises(ValueError, match="at least one component"):
        fit_em(pts, GaussianMixture.empty(), **EM)


def test_start_weights_are_normalized_and_its_counts_and_arrays_left_alone():
    rng = np.random.default_rng(10)
    pts = np.concatenate([rng.normal([1, 1, 1], 0.2, (50, 3)), rng.normal([2, 1, 1], 0.3, (30, 3))])
    covs = np.array([iso_cov(0.1), iso_cov(0.2)])
    start = GaussianMixture([2.0, 6.0], [[1.2, 1.0, 1.0], [1.8, 1.0, 1.0]], covs, [7, 9])
    for value in (start.weights, start.means, start.covs, start.counts):
        value.flags.writeable = False  # a recorded mixture is read-only
    mix = fit_em(pts, start, **EM)
    same = fit_em(pts, GaussianMixture([0.25, 0.75], start.means, covs, [0, 0]), **EM)
    for name in ("weights", "means", "covs", "counts"):
        assert np.array_equal(getattr(mix, name), getattr(same, name)), name


def test_covariances_stay_floored_and_pd():
    rng = np.random.default_rng(4)
    # nearly coplanar points would collapse an eigenvalue without the floor
    pts = rng.normal(0, 0.5, (100, 3))
    pts[:, 2] = 0.0
    mix = fit_em(pts, em_start(pts, pts[:2]), **EM)
    for cov in mix.covs:
        vals = np.linalg.eigvalsh(cov)
        assert vals[0] >= COV_EIG_FLOOR - 1e-12
        assert np.allclose(cov, cov.T)


def test_weighted_fit_with_equal_weights_matches_unweighted():
    rng = np.random.default_rng(5)
    pts = rng.normal([2, 2, 1], 0.3, (150, 3))
    init = pts[:2]
    plain = fit_em(pts, em_start(pts, init), **EM)
    weighted = fit_em(pts, em_start(pts, init), point_weights=np.full(150, 0.37), **EM)
    assert np.allclose(plain.means, weighted.means)
    assert np.allclose(plain.covs, weighted.covs)
    assert plain.weights == pytest.approx(weighted.weights)


def test_cluster_moments_keeps_largest():
    pts = np.concatenate(
        [np.random.default_rng(6).normal(c, 0.05, (n, 3)) for c, n in [([0, 0, 0], 30), ([5, 0, 0], 10), ([0, 5, 0], 20)]]
    )
    labels = np.array([0] * 30 + [1] * 10 + [2] * 20)
    means, covs, counts = cluster_moments(pts, labels, 3, keep=2)
    assert len(means) == 2
    assert set(counts) == {30.0, 20.0}


@st.composite
def labelled_clouds(draw):
    """k = 1..8 clusters of 1..5 points (so counts often tie, and singletons
    occur), centred anywhere in an 8 m cube (room scale) placed up to 10 m
    from the origin, each spread by its own scale of 0.01..1 m; the points
    come in a random order. ``keep`` is None or below k."""
    k = draw(st.integers(1, 8))
    sizes = draw(hnp.arrays(np.int64, k, elements=st.integers(1, 5)))
    origin = draw(hnp.arrays(np.float64, 3, elements=st.floats(-10.0, 10.0)))
    offsets = draw(hnp.arrays(np.float64, (k, 3), elements=st.floats(-4.0, 4.0)))
    scales = draw(hnp.arrays(np.float64, k, elements=st.floats(0.01, 1.0)))
    jitter = draw(hnp.arrays(np.float64, (int(sizes.sum()), 3), elements=st.floats(-1.0, 1.0)))
    labels = np.repeat(np.arange(k), sizes)
    points = origin + offsets[labels] + scales[labels][:, None] * jitter
    order = np.array(draw(st.permutations(range(len(points)))))
    keep = draw(st.one_of(st.none(), st.integers(1, max(k - 1, 1))))
    return points[order], labels[order], k, keep


@settings(deadline=None)
@given(cloud=labelled_clouds())
def test_cluster_moments_match_per_cluster_reference(cloud):
    points, labels, k, keep = cloud
    counts = np.bincount(labels, minlength=k)
    kept = sorted(sorted(range(k), key=lambda c: (-counts[c], c))[:keep])
    means, covs, got_counts = cluster_moments(points, labels, k, keep=keep)
    assert got_counts.tolist() == [float(counts[c]) for c in kept]
    centre = points.mean(axis=0)
    scale = np.abs(points).max()  # means are shifted back from the centred frame
    for c, mu, cov in zip(kept, means, covs):
        member = points[labels == c]
        ref_mu = member.mean(axis=0)
        ref_cov = np.cov(member.T, bias=True) if len(member) > 1 else np.zeros((3, 3))
        vals, vecs = np.linalg.eigh(ref_cov)
        if vals[0] < COV_EIG_FLOOR:
            ref_cov = vecs @ np.diag(np.maximum(vals, COV_EIG_FLOOR)) @ vecs.T
        assert np.linalg.norm(mu - ref_mu) <= 1e-12 * scale
        # E[xx'] - mu mu' in coordinates centred on the cloud's mean loses a
        # few ulps of |mu - centre|^2 to cancellation.
        cancellation = 8 * np.finfo(float).eps * np.sum((ref_mu - centre) ** 2)
        assert np.linalg.norm(cov - ref_cov) <= 1e-12 * np.linalg.norm(ref_cov) + cancellation


def assert_same_mixture(a, b):
    for name in ("weights", "means", "covs", "counts"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@settings(deadline=None)
@given(cloud=labelled_clouds(), weights=st.one_of(st.none(), st.floats(0.01, 10.0)))
def test_prebuilt_features_change_no_bit(cloud, weights):
    # The moments and the fit from a cloud's prebuilt features equal the
    # plain calls exactly: parameters, counts and the likelihood trace, with
    # and without point weights.
    points, labels, k, keep = cloud
    features = quad_features(points)
    plain = cluster_moments(points, labels, k, keep=keep)
    given_features = cluster_moments(points, labels, k, keep=keep, features=features)
    assert all(np.array_equal(a, b) for a, b in zip(plain, given_features, strict=True))
    means, covs, counts = plain
    start = GaussianMixture(counts, means, covs, counts)
    point_weights = None if weights is None else np.linspace(weights, 1.0, len(points))
    fit, trace = fit_em(points, start, point_weights=point_weights, return_trace=True, **EM)
    same, same_trace = fit_em(points, start, point_weights=point_weights, features=features, return_trace=True, **EM)
    assert_same_mixture(fit, same)
    assert trace == same_trace


# ----------------------------------------------------------- eval_on_grid


def test_unimodal_peak_location():
    mix = GaussianMixture([1.0], [[3.0, 5.0, 1.0]], [iso_cov(0.04)], [100])
    grid = eval_on_grid(mix, SPEC)
    # the mean lies on a cell edge, so either adjacent cell may win
    assert np.all(np.abs(argmax_center(grid) - [3.0, 5.0]) <= SPEC.resolution / 2 + 1e-9)
    assert grid.mass.sum() == pytest.approx(1.0, abs=1e-9)


def test_empty_mixture_is_uniform():
    grid = eval_on_grid(GaussianMixture.empty(), SPEC)
    assert np.allclose(grid.mass, 1.0 / SPEC.n_cells)


def test_bimodal_grid_matches_density_oracle():
    # Oracle: direct density evaluation with scipy's multivariate normal.
    mix = GaussianMixture([0.5, 0.5], [[2.0, 2.0, 1.0], [6.0, 6.0, 1.0]], [iso_cov(0.09)] * 2, [50, 50])
    grid = eval_on_grid(mix, SPEC)

    gx, gy = np.meshgrid(SPEC.x_centers(), SPEC.y_centers())
    cells = np.column_stack([gx.ravel(), gy.ravel()])
    dens = np.zeros(len(cells))
    for weight, mean, cov in zip(mix.weights, mix.means, mix.covs):
        dens += weight * multivariate_normal(mean[:2], cov[:2, :2]).pdf(cells)
    oracle = (dens / dens.sum()).reshape(SPEC.ny, SPEC.nx)
    assert np.max(np.abs(oracle - grid.mass)) < 1e-6


def test_density_integrates_to_one_on_enlarged_grid():
    rng = np.random.default_rng(7)
    pts = np.concatenate([rng.normal([3, 3, 1], 0.3, (80, 3)), rng.normal([5, 5, 1], 0.2, (80, 3))])
    mix = fit_em(pts, em_start(pts, [[3, 3, 1.0], [5, 5, 1.0]]), **EM)
    big = GridSpec(-4.0, 12.0, -4.0, 12.0, 0.05)
    total = 0.0
    cells = np.column_stack([g.ravel() for g in np.meshgrid(big.x_centers(), big.y_centers())])
    for weight, mean, cov in zip(mix.weights, mix.means, mix.covs):
        total += weight * multivariate_normal(mean[:2], cov[:2, :2]).pdf(cells).sum() * big.cell_area
    assert abs(total - 1.0) < 1e-3


# ------------------------------------------------------------ divergence


def test_kl_of_identical_grids_is_zero():
    mix = GaussianMixture([1.0], [[4.0, 4.0, 1.0]], [iso_cov(0.25)], [10])
    p = eval_on_grid(mix, SPEC)
    assert kl_divergence(p, p) < 1e-12


def test_kl_matches_gaussian_closed_form():
    # Oracle: KL(N(0,1) || N(1,1)) = 0.5; y marginals identical, fine grid.
    spec = GridSpec(-8.0, 9.0, -8.0, 9.0, 0.1)
    sigma = np.diag([1.0, 1.0, 1.0])
    p = eval_on_grid(GaussianMixture([1.0], [[0.0, 0.0, 0.0]], [sigma], [1]), spec)
    q = eval_on_grid(GaussianMixture([1.0], [[1.0, 0.0, 0.0]], [sigma], [1]), spec)
    assert kl_divergence(p, q) == pytest.approx(0.5, rel=0.01)


def test_disjoint_supports_stay_finite():
    spec = GridSpec(0.0, 8.0, 0.0, 8.0, 0.2)
    p = DensityGrid(spec, np.zeros((spec.ny, spec.nx)))
    q = DensityGrid(spec, np.zeros((spec.ny, spec.nx)))
    p.mass[0, 0] = 1.0
    q.mass[-1, -1] = 1.0
    d = kl_divergence(p, q)
    assert np.isfinite(d) and d > 10.0


def test_kl_nonnegative_on_random_grids():
    rng = np.random.default_rng(8)
    spec = GridSpec(0.0, 2.0, 0.0, 2.0, 0.1)
    for _ in range(50):
        p = normalized_density(rng.random((spec.ny, spec.nx)), spec)
        q = normalized_density(rng.random((spec.ny, spec.nx)), spec)
        assert kl_divergence(p, q) >= 0.0


def test_mismatched_grids_raise():
    p = DensityGrid.uniform(SPEC)
    q = DensityGrid.uniform(GridSpec(0.0, 8.0, 0.0, 8.0, 0.2))
    with pytest.raises(ValueError):
        kl_divergence(p, q)


# ------------------------------------------------------------------ csv


def test_grid_csv_round_trip(tmp_path):
    # Written as the runner writes a grid dump.
    mix = GaussianMixture([1.0], [[2.5, 3.5, 1.0]], [iso_cov(0.2)], [5])
    grid = eval_on_grid(mix, SPEC)
    spec = grid.spec
    path = write_csv(tmp_path / "grid.csv", GRID_DUMP_HEADER,
                     [[spec.x_min, spec.x_max, spec.y_min, spec.y_max, spec.resolution], *grid.mass.tolist()])
    with open(path, newline="") as fh:
        header, spec_row, *rows = csv.reader(fh)
    assert tuple(header) == GRID_DUMP_HEADER
    assert GridSpec(*map(float, spec_row)) == spec
    assert np.array_equal(np.array(rows, dtype=float), grid.mass)
