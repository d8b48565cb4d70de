import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from radarfuse import config
from radarfuse.scene import Scene, advance_scene, initial_scene, target_routes
from radarfuse.sensor import (
    OUTLIER,
    PointCloud,
    RadarModel,
    RadarPose,
    dbscan,
    observe,
    preprocess,
    rot_z,
)


def make_scene(points, target_ids=None, centers=None):
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    if target_ids is None:
        target_ids = np.ones(len(points), dtype=int)
    centers = centers or {1: points[:, :2].mean(axis=0) if len(points) else np.zeros(2)}
    return Scene(np.asarray(target_ids), points, centers, {t: 0.0 for t in centers})


def quiet_model(**kw):
    base = dict(noise_sigma=0.0, outlier_rate=0.0, detection_range_ref=100.0, max_range=12.0)
    base.update(kw)
    return RadarModel(**base)


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=float).reshape(-1, 3))


# ---------------------------------------------------------------- observe


def loader_default(key):
    """The value a radar gets for a model key its scenario leaves out."""
    if key.endswith("_deg"):
        return math.degrees(getattr(RadarModel(), key.removesuffix("_deg")))
    return getattr(RadarModel(), key)


@pytest.mark.parametrize("key", sorted(config._MODEL_KEYS))
def test_every_model_key_changes_the_observation(key):
    # A key the loader accepts but observe never reads would be silently ignored.
    # Target 2 fills a sector past the range and FOV limits and behind target 1.
    rng = np.random.default_rng(1)
    near = rng.normal([3.0, 0.0, 1.0], 0.2, (50, 3))
    r, az = rng.uniform(1.0, 13.0, 600), rng.uniform(-1.3, 1.3, 600)
    far = np.column_stack([r * np.cos(az), r * np.sin(az), rng.uniform(0.5, 1.5, 600)])
    scene = make_scene(np.concatenate([near, far]), np.repeat([1, 2], [50, 600]),
                       {1: np.array([3.0, 0.0]), 2: np.array([8.0, 0.0])})

    def observed(model):
        radar = config._radar_from({"id": 1, "position": [0.0, 0.0, 0.0], "yaw_deg": 0.0, "model": model})
        return observe(scene, radar.pose, radar.model, np.random.default_rng(4)).points

    assert not np.array_equal(observed({key: 0.5 * loader_default(key)}), observed({}))


@pytest.mark.parametrize("value", [5.0, -2.0, float("nan")])
def test_model_refuses_an_occlusion_attenuation_outside_zero_to_one(value):
    # The attenuation multiplies a detection probability; the library refuses
    # NaN as well as the loader does.
    with pytest.raises(ValueError, match=r"occlusion_attenuation must be in \[0, 1\]"):
        RadarModel(occlusion_attenuation=value)
    for bound in (0.0, 1.0):
        RadarModel(occlusion_attenuation=bound)


@pytest.mark.parametrize("key", ["fov_azimuth", "max_range", "detection_range_ref", "occlusion_width",
                                 "noise_sigma", "outlier_rate"])
@pytest.mark.parametrize("value", [-1.0, float("nan"), float("inf"), float("-inf")])
def test_model_refuses_a_negative_or_non_finite_number(key, value):
    # An infinite noise, range, outlier rate or field of view would fail
    # inside the k-d tree or the RNG, mid-run.
    with pytest.raises(ValueError, match=f"{key} must be >=? 0 and finite"):
        RadarModel(**{key: value})


def test_noiseless_boresight_point_is_identity():
    pose = RadarPose(np.zeros(3), 0.0)
    scene = make_scene([[2.0, 0.0, 0.0]])
    cloud = observe(scene, pose, quiet_model(), np.random.default_rng(0))
    assert len(cloud) == 1
    assert np.allclose(cloud.points[0], [2.0, 0.0, 0.0])


def test_point_outside_fov_is_dropped():
    pose = RadarPose(np.zeros(3), 0.0)
    scene = make_scene([[0.0, 2.0, 0.0]])  # azimuth 90 degrees
    cloud = observe(scene, pose, quiet_model(), np.random.default_rng(0))
    assert len(cloud) == 0


def test_point_beyond_max_range_is_dropped():
    pose = RadarPose(np.zeros(3), 0.0)
    scene = make_scene([[20.0, 0.0, 0.0]])
    cloud = observe(scene, pose, quiet_model(max_range=12.0), np.random.default_rng(0))
    assert len(cloud) == 0


def test_mean_outlier_count_matches_rate():
    # Monte Carlo over the spurious-point sampler on an empty scene.
    pose = RadarPose(np.zeros(3), 0.0)
    scene = make_scene(np.empty((0, 3)), target_ids=[], centers={})
    model = quiet_model(outlier_rate=5.0)
    rng = np.random.default_rng(42)
    sizes = [len(observe(scene, pose, model, rng)) for _ in range(10_000)]
    assert abs(np.mean(sizes) - 5.0) <= 0.15


def test_detection_probability_follows_range_law():
    # Oracle: p_d(r) = (ref / r)^2; estimate empirically at one range.
    pose = RadarPose(np.zeros(3), 0.0)
    model = quiet_model(detection_range_ref=4.0)
    scene = make_scene([[8.0, 0.0, 0.0]])
    rng = np.random.default_rng(3)
    hits = sum(len(observe(scene, pose, model, rng)) for _ in range(4000))
    expected = (4.0 / 8.0) ** 2
    assert abs(hits / 4000 - expected) < 0.03


def test_occlusion_attenuates_shadowed_target():
    pose = RadarPose(np.zeros(3), 0.0)
    model = quiet_model(occlusion_width=0.5, occlusion_attenuation=0.1)
    points = np.concatenate(
        [np.tile([2.0, 0.0, 0.0], (100, 1)), np.tile([6.0, 0.0, 0.0], (100, 1))]
    )
    ids = np.array([1] * 100 + [2] * 100)
    scene = make_scene(points, ids, {1: np.array([2.0, 0.0]), 2: np.array([6.0, 0.0])})
    rng = np.random.default_rng(4)
    counts = np.zeros(2)
    for _ in range(200):
        cloud = observe(scene, pose, model, rng)
        # nearer target keeps everything, the far one sits in its shadow
        counts[0] += np.sum(cloud.points[:, 0] < 4.0)
        counts[1] += np.sum(cloud.points[:, 0] > 4.0)
    assert counts[0] == 200 * 100
    assert abs(counts[1] / (200 * 100) - model.occlusion_attenuation) < 0.02


def test_censoring_monotonicity():
    # Same seed, smaller field of view or range: never more detections.
    rng_pts = np.random.default_rng(5)
    points = rng_pts.uniform([-1, -6, 0], [10, 6, 2], (300, 3))
    scene = make_scene(points, np.ones(300, int), {1: np.array([4.0, 0.0])})
    pose = RadarPose(np.zeros(3), 0.0)

    def detected(fov_deg, max_range):
        model = quiet_model(fov_azimuth=math.radians(fov_deg), max_range=max_range, outlier_rate=0.0)
        return len(observe(scene, pose, model, np.random.default_rng(99)))

    base = detected(60, 12.0)
    assert detected(40, 12.0) <= base
    assert detected(60, 6.0) <= base
    assert detected(40, 6.0) <= min(detected(40, 12.0), detected(60, 6.0))


# ---------------------------------------------------------------- frames


def test_null_pose_is_identity():
    # At the origin with zero yaw the radar's coordinates are the global ones.
    pose = RadarPose(np.zeros(3), 0.0)
    pts = [[1.0, 0.5, 3.0], [4.0, -2.0, 0.5]]
    cloud = observe(make_scene(pts), pose, quiet_model(), np.random.default_rng(0))
    assert np.allclose(cloud.points, pts)


def test_rotation_translation_by_hand():
    # 2 m along the boresight of a radar at (1, 0, 0) facing +y.
    pose = RadarPose(np.array([1.0, 0.0, 0.0]), math.pi / 2)
    cloud = observe(make_scene([[1.0, 2.0, 0.0]]), pose, quiet_model(), np.random.default_rng(0))
    assert len(cloud) == 1
    assert np.allclose(cloud.points[0], [1.0, 2.0, 0.0], atol=1e-12)


def test_round_trip_is_identity():
    # A noiseless observation at a rotated, translated pose returns the scene.
    pose = RadarPose(np.array([0.7, -1.3, 0.9]), 2.1)
    rng = np.random.default_rng(6)
    rho, az = rng.uniform(0.5, 10.0, 50), rng.uniform(-1.0, 1.0, 50) + pose.yaw
    pts = np.column_stack([rho * np.cos(az), rho * np.sin(az), rng.normal(0, 1, 50)]) + pose.position
    cloud = observe(make_scene(pts), pose, quiet_model(), np.random.default_rng(7))
    assert len(cloud) == len(pts)
    assert np.max(np.abs(cloud.points - pts)) < 1e-12


# ---------------------------------------------------------------- dbscan


def brute_force_dbscan(points, eps, min_pts):
    """Independent density-reachability oracle using plain sets and loops."""
    n = len(points)
    neighbors = [
        {j for j in range(n) if np.linalg.norm(points[i] - points[j]) <= eps}
        for i in range(n)
    ]
    core = [len(neighbors[i]) >= min_pts for i in range(n)]
    labels = [OUTLIER] * n
    cluster = 0
    for i in range(n):
        if not core[i] or labels[i] != OUTLIER:
            continue
        frontier = {i}
        labels[i] = cluster
        while frontier:
            j = frontier.pop()
            for q in sorted(neighbors[j]):
                if core[q] and labels[q] == OUTLIER:
                    labels[q] = cluster
                    frontier.add(q)
        cluster += 1
    for i in range(n):
        if core[i] or labels[i] != OUTLIER:
            continue
        for j in range(n):  # first core neighbor in input order
            if core[j] and j in neighbors[i]:
                labels[i] = labels[j]
                break
    return labels, cluster


def test_tight_ball_plus_far_outlier():
    rng = np.random.default_rng(7)
    eps = 0.4
    ball = rng.normal(0, eps / 8, (20, 3))
    pts = np.concatenate([ball, [[100 * eps, 0.0, 0.0]]])
    res = dbscan(cloud_of(pts), eps, 5)
    expected, n = brute_force_dbscan(pts, eps, 5)
    assert res.n_clusters == n == 1
    assert list(res.labels) == expected
    assert res.labels[-1] == OUTLIER


def test_all_isolated_points_are_outliers():
    pts = np.array([[0, 0, 0], [5, 0, 0], [0, 5, 0], [5, 5, 0]], dtype=float)
    res = dbscan(cloud_of(pts), eps=1.0, min_pts=2)
    assert res.n_clusters == 0
    assert np.all(res.labels == OUTLIER)


def test_two_separated_blobs():
    rng = np.random.default_rng(8)
    eps = 0.3
    a = rng.normal(0, eps / 4, (20, 3))
    b = rng.normal(0, eps / 4, (20, 3)) + [10 * eps, 0, 0]
    pts = np.concatenate([a, b])
    res = dbscan(cloud_of(pts), eps, 5)
    expected, n = brute_force_dbscan(pts, eps, 5)
    assert res.n_clusters == n == 2
    assert list(res.labels) == expected
    assert np.sum(res.labels == OUTLIER) == 0


def test_matches_brute_force_on_random_instances():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = rng.integers(2, 60)
        pts = rng.uniform(0, 3, (n, 3))
        eps = float(rng.uniform(0.2, 1.0))
        min_pts = int(rng.integers(1, 6))
        res = dbscan(cloud_of(pts), eps, min_pts)
        expected, n_clusters = brute_force_dbscan(pts, eps, min_pts)
        assert res.n_clusters == n_clusters
        assert list(res.labels) == expected


@st.composite
def dbscan_clouds(draw):
    """(points, eps, min_pts) in random input order: a random cloud with
    duplicated points, a lattice with holes whose neighbours lie exactly eps
    apart (eps is a power of two, so the ties are exact), or a straight chain
    of up to 150 points spaced just under eps, whose shuffled labels take
    several propagation rounds to meet."""
    kind = draw(st.sampled_from(["duplicates", "lattice", "chain"]))
    if kind == "duplicates":
        eps = draw(st.floats(0.1, 1.0))
        base = draw(hnp.arrays(np.float64, st.tuples(st.integers(1, 50), st.just(3)), elements=st.floats(0.0, 2.0)))
        copies = draw(st.lists(st.integers(0, len(base) - 1), max_size=30))
        points = np.concatenate([base, base[copies]])
        min_pts = draw(st.integers(1, 8))
    elif kind == "lattice":
        eps = draw(st.sampled_from([0.25, 0.5, 1.0]))
        cells = np.argwhere(np.ones(draw(st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 4)))))
        points = cells[draw(hnp.arrays(bool, len(cells)))] * eps
        min_pts = draw(st.integers(1, 8))
    else:
        eps = draw(st.floats(0.1, 1.0))
        step = eps * draw(st.floats(0.9, 0.999))
        points = np.arange(draw(st.integers(2, 150)))[:, None] * step * np.array([0.6, 0.0, 0.8])
        min_pts = draw(st.integers(1, 3))  # a chain point has at most two neighbours
    order = draw(st.permutations(range(len(points))))
    return points[order], eps, min_pts


@settings(deadline=None)
@given(case=dbscan_clouds())
def test_dbscan_matches_brute_force_oracle(case):
    points, eps, min_pts = case
    res = dbscan(cloud_of(points), eps, min_pts)
    expected, n_clusters = brute_force_dbscan(points, eps, min_pts)
    assert res.n_clusters == n_clusters
    assert list(res.labels) == expected


def propagation_rounds(n, edges):
    """Rounds ``dbscan`` labels the graph of ``edges`` in, in plain Python:
    every edge joins two roots, each of which takes the smallest root across
    its edges; then every point follows its roots to the end, and an edge
    whose two ends now share a root is dropped."""
    root, rounds = list(range(n)), 0
    while edges:
        rounds += 1
        for a, b in edges:
            root[a], root[b] = min(root[a], b), min(root[b], a)
        for v in range(n):
            while root[root[v]] != root[v]:
                root[v] = root[root[v]]
        edges = [(root[a], root[b]) for a, b in edges if root[a] != root[b]]
    return rounds


def test_dbscan_labels_a_chain_that_needs_many_propagation_rounds():
    # Along this chain the indices run in bit-reversed order (0, 16, 8, 24,
    # 4, ...): each round keeps every other root of the round before, so the
    # chain takes log2(32) = 5 rounds. A chain in index order, or in reverse
    # index order, which is the same path, takes one.
    n, eps = 32, 0.5
    order = [int(f"{k:05b}"[::-1], 2) for k in range(n)]
    points = np.zeros((n, 3))
    points[order, 0] = np.arange(n) * 0.45  # neighbours along the chain only
    assert propagation_rounds(n, [tuple(sorted(e)) for e in zip(order, order[1:])]) == 5
    assert propagation_rounds(n, [(k, k + 1) for k in range(n - 1)]) == 1
    for min_pts in (1, 2, 3):
        res = dbscan(cloud_of(points), eps, min_pts)
        expected, n_clusters = brute_force_dbscan(points, eps, min_pts)
        assert res.n_clusters == n_clusters == 1
        assert list(res.labels) == expected


def test_dbscan_matches_brute_force_oracle_on_shipped_clouds():
    # The raw clouds of the default scenario (about 540 points: two dense
    # bodies and outliers) fill a k-d tree with many nodes, so its whole
    # node-pair shortcut runs, which the small oracle clouds above rarely reach.
    cfg = config.load_config("default")
    routes = target_routes(cfg.targets, cfg.landmarks)
    rng = np.random.default_rng(3)
    scene = initial_scene(cfg.targets, routes, rng)
    radar_at = {1: cfg.radars[1], 30: cfg.radars[2]}
    for epoch in range(1, 31):
        scene = advance_scene(scene, cfg.targets, routes, cfg.dt, rng)
        if epoch not in radar_at:
            continue
        radar = radar_at[epoch]
        points = observe(scene, radar.pose, radar.model, rng).points
        assert len(points) > 500
        res = dbscan(cloud_of(points), cfg.dbscan_eps, cfg.dbscan_min_pts)
        expected, n_clusters = brute_force_dbscan(points, cfg.dbscan_eps, cfg.dbscan_min_pts)
        assert res.n_clusters == n_clusters >= 2 and OUTLIER in expected
        assert list(res.labels) == expected


def test_membership_is_permutation_invariant():
    rng = np.random.default_rng(10)
    pts = np.concatenate(
        [rng.normal(0, 0.1, (15, 3)), rng.normal(0, 0.1, (15, 3)) + [5, 0, 0]]
    )
    res = dbscan(cloud_of(pts), 0.5, 4)
    perm = rng.permutation(len(pts))
    res_p = dbscan(cloud_of(pts[perm]), 0.5, 4)

    def partitions(labels, order):
        groups = {}
        for idx, lab in zip(order, labels):
            if lab != OUTLIER:
                groups.setdefault(lab, set()).add(int(idx))
        return {frozenset(g) for g in groups.values()}

    assert partitions(res.labels, range(len(pts))) == partitions(res_p.labels, perm)


# ------------------------------------------------------------- preprocess


def test_preprocess_keeps_clean_cloud():
    rng = np.random.default_rng(11)
    pts = rng.normal([3, 0, 1], 0.05, (50, 3))
    filtered, clusters = preprocess(cloud_of(pts), eps=0.3, min_pts=5)
    assert len(filtered) == 50
    assert clusters.n_clusters == 1
    assert np.all(clusters.labels == 0)


def test_preprocess_drops_lone_point():
    filtered, clusters = preprocess(cloud_of([[2.0, 0.0, 0.0]]), eps=0.3, min_pts=5)
    assert len(filtered) == 0
    assert clusters.n_clusters == 0


def test_preprocess_removes_injected_outliers():
    # Oracle: lone points 8 m around a dense target, shuffled in among its
    # rows; preprocessing keeps exactly the target rows, in their order.
    target = np.random.default_rng(12).normal([4, 0, 1], 0.1, (200, 3))
    angles = np.radians(np.arange(0, 360, 45))
    rng = np.random.default_rng(13)
    for _ in range(20):
        far = np.column_stack([4 + 8 * np.cos(angles), 8 * np.sin(angles), rng.uniform(0, 2, len(angles))])
        is_target = rng.permutation(np.arange(len(target) + len(far)) < len(target))
        points = np.empty((len(is_target), 3))
        points[is_target], points[~is_target] = target, far
        filtered, _ = preprocess(cloud_of(points), eps=0.3, min_pts=5)
        assert np.array_equal(filtered.points, target)


@settings(deadline=None)
@given(
    points=hnp.arrays(np.float64, st.tuples(st.integers(0, 60), st.just(3)), elements=st.floats(-1.5, 1.5)),
    yaw=st.floats(-math.pi, math.pi),
    eps=st.floats(0.05, 0.8),
    min_pts=st.integers(1, 6),
)
def test_dbscan_of_preprocessed_cloud_keeps_its_labels(points, yaw, eps, min_pts):
    # Cooperation reuses a sender's clustering for an exact copy of its
    # preprocessed cloud, which holds only if DBSCAN is idempotent there.
    # The points are placed as observe places a radar's detections.
    pose = RadarPose(np.array([1.0, -2.0, 1.2]), yaw)
    filtered, clusters = preprocess(cloud_of(points @ rot_z(pose.yaw).T + pose.position), eps, min_pts)
    again = dbscan(filtered, eps, min_pts)
    assert again.n_clusters == clusters.n_clusters
    assert np.array_equal(again.labels, clusters.labels)
