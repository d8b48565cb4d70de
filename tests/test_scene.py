import numpy as np
import pytest

from radarfuse import scene as scene_module
from radarfuse.scene import (
    ConfigError,
    TargetSpec,
    advance_scene,
    initial_scene,
)

LANDMARKS = {
    "A": np.array([0.0, 0.0]),
    "B": np.array([1.0, 0.0]),
    "C": np.array([3.0, 4.0]),
}


def make_spec(**kw):
    base = dict(
        id=1,
        waypoints=("A", "B"),
        speed=1.0,
        body_extent=np.array([0.2, 0.2, 0.4]),
        points_per_frame=50,
    )
    base.update(kw)
    return TargetSpec(**base)


def route_centers(spec, dt, n_steps):
    """Target centers at epochs 0..n_steps, as the runner advances the scene."""
    rng = np.random.default_rng(0)
    scene = initial_scene([spec], LANDMARKS, rng)
    centers = [scene.centers[spec.id]]
    for _ in range(n_steps):
        scene = advance_scene(scene, [spec], LANDMARKS, dt, rng)
        centers.append(scene.centers[spec.id])
    return np.array(centers)


def test_single_waypoint_path_is_constant():
    path = route_centers(make_spec(waypoints=("A",), speed=2.0), 0.1, 5)
    assert np.allclose(path, [0.0, 0.0])


def test_uniform_motion_path():
    # Constant-speed progress, then clamping at the final landmark.
    path = route_centers(make_spec(waypoints=("A", "B"), speed=1.0), 0.5, 4)
    assert np.allclose(path, [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])


def test_arc_length_parameterization():
    # Oracle: walk the polyline accumulating segment lengths independently.
    path = route_centers(make_spec(waypoints=("A", "C"), speed=1.0), 1.0, 7)
    steps = np.linalg.norm(np.diff(path, axis=0), axis=1)
    assert np.all(np.abs(steps[:5] - 1.0) <= 1e-9)
    assert np.all(steps[5:] == 0.0)
    assert np.array_equal(path[-1], [3.0, 4.0])
    total = np.hypot(3.0, 4.0)
    assert abs(steps.sum() - total) <= 1e-9


def test_unknown_label_raises():
    spec = make_spec(waypoints=("A", "Z"))
    with pytest.raises(ConfigError):
        initial_scene([spec], LANDMARKS, np.random.default_rng(0))
    scene = initial_scene([make_spec()], LANDMARKS, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        advance_scene(scene, [spec], LANDMARKS, 0.1, np.random.default_rng(0))


def test_empty_scene_advances():
    rng = np.random.default_rng(0)
    scene = initial_scene([], LANDMARKS, rng)
    nxt = advance_scene(scene, [], LANDMARKS, 0.01, rng)
    assert nxt.centers == {} and len(nxt.target_ids) == 0
    assert len(nxt.points) == 0


def test_degenerate_extent_pins_points_to_center():
    spec = make_spec(body_extent=np.array([1e-12, 1e-12, 1e-12]), center_height=0.9)
    rng = np.random.default_rng(1)
    scene = initial_scene([spec], LANDMARKS, rng)
    nxt = advance_scene(scene, [spec], LANDMARKS, 0.01, rng)
    center = np.array([*nxt.centers[1], 0.9])
    assert np.all(np.abs(nxt.points - center) < 1e-9)


def test_sample_mean_matches_center():
    # Law of large numbers: the scatter is zero-mean around the center.
    extent = np.array([0.2, 0.2, 0.5])
    spec = make_spec(points_per_frame=1000, body_extent=extent)
    rng = np.random.default_rng(2)
    scene = initial_scene([spec], LANDMARKS, rng)
    scene = advance_scene(scene, [spec], LANDMARKS, 0.01, rng)
    center = np.array([*scene.centers[1], spec.center_height])
    mean = scene.points.mean(axis=0)
    assert np.all(np.abs(mean - center) <= 3.0 * extent / np.sqrt(1000))


def test_advancing_is_markovian():
    spec = make_spec()
    scene = initial_scene([spec], LANDMARKS, np.random.default_rng(3))
    a = advance_scene(scene, [spec], LANDMARKS, 0.01, np.random.default_rng(7))
    b = advance_scene(scene, [spec], LANDMARKS, 0.01, np.random.default_rng(7))
    assert np.array_equal(a.points, b.points)
    assert a.progress == b.progress


def test_advance_resolves_each_route_once(monkeypatch):
    specs = [make_spec(), make_spec(id=2, waypoints=("A", "B", "C"))]
    scene = initial_scene(specs, LANDMARKS, np.random.default_rng(5))
    calls = []
    cumulative_lengths = scene_module._cumulative_lengths
    monkeypatch.setattr(scene_module, "_cumulative_lengths", lambda v: calls.append(len(v)) or cumulative_lengths(v))
    for _ in range(3):
        scene = advance_scene(scene, specs, LANDMARKS, 0.01, np.random.default_rng(6))
    assert calls == [2, 3] * 3


def test_speed_bound_on_centers():
    spec = make_spec(waypoints=("A", "B", "C"), speed=1.3)
    rng = np.random.default_rng(4)
    scene = initial_scene([spec], LANDMARKS, rng)
    dt = 0.05
    for _ in range(200):
        nxt = advance_scene(scene, [spec], LANDMARKS, dt, rng)
        step = np.linalg.norm(nxt.centers[1] - scene.centers[1])
        assert step <= spec.speed * dt + 1e-9
        scene = nxt
    # long runs clamp at the final landmark
    assert np.allclose(scene.centers[1], LANDMARKS["C"])


def test_seeded_runs_are_identical():
    spec = make_spec(points_per_frame=20)

    def run(seed):
        rng = np.random.default_rng(seed)
        scene = initial_scene([spec], LANDMARKS, rng)
        out = []
        for _ in range(10):
            scene = advance_scene(scene, [spec], LANDMARKS, 0.01, rng)
            out.append(scene.points.copy())
        return out

    for a, b in zip(run(11), run(11)):
        assert np.array_equal(a, b)


def test_spec_validation():
    with pytest.raises(ConfigError):
        make_spec(speed=-1.0)
    with pytest.raises(ConfigError):
        make_spec(points_per_frame=0)
    with pytest.raises(ConfigError):
        make_spec(body_extent=np.array([0.1, -0.1, 0.1]))
    with pytest.raises(ConfigError):
        make_spec(waypoints=())
