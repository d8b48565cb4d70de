"""Ground-truth scene generation: targets moving along landmark routes.

The scene at each epoch is a set of true 3D points scattered around the
moving target centers. Advancing the scene depends only on the current
scene state (memoryless), so a fixed seed reproduces a run exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Scenario configuration is inconsistent or incomplete."""


@dataclass(frozen=True)
class TargetSpec:
    """A moving target: waypoint route, speed, and point-scatter body model.

    The body is modelled as an anisotropic Gaussian scatter around the
    moving center: ``body_extent`` holds the per-axis standard deviations
    (z is typically the largest, torso-like).
    """

    id: int
    waypoints: tuple[str, ...]
    speed: float  # m/s along the route
    body_extent: np.ndarray  # (3,) per-axis std dev, meters
    points_per_frame: int  # true points emitted each epoch
    center_height: float = 1.0  # z of the scatter center, meters

    def __post_init__(self):
        extent = np.asarray(self.body_extent, dtype=float)
        if extent.shape != (3,) or not np.all(extent > 0):
            raise ConfigError(f"target {self.id}: body_extent must be 3 positive std devs")
        object.__setattr__(self, "body_extent", extent)
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        if self.speed < 0:
            raise ConfigError(f"target {self.id}: speed must be >= 0")
        if self.points_per_frame < 1:
            raise ConfigError(f"target {self.id}: points_per_frame must be >= 1")
        if not self.waypoints:
            raise ConfigError(f"target {self.id}: needs at least one waypoint")


@dataclass(frozen=True)
class Scene:
    """Ground truth at one epoch.

    ``progress`` carries each target's arc length along its route; it is the
    only state needed to advance, which keeps the process Markovian.
    """

    target_ids: np.ndarray  # (n,) int, one entry per point
    points: np.ndarray  # (n, 3) true points, global frame
    centers: dict[int, np.ndarray]  # target id -> (2,) center
    progress: dict[int, float]  # target id -> arc length travelled, meters


def route_vertices(landmarks: Mapping[str, np.ndarray], waypoints: Sequence[str]) -> np.ndarray:
    """Resolve waypoint labels to an (m, 2) polyline."""
    try:
        return np.array([np.asarray(landmarks[w], dtype=float) for w in waypoints])
    except KeyError as err:
        raise ConfigError(f"unknown landmark label {err.args[0]!r}") from None


def _cumulative_lengths(vertices: np.ndarray) -> np.ndarray:
    if len(vertices) == 1:
        return np.zeros(1)
    seg = np.linalg.norm(np.diff(vertices, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


def _point_at(vertices: np.ndarray, cum: np.ndarray, s: float) -> np.ndarray:
    """Position at arc length ``s`` along the polyline, clamped to its ends."""
    total = cum[-1]
    if s <= 0.0 or total == 0.0:
        return vertices[0].copy()
    if s >= total - 1e-12:
        return vertices[-1].copy()
    i = int(np.searchsorted(cum, s, side="right") - 1)
    seg_len = cum[i + 1] - cum[i]
    t = (s - cum[i]) / seg_len
    return vertices[i] + t * (vertices[i + 1] - vertices[i])


def _scatter(spec: TargetSpec, center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    mean = np.array([center[0], center[1], spec.center_height])
    return mean + rng.standard_normal((spec.points_per_frame, 3)) * spec.body_extent


def _routes(specs: Sequence[TargetSpec], landmarks: Mapping[str, np.ndarray]) -> list[tuple]:
    """Each target's route: its (m, 2) polyline and cumulative segment lengths."""
    polylines = [route_vertices(landmarks, spec.waypoints) for spec in specs]
    return [(vertices, _cumulative_lengths(vertices)) for vertices in polylines]


def _build_scene(
    specs: Sequence[TargetSpec],
    routes: Sequence[tuple[np.ndarray, np.ndarray]],
    progress: dict[int, float],
    rng: np.random.Generator,
) -> Scene:
    ids, chunks, centers = [], [], {}
    for spec, (vertices, cum) in zip(specs, routes):
        center = _point_at(vertices, cum, progress[spec.id])
        centers[spec.id] = center
        chunks.append(_scatter(spec, center, rng))
        ids.append(np.full(spec.points_per_frame, spec.id, dtype=int))
    if chunks:
        points = np.concatenate(chunks)
        target_ids = np.concatenate(ids)
    else:
        points = np.empty((0, 3))
        target_ids = np.empty(0, dtype=int)
    return Scene(target_ids, points, centers, progress)


def initial_scene(
    specs: Sequence[TargetSpec],
    landmarks: Mapping[str, np.ndarray],
    rng: np.random.Generator,
) -> Scene:
    """Scene at epoch 0: every target at its first waypoint."""
    progress = {spec.id: 0.0 for spec in specs}
    return _build_scene(specs, _routes(specs, landmarks), progress, rng)


def advance_scene(
    scene: Scene,
    specs: Sequence[TargetSpec],
    landmarks: Mapping[str, np.ndarray],
    dt: float,
    rng: np.random.Generator,
) -> Scene:
    """Advance every target by ``speed * dt`` along its route and re-scatter points.

    Targets clamp at their final landmark. Output depends only on the input
    scene and the generator state.
    """
    if dt <= 0:
        raise ConfigError("dt must be > 0")
    routes = _routes(specs, landmarks)
    progress = {spec.id: min(scene.progress[spec.id] + spec.speed * dt, cum[-1])
                for spec, (_, cum) in zip(specs, routes)}
    return _build_scene(specs, routes, progress, rng)
