"""Experiment configuration: JSON scenario files and validation.

A scenario file describes the room (landmarks, monitored area), the targets,
the radar deployment, the network topology and clocks, plus the processing
parameters. Two scenarios ship with the package: ``default`` (two targets on
crossing room-length routes, used for the divergence study) and
``converging`` (two targets ending co-located, used for the accuracy and
resolution comparisons).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .fusion import FitOptions
from .mixture import GridSpec
from .scene import ConfigError, Landmark, TargetSpec
from .sensor import RadarModel, RadarPose
from .sidelink import ClockModel, Topology

MODES = ("isolated", "cooperation", "federation")

_SCENARIO_DIR = Path(__file__).parent / "scenarios"


@dataclass(frozen=True)
class RadarSetup:
    id: int
    pose: RadarPose
    model: RadarModel


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    mode: str
    seed: int
    n_epochs: int
    update_period: Fraction  # seconds, exact
    grid: GridSpec
    tau: float
    min_separation: float
    dbscan_eps: float
    dbscan_min_pts: int
    fit: FitOptions
    prior_speed: float  # assumed maximum target speed for the motion prior
    landmarks: Mapping[str, np.ndarray]
    targets: tuple[TargetSpec, ...]
    radars: tuple[RadarSetup, ...]
    topology: Topology
    clock: ClockModel
    ego_radar: int
    kl_reference: bool = True  # compute the pooled-cloud reference posterior in federation mode

    @property
    def dt(self) -> float:
        return float(self.update_period)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.update_period <= 0:
            raise ConfigError("update period must be > 0")
        if self.n_epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not self.radars:
            raise ConfigError("at least one radar is required")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must be in (0, 1)")
        if self.min_separation <= 0:
            raise ConfigError("min_separation must be > 0")
        if self.dbscan_eps <= 0 or self.dbscan_min_pts < 1:
            raise ConfigError("invalid density-clustering parameters")
        ids = [r.id for r in self.radars]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate radar ids")
        if self.ego_radar not in ids:
            raise ConfigError(f"ego radar {self.ego_radar} is not deployed")
        if set(self.topology.ids) != set(ids):
            raise ConfigError("topology ids must match deployed radars")
        undeployed = sorted(set(self.clock.offsets) - set(ids))
        if undeployed:
            raise ConfigError(f"clock.offsets: radar {undeployed[0]} is not deployed")
        for k in ids:
            if self.clock.offset_periods(k, self.dt) < 0:
                raise ConfigError(
                    f"radar {k}: clock offset {self.clock.offsets[k]} s is negative in whole update "
                    "periods; its receivers would need messages not yet sent"
                )
        for spec in self.targets:
            for w in spec.waypoints:
                if w not in self.landmarks:
                    raise ConfigError(f"target {spec.id}: unknown landmark {w!r}")


def _landmarks_from(raw: Mapping[str, Any]) -> dict[str, np.ndarray]:
    table: dict[str, np.ndarray] = {}
    for label, pos in raw.items():
        table[label] = Landmark(label, np.asarray(pos, dtype=float)).position
    return table


def _require(raw: Mapping[str, Any], keys: tuple[str, ...], where: str) -> None:
    for key in keys:
        if key not in raw:
            raise ConfigError(f"{where}: missing key {key!r}")


def _target_from(raw: Mapping[str, Any]) -> TargetSpec:
    _require(raw, ("id", "waypoints", "speed", "body_extent", "points_per_frame"), f"target {raw.get('id', '?')}")
    return TargetSpec(
        id=int(raw["id"]),
        waypoints=tuple(raw["waypoints"]),
        speed=float(raw["speed"]),
        body_extent=np.asarray(raw["body_extent"], dtype=float),
        points_per_frame=int(raw["points_per_frame"]),
        center_height=float(raw.get("center_height", 1.0)),
    )


_MODEL_KEYS = {f.name for f in fields(RadarModel)} | {"fov_azimuth_deg", "azimuth_resolution_deg"}


def _radar_from(raw: Mapping[str, Any]) -> RadarSetup:
    _require(raw, ("id", "position", "yaw_deg"), f"radar {raw.get('id', '?')}")
    model_raw = dict(raw.get("model", {}))
    unknown = sorted(set(model_raw) - _MODEL_KEYS)
    if unknown:
        raise ConfigError(f"radar {raw['id']}: unknown model key {unknown[0]!r}")
    if "fov_azimuth_deg" in model_raw:
        model_raw["fov_azimuth"] = math.radians(model_raw.pop("fov_azimuth_deg"))
    if "azimuth_resolution_deg" in model_raw:
        model_raw["azimuth_resolution"] = math.radians(model_raw.pop("azimuth_resolution_deg"))
    pose = RadarPose(np.asarray(raw["position"], dtype=float), math.radians(float(raw["yaw_deg"])))
    return RadarSetup(int(raw["id"]), pose, RadarModel(**model_raw))


def _topology_from(raw: Any, ids: tuple[int, ...]) -> Topology:
    if raw == "full" or raw is None:
        return Topology.fully_connected(ids)
    edges = tuple((int(h), int(k)) for h, k in raw)
    return Topology(ids, edges)


def config_from_dict(data: Mapping[str, Any], **overrides: Any) -> ExperimentConfig:
    """Build and validate a config; keyword overrides replace top-level keys
    (``mode``, ``seed``, ``epochs``, ...)."""
    data = dict(data)
    for key, value in overrides.items():
        if value is not None:
            data[key] = value

    _require(data, ("area", "grid_resolution", "landmarks", "targets", "radars"), "scenario")
    area = data["area"]
    grid = GridSpec(float(area[0]), float(area[1]), float(area[2]), float(area[3]),
                    float(data["grid_resolution"]))
    db = data.get("dbscan", {})
    mix = data.get("mixture", {})
    radars = tuple(_radar_from(r) for r in data["radars"])
    if not radars:
        raise ConfigError("at least one radar is required")
    ids = tuple(r.id for r in radars)
    clock_raw = data.get("clock", {})
    clock = ClockModel(
        offsets={int(k): float(v) for k, v in clock_raw.get("offsets", {}).items()},
        jitter_std=float(clock_raw.get("jitter_std", 0.0)),
    )

    cfg = ExperimentConfig(
        name=str(data.get("name", "unnamed")),
        mode=str(data.get("mode", "federation")),
        seed=int(data.get("seed", 0)),
        n_epochs=int(data.get("epochs", 100)),
        update_period=Fraction(str(data.get("update_period_s", "0.010"))),
        grid=grid,
        tau=float(data.get("tau", 0.45)),
        min_separation=float(data.get("min_separation", 0.5)),
        dbscan_eps=float(db.get("eps", 0.3)),
        dbscan_min_pts=int(db.get("min_pts", 5)),
        fit=FitOptions(
            m_max=int(mix.get("m_max", 8)),
            max_iters=int(mix.get("em_max_iters", 60)),
            tol=float(mix.get("em_tol", 1e-5)),
        ),
        prior_speed=float(data.get("prior_speed", 1.0)),
        landmarks=_landmarks_from(data["landmarks"]),
        targets=tuple(_target_from(t) for t in data["targets"]),
        radars=radars,
        topology=_topology_from(data.get("topology"), ids),
        clock=clock,
        ego_radar=int(data.get("ego_radar", ids[0])),
        kl_reference=bool(data.get("kl_reference", True)),
    )
    cfg.validate()
    return cfg


def resolve_scenario(name_or_path: str | Path) -> Path:
    """Accept a filesystem path or the name of a packaged scenario."""
    path = Path(name_or_path)
    if path.exists():
        return path
    builtin = _SCENARIO_DIR / f"{name_or_path}.json"
    if builtin.exists():
        return builtin
    raise ConfigError(f"no scenario file or builtin scenario named {name_or_path!r}")


def load_config(name_or_path: str | Path, **overrides: Any) -> ExperimentConfig:
    path = resolve_scenario(name_or_path)
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    return config_from_dict(data, **overrides)


def with_mode(cfg: ExperimentConfig, mode: str) -> ExperimentConfig:
    out = replace(cfg, mode=mode)
    out.validate()
    return out
