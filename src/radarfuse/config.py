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
import numbers
import sys
from dataclasses import dataclass, fields
from fractions import Fraction
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .fusion import FitOptions
from .mixture import GridSpec
from .scene import ConfigError, TargetSpec
from .sensor import RadarModel, RadarPose
from .sidelink import ClockModel, Topology, json_kind

MODES = ("isolated", "cooperation", "federation")

_SCENARIO_DIR = Path(__file__).parent / "scenarios"


@dataclass(frozen=True)
class RadarSetup:
    id: int
    pose: RadarPose
    model: RadarModel


@dataclass(frozen=True)
class ExperimentConfig:
    """One run's settings, checked when built (also by ``dataclasses.replace``)."""

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

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        # The float period must neither overflow nor round to 0.
        if not (self.update_period <= sys.float_info.max and self.dt > 0):
            raise ConfigError("update period must be > 0 and finite as a double")
        if self.n_epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if not self.radars:
            raise ConfigError("at least one radar is required")
        if not 0.0 < self.tau < 1.0:
            raise ConfigError("tau must be in (0, 1)")
        # Written so that NaN fails each comparison.
        if not self.min_separation > 0:
            raise ConfigError("min_separation must be > 0")
        if not (self.dbscan_eps > 0 and self.dbscan_min_pts >= 1):
            raise ConfigError("invalid density-clustering parameters")
        if not 0 <= self.prior_speed <= sys.float_info.max:
            raise ConfigError("prior_speed must be >= 0 and finite")
        if self.fit.m_max < 1:
            raise ConfigError("mixture: m_max must be >= 1")
        if self.fit.max_iters < 0:
            raise ConfigError("mixture: em_max_iters must be >= 0")
        if not 0 <= self.fit.tol <= sys.float_info.max:
            raise ConfigError("mixture: em_tol must be >= 0 and finite")
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
    return {label: _vector(pos, 2, f"landmarks: {label}") for label, pos in raw.items()}


def _object(raw: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be an object, got {json_kind(raw)}")
    return raw


def _objects(raw: Any, where: str) -> list[Mapping[str, Any]]:
    if not isinstance(raw, list) or not all(isinstance(item, Mapping) for item in raw):
        raise ConfigError(f"{where} must be a list of objects")
    return raw


def _check_keys(raw: Mapping[str, Any], where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> None:
    """Every required key is present and no key is outside required + optional."""
    for key in required:
        if key not in raw:
            raise ConfigError(f"{where}: missing key {key!r}")
    unknown = sorted(set(raw) - set(required) - set(optional))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")


# Every scalar the loader reads: section -> key -> (type, default). Section ""
# is the scenario's top level; "target" and "radar" apply to each list entry.
# A default of None means the key is required (its presence is checked with
# the section's other keys) or, for ``ego_radar``, defaults to the first radar.
# A key whose dataclass field has a default takes it from the dataclass.
_SCALARS: dict[str, dict[str, tuple[type, Any]]] = {
    "": {"name": (str, "unnamed"), "mode": (str, "federation"), "seed": (int, 0), "epochs": (int, 100),
         "grid_resolution": (float, None), "tau": (float, 0.45), "min_separation": (float, 0.5),
         "prior_speed": (float, 1.0), "ego_radar": (int, None),
         "kl_reference": (bool, ExperimentConfig.kl_reference)},
    "dbscan": {"eps": (float, 0.3), "min_pts": (int, 5)},
    "mixture": {"m_max": (int, FitOptions.m_max), "em_max_iters": (int, FitOptions.max_iters),
                "em_tol": (float, FitOptions.tol)},
    "clock": {"jitter_std": (float, ClockModel.jitter_std)},
    "target": {"id": (int, None), "speed": (float, None), "points_per_frame": (int, None),
               "center_height": (float, TargetSpec.center_height)},
    "radar": {"id": (int, None), "yaw_deg": (float, None)},
}


# Scalar type -> (accepted values, name in messages). An integer is also a
# number; a boolean is neither, so "kl_reference": 1 and "seed": true fail.
_KINDS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a number"),
          bool: (bool, "true or false"), str: (str, "a string")}


def _typed(value: Any, kind: type, where: str) -> Any:
    accepted, name = _KINDS[kind]
    if isinstance(value, bool) is not (kind is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{where} must be {name}, got {json.dumps(value, default=repr)}")
    # NaN fails the comparison; an integer is compared exactly, so one that
    # overflows a double fails it too.
    if kind is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be a finite number, got {json.dumps(value)}")
    return kind(value)


def _vector(raw: Any, size: int, where: str) -> np.ndarray:
    """A JSON list of ``size`` finite numbers, as a float array."""
    if not isinstance(raw, list) or len(raw) != size:
        raise ConfigError(f"{where} must be a list of {size} numbers, got {json.dumps(raw, default=repr)}")
    return np.array([_typed(v, float, where) for v in raw])


def _period(raw: Any) -> Fraction:
    """``update_period_s``, exact: a decimal string or a number (not a boolean)."""
    message = f"update_period_s must be a decimal string or a number, got {json.dumps(raw, default=repr)}"
    if isinstance(raw, bool) or not isinstance(raw, (str, numbers.Real)):
        raise ConfigError(message)
    try:
        return Fraction(str(raw))
    except ValueError:
        raise ConfigError(message) from None


def _offset_key(key: str) -> int:
    """The radar id that a ``clock.offsets`` key names."""
    try:
        return int(key)
    except ValueError:
        raise ConfigError(f"clock.offsets: key {json.dumps(key)} must be a radar id") from None


def _scalars(raw: Mapping[str, Any], section: str, where: str) -> dict[str, Any]:
    """The section's scalars of ``raw``, type-checked, defaults filled in."""
    prefix = f"{where}: " if where else ""
    return {
        key: _typed(raw[key], kind, f"{prefix}{key}") if key in raw else default
        for key, (kind, default) in _SCALARS[section].items()
    }


def _section(data: Mapping[str, Any], key: str, extra: tuple[str, ...] = ()) -> dict[str, Any]:
    """An optional sub-object of the scenario: its scalars, type-checked with
    defaults filled in, and the ``extra`` keys as given. No other key is allowed."""
    raw = _object(data.get(key, {}), key)
    _check_keys(raw, key, (), (*_SCALARS[key], *extra))
    return {**{k: raw[k] for k in extra if k in raw}, **_scalars(raw, key, key)}


_REQUIRED_KEYS = ("area", "grid_resolution", "landmarks", "targets", "radars")
_OPTIONAL_KEYS = ("name", "mode", "seed", "epochs", "update_period_s", "tau", "min_separation", "dbscan",
                  "mixture", "prior_speed", "ego_radar", "topology", "clock", "kl_reference")


def _target_from(raw: Mapping[str, Any]) -> TargetSpec:
    where = f"target {raw.get('id', '?')}"
    _check_keys(raw, where, ("id", "waypoints", "speed", "body_extent", "points_per_frame"), ("center_height",))
    scalars = _scalars(raw, "target", where)
    waypoints = raw["waypoints"]
    if not isinstance(waypoints, list) or not all(isinstance(w, str) for w in waypoints):
        raise ConfigError(f"{where}: waypoints must be a list of landmark names")
    return TargetSpec(
        id=scalars["id"],
        waypoints=tuple(waypoints),
        speed=scalars["speed"],
        body_extent=_vector(raw["body_extent"], 3, f"{where}: body_extent"),
        points_per_frame=scalars["points_per_frame"],
        center_height=scalars["center_height"],
    )


# A radar's model keys: the ``RadarModel`` fields, with the field of view in degrees.
_MODEL_KEYS = {f.name for f in fields(RadarModel)} - {"fov_azimuth"} | {"fov_azimuth_deg"}


def _radar_from(raw: Mapping[str, Any]) -> RadarSetup:
    where = f"radar {raw.get('id', '?')}"
    _check_keys(raw, where, ("id", "position", "yaw_deg"), ("model",))
    scalars = _scalars(raw, "radar", where)
    model_raw = _object(raw.get("model", {}), f"{where}: model")
    unknown = sorted(set(model_raw) - _MODEL_KEYS)
    if unknown:
        raise ConfigError(f"{where}: unknown model key {unknown[0]!r}")
    model_raw = {key: _typed(value, float, f"{where}: model.{key}") for key, value in model_raw.items()}
    if "fov_azimuth_deg" in model_raw:
        model_raw["fov_azimuth"] = math.radians(model_raw.pop("fov_azimuth_deg"))
    pose = RadarPose(_vector(raw["position"], 3, f"{where}: position"), math.radians(scalars["yaw_deg"]))
    return RadarSetup(scalars["id"], pose, RadarModel(**model_raw))


def _topology_from(raw: Any, ids: tuple[int, ...]) -> Topology:
    if raw == "full" or raw is None:
        return Topology.fully_connected(ids)
    if not isinstance(raw, list) or not all(isinstance(edge, list) and len(edge) == 2 for edge in raw):
        raise ConfigError('topology must be "full" or a list of [from, to] edges')
    edges = tuple((_typed(h, int, "topology edge"), _typed(k, int, "topology edge")) for h, k in raw)
    return Topology(ids, edges)


def config_from_dict(data: Mapping[str, Any], **overrides: Any) -> ExperimentConfig:
    """Build a config; keyword overrides replace top-level keys
    (``mode``, ``seed``, ``epochs``, ...)."""
    data = dict(_object(data, "scenario"))
    for key, value in overrides.items():
        if value is not None:
            data[key] = value

    _check_keys(data, "scenario", _REQUIRED_KEYS, _OPTIONAL_KEYS)
    top = _scalars(data, "", "")
    area = data["area"]
    if not isinstance(area, list) or len(area) != 4:
        raise ConfigError("area must be [x_min, x_max, y_min, y_max]")
    grid = GridSpec(*(_typed(v, float, "area") for v in area), top["grid_resolution"])
    db = _section(data, "dbscan")
    mix = _section(data, "mixture")
    radars = tuple(_radar_from(r) for r in _objects(data["radars"], "radars"))
    ids = tuple(r.id for r in radars)
    clock_raw = _section(data, "clock", ("offsets",))
    offsets = _object(clock_raw.get("offsets", {}), "clock.offsets")
    clock = ClockModel(
        offsets={_offset_key(k): _typed(v, float, f"clock.offsets: {k}") for k, v in offsets.items()},
        jitter_std=clock_raw["jitter_std"],
    )

    return ExperimentConfig(
        name=top["name"],
        mode=top["mode"],
        seed=top["seed"],
        n_epochs=top["epochs"],
        update_period=_period(data.get("update_period_s", "0.010")),
        grid=grid,
        tau=top["tau"],
        min_separation=top["min_separation"],
        dbscan_eps=db["eps"],
        dbscan_min_pts=db["min_pts"],
        fit=FitOptions(m_max=mix["m_max"], max_iters=mix["em_max_iters"], tol=mix["em_tol"]),
        prior_speed=top["prior_speed"],
        landmarks=_landmarks_from(_object(data["landmarks"], "landmarks")),
        targets=tuple(_target_from(t) for t in _objects(data["targets"], "targets")),
        radars=radars,
        topology=_topology_from(data.get("topology"), ids),
        clock=clock,
        ego_radar=next(iter(ids), None) if top["ego_radar"] is None else top["ego_radar"],
        kl_reference=top["kl_reference"],
    )


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
