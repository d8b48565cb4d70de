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
    """One run's settings, checked when built (also by ``dataclasses.replace``).
    An integer setting (``seed``, ``n_epochs``, ``dbscan_min_pts``,
    ``fit.m_max``, ``fit.max_iters``) must be an integer, as the loader reads
    it: a numpy integer is one; a boolean, or a float such as 3.0, is not."""

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
        for value, key in ((self.seed, "seed"), (self.n_epochs, "epochs"), (self.dbscan_min_pts, "dbscan: min_pts"),
                           (self.fit.m_max, "mixture: m_max"), (self.fit.max_iters, "mixture: em_max_iters")):
            _typed(value, int, key)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
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
        target_ids = [spec.id for spec in self.targets]
        repeated = [t for i, t in enumerate(target_ids) if t in target_ids[:i]]
        if repeated:
            raise ConfigError(f"duplicate target id {repeated[0]}")
        for spec in self.targets:
            for w in spec.waypoints:
                if w not in self.landmarks:
                    raise ConfigError(f"target {spec.id}: unknown landmark {w!r}")


_JSON_KINDS = {int: "number", float: "number", str: "string", list: "array", dict: "object"}


def json_kind(value) -> str:
    """How JSON names a decoded value's kind: null, true, false, number,
    string, array or object. A value JSON cannot hold is named by its type."""
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return _JSON_KINDS.get(type(value), type(value).__name__)


def _object(raw: Any, where: str) -> Mapping[str, Any]:
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be an object, got {json_kind(raw)}")
    return raw


def _objects(raw: Any, where: str) -> list[Mapping[str, Any]]:
    if not isinstance(raw, list) or not all(isinstance(item, Mapping) for item in raw):
        raise ConfigError(f"{where} must be a list of objects")
    return raw


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


# Readers of structured values: (JSON value, name in messages) -> the value the config holds.
def _vector(raw: Any, where: str, size: int = 3) -> np.ndarray:
    """A JSON list of ``size`` finite numbers, as a float array."""
    if not isinstance(raw, list) or len(raw) != size:
        raise ConfigError(f"{where} must be a list of {size} numbers, got {json.dumps(raw, default=repr)}")
    return np.array([_typed(v, float, where) for v in raw])


def _area(raw: Any, where: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or len(raw) != 4:
        raise ConfigError(f"{where} must be [x_min, x_max, y_min, y_max]")
    return tuple(_typed(v, float, where) for v in raw)


def _landmarks(raw: Any, where: str) -> dict[str, np.ndarray]:
    return {label: _vector(pos, f"{where}: {label}", 2) for label, pos in _object(raw, where).items()}


def _waypoints(raw: Any, where: str) -> tuple[str, ...]:
    if not isinstance(raw, list) or not all(isinstance(w, str) for w in raw):
        raise ConfigError(f"{where} must be a list of landmark names")
    return tuple(raw)


def _period(raw: Any, where: str) -> Fraction:
    """``update_period_s``, exact: a decimal string or a number (not a boolean)."""
    message = f"{where} must be a decimal string or a number, got {json.dumps(raw, default=repr)}"
    if isinstance(raw, bool) or not isinstance(raw, (str, numbers.Real)):
        raise ConfigError(message)
    try:
        return Fraction(str(raw))
    except ValueError:
        raise ConfigError(message) from None


def _edges(raw: Any, where: str) -> str | tuple[tuple[int, int], ...]:
    """``topology``: "full", or the directed edges as given."""
    if raw == "full":
        return raw
    if not isinstance(raw, list) or not all(isinstance(edge, list) and len(edge) == 2 for edge in raw):
        raise ConfigError(f'{where} must be "full" or a list of [from, to] edges')
    return tuple((_typed(h, int, f"{where} edge"), _typed(k, int, f"{where} edge")) for h, k in raw)


def _offsets(raw: Any, where: str) -> dict[int, float]:
    """``clock.offsets``: radar id -> seconds. Messages name it by its dotted path."""
    offsets = {}
    for key, value in _object(raw, "clock.offsets").items():
        try:
            radar = int(key)
        except ValueError:
            radar = None
        if radar is None or str(radar) != key:  # " 2" and "02" would alias radar 2
            raise ConfigError(f"clock.offsets: key {json.dumps(key)} must be a radar id")
        offsets[radar] = _typed(value, float, f"clock.offsets: {key}")
    return offsets


# A radar's model keys: the ``RadarModel`` fields, with the field of view in degrees.
_MODEL_KEYS = {f.name for f in fields(RadarModel)} - {"fov_azimuth"} | {"fov_azimuth_deg"}


def _model(raw: Any, where: str) -> RadarModel:
    """A radar's ``model`` (``where`` is "radar <id>: model"): any of ``_MODEL_KEYS``, each a number."""
    unknown = sorted(set(_object(raw, where)) - _MODEL_KEYS)
    if unknown:
        raise ConfigError(f"{where.rpartition(': ')[0]}: unknown model key {unknown[0]!r}")
    model = {key: _typed(value, float, f"{where}.{key}") for key, value in raw.items()}
    if "fov_azimuth_deg" in model:
        model["fov_azimuth"] = math.radians(model.pop("fov_azimuth_deg"))
    return _built(RadarModel, where, **model)


def _built(cls, where: str, *args: Any, **kwargs: Any) -> Any:
    """``cls(*args, **kwargs)``, with the ValueError of its own checks raised
    as a ConfigError named after ``where``."""
    try:
        return cls(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{where}: {err}") from None


# The value of a key the scenario must give.
REQUIRED = object()

# Every key the loader reads: section -> key -> (kind, default), in reading
# order. Section "" is the scenario's top level; "dbscan", "mixture" and
# "clock" are its sub-objects, "target" and "radar" each entry of its
# ``targets`` and ``radars``. A kind is a scalar type of ``_KINDS`` or a
# reader; a default is the value a missing key takes, or REQUIRED. A key
# whose dataclass field has a default takes it from the dataclass.
_KEYS: dict[str, dict[str, tuple[Any, Any]]] = {
    "": {"name": (str, "unnamed"), "mode": (str, "federation"), "seed": (int, 0), "epochs": (int, 100),
         "grid_resolution": (float, REQUIRED), "tau": (float, 0.45), "min_separation": (float, 0.5),
         "prior_speed": (float, 1.0), "ego_radar": (int, None),  # None: the first radar
         "kl_reference": (bool, ExperimentConfig.kl_reference), "area": (_area, REQUIRED),
         "dbscan": (_object, {}), "mixture": (_object, {}), "radars": (_objects, REQUIRED),
         "clock": (_object, {}), "update_period_s": (_period, Fraction("0.010")),
         "landmarks": (_landmarks, REQUIRED), "targets": (_objects, REQUIRED), "topology": (_edges, "full")},
    "dbscan": {"eps": (float, 0.3), "min_pts": (int, 5)},
    "mixture": {"m_max": (int, FitOptions.m_max), "em_max_iters": (int, FitOptions.max_iters),
                "em_tol": (float, FitOptions.tol)},
    "clock": {"jitter_std": (float, ClockModel.jitter_std), "offsets": (_offsets, {})},
    "target": {"id": (int, REQUIRED), "speed": (float, REQUIRED), "points_per_frame": (int, REQUIRED),
               "center_height": (float, TargetSpec.center_height), "waypoints": (_waypoints, REQUIRED),
               "body_extent": (_vector, REQUIRED)},
    "radar": {"id": (int, REQUIRED), "yaw_deg": (float, REQUIRED), "model": (_model, RadarModel()),
              "position": (_vector, REQUIRED)},
}


def _read(raw: Mapping[str, Any], section: str, where: str) -> dict[str, Any]:
    """Every key of ``_KEYS[section]``, read from ``raw`` or defaulted. A
    missing required key or an unknown key is refused, named after ``where``."""
    keys = _KEYS[section]
    missing = [key for key, (_, default) in keys.items() if default is REQUIRED and key not in raw]
    if missing:
        raise ConfigError(f"{where}: missing key {missing[0]!r}")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    prefix = f"{where}: " if section else ""
    return {key: (_typed(raw[key], kind, prefix + key) if kind in _KINDS else kind(raw[key], prefix + key))
            if key in raw else default for key, (kind, default) in keys.items()}


def _target_from(raw: Mapping[str, Any]) -> TargetSpec:
    return TargetSpec(**_read(raw, "target", f"target {raw.get('id', '?')}"))


def _radar_from(raw: Mapping[str, Any]) -> RadarSetup:
    radar = _read(raw, "radar", f"radar {raw.get('id', '?')}")
    return RadarSetup(radar["id"], RadarPose(radar["position"], math.radians(radar["yaw_deg"])), radar["model"])


def config_from_dict(data: Mapping[str, Any], **overrides: Any) -> ExperimentConfig:
    """Build a config; keyword overrides replace top-level keys
    (``mode``, ``seed``, ``epochs``, ...)."""
    data = dict(_object(data, "scenario"))
    for key, value in overrides.items():
        if value is not None:
            data[key] = value

    top = _read(data, "", "scenario")
    db = _read(top["dbscan"], "dbscan", "dbscan")
    mix = _read(top["mixture"], "mixture", "mixture")
    radars = tuple(_radar_from(r) for r in top["radars"])
    ids = tuple(r.id for r in radars)
    return ExperimentConfig(
        name=top["name"],
        mode=top["mode"],
        seed=top["seed"],
        n_epochs=top["epochs"],
        update_period=top["update_period_s"],
        grid=_built(GridSpec, "area / grid_resolution", *top["area"], top["grid_resolution"]),
        tau=top["tau"],
        min_separation=top["min_separation"],
        dbscan_eps=db["eps"],
        dbscan_min_pts=db["min_pts"],
        fit=FitOptions(m_max=mix["m_max"], max_iters=mix["em_max_iters"], tol=mix["em_tol"]),
        prior_speed=top["prior_speed"],
        landmarks=top["landmarks"],
        clock=_built(ClockModel, "clock", **_read(top["clock"], "clock", "clock")),
        targets=tuple(_target_from(t) for t in top["targets"]),
        radars=radars,
        topology=Topology.fully_connected(ids) if top["topology"] == "full" else Topology(ids, top["topology"]),
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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object whose keys are all distinct; json would keep the last of a repeated key."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"key {json.dumps(key)} is repeated")
        seen.add(key)
    return dict(pairs)


def load_config(name_or_path: str | Path, **overrides: Any) -> ExperimentConfig:
    path = resolve_scenario(name_or_path)
    try:
        with open(path) as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON ({err})") from None
    return config_from_dict(data, **overrides)
