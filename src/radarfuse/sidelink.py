"""Simulated radar-to-radar sidelink.

A ``Message`` is its wire payload: the 64-bit values of a preprocessed point
cloud (cooperation) or of mixture parameters (federation). The link charges,
delivers and logs those values, and one decoder per kind reads them for
live receivers and replay logs alike. Bandwidth accounting counts the
payload only; transport framing is not part of the overhead figure. Delivery
is lossless and instantaneous, with per-radar clock offsets rounded to whole
update periods so a one-period offset delivers the sender's previous-epoch
content.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .mixture import GaussianMixture
from .sensor import PointCloud

log = logging.getLogger(__name__)

BITS_PER_VALUE = 64
COOP_KIND = "coop"
FED_KIND = "fed"
FED_VALUES_PER_COMPONENT = 14  # weight, mean (3), covariance (9), point count


@dataclass(frozen=True)
class Topology:
    """Directed radar graph; an edge (h, k) means k receives from h."""

    ids: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        known = set(self.ids)
        if len(known) != len(self.ids):
            raise ValueError("duplicate radar ids")
        seen = set()
        for h, k in self.edges:
            if h == k:
                raise ValueError(f"self-loop on radar {h}")
            if h not in known or k not in known:
                raise ValueError(f"edge ({h}, {k}) references an unknown radar")
            if (h, k) in seen:
                raise ValueError(f"edge ({h}, {k}) is repeated")
            seen.add((h, k))

    @classmethod
    def fully_connected(cls, ids: Sequence[int]) -> "Topology":
        ids = tuple(ids)
        return cls(ids, tuple((h, k) for k in ids for h in ids if h != k))

    def neighbors(self, k: int) -> tuple[int, ...]:
        return tuple(h for h, dst in self.edges if dst == k)


@dataclass(frozen=True, eq=False)
class Message:
    """One broadcast; ``values`` are the exact 64-bit values on the wire: a
    coop cloud's points, 3 coordinates each, or a fed mixture's point total,
    component count, then 14 values per component."""

    sender: int
    epoch: int
    kind: str  # COOP_KIND or FED_KIND
    values: np.ndarray  # (n,) float64

    @property
    def payload_bits(self) -> int:
        return BITS_PER_VALUE * len(self.values)


@dataclass(frozen=True)
class ClockModel:
    """Per-radar clock offsets (seconds) plus sub-period jitter."""

    offsets: Mapping[int, float]
    jitter_std: float = 0.0

    def __post_init__(self):
        if not all(np.isfinite(v) for v in self.offsets.values()):
            raise ValueError("clock offsets must be finite")
        if not np.isfinite(self.jitter_std) or self.jitter_std < 0:
            raise ValueError("jitter_std must be finite and >= 0")

    def offset_periods(self, radar: int, update_period: float) -> int:
        return int(round(self.offsets.get(radar, 0.0) / update_period))


def encode_coop(cloud: PointCloud) -> Message:
    return Message(cloud.radar_id, cloud.epoch, COOP_KIND, np.array(cloud.points, dtype=np.float64).ravel())


def decode_coop(msg: Message) -> PointCloud:
    """The cloud of a coop payload; a payload that is not a list of finite 3D
    points raises ValueError."""
    if len(msg.values) % 3:
        raise ValueError(f"coop payload of {len(msg.values)} values is not a list of 3D points")
    if not np.isfinite(msg.values).all():
        raise ValueError("coop point coordinates must be finite")
    return PointCloud(msg.values.reshape(-1, 3).copy(), msg.epoch, msg.sender)


def _require_positive_definite(covs: np.ndarray) -> None:
    try:
        np.linalg.cholesky(covs)
    except np.linalg.LinAlgError:
        raise ValueError("mixture has a non positive-definite covariance") from None


def encode_fed(mixture: GaussianMixture, sender: int, epoch: int) -> Message:
    """Refuses mixtures whose covariances are not positive-definite."""
    _require_positive_definite(mixture.covs)
    m = mixture.n_components
    table = np.column_stack([mixture.weights, mixture.means, mixture.covs.reshape(m, 9), mixture.counts])
    return Message(sender, epoch, FED_KIND, np.concatenate([[float(mixture.total_points), float(m)], table.ravel()]))


def decode_fed(msg: Message) -> GaussianMixture:
    """The mixture of a fed payload; a malformed payload raises ValueError."""
    values = msg.values
    if len(values) < 2 or not values[1].is_integer() or values[1] < 0:
        raise ValueError("fed payload must start with the point total and a non-negative component count")
    m = int(values[1])
    if len(values) != 2 + FED_VALUES_PER_COMPONENT * m:
        raise ValueError(f"fed payload of {len(values)} values does not hold {m} components")
    table = values[2:].reshape(m, FED_VALUES_PER_COMPONENT)
    counts = table[:, 13]
    # NaN fails every comparison; the upper bound keeps the integer cast exact.
    if not np.all((counts >= 0) & (counts <= 2.0**53) & (np.floor(counts) == counts)):
        raise ValueError("component point counts must be non-negative integers below 2**53")
    if values[0] != counts.sum():
        raise ValueError(f"point total {values[0]} differs from the sum of the component counts")
    if not np.isfinite(table[:, :13]).all():
        raise ValueError("component weights, means and covariances must be finite")
    if (table[:, 0] < 0).any():
        raise ValueError("component weights must be non-negative")
    covs = table[:, 4:13].reshape(m, 3, 3).copy()
    _require_positive_definite(covs)
    return GaussianMixture(table[:, 0].copy(), table[:, 1:4].copy(), covs, counts)


@dataclass
class LinkStats:
    """Cumulative payload accounting with exact rational rates.

    ``tx_bits`` counts each radar's broadcast payload once per message (the
    sidelink is a shared medium); ``link_bits`` additionally tracks per-edge
    deliveries and ``undelivered_bits`` what each edge had in flight when the
    run ended. Rates divide by elapsed time = epochs x update period, kept as
    exact fractions until display.
    """

    update_period: Fraction
    epochs: int = 0
    tx_bits: dict[int, int] = field(default_factory=dict)
    rx_bits: dict[int, int] = field(default_factory=dict)
    link_bits: dict[tuple[int, int], int] = field(default_factory=dict)
    link_msgs: dict[tuple[int, int], int] = field(default_factory=dict)
    undelivered_bits: dict[tuple[int, int], int] = field(default_factory=dict)
    undelivered_msgs: dict[tuple[int, int], int] = field(default_factory=dict)

    def tx_rate(self, radar: int) -> Fraction:
        """Transmitted payload bits per second for one radar."""
        if self.epochs == 0:
            return Fraction(0)
        return Fraction(self.tx_bits.get(radar, 0)) / (self.epochs * self.update_period)


def account(stats: LinkStats, msg: Message) -> LinkStats:
    """Charge one transmitted message to its sender's cumulative payload."""
    stats.tx_bits[msg.sender] = stats.tx_bits.get(msg.sender, 0) + msg.payload_bits
    return stats


def account_delivery(stats: LinkStats, msg: Message, receiver: int) -> LinkStats:
    link = (msg.sender, receiver)
    stats.link_bits[link] = stats.link_bits.get(link, 0) + msg.payload_bits
    stats.link_msgs[link] = stats.link_msgs.get(link, 0) + 1
    stats.rx_bits[receiver] = stats.rx_bits.get(receiver, 0) + msg.payload_bits
    return stats


def account_undelivered(stats: LinkStats, msg: Message, receiver: int) -> LinkStats:
    """Charge a message still in flight to ``receiver`` when the run ends."""
    link = (msg.sender, receiver)
    stats.undelivered_bits[link] = stats.undelivered_bits.get(link, 0) + msg.payload_bits
    stats.undelivered_msgs[link] = stats.undelivered_msgs.get(link, 0) + 1
    return stats


class OutboxHistory:
    """Per-epoch buffer of sent messages, kept ``depth`` epochs back for clock offsets."""

    def __init__(self, depth: int):
        self.depth = depth
        self._buffer: dict[int, dict[int, Message]] = {}

    def push(self, epoch: int, outbox: Mapping[int, Message]) -> None:
        self._buffer[epoch] = dict(outbox)
        stale = [e for e in self._buffer if e < epoch - self.depth]
        for e in stale:
            del self._buffer[e]

    def get(self, epoch: int, sender: int) -> Message | None:
        return self._buffer.get(epoch, {}).get(sender)


def _jittered(msg: Message, noise_std: float, rng: np.random.Generator) -> Message:
    """Extra position noise from sub-period clock jitter on moving content:
    added to a copy of the payload's point coordinates or component means,
    which leaves every other value of the payload as it was."""
    values = msg.values.copy()
    if msg.kind == COOP_KIND:
        points = values.reshape(-1, 3)
    else:
        points = values[2:].reshape(-1, FED_VALUES_PER_COMPONENT)[:, 1:4]
    points += rng.normal(0.0, noise_std, points.shape)
    return replace(msg, values=values)


def deliver(
    topology: Topology,
    history: OutboxHistory,
    epoch: int,
    clock: ClockModel,
    update_period: float,
    rng: np.random.Generator | None = None,
    motion_speed: float = 0.0,
) -> dict[int, list[Message]]:
    """Inboxes for every radar at ``epoch``.

    Radar k receives exactly the messages of its in-neighbors; a sender
    whose clock is ahead by one period contributes its previous-epoch
    message. Messages from before epoch 0 do not exist and are skipped.

    A delivered message is the very object pushed into ``history``, shared
    by all its receivers, unless clock jitter moves its content: with
    ``jitter_std > 0``, ``motion_speed > 0`` and an ``rng``, each receiver
    gets its own noisy copy, a new object. Receivers may therefore share
    work on a message by its identity.
    """
    inboxes: dict[int, list[Message]] = {k: [] for k in topology.ids}
    for k in topology.ids:
        for h in topology.neighbors(k):
            msg = history.get(epoch - clock.offset_periods(h, update_period), h)
            if msg is None:
                continue
            noise_std = motion_speed * clock.jitter_std
            if noise_std > 0 and rng is not None:
                msg = _jittered(msg, noise_std, rng)
            inboxes[k].append(msg)
    return inboxes


_JSON_KINDS = {int: "number", float: "number", str: "string", list: "array", dict: "object"}


def json_kind(value) -> str:
    """How JSON names a decoded value's kind: null, true, false, number,
    string, array or object. A value JSON cannot hold is named by its type."""
    if value is None or isinstance(value, bool):
        return json.dumps(value)
    return _JSON_KINDS.get(type(value), type(value).__name__)


def write_replay(messages: Iterable[Message], fh) -> None:
    """Append messages to an open text stream, one JSON object per line.

    Floats serialize via their shortest round-tripping representation, so
    the numeric payload survives the text format bit-exactly.
    """
    for msg in messages:
        record = {"sender": msg.sender, "epoch": msg.epoch, "kind": msg.kind, "values": msg.values.tolist()}
        fh.write(json.dumps(record) + "\n")


def read_replay(path) -> list[Message]:
    """Messages of a replay log, each checked by the decoder for its kind; a
    malformed record raises ValueError naming its line."""
    messages = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                if not isinstance(rec, dict):
                    raise ValueError(f"record must be a JSON object, got {json_kind(rec)}")
                missing = [key for key in ("sender", "epoch", "kind", "values") if key not in rec]
                if missing:
                    raise ValueError(f"record has no {missing[0]!r}")
                for key in ("sender", "epoch"):
                    if type(rec[key]) is not int:  # a JSON true or false is a bool, not an int
                        raise ValueError(f"{key} must be an integer, got {json_kind(rec[key])}")
                decode = {COOP_KIND: decode_coop, FED_KIND: decode_fed}.get(rec["kind"])
                if decode is None:
                    raise ValueError(f"unknown message kind {rec['kind']!r}")
                values = np.asarray(rec["values"], dtype=np.float64)
                if values.ndim != 1:
                    raise ValueError("values must be a flat list of numbers")
                msg = Message(rec["sender"], rec["epoch"], rec["kind"], values)
                decode(msg)
                messages.append(msg)
            except (TypeError, ValueError) as err:
                raise ValueError(f"{path}:{lineno}: {err}") from None
    return messages
