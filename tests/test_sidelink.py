import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from radarfuse.mixture import GaussianMixture
from radarfuse.sensor import PointCloud
from radarfuse.sidelink import (
    ClockModel,
    LinkStats,
    Message,
    OutboxHistory,
    Topology,
    _jittered,
    account,
    account_delivery,
    account_undelivered,
    decode_coop,
    decode_fed,
    deliver,
    encode_coop,
    encode_fed,
    write_replay,
)


def cloud_of(points):
    return PointCloud(np.asarray(points, dtype=float).reshape(-1, 3))


def mixture_of(n_components, total=100, seed=0):
    """Random mixture whose component counts split ``total`` as evenly as possible."""
    rng = np.random.default_rng(seed)
    weights = rng.dirichlet(np.ones(n_components))
    means, covs = [], []
    for _ in weights:
        chol = rng.normal(0, 0.2, (3, 3))
        covs.append(chol @ chol.T + np.eye(3) * 0.01)
        means.append(rng.uniform(0, 8, 3))
    counts = np.full(n_components, total // n_components)
    counts[: total % n_components] += 1
    return GaussianMixture(weights, means, covs, counts)


def read_log(path):
    """The messages of a replay log: each line parsed with ``json``, its
    values read as 64-bit floats and checked by the decoder for its kind."""
    msgs = []
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        msg = Message(rec["sender"], rec["epoch"], rec["kind"], np.array(rec["values"], dtype=np.float64))
        {"coop": decode_coop, "fed": decode_fed}[msg.kind](msg)
        msgs.append(msg)
    return msgs


# ---------------------------------------------------------------- topology


def test_topology_neighbors():
    topo = Topology.fully_connected((1, 2, 3))
    assert set(topo.neighbors(1)) == {2, 3}
    assert len(topo.edges) == 6


def test_topology_rejects_self_loops_and_unknown_ids():
    with pytest.raises(ValueError):
        Topology((1, 2), ((1, 1),))
    with pytest.raises(ValueError):
        Topology((1, 2), ((1, 3),))
    with pytest.raises(ValueError, match=r"edge \(1, 2\) is repeated"):
        Topology((1, 2, 3), ((1, 2), (1, 2), (3, 2)))


# ------------------------------------------------------------------ codecs


def test_coop_payload_bits():
    assert encode_coop(cloud_of(np.empty((0, 3))), 1, 0).payload_bits == 0
    assert encode_coop(cloud_of([[1.0, 2.0, 3.0]]), 1, 0).payload_bits == 192
    msg = encode_coop(cloud_of(np.zeros((625, 3))), 1, 0)
    assert msg.payload_bits == 120_000


def test_coop_round_trip_is_bit_exact():
    rng = np.random.default_rng(1)
    pts = rng.normal(0, 100, (333, 3)) * 10.0 ** rng.integers(-12, 12, (333, 1))
    msg = encode_coop(cloud_of(pts), 2, 7)
    back = decode_coop(msg)
    assert msg.sender == 2 and msg.epoch == 7
    assert np.array_equal(back.points, pts)


def test_fed_value_counts():
    assert len(encode_fed(mixture_of(3), 1, 0).values) == 44
    assert encode_fed(mixture_of(3), 1, 0).payload_bits == 2816
    assert len(encode_fed(mixture_of(1), 1, 0).values) == 16
    empty = encode_fed(GaussianMixture.empty(), 1, 0)
    assert len(empty.values) == 2
    assert empty.payload_bits == 128


def test_fed_round_trip_is_bit_exact():
    mix = mixture_of(4, total=321, seed=5)
    back = decode_fed(encode_fed(mix, 3, 11))
    assert back.total_points == 321
    for field in ("weights", "means", "covs", "counts"):
        assert np.array_equal(getattr(back, field), getattr(mix, field))


def test_fed_rejects_non_positive_definite_covariance():
    bad = GaussianMixture([1.0], [np.zeros(3)], [-np.eye(3)], [5])
    with pytest.raises(ValueError):
        encode_fed(bad, 1, 0)


# ---------------------------------------------------------------- delivery


def fill_history(topo, epochs):
    history = OutboxHistory(epochs)  # keeps every epoch pushed
    for e in range(1, epochs + 1):
        history.push(e, {k: encode_coop(cloud_of([[float(k), float(e), 0.0]]), k, e) for k in topo.ids})
    return history


def test_synchronized_delivery():
    topo = Topology.fully_connected((1, 2, 3))
    clock = ClockModel({1: 0.0, 2: 0.0, 3: 0.0})
    history = fill_history(topo, 3)
    inboxes = deliver(topo, history, 3, clock, 0.010)
    for k in topo.ids:
        assert len(inboxes[k]) == 2
        assert all(m.epoch == 3 for m in inboxes[k])
        assert {m.sender for m in inboxes[k]} == set(topo.neighbors(k))


def test_one_period_offset_delivers_previous_epoch():
    topo = Topology((1, 2), ((2, 1),))
    clock = ClockModel({2: 0.010})
    history = fill_history(topo, 5)
    inboxes = deliver(topo, history, 5, clock, 0.010)
    assert [m.epoch for m in inboxes[1]] == [4]
    assert inboxes[2] == []


def test_offsets_before_start_are_skipped():
    topo = Topology((1, 2), ((2, 1),))
    clock = ClockModel({2: 0.050})
    history = fill_history(topo, 3)
    assert deliver(topo, history, 3, clock, 0.010)[1] == []


@pytest.mark.parametrize("jitter_std, motion_speed, shared", [(0.0, 2.0, True), (0.01, 2.0, False), (0.01, 0.0, True)],
                         ids=["exact", "jitter", "jitter-at-rest"])
def test_receivers_get_the_pushed_object_unless_jitter_moves_it(jitter_std, motion_speed, shared):
    # Radar 2 is one period late, so its receivers get its previous message.
    topo = Topology.fully_connected((1, 2, 3))
    history = fill_history(topo, 3)
    clock = ClockModel({2: 0.010}, jitter_std=jitter_std)
    inboxes = deliver(topo, history, 3, clock, 0.010, np.random.default_rng(0), motion_speed)
    delivered = [msg for k in topo.ids for msg in inboxes[k]]
    assert len(delivered) == 6
    for msg in delivered:
        assert (msg is history.get(msg.epoch, msg.sender)) == shared
    if not shared:  # every receiver holds its own copy
        assert len({id(msg) for msg in delivered}) == 6


# -------------------------------------------------------------- accounting


@st.composite
def networks(draw):
    """A random directed topology over one to five radars, with clock
    offsets of zero to six update periods plus less than half a period."""
    ids = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=5, unique=True)))
    pairs = [(h, k) for h in ids for k in ids if h != k]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), unique=True))) if pairs else ()
    offsets = {k: draw(st.integers(0, 6)) * 0.010 + draw(st.floats(0.0, 0.004)) for k in ids}
    return Topology(ids, edges), ClockModel(offsets)


@settings(max_examples=60, deadline=None)
@given(networks(), st.integers(1, 12), st.data())
def test_link_accounting_conserves_bits(network, n_epochs, data):
    # The runner's exchange: push, charge the sender, deliver, charge each
    # link; at the end, charge each link what is still in flight.
    topo, clock = network
    stats = LinkStats(update_period=Fraction(1, 100))
    history = OutboxHistory(max(clock.offset_periods(k, 0.010) for k in topo.ids))
    sent, delivered = {}, []
    for epoch in range(1, n_epochs + 1):
        outbox = {k: encode_coop(cloud_of(np.zeros((data.draw(st.integers(1, 6)), 3))), k, epoch)
                  for k in topo.ids}
        history.push(epoch, outbox)
        for k, msg in outbox.items():
            account(stats, msg)
            sent[k, epoch] = msg
        for k, msgs in deliver(topo, history, epoch, clock, 0.010).items():
            for msg in msgs:
                account_delivery(stats, msg, k)
                delivered.append((msg.sender, msg.epoch, k))
    for epoch in range(n_epochs + 1, n_epochs + 1 + history.depth):
        for k, msgs in deliver(topo, history, epoch, clock, 0.010).items():
            for msg in msgs:
                account_undelivered(stats, msg, k)

    assert sum(stats.rx_bits.values()) == sum(stats.link_bits.values())
    fan_out = {h: sum(1 for s, _ in topo.edges if s == h) for h in topo.ids}
    assert (sum(stats.link_bits.values()) + sum(stats.undelivered_bits.values())
            == sum(stats.tx_bits[h] * fan_out[h] for h in topo.ids))
    assert set(stats.link_bits) <= set(topo.edges)
    for h, k in topo.edges:
        # Each message a sender charged reaches each out-neighbour exactly once,
        # once the sender's clock offset has passed, and is charged to that link.
        epochs = [e for s, e, r in delivered if (s, r) == (h, k)]
        assert epochs == list(range(1, n_epochs + 1 - clock.offset_periods(h, 0.010)))
        assert stats.link_msgs.get((h, k), 0) == len(epochs)
        assert stats.link_bits.get((h, k), 0) == sum(sent[h, e].payload_bits for e in epochs)
        late = range(len(epochs) + 1, n_epochs + 1)  # still in flight at the end
        assert stats.undelivered_msgs.get((h, k), 0) == len(late)
        assert stats.undelivered_bits.get((h, k), 0) == sum(sent[h, e].payload_bits for e in late)
    for k in topo.ids:
        assert stats.tx_bits[k] == sum(sent[k, e].payload_bits for e in range(1, n_epochs + 1))


def test_rate_examples_are_exact():
    stats = LinkStats(update_period=Fraction(1, 100))
    for epoch in range(100):
        account(stats, encode_coop(cloud_of(np.zeros((625, 3))), 1, epoch))
    stats.epochs = 100
    assert stats.tx_rate(1) == Fraction(12_000_000)

    stats = LinkStats(update_period=Fraction(1, 100))
    for epoch in range(100):
        account(stats, encode_coop(cloud_of(np.zeros((815, 3))), 1, epoch))
    stats.epochs = 100
    assert stats.tx_rate(1) == Fraction(15_648_000)


def test_accounting_linearity_and_zero():
    stats = LinkStats(update_period=Fraction(1, 100))
    stats.epochs = 10
    assert stats.tx_rate(1) == 0
    m1 = encode_coop(cloud_of(np.zeros((10, 3))), 1, 0)
    m2 = encode_coop(cloud_of(np.zeros((25, 3))), 1, 0)
    account(stats, m1)
    only_m1 = stats.tx_bits[1]
    account(stats, m2)
    assert stats.tx_bits[1] == only_m1 + m2.payload_bits == m1.payload_bits + m2.payload_bits


def test_delivery_accounting_tracks_links():
    stats = LinkStats(update_period=Fraction(1, 100))
    msg = encode_coop(cloud_of(np.zeros((5, 3))), 2, 0)
    account_delivery(stats, msg, receiver=1)
    assert stats.link_bits[(2, 1)] == msg.payload_bits
    assert stats.rx_bits[1] == msg.payload_bits
    assert stats.link_msgs[(2, 1)] == 1


def test_overhead_scaling_laws():
    # cooperation payload grows with the cloud, federation stays constant
    coop_small = encode_coop(cloud_of(np.zeros((100, 3))), 1, 0)
    coop_big = encode_coop(cloud_of(np.zeros((200, 3))), 1, 0)
    assert coop_big.payload_bits == 2 * coop_small.payload_bits
    fed_a = encode_fed(mixture_of(3, total=100), 1, 0)
    fed_b = encode_fed(mixture_of(3, total=10_000), 1, 0)
    assert fed_a.payload_bits == fed_b.payload_bits


# ------------------------------------------------------------------ replay


def test_replay_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    msgs = [
        encode_coop(cloud_of(rng.normal(0, 5, (17, 3))), 1, 4),
        encode_fed(mixture_of(2, total=50, seed=9), 2, 4),
        encode_fed(GaussianMixture.empty(), 3, 4),
    ]
    path = tmp_path / "replay.jsonl"
    with open(path, "w") as fh:
        write_replay(msgs, fh)
    back = read_log(path)
    assert len(back) == 3
    for orig, rec in zip(msgs, back):
        assert orig.kind == rec.kind
        assert orig.values.tobytes() == rec.values.tobytes()
        assert orig.sender == rec.sender and orig.epoch == rec.epoch


def test_message_values_round_trip():
    msg = encode_fed(mixture_of(3, seed=11), 1, 2)
    values = msg.values.tolist()
    assert len(values) == len(msg.values)
    back = decode_fed(Message(1, 2, "fed", np.array(values)))
    assert encode_fed(back, 1, 2).values.tolist() == values
    coop = encode_coop(cloud_of([[1.5, -2.5, 3.25]]), 1, 0)
    assert decode_coop(Message(1, 0, "coop", np.array(coop.values.tolist()))).points[0][2] == 3.25


@pytest.mark.parametrize(
    "values, reason",
    [
        ([5.0, 1.0] + [0.0] * 16, "does not hold 1 components"),  # 18 values: two too many
        ([5.0, 1.0] + [0.0] * 13, "does not hold 1 components"),
        ([5.0], "component count"),
        ([5.0, 0.5] + [0.0] * 14, "component count"),
        ([5.0, -1.0], "component count"),
        ([5.0, float("nan")], "component count"),
        ([5.5, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 5.5], "non-negative integers"),
        ([-5.0, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, -5.0], "non-negative integers"),
        ([6.0, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 5.0], "point total"),
        ([5.0, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, float("nan")], "non-negative integers"),
        ([5.0, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, float("inf")], "non-negative integers"),
        ([5.0, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, float("-inf")], "non-negative integers"),
        ([2.0**60, 1.0, 1.0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 2.0**60], r"below 2\*\*53"),
        ([5.0, 1.0, float("nan"), 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, -1, 5.0], "must be finite"),
        ([5.0, 1.0, 1.0, float("inf"), 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 5.0], "must be finite"),
        ([5.0, 1.0, 1.0, 0, 0, 0, 1, 0, float("nan"), 0, 1, 0, 0, 0, 1, 5.0], "must be finite"),
        ([5.0, 1.0, -0.5, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 5.0], "weights must be non-negative"),
        ([5.0, 1.0, 1.0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 0, 0, -1, 5.0], "non positive-definite"),
        ([5.0, 1.0, 1.0, 0, 0, 0, 1, 2, 0, 2, 1, 0, 0, 0, 1, 5.0], "non positive-definite"),
    ],
)
def test_malformed_fed_records_are_rejected(values, reason):
    with pytest.raises(ValueError, match=reason):
        decode_fed(Message(1, 0, "fed", np.array(values, dtype=float)))


@pytest.mark.parametrize(
    "values, reason",
    [([0.0] * 14, "coop payload of 14 values is not a list of 3D points"),
     ([1.0, 2.0], "coop payload of 2 values is not a list of 3D points"),
     ([float("nan"), 1.0, float("inf")], "coop point coordinates must be finite"),
     ([0.0, float("-inf"), 2.0, 1.0, 1.0, 1.0], "coop point coordinates must be finite")],
    ids=["fourteen-values", "two-values", "nan-and-infinity", "minus-infinity"],
)
def test_malformed_coop_payloads_are_rejected(values, reason):
    with pytest.raises(ValueError, match=f"^{reason}$"):
        decode_coop(Message(1, 1, "coop", np.array(values, dtype=float)))


def test_jitter_moves_only_the_means():
    topo = Topology((1, 2), ((2, 1),))
    mix = mixture_of(3, total=90, seed=4)
    history = OutboxHistory(0)
    history.push(1, {2: encode_fed(mix, 2, 1)})
    (msg,) = deliver(topo, history, 1, ClockModel({}, jitter_std=0.01), 0.010, np.random.default_rng(8), 2.0)[1]
    got = decode_fed(msg)
    # one (m, 3) block draws the same stream as m draws of three
    rng = np.random.default_rng(8)
    noise = np.array([rng.normal(0.0, 0.02, 3) for _ in range(3)])
    assert np.array_equal(got.means, mix.means + noise)
    for field in ("weights", "covs", "counts"):
        assert np.array_equal(getattr(got, field), getattr(mix, field))
    assert msg.payload_bits == encode_fed(mix, 2, 1).payload_bits


@pytest.mark.parametrize("n_components", [0, 1, 3, 8])
def test_jittered_fed_payload_is_the_decoded_noisy_mixture_re_encoded(n_components):
    # The link adds the noise to the payload's mean entries; decoding the
    # mixture, moving its means by the same draw and encoding it again gives
    # the same payload bit for bit, and leaves the generator in the same state.
    sent = mixture_of(n_components, total=90, seed=n_components) if n_components else GaussianMixture.empty()
    msg = encode_fed(sent, 2, 5)
    for seed in range(5):
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _jittered(msg, 0.02, got_rng)
        mix = decode_fed(msg)
        want = encode_fed(replace(mix, means=mix.means + want_rng.normal(0.0, 0.02, mix.means.shape)), 2, 5)
        assert got.values.tobytes() == want.values.tobytes()
        assert (got.sender, got.epoch, got.kind) == (2, 5, "fed")
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
    assert msg.values.tobytes() == encode_fed(sent, 2, 5).values.tobytes()  # the sent payload is untouched


# ------------------------------------------------------ codec properties

finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def mixtures(draw):
    """Arbitrary non-negative finite weights, finite means, SPD covariances and counts, m = 0..8."""
    m = draw(st.integers(0, 8))
    weights = draw(hnp.arrays(np.float64, m, elements=st.floats(min_value=0.0, allow_infinity=False)))
    means = draw(hnp.arrays(np.float64, (m, 3), elements=finite))
    lower = draw(hnp.arrays(np.float64, (m, 3, 3), elements=st.floats(-5.0, 5.0)))
    diag = draw(hnp.arrays(np.float64, (m, 3), elements=st.floats(0.5, 10.0)))
    chol = np.tril(lower, -1) + diag[:, :, None] * np.eye(3)
    counts = draw(hnp.arrays(np.int64, m, elements=st.integers(0, 2**40)))
    return GaussianMixture(weights, means, chol @ chol.transpose(0, 2, 1), counts)


def assert_same_mixture(a, b):
    for field in ("weights", "means", "covs", "counts"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), field


def replay_round_trip(msgs, path):
    with open(path, "w") as fh:
        write_replay(msgs, fh)
    return read_log(path)


@settings(deadline=None)
@given(mix=mixtures(), sender=st.integers(1, 9), epoch=st.integers(1, 10**6))
def test_fed_codec_is_bit_exact(mix, sender, epoch, tmp_path_factory):
    msg = encode_fed(mix, sender, epoch)
    values = msg.values.tolist()
    assert len(values) == len(msg.values) == 2 + 14 * mix.n_components
    back = Message(sender, epoch, "fed", np.array(values))
    assert_same_mixture(decode_fed(back), mix)
    (replayed,) = replay_round_trip([msg], tmp_path_factory.getbasetemp() / "fed.jsonl")
    assert (replayed.sender, replayed.epoch) == (sender, epoch)
    assert_same_mixture(decode_fed(replayed), mix)


@settings(deadline=None)
@given(points=hnp.arrays(np.float64, st.tuples(st.integers(0, 40), st.just(3)), elements=finite))
def test_coop_codec_is_bit_exact(points, tmp_path_factory):
    msg = encode_coop(cloud_of(points), 2, 3)
    back = Message(2, 3, "coop", np.array(msg.values.tolist()))
    (replayed,) = replay_round_trip([msg], tmp_path_factory.getbasetemp() / "coop.jsonl")
    for got in (decode_coop(back), decode_coop(replayed)):
        assert got.points.shape == points.shape and got.points.tobytes() == points.tobytes()
