import csv
import itertools
import json
import os
import subprocess
import sys
from dataclasses import fields, replace
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import linear_sum_assignment

from radarfuse import fusion, harness, mixture
from radarfuse.fusion import FitOptions, alpha_weights, federated_posterior, grid_support
from radarfuse.config import MODES, ConfigError, config_from_dict, load_config, resolve_scenario
from radarfuse.harness import (
    EpochRecord,
    SensingRecord,
    aggregate_sweep,
    compute_mae,
    export_csv,
    format_value,
    kl_study,
    metrics_to_rows,
    run_experiment,
    run_sweep,
    unresolved_probability,
)
from radarfuse.mixture import GaussianMixture, choose_components, cluster_moments, eval_on_grid
from radarfuse.sensor import dbscan
from radarfuse.sidelink import Message, decode_coop, decode_fed

from test_mixture import assert_same_mixture
from test_sidelink import read_log

SMALL = {
    "name": "small",
    "mode": "federation",
    "seed": 0,
    "epochs": 15,
    "update_period_s": "0.010",
    "area": [0.0, 8.0, 0.0, 8.0],
    "grid_resolution": 0.2,
    "tau": 0.45,
    "min_separation": 0.5,
    "dbscan": {"eps": 0.35, "min_pts": 4},
    "mixture": {"m_max": 8, "em_max_iters": 15, "em_tol": 1e-4},
    "prior_speed": 1.0,
    "ego_radar": 1,
    "landmarks": {"A": [2.0, 3.0], "B": [6.0, 3.0], "C": [2.0, 6.0], "D": [6.0, 6.0]},
    "targets": [
        {"id": 1, "waypoints": ["A", "B"], "speed": 1.0,
         "body_extent": [0.15, 0.15, 0.3], "points_per_frame": 40},
        {"id": 2, "waypoints": ["C", "D"], "speed": 1.0,
         "body_extent": [0.15, 0.15, 0.3], "points_per_frame": 40},
    ],
    "radars": [
        {"id": 1, "position": [4.0, 0.2, 1.0], "yaw_deg": 90.0,
         "model": {"noise_sigma": 0.08, "outlier_rate": 2.0, "detection_range_ref": 9.0}},
        {"id": 2, "position": [0.2, 4.0, 1.0], "yaw_deg": 20.0,
         "model": {"noise_sigma": 0.08, "outlier_rate": 2.0, "detection_range_ref": 9.0}},
        {"id": 3, "position": [7.8, 4.0, 1.0], "yaw_deg": 160.0,
         "model": {"noise_sigma": 0.08, "outlier_rate": 2.0, "detection_range_ref": 9.0}},
    ],
    "topology": "full",
    "clock": {"offsets": {"1": 0.0, "2": 0.0, "3": 0.0}, "jitter_std": 0.0},
}


def small_config(**overrides):
    return config_from_dict(SMALL, **overrides)


def synthetic_records():
    """Hand-built records with known errors for the metric formulas."""
    recs = []
    for epoch in range(1, 5):
        truth = {1: (2.0, 3.0), 2: (6.0, 3.0)}
        est = {1: (2.1, 3.0), 2: (6.1, 3.0)}  # constant +0.1 x offset
        recs.append(
            EpochRecord(
                epoch=epoch,
                truth=truth,
                target_landmark={1: "A", 2: "B"},
                estimates={1: np.array([est[1], est[2]])},
                matched={1: {1: est[1], 2: est[2]}},
                resolved={1: True},
                tx_bits={1: 0},
                cloud_points={1: 10},
            )
        )
    return recs


# ------------------------------------------------------------- experiment


def test_same_seed_runs_are_byte_identical(tmp_path):
    for mode in MODES:
        cfg = small_config(mode=mode, seed=3)
        for sub in ("a", "b"):
            records, metrics = run_experiment(cfg)
            export_csv(records, metrics, tmp_path / mode / sub, cfg)
        for name in ("epochs.csv", "summary.csv"):
            assert (tmp_path / mode / "a" / name).read_bytes() == (tmp_path / mode / "b" / name).read_bytes()


def test_isolated_mode_sends_nothing():
    cfg = small_config(mode="isolated")
    records, metrics = run_experiment(cfg)
    assert all(bits == 0 for rec in records for bits in rec.tx_bits.values())
    assert all(v == 0 for v in metrics.tx_bits.values())
    assert all(v == 0.0 for v in metrics.tx_rate_bits_per_s.values())


def test_cooperation_bits_follow_cloud_size():
    cfg = small_config(mode="cooperation")
    records, _ = run_experiment(cfg)
    for rec in records:
        for k, bits in rec.tx_bits.items():
            assert bits == 192 * rec.cloud_points[k]


def test_federation_bits_are_independent_of_cloud_size():
    cfg = small_config(mode="federation")
    records, _ = run_experiment(cfg)
    for rec in records:
        for k, bits in rec.tx_bits.items():
            assert bits % 64 == 0
            values = bits // 64
            assert (values - 2) % 14 == 0  # 2 + 14 * components on the wire


def test_federation_rate_at_three_components():
    # Three well-separated targets give 3 clusters per radar every epoch,
    # hence 44 values per update and exactly 281.6 Kbit/s per radar.
    data = dict(SMALL)
    # visible to all three radars and pairwise clear of occlusion shadows
    data["landmarks"] = {"A": [2.5, 2.8], "B": [5.5, 4.2], "C": [4.0, 6.2]}
    data["targets"] = [
        {"id": i, "waypoints": [w], "speed": 0.5,
         "body_extent": [0.1, 0.1, 0.2], "points_per_frame": 35}
        for i, w in ((1, "A"), (2, "B"), (3, "C"))
    ]
    cfg = config_from_dict(data, mode="federation", epochs=10)
    records, metrics = run_experiment(cfg)
    assert all(bits == (2 + 14 * 3) * 64 for rec in records for bits in rec.tx_bits.values())
    assert all(rate == 281_600.0 for rate in metrics.tx_rate_bits_per_s.values())


def test_single_radar_federation_divergences_vanish():
    data = dict(SMALL)
    data["radars"] = SMALL["radars"][:1]
    data["clock"] = {"offsets": {"1": 0.0}, "jitter_std": 0.0}
    cfg = config_from_dict(data, epochs=10)
    records, metrics = run_experiment(cfg)
    for rec in records:
        assert rec.kl_fed[1] < 1e-12
        assert rec.kl_local[1] < 1e-12
    assert metrics.kl_fed_median < 1e-12
    # Radar 3 has no in-neighbours: alone in its neighbourhood, its
    # reference is its own posterior, while radars 1 and 2 fuse three clouds.
    cfg = small_config(epochs=10, topology=[[1, 2], [2, 1], [3, 1], [3, 2]])
    records, _ = run_experiment(cfg)
    for rec in records:
        assert rec.kl_fed[3] < 1e-12
        assert rec.kl_local[3] < 1e-12
    assert max(rec.kl_local[1] for rec in records) > 1e-6


def test_clock_offset_uses_previous_epoch_content():
    data = dict(SMALL)
    data["clock"] = {"offsets": {"1": 0.0, "2": 0.010, "3": 0.0}, "jitter_std": 0.0}
    cfg = config_from_dict(data, mode="cooperation", epochs=6)
    records, _ = run_experiment(cfg)  # smoke: delayed content fuses without error
    assert len(records) == 6


def test_long_clock_offset_is_delivered(monkeypatch):
    # 170 ms is 17 update periods: radar 2's first message arrives at epoch 18,
    # and its last 17 are still in flight when the run ends.
    data = dict(SMALL)
    data["clock"] = {"offsets": {"1": 0.0, "2": 0.170, "3": 0.0}, "jitter_std": 0.0}
    cfg = config_from_dict(data, epochs=20, kl_reference=False)
    delivered, summarized = [], []
    account_delivery, summarize = harness.account_delivery, harness.summarize

    def spy(stats, msg, receiver):
        delivered.append((msg.sender, msg.epoch, receiver))
        return account_delivery(stats, msg, receiver)

    def spy_summarize(records, cfg, stats):
        summarized.append(stats)
        return summarize(records, cfg, stats)

    monkeypatch.setattr(harness, "account_delivery", spy)
    monkeypatch.setattr(harness, "summarize", spy_summarize)
    records, _ = run_experiment(cfg)
    assert sorted((e, k) for h, e, k in delivered if h == 2) == [(e, k) for e in (1, 2, 3) for k in (1, 3)]
    (stats,) = summarized
    assert stats.undelivered_msgs == {(2, 1): 17, (2, 3): 17}
    late_bits = sum(rec.tx_bits[2] for rec in records[3:])
    assert stats.undelivered_bits == {(2, 1): late_bits, (2, 3): late_bits}


def test_cooperation_under_jitter_fuses_each_radars_own_cloud(monkeypatch):
    # Jitter perturbs every delivered copy independently, so each receiver
    # pools its own clean cloud with its own noisy copies of the others'.
    cfg = load_config("converging", mode="cooperation", epochs=5, seed=3,
                      clock={"offsets": {}, "jitter_std": 0.005})
    own, pooled = [], []
    preprocess, pooled_likelihood = harness.preprocess, harness.pooled_likelihood

    def spy_preprocess(*args, **kwargs):
        cloud, clusters = preprocess(*args, **kwargs)
        own.append(cloud)
        return cloud, clusters

    def spy_pooled(ensemble, *args):
        pooled.append([cloud for cloud, _ in ensemble])
        return pooled_likelihood(ensemble, *args)

    monkeypatch.setattr(harness, "preprocess", spy_preprocess)
    monkeypatch.setattr(harness, "pooled_likelihood", spy_pooled)
    run_experiment(cfg)
    assert len(pooled) == len(own) == 15
    for cloud in own:
        assert sum(any(c is cloud for c in members) for members in pooled) == 1


@pytest.mark.parametrize("offsets, clustered", [({}, []), ({"2": 0.010}, [(2, e - 1) for e in range(2, 6)])],
                         ids=["synchronized", "radar-2-one-period-late"])
def test_cooperation_clusters_only_received_clouds_of_other_epochs(monkeypatch, offsets, clustered):
    # A same-epoch copy keeps its sender's clustering; radar 2's late cloud,
    # pooled by radars 1 and 3, is clustered once per epoch from epoch 2 on.
    cfg = load_config("converging", mode="cooperation", epochs=5, seed=3,
                      clock={"offsets": offsets, "jitter_std": 0.0})
    decoded, calls = [], []  # (cloud, its message); (sender, epoch) of each clustered cloud
    decode_coop, dbscan = harness.decode_coop, harness.dbscan

    def spy_decode_coop(msg):
        decoded.append((decode_coop(msg), msg))
        return decoded[-1][0]

    def spy_dbscan(cloud, *args):
        msg = next(msg for got, msg in decoded if got is cloud)
        calls.append((msg.sender, msg.epoch))
        return dbscan(cloud, *args)

    monkeypatch.setattr(harness, "decode_coop", spy_decode_coop)
    monkeypatch.setattr(harness, "dbscan", spy_dbscan)
    run_experiment(cfg)
    assert calls == clustered


def test_cooperation_without_edges_matches_isolated():
    isolated, _ = run_experiment(small_config(mode="isolated", topology=[]))
    cooperation, _ = run_experiment(small_config(mode="cooperation", topology=[]))
    for a, b in zip(isolated, cooperation):
        assert a.matched == b.matched and a.resolved == b.resolved
        assert all(np.array_equal(a.estimates[k], b.estimates[k]) for k in a.estimates)


def test_radar_with_empty_clouds_reports_no_targets():
    # Facing away from the room, radar 3 sees nothing: its isolated
    # posterior stays flat and must not pass for resolved targets.
    data = json.loads(resolve_scenario("converging").read_text())
    data["radars"][2]["yaw_deg"] = 0.0
    cfg = config_from_dict(data, mode="isolated", epochs=4, seed=3)
    records, metrics = run_experiment(cfg)
    assert all(rec.cloud_points[3] == 0 and len(rec.estimates[3]) == 0 for rec in records)
    assert metrics.p_u_by_radar[3] == 1.0


# ---------------------------------------------------------------- metrics


def test_mae_zero_for_perfect_estimates():
    recs = synthetic_records()
    for rec in recs:
        rec.matched[1] = {t: rec.truth[t] for t in rec.truth}
    overall, _ = compute_mae(recs, 1)
    assert overall == (0.0, 0.0, 8)


def test_mae_constant_offset():
    overall, by_label = compute_mae(synthetic_records(), 1)
    assert overall[0] == pytest.approx(0.1)
    assert overall[1] == pytest.approx(0.0)
    assert by_label["A"][0] == pytest.approx(0.1)
    assert set(by_label) == {"A", "B"}


def test_mae_absent_without_resolved_epochs():
    recs = synthetic_records()
    for rec in recs:
        rec.resolved[1] = False
    overall, by_label = compute_mae(recs, 1)
    assert overall is None and by_label == {}


def test_unresolved_probability_limits():
    recs = synthetic_records()
    assert unresolved_probability(recs, 1) == 0.0
    for rec in recs:
        rec.resolved[1] = False
    assert unresolved_probability(recs, 1) == 1.0
    with pytest.raises(ValueError):
        unresolved_probability([], 1)


def test_metric_consistency_with_records():
    cfg = small_config()
    records, metrics = run_experiment(cfg)
    unresolved = sum(1 for r in records if not r.resolved[cfg.ego_radar])
    assert metrics.p_u == pytest.approx(unresolved / len(records))


def test_kl_study_summaries():
    cfg = small_config()
    records, _ = run_experiment(cfg)
    study = kl_study(records)
    assert set(study["fed"]) == {1, 2, 3}
    assert set(study["local"]) == {1, 2, 3}
    assert len(study["fed_pooled"]["deciles"]) == 9
    med = study["fed_pooled"]["median"]
    dec = study["fed_pooled"]["deciles"]
    assert dec[0] <= med <= dec[-1]


@st.composite
def cost_matrices(draw):
    """0-6 x 0-6 cost matrices, of real costs or of small integers (ties)."""
    ny, nx = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    values = draw(st.sampled_from([st.floats(-10.0, 10.0), st.integers(0, 2).map(float)]))
    return np.array(draw(st.lists(values, min_size=ny * nx, max_size=ny * nx))).reshape(ny, nx)


@settings(max_examples=300, deadline=None)
@given(cost_matrices())
@example(np.full((4, 4), 1.0))
@example(np.full((3, 5), 2.0))
def test_assignment_matches_scipy(cost):
    # scipy is the oracle, ties included: a constant matrix is matched to
    # the identity, and a tall matrix (the transpose) to the same pairs.
    for matrix in (cost, cost.T):
        rows, cols = linear_sum_assignment(matrix)
        got_rows, got_cols = harness._assign(matrix.tolist())
        assert np.array_equal(got_rows, rows) and np.array_equal(got_cols, cols)


def test_importing_the_package_loads_no_scipy_optimize():
    # A fresh interpreter: the oracle test above loads scipy.optimize here.
    src = str(Path(harness.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, radarfuse, radarfuse.cli; print([m for m in sys.modules if m.startswith('scipy.optimize')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


# ------------------------------------------------------------------- csv


def test_empty_run_writes_headers_only(tmp_path):
    cfg = small_config(epochs=0)
    records, metrics = run_experiment(cfg)
    paths = export_csv(records, metrics, tmp_path, cfg)
    lines = paths["epochs"].read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("epoch,radar,")


def test_row_count_is_epochs_times_radars(tmp_path):
    cfg = small_config(epochs=7)
    records, metrics = run_experiment(cfg)
    paths = export_csv(records, metrics, tmp_path, cfg)
    rows = paths["epochs"].read_text().splitlines()
    assert len(rows) == 1 + 7 * 3


def test_summary_round_trip_is_exact(tmp_path):
    cfg = small_config(epochs=10)
    records, metrics = run_experiment(cfg)
    paths = export_csv(records, metrics, tmp_path, cfg)
    with open(paths["summary"], newline="") as fh:
        header, *rows = csv.reader(fh)
    expected = metrics_to_rows(metrics)
    assert header == ["metric", "radar", "label", "value"]
    assert rows == [[format_value(v) for v in row] for row in expected]
    floats = [(cell, v) for row, exp in zip(rows, expected) for cell, v in zip(row, exp) if isinstance(v, float)]
    assert floats  # mae, p_u, rates, cloud means and divergences
    assert all(float(cell) == v for cell, v in floats)


@pytest.mark.parametrize(
    "mode, clock",
    [("cooperation", None), ("federation", None),
     ("cooperation", {"offsets": {"2": 0.010}, "jitter_std": 0.005}),
     ("federation", {"offsets": {"2": 0.010}, "jitter_std": 0.005})],
    ids=["cooperation", "federation", "cooperation-late-jittered", "federation-late-jittered"],
)
def test_message_log_replays(tmp_path, monkeypatch, mode, clock):
    # The log holds each sent message once, in its send epoch, with its
    # sender's own payload: not a late delivery, nor a receiver's noisy copy.
    cfg = config_from_dict({**SMALL, "clock": clock or SMALL["clock"]}, mode=mode, epochs=5)
    name = "encode_coop" if mode == "cooperation" else "encode_fed"
    sent, delivered = [], []  # every encoded message; (delivery epoch, message) per receiver

    def spy_encode(*args, encode=getattr(harness, name)):
        sent.append(encode(*args))
        return sent[-1]

    def spy_deliver(topology, history, epoch, *args, deliver=harness.deliver, **kwargs):
        inboxes = deliver(topology, history, epoch, *args, **kwargs)
        delivered.extend((epoch, msg) for msgs in inboxes.values() for msg in msgs)
        return inboxes

    monkeypatch.setattr(harness, name, spy_encode)
    monkeypatch.setattr(harness, "deliver", spy_deliver)
    log = tmp_path / "messages.jsonl"
    records, metrics = run_experiment(cfg, message_log=log)
    msgs = read_log(log)
    assert [(m.epoch, m.sender) for m in msgs] == [(epoch, k) for epoch in range(1, 6) for k in (1, 2, 3)]
    assert [(m.epoch, m.sender, m.kind, m.values.tobytes()) for m in msgs] == \
        [(m.epoch, m.sender, m.kind, m.values.tobytes()) for m in sent]
    # The link did move and delay copies when the clock says so.
    payload = {(m.epoch, m.sender): m.values.tobytes() for m in sent}
    assert any(msg.values.tobytes() != payload[msg.epoch, msg.sender] for _, msg in delivered) == bool(clock)
    assert any(epoch != msg.epoch for epoch, msg in delivered) == bool(clock)
    total_logged = sum(m.payload_bits for m in msgs)
    total_recorded = sum(bits for rec in records for bits in rec.tx_bits.values())
    assert total_logged == total_recorded
    assert {k: sum(m.payload_bits for m in msgs if m.sender == k) for k in (1, 2, 3)} == metrics.tx_bits
    for msg in msgs:
        # Each message describes its sender's own cloud of that epoch.
        points = records[msg.epoch - 1].cloud_points[msg.sender]
        if mode == "cooperation":
            assert len(decode_coop(msg)) == points
        else:
            mix = decode_fed(msg)
            assert mix.n_components <= cfg.fit.m_max
            assert mix.total_points == points


def test_federation_payload_size_does_not_depend_on_the_link():
    # Jitter moves the received means, never the sender's own clustering, so
    # every radar sends messages of the same size as without jitter.
    clean, _ = run_experiment(small_config(epochs=8, kl_reference=False))
    data = {**SMALL, "clock": {"offsets": {}, "jitter_std": 0.005}}
    jittered, _ = run_experiment(config_from_dict(data, epochs=8, kl_reference=False))
    assert [rec.tx_bits for rec in jittered] == [rec.tx_bits for rec in clean]
    assert any(not np.array_equal(rec.estimates[k], ref.estimates[k])
               for rec, ref in zip(jittered, clean) for k in rec.estimates)


def test_grid_dumps(tmp_path):
    cfg = small_config(epochs=4)
    run_experiment(cfg, grid_dump=(tmp_path / "grids", 2))
    files = sorted(p.name for p in (tmp_path / "grids").iterdir())
    assert files == [
        "epoch00002_radar1.csv", "epoch00002_radar2.csv", "epoch00002_radar3.csv",
        "epoch00004_radar1.csv", "epoch00004_radar2.csv", "epoch00004_radar3.csv",
    ]


@pytest.mark.parametrize("every", [0, -1])
def test_a_grid_dump_period_below_one_is_refused_before_the_run(tmp_path, monkeypatch, every):
    def no_scene(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "initial_scene", no_scene)
    with pytest.raises(ValueError, match=f"grid dump period must be >= 1 epoch, got {every}"):
        run_experiment(small_config(epochs=4), grid_dump=(tmp_path / "grids", every))
    assert not (tmp_path / "grids").exists()


# ------------------------------------------------------------------ sweep


def test_sweep_and_aggregate():
    cfg = small_config(epochs=8)
    rows = run_sweep(cfg, seeds=range(2), modes=("isolated", "federation"))
    assert len(rows) == 4
    agg = aggregate_sweep(rows)
    assert [a["mode"] for a in agg] == ["federation", "isolated"]
    assert all(a["runs"] == 2 for a in agg)


def test_sweep_rows_do_not_depend_on_the_workers():
    cfg = small_config(epochs=6)
    modes = ("federation", "isolated", "cooperation")
    rows = run_sweep(cfg, seeds=[4, 2, 7], modes=modes)
    assert [(r["mode"], r["seed"]) for r in rows] == [(m, s) for m in modes for s in (4, 2, 7)]
    assert run_sweep(cfg, seeds=[4, 2, 7], modes=modes, workers=2) == rows


def test_sweep_runs_each_mode_of_a_seed_on_one_record(monkeypatch):
    # The runner is looked up by its module-level name and given the record
    # by keyword, once per (mode, seed), seeds one after another.
    calls = []
    run = harness.run_experiment

    def spy(cfg, **kwargs):
        calls.append((cfg.mode, cfg.seed, kwargs["sensing"]))
        return run(cfg, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", spy)
    run_sweep(small_config(epochs=2), seeds=[5, 6], modes=("cooperation", "isolated"))
    assert [(mode, seed) for mode, seed, _ in calls] == [
        ("cooperation", 5), ("isolated", 5), ("cooperation", 6), ("isolated", 6)]
    assert calls[0][2] is calls[1][2] and calls[2][2] is calls[3][2] and calls[1][2] is not calls[2][2]
    assert all(sensing.seed == seed for _, seed, sensing in calls)


def test_sweep_never_computes_the_kl_reference(monkeypatch):
    class Stop(Exception):
        pass

    seen = []

    def stub(cfg, **kwargs):
        seen.append(cfg.kl_reference)
        raise Stop

    monkeypatch.setattr(harness, "run_experiment", stub)
    cfg = load_config("default", epochs=2)
    assert cfg.kl_reference
    with pytest.raises(ValueError, match="never computes the KL reference"):
        run_sweep(cfg, seeds=[1], modes=("federation",), kl_reference=True)
    assert seen == []
    with pytest.raises(Stop):
        run_sweep(cfg, seeds=[1], modes=("federation",))
    assert seen == [False]


@pytest.mark.parametrize(
    "kwargs, reason",
    [({"workers": 0}, "workers must be >= 1, got 0"),
     ({"workers": -2}, "workers must be >= 1, got -2"),
     ({"modes": []}, "a sweep needs at least one mode"),
     ({"modes": ("isolated", "federation", "isolated")}, "mode 'isolated' is listed twice"),
     ({"seeds": [0, 3.7]}, "seed must be an integer, got 3.7"),
     ({"seeds": ["5"]}, 'seed must be an integer, got "5"'),
     ({"seeds": [True]}, "seed must be an integer, got true")],
    ids=["zero-workers", "negative-workers", "no-mode", "repeated-mode", "fractional-seed", "string-seed",
         "boolean-seed"],
)
def test_sweep_refuses_what_it_cannot_run_before_any_run(monkeypatch, kwargs, reason):
    def no_run(cfg, **_):
        raise AssertionError(f"ran {cfg.mode}")

    monkeypatch.setattr(harness, "run_experiment", no_run)
    with pytest.raises(ValueError, match=f"^{reason}$"):
        run_sweep(small_config(epochs=2), **{"seeds": [0], "modes": ("isolated",), **kwargs})


def test_cooperation_beats_isolated_on_average():
    # Scaled-down analog of the accuracy comparison; the full version with
    # 100 seeds runs in the acceptance suite.
    cfg = load_config("converging", epochs=80)
    rows = run_sweep(cfg, seeds=range(4), modes=("isolated", "cooperation"), workers=2)
    agg = {a["mode"]: a for a in aggregate_sweep(rows)}
    assert agg["cooperation"]["mae_x_mean"] < agg["isolated"]["mae_x_mean"]


# ---------------------------------------------------------- sensing record

SENSING_ORDERS = [
    ("isolated", "cooperation", "federation"),
    ("federation", "isolated", "cooperation"),
    ("cooperation", "federation", "isolated"),
]
SENSING_CASES = {
    "converging": {"kl_reference": False},
    "offset-and-jitter": {"kl_reference": False, "clock": {"offsets": {"2": 0.010}, "jitter_std": 0.002}},
    "kl-reference": {"kl_reference": True},
}
SENSING_EPOCHS = 15


def sensing_config(case: str, mode: str):
    return load_config("converging", mode=mode, seed=3, epochs=SENSING_EPOCHS, **SENSING_CASES[case])


@lru_cache(maxsize=None)
def separate_run(case: str, mode: str):
    return run_experiment(sensing_config(case, mode))


def assert_same_fields(a, b):
    assert type(a) is type(b)
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "estimates":
            assert x.keys() == y.keys() and all(np.array_equal(x[k], y[k]) for k in x), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("order", SENSING_ORDERS, ids=["-".join(o) for o in SENSING_ORDERS])
@pytest.mark.parametrize("case", sorted(SENSING_CASES))
def test_runs_on_a_shared_record_match_separate_runs(case, order):
    sensing = SensingRecord(3)
    for mode in order:
        records, metrics = run_experiment(sensing_config(case, mode), sensing=sensing)
        expected_records, expected_metrics = separate_run(case, mode)
        assert len(records) == len(expected_records)
        for rec, expected in zip(records, expected_records):
            assert_same_fields(rec, expected)
        assert_same_fields(metrics, expected_metrics)
    assert len(sensing.clouds) == SENSING_EPOCHS
    assert all(len(likelihoods) == 3 for likelihoods in sensing.likelihoods)


def record_contents(sensing):
    """The objects a sensing record holds, by identity, epoch by epoch."""
    return [[{k: id(v) for k, v in held.items()} for held in epoch]
            for epoch in zip(sensing.clouds, sensing.starts, sensing.likelihoods)]


def test_a_run_longer_than_its_record_is_refused_before_its_first_epoch(monkeypatch):
    sensing = SensingRecord(0)
    run_experiment(small_config(mode="isolated", epochs=4), sensing=sensing)
    contents = record_contents(sensing)

    def no_scene(*args):
        raise AssertionError("the run started")

    monkeypatch.setattr(harness, "initial_scene", no_scene)
    with pytest.raises(ValueError, match="sensing record of 4 epochs given to a run of 9"):
        run_experiment(small_config(mode="federation", epochs=9), sensing=sensing)
    assert record_contents(sensing) == contents and len(contents) == 4


def test_a_record_of_another_seed_is_refused():
    sensing = SensingRecord(1)
    with pytest.raises(ValueError, match="seed 1 .* seed 2"):
        run_experiment(small_config(seed=2, epochs=2), sensing=sensing)
    assert sensing.clouds == []


def test_recorded_arrays_are_read_only():
    sensing = SensingRecord(0)
    cfg = small_config(mode="isolated", epochs=2)
    run_experiment(cfg, sensing=sensing)
    cloud, start, (mixture, bits) = sensing.clouds[0][1], sensing.starts[0][1], sensing.likelihoods[0][1]
    assert len(cloud) and start.n_components and mixture.n_components
    # The support is packed to one bit per cell.
    support = grid_support(eval_on_grid(mixture, cfg.grid), cfg.tau)
    assert support.any() and np.array_equal(bits, np.packbits(support))
    for array in (cloud.points, start.weights, start.means, start.covs, start.counts,
                  mixture.weights, mixture.means, mixture.covs, mixture.counts, bits):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0


def count_calls(monkeypatch, bindings):
    """Wrap each (module, name) binding to count its calls by name; returns the counts."""
    calls = {name: 0 for _, name in bindings}
    for module, name in bindings:
        def counted(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("first, mode, grids, posteriors",
                         [("isolated", "federation", 0, 4), ("federation", "isolated", 3 * 4, 3 * 4)],
                         ids=["federation", "isolated"])
def test_a_replaying_run_evaluates_no_likelihood_grid_it_can_skip(monkeypatch, first, mode, grids, posteriors):
    sensing = SensingRecord(0)
    run_experiment(small_config(mode=first, epochs=4, kl_reference=False), sensing=sensing)
    calls = count_calls(monkeypatch, [(harness, "likelihood_from_cloud"), (harness, "eval_on_grid"),
                                      (harness, "grid_support")])
    records, metrics = run_experiment(small_config(mode=mode, epochs=4, kl_reference=False), sensing=sensing)
    # Federation evaluates no likelihood grid; isolated rebuilds each one
    # for the Bayes product. Only the posteriors are thresholded, once per
    # posterior object: the three federating radars share one per epoch.
    assert calls == {"likelihood_from_cloud": 0, "eval_on_grid": grids, "grid_support": posteriors}
    monkeypatch.undo()
    expected_records, expected_metrics = run_experiment(small_config(mode=mode, epochs=4, kl_reference=False))
    for rec, expected in zip(records, expected_records, strict=True):
        assert_same_fields(rec, expected)
    assert_same_fields(metrics, expected_metrics)


@pytest.mark.parametrize("clock, delivered", [({"jitter_std": 0.0}, 0), ({"offsets": {"2": 0.010}}, 6 - 1),
                                             ({"jitter_std": 0.002}, 6 * 6)], ids=["exact", "offset", "jitter"])
@pytest.mark.parametrize("mode, decoder", [("cooperation", "decode_coop"), ("federation", "decode_fed")],
                         ids=["cooperation", "federation"])
def test_each_delivered_message_is_decoded_once(monkeypatch, mode, decoder, clock, delivered):
    # Full topology of 3 radars, 6 epochs: each epoch delivers 3 messages to
    # 2 receivers each. Without jitter every receiver gets the sent object,
    # and a message of this epoch is its sender's own, never decoded; radar
    # 2's clock offset makes its message a previous epoch's, decoded once for
    # both receivers (its epoch-0 message does not exist). Under jitter each
    # receiver decodes and clusters its own noisy copy.
    calls = count_calls(monkeypatch, [(harness, "decode_coop"), (harness, "decode_fed"), (harness, "dbscan")])
    run_experiment(small_config(mode=mode, epochs=6, kl_reference=False, clock=clock))
    clustered = delivered if mode == "cooperation" else 0
    assert calls == {"decode_coop": 0, "decode_fed": 0, decoder: delivered, "dbscan": clustered}


@pytest.mark.parametrize("clock, decoded", [({"jitter_std": 0.0}, 0), ({"offsets": {"2": 0.010}}, 6 - 1),
                                           ({"jitter_std": 0.002}, 6 * 6)], ids=["exact", "offset", "jitter"])
def test_a_replaying_cooperation_run_computes_only_decoded_members_cluster_moments(monkeypatch, clock, decoded):
    # Each recorded start is the plain cluster moments of its cloud (DBSCAN
    # is idempotent on a preprocessed cloud), so a cooperation run that
    # replays the record computes the moments of the clouds it decodes
    # (see test_each_delivered_message_is_decoded_once) and of no other.
    cfg = small_config(mode="isolated", epochs=6, kl_reference=False, clock=clock)
    sensing = SensingRecord(0)
    run_experiment(cfg, sensing=sensing)
    for clouds, starts in zip(sensing.clouds, sensing.starts, strict=True):
        for k, cloud in clouds.items():
            clusters = dbscan(cloud, cfg.dbscan_eps, cfg.dbscan_min_pts)
            keep = choose_components(clusters, cfg.fit.m_max)
            means, covs, counts = cluster_moments(cloud.points, clusters.labels, clusters.n_clusters, keep=keep)
            assert_same_mixture(starts[k], GaussianMixture(counts, means, covs, counts))
    calls = count_calls(monkeypatch, [(fusion, "cluster_moments"), (harness, "decode_coop")])
    records, metrics = run_experiment(replace(cfg, mode="cooperation"), sensing=sensing)
    assert calls == {"cluster_moments": decoded, "decode_coop": decoded}
    monkeypatch.undo()
    expected_records, expected_metrics = run_experiment(replace(cfg, mode="cooperation"))
    for rec, expected in zip(records, expected_records, strict=True):
        assert_same_fields(rec, expected)
    assert_same_fields(metrics, expected_metrics)


def test_the_kl_reference_builds_each_pools_features_once(monkeypatch):
    # Default federation, one neighbourhood: per epoch, cloud_start builds
    # each radar's cloud features and the reference builds the pool's once
    # for both of its fits.
    built = []
    for module in (mixture, fusion, harness):
        def counted(points, _original=module.quad_features):
            built.append(points.tobytes())
            return _original(points)
        monkeypatch.setattr(module, "quad_features", counted)
    run_experiment(load_config("default", mode="federation", epochs=20, seed=3, kl_reference=True))
    assert (len(built), len(set(built))) == (20 * (3 + 1), 20 * (3 + 1))


def capture_posteriors(monkeypatch, mode):
    """Wrap the mode's step; returns the list its posterior dicts are appended to, one per epoch."""
    seen, step = [], harness.STEPS[mode]

    def spy(*args):
        result = step(*args)
        seen.append(result[0])
        return result

    monkeypatch.setitem(harness.STEPS, mode, spy)
    return seen


FUSING = ("motion_prior", "bayes_product", "federated_posterior", "extract_targets")


RING = [[2, 1], [3, 2], [1, 3]]


ALL_SHARE, NONE_SHARE = [(1, 2, 3)], [(1,), (2,), (3,)]


@pytest.mark.parametrize("clock, topology, groups",
                         [({"jitter_std": 0.0}, "full", ALL_SHARE), ({"offsets": {"2": 0.010}}, RING, NONE_SHARE),
                          ({"jitter_std": 0.002}, "full", NONE_SHARE),
                          ({"offsets": {"2": 0.010}}, "full", [(1, 3), (2,)])],
                         ids=["exact", "late-partial", "jitter", "late-full"])
@pytest.mark.parametrize("mode", ["cooperation", "federation"])
def test_radars_share_one_posterior_when_they_fuse_the_same_inputs(monkeypatch, mode, clock, topology, groups):
    # Full topology, exact clocks: every radar fuses the same member
    # messages, so each epoch has one posterior, thresholded and searched
    # once. Radar 2 one period late on a ring (each radar fuses its own
    # message with one other, a different pair each), or each receiver
    # holding its own jittered copies: no two radars fuse the same members,
    # so each computes its own. Radar 2 one period late on the full
    # topology: radars 1 and 3 both fuse their own messages and radar 2's
    # late one, and radar 2 fuses its fresh one, so radars 1 and 3 share.
    # The first epoch's empty supports are one object, so one prior.
    # Cooperation radars that share a posterior share the next support, so
    # its prior; a federating radar unites the shared support with its own
    # fresh likelihood support.
    posteriors = capture_posteriors(monkeypatch, mode)
    calls = count_calls(monkeypatch, [(harness, name) for name in FUSING])
    records, _ = run_experiment(small_config(mode=mode, epochs=6, kl_reference=False, clock=clock, topology=topology))
    group_of = {k: group for group in groups for k in group}
    assert len(posteriors) == 6
    for post, rec in zip(posteriors, records, strict=True):
        for a, b in ((1, 2), (1, 3), (2, 3)):
            if group_of[a] == group_of[b]:
                assert post[a] is post[b] and rec.estimates[a] is rec.estimates[b]
            else:
                assert post[a] is not post[b] and not np.array_equal(post[a].mass, post[b].mass)
    per_epoch = len(groups)
    fused = "bayes_product" if mode == "cooperation" else "federated_posterior"
    priors = 1 + 5 * (per_epoch if mode == "cooperation" else 3)
    assert calls == {"motion_prior": priors, "bayes_product": 0, "federated_posterior": 0, fused: per_epoch * 6,
                     "extract_targets": per_epoch * 6}


def test_canonical_members_federate_bit_exactly_in_any_order():
    # Whichever member a receiver holds as its own and in whatever order its
    # inbox lists the others, the canonical order gives one alpha weight
    # vector and one sum, so one grid bit for bit. Taken as given, the orders
    # do not all agree in the last bit.
    spec = small_config().grid
    rng = np.random.default_rng(0)
    messages = [Message(sender, epoch, "fed", np.empty(0))
                for sender, epoch in ((1, 6), (2, 5), (3, 6), (4, 6), (5, 6))]
    members = {msg: (int(rng.integers(1, 200)), rng.random((spec.ny, spec.nx)) * 10.0 ** rng.uniform(-3, 3))
               for msg in messages}
    members[messages[3]] = 0, None  # an empty mixture
    canonical, given = set(), set()
    for order in itertools.permutations(messages):
        for key, grids in ((harness._member_key(order[0], order[1:]), canonical), (order, given)):
            counts, densities = zip(*(members[msg] for msg in key))
            grids.add(federated_posterior(densities, alpha_weights(counts), spec).mass.tobytes())
    assert len(canonical) == 1 and len(given) > 1


@pytest.mark.parametrize("mode", MODES)
def test_estimates_are_read_only(mode):
    # Radars with one posterior share its estimate array, so no caller may
    # edit it; each radar's matches are its own dict.
    records, _ = run_experiment(small_config(mode=mode, epochs=4, kl_reference=False))
    estimates = [est for rec in records for est in rec.estimates.values()]
    assert any(len(est) for est in estimates)
    for est in estimates:
        assert not est.flags.writeable
        if len(est):
            with pytest.raises(ValueError, match="read-only"):
                est[0, 0] = 0.0
    rec = records[-1]
    assert rec.matched[1] is not rec.matched[2]


# ---------------------------------------------------------------- config


def test_config_validation_errors():
    bad = dict(SMALL)
    bad["mode"] = "telepathy"
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = dict(SMALL)
    bad["ego_radar"] = 99
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = dict(SMALL)
    bad["tau"] = 1.5
    with pytest.raises(ConfigError):
        config_from_dict(bad)
    bad = dict(SMALL)
    bad["clock"] = {"offsets": {"2": -0.010}}
    with pytest.raises(ConfigError):
        config_from_dict(bad)


@pytest.mark.parametrize(
    "change",
    [{"mode": "telepathy"}, {"ego_radar": 99}, {"prior_speed": -1.0}, {"prior_speed": float("nan")},
     {"prior_speed": float("inf")}, {"min_separation": float("nan")}, {"dbscan_eps": float("nan")},
     {"fit": FitOptions(m_max=0)}, {"fit": FitOptions(max_iters=-1)}, {"fit": FitOptions(tol=-1.0)},
     {"fit": FitOptions(tol=float("nan"))}, {"fit": FitOptions(tol=float("inf"))}, {"seed": -1},
     {"seed": 3.7}, {"seed": float("nan")}, {"seed": True}, {"seed": "5"}, {"n_epochs": 2.5},
     {"n_epochs": 3.0}, {"dbscan_min_pts": 2.5}, {"fit": FitOptions(m_max=2.0)},
     {"fit": FitOptions(max_iters=True)}],
    ids=["unknown-mode", "undeployed-ego", "negative-prior-speed", "nan-prior-speed", "infinite-prior-speed",
         "nan-min-separation", "nan-dbscan-eps", "zero-m-max", "negative-max-iters", "negative-tol", "nan-tol",
         "infinite-tol", "negative-seed", "fractional-seed", "nan-seed", "boolean-seed", "string-seed",
         "fractional-epochs", "float-epochs", "fractional-min-pts", "float-m-max", "boolean-max-iters"],
)
def test_replaced_config_is_checked(change):
    with pytest.raises(ConfigError):
        replace(config_from_dict(SMALL), **change)


def test_a_numpy_integer_is_an_integer_setting():
    cfg = replace(config_from_dict(SMALL), seed=np.int64(3), n_epochs=np.int32(2))
    assert (cfg.seed, cfg.n_epochs) == (3, 2)


def test_update_period_is_a_decimal_string_or_a_number():
    for period in ("0.010", 0.01):
        assert config_from_dict({**SMALL, "update_period_s": period}).update_period == Fraction(1, 100)


def test_builtin_scenarios_load():
    for name in ("default", "converging"):
        cfg = load_config(name)
        assert cfg.name == name
        assert len(cfg.radars) == 3
    with pytest.raises(ConfigError):
        load_config("no-such-scenario")


def test_overrides_apply():
    cfg = load_config("default", mode="isolated", seed=9, epochs=5)
    assert cfg.mode == "isolated" and cfg.seed == 9 and cfg.n_epochs == 5
