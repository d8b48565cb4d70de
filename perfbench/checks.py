"""Correctness checks on the outputs of each operation.

Every expected value is recomputed here from the run's records, or is a
property the method must have; none is a copy of an earlier run's output.
A check returns a list of error strings, empty when the outputs pass.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

BITS_PER_VALUE = 64
COOP_BITS_PER_POINT = 3 * BITS_PER_VALUE
FED_VALUES_PER_COMPONENT = 14  # weight, mean (3), covariance (9), point count
OUTLIER = -1


def _close(a: float | None, b: float | None, rel: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-15)


def check_bits(cfg, records, metrics, stats) -> list[str]:
    """Payload bits from the message sizes, and link conservation."""
    errors = []
    radar_ids = [r.id for r in cfg.radars]
    for rec in records:
        for k in radar_ids:
            bits = rec.tx_bits[k]
            if cfg.mode == "isolated":
                ok = bits == 0
            elif cfg.mode == "cooperation":
                ok = bits == COOP_BITS_PER_POINT * rec.cloud_points[k]
            else:
                values, rem = divmod(bits, BITS_PER_VALUE)
                components, rem2 = divmod(values - 2, FED_VALUES_PER_COMPONENT)
                ok = rem == 0 and rem2 == 0 and 0 <= components <= cfg.fit.m_max
            if not ok:
                errors.append(f"epoch {rec.epoch} radar {k}: {bits} tx bits do not fit a {cfg.mode} message")
    period = float(cfg.update_period)
    for k in radar_ids:
        total = sum(rec.tx_bits[k] for rec in records)
        if not total == stats.tx_bits.get(k, 0) == metrics.tx_bits[k]:
            errors.append(f"radar {k}: tx bits {total} (records) vs {stats.tx_bits.get(k, 0)} (link) "
                          f"vs {metrics.tx_bits[k]} (summary)")
        if not _close(metrics.tx_rate_bits_per_s[k], total / (len(records) * period)):
            errors.append(f"radar {k}: tx rate {metrics.tx_rate_bits_per_s[k]} != bits / elapsed time")
    if sum(stats.rx_bits.values()) != sum(stats.link_bits.values()):
        errors.append("sum of rx_bits differs from sum of link_bits")
    # Zero clock offsets: every charged message reaches every out-neighbour.
    fan_out = {k: sum(1 for h, _ in cfg.topology.edges if h == k) for k in radar_ids}
    expected = sum(stats.tx_bits.get(k, 0) * fan_out[k] for k in radar_ids)
    if sum(stats.link_bits.values()) != expected:
        errors.append(f"link bits {sum(stats.link_bits.values())} != charged bits x fan-out {expected}")
    return errors


def check_accuracy(cfg, records, metrics) -> list[str]:
    """Resolution flags, MAE and unresolved probability of the ego radar."""
    errors = []
    ego = cfg.ego_radar
    err_x, err_y, unresolved = [], [], 0
    for rec in records:
        for k, est in rec.estimates.items():
            if rec.resolved[k] != (len(est) >= len(rec.truth)):
                errors.append(f"epoch {rec.epoch} radar {k}: resolved flag disagrees with the estimate count")
        if not rec.resolved[ego]:
            unresolved += 1
            continue
        for tid, (tx, ty) in rec.truth.items():
            est = rec.matched[ego].get(tid)
            if est is not None:
                err_x.append(abs(est[0] - tx))
                err_y.append(abs(est[1] - ty))
    mae_x = math.fsum(err_x) / len(err_x) if err_x else None
    mae_y = math.fsum(err_y) / len(err_y) if err_y else None
    if metrics.mae_n != len(err_x) or not _close(metrics.mae_x, mae_x) or not _close(metrics.mae_y, mae_y):
        errors.append(f"MAE ({metrics.mae_x}, {metrics.mae_y}, n={metrics.mae_n}) "
                      f"!= recomputed ({mae_x}, {mae_y}, n={len(err_x)})")
    if records and not _close(metrics.p_u, unresolved / len(records)):
        errors.append(f"p_u {metrics.p_u} != recomputed {unresolved / len(records)}")
    return errors


def check_divergence(cfg, records, metrics) -> list[str]:
    """Federated posteriors lie closer to the pooled reference than local ones."""
    errors = []
    for k in (r.id for r in cfg.radars):
        fed = statistics.median(rec.kl_fed[k] for rec in records)
        local = statistics.median(rec.kl_local[k] for rec in records)
        if not (_close(fed, metrics.kl_fed_median_by_radar[k]) and _close(local, metrics.kl_local_median_by_radar[k])):
            errors.append(f"radar {k}: divergence medians differ from the summary")
        if not fed < local:
            errors.append(f"radar {k}: federated divergence median {fed} >= local {local}")
    return errors


def check_outputs(cfg, records, metrics, out_dir: Path) -> list[str]:
    """Replay log message sizes and the exported CSVs."""
    errors = []
    n_radars = len(cfg.radars)
    lines = 0
    with open(out_dir / "messages.jsonl") as fh:
        for line in fh:
            msg = json.loads(line)
            lines += 1
            points = records[msg["epoch"] - 1].cloud_points[msg["sender"]]
            if msg["kind"] != "coop" or BITS_PER_VALUE * len(msg["values"]) != COOP_BITS_PER_POINT * points:
                errors.append(f"replay: epoch {msg['epoch']} sender {msg['sender']} carries "
                              f"{len(msg['values'])} values for {points} points")
    if lines != len(records) * n_radars:
        errors.append(f"replay log has {lines} messages, expected {len(records) * n_radars}")
    with open(out_dir / "epochs.csv", newline="") as fh:
        rows = sum(1 for _ in csv.reader(fh)) - 1
    if rows != len(records) * n_radars:
        errors.append(f"epochs.csv has {rows} rows, expected {len(records) * n_radars}")
    with open(out_dir / "summary.csv", newline="") as fh:
        summary = {(r[0], r[1], r[2]): r[3] for r in csv.reader(fh)}
    mae = summary.get(("mae_x", "", "overall"))
    if (float(mae) if mae else None) != metrics.mae_x:
        errors.append(f"summary.csv mae_x {mae!r} != {metrics.mae_x!r}")
    return errors


def check_sweep(rows, runs) -> list[list[str]]:
    """run_sweep rows against the runs behind them, and the ego transmit-rate
    ordering isolated (0) < federation < cooperation for each seed."""
    errors: list[list[str]] = [[] for _ in rows]
    by_seed: dict[int, dict[str, float]] = {}
    for i, (row, run) in enumerate(zip(rows, runs)):
        ego_rate = run.metrics.tx_rate_bits_per_s[run.cfg.ego_radar]
        if (row["mode"], row["seed"]) != (run.cfg.mode, run.cfg.seed) or row["mae_x"] != run.metrics.mae_x \
                or row["tx_rate_ego"] != ego_rate:
            errors[i].append(f"sweep row {row} does not match its run")
        by_seed.setdefault(row["seed"], {})[row["mode"]] = row["tx_rate_ego"]
    for seed, rate in by_seed.items():
        if not rate.get("isolated") == 0 < rate.get("federation", 0) < rate.get("cooperation", 0):
            for i, row in enumerate(rows):
                if row["seed"] == seed:
                    errors[i].append(f"seed {seed}: ego tx rates {rate} are not ordered isolated < federation < cooperation")
    return errors


def brute_force_dbscan(points: np.ndarray, eps: float, min_pts: int) -> tuple[list[int], int]:
    """O(n^2) density clustering: core points have >= min_pts neighbours
    within eps (themselves included); clusters are numbered in input order of
    their first core point; a border point takes the cluster of its first
    core neighbour in input order."""
    n = len(points)
    near = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2)) <= eps
    core = near.sum(axis=1) >= min_pts
    labels = [OUTLIER] * n
    clusters = 0
    for i in range(n):
        if not core[i] or labels[i] != OUTLIER:
            continue
        labels[i] = clusters
        frontier = [i]
        while frontier:
            j = frontier.pop()
            for q in np.nonzero(near[j] & core)[0]:
                if labels[q] == OUTLIER:
                    labels[q] = clusters
                    frontier.append(q)
        clusters += 1
    for i in range(n):
        if not core[i]:
            anchors = np.nonzero(near[i] & core)[0]
            if anchors.size:
                labels[i] = labels[anchors[0]]
    return labels, clusters


def check_dbscan_samples(samples) -> list[str]:
    errors = []
    for points, eps, min_pts, labels, n_clusters in samples:
        expected, count = brute_force_dbscan(points, eps, min_pts)
        if count != n_clusters or list(labels) != expected:
            errors.append(f"dbscan on {len(points)} points disagrees with the brute-force clustering")
    return errors


def check_grid_sums(sums) -> list[str]:
    return [f"posterior grid mass sums to {s!r}" for s in sums if abs(s - 1.0) > 1e-9]


def same_files(a: Path, b: Path) -> list[str]:
    """Every file under ``b`` exists under ``a`` with identical bytes."""
    files = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if not files:
        return [f"no output files under {b}"]
    return [f"{rel} differs between {a.name} and {b.name} runs"
            for rel in files if not (a / rel).is_file() or (a / rel).read_bytes() != (b / rel).read_bytes()]
