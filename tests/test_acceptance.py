"""Acceptance suite: one test per release criterion, one PASS line each.

The Monte Carlo comparisons (accuracy and resolution orderings) share a
single 100-seed sweep of the converging scenario, built once per session.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from radarfuse.config import load_config
from radarfuse.fusion import FitOptions, extract_targets, federated_posterior, grid_support
from radarfuse.harness import aggregate_sweep, export_csv, run_experiment, run_sweep
from radarfuse.mixture import (
    GaussianMixture,
    GridSpec,
    eval_on_grid,
    fit_em,
    grid_density,
    kl_divergence,
)
from radarfuse.sensor import PointCloud, dbscan
from radarfuse.sidelink import decode_coop, decode_fed, encode_coop, encode_fed

from test_fusion import exhaustive_extract, random_mixture
from test_mixture import em_start
from test_sensor import brute_force_dbscan

UPDATES_PER_SECOND = Fraction(100)  # one localization update every 10 ms
FIT = FitOptions()  # the scenario defaults of the EM fit


def report(name, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def converging_sweep():
    cfg = load_config("converging")
    t0 = time.time()
    rows = run_sweep(cfg, seeds=range(100), modes=("isolated", "cooperation", "federation"), workers=2)
    elapsed = time.time() - t0
    agg = {a["mode"]: a for a in aggregate_sweep(rows)}
    print(f"\n[sweep] 100 seeds x 3 modes in {elapsed:.0f}s")
    return agg


@pytest.fixture(scope="module")
def kl_run():
    cfg = load_config("default", epochs=900, seed=1)
    t0 = time.time()
    records, metrics = run_experiment(cfg)
    print(f"\n[kl run] 900 updates in {time.time() - t0:.0f}s")
    return records, metrics


def test_criterion_1_bandwidth_reproduction():
    coop_625 = encode_coop(PointCloud(np.zeros((625, 3)), 0, 1))
    coop_815 = encode_coop(PointCloud(np.zeros((815, 3)), 0, 1))
    rate_625 = coop_625.payload_bits * UPDATES_PER_SECOND
    rate_815 = coop_815.payload_bits * UPDATES_PER_SECOND

    fed = encode_fed(GaussianMixture([1 / 3] * 3, np.zeros((3, 3)), [np.eye(3)] * 3, [100] * 3), 1, 0)
    fed_rate = fed.payload_bits * UPDATES_PER_SECOND

    ok = (
        rate_625 == 12_000_000
        and rate_815 == 15_648_000
        and len(fed.values) == 44
        and fed_rate == 281_600
    )
    report(
        "criterion 1 (bandwidth reproduction)",
        ok,
        f"625 pts -> {float(rate_625) / 1e6} Mbit/s, 815 pts -> {float(rate_815) / 1e6} Mbit/s, "
        f"3 components -> {len(fed.values)} values = {float(fed_rate) / 1e3} Kbit/s",
    )


def test_criterion_2_overhead_ratio():
    fed_bits = encode_fed(
        GaussianMixture([1 / 3] * 3, np.zeros((3, 3)), [np.eye(3)] * 3, [1] * 3), 1, 0
    ).payload_bits
    ratios = [
        Fraction(n * 3 * 64, fed_bits) for n in (625, 815)
    ]
    ok = all(r >= 20 for r in ratios) and all(20 <= r <= 60 for r in ratios)
    report(
        "criterion 2 (overhead ratio)",
        ok,
        f"cooperation/federation payload ratio at 625 pts = {float(ratios[0]):.1f}, "
        f"at 815 pts = {float(ratios[1]):.1f} (threshold 20)",
    )


def test_criterion_3_divergence_ordering(kl_run):
    _, metrics = kl_run
    fed_median = metrics.kl_fed_median
    locals_ = metrics.kl_local_median_by_radar
    ok = all(fed_median < locals_[k] for k in locals_)
    report(
        "criterion 3 (divergence ordering)",
        ok,
        f"median global||federated = {fed_median:.4f} vs global||local = "
        + ", ".join(f"radar {k}: {v:.4f}" for k, v in sorted(locals_.items())),
    )


def test_cloud_sizes_in_operating_band(kl_run):
    records, metrics = kl_run
    means = metrics.cloud_mean
    ok = all(400.0 <= v <= 1000.0 for v in means.values())
    report(
        "supporting check (preprocessed cloud sizes)",
        ok,
        "mean points/update per radar = "
        + ", ".join(f"{k}: {v:.0f}" for k, v in sorted(means.items())),
    )


def test_criterion_4_accuracy_ordering(converging_sweep):
    iso = converging_sweep["isolated"]["mae_x_mean"]
    coop = converging_sweep["cooperation"]["mae_x_mean"]
    fed = converging_sweep["federation"]["mae_x_mean"]
    improvement = 1.0 - coop / iso
    ok = coop <= fed <= iso and improvement >= 0.10
    report(
        "criterion 4 (accuracy ordering)",
        ok,
        f"mean mae_x: cooperation {coop:.4f} <= federation {fed:.4f} <= isolated {iso:.4f}; "
        f"cooperation improves on isolated by {improvement:.0%}",
    )


def test_criterion_5_unresolved_targets(converging_sweep):
    iso = converging_sweep["isolated"]["p_u_mean"]
    coop = converging_sweep["cooperation"]["p_u_mean"]
    fed = converging_sweep["federation"]["p_u_mean"]
    ok = coop <= iso - 0.10 and fed <= iso - 0.10
    relation = "<=" if fed <= coop else ">"
    report(
        "criterion 5 (unresolved targets)",
        ok,
        f"P_u: isolated {iso:.3f}, cooperation {coop:.3f}, federation {fed:.3f} "
        f"(gaps {iso - coop:.3f} and {iso - fed:.3f}, need >= 0.10; "
        f"reported: federation {relation} cooperation)",
    )


def test_criterion_6_numerical_invariants():
    rng = np.random.default_rng(123)
    spec = GridSpec(0.0, 8.0, 0.0, 8.0, 0.1)

    # EM log-likelihood monotone on 1000 random fits
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(m + 4, 60))
        pts = rng.normal(rng.uniform(-1, 1, 3), rng.uniform(0.1, 1.0), (n, 3))
        init = pts[rng.choice(n, m, replace=False)]
        _, trace = fit_em(pts, em_start(pts, init), max_iters=FIT.max_iters, tol=FIT.tol, return_trace=True)
        if len(trace) > 1:
            steps = np.diff(trace) / np.maximum(1.0, np.abs(trace[:-1]))
            worst = min(worst, float(steps.min()))
    em_ok = worst >= -1e-9

    # every produced grid sums to one
    sums_ok = True
    for _ in range(50):
        grid = eval_on_grid(random_mixture(rng, rng.integers(1, 5), (0, 8), (0.01, 0.5)), spec)
        sums_ok &= abs(grid.mass.sum() - 1.0) <= 1e-9

    # self-divergence vanishes
    p = eval_on_grid(GaussianMixture([1.0], [[4, 4, 1.0]], [np.eye(3) * 0.2], [1]), spec)
    self_kl = kl_divergence(p, p)

    # grid divergence matches the Gaussian closed form at fine resolution
    fine = GridSpec(-8.0, 9.0, -8.0, 9.0, 0.1)  # resolution = sigma / 10
    g0 = eval_on_grid(GaussianMixture([1.0], [[0.0, 0, 0]], [np.eye(3)], [1]), fine)
    g1 = eval_on_grid(GaussianMixture([1.0], [[1.0, 0, 0]], [np.eye(3)], [1]), fine)
    closed_form_err = abs(kl_divergence(g0, g1) - 0.5) / 0.5

    # lone-radar federation is an exact identity
    own = GaussianMixture([1.0], [[3, 4, 1.0]], [np.eye(3) * 0.1], [9])
    fed = federated_posterior([grid_density(own, spec)], np.array([1.0]), spec)
    identity_err = float(np.max(np.abs(fed.mass - eval_on_grid(own, spec).mass)))

    # codecs round-trip bit-exactly
    pts = rng.normal(0, 50, (200, 3)) * 10.0 ** rng.integers(-8, 8, (200, 1))
    codec_ok = np.array_equal(decode_coop(encode_coop(PointCloud(pts, 0, 1))).points, pts)
    chol = rng.normal(0, 0.3, (3, 3))
    mix = GaussianMixture([1.0], [rng.normal(0, 2, 3)], [chol @ chol.T + np.eye(3) * 0.01], [7])
    back = decode_fed(encode_fed(mix, 1, 0))
    codec_ok &= np.array_equal(back.covs, mix.covs)
    codec_ok &= np.array_equal(back.weights, mix.weights)

    ok = em_ok and sums_ok and self_kl < 1e-12 and closed_form_err < 0.01 and identity_err < 1e-12 and codec_ok
    report(
        "criterion 6 (numerical invariants)",
        ok,
        f"worst EM step {worst:.2e}, grid sums ok={sums_ok}, KL(p||p)={self_kl:.2e}, "
        f"closed-form error {closed_form_err:.2%}, K=1 identity {identity_err:.2e}, codecs ok={codec_ok}",
    )


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(321)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 101))
        scale = float(rng.uniform(0.5, 4.0))
        pts = rng.uniform(0, scale, (n, 3))
        eps = float(rng.uniform(0.1, 0.8))
        min_pts = int(rng.integers(1, 8))
        res = dbscan(PointCloud(pts, 0, 1), eps, min_pts)
        labels, n_clusters = brute_force_dbscan(pts, eps, min_pts)
        if list(res.labels) != labels or res.n_clusters != n_clusters:
            mismatches += 1

    spec = GridSpec(0.0, 4.0, 0.0, 4.0, 0.1)
    extract_mismatches = 0
    for _ in range(100):
        m = int(rng.integers(1, 6))
        mix = random_mixture(rng, m, (0.4, 3.6), (0.01, 0.3))
        post = eval_on_grid(mix, spec)
        got = extract_targets(post, grid_support(post, 0.45), 0.5)
        expected = exhaustive_extract(post.mass, spec, 0.45, 0.5)
        if not np.array_equal(got, expected):
            extract_mismatches += 1

    ok = mismatches == 0 and extract_mismatches == 0
    report(
        "criterion 7 (oracle equivalence)",
        ok,
        f"density clustering mismatches: {mismatches}/200, "
        f"target extraction mismatches: {extract_mismatches}/100",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = load_config("default", epochs=60, seed=17)
    outputs = []
    for sub in ("first", "second"):
        records, metrics = run_experiment(cfg)
        paths = export_csv(records, metrics, tmp_path / sub, cfg)
        outputs.append(tuple(p.read_bytes() for p in paths.values()))
    ok = outputs[0] == outputs[1]
    report(
        "criterion 8 (determinism)",
        ok,
        "identical (config, seed) reruns produce byte-identical epoch and summary CSVs",
    )
