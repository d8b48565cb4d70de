"""Experiment runner and metrics.

One experiment advances the scene epoch by epoch. At every epoch each radar
observes and preprocesses its cloud and diffuses its previous support (a
boolean ``(ny, nx)`` cell mask) into a motion prior. The step of the
configured mode (``STEPS[cfg.mode]``) then turns the clouds and priors into
one posterior grid per radar:

* isolated    - own cloud likelihood times prior; nothing is sent;
* cooperation - broadcasts the clouds and fuses the pooled likelihood;
* federation  - fits and broadcasts local-posterior mixtures and combines
  the received ones.

A step sends through ``exchange(outbox) -> inboxes``, which charges, logs
and delivers one epoch's messages over the simulated sidelink; receivers
decode the delivered payloads. The runner keeps the epoch loop, the link
and the records: it thresholds each posterior grid once into its support,
extracts target estimates within it, and ``reconstruct_scene`` unites it
with the step's fresh likelihood support into the radar's next support.
In federation mode an observer can additionally run a pooled-cloud
reference posterior per neighbourhood to sample divergences against; it
never touches the sidelink accounting.

Per-epoch work is done once per distinct input object. An outbox message
is never decoded (its sender's cloud and clustering, or local posterior and
density, are on hand); a delivered ``Message`` is decoded once. Radars that
fuse the same member messages, taken in the canonical order of
``_member_key``, share one pooled likelihood, and one Bayes product per
prior, or one federated posterior. Every radar starts from one empty
support; one motion prior is diffused per support object, each posterior
object is thresholded, searched and matched once (its estimates are
read-only) and one next support is made per (support, fresh) pair. Without
clock jitter the link hands every receiver the object its sender pushed, so
under a full topology with exact clocks all radars hold one posterior.

Every mode of one seed senses the same clouds, so ``run_sweep`` runs a
seed's modes on one ``SensingRecord`` and senses each seed once. The
record also keeps each radar's likelihood mixture and its support, packed
to bits (about 4.2 MB for a 190-epoch ``converging`` seed), so a replaying
federation run evaluates no likelihood grid.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .config import ExperimentConfig
from .fusion import (
    alpha_weights,
    bayes_product,
    extract_targets,
    federated_posterior,
    grid_support,
    likelihood_from_cloud,
    motion_prior,
    pooled_likelihood,
    reconstruct_scene,
    refit_posterior_mixture,
)
from .mixture import GaussianMixture, eval_on_grid, grid_density, kl_divergence, normalized_density
from .scene import advance_scene, initial_scene
from .sensor import ClusterResult, PointCloud, dbscan, observe, preprocess
from .sidelink import (
    LinkStats,
    OutboxHistory,
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

log = logging.getLogger(__name__)

DECILES = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
# A grid dump: this header, the grid's extent and resolution, then its mass row by row.
GRID_DUMP_HEADER = ("x_min", "x_max", "y_min", "y_max", "resolution")


@dataclass
class EpochRecord:
    """Everything measured at one epoch, per radar."""

    epoch: int
    truth: dict[int, tuple[float, float]]  # target id -> true center
    target_landmark: dict[int, str]  # target id -> nearest route waypoint
    # Read-only, and one array for radars that hold one posterior.
    estimates: dict[int, np.ndarray]  # radar -> (m, 2) estimated positions
    matched: dict[int, dict[int, tuple[float, float] | None]]  # radar -> target -> estimate
    resolved: dict[int, bool]
    tx_bits: dict[int, int]
    cloud_points: dict[int, int]
    kl_fed: dict[int, float] = field(default_factory=dict)  # reference || federated
    kl_local: dict[int, float] = field(default_factory=dict)  # reference || local


@dataclass
class MetricsRecord:
    """Per-run summary: accuracy, resolution, overhead and divergences."""

    mode: str
    n_epochs: int
    ego_radar: int
    mae_x: float | None
    mae_y: float | None
    mae_n: int
    mae_by_landmark: dict[str, tuple[float, float, int]]
    p_u: float | None
    p_u_by_radar: dict[int, float]
    tx_bits: dict[int, int]
    tx_rate_bits_per_s: dict[int, float]
    cloud_mean: dict[int, float]
    kl_fed_median: float | None
    kl_fed_median_by_radar: dict[int, float]
    kl_local_median_by_radar: dict[int, float]
    kl_fed_deciles: tuple[float, ...] | None


@dataclass(eq=False)
class SensingRecord:
    """What one seed's radars sensed, shared by that seed's runs in every mode.

    The scene and observation RNGs are seeded by the seed alone, so every
    mode senses the same clouds. Per epoch (index ``epoch - 1``) the record
    holds each radar's preprocessed cloud and clustering, appended by the
    first run on the record, and each radar's likelihood, kept by the first
    isolated or federation run: the ``likelihood_from_cloud`` mixture and
    the likelihood's ``grid_support``, packed to one bit per cell
    (``np.packbits``). A run that reads a likelihood back evaluates no
    likelihood grid, except that isolated rebuilds it with ``eval_on_grid``
    for the Bayes product. Recorded arrays are read-only. A record belongs
    to one seed of one scenario; only the seed is checked.

    A 190-epoch ``converging`` record holds about 4.2 MB of arrays: 2.4 MB
    of clouds, clusterings and mixtures and 1.8 MB of packed supports
    (3,200 bytes per radar and epoch on its 160 x 160 grid, an eighth of
    the boolean mask).
    """

    seed: int
    clouds: list[dict[int, PointCloud]] = field(default_factory=list)
    clusters: list[dict[int, ClusterResult]] = field(default_factory=list)
    likelihoods: list[dict[int, tuple[GaussianMixture, np.ndarray]]] = field(default_factory=list)

    def append(self, clouds: dict[int, PointCloud], clusters: dict[int, ClusterResult]) -> None:
        for k in clouds:
            _freeze(clouds[k].points, clusters[k].labels)
        self.clouds.append(clouds)
        self.clusters.append(clusters)
        self.likelihoods.append({})


def _freeze(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


def _associate(
    truth: dict[int, np.ndarray], positions: np.ndarray
) -> dict[int, tuple[float, float] | None]:
    """Optimal assignment of estimates to true centers (minimum total distance)."""
    tids = sorted(truth)
    matched: dict[int, tuple[float, float] | None] = {t: None for t in tids}
    if len(positions) == 0 or not tids:
        return matched
    centers = np.array([truth[t] for t in tids])
    cost = np.linalg.norm(centers[:, None, :] - positions[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    for i, j in zip(rows, cols):
        matched[tids[i]] = (float(positions[j, 0]), float(positions[j, 1]))
    return matched


def _nearest_waypoint(cfg: ExperimentConfig, spec, center: np.ndarray) -> str:
    dists = [(float(np.linalg.norm(center - cfg.landmarks[w])), w) for w in spec.waypoints]
    return min(dists)[1]


# --------------------------------------------------------------- mode steps
#
# Every step takes (cfg, epoch, clouds, clusters, priors, exchange,
# recorded), where clouds, clusters and priors are per-radar dicts in
# deployment order and ``recorded`` is the epoch's dict of recorded
# likelihoods (without a sensing record, a fresh dict per epoch). It returns
# (posterior grids, fresh supports, local densities). The fresh support is
# each radar's thresholded likelihood, which ``reconstruct_scene`` unites
# with the posterior's to seed the next prior. The local densities are the
# ``grid_density`` of each radar's local-posterior mixture, which the KL
# reference is compared against; only federation has them.


def _likelihood(cfg, k, clouds, clusters, recorded):
    """Radar k's likelihood grid, mixture and support. A likelihood in
    ``recorded`` is read back without its grid (None); else it is fitted,
    thresholded and recorded there, its support packed to bits."""
    if k in recorded:
        mixture, bits = recorded[k]
        return None, mixture, np.unpackbits(bits, count=cfg.grid.n_cells).view(bool).reshape(cfg.grid.ny, -1)
    grid, mixture = likelihood_from_cloud(clouds[k], clusters[k], cfg.grid, cfg.fit)
    support = grid_support(grid, cfg.tau)
    bits = np.packbits(support)
    _freeze(mixture.weights, mixture.means, mixture.covs, mixture.counts, bits)
    recorded[k] = (mixture, bits)
    return grid, mixture, support


def _member_key(own, inbox):
    """The messages a radar fuses, its own outbox message included, in their
    canonical order: sorted by ``(sender, epoch)``, whoever receives them."""
    return tuple(sorted([own, *inbox], key=lambda msg: (msg.sender, msg.epoch)))


def _isolated_step(cfg, epoch, clouds, clusters, priors, exchange, recorded):
    posteriors, supports = {}, {}
    for k in clouds:
        grid, mixture, supports[k] = _likelihood(cfg, k, clouds, clusters, recorded)
        if grid is None:  # read back: the product needs the grid
            grid = eval_on_grid(mixture, cfg.grid)
        posteriors[k] = bayes_product(grid, priors[k])
    return posteriors, supports, {}


def _cooperation_step(cfg, epoch, clouds, clusters, priors, exchange, recorded):
    outbox = {k: encode_coop(clouds[k], k, epoch) for k in clouds}
    inboxes = exchange(outbox)
    # A sender's own message keeps its clustering: DBSCAN is idempotent on
    # ``preprocess``'s output, because a noise point lies within eps of no
    # core point, so dropping it changes no core degree or border anchor, and
    # the filter keeps the input order.
    members = {outbox[k]: (clouds[k], clusters[k]) for k in clouds}
    pooled, fused = {}, {}
    posteriors, supports = {}, {}
    for k in clouds:
        key = _member_key(outbox[k], inboxes[k])
        if key not in pooled:
            for msg in key:
                if msg not in members:
                    cloud = decode_coop(msg)
                    members[msg] = cloud, dbscan(cloud, cfg.dbscan_eps, cfg.dbscan_min_pts)
            grid, _ = pooled_likelihood([members[msg] for msg in key], cfg.grid, cfg.fit)
            pooled[key] = grid, grid_support(grid, cfg.tau)
        grid, supports[k] = pooled[key]
        if (key, id(priors[k])) not in fused:
            fused[key, id(priors[k])] = bayes_product(grid, priors[k])
        posteriors[k] = fused[key, id(priors[k])]
    return posteriors, supports, {}


def _federation_step(cfg, epoch, clouds, clusters, priors, exchange, recorded):
    local_mixtures, densities, supports = {}, {}, {}
    for k in clouds:
        _, lik_mix, supports[k] = _likelihood(cfg, k, clouds, clusters, recorded)
        local_mixtures[k] = refit_posterior_mixture(clouds[k], lik_mix, priors[k], cfg.fit)
        densities[k] = grid_density(local_mixtures[k], cfg.grid)
    outbox = {k: encode_fed(local_mixtures[k], k, epoch) for k in clouds}
    inboxes = exchange(outbox)
    received = {outbox[k]: (local_mixtures[k].total_points, densities[k]) for k in clouds}
    fused, posteriors = {}, {}
    for k in clouds:
        key = _member_key(outbox[k], inboxes[k])
        if key not in fused:
            for msg in key:
                if msg not in received:
                    mixture = decode_fed(msg)
                    received[msg] = mixture.total_points, grid_density(mixture, cfg.grid)
            counts, members = zip(*(received[msg] for msg in key))
            fused[key] = federated_posterior(members, alpha_weights(counts), cfg.grid)
        posteriors[k] = fused[key]
    return posteriors, supports, densities


STEPS = {
    "isolated": _isolated_step,
    "cooperation": _cooperation_step,
    "federation": _federation_step,
}


def _kl_reference(cfg, clouds, clusters, posteriors, local_densities, ref_prev):
    """Divergences of the federated and local posteriors from the pooled-cloud
    reference posterior of each radar's neighbourhood (the radar and its
    in-neighbours).

    The reference recursion runs once per neighbourhood: radars with the
    same neighbourhood start from the same empty state and get the same
    inputs every epoch. ``ref_prev`` holds each neighbourhood's previous
    support mask and is updated in place. Divergences compare the mixture
    representations, so a lone radar's federated, local and reference
    posteriors coincide exactly.
    """
    ref_grids, kl_of = {}, {}
    kl_fed, kl_local = {}, {}
    for k in clouds:
        ids = tuple(sorted({k, *cfg.topology.neighbors(k)}))
        if ids not in ref_grids:
            lik_grid, lik_mix = pooled_likelihood([(clouds[i], clusters[i]) for i in ids], cfg.grid, cfg.fit)
            no_support = np.zeros((cfg.grid.ny, cfg.grid.nx), dtype=bool)
            ref_prior = motion_prior(ref_prev.get(ids, no_support), cfg.prior_speed, cfg.dt, cfg.grid)
            member_pts = [clouds[i].points for i in ids if len(clouds[i])]
            pool = np.concatenate(member_pts) if member_pts else np.empty((0, 3))
            ref_mix = refit_posterior_mixture(PointCloud(pool), lik_mix, ref_prior, cfg.fit)
            ref_grids[ids] = eval_on_grid(ref_mix, cfg.grid)
            ref_prev[ids] = reconstruct_scene(grid_support(ref_grids[ids], cfg.tau), grid_support(lik_grid, cfg.tau))
        if (ids, id(posteriors[k])) not in kl_of:
            kl_of[ids, id(posteriors[k])] = kl_divergence(ref_grids[ids], posteriors[k])
        kl_fed[k] = kl_of[ids, id(posteriors[k])]
        kl_local[k] = kl_divergence(ref_grids[ids], normalized_density(local_densities[k], cfg.grid))
    return kl_fed, kl_local


def run_experiment(
    cfg: ExperimentConfig,
    *,
    message_log: Path | str | None = None,
    grid_dump: tuple[Path | str, int] | None = None,
    sensing: SensingRecord | None = None,
) -> tuple[list[EpochRecord], MetricsRecord]:
    """Run one experiment; fully determined by (config, seed).

    ``grid_dump=(directory, every)`` writes each radar's posterior grid every
    ``every`` epochs; ``every`` below 1 raises ValueError before the run
    creates anything. The directories of the grid dump and of the
    ``message_log`` file are created as needed.

    With ``sensing``, a record of this seed, the first run on the record
    senses and records its clouds, and a later run replays them. Every run
    replays the likelihoods recorded by earlier runs and records those it
    fits first. Its outputs are those of a run without the record. A record
    of another seed, or a later run longer than the record, raises
    ``ValueError`` before the first epoch.
    """
    if grid_dump is not None and grid_dump[1] < 1:
        raise ValueError(f"grid dump period must be >= 1 epoch, got {grid_dump[1]}")
    radar_ids = [r.id for r in cfg.radars]
    setups = {r.id: r for r in cfg.radars}
    seq = np.random.SeedSequence(cfg.seed)
    children = seq.spawn(2 + len(radar_ids))
    scene_rng = np.random.default_rng(children[0])
    link_rng = np.random.default_rng(children[1])
    radar_rngs = {k: np.random.default_rng(children[2 + i]) for i, k in enumerate(radar_ids)}
    replaying = sensing is not None and len(sensing.clouds) > 0
    if sensing is not None and sensing.seed != cfg.seed:
        raise ValueError(f"sensing record of seed {sensing.seed} given to a run of seed {cfg.seed}")
    if replaying and cfg.n_epochs > len(sensing.clouds):
        raise ValueError(f"sensing record of {len(sensing.clouds)} epochs given to a run of {cfg.n_epochs}")

    step = STEPS[cfg.mode]
    scene = initial_scene(cfg.targets, cfg.landmarks, scene_rng)
    stats = LinkStats(update_period=cfg.update_period)
    # Deep enough for the most-delayed sender: nothing sent is dropped unseen.
    history = OutboxHistory(max(cfg.clock.offset_periods(k, cfg.dt) for k in radar_ids))
    prev_support = dict.fromkeys(radar_ids, np.zeros((cfg.grid.ny, cfg.grid.nx), dtype=bool))
    ref_prev: dict[tuple[int, ...], np.ndarray] = {}
    records: list[EpochRecord] = []

    log_fh = None
    if message_log:
        Path(message_log).parent.mkdir(parents=True, exist_ok=True)
        log_fh = open(message_log, "w")
    if grid_dump is not None:
        dump_dir, dump_every = Path(grid_dump[0]), grid_dump[1]
        dump_dir.mkdir(parents=True, exist_ok=True)

    try:
        for epoch in range(1, cfg.n_epochs + 1):
            scene = advance_scene(scene, cfg.targets, cfg.landmarks, cfg.dt, scene_rng)

            if not replaying:
                clouds, clusters = {}, {}
                for k in radar_ids:
                    raw = observe(scene, setups[k].pose, setups[k].model, radar_rngs[k])
                    clouds[k], clusters[k] = preprocess(raw, cfg.dbscan_eps, cfg.dbscan_min_pts)
                if sensing is not None:
                    sensing.append(clouds, clusters)
            else:
                clouds, clusters = sensing.clouds[epoch - 1], sensing.clusters[epoch - 1]
            recorded = sensing.likelihoods[epoch - 1] if sensing is not None else {}
            distinct = {id(support): support for support in prev_support.values()}
            prior_of = {i: motion_prior(s, cfg.prior_speed, cfg.dt, cfg.grid) for i, s in distinct.items()}
            priors = {k: prior_of[id(prev_support[k])] for k in radar_ids}

            tx_bits = {k: 0 for k in radar_ids}
            exchange = partial(_exchange, cfg, history, stats, link_rng, log_fh, epoch, tx_bits)
            posteriors, fresh, local_densities = step(cfg, epoch, clouds, clusters, priors, exchange, recorded)
            kl_fed: dict[int, float] = {}
            kl_local: dict[int, float] = {}
            if cfg.kl_reference and local_densities:
                kl_fed, kl_local = _kl_reference(cfg, clouds, clusters, posteriors, local_densities, ref_prev)

            estimates: dict[int, np.ndarray] = {}
            matched: dict[int, dict[int, tuple[float, float] | None]] = {}
            resolved: dict[int, bool] = {}
            read, joined = {}, {}
            for k in radar_ids:
                posterior = posteriors[k]
                if id(posterior) not in read:
                    support = grid_support(posterior, cfg.tau)
                    found = extract_targets(posterior, support, cfg.min_separation)
                    _freeze(found)
                    read[id(posterior)] = support, found, _associate(scene.centers, found)
                support, estimates[k], matches = read[id(posterior)]
                matched[k] = dict(matches)
                resolved[k] = len(estimates[k]) >= len(scene.centers)
                if (id(support), id(fresh[k])) not in joined:
                    joined[id(support), id(fresh[k])] = reconstruct_scene(support, fresh[k])
                prev_support[k] = joined[id(support), id(fresh[k])]

            if grid_dump is not None and epoch % dump_every == 0:
                for k in radar_ids:
                    spec = posteriors[k].spec
                    write_csv(dump_dir / f"epoch{epoch:05d}_radar{k}.csv", GRID_DUMP_HEADER,
                              [[spec.x_min, spec.x_max, spec.y_min, spec.y_max, spec.resolution],
                               *posteriors[k].mass.tolist()])

            records.append(
                EpochRecord(
                    epoch=epoch,
                    truth={t: (float(c[0]), float(c[1])) for t, c in scene.centers.items()},
                    target_landmark={
                        spec.id: _nearest_waypoint(cfg, spec, scene.centers[spec.id])
                        for spec in cfg.targets
                    },
                    estimates=estimates,
                    matched=matched,
                    resolved=resolved,
                    tx_bits=tx_bits,
                    cloud_points={k: len(clouds[k]) for k in radar_ids},
                    kl_fed=kl_fed,
                    kl_local=kl_local,
                )
            )
    finally:
        if log_fh:
            log_fh.close()

    stats.epochs = cfg.n_epochs
    # In flight at the end: what the epochs after the last would deliver.
    for epoch in range(cfg.n_epochs + 1, cfg.n_epochs + 1 + history.depth):
        for k, msgs in deliver(cfg.topology, history, epoch, cfg.clock, cfg.dt).items():
            for msg in msgs:
                account_undelivered(stats, msg, k)
    return records, summarize(records, cfg, stats)


def _exchange(cfg, history, stats, link_rng, log_fh, epoch, tx_bits, outbox):
    """Push, charge, log and deliver one epoch's outbox; returns the inboxes."""
    history.push(epoch, outbox)
    for k in sorted(outbox):
        account(stats, outbox[k])
        tx_bits[k] = outbox[k].payload_bits
    if log_fh:
        write_replay((outbox[k] for k in sorted(outbox)), log_fh)
    inboxes = deliver(
        cfg.topology, history, epoch, cfg.clock, cfg.dt,
        rng=link_rng, motion_speed=cfg.prior_speed,
    )
    for k, msgs in inboxes.items():
        for msg in msgs:
            account_delivery(stats, msg, k)
    return inboxes


def compute_mae(
    records: Sequence[EpochRecord], radar: int
) -> tuple[tuple[float, float, int] | None, dict[str, tuple[float, float, int]]]:
    """Mean absolute error per axis over resolved epochs, after assignment.

    Returns the aggregate (mae_x, mae_y, n_samples) and a per-waypoint
    breakdown keyed by the target's nearest route landmark. Absent when no
    epoch was resolved.
    """
    err_x: list[float] = []
    err_y: list[float] = []
    by_label: dict[str, list[tuple[float, float]]] = {}
    for rec in records:
        if not rec.resolved.get(radar, False):
            continue
        for tid, true in rec.truth.items():
            est = rec.matched[radar].get(tid)
            if est is None:
                continue
            ex, ey = abs(est[0] - true[0]), abs(est[1] - true[1])
            err_x.append(ex)
            err_y.append(ey)
            by_label.setdefault(rec.target_landmark[tid], []).append((ex, ey))
    if not err_x:
        return None, {}
    overall = (float(np.mean(err_x)), float(np.mean(err_y)), len(err_x))
    breakdown = {
        label: (float(np.mean([e[0] for e in errs])), float(np.mean([e[1] for e in errs])), len(errs))
        for label, errs in sorted(by_label.items())
    }
    return overall, breakdown


def unresolved_probability(records: Sequence[EpochRecord], radar: int) -> float:
    """Fraction of epochs where fewer maxima than live targets were found."""
    if not records:
        raise ValueError("need at least one epoch")
    unresolved = sum(1 for rec in records if not rec.resolved.get(radar, False))
    return unresolved / len(records)


def _distribution(samples: Sequence[float]) -> dict[str, float | tuple[float, ...]]:
    arr = np.asarray(samples, dtype=float)
    return {
        "median": float(np.median(arr)),
        "deciles": tuple(float(v) for v in np.quantile(arr, DECILES)),
    }


def kl_study(records: Sequence[EpochRecord]) -> dict:
    """Distributions of the divergence samples, pooled and per radar."""
    radars = sorted({k for rec in records for k in rec.kl_fed})
    fed_pooled = [rec.kl_fed[k] for rec in records for k in rec.kl_fed]
    out = {
        "fed_pooled": _distribution(fed_pooled) if fed_pooled else None,
        "fed": {},
        "local": {},
    }
    for k in radars:
        fed_k = [rec.kl_fed[k] for rec in records if k in rec.kl_fed]
        loc_k = [rec.kl_local[k] for rec in records if k in rec.kl_local]
        if fed_k:
            out["fed"][k] = _distribution(fed_k)
        if loc_k:
            out["local"][k] = _distribution(loc_k)
    return out


def summarize(records: Sequence[EpochRecord], cfg: ExperimentConfig, stats: LinkStats) -> MetricsRecord:
    radar_ids = [r.id for r in cfg.radars]
    overall, by_label = compute_mae(records, cfg.ego_radar) if records else (None, {})
    study = kl_study(records)
    cloud_mean = {
        k: float(np.mean([rec.cloud_points[k] for rec in records])) if records else 0.0
        for k in radar_ids
    }
    return MetricsRecord(
        mode=cfg.mode,
        n_epochs=len(records),
        ego_radar=cfg.ego_radar,
        mae_x=overall[0] if overall else None,
        mae_y=overall[1] if overall else None,
        mae_n=overall[2] if overall else 0,
        mae_by_landmark=by_label,
        p_u=unresolved_probability(records, cfg.ego_radar) if records else None,
        p_u_by_radar={k: unresolved_probability(records, k) for k in radar_ids} if records else {},
        tx_bits={k: stats.tx_bits.get(k, 0) for k in radar_ids},
        tx_rate_bits_per_s={k: float(stats.tx_rate(k)) for k in radar_ids},
        cloud_mean=cloud_mean,
        kl_fed_median=study["fed_pooled"]["median"] if study["fed_pooled"] else None,
        kl_fed_median_by_radar={k: d["median"] for k, d in study["fed"].items()},
        kl_local_median_by_radar={k: d["median"] for k, d in study["local"].items()},
        kl_fed_deciles=study["fed_pooled"]["deciles"] if study["fed_pooled"] else None,
    )


def format_value(value) -> str:
    """One CSV cell: empty for None, 1/0 for bools, shortest round-tripping
    form for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write the header, then every row with each cell through ``format_value``."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([format_value(v) for v in row] for row in rows)
    return path


def export_csv(
    records: Sequence[EpochRecord],
    metrics: MetricsRecord,
    out_dir: Path | str,
    cfg: ExperimentConfig,
) -> dict[str, Path]:
    """Write ``epochs.csv`` (one row per epoch and radar) and ``summary.csv``
    (``metrics_to_rows``)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target_ids = sorted(spec.id for spec in cfg.targets)
    radar_ids = [r.id for r in cfg.radars]

    header = ["epoch", "radar", "cloud_points", "tx_bits", "resolved", "n_estimates"]
    for tid in target_ids:
        header += [f"true_x_{tid}", f"true_y_{tid}", f"landmark_{tid}", f"est_x_{tid}", f"est_y_{tid}"]
    header += ["kl_global_fed", "kl_global_local"]

    def epoch_rows():
        for rec in records:
            for k in radar_ids:
                row = [rec.epoch, k, rec.cloud_points[k], rec.tx_bits[k], rec.resolved[k], len(rec.estimates[k])]
                for tid in target_ids:
                    est = rec.matched[k].get(tid) or (None, None)
                    row += [*rec.truth[tid], rec.target_landmark[tid], *est]
                yield row + [rec.kl_fed.get(k), rec.kl_local.get(k)]

    return {
        "epochs": write_csv(out / "epochs.csv", header, epoch_rows()),
        "summary": write_csv(out / "summary.csv", ("metric", "radar", "label", "value"), metrics_to_rows(metrics)),
    }


def metrics_to_rows(m: MetricsRecord) -> list[tuple]:
    rows: list[tuple] = [
        ("mode", "", "", m.mode),
        ("epochs", "", "", m.n_epochs),
        ("ego_radar", "", "", m.ego_radar),
        ("mae_n", "", "overall", m.mae_n),
    ]
    if m.mae_x is not None:
        rows += [("mae_x", "", "overall", m.mae_x), ("mae_y", "", "overall", m.mae_y)]
    for label, (mx, my, n) in m.mae_by_landmark.items():
        rows += [("mae_x", "", label, mx), ("mae_y", "", label, my), ("mae_n", "", label, n)]
    if m.p_u is not None:
        rows.append(("p_u", "", "", m.p_u))
    for name, values in (("p_u", m.p_u_by_radar), ("tx_bits", m.tx_bits),
                         ("tx_rate_bits_per_s", m.tx_rate_bits_per_s), ("cloud_mean", m.cloud_mean)):
        rows += [(name, k, "", values[k]) for k in sorted(values)]
    if m.kl_fed_median is not None:
        rows.append(("kl_fed_median", "", "pooled", m.kl_fed_median))
    for name, values in (("kl_fed_median", m.kl_fed_median_by_radar), ("kl_local_median", m.kl_local_median_by_radar)):
        rows += [(name, k, "", values[k]) for k in sorted(values)]
    if m.kl_fed_deciles is not None:
        rows += [("kl_fed_decile", "", f"d{int(q * 100)}", v) for q, v in zip(DECILES, m.kl_fed_deciles)]
    return rows


# sweep.csv's columns in order, each with the type ``read_sweep`` parses it
# as; an empty cell is None. The float columns are the ones ``report`` aggregates.
SWEEP_COLUMNS = {"mode": str, "seed": int, "mae_x": float, "mae_y": float, "mae_n": int, "p_u": float,
                 "tx_rate_ego": float}
AGGREGATED = tuple(name for name, kind in SWEEP_COLUMNS.items() if kind is float)
REPORT_COLUMNS = ("mode", "runs", *(f"{name}_{stat}" for name in AGGREGATED for stat in ("mean", "median")))


def _sweep_seed(seed: int, configs: Sequence[ExperimentConfig]) -> list[dict]:
    """One seed's ``SWEEP_COLUMNS`` rows, one run per config in order, sharing one sensing record."""
    sensing = SensingRecord(seed)
    rows = []
    for cfg in configs:
        _, metrics = run_experiment(cfg, sensing=sensing)
        values = (cfg.mode, cfg.seed, metrics.mae_x, metrics.mae_y, metrics.mae_n, metrics.p_u,
                  metrics.tx_rate_bits_per_s.get(cfg.ego_radar, 0.0))
        rows.append(dict(zip(SWEEP_COLUMNS, values)))
    return rows


def run_sweep(
    cfg: ExperimentConfig,
    seeds: Iterable[int],
    modes: Sequence[str],
    kl_reference: bool = False,
    workers: int = 1,
) -> list[dict]:
    """Monte Carlo sweep: one run per (mode, seed), summarized as flat rows
    (``SWEEP_COLUMNS``) in mode-major order.

    A sweep never computes the KL reference, whatever ``cfg.kl_reference``
    says: no sweep row holds a divergence. ``kl_reference=True``, ``workers``
    below 1, no mode or a mode listed twice raise ValueError before any run.
    Every run's config is built, and so checked, before the first run. Each
    seed is one task: its modes run in the given order on one
    ``SensingRecord``, so the seed is sensed once. With ``workers > 1`` the
    seeds are spread over a process pool, and fewer seeds than workers leave
    a worker idle. Each run is still fully determined by its (config, seed).
    """
    if kl_reference:
        raise ValueError("a sweep never computes the KL reference; no sweep row holds a divergence")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not modes:
        raise ValueError("a sweep needs at least one mode")
    repeated = [mode for i, mode in enumerate(modes) if mode in modes[:i]]
    if repeated:
        raise ValueError(f"mode {repeated[0]!r} is listed twice")
    seeds = [int(seed) for seed in seeds]
    tasks = [(seed, [replace(cfg, mode=mode, seed=seed, kl_reference=False) for mode in modes])
             for seed in seeds]
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(workers) as pool:
            per_seed = pool.starmap(_sweep_seed, tasks, chunksize=1)
    else:
        per_seed = [_sweep_seed(*task) for task in tasks]
    return [rows[i] for i in range(len(modes)) for rows in per_seed]


def read_sweep(path: Path | str) -> list[dict]:
    """The rows of a sweep.csv, typed as ``run_sweep`` returns them. ValueError names the
    first missing column, a row whose cell count is not the header's, or a cell that does not parse."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name in SWEEP_COLUMNS if name not in header]
        if missing:
            raise ValueError(f"{path}: no {missing[0]!r} column")
        rows = []
        for cells in filter(None, reader):  # skips blank lines
            where = f"{path}, line {reader.line_num}"
            if len(cells) != len(header):
                raise ValueError(f"{where}: {len(cells)} cells, the header has {len(header)}")
            raw = dict(zip(header, cells))
            rows.append({})
            for name, kind in SWEEP_COLUMNS.items():
                try:
                    rows[-1][name] = kind(raw[name]) if raw[name] else None
                except ValueError:
                    raise ValueError(f"{where}, column {name!r}: cannot read {raw[name]!r} as {kind.__name__}") \
                        from None
        return rows


def aggregate_sweep(rows: Sequence[dict]) -> list[dict]:
    """Per-mode means and medians of each ``AGGREGATED`` column, as
    ``REPORT_COLUMNS`` rows."""
    out = []
    for mode in sorted({r["mode"] for r in rows}):
        sub = [r for r in rows if r["mode"] == mode]
        values = [mode, len(sub)]
        for name in AGGREGATED:
            vals = [r[name] for r in sub if r[name] is not None]
            values += [float(np.mean(vals)), float(np.median(vals))] if vals else [None, None]
        out.append(dict(zip(REPORT_COLUMNS, values)))
    return out
