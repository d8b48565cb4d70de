"""The benchmark's workloads and metric names.

Plain data only, so the launcher can read it without importing numpy. A
workload is a round of operations repeated with fresh seeds until the run's
time is up; an operation is one ``run_experiment`` call.
"""

from __future__ import annotations

from dataclasses import dataclass

MODES = ("isolated", "cooperation", "federation")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenario: str  # packaged scenario name
    modes: tuple[str, ...]  # one operation per mode in each round
    epochs: int | None  # None keeps the scenario's own length
    kl_reference: bool
    write_outputs: bool  # replay log and CSV export inside each operation
    sweep: bool  # drive the round through run_sweep(workers=1)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-converging",
            why="run_sweep over converging, all three modes, KL off: small clouds on a fine grid, "
            "so per-call overhead and harness glue dominate",
            scenario="converging",
            modes=MODES,
            epochs=None,
            kl_reference=False,
            write_outputs=False,
            sweep=True,
        ),
        Workload(
            name="kl-default",
            why="default federation with the pooled KL reference: about two thirds of the time "
            "is EM on large weighted clouds",
            scenario="default",
            modes=("federation",),
            epochs=50,
            kl_reference=True,
            write_outputs=False,
            sweep=False,
        ),
        Workload(
            name="coop-default",
            why="default cooperation with replay log and CSV export: large raw clouds on the link, "
            "DBSCAN of every received cloud",
            scenario="default",
            modes=("cooperation",),
            epochs=50,
            kl_reference=False,
            write_outputs=True,
            sweep=False,
        ),
    )
}


def program_seed(bench_seed: int, round_index: int) -> int:
    """Seed handed to the program for one round: fresh per round, fixed by the benchmark seed."""
    return 1000 * bench_seed + round_index


# (name, unit, better, bound): the end-to-end metrics of an untraced run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("epochs_per_s", "epoch/s", "higher", 0.25),
    ("epoch_ms_p50", "ms", "lower", 0.25),
    ("epoch_ms_p95", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

FUSION_FUNCTIONS = (
    "likelihood_from_cloud",
    "pooled_likelihood",
    "motion_prior",
    "bayes_product",
    "refit_posterior_mixture",
    "federated_posterior",
    "grid_support",
    "reconstruct_scene",
    "extract_targets",
)

SIDELINK_FUNCTIONS = (
    "encode_coop",
    "decode_coop",
    "encode_fed",
    "decode_fed",
    "deliver",
    "account",
    "account_delivery",
    "write_replay",
)

# (name, unit, better): the per-layer metrics of a traced run.
PER_LAYER = (
    ("config.load_config.self_s", "s", "lower"),
    ("scene.advance_scene.self_s", "s", "lower"),
    ("scene.advance_scene.calls", "count", "lower"),
    ("scene.points", "count", "lower"),
    ("sensor.observe.self_s", "s", "lower"),
    ("sensor.preprocess.self_s", "s", "lower"),
    ("sensor.dbscan.self_s", "s", "lower"),
    ("sensor.dbscan.calls", "count", "lower"),
    ("sensor.dbscan.points", "count", "lower"),
    ("sensor.dbscan.received_calls", "count", "lower"),
    ("sensor.dbscan.received_self_s", "s", "lower"),
    ("mixture.fit_em.self_s", "s", "lower"),
    ("mixture.fit_em.calls", "count", "lower"),
    ("mixture.fit_em.points", "count", "lower"),
    ("mixture.fit_em.point_components", "count", "lower"),
    ("mixture.eval_on_grid.self_s", "s", "lower"),
    ("mixture.eval_on_grid.calls", "count", "lower"),
    ("mixture.eval_on_grid.components", "count", "lower"),
    ("mixture.kl_divergence.self_s", "s", "lower"),
    ("mixture.kl_divergence.calls", "count", "lower"),
    *(m for f in FUSION_FUNCTIONS for m in ((f"fusion.{f}.self_s", "s", "lower"), (f"fusion.{f}.calls", "count", "lower"))),
    *((f"sidelink.{f}.self_s", "s", "lower") for f in SIDELINK_FUNCTIONS),
    ("sidelink.tx_bits", "bit", "lower"),
    ("sidelink.messages_sent", "count", "lower"),
    ("sidelink.messages_delivered", "count", "higher"),
    ("harness.self_s", "s", "lower"),
    ("harness.summarize.self_s", "s", "lower"),
    ("harness.export_csv.self_s", "s", "lower"),
    ("trace.total_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)
