"""Spans and work counts recorded around the functions the runner calls.

Functions are wrapped at the module bindings the runner looks them up in
(``radarfuse.harness.observe``, ``radarfuse.fusion.fit_em``, ...), so the
program itself is untouched and spans nest exactly as the calls do. Each span
keeps its name, its parent span, its start and its end; a layer's self time
is its spans' durations minus the durations of their child spans. Times
come from the process CPU clock, as in the untraced run.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import process_time as clock

from workloads import FUSION_FUNCTIONS, SIDELINK_FUNCTIONS

# One DBSCAN call and one posterior grid in this many is kept for the
# brute-force and mass checks made after the traced pass.
SAMPLE_EVERY = 25


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: dict[str, int] = defaultdict(int)
        self.dbscan_samples: list[tuple] = []  # (points, eps, min_pts, labels, n_clusters)
        self.grid_sums: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self._seen: dict[str, int] = defaultdict(int)

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        original = getattr(module, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def sample(self, kind: str) -> bool:
        self._seen[kind] += 1
        return self._seen[kind] % SAMPLE_EVERY == 1

    def close(self) -> None:
        """Restore every wrapped binding, innermost last."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()


def _count_scene(tracer, args, scene):
    tracer.counts["scene.points"] += len(scene.points)


def _count_dbscan(tracer, args, result):
    cloud, eps, min_pts = args
    tracer.counts["sensor.dbscan.points"] += len(cloud.points)
    if tracer.sample("dbscan"):
        tracer.dbscan_samples.append((cloud.points.copy(), eps, min_pts, result.labels.copy(), result.n_clusters))


def _count_fit_em(tracer, args, mixture):
    n = len(args[0])
    tracer.counts["mixture.fit_em.points"] += n
    tracer.counts["mixture.fit_em.point_components"] += n * mixture.n_components


def _count_eval_on_grid(tracer, args, grid):
    tracer.counts["mixture.eval_on_grid.components"] += args[0].n_components


def _count_posterior_grid(tracer, args, result):
    if tracer.sample("grid"):
        grid = getattr(result, "grid", result)  # federated_posterior returns a Posterior
        tracer.grid_sums.append(float(grid.mass.sum()))


def _count_account(tracer, args, stats):
    tracer.counts["sidelink.tx_bits"] += args[1].payload_bits
    tracer.counts["sidelink.messages_sent"] += 1


def _count_delivery(tracer, args, stats):
    tracer.counts["sidelink.messages_delivered"] += 1


def install(tracer: Tracer, radarfuse) -> None:
    """Wrap every layer boundary the harness crosses (``radarfuse`` is the imported package)."""
    config, harness, fusion, sensor = radarfuse.config, radarfuse.harness, radarfuse.fusion, radarfuse.sensor
    wrap = tracer.wrap
    wrap(config, "load_config", "config.load_config")
    for fn in ("run_sweep", "run_experiment", "summarize", "export_csv"):
        wrap(harness, fn, f"harness.{fn}")
    wrap(harness, "advance_scene", "scene.advance_scene", _count_scene)
    wrap(harness, "observe", "sensor.observe")
    wrap(harness, "preprocess", "sensor.preprocess")
    wrap(harness, "dbscan", "sensor.dbscan", _count_dbscan)  # received clouds
    wrap(sensor, "dbscan", "sensor.dbscan", _count_dbscan)  # inside preprocess
    wrap(fusion, "fit_em", "mixture.fit_em", _count_fit_em)
    wrap(fusion, "eval_on_grid", "mixture.eval_on_grid", _count_eval_on_grid)
    wrap(harness, "eval_on_grid", "mixture.eval_on_grid", _count_eval_on_grid)
    wrap(harness, "kl_divergence", "mixture.kl_divergence")
    posterior_grids = {"bayes_product", "federated_posterior"}
    for fn in FUSION_FUNCTIONS:
        wrap(harness, fn, f"fusion.{fn}", _count_posterior_grid if fn in posterior_grids else None)
    counters = {"account": _count_account, "account_delivery": _count_delivery}
    for fn in SIDELINK_FUNCTIONS:
        wrap(harness, fn, f"sidelink.{fn}", counters.get(fn))


# Harness spans whose self time is glue, reported together as harness.self_s.
_HARNESS_GLUE = {"harness.run_sweep", "harness.run_experiment"}


def layer_metrics(tracer: Tracer, total_s: float) -> dict[str, float]:
    """Calls, self time and work counts per wrapped function.

    ``harness.self_s`` is the time of the traced round not covered by any
    other layer's self time, so the self times add up to ``total_s``.
    """
    spans = tracer.spans
    out: dict[str, float] = defaultdict(int)
    for (name, parent, _, _), own in zip(spans, self_times(spans)):
        out[f"{name}.self_s"] += own
        out[f"{name}.calls"] += 1
        if name == "sensor.dbscan" and (parent < 0 or spans[parent][0] != "sensor.preprocess"):
            out["sensor.dbscan.received_calls"] += 1
            out["sensor.dbscan.received_self_s"] += own
    out.update(tracer.counts)
    layered = sum(v for k, v in out.items() if k.endswith(".self_s") and k[: -len(".self_s")] not in _HARNESS_GLUE
                  and k != "sensor.dbscan.received_self_s")
    out["harness.self_s"] = total_s - layered
    out["trace.total_s"] = total_s
    return out


def by_caller(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Calls and self time per (function, calling span), for the trace file."""
    spans = tracer.spans
    out: dict[str, dict[str, float]] = {}
    for (name, parent, _, _), own in zip(spans, self_times(spans)):
        caller = spans[parent][0] if parent >= 0 else "-"
        entry = out.setdefault(f"{name} <- {caller}", {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += own
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, _, start, end), c in zip(spans, child)]
