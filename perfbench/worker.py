"""Runs one workload in this process and prints its result as one JSON line.

Started by run.py, which puts the program's sources on PYTHONPATH and fixes
the BLAS thread count before numpy loads. Rounds of operations repeat with
fresh program seeds until ``--seconds`` have passed; each round is checked
after it ends, outside the timed rounds. Times are read from the process CPU
clock and scaled by the calibration kernel run before every epoch (see
README.md). With ``--trace 1`` the last round is then repeated, without the
kernel, with every layer boundary wrapped, and the per-layer metrics come
from that pass. With ``--probe`` the process stops at its first epoch and
only reports its scaled set-up time.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import process_time as clock

import radarfuse
from radarfuse import config, harness

import calibration
import checks
import tracing
from workloads import PER_LAYER, WORKLOADS, Workload, program_seed

OUT_ROOT = Path(__file__).resolve().parent / "out"


class FirstEpochReached(Exception):
    pass


@dataclass
class Run:
    """One run_experiment call: its epoch intervals, kernel times and outputs."""

    cfg: object
    epoch_starts: list[float] = field(default_factory=list)
    epoch_ends: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # one calibration before each epoch
    records: list = field(default_factory=list)
    metrics: object = None
    stats: object = None


@dataclass
class Round:
    seed: int
    runs: list[Run]
    rows: list | None  # run_sweep's rows, when the workload sweeps
    error: str | None
    cpu_s: float  # the calibration kernel included

    @property
    def kernel_s(self) -> list[float]:
        return [k for run in self.runs for k in run.kernel_s]

    @property
    def program_s(self) -> float:
        """CPU time of the round without the calibration kernel."""
        return self.cpu_s - sum(self.kernel_s)

    def release(self) -> None:
        """Drop the outputs once checked, so memory and garbage collection
        do not grow with the number of rounds; the epoch times stay."""
        self.rows = None
        for run in self.runs:
            run.records, run.metrics, run.stats = [], None, None


class Recorder:
    """Hooks on the runner's bindings: one timestamp per epoch, and each
    run's outputs and link statistics kept for the checks."""

    def __init__(self, stop_at_first_epoch: bool = False):
        self.runs: list[Run] = []
        self.setup_s: float | None = None  # CPU time from process start to the first epoch
        self.stop_at_first_epoch = stop_at_first_epoch
        self.calibrate = True

    def install(self) -> None:
        advance_scene, run_experiment, summarize = harness.advance_scene, harness.run_experiment, harness.summarize

        def timed_advance_scene(*args, **kwargs):
            now = clock()
            if self.setup_s is None:
                self.setup_s = now
                if self.stop_at_first_epoch:
                    raise FirstEpochReached
            run = self.runs[-1]
            if run.epoch_starts:
                run.epoch_ends.append(now)
            if self.calibrate:
                run.kernel_s.append(calibration.timed_kernel())
            run.epoch_starts.append(clock())
            return advance_scene(*args, **kwargs)

        def recorded_run_experiment(cfg, **kwargs):
            run = Run(cfg)
            self.runs.append(run)
            run.records, run.metrics = result = run_experiment(cfg, **kwargs)
            run.epoch_ends.append(clock())
            return result

        def recorded_summarize(records, cfg, stats):
            self.runs[-1].stats = stats
            return summarize(records, cfg, stats)

        harness.advance_scene = timed_advance_scene
        harness.run_experiment = recorded_run_experiment
        harness.summarize = recorded_summarize


def run_round(wl: Workload, seed: int, out_dir: Path) -> list | None:
    """One round of operations with program seed ``seed``; returns run_sweep's rows when it sweeps."""
    cfg = config.load_config(wl.scenario, mode=wl.modes[0], seed=seed, epochs=wl.epochs,
                             kl_reference=wl.kl_reference)
    if wl.sweep:
        return harness.run_sweep(cfg, [seed], wl.modes, kl_reference=wl.kl_reference, workers=1)
    op_dir = _op_dir(out_dir, cfg)
    message_log = None
    if wl.write_outputs:
        op_dir.mkdir(parents=True, exist_ok=True)
        message_log = op_dir / "messages.jsonl"
    records, metrics = harness.run_experiment(cfg, message_log=message_log)
    if wl.write_outputs:
        harness.export_csv(records, metrics, op_dir, cfg)
    return None


def _op_dir(out_dir: Path, cfg) -> Path:
    return out_dir / f"{cfg.mode}-seed{cfg.seed}"


def play_round(wl: Workload, seed: int, out_dir: Path, recorder: Recorder) -> Round:
    first = len(recorder.runs)
    rows, error = None, None
    start = clock()
    try:
        rows = run_round(wl, seed, out_dir)
    except Exception:
        error = traceback.format_exc()
    return Round(seed, recorder.runs[first:], rows, error, clock() - start)


def check_round(wl: Workload, rnd: Round, out_dir: Path) -> tuple[int, int]:
    """Attempted and failed operations of one round; failures go to stderr."""
    attempted = len(wl.modes)
    if rnd.error or len(rnd.runs) != attempted:
        print(f"round with seed {rnd.seed} did not complete:\n{rnd.error}", file=sys.stderr)
        return attempted, attempted
    errors = [[] for _ in rnd.runs]
    for errs, run in zip(errors, rnd.runs):
        errs += checks.check_bits(run.cfg, run.records, run.metrics, run.stats)
        errs += checks.check_accuracy(run.cfg, run.records, run.metrics)
        if wl.kl_reference:
            errs += checks.check_divergence(run.cfg, run.records, run.metrics)
        if wl.write_outputs:
            errs += checks.check_outputs(run.cfg, run.records, run.metrics, _op_dir(out_dir, run.cfg))
    if wl.sweep:
        for errs, sweep_errs in zip(errors, checks.check_sweep(rnd.rows, rnd.runs)):
            errs += sweep_errs
    for run, errs in zip(rnd.runs, errors):
        for err in errs:
            print(f"{run.cfg.mode} seed {run.cfg.seed}: {err}", file=sys.stderr)
    return attempted, sum(1 for errs in errors if errs)


def export_for_comparison(wl: Workload, rnd: Round, out_dir: Path) -> None:
    """CSVs of a round whose operations do not export their own."""
    if not wl.write_outputs:
        for run in rnd.runs:
            harness.export_csv(run.records, run.metrics, _op_dir(out_dir, run.cfg), run.cfg)


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Throughput over the rounds and per-epoch latency, scaled to the reference speed.

    An epoch lasts from its call into advance_scene to the next one; the
    last epoch of a run ends when run_experiment returns. The calibration
    kernel run before each epoch is not part of it. Each epoch's time is
    scaled by the kernel times of its neighbours, each round's time by the
    round's mean kernel time. Rounds that raised and the checks between
    rounds are not counted.
    """
    complete = [rnd for rnd in rounds if rnd.error is None]
    intervals = []
    scaled_s = 0.0
    for rnd in complete:
        for run in rnd.runs:
            scales = calibration.local_scales(run.kernel_s)
            intervals += [(e - s) * k for s, e, k in zip(run.epoch_starts, run.epoch_ends, scales)]
        kernel = rnd.kernel_s
        scaled_s += rnd.program_s * calibration.REFERENCE_S * len(kernel) / sum(kernel)
    return {
        "epochs_per_s": len(intervals) / scaled_s,
        "epoch_ms_p50": 1e3 * statistics.median(intervals),
        "epoch_ms_p95": 1e3 * statistics.quantiles(intervals, n=20, method="inclusive")[18],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl: Workload, reference: Round, out_dir: Path, recorder: Recorder) -> tuple[Round, dict, list[str]]:
    """Replay ``reference`` with every layer boundary wrapped.

    Returns the traced round, the per-layer metrics and the errors of the
    checks that only a traced run can make.
    """
    untraced_dir, traced_dir = out_dir / "untraced", out_dir / "traced"
    tracer = tracing.Tracer()
    tracing.install(tracer, radarfuse)
    recorder.calibrate = False
    try:
        rnd = play_round(wl, reference.seed, traced_dir, recorder)
    finally:
        tracer.close()
    layers = tracing.layer_metrics(tracer, rnd.cpu_s)
    layers["trace.overhead_s"] = rnd.cpu_s - reference.program_s
    metrics = {name: layers.get(name, 0) for name, _, _ in PER_LAYER}

    export_for_comparison(wl, reference, untraced_dir)
    export_for_comparison(wl, rnd, traced_dir)
    errors = checks.same_files(untraced_dir, traced_dir)
    errors += checks.check_dbscan_samples(tracer.dbscan_samples)
    errors += checks.check_grid_sums(tracer.grid_sums)
    errors += [f"span {span[0]} is shorter than its children"
               for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)) if own < -1e-6]
    reported = sum(metrics[name] for name, unit, _ in PER_LAYER if unit == "s"
                   and not name.startswith("trace.") and name != "sensor.dbscan.received_self_s")
    if abs(reported - rnd.cpu_s) > 1e-6:
        errors.append(f"per-layer self times add up to {reported} s, the traced round took {rnd.cpu_s} s")
    (out_dir / "trace.json").write_text(json.dumps(
        {"workload": wl.name, "seed": rnd.seed, "spans": len(tracer.spans), "metrics": metrics,
         "by_caller": tracing.by_caller(tracer)}, indent=1))
    return rnd, metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    out_dir = OUT_ROOT / wl.name
    recorder = Recorder(stop_at_first_epoch=args.probe)
    recorder.install()

    if args.probe:
        try:
            run_round(wl, program_seed(args.seed, 0), OUT_ROOT / "probe" / wl.name)
        except FirstEpochReached:
            print(json.dumps({"setup_s": recorder.setup_s * calibration.setup_scale()}))
            return 0
        return 1

    shutil.rmtree(out_dir, ignore_errors=True)
    untraced_dir = out_dir / "untraced"
    rounds: list[Round] = []
    correct = True
    attempted = failed = 0
    start = time.monotonic()
    while not rounds or time.monotonic() - start < args.seconds:
        rnd = play_round(wl, program_seed(args.seed, len(rounds)), untraced_dir, recorder)
        a, f = check_round(wl, rnd, untraced_dir)
        attempted, failed = attempted + a, failed + f
        if rounds:
            rounds[-1].release()
        rounds.append(rnd)
    result = end_to_end(rounds)

    if args.trace:
        rnd, result, errors = traced_run(wl, rounds[-1], out_dir, recorder)
        a, f = check_round(wl, rnd, out_dir / "traced")
        attempted, failed = attempted + a, failed + f
        for err in errors:
            print(f"trace: {err}", file=sys.stderr)
        correct = not errors

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "values": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
