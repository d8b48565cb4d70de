"""radarfuse benchmark: end-to-end metrics per workload, or per-layer metrics with --trace 1.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep-converging --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py            # every workload, seed 0, 30 s each

Each workload runs in a fresh worker process (worker.py) that imports the
program from ``src/``. Set-up time is the CPU time a worker spends from its
start to its first epoch, scaled by the calibration kernel (calibration.py),
measured on several probe workers and reported as the median. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5  # probe workers whose set-up is timed
TIME_LIMIT_S = 170.0  # per workload; a run must end within 180 s

# Single-threaded BLAS: the arrays are small, and the runs stay steady on a
# shared 2-core machine.
BLAS_THREADS = "1"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def spawn(args: list[str], timeout: float) -> dict:
    """Run worker.py to completion and return its JSON line."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, env=worker_env(),
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: float, traced: bool, deadline: float) -> dict:
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not traced:
        for _ in range(SETUP_SAMPLES):
            setups.append(spawn(common + ["--probe"], deadline - time.monotonic())["setup_s"])
    out = spawn(common + ["--trace", str(int(traced))], deadline - time.monotonic())
    values = out["values"]
    if traced:
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _ in PER_LAYER}
    else:
        values["setup_s"] = statistics.median(setups)
        metrics = {m: {"value": values[m], "unit": unit} for m, unit, _, _ in END_TO_END}
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "radarfuse" / "__init__.py").is_file():
        print(f"perfbench: no radarfuse sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        try:
            deadline = time.monotonic() + TIME_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: {name}: {err}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
