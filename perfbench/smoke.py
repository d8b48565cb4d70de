"""Smoke test of the benchmark: every workload, one short round, all checks on.

    python3 perfbench/smoke.py

Runs every workload untraced and traced with ``--seconds 1`` (one round
each) and requires a correct result with no failed operation and exactly the
metrics that BENCHMARK.json declares. It also requires the benchmark to
refuse, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's own files. Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--seed", "0", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=600)


def check_declaration() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in bench["workloads"]] != list(WORKLOADS):
        fail("BENCHMARK.json workloads differ from workloads.py")
    declared = [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    if declared != list(END_TO_END):
        fail("BENCHMARK.json end_to_end metrics differ from workloads.py")
    if [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] != list(PER_LAYER):
        fail("BENCHMARK.json per_layer metrics differ from workloads.py")


def check_runs() -> None:
    for trace, metrics in (("0", END_TO_END), ("1", PER_LAYER)):
        proc = run(ROOT, "--workload", "all", "--trace", trace)
        if proc.returncode != 0:
            fail(f"--trace {trace} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        # One round per workload, replayed once more when traced.
        rounds = 2 if trace == "1" else 1
        expected_ops = rounds * sum(len(w.modes) for w in WORKLOADS.values())
        if not result["correct"] or result["failed"] != 0 or result["attempted"] != expected_ops:
            fail(f"--trace {trace}: {result['correct']=} {result['attempted']=} {result['failed']=}")
        expected = {f"{w}.{m[0]}" for w in WORKLOADS for m in metrics}
        if set(result["metrics"]) != expected:
            fail(f"--trace {trace}: metric names differ from the declaration")
        print(f"smoke: --trace {trace} ok, {result['attempted']} operations")


def check_refuses_without_sources() -> None:
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(bare, "--workload", "kl-default", "--trace", "0")
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("the benchmark ran or printed a result without the program's sources")
    print("smoke: refuses without sources ok")


if __name__ == "__main__":
    check_declaration()
    check_refuses_without_sources()
    check_runs()
    print("smoke: all ok")
