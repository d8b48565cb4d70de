"""Compare two source trees on the benchmark in alternating pairs of runs.

Usage, from the root of the checkout under test:

    python3 tools/bench_pairs.py --parent /tmp/parent --pairs 10 --seconds 30 \
        --seeds 3,11 --out BENCH_label.json

``--parent`` is another checkout (for instance ``git archive <commit> | tar
-x -C /tmp/parent``); the working tree is the change. Pair i runs
``python3 perfbench/run.py --trace 0`` once in each tree with seed
``seeds[i % len(seeds)]``; the parent runs first in even pairs and the
change first in odd pairs, so drift on the machine falls on both sides.

The JSON written to ``--out`` holds every run's result and, per workload
and end-to-end metric, the median and quartiles of each side, the relative
change of the medians, the number of pairs the change won (a strictly
better value in that pair, by the metric's direction in ``BENCHMARK.json``)
and a verdict, which is also printed:

* ``gain``: the change won at least 9 in 10 of the pairs, and its median
  is better than the parent's by more than the parent's interquartile
  range;
* ``worse than bound``: the change's median is worse than the parent's by
  more than the metric's relative bound in ``BENCHMARK.json``;
* ``no change`` otherwise.

It also records the machine, the library versions and the ``src/`` line
count of both trees. The exit status is 1 unless every run ended
``correct`` with 0 failed operations.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

CHANGE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its final JSON line, with the
    metrics regrouped as ``{workload: {metric: value}}``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "error": f"exit {proc.returncode}", "metrics": {}}
    out = json.loads(lines[-1])
    metrics: dict[str, dict[str, float]] = {}
    for key, metric in out["metrics"].items():
        name, _, field = key.rpartition(".") if workload == "all" else (workload, ".", key)
        metrics.setdefault(name, {})[field] = metric["value"]
    return {"correct": out["correct"], "attempted": out["attempted"], "failed": out["failed"], "metrics": metrics}


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def verdict(stats: dict, better: str, bound: float | None) -> str:
    """``gain``, ``worse than bound`` or ``no change`` for one metric's
    ``summarize`` entry (see the module docstring); ``better`` is ``lower``
    or ``higher``, and ``bound`` is relative (None: no bound)."""
    sign = -1.0 if better == "lower" else 1.0
    parent, change = stats["parent"], stats["change"]
    gained = sign * (change["median"] - parent["median"])
    if 10 * stats["pairs_won"] >= 9 * stats["pairs"] and gained > parent["q3"] - parent["q1"]:
        return "gain"
    if bound is not None and stats["median_change"] is not None and sign * stats["median_change"] < -bound:
        return "worse than bound"
    return "no change"


def summarize(runs: list[dict], directions: dict[str, str], bounds: dict[str, float]) -> dict:
    """Per workload and metric: both sides' spread, the median change, the pairs won and the verdict,
    over the pairs in which both runs read the metric. A failed run reads none."""
    names: dict[str, dict[str, None]] = {}  # workload -> metric names, in the order first seen
    for run in runs:
        for side in SIDES:
            for workload, metrics in run[side]["metrics"].items():
                names.setdefault(workload, {}).update(dict.fromkeys(metrics))
    summary: dict[str, dict] = {}
    for workload, metrics in names.items():
        for metric in metrics:
            pairs = [tuple(r[side]["metrics"].get(workload, {}).get(metric) for side in SIDES) for r in runs]
            pairs = [(p, c) for p, c in pairs if p is not None and c is not None]
            if not pairs:
                continue
            sign = -1.0 if directions.get(metric, "lower") == "lower" else 1.0
            parent, change = spread([p for p, _ in pairs]), spread([c for _, c in pairs])
            stats = {
                "parent": parent,
                "change": change,
                "median_change": change["median"] / parent["median"] - 1.0 if parent["median"] else None,
                "pairs_won": sum(sign * (c - p) > 0 for p, c in pairs),
                "pairs": len(pairs),
            }
            stats["verdict"] = verdict(stats, directions.get(metric, "lower"), bounds.get(metric))
            summary.setdefault(workload, {})[metric] = stats
    return summary


def src_lines(tree: Path) -> int:
    return sum(len(path.read_text().splitlines()) for path in (tree / "src").rglob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, type=Path, help="root of the parent checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--seeds", default="3,11", help="comma-separated seeds, used in turn")
    parser.add_argument("--workload", default="all")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    trees = {"parent": args.parent.resolve(), "change": CHANGE}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            print(f"bench_pairs: no perfbench/run.py under {tree}", file=sys.stderr)
            return 2

    runs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_bench(trees[side], args.workload, seed, args.seconds)
            res = pair[side]
            print(f"pair {i} seed {seed} {side}: correct={res['correct']} failed={res['failed']}", file=sys.stderr)
        runs.append(pair)

    bench = json.loads((CHANGE / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = all(r[side]["correct"] and r[side]["failed"] == 0 for r in runs for side in SIDES)
    result = {
        "command": {"pairs": args.pairs, "seconds": args.seconds, "seeds": seeds, "workload": args.workload},
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count(), "python": platform.python_version(),
                    "numpy": version("numpy"), "scipy": version("scipy")},
        "all_correct": ok,
        "summary": summarize(runs, directions, bounds) if runs else {},
        "runs": runs,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    for workload, metrics in result["summary"].items():
        for metric, s in metrics.items():
            change = "" if s["median_change"] is None else f" ({100 * s['median_change']:+.1f}%)"
            print(f"{workload} {metric}: {s['parent']['median']:.4g} -> {s['change']['median']:.4g}{change}, "
                  f"won {s['pairs_won']}/{s['pairs']}: {s['verdict']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
