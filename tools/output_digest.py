"""Run a fixed matrix of radarfuse CLI commands and print a digest of every output file.

The matrix covers every output the CLI writes:

* ``run --dump-grids 10 --messages-out`` for the ``default`` and
  ``converging`` scenarios x isolated / cooperation / federation x seeds 3
  and 5, 40 epochs each (epochs.csv, summary.csv, replay log, grid dumps);
* ``kl`` on both scenarios, seed 3, 40 epochs (kl_summary.csv);
* ``sweep`` of 3 ``converging`` seeds in all three modes and ``report`` on
  it (sweep.csv, report.csv);
* the same ``sweep`` with the modes in another order on 2 workers
  (sweep.csv), so each seed's later modes replay what federation sensed
  first, inside the worker pool;
* the ``run`` commands of the first item, seed 3 only, on a copy of
  ``converging`` stripped to its required keys, so that every other
  setting (the top-level keys, ``dbscan``, ``mixture``, ``clock``, each
  radar's ``model`` and each target's ``center_height``) takes the
  loader's default. No shipped scenario leaves these out;
* ``run`` in cooperation and federation, seed 3, on two more copies of
  ``converging``: one whose radar 2 messages arrive one period late over a
  partial topology (radars 1 and 3 receive from each other and from radar
  2, radar 2 only from radar 3), and one with clock jitter
  (``jitter_std`` 0.002). There receivers get older or noisy copies of a
  message and pool different member sets, which the shipped scenarios,
  exact and fully connected, never do;
* ``kl``, seed 3, on the late-radar copy, whose radars have two distinct
  neighbourhoods, (1, 2, 3) and (2, 3): the KL reference runs once per
  neighbourhood and shares each between the radars that have it.

Each output line is ``sha256  relative/path``, sorted by path. Two source
trees produce the same outputs exactly when their digests are equal, so a
refactor that must not move a byte is checked with

    git archive <parent> | tar -x -C /tmp/parent
    python3 tools/output_digest.py --src /tmp/parent /tmp/out-parent > parent.txt
    python3 tools/output_digest.py /tmp/out-change > change.txt
    diff parent.txt change.txt

The output directory must be new or empty. Runs are sequential, one
process at a time; the whole matrix writes 297 files in about a minute on
two cores.

A change that moves floating-point results is reported with

    python3 tools/output_digest.py --compare /tmp/out-parent /tmp/out-change

which lists, sorted by path, each file whose bytes differ between the two
output directories, with the largest relative change of a number in it,
``|a - b| / max(|a|, |b|)``. Numbers are compared in the order they
appear; a file whose text around the numbers differs, or that exists on
one side only, is listed with ``text`` or ``only in A`` / ``only in B``.
A moved CSV table is followed, in parentheses, by each column whose cells
moved and the worst relative change in it; ``summary.csv`` and
``kl_summary.csv`` name their moved rows by ``metric`` or ``comparison``
instead, and grid dumps, which are matrices, name nothing. The last line
counts the moved files; the exit status is 1 if any moved. Closing the
output early (``| head``) ends the comparison without an error message.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

SCENARIOS = ("default", "converging")
MODES = ("isolated", "cooperation", "federation")
SEEDS = (3, 5)
EPOCHS = 40
# The topology of the late-radar copy: edges (h, k), k receives from h.
PARTIAL = [[2, 1], [3, 1], [1, 3], [2, 3], [3, 2]]
# The keys a scenario, a target and a radar must have.
REQUIRED = {"": ("area", "grid_resolution", "landmarks", "targets", "radars"),
            "targets": ("id", "waypoints", "speed", "body_extent", "points_per_frame"),
            "radars": ("id", "position", "yaw_deg")}


def required_only(scenario: dict) -> dict:
    """The scenario without any key the loader has a default for."""
    kept = {key: scenario[key] for key in REQUIRED[""]}
    for key in ("targets", "radars"):
        kept[key] = [{k: item[k] for k in REQUIRED[key]} for item in scenario[key]]
    return kept


def variants(converging: dict) -> dict[str, tuple[dict, tuple[str, ...]]]:
    """The copies of ``converging`` the matrix runs, by output directory,
    each with the modes run on it."""
    late = {**converging, "clock": {**converging["clock"], "offsets": {"2": 0.010}}, "topology": PARTIAL}
    jitter = {**converging, "clock": {**converging["clock"], "jitter_std": 0.002}}
    return {"defaults": (required_only(converging), MODES),
            "late-partial": (late, ("cooperation", "federation")),
            "jitter": (jitter, ("cooperation", "federation"))}


def run_command(scenario: str, mode: str, seed: int, out: str) -> list[str]:
    return ["run", "--config", scenario, "--mode", mode, "--seed", str(seed), "--epochs", str(EPOCHS),
            "--out", out, "--dump-grids", "10", "--messages-out", f"{out}/messages.jsonl"]


def kl_command(scenario: str, out: str) -> list[str]:
    return ["kl", "--config", scenario, "--seed", "3", "--epochs", str(EPOCHS), "--out", out]


def commands(copies: dict[str, tuple[Path, tuple[str, ...]]]) -> list[list[str]]:
    """CLI argument lists of the matrix, relative to the output directory;
    ``copies`` maps each output directory of ``variants`` to its scenario
    file and modes."""
    cmds = []
    for scenario in SCENARIOS:
        for mode in MODES:
            for seed in SEEDS:
                cmds.append(run_command(scenario, mode, seed, f"run/{scenario}-{mode}-s{seed}"))
        cmds.append(kl_command(scenario, f"kl/{scenario}"))
    cmds.append(["sweep", "--config", "converging", "--seeds", "3", "--out", "sweep"])
    cmds.append(["report", "--out", "sweep"])
    cmds.append(["sweep", "--config", "converging", "--seeds", "3", "--modes", "federation,isolated,cooperation",
                 "--workers", "2", "--out", "sweep-reordered"])
    for name, (path, modes) in copies.items():
        for mode in modes:
            cmds.append(run_command(str(path), mode, 3, f"{name}/converging-{mode}-s3"))
    cmds.append(kl_command(str(copies["late-partial"][0]), "late-partial/kl"))
    return cmds


def digest(out: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        lines.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out).as_posix()}")
    return lines


# A decimal number as Python's repr and the CLI write it; NaN and infinities are compared as text.
NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def worst_change(a: str, b: str) -> float | None:
    """Largest relative change between the numbers of two texts, or None
    when the texts differ elsewhere than in their numbers."""
    parts_a, parts_b = NUMBER.split(a), NUMBER.split(b)
    # Odd positions hold the numbers, even ones the text between them.
    if len(parts_a) != len(parts_b) or parts_a[::2] != parts_b[::2]:
        return None
    worst = 0.0
    for x, y in zip(map(float, parts_a[1::2]), map(float, parts_b[1::2])):
        if x != y:
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return worst


# A table whose first column is one of these names each row, and a moved cell is named by its row.
ROW_NAMES = ("metric", "comparison")


def moved_cells(a: str, b: str) -> dict[str, float | None]:
    """Worst relative change per column of two CSV texts, None for a column
    that moved other than in its numbers. A row-named table (``ROW_NAMES``)
    is reported per row name instead. Empty unless both texts have the same
    header and the header's width in every row; a grid dump has neither."""
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    header = rows_a[0] if rows_a else []
    if not header or rows_b[:1] != [header] or len(rows_a) != len(rows_b) \
            or any(len(row) != len(header) for row in rows_a + rows_b):
        return {}
    worst: dict[str, float | None] = {}
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(header, row_a, row_b):
            if x != y:
                label = row_a[0] if header[0] in ROW_NAMES else name
                change, before = worst_change(x, y), worst.get(label, 0.0)
                worst[label] = None if change is None or before is None else max(before, change)
    return worst


def _change(worst: float | None) -> str:
    return "text" if worst is None else f"{worst:.3g}"


def compare(a: Path, b: Path) -> int:
    """Print each file that differs between output directories ``a`` and ``b``; 1 if any does."""
    files = {p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()}
    moved = 0
    for rel in sorted(files):
        cells = {}
        if not (a / rel).is_file() or not (b / rel).is_file():
            change = "only in A" if (a / rel).is_file() else "only in B"
        elif (a / rel).read_bytes() == (b / rel).read_bytes():
            continue
        else:
            text_a, text_b = (a / rel).read_text(), (b / rel).read_text()
            change = _change(worst_change(text_a, text_b))
            if rel.endswith(".csv"):
                cells = moved_cells(text_a, text_b)
        moved += 1
        columns = ", ".join(f"{label} {_change(worst)}" for label, worst in cells.items())
        print(f"{change:>10}  {rel}" + (f"  ({columns})" if columns else ""))
    print(f"{moved} of {len(files)} files moved")
    return 1 if moved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="root of the source tree to run (default: this checkout)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                        help="compare two output directories of this script instead of running the matrix")
    parser.add_argument("out", type=Path, nargs="?", help="output directory, new or empty")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out is None:
        parser.error("the output directory is required without --compare")

    package = args.src.resolve() / "src"
    if not (package / "radarfuse").is_dir():
        print(f"error: no radarfuse package under {package}", file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    if any(args.out.iterdir()):
        print(f"error: output directory {args.out} is not empty", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(package)}
    converging = json.loads((package / "radarfuse" / "scenarios" / "converging.json").read_text())
    with tempfile.TemporaryDirectory() as tmp:
        copies = {}
        for name, (scenario, modes) in variants(converging).items():
            path = Path(tmp) / f"converging-{name}.json"
            path.write_text(json.dumps(scenario))
            copies[name] = path, modes
        for cmd in commands(copies):
            result = subprocess.run([sys.executable, "-m", "radarfuse.cli", *cmd], cwd=args.out, env=env,
                                    stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
            if result.returncode != 0:
                print(f"error: radarfuse {' '.join(cmd)} exited {result.returncode}:\n{result.stderr}",
                      file=sys.stderr)
                return 1
    print("\n".join(digest(args.out)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # stdout was closed early (``--compare A B | head``): stop quietly,
        # without a second error when Python flushes stdout at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
