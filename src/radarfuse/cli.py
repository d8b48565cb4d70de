"""Command-line entry point.

Subcommands:
  run     one experiment, writes epochs.csv and summary.csv
  sweep   Monte Carlo over seeds and modes, writes sweep.csv (never the KL reference)
  kl      divergence study (federation run with the pooled reference)
  report  aggregate a sweep.csv into per-mode statistics
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import MODES, load_config
from .harness import (
    DECILES,
    REPORT_COLUMNS,
    SWEEP_COLUMNS,
    aggregate_sweep,
    export_csv,
    kl_study,
    read_sweep,
    run_experiment,
    run_sweep,
    write_csv,
)
from .scene import ConfigError


def _add_common(parser: argparse.ArgumentParser) -> None:
    """The options of every command that runs a scenario; each command adds the overrides it reads."""
    parser.add_argument("--config", required=True, help="scenario file or builtin name (default, converging)")
    parser.add_argument("--epochs", type=int, help="override the epoch count")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radarfuse", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    # No option is abbreviated, so one that a command lacks (sweep --mode) is
    # refused rather than read as another (--modes).
    run_p = sub.add_parser("run", help="run one experiment", allow_abbrev=False)
    _add_common(run_p)
    run_p.add_argument("--mode", choices=MODES, help="override the scenario mode")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--dump-grids", type=int, metavar="N",
                       help="dump posterior grids every N >= 1 epochs into OUT/grids")
    run_p.add_argument("--messages-out", help="write the sidelink replay log to this file")

    sweep_p = sub.add_parser("sweep", help="Monte Carlo sweep over seeds", allow_abbrev=False,
                             description="Monte Carlo sweep over seeds and modes; writes sweep.csv. A sweep "
                             "never computes the KL reference, whatever the scenario's kl_reference says.")
    _add_common(sweep_p)
    sweep_p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    sweep_p.add_argument("--seed-start", type=int, default=0)
    sweep_p.add_argument("--modes", default="isolated,cooperation,federation",
                         help="comma-separated modes to sweep")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes, each running one seed's modes at a time")

    kl_p = sub.add_parser("kl", help="divergence study (forces federation mode)", allow_abbrev=False)
    _add_common(kl_p)
    kl_p.add_argument("--seed", type=int, help="override the scenario seed")

    report_p = sub.add_parser("report", help="aggregate sweep results", allow_abbrev=False)
    report_p.add_argument("--out", required=True, help="directory containing sweep.csv")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, mode=args.mode, seed=args.seed, epochs=args.epochs)
    out = Path(args.out)  # made by the run or the export, after the run's checks
    grid_dump = (out / "grids", args.dump_grids) if args.dump_grids is not None else None
    records, metrics = run_experiment(cfg, message_log=args.messages_out, grid_dump=grid_dump)
    paths = export_csv(records, metrics, out, cfg)
    print(f"wrote {paths['epochs']} and {paths['summary']}")
    if metrics.mae_x is not None:
        print(f"mode={cfg.mode} mae_x={metrics.mae_x:.4f} mae_y={metrics.mae_y:.4f} p_u={metrics.p_u:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    for option, value in (("--seeds", args.seeds), ("--workers", args.workers)):
        if value < 1:
            raise ConfigError(f"{option} must be >= 1, got {value}")
    cfg = load_config(args.config, epochs=args.epochs)
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    rows = run_sweep(cfg, seeds, modes, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = write_csv(out / "sweep.csv", SWEEP_COLUMNS, (row.values() for row in rows))
    print(f"wrote {path} ({len(rows)} runs)")
    return 0


def _cmd_kl(args) -> int:
    cfg = load_config(args.config, mode="federation", seed=args.seed, epochs=args.epochs, kl_reference=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records, metrics = run_experiment(cfg)
    export_csv(records, metrics, out, cfg)
    study = kl_study(records)
    rows = [("global_vs_federated", "pooled", study["fed_pooled"])] if study["fed_pooled"] else []
    rows += [("global_vs_federated", k, dist) for k, dist in study["fed"].items()]
    rows += [("global_vs_local", k, dist) for k, dist in study["local"].items()]
    header = ["comparison", "radar", "median"] + [f"d{int(q * 100)}" for q in DECILES]
    path = write_csv(out / "kl_summary.csv", header, ((c, k, d["median"], *d["deciles"]) for c, k, d in rows))
    print(f"wrote {path}")
    for k, dist in study["local"].items():
        fed_median = study["fed"][k]["median"]
        print(f"radar {k}: median divergence federated={fed_median:.4f} local={dist['median']:.4f}")
    return 0


def _cmd_report(args) -> int:
    agg = aggregate_sweep(read_sweep(Path(args.out) / "sweep.csv"))
    path = write_csv(Path(args.out) / "report.csv", REPORT_COLUMNS, (row.values() for row in agg))
    for row in agg:
        mae = f"mae_x={row['mae_x_mean']:.4f}" if row["mae_x_mean"] is not None else "mae_x=n/a"
        pu = f"p_u={row['p_u_mean']:.3f}" if row["p_u_mean"] is not None else "p_u=n/a"
        print(f"{row['mode']}: runs={row['runs']} {mae} {pu}")
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"run": _cmd_run, "sweep": _cmd_sweep, "kl": _cmd_kl, "report": _cmd_report}
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
