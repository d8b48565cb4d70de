"""Command-line entry point.

Subcommands:
  run     one experiment, writes epochs.csv and summary.csv
  sweep   Monte Carlo over seeds and modes, writes sweep.csv
  kl      divergence study (federation run with the pooled reference)
  report  aggregate a sweep.csv into per-mode statistics
"""

from __future__ import annotations

import argparse
import csv
import logging
import sys
from pathlib import Path

from .config import MODES, load_config
from .harness import (
    DECILES,
    aggregate_sweep,
    export_csv,
    format_value,
    kl_study,
    run_experiment,
    run_sweep,
)
from .scene import ConfigError


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario file or builtin name (default, converging)")
    parser.add_argument("--mode", choices=MODES, help="override the scenario mode")
    parser.add_argument("--seed", type=int, help="override the scenario seed")
    parser.add_argument("--epochs", type=int, help="override the epoch count")
    parser.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="radarfuse", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one experiment")
    _add_common(run_p)
    run_p.add_argument("--dump-grids", type=int, default=0, metavar="N",
                       help="dump posterior grids every N epochs")
    run_p.add_argument("--messages-out", help="write the sidelink replay log to this file")

    sweep_p = sub.add_parser("sweep", help="Monte Carlo sweep over seeds")
    _add_common(sweep_p)
    sweep_p.add_argument("--seeds", type=int, default=20, help="number of seeds")
    sweep_p.add_argument("--seed-start", type=int, default=0)
    sweep_p.add_argument("--modes", default="isolated,cooperation,federation",
                         help="comma-separated modes to sweep")
    sweep_p.add_argument("--workers", type=int, default=1,
                         help="parallel worker processes (runs are independent)")

    kl_p = sub.add_parser("kl", help="divergence study (forces federation mode)")
    _add_common(kl_p)

    report_p = sub.add_parser("report", help="aggregate sweep results")
    report_p.add_argument("--out", required=True, help="directory containing sweep.csv")
    return parser


def _cmd_run(args) -> int:
    cfg = load_config(args.config, mode=args.mode, seed=args.seed, epochs=args.epochs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records, metrics = run_experiment(
        cfg,
        message_log=args.messages_out,
        grid_dump_dir=out / "grids" if args.dump_grids else None,
        grid_dump_every=args.dump_grids,
    )
    paths = export_csv(records, metrics, out, cfg)
    print(f"wrote {paths['epochs']} and {paths['summary']}")
    if metrics.mae_x is not None:
        print(f"mode={cfg.mode} mae_x={metrics.mae_x:.4f} mae_y={metrics.mae_y:.4f} p_u={metrics.p_u:.3f}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config, mode=args.mode, epochs=args.epochs)
    seeds = range(args.seed_start, args.seed_start + args.seeds)
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    rows = run_sweep(cfg, seeds, modes, workers=args.workers)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    fields = ["mode", "seed", "mae_x", "mae_y", "mae_n", "p_u", "tx_rate_ego"]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: format_value(row[k]) for k in fields})
    print(f"wrote {path} ({len(rows)} runs)")
    return 0


def _cmd_kl(args) -> int:
    cfg = load_config(args.config, mode="federation", seed=args.seed, epochs=args.epochs, kl_reference=True)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records, metrics = run_experiment(cfg)
    export_csv(records, metrics, out, cfg)
    study = kl_study(records)
    path = out / "kl_summary.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["comparison", "radar", "median"] + [f"d{int(q * 100)}" for q in DECILES])
        rows = [("global_vs_federated", "pooled", study["fed_pooled"])] if study["fed_pooled"] else []
        rows += [("global_vs_federated", k, dist) for k, dist in study["fed"].items()]
        rows += [("global_vs_local", k, dist) for k, dist in study["local"].items()]
        for comparison, radar, dist in rows:
            writer.writerow([format_value(v) for v in (comparison, radar, dist["median"], *dist["deciles"])])
    print(f"wrote {path}")
    for k, dist in study["local"].items():
        fed_median = study["fed"][k]["median"]
        print(f"radar {k}: median divergence federated={fed_median:.4f} local={dist['median']:.4f}")
    return 0


def _cmd_report(args) -> int:
    sweep_path = Path(args.out) / "sweep.csv"
    if not sweep_path.exists():
        raise FileNotFoundError(f"no sweep results at {sweep_path}")
    with open(sweep_path, newline="") as fh:
        rows = []
        for raw in csv.DictReader(fh):
            rows.append(
                {
                    "mode": raw["mode"],
                    "seed": int(raw["seed"]),
                    "mae_x": float(raw["mae_x"]) if raw["mae_x"] else None,
                    "mae_y": float(raw["mae_y"]) if raw["mae_y"] else None,
                    "p_u": float(raw["p_u"]) if raw["p_u"] else None,
                    "tx_rate_ego": float(raw["tx_rate_ego"]) if raw["tx_rate_ego"] else None,
                }
            )
    agg = aggregate_sweep(rows)
    path = Path(args.out) / "report.csv"
    fields = ["mode", "runs"] + [f"{k}_{s}" for k in ("mae_x", "mae_y", "p_u", "tx_rate_ego")
                                 for s in ("mean", "median")]
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for row in agg:
            writer.writerow({k: format_value(row.get(k)) for k in fields})
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
