"""Command-line entry point tying configuration, experiments, and analytics
together.  On failure a machine-readable JSON error is printed to stderr and
the exit status is nonzero."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import experiments
from .analytics import render_fom_table, technique_fom_table
from .config import ConfigError, RunConfig, config_echo, parse_config
from .io import default_output_dir, write_csv, write_summary_json
from .readout import RowReadSession
from .selftest import run_selftest


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="xbarsim",
        description="Selector-less resistive crossbar readout simulator",
    )
    p.add_argument("-c", "--config", help="YAML configuration file")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="override a config key, e.g. crossbar.rows=128")
    p.add_argument("-o", "--out", help="output directory (default: $XBARSIM_OUTPUT_DIR or ./xbarsim-out)")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("read-row", help="read one row and write the sensed currents")
    sp.add_argument("--row", type=int, default=0)

    sub.add_parser("cdf", help="conventional-read current CDF campaign")
    sub.add_parser("map", help="row-readout current map of a full array")
    sub.add_parser("power-sweep", help="read power vs array size and hold voltage")

    sp = sub.add_parser("fom-table", help="recompute the read-technique comparison")
    sp.add_argument("--banks", type=int, default=1)
    sp.add_argument("--word", type=int, default=512, help="array width N")
    sp.add_argument("--cell-area", type=float, default=None,
                    help="cell area in um^2 (default: from 640 Gbit/cm^2)")
    sp.add_argument("--row-read-power", type=float, default=None,
                    help="single-bank row-read power in W (default 1.358e-3)")

    sub.add_parser("mismatch", help="bias-mismatch column-width limits")
    sub.add_parser("compare-schemes", help="error rate of each scheme vs array size")
    sub.add_parser("selftest", help="run acceptance criteria 1, 4, 5, 7, 8 and two quick checks")
    return p


def _cmd_read_row(cfg: RunConfig, out_dir, row: int) -> dict:
    spec = cfg.crossbar.to_spec()
    pattern, cells, _ = experiments.sample_trial(
        cfg, 0, spec.rows, spec.cols, cfg.device.base_params()
    )
    session = RowReadSession(spec, cells, pattern)
    result = session.read_row_result(row)
    base = default_output_dir(out_dir if out_dir is not None else cfg.output_dir)
    csv_path = base / f"read-row-{cfg.experiment.master_seed}.csv"
    write_csv(csv_path, ["row", "col", "true_bit", "current_A", "read_bit"], result.csv_rows())
    summary = {
        "experiment": "read-row",
        "row": row,
        "seed": cfg.experiment.master_seed,
        "threshold_A": result.threshold,
        "errors": result.n_errors,
        "config": config_echo(cfg),
    }
    write_summary_json(csv_path.with_suffix(".json"), summary)
    return summary


def _cmd_fom_table(cfg: RunConfig, out_dir, banks: int, word: int,
                   cell_area: float | None, row_read_power: float | None) -> dict:
    kwargs = {}
    if cell_area is not None:
        kwargs["cell_area_um2"] = cell_area
    if row_read_power is not None:
        kwargs["this_work_power_per_bank"] = row_read_power
    rows = technique_fom_table(n=word, r_banks=banks, **kwargs)
    print(render_fom_table(rows))
    base = default_output_dir(out_dir if out_dir is not None else cfg.output_dir)
    csv_path = base / f"fom-table-{banks}.csv"
    write_csv(
        csv_path,
        ["technique", "readout_circuit", "locality_needed", "throughput",
         "array_usage", "power_W", "fom_recomputed", "fom_published", "match"],
        [(r.name, r.readout_circuit, r.locality_needed, r.throughput, r.array_usage,
          r.reading_power, r.fom_recomputed, r.fom_published,
          "MATCH" if r.matches_published else "MISMATCH") for r in rows],
    )
    summary = {
        "experiment": "fom-table",
        "banks": banks,
        "all_match": all(r.matches_published for r in rows),
        "rows": [dataclasses.asdict(r) for r in rows],
        "config": config_echo(cfg),
    }
    write_summary_json(csv_path.with_suffix(".json"), summary)
    return summary


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.command == "selftest":
            failures = run_selftest()
            print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURE(S)")
            return 0 if failures == 0 else 1
        if args.command == "read-row":
            summary = _cmd_read_row(cfg, args.out, args.row)
            print(f"read-row: {summary['errors']} classification error(s), "
                  f"threshold {summary['threshold_A']:.4g} A")
        elif args.command == "cdf":
            summary = experiments.run_cdf_conventional(cfg, args.out)
            print(f"cdf: best BER {summary['best_ber']:.4g} at threshold "
                  f"{summary['best_threshold_A']:.4g} A over {summary['samples']} samples")
        elif args.command == "map":
            summary = experiments.run_row_read_map(cfg, args.out)
            print(f"map: {summary['errors']} error(s), separation ratio "
                  f"{summary['separation_ratio']:.4g}")
        elif args.command == "power-sweep":
            summary = experiments.run_power_sweep(cfg, args.out)
            print(f"power-sweep: checks {summary['checks']}")
        elif args.command == "fom-table":
            summary = _cmd_fom_table(cfg, args.out, args.banks, args.word,
                                     args.cell_area, args.row_read_power)
            print("fom-table:", "all rows MATCH" if summary["all_match"] else "MISMATCH present")
        elif args.command == "mismatch":
            summary = experiments.run_mismatch_sweep(cfg, args.out)
            lin = [r for r in summary["table"] if r["model"] == "linear"]
            non = [r for r in summary["table"] if r["model"] == "nonlinear"]
            print("mismatch: analytic column limits "
                  f"linear={[r['n_max_analytic'] for r in lin]} "
                  f"nonlinear={[r['n_max_analytic'] for r in non]} "
                  f"(within 5%: {summary['within_5pct']})")
        elif args.command == "compare-schemes":
            summary = experiments.run_scheme_compare(cfg, args.out)
            print(f"compare-schemes: first failing sizes {summary['first_failing_size']}")
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
        return 0
    except ConfigError as e:
        json.dump({"error": "config", "where": e.where, "message": str(e)}, sys.stderr)
        sys.stderr.write("\n")
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        json.dump({"error": type(e).__name__, "message": str(e),
                   "command": args.command}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
