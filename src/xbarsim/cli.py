"""Command-line entry point tying configuration, experiments, and analytics
together.  On failure a machine-readable JSON error is printed to stderr and
the exit status is nonzero."""

from __future__ import annotations

import argparse
import json
import sys

from . import experiments
from .analytics import TechniqueRow, render_fom_table
from .config import ConfigError, parse_config
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

    sub.add_parser("mismatch", help="bias-mismatch column-width limits")
    sub.add_parser("compare-schemes", help="error rate of each scheme vs array size")
    sub.add_parser("selftest", help="run acceptance criteria 1, 4, 5, 7, 8 and two quick checks")
    return p


def _mismatch_report(s: dict) -> str:
    limits = {m: [r["n_max_analytic"] for r in s["table"] if r["model"] == m]
              for m in ("linear", "nonlinear")}
    return ("mismatch: analytic column limits "
            f"linear={limits['linear']} nonlinear={limits['nonlinear']} "
            f"(within 5%: {s['within_5pct']})")


def _fom_report(s: dict) -> str:
    table = render_fom_table([TechniqueRow(**r) for r in s["rows"]])
    return f"{table}\nfom-table: {'all rows MATCH' if s['all_match'] else 'MISMATCH present'}"


# Each file-writing command: its runner of (config, parsed arguments) and
# the report it prints from the summary.  A runner reads ``experiments.run_*``
# when it runs, not at import, so names rebound later (the benchmark's layer
# tracer) take effect.
_COMMANDS = {
    "read-row": (
        lambda cfg, a: experiments.run_read_row(cfg, a.out, a.row),
        lambda s: f"read-row: {s['errors']} classification error(s), "
                  f"threshold {s['threshold_A']:.4g} A"),
    "cdf": (
        lambda cfg, a: experiments.run_cdf_conventional(cfg, a.out),
        lambda s: f"cdf: best BER {s['best_ber']:.4g} at threshold "
                  f"{s['best_threshold_A']:.4g} A over {s['samples']} samples"),
    "map": (
        lambda cfg, a: experiments.run_row_read_map(cfg, a.out),
        lambda s: f"map: {s['errors']} error(s), separation ratio {s['separation_ratio']:.4g}"),
    "power-sweep": (
        lambda cfg, a: experiments.run_power_sweep(cfg, a.out),
        lambda s: f"power-sweep: checks {s['checks']}"),
    "fom-table": (lambda cfg, a: experiments.run_fom_table(cfg, a.out, a.banks), _fom_report),
    "mismatch": (lambda cfg, a: experiments.run_mismatch_sweep(cfg, a.out), _mismatch_report),
    "compare-schemes": (
        lambda cfg, a: experiments.run_scheme_compare(cfg, a.out),
        lambda s: f"compare-schemes: first failing sizes {s['first_failing_size']}"),
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config, args.overrides)
        if args.command == "selftest":
            failures = run_selftest()
            print("selftest:", "PASS" if failures == 0 else f"{failures} FAILURE(S)")
            return 0 if failures == 0 else 1
        run, report = _COMMANDS[args.command]
        print(report(run(cfg, args)))
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
