"""Steadiness check: run workloads over several seeds and report, for each
end-to-end metric, the median and the quartile spread as a share of the
median, next to the bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 10 rowmap mismatch

Runs one process at a time, from the checkout root, for the run length in
BENCHMARK.json; the summary also goes to ``perfbench/results/steady.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    p.add_argument("--seeds", type=int, default=10)
    args = p.parse_args(argv)
    if args.seeds < 2:
        p.error("--seeds must be at least 2 to take quartiles")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    summary = {}
    status = 0
    for name in args.workloads:
        runs = []
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            runs.append(json.loads(out.stdout.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{name}: correct {all(r['correct'] for r in runs)}, "
              f"failed shares {sorted(shares)}", flush=True)
        status |= not all(r["correct"] for r in runs) or len(shares) > 1
        summary[name] = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            s = spread(values)
            summary[name][metric] = {"values": values, "median": statistics.median(values),
                                     "spread": s, "bound": bound}
            flag = "" if s <= bound / 3 else "  (above a third of the bound)"
            print(f"  {metric:12s} median {statistics.median(values):10.4g}  "
                  f"spread {100 * s:5.2f}%  bound {100 * bound:.0f}%{flag}", flush=True)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / "steady.json").write_text(json.dumps(summary, indent=1))
    return status


if __name__ == "__main__":
    sys.exit(main())
