"""xbarsim benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload rowmap --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout.  The workload runs in its own
process with the BLAS/OpenMP thread count pinned to one; set-up time is
measured on separate set-up-only processes as well.  With ``--trace 0`` the
last line carries the end-to-end metrics, with ``--trace 1`` the per-layer
metrics.  The exit status is nonzero when the checkout holds no ``xbarsim``
sources or the workload process fails.
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Names only: this process never imports xbarsim or numpy.
WORKLOADS = ("rowmap", "powersweep", "cellcdf", "mismatch")
SETUP_PROBES = 3  # set-up-only processes before and again after the workload's own
# The whole run, set-up probes included, may take this much longer than
# --seconds: one more round than fits, the checks and the set-up processes.
DEADLINE_MARGIN_S = 145.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _start(args, extra=()) -> tuple[subprocess.Popen, float]:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_env(), cwd=ROOT)
    return proc, t0


def _wait_ready(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from process start until the worker can call the campaign."""
    line = proc.stdout.readline()
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not start (exit {proc.returncode})")
    return time.perf_counter() - t0


def _finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process overran the deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    return out


def _probe_setup(args, setup: list) -> None:
    for _ in range(SETUP_PROBES):
        proc, t0 = _start(args, ["--setup-only"])
        setup.append(_wait_ready(proc, t0))
        _finish(proc, 30.0)


def measure(args) -> dict:
    begin = time.perf_counter()
    setup = []
    if not args.trace:
        _probe_setup(args, setup)
    proc, t0 = _start(args)
    setup.append(_wait_ready(proc, t0))
    out = _finish(proc, args.seconds + DEADLINE_MARGIN_S - (time.perf_counter() - begin))
    if not args.trace:
        _probe_setup(args, setup)
    res = json.loads(out.strip().splitlines()[-1])
    if res["problems"]:
        for problem in res["problems"]:
            print(f"check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in res["per_layer"].items()}
    else:
        walls = res["walls"]
        done = len(walls) * res["items"] - res["failed"]
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "items_per_s": {"value": done / sum(walls), "unit": "1/s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "xbarsim" / "__init__.py").is_file():
        print(f"no xbarsim sources under {ROOT / 'src'}: run from a source checkout",
              file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except RuntimeError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
