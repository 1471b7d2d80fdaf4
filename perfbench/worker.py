"""One workload in one process: set up, run whole campaign rounds for the
measured time, check the outputs, and print one JSON line.

Started by ``run.py``, which pins the BLAS/OpenMP threads to one before this
process imports numpy.  The line ``ready`` on standard output marks the end
of set-up (interpreter, ``import xbarsim``, building the ``RunConfig``s).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402


def _outputs_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _present(w, out: Path) -> int:
    """Output items present: data lines of each campaign's main CSV."""
    total = 0
    for c in w.campaigns:
        path = c.csv_path(out)
        if path.exists():
            with open(path) as f:
                total += max(sum(1 for _ in f) - 1, 0)
    return total


def _rounds(w, out: Path, seconds: float, state: dict) -> list[float]:
    """Repeat whole rounds (every campaign of the workload once) while the
    next round, as long as the last one, still fits in the time; at least
    one round.  Returns the wall time of each round."""
    walls = []
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin + walls[-1] <= seconds:
        gc.collect()  # every round starts from a collected heap
        t0 = time.perf_counter()
        failed = 0
        for c in w.campaigns:
            try:
                c.run(out)
            except Exception:  # noqa: BLE001 - counted as failed items
                failed += c.items
                state["errors"].append(traceback.format_exc(limit=3))
        walls.append(time.perf_counter() - t0)
        state["attempted"] += w.items
        state["failed"] += max(failed, w.items - _present(w, out))
        state["digests"].add(_outputs_digest(out))
    return walls


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    w = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    out = ROOT / "perfbench" / "results" / f"{w.name}-seed{args.seed}"
    shutil.rmtree(out, ignore_errors=True)  # checks must never see an older run's files
    state = {"attempted": 0, "failed": 0, "errors": [], "digests": set()}
    result = {}
    if args.trace:
        import layers

        untraced = _rounds(w, out, args.seconds / 2, state)
        tracer = layers.Tracer()
        layers.install(tracer)
        traced = _rounds(w, out, args.seconds / 2, state)
        metrics = layers.layer_metrics(tracer, len(traced))
        metrics["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s")
        result["per_layer"] = metrics
        trace_dir = ROOT / "perfbench" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        with open(trace_dir / f"{w.name}-seed{args.seed}.json", "w") as f:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, f)
        walls = untraced
    else:
        walls = _rounds(w, out, args.seconds, state)
    result["walls"] = walls
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for err in state["errors"]:
        sys.stderr.write(err)
    problems = []
    if len(state["digests"]) > 1:
        problems.append("campaign outputs differ between rounds of identical inputs")
    try:
        w.check(w, out)
    except Exception as e:  # noqa: BLE001 - any failure of a check is a wrong result
        problems.append(f"{type(e).__name__}: {e}")
    result.update(attempted=state["attempted"], failed=state["failed"],
                  items=w.items, problems=problems)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
