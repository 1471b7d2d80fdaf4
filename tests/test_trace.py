"""The benchmark's layer tracer (``perfbench/layers.py``) wraps program
names from outside; a refactor that drops one of them breaks
``perfbench/run.py --trace 1`` while the program itself still runs, and
one that goes round a wrapped name (row solves outside
``RowReadSession.solve_rows``, CSVs outside ``experiments.write_csv``, a
power sweep or mismatch sweep that skips ``analytics.power_row_approx`` or
``analytics.mismatch_simulation_check``) leaves its counts at 0."""

import json
import os
import subprocess
import sys
from pathlib import Path

import xbarsim

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import json, sys, tempfile
sys.path.insert(0, sys.argv[1])
import layers
from xbarsim.cli import main

tracer = layers.Tracer()
layers.install(tracer)
small = ["--set", "crossbar.rows=8", "--set", "crossbar.cols=8",
         "--set", "experiment.sample_cells=16", "--set", "experiment.backgrounds=2",
         "--set", "experiment.trials=1", "--set", "experiment.sizes=[8]",
         "--set", "experiment.scheme_sizes=[8]", "--set", "experiment.delta_v_grid=[2e-3]"]
with tempfile.TemporaryDirectory() as out:
    for command in sys.argv[2:]:
        if main(["-o", out, *small, command]) != 0:
            raise SystemExit(f"{command} failed")
metrics = layers.layer_metrics(tracer, rounds=1)
print(json.dumps({name: value for name, (value, _) in metrics.items()}))
"""


def _traced_metrics(*commands) -> dict:
    """Per-round layer metrics of the CLI commands run at 8x8 under the tracer."""
    env = {**os.environ, "PYTHONPATH": str(Path(xbarsim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "perfbench"), *commands],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_traced_cdf_and_map_count_every_layer():
    metrics = _traced_metrics("cdf", "map")
    for name in ("solver.factor_calls", "solver.trisolve_cols", "readout.conv_cells",
                 "readout.solve_rows_cols", "io.csv_rows"):
        assert metrics[name] > 0, name


def test_traced_sweeps_and_schemes_count_their_layers():
    metrics = _traced_metrics("power-sweep", "mismatch", "compare-schemes")
    for name in ("analytics.power_approx_calls", "analytics.mismatch_check_s",
                 "readout.solve_rows_cols", "readout.conv_cells"):
        assert metrics[name] > 0, name
