"""The benchmark's layer tracer (``perfbench/layers.py``) wraps program
names from outside; a refactor that drops one of them breaks
``perfbench/run.py --trace 1`` while the program itself still runs."""

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
         "--set", "experiment.trials=1"]
with tempfile.TemporaryDirectory() as out:
    for command in ("cdf", "map"):
        if main(["-o", out, *small, command]) != 0:
            raise SystemExit(f"{command} failed")
metrics = layers.layer_metrics(tracer, rounds=1)
print(json.dumps({name: value for name, (value, _) in metrics.items()}))
"""


def test_traced_cdf_and_map_count_every_layer():
    env = {**os.environ, "PYTHONPATH": str(Path(xbarsim.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])
    for name in ("solver.factor_calls", "readout.conv_cells", "readout.solve_rows_cols"):
        assert metrics[name] > 0, name
