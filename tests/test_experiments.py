import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import xbarsim
from xbarsim import experiments
from xbarsim.config import CrossbarConfig, ExperimentConfig, RunConfig, VariationConfig
from xbarsim.experiments import (
    run_cdf_conventional,
    run_mismatch_sweep,
    run_power_sweep,
    run_row_read_map,
    run_scheme_compare,
    sample_trial,
    seeded_trial_stream,
)
from xbarsim.readout import RowReadSession
from xbarsim.solver import branch_power


def small_cfg(**exp_kwargs) -> RunConfig:
    return RunConfig(
        crossbar=CrossbarConfig(rows=16, cols=16),
        variation=VariationConfig(relative_sigma=0.10),
        experiment=ExperimentConfig(
            master_seed=7,
            trials=2,
            sample_cells=64,
            backgrounds=2,
            sizes=(8, 16),
            v_b_list=(0.5, 0.7, 0.9),
            power_rows=2,
            scheme_sizes=(8, 16),
            scheme_rows=4,
            delta_v_grid=(2e-3,),
            **exp_kwargs,
        ),
    )


class TestSeededStreams:
    def test_same_key_same_stream(self):
        a = seeded_trial_stream(42, 3).random(16)
        b = seeded_trial_stream(42, 3).random(16)
        assert np.array_equal(a, b)

    def test_different_indices_differ(self):
        a = seeded_trial_stream(42, 0).random(16)
        b = seeded_trial_stream(42, 1).random(16)
        assert not np.array_equal(a, b)

    def test_streams_look_independent(self):
        # chi-square uniformity smoke test over pooled draws from many streams
        draws = np.concatenate([seeded_trial_stream(1, k).random(2000) for k in range(8)])
        counts, _ = np.histogram(draws, bins=20, range=(0, 1))
        expected = draws.size / 20
        chi2 = ((counts - expected) ** 2 / expected).sum()
        assert chi2 < 60  # 19 dof; far tail => generator misbehaving
        a = seeded_trial_stream(1, 0).random(4000)
        b = seeded_trial_stream(1, 1).random(4000)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.08


class TestCdfConventional:
    def test_small_campaign_summary(self, tmp_path):
        cfg = small_cfg()
        summary = run_cdf_conventional(cfg, tmp_path)
        assert summary["samples"] == 64
        assert summary["lrs_count"] + summary["hrs_count"] == 64
        assert 0.0 <= summary["best_ber"] <= 0.5
        obs = (tmp_path / "cdf-conventional-7.csv").read_text().splitlines()
        assert obs[0] == "trial,row,col,true_bit,current_A"
        assert len(obs) == 65

    def test_cdf_monotone_zero_to_one(self, tmp_path):
        cfg = small_cfg()
        run_cdf_conventional(cfg, tmp_path)
        rows = (tmp_path / "cdf-conventional-7-cdf.csv").read_text().splitlines()[1:]
        by_state = {}
        for line in rows:
            state, v, p = line.split(",")
            by_state.setdefault(state, []).append((float(v), float(p)))
        for pts in by_state.values():
            probs = [p for _, p in pts]
            vals = [v for v, _ in pts]
            assert probs == sorted(probs)
            assert vals == sorted(vals)
            assert probs[-1] == pytest.approx(1.0)
            assert probs[0] > 0.0

    def test_byte_identical_across_worker_counts(self, tmp_path):
        cfg1 = small_cfg(workers=1)
        cfg3 = small_cfg(workers=3)
        run_cdf_conventional(cfg1, tmp_path / "w1")
        run_cdf_conventional(cfg3, tmp_path / "w3")
        for name in ("cdf-conventional-7.csv", "cdf-conventional-7-cdf.csv"):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / "w3" / name).read_bytes()
        j1 = json.loads((tmp_path / "w1" / "cdf-conventional-7.json").read_text())
        j3 = json.loads((tmp_path / "w3" / "cdf-conventional-7.json").read_text())
        j1["config"]["experiment"]["workers"] = j3["config"]["experiment"]["workers"]
        assert j1 == j3


class TestRowReadMap:
    def test_map_zero_errors_and_files(self, tmp_path):
        cfg = small_cfg()
        summary = run_row_read_map(cfg, tmp_path)
        assert summary["errors"] == 0
        assert summary["separation_ratio"] > 1
        lines = (tmp_path / "row-read-map-7.csv").read_text().splitlines()
        assert len(lines) == 16 * 16 + 1
        hist = (tmp_path / "row-read-map-7-hist.csv").read_text().splitlines()
        counts = sum(int(line.rsplit(",", 1)[1]) for line in hist[1:])
        assert counts == 16 * 16

    def test_run_twice_identical_output(self, tmp_path):
        cfg = small_cfg()
        run_row_read_map(cfg, tmp_path / "a")
        run_row_read_map(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "row-read-map-7.csv").read_bytes() == (
            tmp_path / "b" / "row-read-map-7.csv"
        ).read_bytes()
        assert (tmp_path / "a" / "row-read-map-7.json").read_bytes() == (
            tmp_path / "b" / "row-read-map-7.json"
        ).read_bytes()


class TestPowerSweep:
    def test_checks_hold_on_small_sizes(self, tmp_path):
        cfg = small_cfg()
        summary = run_power_sweep(cfg, tmp_path)
        assert summary["checks"]["exact_below_approx"]
        assert summary["checks"]["monotone_in_v_b"]
        lines = (tmp_path / "power-sweep-7.csv").read_text().splitlines()
        # 2 models x 2 sizes x 2 trials x 3 v_b x 2 rows + header
        assert len(lines) == 2 * 2 * 2 * 3 * 2 + 1

    def test_linear_exact_power_matches_per_hold_voltage_solves(self, tmp_path, monkeypatch):
        # the campaign scales one v_b = 0 solve per linear array; compare its
        # unrounded values with a solve at every hold voltage
        cfg = small_cfg()
        exp = cfg.experiment
        written = {}
        monkeypatch.setattr(experiments, "write_csv",
                            lambda path, header, rows: written.setdefault(path.name, list(rows)))
        run_power_sweep(cfg, tmp_path)
        got = {(size, trial, v_b, row): exact
               for model, size, trial, v_b, row, _, exact, *_ in written["power-sweep-7.csv"]
               if model == "linear"}
        base = cfg.device.base_params()
        want = {}
        for idx, (size, trial) in enumerate((s, t) for s in exp.sizes for t in range(exp.trials)):
            pattern, cells, rng = sample_trial(cfg, 2000 + idx, size, size, base)
            rows = sorted(rng.choice(size, size=exp.power_rows, replace=False).tolist())
            spec = dataclasses.replace(cfg.crossbar.to_spec(), rows=size, cols=size)
            session = RowReadSession(spec, cells, pattern)
            for v_b in exp.v_b_list:
                power = branch_power(session.net, session.solve_rows(rows, v_b=v_b))
                want.update({(size, trial, v_b, i): float(p) for i, p in zip(rows, power)})
        assert got.keys() == want.keys()
        for key, p in want.items():
            assert got[key] == pytest.approx(p, rel=1e-12, abs=0)


class TestMismatchSweep:
    def test_matches_analytic(self, tmp_path):
        cfg = small_cfg()
        summary = run_mismatch_sweep(cfg, tmp_path)
        assert summary["within_5pct"]
        models = {r["model"]: r for r in summary["table"]}
        assert models["linear"]["n_max_analytic"] == 195
        assert models["nonlinear"]["n_max_analytic"] == 6500

    @staticmethod
    def _strict_summary(cfg, tmp_path, delta_v):
        exp = dataclasses.replace(cfg.experiment, delta_v_grid=(delta_v,), trials=1)
        run_mismatch_sweep(dataclasses.replace(cfg, experiment=exp), tmp_path)

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        text = (tmp_path / "mismatch-sweep-7.json").read_text()
        return json.loads(text, parse_constant=reject)

    def test_half_millivolt_writes_strict_json(self, tmp_path):
        summary = self._strict_summary(small_cfg(), tmp_path, 0.5e-3)
        assert summary["within_5pct"] is True
        for row in summary["table"]:
            assert row["unbounded"] is False
            assert row["relative_gap"] <= 0.05

    def test_limit_beyond_sweep_cap_is_unbounded_null(self, tmp_path):
        # 1 uV puts both closed-form limits far past the default sweep cap:
        # the sweep stops at the cap, reports it unbounded with a null gap,
        # and does not count it as agreeing with the closed form.
        summary = self._strict_summary(small_cfg(), tmp_path, 1e-6)
        assert summary["within_5pct"] is False
        for row in summary["table"]:
            assert row["unbounded"] is True
            assert row["relative_gap"] is None
            assert row["n_max_empirical"] < row["n_max_analytic"]


class TestSchemeCompare:
    def test_row_readout_never_fails_small(self, tmp_path):
        cfg = small_cfg()
        summary = run_scheme_compare(cfg, tmp_path)
        assert "row-readout" not in summary["first_failing_size"]
        lines = (tmp_path / "scheme-compare-7.csv").read_text().splitlines()
        assert len(lines) == 4 * 2 + 1
        # conventional reads are sneak-loaded even at these sizes
        conv = [line for line in lines[1:] if line.startswith("conventional")]
        bers = [float(line.split(",")[2]) for line in conv]
        assert max(bers) > 0.02

    def test_byte_identical_across_worker_counts_and_reruns(self, tmp_path):
        runs = {"w1": 1, "w3": 3, "rerun": 1}
        for name, workers in runs.items():
            run_scheme_compare(small_cfg(workers=workers), tmp_path / name)
        csv, js = ([(tmp_path / name / f"scheme-compare-7.{ext}").read_bytes() for name in runs]
                   for ext in ("csv", "json"))
        assert csv[0] == csv[1] == csv[2]
        assert js[0] == js[2]
        j1, j3 = json.loads(js[0]), json.loads(js[1])
        j1["config"]["experiment"]["workers"] = j3["config"]["experiment"]["workers"]
        assert j1 == j3


class TestSummaryRoundTrip:
    def test_summary_json_reparses_to_written_payload(self, tmp_path):
        cfg = small_cfg()
        summary = run_mismatch_sweep(cfg, tmp_path)
        loaded = json.loads((tmp_path / "mismatch-sweep-7.json").read_text())
        loaded.pop("version")
        assert loaded == summary


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt is glibc's")
class TestHeapRetention:
    # Forty 100 kB blocks (each below glibc's initial mmap threshold) are made
    # and dropped, then made again; prints the page faults of the second time.
    CYCLE = (
        "import resource, sys\n"
        "import numpy as np\n"
        "if sys.argv[1] == 'retain':\n"
        "    import xbarsim.experiments\n"
        "def cycle():\n"
        "    blocks = [np.ones(12_500) for _ in range(40)]\n"
        "cycle()\n"
        "f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "cycle()\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)\n"
    )

    def _refaults(self, mode: str) -> int:
        env = {**os.environ, "PYTHONPATH": str(Path(xbarsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", self.CYCLE, mode], env=env,
                              capture_output=True, text=True, check=True)
        return int(proc.stdout)

    def test_campaign_module_keeps_freed_heap(self):
        # 4 MB is about 1000 pages: the default trims it and faults it back in.
        assert self._refaults("default") > 500
        assert self._refaults("retain") < 50


@pytest.mark.paperscale
def test_scheme_size_limits_paper_scale(tmp_path):
    """Floating-bitline sensing separates the states at 128x128 but not at
    512x512; one-cycle row readout stays error-free at both sizes."""
    cfg = dataclasses.replace(
        small_cfg(), experiment=dataclasses.replace(
            small_cfg().experiment, scheme_sizes=(128, 512), scheme_rows=4
        )
    )
    summary = run_scheme_compare(cfg, tmp_path)
    rows = {}
    for line in (tmp_path / "scheme-compare-7.csv").read_text().splitlines()[1:]:
        parts = line.split(",")
        rows[(parts[0], int(parts[1]))] = float(parts[2])
    assert rows[("row-readout", 128)] == 0.0
    assert rows[("row-readout", 512)] == 0.0
    assert rows[("floating-bitlines", 128)] == 0.0
    assert rows[("floating-bitlines", 512)] > 0.0
    assert rows[("conventional", 128)] > 0.05
    assert summary["first_failing_size"].get("floating-bitlines") == 512
