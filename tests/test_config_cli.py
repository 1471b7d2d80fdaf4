import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import xbarsim
from xbarsim.cli import main
from xbarsim.config import (
    ConfigError,
    RunConfig,
    config_echo,
    emit_config,
    parse_config,
    parse_quantity,
)
from xbarsim.io import fmt_value, write_csv


class TestQuantities:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("2mV", 2e-3),
            ("0.22uA", 0.22e-6),
            ("0.22µA", 0.22e-6),
            ("1MΩ", 1e6),
            ("1Mohm", 1e6),
            ("10ohm", 10.0),
            ("7.6fJ", 7.6e-15),
            ("1ns", 1e-9),
            ("500kHz", 5e5),
            ("3", 3.0),
            ("1.5e-6", 1.5e-6),
            ("1.2V", 1.2),
            (42, 42.0),
        ],
    )
    def test_parse_quantity(self, text, value):
        assert parse_quantity(text) == pytest.approx(value, rel=1e-12)

    @pytest.mark.parametrize("bad", ["2xV", "fiveV", "1.2.3V", "", "1 Q", True])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ConfigError):
            parse_quantity(bad)


class TestParseConfig:
    def test_empty_config_gives_paper_defaults(self):
        cfg = parse_config()
        assert cfg.crossbar.rows == 512 and cfg.crossbar.cols == 512
        assert cfg.crossbar.r_wire == 10.0
        assert cfg.crossbar.v_dd == 1.2 and cfg.crossbar.v_b == 0.7
        assert cfg.device.lrs_ohms == 1e6 and cfg.device.hrs_ohms == 1e9
        assert cfg.device.k_on == 1e-8 and cfg.device.k_off == 1e-11 and cfg.device.a == 3.0
        assert cfg.variation.relative_sigma == 0.10
        assert cfg.mismatch.i_max == 0.22e-6 and cfg.mismatch.i_min == 0.195e-6

    def test_file_with_units(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "crossbar:\n  rows: 64\n  cols: 64\n  v_b: 600mV\n"
            "mismatch:\n  i_max: 0.3uA\n"
        )
        cfg = parse_config(path)
        assert cfg.crossbar.v_b == pytest.approx(0.6)
        assert cfg.mismatch.i_max == pytest.approx(0.3e-6)

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("crossbar:\n  rows: 8\n  cols: 8\n  wire: 5\n")
        with pytest.raises(ConfigError, match="crossbar"):
            parse_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("grid:\n  rows: 8\n")
        with pytest.raises(ConfigError, match="top"):
            parse_config(path)

    def test_invariant_violation_reports_section(self):
        with pytest.raises(ConfigError, match="crossbar"):
            parse_config(overrides=["crossbar.v_b=1.3"])

    def test_variation_seed_is_not_a_setting(self):
        # Trials derive their variation seeds from experiment.master_seed.
        with pytest.raises(ConfigError, match=r"variation: unknown key\(s\) \['seed'\]"):
            parse_config(overrides=["variation.seed=3"])
        with pytest.raises(ConfigError, match="variation"):
            parse_config(overrides=["variation.relative_sigma=0.5"])

    def test_unread_keys_rejected_with_path(self, tmp_path):
        # Line offsets come from experiment.delta_v_grid, and no command
        # reads a sense-chain constant or a bank width.
        for override, where in [
            ("sense.r_l=2", r"<top>: unknown section\(s\) \['sense'\]"),
            ("mismatch.delta_v=4mV", r"mismatch: unknown key\(s\) \['delta_v'\]"),
            ("crossbar.bank_width=128", r"crossbar: unknown key\(s\) \['bank_width'\]"),
        ]:
            with pytest.raises(ConfigError, match=where):
                parse_config(overrides=[override])
        path = tmp_path / "cfg.yaml"
        path.write_text("sense:\n  i_max: 0.5uA\n")
        with pytest.raises(ConfigError, match=r"<top>: unknown section\(s\) \['sense'\]"):
            parse_config(path)

    def test_overrides_with_units(self):
        cfg = parse_config(overrides=["crossbar.rows=128", "crossbar.cols=128",
                                      "mismatch.i_min=150nA"])
        assert cfg.crossbar.rows == 128
        assert cfg.mismatch.i_min == pytest.approx(150e-9)

    def test_round_trip_stability(self, tmp_path):
        cfg = parse_config(overrides=["crossbar.rows=32", "crossbar.cols=64",
                                      "device.model=nonlinear",
                                      "experiment.sizes=8,16"])
        text = emit_config(cfg)
        path = tmp_path / "echo.yaml"
        path.write_text(text)
        assert parse_config(path) == cfg
        assert emit_config(parse_config(path)) == text

    def test_config_echo_is_json_ready(self):
        echo = config_echo(RunConfig())
        json.dumps(echo)
        assert echo["crossbar"]["rows"] == 512


class TestIoHelpers:
    def test_float_formatting_has_enough_digits(self):
        s = fmt_value(1.234567891234e-9)
        assert float(s) == pytest.approx(1.234567891234e-9, rel=1e-12)
        assert len(s.replace("-", "").replace(".", "").split("e")[0]) >= 9

    def test_write_csv_quotes_when_needed(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["a", "b"], [("x,y", 1.5)])
        assert path.read_text().splitlines()[1] == '"x,y",1.5'

    def test_empty_records_give_header_only_csv(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", ["a", "b"], [])
        assert path.read_bytes() == b"a,b\r\n"

    def test_summary_json_valid_for_empty_payloads(self, tmp_path):
        from xbarsim.io import write_summary_json

        path = write_summary_json(tmp_path / "s.json", {"records": []})
        data = json.loads(path.read_text())
        assert data["records"] == [] and "version" in data

    def test_summary_json_asks_git_once_per_process(self, tmp_path, monkeypatch):
        from xbarsim import io

        calls = []

        def fake_run(*args, **kwargs):
            calls.append(args)
            return subprocess.CompletedProcess(args, 0, stdout="abc1234\n")

        monkeypatch.setattr(io.subprocess, "run", fake_run)
        io.version_string.cache_clear()
        try:
            for k in range(3):
                path = io.write_summary_json(tmp_path / f"s{k}.json", {})
                assert json.loads(path.read_text())["version"].endswith("+gabc1234")
        finally:
            io.version_string.cache_clear()
        assert len(calls) == 1


def run_cli(args, tmp_path):
    return main(["-o", str(tmp_path), *args])


class TestCli:
    def test_fom_table_command(self, tmp_path, capsys):
        assert run_cli(["fom-table"], tmp_path) == 0
        out = capsys.readouterr().out
        assert "all rows MATCH" in out
        data = json.loads((tmp_path / "fom-table-1.json").read_text())
        assert data["all_match"] is True
        assert "version" in data and "config" in data

    def test_read_row_command(self, tmp_path, capsys):
        code = run_cli(
            ["--set", "crossbar.rows=8", "--set", "crossbar.cols=8", "read-row", "--row", "2"],
            tmp_path,
        )
        assert code == 0
        assert "0 classification error(s)" in capsys.readouterr().out
        lines = (tmp_path / "read-row-1.csv").read_text().splitlines()
        assert len(lines) == 9

    @pytest.mark.parametrize("row", [-1, 8])
    def test_read_row_rejects_a_row_outside_the_array(self, tmp_path, capsys, row):
        code = run_cli(
            ["--set", "crossbar.rows=8", "--set", "crossbar.cols=8", "read-row", "--row", str(row)],
            tmp_path,
        )
        assert code == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "IndexError" and f"row {row} out of range" in err["message"]
        assert not (tmp_path / "read-row-1.csv").exists()

    @pytest.mark.parametrize("override,command", [
        ("experiment.backgrounds=0", "cdf"),
        ("experiment.sample_cells=0", "cdf"),
        ("experiment.power_rows=0", "power-sweep"),
        ("experiment.sizes=[]", "power-sweep"),
        ("experiment.sizes=[16,0]", "power-sweep"),
        ("experiment.map_bins=0", "map"),
        ("experiment.scheme_rows=0", "compare-schemes"),
        ("experiment.scheme_sizes=[]", "compare-schemes"),
        ("experiment.v_b_list=[]", "power-sweep"),
        ("experiment.v_b_list=[1.3]", "power-sweep"),
        ("experiment.delta_v_grid=[]", "mismatch"),
    ])
    def test_empty_campaign_is_a_config_error(self, tmp_path, capsys, override, command):
        size = ["--set", "crossbar.rows=8", "--set", "crossbar.cols=8"]
        assert run_cli([*size, "--set", override, command], tmp_path) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and err["where"] == "experiment"
        assert override.split(".")[1].split("=")[0] in err["message"]

    def test_read_row_reads_the_same_array_as_map(self, tmp_path, capsys):
        size = ["--set", "crossbar.rows=16", "--set", "crossbar.cols=16"]
        assert run_cli([*size, "read-row", "--row", "3"], tmp_path) == 0
        assert run_cli([*size, "map"], tmp_path) == 0
        with open(tmp_path / "read-row-1.csv", newline="") as f:
            single = list(csv.DictReader(f))
        with open(tmp_path / "row-read-map-1.csv", newline="") as f:
            mapped = [r for r in csv.DictReader(f) if r["row"] == "3"]
        assert len(single) == len(mapped) == 16
        for a, b in zip(single, mapped):
            assert (a["col"], a["true_bit"], a["read_bit"]) == (b["col"], b["true_bit"], b["read_bit"])
            assert abs(float(a["current_A"]) - float(b["current_A"])) <= 1e-15

    def test_mismatch_command(self, tmp_path, capsys):
        code = run_cli(
            ["--set", "experiment.delta_v_grid=[0.002]", "--set", "experiment.trials=1",
             "mismatch"],
            tmp_path,
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "195" in out and "6500" in out

    def test_selftest_command(self, tmp_path, capsys):
        assert run_cli(["selftest"], tmp_path) == 0
        assert "PASS" in capsys.readouterr().out

    def test_selftest_detects_failures_under_optimize_flag(self):
        # -O strips assert statements; the battery must still fail a broken invariant.
        code = (
            "from xbarsim import analytics, selftest\n"
            "analytics.max_column_width = lambda p, device: 0\n"
            "raise SystemExit(selftest.run_selftest(print_fn=lambda line: None))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(xbarsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode >= 1, proc.stderr

    def test_config_error_emits_json_and_exit_2(self, tmp_path, capsys):
        code = run_cli(["--set", "crossbar.v_b=2.0", "fom-table"], tmp_path)
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config" and "crossbar" in err["where"]

    def test_cdf_command_deterministic(self, tmp_path, capsys):
        args = ["--set", "crossbar.rows=12", "--set", "crossbar.cols=12",
                "--set", "experiment.sample_cells=24", "--set", "experiment.backgrounds=2",
                "cdf"]
        assert run_cli(args, tmp_path / "a") == 0
        assert run_cli(args, tmp_path / "b") == 0
        assert (tmp_path / "a" / "cdf-conventional-1.csv").read_bytes() == (
            tmp_path / "b" / "cdf-conventional-1.csv"
        ).read_bytes()

    def test_output_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("XBARSIM_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["fom-table"]) == 0
        assert (tmp_path / "envout" / "fom-table-1.csv").exists()

    def test_console_script_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "xbarsim.cli", "-o", str(tmp_path), "fom-table"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "MATCH" in proc.stdout
