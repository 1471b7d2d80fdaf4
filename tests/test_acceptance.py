"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Full-size reproductions are
marked 'paperscale' and excluded from the default run; invoke them with
``pytest -m paperscale``."""

import dataclasses
import time

import numpy as np
import pytest

from xbarsim import selftest
from xbarsim.analytics import power_row_approx
from xbarsim.config import CrossbarConfig, ExperimentConfig, RunConfig, VariationConfig
from xbarsim.crossbar import CrossbarSpec, random_pattern
from xbarsim.devices import CellGrid, LinearDeviceParams, VariationSpec
from xbarsim.experiments import run_cdf_conventional, run_row_read_map
from xbarsim.readout import RowReadSession

LIN = LinearDeviceParams()


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_sneak_path_elimination():
    """Ideal rails and zero mismatch: every column current equals the
    isolated device current at the read swing, 100 random 32x32 patterns."""
    t0 = time.perf_counter()
    ok, detail = selftest.sneak_path_elimination()
    elapsed = time.perf_counter() - t0
    _report(1, ok and elapsed < 5.0, f"{detail} ({elapsed:.1f} s)")


def _cdf_config(n: int, samples: int) -> RunConfig:
    return RunConfig(
        crossbar=CrossbarConfig(rows=n, cols=n),
        variation=VariationConfig(relative_sigma=0.10),
        experiment=ExperimentConfig(master_seed=5, sample_cells=samples, backgrounds=4),
    )


def test_criterion_2_conventional_overlap_desk(tmp_path):
    """Desk proxy of the conventional-read population study: at 128x128 the
    state currents overlap enough that the best threshold errs > 5%."""
    t0 = time.perf_counter()
    summary = run_cdf_conventional(_cdf_config(128, 2048), tmp_path)
    elapsed = time.perf_counter() - t0
    ok = summary["best_ber"] > 0.05 and summary["samples"] >= 2048 and elapsed < 120
    _report(2, ok, f"128x128 conventional best BER = {summary['best_ber']:.3f} "
                   f"over {summary['samples']} cells ({elapsed:.0f} s)")


@pytest.mark.paperscale
def test_criterion_2_conventional_overlap_paper(tmp_path):
    t0 = time.perf_counter()
    summary = run_cdf_conventional(_cdf_config(512, 2048), tmp_path)
    elapsed = time.perf_counter() - t0
    ok = summary["best_ber"] > 0.1 and summary["samples"] >= 2048 and elapsed < 1800
    _report("2(paper)", ok,
            f"512x512 conventional best BER = {summary['best_ber']:.3f} "
            f"over {summary['samples']} cells ({elapsed:.0f} s)")


def _map_config(n: int, model: str) -> RunConfig:
    # Clamped lines are held from both ends: with decoder-side-only holds
    # the wordline pickup at full size lifts the worst HRS column current
    # above the ideal-currents threshold (see the decisions notes).
    return RunConfig(
        crossbar=CrossbarConfig(rows=n, cols=n, double_sided_clamps=True),
        device=dataclasses.replace(RunConfig().device, model=model),
        variation=VariationConfig(relative_sigma=0.10),
        experiment=ExperimentConfig(master_seed=9),
    )


def _criterion_3(n: int, tmp_path, label, budget_s=None):
    t0 = time.perf_counter()
    lin = run_row_read_map(_map_config(n, "linear"), tmp_path / "lin")
    non = run_row_read_map(_map_config(n, "nonlinear"), tmp_path / "non")
    elapsed = time.perf_counter() - t0
    ok = (
        lin["errors"] == 0
        and non["errors"] == 0
        and non["separation_ratio"] > lin["separation_ratio"]
        and (budget_s is None or elapsed < budget_s)
    )
    _report(label, ok,
            f"{n}x{n} row-read errors lin/non = {lin['errors']}/{non['errors']}, "
            f"separation lin = {lin['separation_ratio']:.0f}, "
            f"non = {non['separation_ratio']:.0f} ({elapsed:.0f} s)")


def test_criterion_3_row_read_map_desk(tmp_path):
    """Full-array row readout at 128x128: zero classification errors for both
    device models and a wider nonlinear separation."""
    _criterion_3(128, tmp_path, 3)


@pytest.mark.paperscale
def test_criterion_3_row_read_map_paper(tmp_path):
    _criterion_3(512, tmp_path, "3(paper)")


def test_criterion_4_fom_table():
    """All five recomputed figure-of-merit entries match the published
    comparison within 1%."""
    t0 = time.perf_counter()
    ok, detail = selftest.fom_table()
    elapsed = time.perf_counter() - t0
    _report(4, ok and elapsed < 1.0, f"{detail} ({elapsed * 1e3:.0f} ms)")


def test_criterion_5_mismatch_limits():
    """Closed-form column-width limits hit the published numbers exactly and
    the network simulation lands within 5%."""
    t0 = time.perf_counter()
    ok, detail = selftest.mismatch_limits()
    elapsed = time.perf_counter() - t0
    _report(5, ok and elapsed < 300, f"{detail} ({elapsed:.1f} s)")


def test_criterion_6_power_consistency():
    """Linear devices with 10 ohm wire: the network-exact read power stays
    below the wire-free approximation for every seed and size, and falls
    monotonically as the hold voltage approaches the supply."""
    t0 = time.perf_counter()
    v_b_grid = [0.5, 0.7, 0.9, 1.1]
    violations = []
    for size in (64, 128, 256):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            spec = CrossbarSpec(rows=size, cols=size, r_wire=10.0)
            pattern = random_pattern(size, size, rng)
            cells = CellGrid.sample(size, size, LIN, VariationSpec(0.10, seed))
            session = RowReadSession(spec, cells, pattern)
            row = size // 2
            exact = []
            for v_b in v_b_grid:
                spec_vb = dataclasses.replace(spec, v_b=v_b)
                V = session.solve_rows([row], v_b=v_b)
                p_exact = float(session.branch_power_from(V)[0])
                p_approx = power_row_approx(spec_vb, pattern, cells, row)
                exact.append(p_exact)
                if p_exact >= p_approx:
                    violations.append((size, seed, v_b, "exact >= approx"))
            if any(b >= a for a, b in zip(exact, exact[1:])):
                violations.append((size, seed, None, "not monotone in v_b"))
    elapsed = time.perf_counter() - t0
    _report(6, not violations and elapsed < 600,
            f"150 configs x {len(v_b_grid)} hold voltages, exact < approx and "
            f"monotone everywhere ({elapsed:.0f} s)")


def test_criterion_7_solver_oracle_equivalence():
    """Sparse and dense solves agree to 1e-10 V on arrays up to 8x8 for both
    device models; Newton stays within its iteration budget."""
    t0 = time.perf_counter()
    ok, detail = selftest.oracle_equivalence()
    elapsed = time.perf_counter() - t0
    _report(7, ok and elapsed < 60, f"{detail} ({elapsed:.0f} s)")


def test_criterion_8_physics_invariant_suite():
    """KCL, voltage hull, bias-translation invariance, power conservation,
    device odd symmetry and derivative consistency, all at tight tolerances."""
    t0 = time.perf_counter()
    ok, detail = selftest.physics_invariants()
    elapsed = time.perf_counter() - t0
    _report(8, ok and elapsed < 60, f"{detail} ({elapsed:.1f} s)" if ok else detail)
