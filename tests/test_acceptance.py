"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Full-size reproductions are
marked 'paperscale' and excluded from the default run; invoke them with
``pytest -m paperscale``."""

import dataclasses
import time

import numpy as np
import pytest

from xbarsim.analytics import (
    MismatchParams,
    max_column_width,
    mismatch_simulation_check,
    power_row_approx,
    technique_fom_table,
)
from xbarsim.config import CrossbarConfig, ExperimentConfig, RunConfig, VariationConfig
from xbarsim.crossbar import (
    Clamp,
    CrossbarSpec,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import (
    CellGrid,
    LinearDeviceParams,
    NonlinearDeviceParams,
    VariationSpec,
    device_conductance,
    device_current,
    sample_cell,
)
from xbarsim.experiments import run_cdf_conventional, run_row_read_map
from xbarsim.oracle import dense_reference_solve
from xbarsim.readout import RowReadSession, read_row
from xbarsim.solver import solve

LIN = LinearDeviceParams()
NON = NonlinearDeviceParams()


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_1_sneak_path_elimination():
    """Ideal rails and zero mismatch: every column current equals the
    isolated device current at the read swing, 100 random 32x32 patterns."""
    t0 = time.perf_counter()
    worst = 0.0
    spec = CrossbarSpec(rows=32, cols=32, r_wire=0.0)
    for trial in range(100):
        base = LIN if trial % 2 == 0 else NON
        rng = np.random.default_rng(trial)
        pattern = random_pattern(32, 32, rng)
        cells = CellGrid.sample(32, 32, base, VariationSpec(0.10, trial))
        i = int(rng.integers(32))
        res = read_row(spec, cells, pattern, i)
        want = cells.currents(pattern, spec.v_dd - spec.v_b)[i]
        worst = max(worst, float(np.abs(res.sensed - want).max()))
    elapsed = time.perf_counter() - t0
    _report(1, worst < 1e-12 and elapsed < 5.0,
            f"max |column - isolated device| = {worst:.2e} A over 100 patterns "
            f"({elapsed:.1f} s)")


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
    rows = technique_fom_table()
    elapsed = time.perf_counter() - t0
    bad = [r.name for r in rows if not r.matches_published]
    _report(4, not bad and elapsed < 1.0,
            f"recomputed FOMs {[round(r.fom_recomputed, 4) for r in rows]} "
            f"all within 1% ({elapsed * 1e3:.0f} ms)")


def test_criterion_5_mismatch_limits():
    """Closed-form column-width limits hit the published numbers exactly and
    the network simulation lands within 5%."""
    t0 = time.perf_counter()
    p = MismatchParams(delta_v=2e-3, i_max=0.22e-6, i_min=0.195e-6)
    n_lin = max_column_width(p, LIN)
    n_non = max_column_width(p, NON)
    spec = CrossbarSpec(rows=8, cols=8)
    chk_lin = mismatch_simulation_check(spec, p, LIN)
    chk_non = mismatch_simulation_check(spec, p, NON)
    elapsed = time.perf_counter() - t0
    ok = (n_lin == 195 and n_non == 6500
          and chk_lin.relative_gap <= 0.05 and chk_non.relative_gap <= 0.05
          and elapsed < 300)
    _report(5, ok,
            f"analytic 195/6500, simulated {chk_lin.n_max_empirical}/"
            f"{chk_non.n_max_empirical} ({elapsed:.1f} s)")


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
    worst_v = 0.0
    worst_iters = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        base = LIN if seed % 2 == 0 else NON
        spec = CrossbarSpec(rows=m, cols=n, r_wire=float(rng.choice([0.0, 10.0])))
        pick = seed % 3
        if pick == 0:
            bias = row_read_bias(spec, int(rng.integers(m)))
        elif pick == 1:
            bias = conventional_cell_bias(spec, int(rng.integers(m)), int(rng.integers(n)))
        else:
            bias = conventional_cell_bias(
                spec, int(rng.integers(m)), int(rng.integers(n)), unselected=Clamp(spec.v_b)
            )
        pattern = random_pattern(m, n, rng)
        cells = CellGrid.sample(m, n, base, VariationSpec(0.10, seed))
        net = build_network(spec, pattern, cells, bias)
        sol = solve(net)
        ref = dense_reference_solve(net)
        worst_v = max(worst_v, float(np.abs(sol.node_voltages - ref.node_voltages).max()))
        if not net.cells.is_linear:
            worst_iters = max(worst_iters, sol.iterations)
    elapsed = time.perf_counter() - t0
    ok = worst_v < 1e-10 and worst_iters <= 15 and elapsed < 60
    _report(7, ok, f"max voltage gap {worst_v:.2e} V, max Newton iterations "
                   f"{worst_iters} over 100 seeds ({elapsed:.0f} s)")


def test_criterion_8_physics_invariant_suite():
    """KCL, voltage hull, bias-translation invariance, device odd symmetry
    and derivative consistency, all at tight tolerances."""
    t0 = time.perf_counter()
    problems = []

    for seed in range(6):
        base = LIN if seed % 2 == 0 else NON
        m, n = 6 + seed % 3, 5 + seed % 4
        spec = CrossbarSpec(rows=m, cols=n, r_wire=10.0)
        pattern = random_pattern(m, n, np.random.default_rng(seed))
        cells = CellGrid.sample(m, n, base, VariationSpec(0.10, seed))
        bias = row_read_bias(spec, seed % m) if seed % 2 else conventional_cell_bias(spec, 0, 0)
        net = build_network(spec, pattern, cells, bias)
        sol = solve(net)
        if sol.kcl_residual > 1e-12:
            problems.append(f"KCL residual {sol.kcl_residual:.1e}")
        fixed = net.fixed_voltage[net.fixed_mask]
        if (sol.node_voltages.min() < fixed.min() - 1e-12
                or sol.node_voltages.max() > fixed.max() + 1e-12):
            problems.append("maximum principle violated")
        delta = 0.17
        shifted = dataclasses.replace(bias, wl_v=bias.wl_v + delta, bl_v=bias.bl_v + delta)
        sol2 = solve(build_network(spec, pattern, cells, shifted))
        if np.abs(sol.branch_currents - sol2.branch_currents).max() > 1e-12:
            problems.append("translation invariance violated")

    cell = sample_cell(1, NON, VariationSpec(0.10, 3), 1, 2)
    for v in np.linspace(-1.5, 1.5, 101):
        if abs(device_current(cell, v) + device_current(cell, -v)) > 1e-15 * abs(
            device_current(cell, v)
        ) + 1e-300:
            problems.append("odd symmetry violated")
            break
    h = 1e-7
    for v in (0.0, 0.4, 1.1):
        fd = (device_current(cell, v + h) - device_current(cell, v - h)) / (2 * h)
        if abs(fd - device_conductance(cell, v)) > 1e-6 * device_conductance(cell, v):
            problems.append("derivative consistency violated")
    elapsed = time.perf_counter() - t0
    _report(8, not problems and elapsed < 60,
            f"KCL / hull / translation / symmetry / derivative all clean ({elapsed:.1f} s)"
            if not problems else "; ".join(problems))
