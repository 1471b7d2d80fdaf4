"""Built-in verification battery (`xbarsim selftest`): acceptance criteria
1, 4, 5, 7 and 8 at full size, which ``tests/test_acceptance.py`` runs
through the same functions, plus a sampling-determinism and a row-session
check.  Each check returns ``(ok, detail)``; none relies on ``assert``, so
the battery still fails a broken invariant under ``python -O``."""

from __future__ import annotations

import dataclasses

import numpy as np

from . import analytics
from .crossbar import (
    BiasMismatch,
    Clamp,
    CrossbarSpec,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from .devices import CellGrid, LinearDeviceParams, NonlinearDeviceParams, VariationSpec
from .oracle import dense_reference_solve
from .readout import RowReadSession, midpoint_threshold, read_row
from .solver import (
    bitline_currents,
    branch_currents_at,
    branch_power,
    branch_voltages,
    node_imbalance,
    solve,
    source_power,
)

_LIN = LinearDeviceParams()
_NON = NonlinearDeviceParams()


def sneak_path_elimination() -> tuple[bool, str]:
    """Criterion 1: ideal rails and zero mismatch, so every column current
    equals the isolated device current at the read swing (100 random 32x32
    patterns)."""
    worst = 0.0
    spec = CrossbarSpec(rows=32, cols=32, r_wire=0.0)
    for trial in range(100):
        base = _LIN if trial % 2 == 0 else _NON
        rng = np.random.default_rng(trial)
        pattern = random_pattern(32, 32, rng)
        cells = CellGrid.sample(32, 32, base, VariationSpec(0.10, trial))
        i = int(rng.integers(32))
        got = read_row(spec, cells, pattern, i)
        want = cells.currents(cells.active_params(pattern), spec.v_dd - spec.v_b)[i]
        worst = max(worst, float(np.abs(got - want).max()))
    return worst < 1e-12, f"max |column - isolated device| = {worst:.2e} A over 100 patterns"


def fom_table() -> tuple[bool, str]:
    """Criterion 4: all five recomputed figure-of-merit entries match the
    published comparison within 1%."""
    rows = analytics.technique_fom_table()
    ok = all(r.matches_published for r in rows)
    return ok, f"recomputed FOMs {[round(r.fom_recomputed, 4) for r in rows]} all within 1%"


def mismatch_limits() -> tuple[bool, str]:
    """Criterion 5: closed-form column-width limits hit the published 195
    and 6500, and the 8x8 network simulation lands within 5% of each."""
    p = analytics.MismatchParams(delta_v=2e-3, i_max=0.22e-6, i_min=0.195e-6)
    n_lin = analytics.max_column_width(p, _LIN)
    n_non = analytics.max_column_width(p, _NON)
    spec = CrossbarSpec(rows=8, cols=8)
    chk_lin = analytics.mismatch_simulation_check(spec, p, _LIN)
    chk_non = analytics.mismatch_simulation_check(spec, p, _NON)
    ok = (n_lin == 195 and n_non == 6500
          and chk_lin.relative_gap <= 0.05 and chk_non.relative_gap <= 0.05)
    return ok, (f"analytic {n_lin}/{n_non}, simulated {chk_lin.n_max_empirical}/"
                f"{chk_non.n_max_empirical}")


def oracle_equivalence() -> tuple[bool, str]:
    """Criterion 7: sparse and dense solves agree to 1e-10 V on arrays up to
    8x8 for both device models, and Newton takes at most 15 iterations."""
    worst_v = 0.0
    worst_iters = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        base = _LIN if seed % 2 == 0 else _NON
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
    return worst_v < 1e-10 and worst_iters <= 15, (
        f"max voltage gap {worst_v:.2e} V, max Newton iterations {worst_iters} over 100 seeds")


def power_balance(net, v) -> tuple[float, float]:
    """Tellegen check of one solve at node voltages v: branch dissipation
    minus source injection minus the power of the unknown nodes' residual
    currents, which is zero but for rounding, and the rounding bound of the
    branch sum, n_branches * eps * sum |dv * i|."""
    unknown = ~net.fixed_mask
    p_residual = float(np.dot(v[unknown], node_imbalance(net, v)[unknown]))
    gap = abs(branch_power(net, v) - source_power(net, v) - p_residual)
    dv = branch_voltages(net, v)
    bound = dv.size * np.finfo(float).eps * float(np.abs(dv * branch_currents_at(net, dv)).sum())
    return gap, bound


def physics_invariants() -> tuple[bool, str]:
    """Criterion 8: KCL, voltage hull, bias-translation invariance, power
    conservation (``power_balance``), and odd symmetry and derivative
    consistency of ``CellGrid``'s device law, all at tight tolerances."""
    problems = []
    for seed in range(6):
        base = _LIN if seed % 2 == 0 else _NON
        m, n = 6 + seed % 3, 5 + seed % 4
        spec = CrossbarSpec(rows=m, cols=n, r_wire=10.0)
        pattern = random_pattern(m, n, np.random.default_rng(seed))
        cells = CellGrid.sample(m, n, base, VariationSpec(0.10, seed))
        bias = row_read_bias(spec, seed % m) if seed % 2 else conventional_cell_bias(spec, 0, 0)
        net = build_network(spec, pattern, cells, bias)
        sol = solve(net)
        v = sol.node_voltages
        if sol.kcl_residual > 1e-12:
            problems.append(f"KCL residual {sol.kcl_residual:.1e}")
        fixed = net.fixed_voltage[net.fixed_mask]
        if v.min() < fixed.min() - 1e-12 or v.max() > fixed.max() + 1e-12:
            problems.append("maximum principle violated")
        delta = 0.17
        shifted = dataclasses.replace(bias, wl_v=bias.wl_v + delta, bl_v=bias.bl_v + delta)
        net2 = build_network(spec, pattern, cells, shifted)
        i_branch = branch_currents_at(net, branch_voltages(net, v))
        i_shifted = branch_currents_at(net2, branch_voltages(net2, solve(net2).node_voltages))
        if np.abs(i_branch - i_shifted).max() > 1e-12:
            problems.append("translation invariance violated")
        gap, bound = power_balance(net, v)
        if gap > bound:
            problems.append("power conservation violated")

    # the device law every solve evaluates, both models and both states
    for base in (_LIN, _NON):
        cells = CellGrid.sample(2, 3, base, VariationSpec(0.10, 3))
        for bit in (1, 0):
            params = cells.active_params(np.full(cells.shape, bit))
            for v in np.linspace(-1.5, 1.5, 101):
                i = cells.currents(params, v)
                if (np.abs(i + cells.currents(params, -v)) > 1e-15 * np.abs(i) + 1e-300).any():
                    problems.append("odd symmetry violated")
                    break
            h = 1e-7
            for v in (0.0, 0.4, 1.1):
                fd = (cells.currents(params, v + h) - cells.currents(params, v - h)) / (2 * h)
                g = cells.conductances(params, v)
                if (np.abs(fd - g) > 1e-6 * g).any():
                    problems.append("derivative consistency violated")
    if problems:
        return False, "; ".join(problems)
    return True, "KCL / hull / translation / power / symmetry / derivative all clean"


def sampling_determinism() -> tuple[bool, str]:
    """Each cell is sampled by (seed, i, j) alone: a 4x7 grid equals the
    matching block of a 6x6 grid drawn with the same seed."""
    var = VariationSpec(0.10, 42)
    small = CellGrid.sample(4, 7, _LIN, var)
    large = CellGrid.sample(6, 6, _LIN, var)
    ok = all(np.array_equal(getattr(small, f)[:, :6], getattr(large, f)[:4])
             for f in ("on_values", "off_values"))
    return ok, "grid cells independent of grid size" if ok else "sampling disagrees"


def row_session_consistency() -> tuple[bool, str]:
    """A sinh row session under bias mismatch reads all 24 rows of a 24x24
    array (one full solve panel and one partial) and matches direct solves
    of rows in both panels."""
    spec = CrossbarSpec(rows=24, cols=24, r_wire=10.0)
    pattern = random_pattern(24, 24, np.random.default_rng(11))
    cells = CellGrid.sample(24, 24, _NON, VariationSpec(0.10, 11))
    mism = BiasMismatch.uniform(spec, 2e-3)
    got = RowReadSession(spec, cells, pattern, mism).row_currents(range(24))
    gap = 0.0
    for i in (4, 17, 23):
        net = build_network(spec, pattern, cells, row_read_bias(spec, i, mism))
        want = bitline_currents(net, solve(net).node_voltages)
        gap = max(gap, float(np.abs(got[i] - want).max()))
    ok = gap < 1e-11 and midpoint_threshold(spec, _NON) > 0
    return ok, f"session/direct gap {gap:.2e} A over rows 4, 17 and 23 of 24"


_CHECKS = [
    ("sneak-path elimination", sneak_path_elimination),
    ("figure-of-merit table", fom_table),
    ("mismatch column limits", mismatch_limits),
    ("sparse vs dense oracle", oracle_equivalence),
    ("physics invariants", physics_invariants),
    ("sampling determinism", sampling_determinism),
    ("row session consistency", row_session_consistency),
]


def run_selftest(print_fn=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in _CHECKS:
        try:
            ok, detail = fn()
        except Exception as e:  # noqa: BLE001 - report, keep going
            ok, detail = False, f"{type(e).__name__}: {e}"
        failures += not ok
        print_fn(f"{'ok' if ok else 'FAIL'} - {name}: {detail}")
    return failures
