"""Built-in verification battery: oracle equivalence and physics invariants
small enough to run on every install (`xbarsim selftest`)."""

from __future__ import annotations

import dataclasses

import numpy as np

from . import analytics
from .crossbar import (
    BiasMismatch,
    CrossbarSpec,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from .devices import (
    CellGrid,
    LinearDeviceParams,
    NonlinearDeviceParams,
    VariationSpec,
    device_conductance,
    device_current,
    sample_cell,
)
from .oracle import dense_reference_solve
from .readout import RowReadSession, midpoint_threshold
from .solver import bitline_currents, solve, source_power

_SMALL = CrossbarSpec(rows=8, cols=8, r_wire=10.0)


def _require(ok, message: str) -> None:
    """Explicit check: unlike ``assert`` it still fails under ``python -O``."""
    if not ok:
        raise AssertionError(message)


def _checks():
    lin = LinearDeviceParams()
    non = NonlinearDeviceParams()
    novar = VariationSpec(0.0, 0)

    def device_models():
        cell = sample_cell(1, non, novar, 0, 0)
        vs = np.linspace(-1.5, 1.5, 101)
        odd = max(abs(device_current(cell, v) + device_current(cell, -v)) for v in vs)
        _require(odd < 1e-15 * device_current(cell, 1.5), "odd symmetry")
        h = 1e-7
        for v in (0.0, 0.3, 0.5, 1.2):
            fd = (device_current(cell, v + h) - device_current(cell, v - h)) / (2 * h)
            g = device_conductance(cell, v)
            _require(abs(fd - g) <= 1e-6 * abs(g), "derivative consistency")
        for base in (lin, non):
            on = device_current(sample_cell(1, base, novar, 0, 0), 0.5)
            off = device_current(sample_cell(0, base, novar, 0, 0), 0.5)
            _require(on / off >= 100, "state ordering")

    def sampling_determinism():
        var = VariationSpec(0.10, 42)
        a = sample_cell(1, lin, var, 3, 5)
        b = sample_cell(1, lin, var, 3, 5)
        _require(a == b, "per-cell sampling must be deterministic")
        grid = CellGrid.sample(6, 6, lin, var)
        c = grid.cell(3, 5, 1)
        _require(c.params == a.params, "grid and scalar sampling must agree")

    def oracle_equivalence():
        for seed in range(5):
            rng = np.random.default_rng(seed)
            base = lin if seed % 2 == 0 else non
            spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
            pattern = random_pattern(4, 4, rng)
            cells = CellGrid.sample(4, 4, base, VariationSpec(0.10, seed))
            bias = row_read_bias(spec, int(rng.integers(4)))
            net = build_network(spec, pattern, cells, bias)
            v1 = solve(net).node_voltages
            v2 = dense_reference_solve(net).node_voltages
            _require(np.abs(v1 - v2).max() < 1e-10, "sparse/dense disagreement")

    def physics_invariants():
        rng = np.random.default_rng(7)
        pattern = random_pattern(8, 8, rng)
        cells = CellGrid.sample(8, 8, lin, VariationSpec(0.10, 7))
        net = build_network(_SMALL, pattern, cells, conventional_cell_bias(_SMALL, 2, 3))
        sol = solve(net)
        _require(sol.kcl_residual <= 1e-12, "KCL residual")
        fixed = net.fixed_voltage[net.fixed_mask]
        v = sol.node_voltages
        _require(v.min() >= fixed.min() - 1e-12 and v.max() <= fixed.max() + 1e-12,
                 "maximum principle")
        p_branch = analytics.power_exact(net, sol)
        p_src = source_power(net, sol)
        # The two sides differ by sum(v * imbalance) over unknown nodes.
        slack = net.n_nodes * np.abs(v).max() * max(sol.kcl_residual, 1e-16)
        _require(abs(p_branch - p_src) <= 1e-12 * abs(p_src) + slack, "power conservation")

    def ideal_row_read():
        spec = dataclasses.replace(_SMALL, r_wire=0.0)
        rng = np.random.default_rng(3)
        pattern = random_pattern(8, 8, rng)
        cells = CellGrid.sample(8, 8, lin, VariationSpec(0.10, 3))
        net = build_network(spec, pattern, cells, row_read_bias(spec, 1))
        got = bitline_currents(net, solve(net))
        want = cells.currents(pattern, spec.v_dd - spec.v_b)[1]
        _require(np.abs(got - want).max() < 1e-12, "ideal-rail row read")

    def fom_table():
        rows = analytics.technique_fom_table()
        _require(all(r.matches_published for r in rows), "figure-of-merit mismatch")

    def mismatch_limits():
        p = analytics.MismatchParams()
        _require(analytics.max_column_width(p, lin) == 195, "linear column limit 195")
        _require(analytics.max_column_width(p, non) == 6500, "sinh column limit 6500")

    def row_session_matches_single_solve():
        rng = np.random.default_rng(11)
        pattern = random_pattern(8, 8, rng)
        cells = CellGrid.sample(8, 8, non, VariationSpec(0.10, 11))
        mism = BiasMismatch.uniform(_SMALL, 2e-3, selected_row=4)
        session = RowReadSession(_SMALL, cells, pattern, mism)
        got = session.row_currents([4])[0]
        net = build_network(_SMALL, pattern, cells, row_read_bias(_SMALL, 4, mism))
        want = bitline_currents(net, solve(net))
        _require(np.abs(got - want).max() < 1e-11, "session/direct mismatch")
        _require(midpoint_threshold(_SMALL, non) > 0, "positive decision threshold")

    return [
        ("device models", device_models),
        ("sampling determinism", sampling_determinism),
        ("sparse vs dense oracle", oracle_equivalence),
        ("physics invariants", physics_invariants),
        ("ideal-rail row read", ideal_row_read),
        ("figure-of-merit table", fom_table),
        ("mismatch column limits", mismatch_limits),
        ("row session consistency", row_session_matches_single_solve),
    ]


def run_selftest(print_fn=print) -> int:
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in _checks():
        try:
            fn()
        except AssertionError as e:
            failures += 1
            print_fn(f"FAIL - {name}: {e}")
        except Exception as e:  # noqa: BLE001 - report, keep going
            failures += 1
            print_fn(f"FAIL - {name}: {type(e).__name__}: {e}")
        else:
            print_fn(f"ok - {name}")
    return failures
