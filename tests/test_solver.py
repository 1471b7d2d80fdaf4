import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.io import mmread

from xbarsim.crossbar import (
    BiasConfig,
    Clamp,
    CrossbarSpec,
    Drive,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import CellGrid, LinearDeviceParams, NonlinearDeviceParams, VariationSpec
from xbarsim import solver
from xbarsim.oracle import dense_reference_solve
from xbarsim.solver import (
    SingularNetworkError,
    bitline_currents,
    check_grounded,
    dump_system,
    solve,
    solve_linear,
    solve_nonlinear,
    source_power,
)

NOVAR = VariationSpec(0.0, 0)
LIN = LinearDeviceParams()
NON = NonlinearDeviceParams()


def build(spec, base, bias, seed=0, sigma=0.0, pattern=None):
    cells = CellGrid.sample(spec.rows, spec.cols, base, VariationSpec(sigma, seed))
    if pattern is None:
        pattern = random_pattern(spec.rows, spec.cols, np.random.default_rng(seed))
    return build_network(spec, pattern, cells, bias)


class TestLinearSolve:
    def test_single_resistor(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0)
        net = build(spec, LIN, row_read_bias(spec, 0), pattern=np.ones((1, 1), np.int8))
        sol = solve_linear(net)
        assert sol.device_currents[0] == pytest.approx(0.5e-6, rel=1e-15)
        assert sol.iterations == 1

    def test_matches_dense_oracle_2x2(self):
        spec = CrossbarSpec(rows=2, cols=2, r_wire=10.0)
        net = build(spec, LIN, conventional_cell_bias(spec, 0, 0), sigma=0.1, seed=3)
        v_sparse = solve_linear(net).node_voltages
        v_dense = dense_reference_solve(net).node_voltages
        assert np.abs(v_sparse - v_dense).max() < 1e-12

    def test_translation_invariance(self):
        spec = CrossbarSpec(rows=5, cols=4, r_wire=10.0)
        delta = 0.137
        net0 = build(spec, LIN, row_read_bias(spec, 2), sigma=0.1)
        bias = row_read_bias(spec, 2)
        bias_shift = dataclasses.replace(bias, wl_v=bias.wl_v + delta, bl_v=bias.bl_v + delta)
        net1 = build(spec, LIN, bias_shift, sigma=0.1)
        i0 = solve_linear(net0)
        i1 = solve_linear(net1)
        assert np.abs(i0.branch_currents - i1.branch_currents).max() < 1e-12

    def test_linear_superposition(self):
        spec = CrossbarSpec(rows=6, cols=5, r_wire=10.0)
        c = 0.35
        spec_scaled = dataclasses.replace(spec, v_dd=spec.v_b + c * (spec.v_dd - spec.v_b))
        pattern = random_pattern(6, 5, np.random.default_rng(8))
        cells = CellGrid.sample(6, 5, LIN, VariationSpec(0.1, 8))
        i_full = solve_linear(build_network(spec, pattern, cells, row_read_bias(spec, 1)))
        i_scaled = solve_linear(build_network(spec_scaled, pattern, cells, row_read_bias(spec_scaled, 1)))
        err = np.abs(i_scaled.branch_currents - c * i_full.branch_currents)
        assert err.max() < 1e-10 * np.abs(i_full.branch_currents).max()

    def test_requires_linear_cells(self):
        spec = CrossbarSpec(rows=2, cols=2, r_wire=10.0)
        net = build(spec, NON, row_read_bias(spec, 0))
        with pytest.raises(TypeError):
            solve_linear(net)

    def test_fixed_voltages_exact(self):
        spec = CrossbarSpec(rows=3, cols=3, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 1), sigma=0.1)
        sol = solve_linear(net)
        assert (sol.node_voltages[net.fixed_mask] == net.fixed_voltage[net.fixed_mask]).all()


class TestNonlinearSolve:
    def test_single_device_ideal(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0)
        net = build(spec, NON, row_read_bias(spec, 0), pattern=np.ones((1, 1), np.int8))
        sol = solve_nonlinear(net)
        assert sol.device_currents[0] == pytest.approx(1e-8 * math.sinh(1.5), rel=1e-12)

    def test_series_resistance_matches_bisection_oracle(self):
        # drive and clamp each attach through r_driver = 5 ohm, so the device
        # sees 10 ohm in series; oracle solves k*sinh(a*(dv - i*r)) = i by
        # hand bisection on i.
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0, r_driver=5.0)
        net = build(spec, NON, row_read_bias(spec, 0), pattern=np.ones((1, 1), np.int8))
        sol = solve_nonlinear(net)
        r_total, dv = 10.0, 0.5
        lo, hi = 0.0, 1e-6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if 1e-8 * math.sinh(3.0 * (dv - mid * r_total)) - mid > 0:
                lo = mid
            else:
                hi = mid
        assert sol.device_currents[0] == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_zero_excitation_converges_immediately(self):
        spec = CrossbarSpec(rows=3, cols=3, r_wire=10.0)
        bias = BiasConfig.from_terms((Clamp(0.7),) * 3, (Clamp(0.7),) * 3)
        net = build(spec, NON, bias, pattern=np.zeros((3, 3), np.int8))
        sol = solve_nonlinear(net)
        assert sol.iterations == 1
        assert np.abs(sol.device_currents).max() == 0.0

    def test_all_fixed_network_skips_the_nodal_residual(self, monkeypatch):
        # r_wire = 0 and r_driver = 0: every node is a line rail held by its
        # source, so there is nothing to iterate on and no residual to form.
        spec = CrossbarSpec(rows=4, cols=3, r_wire=0.0, r_driver=0.0)
        net = build(spec, NON, row_read_bias(spec, 1), sigma=0.1, seed=3)
        assert net.fixed_mask.all()
        calls = []
        real = solver.node_imbalance

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(solver, "node_imbalance", counted)
        sol = solve_nonlinear(net)
        assert calls == []
        assert sol.iterations == 1 and sol.kcl_residual == 0.0
        k = np.where(net.pattern == 1, net.cells.on_values, net.cells.off_values)
        dv = np.zeros((4, 3))
        dv[1] = spec.v_dd - spec.v_b
        assert np.allclose(sol.device_currents, (k * np.sinh(NON.a * dv)).ravel(), rtol=1e-12, atol=0)

    def test_converges_within_budget_at_paper_params(self):
        spec = CrossbarSpec(rows=8, cols=8, r_wire=10.0)
        net = build(spec, NON, row_read_bias(spec, 3), sigma=0.1, seed=5)
        sol = solve_nonlinear(net)
        assert sol.iterations <= 15
        assert sol.kcl_residual <= 1e-12

    def test_strong_nonlinearity_survives_damping(self):
        strong = NonlinearDeviceParams(k_on=1e-8, k_off=1e-11, a=30.0)
        spec = CrossbarSpec(rows=3, cols=3, r_wire=10.0)
        net = build(spec, strong, row_read_bias(spec, 0), seed=2)
        sol = solve_nonlinear(net)
        assert sol.kcl_residual <= 1e-12

    def test_requires_nonlinear_cells(self):
        spec = CrossbarSpec(rows=2, cols=2, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 0))
        with pytest.raises(TypeError):
            solve_nonlinear(net)


class TestPhysicsInvariants:
    @pytest.mark.parametrize("base", [LIN, NON])
    def test_kcl_and_maximum_principle(self, base):
        for seed in range(5):
            m, n = 3 + seed % 4, 2 + seed % 5
            spec = CrossbarSpec(rows=m, cols=n, r_wire=10.0)
            bias = row_read_bias(spec, seed % m) if seed % 2 else conventional_cell_bias(spec, 0, n - 1)
            net = build(spec, base, bias, seed=seed, sigma=0.1)
            sol = solve(net)
            assert sol.kcl_residual <= 1e-12
            fixed = net.fixed_voltage[net.fixed_mask]
            assert sol.node_voltages.min() >= fixed.min() - 1e-12
            assert sol.node_voltages.max() <= fixed.max() + 1e-12

    @pytest.mark.parametrize("base", [LIN, NON])
    def test_translation_invariance_both_models(self, base):
        spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
        delta = -0.21
        b0 = row_read_bias(spec, 1)
        b1 = dataclasses.replace(b0, wl_v=b0.wl_v + delta, bl_v=b0.bl_v + delta)
        pattern = random_pattern(4, 4, np.random.default_rng(4))
        cells = CellGrid.sample(4, 4, base, VariationSpec(0.1, 4))
        i0 = solve(build_network(spec, pattern, cells, b0)).branch_currents
        i1 = solve(build_network(spec, pattern, cells, b1)).branch_currents
        assert np.abs(i0 - i1).max() < 1e-12


class TestOracleEquivalence:
    def test_sparse_dense_campaign_small(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            m = int(rng.integers(1, 9))
            n = int(rng.integers(1, 9))
            base = LIN if trial % 2 == 0 else NON
            spec = CrossbarSpec(rows=m, cols=n, r_wire=float(rng.choice([0.0, 10.0])))
            bias = (row_read_bias(spec, int(rng.integers(m))) if trial % 3
                    else conventional_cell_bias(spec, int(rng.integers(m)), int(rng.integers(n))))
            net = build(spec, base, bias, seed=trial, sigma=0.1)
            v1 = solve(net).node_voltages
            v2 = dense_reference_solve(net).node_voltages
            assert np.abs(v1 - v2).max() < 1e-10

    def test_dense_1x1_analytic(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0)
        net = build(spec, LIN, row_read_bias(spec, 0), pattern=np.ones((1, 1), np.int8))
        sol = dense_reference_solve(net)
        assert sol.device_currents[0] == pytest.approx(0.5e-6, rel=1e-15)

    def test_dense_size_cap(self):
        spec = CrossbarSpec(rows=64, cols=64, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 0))
        with pytest.raises(ValueError, match="capped"):
            dense_reference_solve(net)

    def test_ungrounded_rejected_identically_by_both_paths(self):
        # bias validation refuses all-floating configurations up front, so
        # exercise the solver-level guards on a hand-disconnected network
        spec = CrossbarSpec(rows=2, cols=2, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 0))
        object.__setattr__(net, "fixed_mask", np.zeros(net.n_nodes, dtype=bool))
        with pytest.raises(SingularNetworkError):
            check_grounded(net)
        with pytest.raises(SingularNetworkError):
            dense_reference_solve(net)
        with pytest.raises(SingularNetworkError):
            solve(net)


class TestInterfaces:
    def test_floating_bitline_current_query_rejected(self):
        from xbarsim.crossbar import FLOATING

        spec = CrossbarSpec(rows=2, cols=2, r_wire=10.0)
        bias = BiasConfig.from_terms((Drive(1.2), Clamp(0.7)), (FLOATING, FLOATING))
        net = build(spec, LIN, bias)
        sol = solve(net)
        with pytest.raises(ValueError, match="no sense path"):
            bitline_currents(net, sol)

    def test_dump_system_round_trip(self, tmp_path):
        spec = CrossbarSpec(rows=3, cols=2, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 1), sigma=0.1)
        sol = solve(net)
        paths = dump_system(net, str(tmp_path / "dbg"), sol)
        assert len(paths) == 3
        from xbarsim.solver import assemble_admittance

        G = mmread(paths[0]).toarray()
        want = assemble_admittance(net, net.cells.active_conductances(net.pattern)).toarray()
        assert np.allclose(G, want, rtol=0, atol=0)
        text = Path(paths[2]).read_text()
        assert "branch device" in text and "node 0" in text

    def test_source_power_balances_dissipation(self):
        spec = CrossbarSpec(rows=6, cols=6, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 3), sigma=0.1, seed=12)
        sol = solve(net)
        from xbarsim.analytics import power_exact

        p_branch = power_exact(net, sol)
        p_src = source_power(net, sol)
        slack = net.n_nodes * np.abs(sol.node_voltages).max() * max(sol.kcl_residual, 1e-16)
        assert abs(p_branch - p_src) <= 1e-12 * abs(p_src) + slack
