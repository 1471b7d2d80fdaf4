import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.crossbar import (
    FLOATING,
    BiasConfig,
    Clamp,
    CrossbarSpec,
    Drive,
    ResistiveLoad,
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
    assemble_admittance,
    bitline_currents,
    branch_currents_at,
    branch_power,
    branch_voltages,
    check_grounded,
    node_imbalance,
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


def currents(net, sol):
    """Branch currents of a solve: wires, then devices (cell-major)."""
    return branch_currents_at(net, branch_voltages(net, sol.node_voltages))


def device_currents(net, sol):
    return currents(net, sol)[net.wire_a.size:]


class TestLinearSolve:
    def test_single_resistor(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0)
        net = build(spec, LIN, row_read_bias(spec, 0), pattern=np.ones((1, 1), np.int8))
        sol = solve_linear(net)
        assert device_currents(net, sol)[0] == pytest.approx(0.5e-6, rel=1e-15)
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
        i0 = currents(net0, solve_linear(net0))
        i1 = currents(net1, solve_linear(net1))
        assert np.abs(i0 - i1).max() < 1e-12

    def test_linear_superposition(self):
        spec = CrossbarSpec(rows=6, cols=5, r_wire=10.0)
        c = 0.35
        spec_scaled = dataclasses.replace(spec, v_dd=spec.v_b + c * (spec.v_dd - spec.v_b))
        pattern = random_pattern(6, 5, np.random.default_rng(8))
        cells = CellGrid.sample(6, 5, LIN, VariationSpec(0.1, 8))
        net_full = build_network(spec, pattern, cells, row_read_bias(spec, 1))
        net_scaled = build_network(spec_scaled, pattern, cells, row_read_bias(spec_scaled, 1))
        i_full = currents(net_full, solve_linear(net_full))
        i_scaled = currents(net_scaled, solve_linear(net_scaled))
        err = np.abs(i_scaled - c * i_full)
        assert err.max() < 1e-10 * np.abs(i_full).max()

    def test_direct_solve_then_one_refinement_step(self):
        # the second correction predicts a third below the rounding floor,
        # so no third solve is made only to confirm it
        spec = CrossbarSpec(rows=5, cols=4, r_wire=10.0, r_driver=25.0)
        net = build(spec, LIN, row_read_bias(spec, 2), sigma=0.1, seed=7)
        with mock.patch.object(solver.ReducedSystem, "solve_block", autospec=True,
                               side_effect=solver.ReducedSystem.solve_block) as solves:
            sol = solve_linear(net)
        assert solves.call_count == 2
        assert sol.kcl_residual <= solver.KCL_TOL
        assert np.abs(sol.node_voltages - dense_reference_solve(net).node_voltages).max() <= 1e-14

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
        assert device_currents(net, sol)[0] == pytest.approx(1e-8 * math.sinh(1.5), rel=1e-12)

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
        assert device_currents(net, sol)[0] == pytest.approx(0.5 * (lo + hi), abs=1e-12)

    def test_zero_excitation_converges_immediately(self):
        spec = CrossbarSpec(rows=3, cols=3, r_wire=10.0)
        bias = BiasConfig.from_terms((Clamp(0.7),) * 3, (Clamp(0.7),) * 3)
        net = build(spec, NON, bias, pattern=np.zeros((3, 3), np.int8))
        sol = solve_nonlinear(net)
        assert sol.iterations == 1
        assert np.abs(device_currents(net, sol)).max() == 0.0

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
        assert np.allclose(device_currents(net, sol), (k * np.sinh(NON.a * dv)).ravel(),
                           rtol=1e-12, atol=0)

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


def _edge_bias(spec, scheme, i, j, r_s):
    """Row read, single-cell conventional read, or row drive with floating
    or resistively loaded bitlines."""
    if scheme == "row":
        return row_read_bias(spec, i)
    if scheme == "conventional":
        return conventional_cell_bias(spec, i, j)
    wordlines = tuple(Drive(spec.v_dd) if k == i else Clamp(spec.v_b) for k in range(spec.rows))
    term = FLOATING if scheme == "floating" else ResistiveLoad(r_s)
    return BiasConfig.from_terms(wordlines, (term,) * spec.cols)


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    scheme=st.sampled_from(["row", "conventional", "floating", "resistive"]),
    r_s=st.sampled_from([1e4, 1e6]),
    fill=st.sampled_from(["lrs", "hrs", "random"]),
    with_mismatch=st.booleans(),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_ideal_rail_start_matches_dense_oracle(
    rows, cols, r_wire, r_driver, double_sided, scheme, r_s, fill, with_mismatch, seed, data
):
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    rng = np.random.default_rng(seed)
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    bias = _edge_bias(spec, scheme, i, j, r_s)
    if with_mismatch:  # offsets leave floating lines at NaN
        bias = dataclasses.replace(bias, wl_v=bias.wl_v + rng.uniform(-2e-3, 2e-3, rows),
                                   bl_v=bias.bl_v + rng.uniform(-2e-3, 2e-3, cols))
    pattern = (random_pattern(rows, cols, rng) if fill == "random"
               else np.full((rows, cols), 1 if fill == "lrs" else 0, dtype=np.int8))
    net = build(spec, NON, bias, seed=seed, sigma=0.1, pattern=pattern)

    with mock.patch.object(solver, "build_network", wraps=solver.build_network) as collapsed:
        sol = solve_nonlinear(net)
    # only a wired network with unknowns starts from its collapsed network
    assert collapsed.call_count == int(r_wire > 0 and not net.fixed_mask.all())
    assert sol.kcl_residual <= solver.KCL_TOL
    fixed = net.fixed_mask
    assert np.array_equal(sol.node_voltages[fixed], net.fixed_voltage[fixed])
    ref = dense_reference_solve(net).node_voltages
    assert np.abs(sol.node_voltages - ref).max() <= 1e-10


@pytest.mark.parametrize("r_wire, r_driver, scheme, cols", [(10.0, 25.0, "floating", 1),
                                                        (0.0, 0.0, "conventional", 5)])
def test_floating_hrs_lines_refined_to_the_rounding_floor(r_wire, r_driver, scheme, cols):
    # All-HRS lines floating behind 1e-11 A-scale devices: Newton stops with
    # their voltage up to 1e-2 V off, and refinement on its last Jacobian
    # closes that by only 0.1-0.3 a step.  Eight steps left 3.6e-8 V in the
    # dense oracle (first case) and 5e-10 V in both solvers (second case).
    spec = CrossbarSpec(rows=2, cols=cols, r_wire=r_wire, r_driver=r_driver)
    net = build(spec, NON, _edge_bias(spec, scheme, 0, cols - 1, 1e4), seed=0, sigma=0.1,
                pattern=np.zeros((2, cols), dtype=np.int8))
    v = solve_nonlinear(net).node_voltages
    u = ~net.fixed_mask
    dv = (v[net.dev_a] - v[net.dev_b]).reshape(spec.rows, spec.cols)
    J = assemble_admittance(net, net.cells.conductances(net.active_params, dv)).toarray()
    newton_step = np.linalg.solve(J[np.ix_(u, u)], node_imbalance(net, v)[u])
    assert np.abs(newton_step).max() <= 1e-12
    assert np.abs(v - dense_reference_solve(net).node_voltages).max() <= 1e-12


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
        net0 = build_network(spec, pattern, cells, b0)
        net1 = build_network(spec, pattern, cells, b1)
        i0 = currents(net0, solve(net0))
        i1 = currents(net1, solve(net1))
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
        assert device_currents(net, sol)[0] == pytest.approx(0.5e-6, rel=1e-15)

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
            bitline_currents(net, sol.node_voltages)

    def test_source_power_balances_dissipation(self):
        spec = CrossbarSpec(rows=6, cols=6, r_wire=10.0)
        net = build(spec, LIN, row_read_bias(spec, 3), sigma=0.1, seed=12)
        sol = solve(net)
        p_branch = branch_power(net, sol.node_voltages)
        p_src = source_power(net, sol.node_voltages)
        slack = net.n_nodes * np.abs(sol.node_voltages).max() * max(sol.kcl_residual, 1e-16)
        assert abs(p_branch - p_src) <= 1e-12 * abs(p_src) + slack
