import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim import analytics
from xbarsim.analytics import (
    DEFAULT_CELL_AREA_UM2,
    FomInputs,
    MismatchParams,
    fom,
    max_column_width,
    mismatch_simulation_check,
    mismatch_unwanted_current,
    power_row_approx,
    power_rows_approx,
    render_fom_table,
    technique_fom_table,
)
from xbarsim.config import ExperimentConfig
from xbarsim.crossbar import (
    FLOATING,
    BiasMismatch,
    CrossbarSpec,
    ResistiveLoad,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import CellGrid, LinearDeviceParams, NonlinearDeviceParams, VariationSpec
from xbarsim.readout import RowReadSession
from xbarsim.selftest import power_balance
from xbarsim.solver import branch_power, solve, source_power

NOVAR = VariationSpec(0.0, 0)
LIN = LinearDeviceParams()
NON = NonlinearDeviceParams()


class TestApproxPower:
    def test_all_lrs_linear_row(self):
        # oracle: direct summation of 512 identical terms
        want = sum(0.5**2 / 1e6 for _ in range(512))
        spec = CrossbarSpec(rows=1, cols=512, r_wire=0.0)
        cells = CellGrid.sample(1, 512, LIN, NOVAR)
        got = power_row_approx(spec, np.ones((1, 512), np.int8), cells, 0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(128e-6, rel=1e-12)

    def test_all_hrs_nonlinear_row(self):
        want = sum(1e-11 * 0.5 * math.sinh(1.5) for _ in range(512))
        spec = CrossbarSpec(rows=1, cols=512, r_wire=0.0)
        cells = CellGrid.sample(1, 512, NON, NOVAR)
        got = power_row_approx(spec, np.zeros((1, 512), np.int8), cells, 0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(5.450955405042678e-09, rel=1e-12)

    def test_uses_realized_parameters(self):
        spec = CrossbarSpec(rows=2, cols=3, r_wire=0.0)
        cells = CellGrid.sample(2, 3, LIN, VariationSpec(0.1, 5))
        pattern = np.ones((2, 3), np.int8)
        want = (0.5**2 / cells.on_values[1]).sum()
        assert power_row_approx(spec, pattern, cells, 1) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("base", [LIN, NON])
    def test_every_row_at_once_equals_each_row(self, base):
        spec = CrossbarSpec(rows=9, cols=37, v_b=0.6)
        cells = CellGrid.sample(9, 37, base, VariationSpec(0.1, 2))
        pattern = random_pattern(9, 37, np.random.default_rng(2))
        got = power_rows_approx(spec, pattern, cells)
        assert got.tolist() == [power_row_approx(spec, pattern, cells, i) for i in range(9)]


class TestPowerExact:
    def test_ideal_rails_equal_approximation(self):
        spec = CrossbarSpec(rows=6, cols=6, r_wire=0.0)
        pattern = random_pattern(6, 6, np.random.default_rng(1))
        cells = CellGrid.sample(6, 6, LIN, VariationSpec(0.1, 1))
        net = build_network(spec, pattern, cells, row_read_bias(spec, 2))
        got = branch_power(net, solve(net).node_voltages)
        want = power_row_approx(spec, pattern, cells, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_cell_series_divider(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0, r_driver=5.0)
        cells = CellGrid.sample(1, 1, LIN, NOVAR)
        net = build_network(spec, np.ones((1, 1), np.int8), cells, row_read_bias(spec, 0))
        v = solve(net).node_voltages
        want = 0.5**2 / (1e6 + 10.0)
        assert branch_power(net, v) == pytest.approx(want, rel=1e-12)
        assert branch_power(net, v) < 0.5**2 / 1e6

    def test_wire_resistance_reduces_power_linear(self):
        for seed in range(6):
            spec = CrossbarSpec(rows=12, cols=12, r_wire=10.0)
            pattern = random_pattern(12, 12, np.random.default_rng(seed))
            cells = CellGrid.sample(12, 12, LIN, VariationSpec(0.1, seed))
            i = seed % 12
            net = build_network(spec, pattern, cells, row_read_bias(spec, i))
            p_exact = branch_power(net, solve(net).node_voltages)
            assert p_exact < power_row_approx(spec, pattern, cells, i)

    def test_tellegen_conservation(self):
        spec = CrossbarSpec(rows=10, cols=9, r_wire=10.0)
        pattern = random_pattern(10, 9, np.random.default_rng(3))
        cells = CellGrid.sample(10, 9, NON, VariationSpec(0.1, 3))
        net = build_network(spec, pattern, cells, row_read_bias(spec, 4))
        v = solve(net).node_voltages
        # branch dissipation = source injection + the residual currents'
        # power, to the rounding of the sums they are formed from
        gap, bound = power_balance(net, v)
        assert gap <= bound
        assert bound < 1e-13 * source_power(net, v)

    @pytest.mark.parametrize("rows,seed,p_lrs,mismatched", [(1, 301, 0.01, False),
                                                            (2, 24225, 0.5, True)])
    def test_balance_bounds_the_node_sums_rounding(self, rows, seed, p_lrs, mismatched):
        # All-fixed single-column reads whose gap the branch sum's rounding
        # alone does not bound: 1.2 V and 0.7 V times a 0.4 nA cell current
        # cancel in the source sum, and a mV-biased LRS cell out-carries the
        # selected HRS cell in the bitline's node sum
        rng = np.random.default_rng(seed)
        spec = CrossbarSpec(rows=rows, cols=1, r_wire=0.0, r_driver=0.0)
        pattern = random_pattern(rows, 1, rng, p_lrs)
        cells = CellGrid.sample(rows, 1, LIN, VariationSpec(0.1, seed))
        mismatch = (BiasMismatch(rng.uniform(-2e-3, 2e-3, rows), rng.uniform(-2e-3, 2e-3, 1))
                    if mismatched else None)
        net = build_network(spec, pattern, cells, row_read_bias(spec, 0, mismatch))
        v = solve(net).node_voltages
        gap, bound = power_balance(net, v)
        assert gap <= bound
        # a source power 1e-12 off would still exceed it
        assert gap + 1e-12 * source_power(net, v) > bound


@settings(max_examples=100, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    base=st.sampled_from([LIN, NON]),
    p_lrs=st.sampled_from([0.01, 0.5, 0.99]),
    read=st.sampled_from(["clamped", "mismatch", "floating", "load", "conventional"]),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_power_conserved_on_edge_geometries(rows, cols, r_wire, r_driver, double_sided, base,
                                            p_lrs, read, seed, data):
    # Tellegen balance of every one-shot read, and a row session's power of
    # each row equal to the one-shot value
    rng = np.random.default_rng(seed)
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    pattern = random_pattern(rows, cols, rng, p_lrs)
    cells = CellGrid.sample(rows, cols, base, VariationSpec(0.1, seed))
    if read == "conventional":
        i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
        biases, session = [conventional_cell_bias(spec, i, j)], None
    else:
        mismatch = (BiasMismatch(rng.uniform(-2e-3, 2e-3, rows), rng.uniform(-2e-3, 2e-3, cols))
                    if read == "mismatch" else None)
        bitlines = {"floating": FLOATING, "load": ResistiveLoad(1e4)}.get(read)
        biases = [row_read_bias(spec, r, mismatch, bitlines) for r in range(rows)]
        session = RowReadSession(spec, cells, pattern, mismatch, bitlines)
    one_shot = []
    for bias in biases:
        net = build_network(spec, pattern, cells, bias)
        v = solve(net).node_voltages
        gap, bound = power_balance(net, v)
        assert gap <= bound
        one_shot.append(branch_power(net, v))
    if session is not None:
        got = branch_power(session.net, session.solve_rows(range(rows)))
        np.testing.assert_allclose(got, one_shot, rtol=1e-12, atol=0)


class TestFom:
    def test_published_values_within_one_percent(self):
        rows = technique_fom_table()
        published = [0.04, 0.265, 0.4194, 5.754, 633.0]
        assert [r.fom_published for r in rows] == published
        for r in rows:
            assert r.matches_published, f"{r.name}: {r.fom_recomputed} vs {r.fom_published}"

    def test_two_bank_variant(self):
        rows = technique_fom_table(r_banks=2)
        this_work = rows[-1]
        assert this_work.fom_published == pytest.approx(633 / 4)
        assert this_work.fom_recomputed == pytest.approx(158.1357620029455, rel=1e-12)
        assert this_work.matches_published

    def test_specific_fom_values(self):
        # frozen from the recomputation oracle
        inputs = FomInputs(1.0, 511 / 512, 0.291e-3, 512 * 512)
        assert fom(inputs) == pytest.approx(5.754105841924398, rel=1e-12)
        inputs = FomInputs(512, 1.0, 1.358e-3, 512 * 512)
        assert fom(inputs) == pytest.approx(632.543048011782, rel=1e-12)
        inputs = FomInputs(1.0, 1.0, 4e-3, 512 * 512)
        assert fom(inputs) == pytest.approx(0.4194304, rel=1e-12)

    def test_homogeneity(self):
        base = FomInputs(8.0, 0.5, 1e-3, 2**18)
        assert fom(dataclasses.replace(base, reading_power=2e-3)) == pytest.approx(
            fom(base) / 2, rel=1e-15
        )
        assert fom(dataclasses.replace(base, throughput=16.0)) == pytest.approx(
            fom(base) * 2, rel=1e-15
        )

    def test_zero_power_rejected(self):
        with pytest.raises(ValueError):
            FomInputs(1.0, 1.0, 0.0, 100)

    def test_default_cell_area_from_density(self):
        # 640 Gbit/cm^2 -> 6400 bits/um^2
        assert DEFAULT_CELL_AREA_UM2 == pytest.approx(1.5625e-4, rel=1e-15)

    def test_render_table_mentions_all_rows(self):
        text = render_fom_table(technique_fom_table())
        assert text.count("\n") >= 6 and "Row readout" in text

    def test_invalid_bank_count_rejected(self):
        with pytest.raises(ValueError):
            technique_fom_table(r_banks=3)


class TestMismatchFormulas:
    def test_linear_values(self):
        p = MismatchParams(delta_v=2e-3)
        exact, approx = mismatch_unwanted_current(512, p, LIN)
        assert approx == pytest.approx(0.512e-6, rel=1e-12)
        assert exact == pytest.approx(5.1251e-7, rel=1e-12)
        assert approx <= exact
        assert (exact - approx) / exact < 0.002

    def test_nonlinear_values(self):
        p = MismatchParams(delta_v=2e-3)
        exact, approx = mismatch_unwanted_current(512, p, NON)
        assert approx == pytest.approx(1.536e-8, rel=1e-12)
        assert exact == pytest.approx(1.53753e-08, rel=1e-6)

    def test_zero_offset_gives_zero(self):
        p = MismatchParams(delta_v=0.0)
        assert mismatch_unwanted_current(512, p, LIN) == (0.0, 0.0)
        assert mismatch_unwanted_current(512, p, NON) == (0.0, 0.0)

    def test_column_width_paper_values(self):
        p = MismatchParams(delta_v=2e-3)
        assert max_column_width(p, LIN) == 195
        assert max_column_width(p, NON) == 6500

    def test_column_width_scaling(self):
        assert max_column_width(MismatchParams(delta_v=1e-3), LIN) == 390
        assert max_column_width(MismatchParams(delta_v=4e-3), LIN) == 97

    def test_zero_offset_has_no_limit(self):
        with pytest.raises(ValueError):
            max_column_width(MismatchParams(delta_v=0.0), LIN)

    def test_plugging_back_respects_window(self):
        p = MismatchParams(delta_v=2e-3)
        for device in (LIN, NON):
            n_max = max_column_width(p, device)
            _, approx = mismatch_unwanted_current(n_max, p, device)
            assert approx <= min(p.i_max, p.i_min) * (1 + 1e-9)


class TestMismatchSimulation:
    def test_linear_empirical_matches_analytic(self):
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(spec, MismatchParams(delta_v=2e-3), LIN)
        assert check.n_max_analytic == 195
        assert check.relative_gap <= 0.05

    def test_nonlinear_empirical_matches_analytic(self):
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(spec, MismatchParams(delta_v=2e-3), NON)
        assert check.n_max_analytic == 6500
        assert check.relative_gap <= 0.05

    def test_zero_offset_unbounded(self, monkeypatch):
        monkeypatch.setattr(analytics, "_SWEEP_CAP", 512)
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(spec, MismatchParams(delta_v=0.0), LIN)
        assert check.unbounded and check.n_max_empirical == 512

    def test_tiny_offset_stops_at_sweep_cap(self, monkeypatch):
        monkeypatch.setattr(analytics, "_SWEEP_CAP", 512)
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(spec, MismatchParams(delta_v=1e-6), NON)
        assert check.n_max_analytic == 13_000_000
        assert check.unbounded and check.n_max_empirical == 512
        assert math.isnan(check.relative_gap)

    def test_default_sweep_cap_covers_default_grid(self):
        cap = analytics._SWEEP_CAP
        for dv in ExperimentConfig().delta_v_grid:
            for device in (LIN, NON):
                assert 2 * max_column_width(MismatchParams(delta_v=dv), device) + 4 <= cap

    def test_random_trials_stay_close(self):
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(spec, MismatchParams(delta_v=2e-3), LIN, trials=5)
        assert abs(check.n_max_empirical - 195) / 195 <= 0.10
