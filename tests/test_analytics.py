import dataclasses
import inspect
import math

import numpy as np
import pytest

from xbarsim.analytics import (
    DEFAULT_CELL_AREA_UM2,
    FomInputs,
    MismatchParams,
    approx_read_power,
    fom,
    max_column_width,
    mismatch_simulation_check,
    mismatch_unwanted_current,
    power_bounds,
    power_exact,
    power_row_approx,
    render_fom_table,
    technique_fom_table,
)
from xbarsim.config import ExperimentConfig
from xbarsim.crossbar import CrossbarSpec, build_network, random_pattern, row_read_bias
from xbarsim.devices import CellGrid, LinearDeviceParams, NonlinearDeviceParams, VariationSpec
from xbarsim.selftest import power_balance
from xbarsim.solver import solve, source_power

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

    def test_empty_sum_is_zero(self):
        assert approx_read_power(0.5, np.array([])) == 0.0
        assert approx_read_power(0.5, np.array([]), a=3.0) == 0.0

    def test_uses_realized_parameters(self):
        spec = CrossbarSpec(rows=2, cols=3, r_wire=0.0)
        cells = CellGrid.sample(2, 3, LIN, VariationSpec(0.1, 5))
        pattern = np.ones((2, 3), np.int8)
        want = (0.5**2 / cells.on_values[1]).sum()
        assert power_row_approx(spec, pattern, cells, 1) == pytest.approx(want, rel=1e-12)


class TestPowerBounds:
    def test_paper_maximum(self):
        spec = CrossbarSpec(rows=512, cols=512)
        lo, hi = power_bounds(spec, LIN)
        assert hi == pytest.approx(512 * 512 * 0.25 / 1e6, rel=1e-12)  # 65.5 mW
        assert lo / hi == pytest.approx(1e-3, rel=1e-12)

    def test_bank_count_scales_headline_bound(self):
        spec1 = CrossbarSpec(rows=512, cols=512, bank_width=512)
        spec4 = CrossbarSpec(rows=512, cols=512, bank_width=128)
        assert power_bounds(spec4, LIN)[1] == pytest.approx(4 * power_bounds(spec1, LIN)[1])
        # per-cycle variant is bank-independent
        assert power_bounds(spec4, LIN, per_cycle=True) == power_bounds(spec1, LIN, per_cycle=True)


class TestPowerExact:
    def test_ideal_rails_equal_approximation(self):
        spec = CrossbarSpec(rows=6, cols=6, r_wire=0.0)
        pattern = random_pattern(6, 6, np.random.default_rng(1))
        cells = CellGrid.sample(6, 6, LIN, VariationSpec(0.1, 1))
        net = build_network(spec, pattern, cells, row_read_bias(spec, 2))
        sol = solve(net)
        got = power_exact(net, sol)
        want = power_row_approx(spec, pattern, cells, 2)
        assert got == pytest.approx(want, rel=1e-12)

    def test_single_cell_series_divider(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0, r_driver=5.0)
        cells = CellGrid.sample(1, 1, LIN, NOVAR)
        net = build_network(spec, np.ones((1, 1), np.int8), cells, row_read_bias(spec, 0))
        sol = solve(net)
        want = 0.5**2 / (1e6 + 10.0)
        assert power_exact(net, sol) == pytest.approx(want, rel=1e-12)
        assert power_exact(net, sol) < 0.5**2 / 1e6

    def test_wire_resistance_reduces_power_linear(self):
        for seed in range(6):
            spec = CrossbarSpec(rows=12, cols=12, r_wire=10.0)
            pattern = random_pattern(12, 12, np.random.default_rng(seed))
            cells = CellGrid.sample(12, 12, LIN, VariationSpec(0.1, seed))
            i = seed % 12
            net = build_network(spec, pattern, cells, row_read_bias(spec, i))
            assert power_exact(net, solve(net)) < power_row_approx(spec, pattern, cells, i)

    def test_tellegen_conservation(self):
        spec = CrossbarSpec(rows=10, cols=9, r_wire=10.0)
        pattern = random_pattern(10, 9, np.random.default_rng(3))
        cells = CellGrid.sample(10, 9, NON, VariationSpec(0.1, 3))
        net = build_network(spec, pattern, cells, row_read_bias(spec, 4))
        sol = solve(net)
        # branch dissipation = source injection + the residual currents'
        # power, to the rounding of the branch sum
        gap, bound = power_balance(net, sol)
        assert gap <= bound
        assert bound < 1e-13 * source_power(net, sol)


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

    def test_zero_offset_unbounded(self):
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(
            spec, MismatchParams(delta_v=0.0), LIN, sweep_cap=512
        )
        assert check.unbounded and check.n_max_empirical == 512

    def test_tiny_offset_stops_at_sweep_cap(self):
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(
            spec, MismatchParams(delta_v=1e-6), NON, sweep_cap=512
        )
        assert check.n_max_analytic == 13_000_000
        assert check.unbounded and check.n_max_empirical == 512
        assert math.isnan(check.relative_gap)

    def test_default_sweep_cap_covers_default_grid(self):
        cap = inspect.signature(mismatch_simulation_check).parameters["sweep_cap"].default
        for dv in ExperimentConfig().delta_v_grid:
            for device in (LIN, NON):
                assert 2 * max_column_width(MismatchParams(delta_v=dv), device) + 4 <= cap

    def test_random_trials_stay_close(self):
        spec = CrossbarSpec(rows=8, cols=8)
        check = mismatch_simulation_check(spec, MismatchParams(delta_v=2e-3), LIN, trials=5)
        assert abs(check.n_max_empirical - 195) / 195 <= 0.10
