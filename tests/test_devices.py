import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim.devices import (
    HRS,
    LRS,
    CellGrid,
    LinearDeviceParams,
    NonlinearDeviceParams,
    VariationSpec,
    ideal_state_currents,
    variation_factor,
)

NOVAR = VariationSpec(0.0, 0)


def sinh_by_exp(x):
    # independent evaluation via the exponential identity
    return (math.exp(x) - math.exp(-x)) / 2.0


def device(base, bit, var=NOVAR, i=0, j=0):
    """Current and conductance laws of cell (i, j) of a sampled grid, in
    the given state, as functions of its voltage."""
    grid = CellGrid.sample(i + 1, j + 1, base, var)
    params = grid.active_params(np.full(grid.shape, bit))
    return (lambda v: float(grid.currents(params, v)[i, j]),
            lambda v: float(grid.conductances(params, v)[i, j]))


class TestDeviceCurrent:
    def test_linear_lrs_ohms_law(self):
        current, _ = device(LinearDeviceParams(), LRS)
        assert current(0.5) == pytest.approx(0.5e-6, rel=1e-15)

    def test_nonlinear_zero_voltage(self):
        current, _ = device(NonlinearDeviceParams(), LRS)
        assert current(0.0) == 0.0

    def test_nonlinear_at_half_volt(self):
        # oracle: 1e-8 * (e^1.5 - e^-1.5)/2
        expected = 1e-8 * sinh_by_exp(1.5)
        assert expected == pytest.approx(2.1292794550948175e-08, rel=1e-14)
        current, _ = device(NonlinearDeviceParams(), LRS)
        assert current(0.5) == pytest.approx(expected, rel=1e-12)

    def test_odd_symmetry_both_models(self):
        for base in (LinearDeviceParams(), NonlinearDeviceParams()):
            current, _ = device(base, LRS, VariationSpec(0.1, 3), 2, 4)
            for v in np.linspace(-1.5, 1.5, 201):
                i_pos = current(v)
                i_neg = current(-v)
                assert abs(i_pos + i_neg) <= 1e-15 * abs(i_pos) + 1e-300

    def test_monotone_increasing_nonlinear(self):
        current, _ = device(NonlinearDeviceParams(), HRS)
        grid = np.linspace(-1.5, 1.5, 1000)
        currents = np.array([current(v) for v in grid])
        assert (np.diff(currents) > 0).all()

    @given(
        k=st.floats(1e-12, 1e-6),
        a=st.floats(0.5, 10.0),
        v=st.floats(-1.5, 1.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_odd_symmetry_property(self, k, a, v):
        current, _ = device(NonlinearDeviceParams(k_on=k, k_off=k / 1e3, a=a), LRS)
        assert current(-v) == pytest.approx(-current(v), abs=1e-30)


class TestDeviceConductance:
    def test_linear_hrs_constant(self):
        _, conductance = device(LinearDeviceParams(), HRS)
        for v in (-1.0, 0.0, 0.7):
            assert conductance(v) == pytest.approx(1e-9, rel=1e-15)

    def test_nonlinear_zero_bias(self):
        _, conductance = device(NonlinearDeviceParams(), LRS)
        assert conductance(0.0) == pytest.approx(3e-8, rel=1e-15)

    def test_matches_finite_difference(self):
        # oracle: central difference of the current at h = 1e-7 V
        current, conductance = device(NonlinearDeviceParams(), LRS)
        h = 1e-7
        for v in (0.0, 0.25, 0.5, 1.2):
            fd = (current(v + h) - current(v - h)) / (2 * h)
            assert conductance(v) == pytest.approx(fd, rel=1e-6)
        assert conductance(0.5) == pytest.approx(7.057228845729741e-08, rel=1e-12)

    def test_always_positive(self):
        for base in (LinearDeviceParams(), NonlinearDeviceParams()):
            for bit in (LRS, HRS):
                _, conductance = device(base, bit, VariationSpec(0.1, 9), 1, 1)
                assert all(conductance(v) > 0 for v in (-1.5, 0.0, 1.5))


class TestStateOrdering:
    @pytest.mark.parametrize("base", [LinearDeviceParams(), NonlinearDeviceParams()])
    def test_lrs_hrs_ratio_at_read_voltage(self, base):
        on = device(base, LRS)[0](0.5)
        off = device(base, HRS)[0](0.5)
        assert on / off >= 100

    def test_cellstate_preserves_dominance_under_variation(self):
        # each sampled cell conducts more in LRS than in HRS
        var = VariationSpec(0.10, 77)
        k = np.arange(64)
        for base in (LinearDeviceParams(), NonlinearDeviceParams()):
            grid = CellGrid.sample(64, 191, base, var)
            g_on = grid.conductances(grid.active_params(np.full(grid.shape, LRS)), 0.5)[k, 3 * k + 1]
            g_off = grid.conductances(grid.active_params(np.full(grid.shape, HRS)), 0.5)[k, 3 * k + 1]
            assert (g_on > g_off).all()


class TestSampling:
    def test_zero_sigma_is_nominal(self, linear_base):
        grid = CellGrid.sample(6, 8, linear_base, NOVAR)
        assert (grid.on_values == linear_base.lrs_ohms).all()
        assert (grid.off_values == linear_base.hrs_ohms).all()

    def test_deterministic_per_cell(self, nonlinear_base):
        var = VariationSpec(0.10, 123)
        a = CellGrid.sample(4, 10, nonlinear_base, var)
        b = CellGrid.sample(4, 10, nonlinear_base, var)
        assert np.array_equal(a.on_values, b.on_values)
        assert np.array_equal(a.off_values, b.off_values)

    def test_grid_matches_scalar_path(self, linear_base):
        # each grid entry equals the factor evaluated at scalar (i, j)
        var = VariationSpec(0.10, 5)
        grid = CellGrid.sample(4, 6, linear_base, var)
        for i in range(4):
            for j in range(6):
                assert grid.on_values[i, j] == linear_base.lrs_ohms * float(
                    variation_factor(var, i, j, draw=0))
                assert grid.off_values[i, j] == linear_base.hrs_ohms * float(
                    variation_factor(var, i, j, draw=1))

    def test_factor_statistics(self):
        # oracle: sample stddev of the truncated factor over 10^6 draws
        var = VariationSpec(0.10, 2024)
        ii, jj = np.meshgrid(np.arange(1000), np.arange(1000), indexing="ij")
        factors = variation_factor(var, ii, jj, draw=0)
        assert 0.097 <= factors.std() <= 0.103
        assert abs(factors.mean() - 1.0) < 1e-3

    def test_truncation_bounds(self):
        var = VariationSpec(0.10, 8)
        ii, jj = np.meshgrid(np.arange(300), np.arange(300), indexing="ij")
        factors = variation_factor(var, ii, jj, draw=1)
        assert factors.min() >= 1 - 3 * 0.10
        assert factors.max() <= 1 + 3 * 0.10

    def test_order_independence(self, linear_base):
        var = VariationSpec(0.10, 31)
        a = CellGrid.sample(10, 3, linear_base, var).off_values[9, 2]
        CellGrid.sample(3, 3, linear_base, var)  # unrelated sampling in between
        b = CellGrid.sample(12, 5, linear_base, var).off_values[9, 2]
        assert a == b


class TestValidation:
    def test_linear_params_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LinearDeviceParams(lrs_ohms=-1.0)
        with pytest.raises(ValueError):
            LinearDeviceParams(lrs_ohms=1e9, hrs_ohms=1e6)

    def test_nonlinear_params_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NonlinearDeviceParams(k_on=1e-11, k_off=1e-8)
        with pytest.raises(ValueError):
            NonlinearDeviceParams(a=0.0)

    def test_variation_sigma_range(self):
        with pytest.raises(ValueError):
            VariationSpec(relative_sigma=0.34)
        with pytest.raises(ValueError):
            VariationSpec(relative_sigma=-0.01)


def test_ideal_state_currents_match_models():
    i_on, i_off = ideal_state_currents(LinearDeviceParams(), 0.5)
    assert i_on == pytest.approx(0.5e-6, rel=1e-15)
    assert i_off == pytest.approx(0.5e-9, rel=1e-15)
    i_on, i_off = ideal_state_currents(NonlinearDeviceParams(), 0.5)
    assert i_on == pytest.approx(1e-8 * sinh_by_exp(1.5), rel=1e-12)
    assert i_off == pytest.approx(1e-11 * sinh_by_exp(1.5), rel=1e-12)
