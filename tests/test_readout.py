import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim import readout, solver
from xbarsim.crossbar import (
    FLOATING,
    BiasConfig,
    BiasMismatch,
    Clamp,
    CrossbarSpec,
    Drive,
    ResistiveLoad,
    build_network,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import (
    HRS,
    LRS,
    CellGrid,
    LinearDeviceParams,
    NonlinearDeviceParams,
    VariationSpec,
)
from xbarsim.readout import (
    ConventionalSession,
    RowReadSession,
    best_threshold_ber,
    classify,
    midpoint_threshold,
    read_cell_conventional,
    read_row,
    split_by_state,
)
from xbarsim.solver import bitline_currents, node_imbalance, solve

NOVAR = VariationSpec(0.0, 0)
LIN = LinearDeviceParams()
NON = NonlinearDeviceParams()
# Bitline terminations of a row read, and array geometries to read them on.
TERMINATIONS = {"clamped": None, "floating": FLOATING, "load": ResistiveLoad(1e4, 0.1)}
GEOMETRIES = {
    "wired": dict(rows=7, cols=6),
    "ideal-wires": dict(rows=7, cols=6, r_wire=0.0),
    "double-sided": dict(rows=7, cols=6, double_sided_clamps=True),
    "r-driver": dict(rows=7, cols=6, r_driver=25.0),
    "1xN": dict(rows=1, cols=9),
    "Mx1": dict(rows=9, cols=1),
}


def _count_solved_columns(session: ConventionalSession | RowReadSession) -> list[int]:
    """Wrap a session's block solve; the returned list collects the number
    of columns of every block it solves."""
    solved = []
    solve_block = session.system.solve_block

    def counting(b):
        solved.append(b.shape[1])
        return solve_block(b)

    session.system.solve_block = counting
    return solved


def _count_superlu_columns(session: ConventionalSession | RowReadSession) -> list[int]:
    """Wrap a session's SuperLU factor; the returned list collects the
    number of columns of every call of its solve."""
    solved = []
    lu = session.system.lu

    class CountingLU:
        def solve(self, b):
            solved.append(b.shape[1] if b.ndim == 2 else 1)
            return lu.solve(b)

    session.system.lu = CountingLU()
    return solved


class TestMidpointThreshold:
    def test_linear_paper_values(self):
        spec = CrossbarSpec(rows=2, cols=2)
        # oracle: sqrt(0.5uA * 0.5nA)
        assert midpoint_threshold(spec, LIN) == pytest.approx(
            math.sqrt(0.5e-6 * 0.5e-9), rel=1e-14
        )
        assert midpoint_threshold(spec, LIN) == pytest.approx(1.5811388300841896e-08, rel=1e-12)

    def test_nonlinear_paper_values(self):
        spec = CrossbarSpec(rows=2, cols=2)
        want = math.sqrt(1e-8 * 1e-11) * math.sinh(1.5)
        assert midpoint_threshold(spec, NON) == pytest.approx(want, rel=1e-12)
        assert midpoint_threshold(spec, NON) == pytest.approx(6.733372853101841e-10, rel=1e-12)

    def test_near_degenerate_states(self):
        spec = CrossbarSpec(rows=2, cols=2)
        base = LinearDeviceParams(lrs_ohms=1e6, hrs_ohms=1e6 * (1 + 1e-9))
        common = 0.5 / 1e6
        assert midpoint_threshold(spec, base) == pytest.approx(common, rel=1e-9)


class TestRowReadIdealLimit:
    @pytest.mark.parametrize("base", [LIN, NON])
    def test_column_currents_equal_isolated_device(self, base):
        spec = CrossbarSpec(rows=6, cols=5, r_wire=0.0)
        pattern = random_pattern(6, 5, np.random.default_rng(2))
        cells = CellGrid.sample(6, 5, base, VariationSpec(0.1, 2))
        got = read_row(spec, cells, pattern, 3)
        want = cells.currents(cells.active_params(pattern), spec.v_dd - spec.v_b)[3]
        assert np.abs(got - want).max() < 1e-12
        assert np.array_equal(classify(got, midpoint_threshold(spec, base)), pattern[3])

    @pytest.mark.parametrize("base", [LIN, NON])
    def test_sneak_elimination_under_background_permutation(self, base):
        # with ideal rails the sensed current of column j must depend on
        # cell (i, j) alone: shuffling every other cell's stored state moves
        # it by less than 1e-15 A
        spec = CrossbarSpec(rows=5, cols=4, r_wire=0.0)
        cells = CellGrid.sample(5, 4, base, VariationSpec(0.1, 11))
        rng = np.random.default_rng(0)
        pattern = random_pattern(5, 4, rng)
        ref = read_row(spec, cells, pattern, 2)
        for _ in range(5):
            shuffled = pattern.copy()
            others = np.array([i for i in range(5) if i != 2])
            shuffled[others] = shuffled[others][:, rng.permutation(4)][rng.permutation(4)]
            got = read_row(spec, cells, shuffled, 2)
            assert np.abs(got - ref).max() < 1e-15


class TestRowReadMonotonicity:
    @pytest.mark.parametrize("r_wire", [0.0, 10.0, 100.0])
    def test_flipping_target_to_hrs_decreases_current(self, r_wire):
        spec = CrossbarSpec(rows=6, cols=6, r_wire=r_wire)
        cells = CellGrid.sample(6, 6, LIN, VariationSpec(0.1, 3))
        pattern = random_pattern(6, 6, np.random.default_rng(5))
        i, j = 2, 4
        pattern[i, j] = LRS
        hi = read_row(spec, cells, pattern, i)[j]
        pattern[i, j] = HRS
        lo = read_row(spec, cells, pattern, i)[j]
        assert lo < hi


class TestBanking:
    def test_bank_reads_match_single_bank(self):
        pattern = random_pattern(8, 8, np.random.default_rng(7))
        cells = CellGrid.sample(8, 8, LIN, VariationSpec(0.1, 7))
        spec1 = CrossbarSpec(rows=8, cols=8, r_wire=10.0, bank_width=8)
        spec4 = CrossbarSpec(rows=8, cols=8, r_wire=10.0, bank_width=2)
        a = read_row(spec1, cells, pattern, 5)
        b = read_row(spec4, cells, pattern, 5)
        assert np.abs(a - b).max() < 1e-12


class TestConventionalRead:
    def test_2x2_series_parallel_oracle(self):
        # target HRS, other three LRS, ideal rails: the sneak route is three
        # LRS devices in series, in parallel with the target
        spec = CrossbarSpec(rows=2, cols=2, r_wire=0.0)
        cells = CellGrid.sample(2, 2, LIN, NOVAR)
        pattern = np.array([[HRS, LRS], [LRS, LRS]], dtype=np.int8)
        got = read_cell_conventional(spec, cells, pattern, 0, 0)
        want = spec.v_dd * (1 / 1e9 + 1 / (3 * 1e6))
        assert got == pytest.approx(want, rel=1e-12)
        sneak = spec.v_dd / (3 * 1e6)
        main = spec.v_dd / 1e9
        assert sneak > 100 * main

    def test_1x1_no_sneak(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0)
        cells = CellGrid.sample(1, 1, LIN, NOVAR)
        got = read_cell_conventional(spec, cells, np.ones((1, 1), np.int8), 0, 0)
        assert got == pytest.approx(spec.v_dd / 1e6, rel=1e-12)

    @pytest.mark.parametrize("r_driver", [0.0, 25.0])
    def test_session_matches_direct_solve_floating(self, r_driver):
        spec = CrossbarSpec(rows=6, cols=7, r_wire=10.0, r_driver=r_driver)
        pattern = random_pattern(6, 7, np.random.default_rng(13))
        cells = CellGrid.sample(6, 7, LIN, VariationSpec(0.1, 13))
        session = ConventionalSession(spec, cells, pattern)
        targets = [(0, 0), (3, 2), (5, 6), (2, 6)]
        got = session.currents(targets)
        want = np.array([read_cell_conventional(spec, cells, pattern, i, j) for i, j in targets])
        assert np.abs(got / want - 1).max() < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 6),
        cols=st.integers(1, 6),
        r_wire=st.sampled_from([0.0, 10.0]),
        r_driver=st.sampled_from([0.0, 25.0]),
        fill=st.sampled_from(["lrs", "hrs", "random"]),
        picks=st.lists(st.tuples(st.integers(0, 35), st.integers(0, 35)), min_size=1, max_size=8),
        seed=st.integers(0, 2**16),
    )
    def test_floating_session_matches_single_cell_solves(
        self, rows, cols, r_wire, r_driver, fill, picks, seed
    ):
        spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver)
        if fill == "random":
            pattern = random_pattern(rows, cols, np.random.default_rng(seed))
        else:
            pattern = np.full((rows, cols), LRS if fill == "lrs" else HRS, dtype=np.int8)
        cells = CellGrid.sample(rows, cols, LIN, VariationSpec(0.1, seed))
        targets = [(a % rows, b % cols) for a, b in picks]
        # a repeated target, and one on the last bitline (the session's ground)
        targets += [targets[0], (targets[0][0], cols - 1)]
        got = ConventionalSession(spec, cells, pattern).currents(targets)
        want = np.array([read_cell_conventional(spec, cells, pattern, i, j) for i, j in targets])
        assert np.abs(got / want - 1).max() < 1e-9

    @pytest.mark.parametrize("with_ground_column", [False, True])
    def test_floating_session_solves_once_per_terminal_line(self, with_ground_column):
        spec = CrossbarSpec(rows=6, cols=7, r_wire=10.0)
        pattern = random_pattern(6, 7, np.random.default_rng(17))
        cells = CellGrid.sample(6, 7, LIN, VariationSpec(0.1, 17))
        session = ConventionalSession(spec, cells, pattern)
        targets = [(0, 0), (0, 1), (3, 1), (3, 2), (5, 0), (5, 2), (0, 2), (3, 0)]
        if with_ground_column:
            targets += [(5, 6), (0, 6)]
        solved = _count_solved_columns(session)
        session.currents(targets)
        rows = {i for i, _ in targets}
        cols = {j for _, j in targets}
        assert sum(solved) == len(rows) + len(cols) - int(with_ground_column)
        assert sum(solved) < len(targets)

    def test_floating_session_panels_straddle_terminal_kinds(self, monkeypatch):
        # five-column panels: the first holds the three wordline-end columns
        # and two bitline-end columns, so the cross term of a bitline column
        # reads wordline columns solved in its own panel
        spec = CrossbarSpec(rows=6, cols=7, r_wire=10.0, r_driver=25.0)
        pattern = random_pattern(6, 7, np.random.default_rng(23))
        cells = CellGrid.sample(6, 7, LIN, VariationSpec(0.1, 23))
        session = ConventionalSession(spec, cells, pattern)
        targets = [(0, 0), (0, 1), (3, 1), (3, 2), (5, 0), (5, 2), (0, 6), (3, 0), (5, 4)]
        whole = session.currents(targets)
        monkeypatch.setattr(solver, "_PANEL", 5)
        panels = _count_superlu_columns(session)
        paneled = session.currents(targets)
        assert panels == [5, 2]  # 3 wordline ends, 4 bitline ends beside the ground
        np.testing.assert_allclose(paneled, whole, rtol=1e-14, atol=0)
        want = np.array([read_cell_conventional(spec, cells, pattern, i, j) for i, j in targets])
        assert np.abs(paneled / want - 1).max() < 1e-9

    def test_floating_session_goes_per_cell_on_wordline_overflow(self, monkeypatch):
        # the solved wordline-end columns outlive their panel; when they
        # would exceed the batch target the session takes one column per cell
        spec = CrossbarSpec(rows=6, cols=7, r_wire=10.0, r_driver=25.0)
        pattern = random_pattern(6, 7, np.random.default_rng(19))
        cells = CellGrid.sample(6, 7, LIN, VariationSpec(0.1, 19))
        session = ConventionalSession(spec, cells, pattern)
        targets = [(i, j) for i in (0, 3, 5) for j in (0, 2, 4, 6)]
        n_red = session.system.unknown.size
        solved = _count_solved_columns(session)
        monkeypatch.setattr(readout, "_BATCH_TARGET_FLOATS", 3 * n_red)
        session.currents(targets)
        assert sum(solved) == 3 + 3  # bitline 6 ends in the ground
        solved.clear()
        monkeypatch.setattr(readout, "_BATCH_TARGET_FLOATS", 3 * n_red - 1)
        got = session.currents(targets)
        assert sum(solved) == len(targets)
        want = np.array([read_cell_conventional(spec, cells, pattern, i, j) for i, j in targets])
        assert np.abs(got / want - 1).max() < 1e-9

    def test_floating_session_holds_wordline_ends_and_a_few_panels(self):
        # a wide array has far more bitline ends than wordline ends; the
        # solved bitline-end columns are reduced panel by panel, never held
        spec = CrossbarSpec(rows=24, cols=96, r_wire=10.0, r_driver=25.0)
        pattern = random_pattern(24, 96, np.random.default_rng(29))
        cells = CellGrid.sample(24, 96, LIN, VariationSpec(0.1, 29))
        session = ConventionalSession(spec, cells, pattern)
        targets = [(i % 24, j) for j in range(96) for i in (j, j + 7)]
        solved = _count_solved_columns(session)
        tracemalloc.start()
        try:
            got = session.currents(targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(solved) == 24 + 95  # one column per terminal
        assert peak < (24 + 3 * solver._PANEL) * session.system.unknown.size * 8
        picks = targets[::17]
        want = np.array([read_cell_conventional(spec, cells, pattern, i, j) for i, j in picks])
        assert np.abs(got[::17] / want - 1).max() < 1e-9

    def test_sinh_read_factors_its_full_block_once(self, monkeypatch):
        # Newton starts from the ideal-rail solution, so the wired block is
        # factored once; the one-node-per-line network takes the rest.
        spec = CrossbarSpec(rows=32, cols=32, r_wire=10.0)
        pattern = random_pattern(32, 32, np.random.default_rng(1))
        cells = CellGrid.sample(32, 32, NON, VariationSpec(0.1, 1))
        factored = []
        real = solver.ReducedSystem.factor

        def factor(system, device_g):
            factored.append(system.net.spec.r_wire)
            return real(system, device_g)

        monkeypatch.setattr(solver.ReducedSystem, "factor", factor)
        got = read_cell_conventional(spec, cells, pattern, 5, 7)
        assert factored.count(10.0) == 1
        assert 0 < factored.count(0.0) <= 4
        assert got > 0

    def test_session_rejects_cells_outside_the_array(self):
        # (-1, 0) would otherwise read cell (3, 0)
        spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
        pattern = random_pattern(4, 4, np.random.default_rng(31))
        cells = CellGrid.sample(4, 4, LIN, VariationSpec(0.1, 31))
        session = ConventionalSession(spec, cells, pattern)
        for target in ((-1, 0), (0, -1), (4, 0), (0, 4)):
            with pytest.raises(IndexError, match=r"out of range for 4x4"):
                session.currents([(1, 1), target])
        assert session.currents([(3, 0)])[0] > 0

    def test_session_rejects_nonlinear(self):
        pattern = random_pattern(3, 3, np.random.default_rng(1))
        cells = CellGrid.sample(3, 3, NON, NOVAR)
        with pytest.raises(TypeError):
            ConventionalSession(CrossbarSpec(rows=3, cols=3), cells, pattern)


class TestVoltageSchemes:
    def test_floating_read_orders_states(self):
        spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
        cells = CellGrid.sample(4, 4, LIN, NOVAR)
        pattern = np.zeros((4, 4), np.int8)
        pattern[1] = [LRS, HRS, LRS, HRS]
        session = RowReadSession(spec, cells, pattern, bitlines=FLOATING)
        assert session.unit == "V"
        lrs_v, hrs_v = split_by_state(session.row_currents([1])[0], pattern[1])
        assert lrs_v.min() > hrs_v.max()

    def test_resistive_small_r_s_recovers_clamp_current(self):
        # V_rs / r_s at r_s = 1 mOhm must match the bitline current with the
        # bitlines clamped to ground, within 0.1%
        spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
        cells = CellGrid.sample(4, 4, LIN, VariationSpec(0.1, 9))
        pattern = random_pattern(4, 4, np.random.default_rng(9))
        r_s = 1e-3
        sensed = RowReadSession(spec, cells, pattern, bitlines=ResistiveLoad(r_s)).row_currents([2])[0]
        wordlines = tuple(Drive(spec.v_dd) if r == 2 else Clamp(spec.v_b) for r in range(4))
        clamp_bias = BiasConfig.from_terms(wordlines, tuple(Clamp(0.0) for _ in range(4)))
        net = build_network(spec, pattern, cells, clamp_bias)
        want = bitline_currents(net, solve(net).node_voltages)
        assert np.abs(sensed / r_s / want - 1).max() < 1e-3


class TestBestThresholdBer:
    def test_disjoint_populations(self):
        t, ber = best_threshold_ber([10.0, 11.0, 12.0], [1.0, 2.0])
        assert ber == 0.0
        assert 2.0 < t < 10.0

    def test_identical_populations_exactly_half(self):
        x = np.array([1.0, 2.0, 5.0, 5.0, 9.0])
        _, ber = best_threshold_ber(x, x)
        assert ber == 0.5

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            best_threshold_ber([], [1.0])

    def test_balanced_against_skewed_counts(self):
        lrs = np.full(1000, 10.0)
        hrs = np.array([1.0])
        _, ber = best_threshold_ber(lrs, hrs)
        assert ber == 0.0

    @given(
        lrs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
        hrs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
    )
    @settings(max_examples=150, deadline=None)
    def test_ber_bounded(self, lrs, hrs):
        t, ber = best_threshold_ber(lrs, hrs)
        assert 0.0 <= ber <= 0.5
        got = 0.5 * ((np.asarray(lrs) < t).mean() + (np.asarray(hrs) >= t).mean())
        assert got == pytest.approx(ber, abs=1e-12)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_identical_populations_half_property(self, x):
        _, ber = best_threshold_ber(x, x)
        assert ber == 0.5


class TestReadResult:
    def test_classify_convention(self):
        bits = classify(np.array([1e-6, 1e-9]), 1.58e-8)
        assert bits.tolist() == [1, 0]


class TestRowReadSession:
    @pytest.mark.parametrize("geometry", GEOMETRIES)
    @pytest.mark.parametrize("term", TERMINATIONS)
    @pytest.mark.parametrize("base", [LIN, NON])
    def test_session_matches_one_shot_read(self, base, term, geometry):
        # Linear rows match the direct solve of each row's network; sinh rows
        # of floating or loaded bitlines are that network's Newton solve, and
        # clamped sinh rows iterate to the KCL bound.
        spec = CrossbarSpec(**GEOMETRIES[geometry])
        m, n = spec.rows, spec.cols
        pattern = random_pattern(m, n, np.random.default_rng(17))
        cells = CellGrid.sample(m, n, base, VariationSpec(0.1, 17))
        bitlines = TERMINATIONS[term]
        session = RowReadSession(spec, cells, pattern, bitlines=bitlines)
        V = session.solve_rows(range(m))
        got = session.row_currents(range(m))
        for i in range(m):
            net = build_network(spec, pattern, cells, row_read_bias(spec, i, bitlines=bitlines))
            want_v = solve(net).node_voltages
            if cells.is_linear:
                assert np.abs(V[:, i] - want_v).max() <= 1e-12
            elif bitlines is not None:
                assert np.array_equal(V[:, i], want_v)
            if bitlines is None:
                want = read_row(spec, cells, pattern, i)
                assert np.abs(got[i] - want).max() < 1e-11
            else:
                to = bitlines.to if isinstance(bitlines, ResistiveLoad) else 0.0
                want = want_v[net.bl_nodes[m - 1]] - to
                assert session.unit == "V"
                assert np.abs(got[i] - want).max() <= 1e-12

    @pytest.mark.parametrize("base", [LIN, NON])
    def test_row_map_solves_in_panels(self, base):
        # 40 rows read as panels of 16, 16 and 8: no SuperLU call is wider
        spec = CrossbarSpec(rows=40, cols=40, r_wire=10.0)
        pattern = random_pattern(40, 40, np.random.default_rng(43))
        cells = CellGrid.sample(40, 40, base, VariationSpec(0.1, 43))
        session = RowReadSession(spec, cells, pattern)
        panels = _count_superlu_columns(session)
        got = session.row_currents(range(40))
        assert max(panels) == solver._PANEL and 8 in panels
        for i in (0, 15, 16, 31, 32, 39):
            want = read_row(spec, cells, pattern, i)
            assert np.abs(got[i] - want).max() < 1e-11

    def test_session_with_mismatch(self):
        spec = CrossbarSpec(rows=5, cols=5, r_wire=10.0)
        pattern = random_pattern(5, 5, np.random.default_rng(19))
        cells = CellGrid.sample(5, 5, LIN, VariationSpec(0.1, 19))
        mism = BiasMismatch(np.full(5, 1.5e-3), np.zeros(5))
        session = RowReadSession(spec, cells, pattern, mismatch=mism)
        got = session.row_currents([2])[0]
        want = read_row(spec, cells, pattern, 2, mismatch=mism)
        assert np.abs(got - want).max() < 1e-12

    def test_session_rejects_rows_outside_the_array(self):
        # a negative row would otherwise wrap to the far end of the array
        spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
        pattern = random_pattern(4, 4, np.random.default_rng(23))
        cells = CellGrid.sample(4, 4, LIN, VariationSpec(0.1, 23))
        session = RowReadSession(spec, cells, pattern)
        for rows in ([-1], [0, 4], [2, -4]):
            with pytest.raises(IndexError, match="out of range for 4 rows"):
                session.solve_rows(rows)
            with pytest.raises(IndexError, match="out of range for 4 rows"):
                session.row_currents(rows)

    @pytest.mark.parametrize("term", TERMINATIONS)
    @pytest.mark.parametrize("base", [LIN, NON])
    def test_no_rows_read_nothing(self, base, term):
        spec = CrossbarSpec(rows=4, cols=3, r_wire=10.0)
        pattern = random_pattern(4, 3, np.random.default_rng(41))
        cells = CellGrid.sample(4, 3, base, VariationSpec(0.1, 41))
        session = RowReadSession(spec, cells, pattern, bitlines=TERMINATIONS[term])
        assert session.solve_rows([]).shape == (session.net.n_nodes, 0)
        assert session.row_currents([]).shape == (0, 3)

    def test_bias_override_scales_currents(self):
        spec = CrossbarSpec(rows=4, cols=4, r_wire=10.0)
        pattern = random_pattern(4, 4, np.random.default_rng(29))
        cells = CellGrid.sample(4, 4, LIN, VariationSpec(0.1, 29))
        session = RowReadSession(spec, cells, pattern)
        v1 = session.solve_rows([1])
        i1 = session.bitline_currents_from(v1)[0]
        spec2 = dataclasses.replace(spec, v_b=0.9)
        want = read_row(spec2, cells, pattern, 1)
        v2 = session.solve_rows([1], v_b=0.9)
        i2 = session.bitline_currents_from(v2)[0]
        assert np.abs(i2 - want).max() < 1e-12
        assert np.all(i2 < i1)

    def test_linear_session_solves_each_row_once(self):
        # from the ideal rail one solve per row, checked against the KCL bound
        spec = CrossbarSpec(rows=20, cols=12, r_wire=10.0, double_sided_clamps=True)
        pattern = random_pattern(20, 12, np.random.default_rng(37))
        cells = CellGrid.sample(20, 12, LIN, VariationSpec(0.1, 37))
        session = RowReadSession(spec, cells, pattern)
        solved = _count_solved_columns(session)
        session.row_currents(range(20))
        assert solved == [16, 4]
        V = session.solve_rows(range(20))
        leaving = node_imbalance(session.net, V)[~session.net.fixed_mask]
        assert np.abs(leaving).max() <= solver.KCL_TOL

    def test_sinh_session_takes_two_chord_passes(self):
        # Rail nodes start at their line's voltage, so a 32x32 row map
        # reaches the KCL bound in two frozen-Jacobian passes, not three.
        spec = CrossbarSpec(rows=32, cols=32, r_wire=10.0)
        pattern = random_pattern(32, 32, np.random.default_rng(9))
        cells = CellGrid.sample(32, 32, NON, VariationSpec(0.1, 9))
        session = RowReadSession(spec, cells, pattern)
        passes = _count_solved_columns(session)
        V = session.solve_rows(range(32))
        assert len(passes) == 2 and passes[0] == 32
        leaving = node_imbalance(session.net, V)[~session.net.fixed_mask]
        assert np.abs(leaving).max() <= solver.KCL_TOL

    def test_chord_fallback_keeps_the_bias_override(self, monkeypatch):
        # With no chord pass allowed every clamped row falls back to an
        # exact Newton solve, the one every floating or loaded sinh row
        # takes; each must use the session's bitlines and the overriding
        # hold voltage.
        spec = CrossbarSpec(rows=8, cols=8, r_wire=10.0)
        pattern = random_pattern(8, 8, np.random.default_rng(31))
        cells = CellGrid.sample(8, 8, NON, VariationSpec(0.1, 31))
        monkeypatch.setattr(readout, "_CHORD_MAX_ITERS", 0)
        spec_b = dataclasses.replace(spec, v_b=0.5)
        for bitlines in TERMINATIONS.values():
            session = RowReadSession(spec, cells, pattern, bitlines=bitlines)
            V = session.solve_rows([0, 5], v_b=0.5)
            got = session.bitline_currents_from(V)
            for k, i in enumerate((0, 5)):
                if bitlines is None:
                    want = read_row(spec_b, cells, pattern, i)
                    assert np.abs(got[k] - want).max() <= 1e-12 * np.abs(want).max()
                else:
                    bias = row_read_bias(spec_b, i, bitlines=bitlines)
                    net = build_network(spec_b, pattern, cells, bias)
                    assert np.array_equal(V[:, k], solve(net).node_voltages)
