"""The shared reduce-factor-refine path: every solve path agrees with the
direct solve, meets the KCL bound, stays in the voltage hull, reports
residuals above its tolerance, and refines to near a long-double
reference."""

import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import xbarsim
from xbarsim import solver
from xbarsim.crossbar import (
    FLOATING,
    TERM_FLOATING,
    BiasConfig,
    BiasMismatch,
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
from xbarsim.readout import ConventionalSession, RowReadSession, read_row
from xbarsim.solver import (
    ReducedSystem,
    SolverConvergenceError,
    assemble_admittance,
    bitline_currents,
    node_imbalance,
    solve,
)

KCL_BOUND = 1e-12


def _branch_sums(net, V):
    """Net current leaving each node, and the sum of the magnitudes of its
    branch currents, summed branch by branch in long double from the
    network's branch arrays (V a vector, or a matrix with one column per
    solve)."""
    ld = np.longdouble
    v = np.asarray(V, dtype=ld)
    per_branch = (-1,) + (1,) * (v.ndim - 1)
    i_wire = net.wire_g.astype(ld).reshape(per_branch) * (v[net.wire_a] - v[net.wire_b])
    p = net.active_params.astype(ld).reshape(per_branch)
    dv = v[net.dev_a] - v[net.dev_b]
    i_dev = dv / p if net.cells.is_linear else p * np.sinh(ld(net.cells.base.a) * dv)
    leaving, size = np.zeros(v.shape, dtype=ld), np.zeros(v.shape, dtype=ld)
    for a, b, i in ((net.wire_a, net.wire_b, i_wire), (net.dev_a, net.dev_b, i_dev)):
        np.add.at(leaving, a, i)
        np.add.at(leaving, b, -i)
        np.add.at(size, a, np.abs(i))
        np.add.at(size, b, np.abs(i))
    return leaving, size


def _kcl(net, V) -> float:
    """Largest imbalance over the unknown nodes, one column per solve."""
    leaving = _branch_sums(net, V)[0][~net.fixed_mask]
    return float(np.abs(leaving).max()) if leaving.size else 0.0


def _in_hull(V, fixed) -> bool:
    """Passive networks keep every node between the extreme boundary voltages."""
    return V.min() >= fixed.min() - 1e-12 and V.max() <= fixed.max() + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    linear=st.booleans(),
    fill=st.sampled_from(["lrs", "hrs", "random"]),
    with_mismatch=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_every_path_matches_direct_solve_within_kcl_bound(
    rows, cols, r_wire, r_driver, double_sided, linear, fill, with_mismatch, seed
):
    rng = np.random.default_rng(seed)
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    if fill == "random":
        pattern = random_pattern(rows, cols, rng)
    else:
        pattern = np.full((rows, cols), 1 if fill == "lrs" else 0, dtype=np.int8)
    base = LinearDeviceParams() if linear else NonlinearDeviceParams()
    cells = CellGrid.sample(rows, cols, base, VariationSpec(0.10, seed))
    mismatch = None
    if with_mismatch:
        mismatch = BiasMismatch(rng.uniform(-2e-3, 2e-3, rows), rng.uniform(-2e-3, 2e-3, cols))

    session = RowReadSession(spec, cells, pattern, mismatch)
    V = session.solve_rows(range(rows))
    assert _kcl(session.net, V) <= KCL_BOUND
    assert _in_hull(V, V[session.net.fixed_mask])
    got = session.bitline_currents_from(V)
    assert np.array_equal(got, session.row_currents(range(rows)))
    for i in range(rows):
        net = build_network(spec, pattern, cells, row_read_bias(spec, i, mismatch))
        sol = solve(net)
        assert sol.kcl_residual <= KCL_BOUND
        assert _kcl(net, sol.node_voltages) <= KCL_BOUND
        assert _in_hull(sol.node_voltages, net.fixed_voltage[net.fixed_mask])
        np.testing.assert_allclose(got[i], bitline_currents(net, sol.node_voltages),
                                   rtol=0, atol=1e-12)


@settings(max_examples=120, deadline=None)
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    linear=st.booleans(),
    scheme=st.sampled_from(["row-read", "conventional", "floating-bitlines", "resistive-load"]),
    seed=st.integers(0, 2**16),
)
def test_node_imbalance_matches_branch_by_branch_sum(
    rows, cols, r_wire, r_driver, double_sided, linear, scheme, seed
):
    rng = np.random.default_rng(seed)
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    i, j = int(rng.integers(rows)), int(rng.integers(cols))
    if scheme == "row-read":
        bias = row_read_bias(spec, i)
    elif scheme == "conventional":
        bias = conventional_cell_bias(spec, i, j)
    else:
        term = FLOATING if scheme == "floating-bitlines" else ResistiveLoad(1e4, 0.1)
        wordlines = tuple(Drive(spec.v_dd) if k == i else Clamp(spec.v_b) for k in range(rows))
        bias = BiasConfig.from_terms(wordlines, (term,) * cols)
    base = LinearDeviceParams() if linear else NonlinearDeviceParams()
    cells = CellGrid.sample(rows, cols, base, VariationSpec(0.10, seed))
    net = build_network(spec, random_pattern(rows, cols, rng), cells, bias)
    for V in (rng.uniform(0.0, spec.v_dd, net.n_nodes), rng.uniform(0.0, spec.v_dd, (net.n_nodes, 3))):
        want, size = _branch_sums(net, V)
        gap = np.abs(node_imbalance(net, V) - want)
        assert (gap <= 4 * np.finfo(float).eps * size).all()
        # the sensed currents sum the control nodes' branches alone, bit for bit
        sensed = np.flatnonzero(net.bl_attach.kind != TERM_FLOATING)
        assert np.array_equal(bitline_currents(net, V, sensed),
                              -node_imbalance(net, V)[net.bl_attach.control_node[sensed]])


def test_floating_conventional_session_enforces_its_tolerance(monkeypatch):
    spec = CrossbarSpec(rows=6, cols=6, r_wire=10.0)
    rng = np.random.default_rng(4)
    pattern = random_pattern(6, 6, rng)
    cells = CellGrid.sample(6, 6, LinearDeviceParams(), VariationSpec(0.10, 4))
    session = ConventionalSession(spec, cells, pattern)
    assert np.all(session.currents([(1, 2), (3, 4)]) > 0)
    pair_resistances = ConventionalSession._pair_resistances

    def nan_residual(self, *args):
        r_eff, res = pair_resistances(self, *args)
        return r_eff, np.full_like(res, np.nan)

    with monkeypatch.context() as patch:
        patch.setattr(ConventionalSession, "_pair_resistances", nan_residual)
        with pytest.raises(SolverConvergenceError, match=r"cell \(1, 2\).* nan A") as info:
            session.currents([(1, 2), (3, 4)])
    assert np.isnan(info.value.residual)
    monkeypatch.setattr(solver, "KCL_TOL", 1e-30)
    with pytest.raises(SolverConvergenceError, match=r"cell \(\d, \d\)") as info:
        session.currents([(1, 2), (3, 4)])
    assert info.value.residual > 1e-30


def _reference_sensed(net) -> np.ndarray:
    """Bitline currents refined with long-double residuals and voltages."""
    u = ~net.fixed_mask
    G = assemble_admittance(net, net.cells.conductances(net.active_params, 0.0))
    lu = spla.splu(G[u][:, u].tocsc())
    v = np.where(net.fixed_mask, net.fixed_voltage, 0.0).astype(np.longdouble)
    for _ in range(12):
        v[u] -= lu.solve(_branch_sums(net, v)[0][u].astype(np.float64))
    return -_branch_sums(net, v)[0][net.bl_attach.control_node]


def test_session_currents_near_long_double_reference():
    n = 16
    spec = CrossbarSpec(rows=n, cols=n, r_wire=10.0, double_sided_clamps=True)
    rng = np.random.default_rng(5)
    pattern = random_pattern(n, n, rng)
    cells = CellGrid.sample(n, n, LinearDeviceParams(), VariationSpec(0.10, 5))
    got = RowReadSession(spec, cells, pattern).row_currents(range(n))
    for i in range(n):
        net = build_network(spec, pattern, cells, row_read_bias(spec, i))
        want = _reference_sensed(net)
        assert np.abs(got[i] - want.astype(float)).max() <= 5e-17


def _sensing_quantum(net, V) -> float:
    """The largest conductance of a branch at a bitline control node, times
    the rounding step of the largest node voltage: the current one rail ulp
    drives through a sensed node's branches.  A device counts with its
    largest differential conductance over V's columns."""
    dv = (V[net.dev_a] - V[net.dev_b]).reshape(net.cells.shape + (-1,))
    g_dev = net.cells.conductances(net.active_params[..., None], dv).max(axis=-1)
    g = np.concatenate([net.wire_g, g_dev.ravel()])
    a, b = np.concatenate([net.wire_a, net.dev_a]), np.concatenate([net.wire_b, net.dev_b])
    ctrl = net.bl_attach.control_node
    return float(g[np.isin(a, ctrl) | np.isin(b, ctrl)].max() * np.spacing(np.abs(V).max()))


def _sample_array(rows, cols, base, fill, with_mismatch, seed):
    """Pattern, cells and mismatch of a test array: ``fill`` 'lrs', 'hrs'
    or 'random', and with random line offsets of up to 2 mV."""
    rng = np.random.default_rng(seed)
    if fill == "random":
        pattern = random_pattern(rows, cols, rng)
    else:
        pattern = np.full((rows, cols), 1 if fill == "lrs" else 0, dtype=np.int8)
    cells = CellGrid.sample(rows, cols, base, VariationSpec(0.10, seed))
    mismatch = None
    if with_mismatch:
        mismatch = BiasMismatch(rng.uniform(-2e-3, 2e-3, rows), rng.uniform(-2e-3, 2e-3, cols))
    return pattern, cells, mismatch


def _assert_session_within_a_quantum(spec, pattern, cells, mismatch, rows, eps_of_current=0):
    """Each clamped session current of ``rows`` lies within one sensing
    quantum, plus ``eps_of_current`` times eps of the current, of the
    refined one-shot read, and each column within the KCL bound."""
    session = RowReadSession(spec, cells, pattern, mismatch)
    got = session.row_currents(rows)
    V = session.solve_rows(rows)
    assert _kcl(session.net, V) <= KCL_BOUND
    quantum = _sensing_quantum(session.net, V)
    for k, i in enumerate(rows):
        want = read_row(spec, cells, pattern, i, mismatch)
        bound = quantum + eps_of_current * np.finfo(float).eps * np.abs(want)
        assert (np.abs(got[k] - want) <= bound).all()


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(17, 40),
    cols=st.integers(1, 40),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    fill=st.sampled_from(["lrs", "hrs", "random"]),
    with_mismatch=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_one_solve_session_within_a_sensing_quantum_of_refined_reads(
    rows, cols, r_wire, r_driver, double_sided, fill, with_mismatch, seed
):
    # Clamped linear rows start at the ideal rail and take one solve; over
    # maps of two or more panels each sensed current stays within one
    # sensing quantum of the refined one-shot read, and every column within
    # the KCL bound.
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    pattern, cells, mismatch = _sample_array(rows, cols, LinearDeviceParams(), fill,
                                             with_mismatch, seed)
    _assert_session_within_a_quantum(spec, pattern, cells, mismatch, list(range(rows)))


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(1, 32),
    cols=st.integers(1, 32),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    fill=st.sampled_from(["lrs", "hrs", "random"]),
    with_mismatch=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_sinh_session_within_a_sensing_quantum_of_refined_reads(
    rows, cols, r_wire, r_driver, double_sided, fill, with_mismatch, seed
):
    # Clamped sinh rows relax on the line blocks from the ideal rail to the
    # rounding floor; each sensed current stays within one sensing quantum
    # of the refined Newton read, plus 4 eps of the current for the
    # rounding of the two reads' own device-current evaluations.  That term
    # shows only where a sensed node's one branch is a sinh device (one
    # row, direct clamps): two reads whose voltages sit a rail ulp apart
    # then differ by a full quantum and up to 1.9 eps of the current (3000
    # such arrays).
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    pattern, cells, mismatch = _sample_array(rows, cols, NonlinearDeviceParams(), fill,
                                             with_mismatch, seed)
    _assert_session_within_a_quantum(spec, pattern, cells, mismatch, list(range(rows)),
                                     eps_of_current=4)


@pytest.mark.parametrize("geometry", [
    dict(rows=7, cols=6), dict(rows=7, cols=6, r_driver=25.0, double_sided_clamps=True),
    dict(rows=7, cols=6, r_wire=0.0, r_driver=25.0), dict(rows=1, cols=9), dict(rows=9, cols=1),
    dict(rows=1, cols=1, r_driver=25.0),
])
def test_line_blocks_solve_the_jacobian_without_device_couplings(geometry):
    # Checked against a dense solve of T: the zero-bias Jacobian with the
    # off-diagonal device entries removed and the fixed nodes as identity
    # rows, against a random imbalance that is zero at the fixed nodes.
    spec = CrossbarSpec(**geometry)
    m, n = spec.rows, spec.cols
    pattern, cells, _ = _sample_array(m, n, NonlinearDeviceParams(), "random", False, 47)
    net = build_network(spec, pattern, cells, row_read_bias(spec, 0))
    g = cells.conductances(net.active_params, 0.0)
    T = assemble_admittance(net, g).toarray()
    T[net.dev_a, net.dev_b] = T[net.dev_b, net.dev_a] = 0.0
    fixed = net.fixed_mask
    T[fixed], T[:, fixed] = 0.0, 0.0
    T[fixed, fixed] = 1.0
    F = np.random.default_rng(47).standard_normal((net.n_nodes, 3))
    F[fixed] = 0.0
    V = np.zeros((net.n_nodes, 3))
    step = solver.LineBlocks(net, g).relax(V, F.copy())
    want = np.linalg.solve(T, F)
    np.testing.assert_allclose(-V, want, rtol=1e-12, atol=1e-15 * np.abs(want).max())
    assert step == np.abs(V).max()


def test_newton_refines_a_start_within_the_kcl_bound():
    # Row 4 of this all-HRS column with line offsets starts within KCL_TOL at
    # the ideal rail, yet there its sensed current is 1% off; the Newton
    # solve refines it all the same.
    spec = CrossbarSpec(rows=5, cols=1, double_sided_clamps=True)
    pattern, cells, mismatch = _sample_array(5, 1, NonlinearDeviceParams(), "hrs", True, 49297)
    net = build_network(spec, pattern, cells, row_read_bias(spec, 4, mismatch))
    start = solver._ideal_rail_start(net)
    assert _kcl(net, start) <= KCL_BOUND
    v = solve(net).node_voltages
    want = _reference_sensed(net).astype(float)
    assert np.abs(bitline_currents(net, start) / want - 1).max() > 1e-3
    assert np.abs(bitline_currents(net, v) - want).max() <= _sensing_quantum(net, v[:, None])


def test_stiff_sinh_session_within_a_sensing_quantum_of_refined_reads():
    # Cells a hundred times stiffer contract each line step about a hundred
    # times more slowly; the rows still reach the refined reads.
    spec = CrossbarSpec(rows=64, cols=64)
    pattern, cells, mismatch = _sample_array(64, 64, NonlinearDeviceParams(k_on=1e-6),
                                             "random", True, 64)
    _assert_session_within_a_quantum(spec, pattern, cells, mismatch, [0, 17, 31, 32, 50, 63])


# A drive far beyond the sinh law's range: device currents overflow, so every
# residual of a read of this array is infinite or NaN.
_OVERFLOW_SPEC = CrossbarSpec(rows=6, cols=5, v_dd=300.0)


def _overflowing_array():
    return (random_pattern(6, 5, np.random.default_rng(1)),
            CellGrid.sample(6, 5, NonlinearDeviceParams(), VariationSpec(0.1, 1)))


def test_clamped_sinh_session_fails_non_finite_rows():
    # NaN compares false against KCL_TOL: the row must take the Newton
    # fallback, which fails on its non-finite residual, not return NaN.
    pattern, cells = _overflowing_array()
    session = RowReadSession(_OVERFLOW_SPEC, cells, pattern)
    with np.errstate(all="ignore"), pytest.raises(SolverConvergenceError, match="residual (inf|nan) A"):
        session.solve_rows([0])


def test_newton_fails_a_non_finite_residual_before_it_factors():
    pattern, cells = _overflowing_array()
    with np.errstate(all="ignore"), pytest.raises(SolverConvergenceError, match="residual (inf|nan) A"):
        read_row(_OVERFLOW_SPEC, cells, pattern, 0)


def test_kcl_check_fails_a_nan_column():
    spec = CrossbarSpec(rows=4, cols=3)
    pattern = random_pattern(4, 3, np.random.default_rng(3))
    cells = CellGrid.sample(4, 3, LinearDeviceParams(), VariationSpec(0.1, 3))
    net = build_network(spec, pattern, cells, row_read_bias(spec, 1))
    system = ReducedSystem(net)
    system.factor(cells.conductances(net.active_params, 0.0))
    V = system.solve(np.where(net.fixed_mask, net.fixed_voltage, 0.0)[:, None].repeat(2, axis=1))[0]
    V[system.unknown[0], 1] = np.nan
    with pytest.raises(SolverConvergenceError) as err:
        system.check(V)
    assert np.isnan(err.value.residual)


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(1, 40),
    cols=st.integers(1, 40),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    row_read=st.booleans(),
    data=st.data(),
)
def test_unknown_order_is_a_permutation_of_the_free_nodes(
    rows, cols, r_wire, r_driver, double_sided, row_read, data
):
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    i = data.draw(st.integers(0, rows - 1))
    j = data.draw(st.integers(0, cols - 1))
    bias = row_read_bias(spec, i) if row_read else conventional_cell_bias(spec, i, j)
    pattern = np.ones((rows, cols), dtype=np.int8)
    cells = CellGrid.sample(rows, cols, LinearDeviceParams(), VariationSpec(0.10, 1))
    net = build_network(spec, pattern, cells, bias)
    unknown = ReducedSystem(net).unknown
    assert np.array_equal(np.sort(unknown), np.flatnonzero(~net.fixed_mask))


def _dissection_splits(rows, cols):
    """Every split of the nested dissection of a rows x cols cell grid, as
    (first half, second half, separator) rail-node sets: the rectangle is cut
    across its longer side at its middle, a row cut separating on that row's
    bitline nodes and a column cut on that column's wordline nodes, down to
    blocks of at most ``solver._DISSECTION_LEAF`` nodes.  A block owns the
    nodes of its rectangle that no enclosing separator took."""
    wl = np.arange(rows * cols).reshape(rows, cols)
    bl = wl + rows * cols
    owner = np.zeros(2 * rows * cols, dtype=bool)  # taken by a separator

    def block(r0, r1, c0, c1):
        nodes = np.concatenate([wl[r0:r1, c0:c1].ravel(), bl[r0:r1, c0:c1].ravel()])
        return nodes[~owner[nodes]]

    stack = [(0, rows, 0, cols)]
    while stack:
        r0, r1, c0, c1 = stack.pop()
        h, w = r1 - r0, c1 - c0
        if 2 * h * w <= solver._DISSECTION_LEAF:
            continue
        if h >= w:
            r = r0 + h // 2
            sep, halves = bl[r, c0:c1], [(r0, r, c0, c1), (r, r1, c0, c1)]
        else:
            c = c0 + w // 2
            sep, halves = wl[r0:r1, c], [(r0, r1, c0, c), (r0, r1, c, c1)]
        sep = sep[~owner[sep]]
        owner[sep] = True
        yield block(*halves[0]), block(*halves[1]), sep
        stack.extend(halves)


@pytest.mark.parametrize("rows, cols", [(1, 7), (7, 1), (2, 2), (5, 9), (16, 16), (33, 17),
                                        (1, 40), (40, 1), (40, 40), (64, 3)])
def test_dissection_separates_the_halves_of_every_split(rows, cols):
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=10.0)
    pattern = np.ones((rows, cols), dtype=np.int8)
    cells = CellGrid.sample(rows, cols, LinearDeviceParams(), VariationSpec(0.10, 1))
    net = build_network(spec, pattern, cells, row_read_bias(spec, 0))
    n_rail = 2 * rows * cols
    a = np.concatenate([net.wire_a, net.dev_a])
    b = np.concatenate([net.wire_b, net.dev_b])
    rail = (a < n_rail) & (b < n_rail)
    a, b = a[rail], b[rail]

    order = solver._dissection_order(rows, cols)
    assert np.array_equal(np.sort(order), np.arange(n_rail))
    position = np.empty(n_rail, dtype=np.int64)
    position[order] = np.arange(n_rail)
    for first, second, sep in _dissection_splits(rows, cols):
        side = np.zeros(n_rail, dtype=np.int8)
        side[first], side[second] = 1, 2
        assert not (side[a] * side[b] == 2).any(), "a branch joins the two halves"
        # the order holds each half as one run, then the separator
        runs = [np.sort(position[x]) for x in (first, second, sep)]
        flat = np.concatenate(runs)
        assert np.array_equal(flat, np.arange(flat[0], flat[0] + flat.size))


def test_dissection_order_keeps_fill_below_colamd():
    n = 64
    spec = CrossbarSpec(rows=n, cols=n, r_wire=10.0)
    pattern = random_pattern(n, n, np.random.default_rng(1))
    cells = CellGrid.sample(n, n, LinearDeviceParams(), VariationSpec(0.10, 1))
    net = build_network(spec, pattern, cells, row_read_bias(spec, 0))
    g = cells.conductances(net.active_params, 0.0)
    system = ReducedSystem(net)
    system.factor(g)
    u = np.flatnonzero(~net.fixed_mask)
    default = spla.splu(assemble_admittance(net, g)[u][:, u].tocsc())
    assert system.lu.nnz <= 0.6 * default.nnz


def test_block_solve_in_panels_equals_one_column_at_a_time():
    # 37 columns: two full panels and a partial one
    spec = CrossbarSpec(rows=12, cols=12, r_wire=10.0)
    pattern = random_pattern(12, 12, np.random.default_rng(3))
    cells = CellGrid.sample(12, 12, LinearDeviceParams(), VariationSpec(0.10, 3))
    net = build_network(spec, pattern, cells, row_read_bias(spec, 0))
    system = ReducedSystem(net)
    system.factor(cells.conductances(net.active_params, 0.0))
    rng = np.random.default_rng(3)
    B = rng.standard_normal((system.unknown.size, 37))
    X = system.solve_block(B)
    assert X.flags.f_contiguous
    for c in range(37):
        assert np.array_equal(X[:, c], system.lu.solve(B[:, c]))


# Factors a 96x96 row read (18240 unknowns), optionally after freeing 40 MB of
# 1 MB heap blocks that heap retention keeps resident; prints the resident
# anonymous memory, in MB, with the factor alive.
_FACTOR_AFTER_FREED_HEAP = """
import resource, sys
import numpy as np
import xbarsim.experiments
from xbarsim.crossbar import CrossbarSpec, build_network, random_pattern, row_read_bias
from xbarsim.devices import CellGrid, LinearDeviceParams, VariationSpec
from xbarsim.solver import ReducedSystem
n = 96
spec = CrossbarSpec(rows=n, cols=n, r_wire=10.0)
pattern = random_pattern(n, n, np.random.default_rng(1))
cells = CellGrid.sample(n, n, LinearDeviceParams(), VariationSpec(0.10, 1))
net = build_network(spec, pattern, cells, row_read_bias(spec, 0))
if sys.argv[1] == 'freed':
    blocks = [np.ones(1 << 17) for _ in range(40)]
    del blocks
system = ReducedSystem(net)
system.factor(cells.conductances(net.active_params, 0.0))
with open('/proc/self/statm') as f:
    resident, shared = (int(x) for x in f.read().split()[1:3])
print((resident - shared) * resource.getpagesize() / 2**20)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="malloc_trim is glibc's")
def test_large_factor_memory_does_not_depend_on_freed_heap():
    def resident_mb(mode):
        env = {**os.environ, "PYTHONPATH": str(Path(xbarsim.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", _FACTOR_AFTER_FREED_HEAP, mode],
                              env=env, capture_output=True, text=True, check=True)
        return float(proc.stdout)

    # Untrimmed, the freed 40 MB stays resident under the factor (about 32 MB more).
    assert abs(resident_mb("freed") - resident_mb("fresh")) < 4.0
