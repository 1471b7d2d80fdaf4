"""The shared reduce-factor-refine path: every solve path agrees with the
direct solve, meets the KCL bound, stays in the voltage hull, reports
residuals above its tolerance, and refines to near a long-double
reference."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarsim import solver
from xbarsim.crossbar import (
    BiasMismatch,
    CrossbarSpec,
    build_network,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import CellGrid, LinearDeviceParams, NonlinearDeviceParams, VariationSpec
from xbarsim.readout import ConventionalSession, RowReadSession
from xbarsim.solver import (
    SolverConvergenceError,
    assemble_admittance,
    bitline_currents,
    node_imbalance,
    solve,
)

KCL_BOUND = 1e-12


def _kcl(net, V) -> float:
    """Largest imbalance over the unknown nodes, one column per solve."""
    leaving = node_imbalance(net, V)[~net.fixed_mask]
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
        np.testing.assert_allclose(got[i], bitline_currents(net, sol), rtol=0, atol=1e-12)


def test_floating_conventional_session_enforces_its_tolerance(monkeypatch):
    spec = CrossbarSpec(rows=6, cols=6, r_wire=10.0)
    rng = np.random.default_rng(4)
    pattern = random_pattern(6, 6, rng)
    cells = CellGrid.sample(6, 6, LinearDeviceParams(), VariationSpec(0.10, 4))
    session = ConventionalSession(spec, cells, pattern)
    assert np.all(session.currents([(1, 2), (3, 4)]) > 0)
    monkeypatch.setattr(solver, "KCL_TOL", 1e-30)
    with pytest.raises(SolverConvergenceError, match=r"cell \(\d, \d\)") as info:
        session.currents([(1, 2), (3, 4)])
    assert info.value.residual > 1e-30


def _reference_sensed(net) -> np.ndarray:
    """Bitline currents refined with long-double residuals and voltages."""
    ld = np.longdouble
    u = ~net.fixed_mask
    G = assemble_admittance(net, net.cells.active_conductances(net.pattern))
    lu = spla.splu(G[u][:, u].tocsc())
    r = np.where(net.pattern.ravel() == 1, net.cells.on_values.ravel(),
                 net.cells.off_values.ravel()).astype(ld)

    def leaving(v):
        out = np.zeros(net.n_nodes, dtype=ld)
        iw = net.wire_g.astype(ld) * (v[net.wire_a] - v[net.wire_b])
        np.add.at(out, net.wire_a, iw)
        np.add.at(out, net.wire_b, -iw)
        i_dev = (v[net.dev_a] - v[net.dev_b]) / r
        np.add.at(out, net.dev_a, i_dev)
        np.add.at(out, net.dev_b, -i_dev)
        return out

    v = np.where(net.fixed_mask, net.fixed_voltage, 0.0).astype(ld)
    for _ in range(12):
        v[u] -= lu.solve(leaving(v)[u].astype(np.float64))
    out = leaving(v)
    return np.array([-out[a.control_node] for a in net.bl_attach])


def test_session_currents_near_long_double_reference():
    n = 16
    spec = CrossbarSpec(rows=n, cols=n, r_wire=10.0, double_sided_clamps=True)
    rng = np.random.default_rng(5)
    pattern = random_pattern(n, n, rng)
    cells = CellGrid.sample(n, n, LinearDeviceParams(), VariationSpec(0.10, 5))
    got = RowReadSession(spec, cells, pattern).current_map()
    for i in range(n):
        net = build_network(spec, pattern, cells, row_read_bias(spec, i))
        want = _reference_sensed(net)
        assert np.abs(got[i] - want.astype(float)).max() <= 5e-17
