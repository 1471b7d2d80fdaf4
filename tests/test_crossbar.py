import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from xbarsim.crossbar import (
    BIAS_CLAMP,
    BIAS_DRIVE,
    BIAS_FLOATING,
    BIAS_LOAD,
    FLOATING,
    TERM_DIRECT,
    TERM_FLOATING,
    TERM_RESISTIVE,
    BiasConfig,
    BiasMismatch,
    Clamp,
    CrossbarSpec,
    Drive,
    Floating,
    LineAttachment,
    ResistiveLoad,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import CellGrid, LinearDeviceParams, VariationSpec
from xbarsim.solver import assemble_admittance, bitline_currents, solve

NOVAR = VariationSpec(0.0, 0)


class TestSpecValidation:
    def test_paper_defaults(self):
        spec = CrossbarSpec(rows=512, cols=512)
        assert spec.r_wire == 10.0 and spec.v_dd == 1.2 and spec.v_b == 0.7

    def test_rejects_bias_above_supply(self):
        with pytest.raises(ValueError):
            CrossbarSpec(rows=4, cols=4, v_dd=0.7, v_b=0.7)

    def test_rejects_negative_wire(self):
        with pytest.raises(ValueError):
            CrossbarSpec(rows=4, cols=4, r_wire=-1)

    def test_bank_width_must_divide(self):
        with pytest.raises(ValueError):
            CrossbarSpec(rows=512, cols=512, bank_width=100)


class TestRowReadBias:
    def test_two_row_example(self):
        spec = CrossbarSpec(rows=2, cols=2)
        bias = row_read_bias(spec, 0)
        assert bias.wl_kind.tolist() == [BIAS_DRIVE, BIAS_CLAMP]
        assert bias.wl_v.tolist() == [1.2, 0.7]
        assert bias.bl_kind.tolist() == [BIAS_CLAMP, BIAS_CLAMP]
        assert bias.bl_v.tolist() == [0.7, 0.7]

    def test_out_of_range_rejected(self):
        spec = CrossbarSpec(rows=2, cols=2)
        with pytest.raises(IndexError):
            row_read_bias(spec, 2)
        with pytest.raises(IndexError):
            row_read_bias(spec, -1)

    def test_bitline_offset_applied(self):
        spec = CrossbarSpec(rows=2, cols=2)
        mism = BiasMismatch(np.zeros(2), np.array([0.0, 2e-3]))
        bias = row_read_bias(spec, 0, mism)
        assert bias.bl_kind[1] == BIAS_CLAMP and bias.bl_v[1] == 0.702

    def test_voltage_sensing_bitlines(self):
        spec = CrossbarSpec(rows=2, cols=2)
        bias = row_read_bias(spec, 1, bitlines=ResistiveLoad(1e4, 0.1))
        assert bias.wl_kind.tolist() == [BIAS_CLAMP, BIAS_DRIVE]
        assert bias.bl_kind.tolist() == [BIAS_LOAD] * 2
        assert bias.bl_v.tolist() == [0.1, 0.1] and bias.bl_r.tolist() == [1e4, 1e4]
        assert row_read_bias(spec, 1, bitlines=FLOATING).bl_kind.tolist() == [BIAS_FLOATING] * 2
        with pytest.raises(TypeError, match="bitlines must be"):
            row_read_bias(spec, 0, bitlines=Clamp(0.0))
        # an offset belongs to a clamp; a floating or loaded bitline has none
        mism = BiasMismatch(np.zeros(2), np.array([0.0, 2e-3]))
        with pytest.raises(ValueError, match="only to clamped bitlines"):
            row_read_bias(spec, 0, mism, bitlines=FLOATING)


class TestConventionalBias:
    def test_definition(self):
        spec = CrossbarSpec(rows=2, cols=2)
        bias = conventional_cell_bias(spec, 0, 0)
        assert bias.wl_kind.tolist() == [BIAS_DRIVE, BIAS_FLOATING]
        assert bias.wl_v[0] == 1.2 and np.isnan(bias.wl_v[1])
        assert bias.bl_kind.tolist() == [BIAS_CLAMP, BIAS_FLOATING]
        assert bias.bl_v[0] == 0.0 and np.isnan(bias.bl_v[1])

    def test_out_of_range(self):
        spec = CrossbarSpec(rows=2, cols=2)
        with pytest.raises(IndexError):
            conventional_cell_bias(spec, 0, 5)

    def test_sneak_series_path_exists(self):
        # 2x2 with floating others: the three unselected devices form a
        # series route in parallel with the target, so removing the target
        # device must leave the driven and sensed rails connected.
        spec = CrossbarSpec(rows=2, cols=2, r_wire=0.0)
        cells = CellGrid.sample(2, 2, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.ones((2, 2), np.int8), cells,
                            conventional_cell_bias(spec, 0, 0))
        keep = ~((net.dev_a == net.wl_nodes[0, 0]) & (net.dev_b == net.bl_nodes[0, 0]))
        _, labels = _components(net, keep)
        assert labels[net.wl_nodes[0, 0]] == labels[net.bl_nodes[1, 0]]


def _components(net, keep=None):
    """Connected-component labels of the network's branch graph (``keep``
    masks the devices)."""
    keep = np.ones(net.dev_a.size, dtype=bool) if keep is None else keep
    a = np.concatenate([net.wire_a, net.dev_a[keep]])
    b = np.concatenate([net.wire_b, net.dev_b[keep]])
    adj = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(net.n_nodes, net.n_nodes))
    return connected_components(adj, directed=False)


def _attached_line_ends(net):
    return sum(int((a.kind != TERM_FLOATING).sum())
               for a in (net.wl_attach, net.wl_attach_far, net.bl_attach))


class TestNetworkStructure:
    def test_smallest_ideal_network(self):
        spec = CrossbarSpec(rows=1, cols=1, r_wire=0.0)
        cells = CellGrid.sample(1, 1, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.ones((1, 1), np.int8), cells, row_read_bias(spec, 0))
        assert net.n_nodes == 2
        assert net.dev_a.size == 1
        assert _attached_line_ends(net) == 2
        assert net.fixed_mask.all()

    @pytest.mark.parametrize("m,n", [(1, 1), (1, 5), (5, 1), (3, 4), (7, 7), (12, 9)])
    def test_branch_count_formulas(self, m, n):
        spec = CrossbarSpec(rows=m, cols=n, r_wire=10.0)
        cells = CellGrid.sample(m, n, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.zeros((m, n), np.int8), cells, row_read_bias(spec, 0))
        assert net.dev_a.size == m * n
        # r_driver=0: no boundary branches, so every wire branch is a segment
        assert net.wire_a.size == m * (n - 1) + (m - 1) * n
        assert net.n_nodes == 2 * m * n

    def test_branch_counts_exhaustive_small(self):
        for m in range(1, 13):
            for n in range(1, 13):
                spec = CrossbarSpec(rows=m, cols=n, r_wire=10.0)
                cells = CellGrid.sample(m, n, LinearDeviceParams(), NOVAR)
                net = build_network(spec, np.zeros((m, n), np.int8), cells, row_read_bias(spec, 0))
                assert net.wire_a.size == m * (n - 1) + (m - 1) * n
        spec = CrossbarSpec(rows=64, cols=64, r_wire=10.0)
        cells = CellGrid.sample(64, 64, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.zeros((64, 64), np.int8), cells, row_read_bias(spec, 0))
        assert net.wire_a.size == 64 * 63 * 2

    def test_driver_resistance_adds_terminals(self):
        spec = CrossbarSpec(rows=2, cols=3, r_wire=10.0, r_driver=100.0)
        cells = CellGrid.sample(2, 3, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.zeros((2, 3), np.int8), cells, row_read_bias(spec, 0))
        assert net.n_nodes == 2 * 6 + 5  # one terminal per attached line
        assert _attached_line_ends(net) == 5
        assert net.wire_a.size == 2 * 2 + 1 * 3 + 5  # segments plus one series branch each

    def test_construction_deterministic(self):
        spec = CrossbarSpec(rows=5, cols=6, r_wire=10.0)
        cells = CellGrid.sample(5, 6, LinearDeviceParams(), VariationSpec(0.1, 4))
        pattern = np.zeros((5, 6), np.int8)
        a = build_network(spec, pattern, cells, row_read_bias(spec, 2))
        b = build_network(spec, pattern, cells, row_read_bias(spec, 2))
        assert np.array_equal(a.wire_a, b.wire_a)
        assert np.array_equal(a.fixed_voltage[a.fixed_mask], b.fixed_voltage[b.fixed_mask])
        for field in ("kind", "attach_node", "terminal_node", "conductance", "voltage"):
            assert np.array_equal(getattr(a.wl_attach, field), getattr(b.wl_attach, field),
                                  equal_nan=True)

    def test_all_floating_rejected(self):
        with pytest.raises(ValueError, match="floating"):
            BiasConfig.from_terms((FLOATING, FLOATING), (FLOATING, FLOATING))

    def test_dimension_mismatch_rejected(self):
        spec = CrossbarSpec(rows=2, cols=2)
        cells = CellGrid.sample(2, 2, LinearDeviceParams(), NOVAR)
        with pytest.raises(ValueError):
            build_network(spec, np.zeros((3, 2), np.int8), cells, row_read_bias(spec, 0))


class TestHandAssembledAdmittance:
    def test_two_by_two_matches_hand_matrix(self):
        # 2x2, r_wire = 10 ohm, all cells LRS = 1 Mohm, 8 rail nodes.
        # Node order: w00 w01 w10 w11 b00 b01 b10 b11.
        spec = CrossbarSpec(rows=2, cols=2, r_wire=10.0)
        cells = CellGrid.sample(2, 2, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.ones((2, 2), np.int8), cells, row_read_bias(spec, 0))
        gw = 0.1
        gd = 1e-6
        G = np.zeros((8, 8))

        def stamp(a, b, g):
            G[a, a] += g
            G[b, b] += g
            G[a, b] -= g
            G[b, a] -= g

        stamp(0, 1, gw)  # wordline row 0
        stamp(2, 3, gw)  # wordline row 1
        stamp(4, 6, gw)  # bitline col 0
        stamp(5, 7, gw)  # bitline col 1
        for k, (a, b) in enumerate([(0, 4), (1, 5), (2, 6), (3, 7)]):
            stamp(a, b, gd)
        got = assemble_admittance(net, cells.active_conductances(net.pattern)).toarray()
        assert np.allclose(got, G, rtol=0, atol=1e-18)


class TestIdealRailLimit:
    def test_column_current_is_row_sum_of_device_currents(self):
        # generic fixed bias on every line: column current must equal the sum
        # of its devices' currents at the rail voltage differences
        spec = CrossbarSpec(rows=4, cols=3, r_wire=0.0)
        cells = CellGrid.sample(4, 3, LinearDeviceParams(), VariationSpec(0.1, 6))
        pattern = random_pattern(4, 3, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        wl_v = 0.4 + 0.8 * rng.random(4)
        bl_v = 0.2 + 0.3 * rng.random(3)
        bias = BiasConfig.from_terms(
            tuple(Clamp(float(v)) for v in wl_v),
            tuple(Clamp(float(v)) for v in bl_v),
        )
        net = build_network(spec, pattern, cells, bias)
        got = bitline_currents(net, solve(net))
        dv = wl_v[:, None] - bl_v[None, :]
        want = cells.currents(cells.active_params(pattern), dv).sum(axis=0)
        assert np.abs(got - want).max() < 1e-15


def test_resistive_load_validation():
    with pytest.raises(ValueError):
        ResistiveLoad(r_s=0.0)


class TestBiasInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["wordline", "bitline"])
    def test_non_finite_mismatch_offset_rejected(self, bad, side):
        spec = CrossbarSpec(rows=3, cols=2)
        wl_dv, bl_dv = np.zeros(3), np.zeros(2)
        (wl_dv if side == "wordline" else bl_dv)[1] = bad
        with pytest.raises(ValueError, match="finite"):
            row_read_bias(spec, 0, BiasMismatch(wl_dv, bl_dv))

    def test_non_finite_hand_written_drive_rejected(self):
        with pytest.raises(ValueError):
            BiasConfig.from_terms((Drive(np.inf), Clamp(0.7)), (Clamp(0.7),))
        bias = BiasConfig.from_terms((Drive(1.2), Clamp(0.7)), (Clamp(0.7),))
        with pytest.raises(ValueError, match="finite"):
            dataclasses.replace(bias, wl_v=np.array([np.inf, 0.7]))

    def test_non_positive_load_rejected(self):
        with pytest.raises(ValueError):
            BiasConfig.from_terms((Drive(1.2),), (ResistiveLoad(0.0),))
        bias = BiasConfig.from_terms((Drive(1.2),), (ResistiveLoad(1e3),))
        for r in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="r_s|_r must"):
                dataclasses.replace(bias, bl_r=np.array([r]))

    def test_length_mismatch_rejected(self):
        bias = row_read_bias(CrossbarSpec(rows=2, cols=2), 0)
        with pytest.raises(ValueError, match="one length"):
            dataclasses.replace(bias, wl_v=np.array([1.2, 0.7, 0.7]))
        with pytest.raises(ValueError, match="dimensions"):
            build_network(CrossbarSpec(rows=3, cols=2), np.zeros((3, 2), np.int8),
                          CellGrid.sample(3, 2, LinearDeviceParams(), NOVAR), bias)

    def test_all_floating_arrays_rejected(self):
        bias = conventional_cell_bias(CrossbarSpec(rows=2, cols=2), 0, 0)
        nan2 = np.full(2, np.nan)
        with pytest.raises(ValueError, match="floating"):
            dataclasses.replace(bias, wl_kind=np.zeros(2), wl_v=nan2,
                                bl_kind=np.zeros(2), bl_v=nan2)

    @pytest.mark.parametrize("code", [-1, 4, 256, 2.5])
    def test_unknown_kind_code_rejected(self, code):
        bias = row_read_bias(CrossbarSpec(rows=2, cols=2), 0)
        with pytest.raises(ValueError, match="BIAS_"):
            dataclasses.replace(bias, wl_kind=np.array([BIAS_DRIVE, code]))

    def test_unknown_term_rejected(self):
        with pytest.raises(TypeError):
            BiasConfig.from_terms((Drive(1.2),), (0.7,))

    def test_floating_line_must_carry_nan(self):
        bias = conventional_cell_bias(CrossbarSpec(rows=2, cols=2), 0, 0)
        with pytest.raises(ValueError, match="NaN on floating"):
            dataclasses.replace(bias, wl_v=np.array([1.2, 0.7]))


class TestNodeNames:
    def test_far_end_terminals_are_named(self):
        spec = CrossbarSpec(rows=2, cols=3, r_wire=10.0, r_driver=5.0, double_sided_clamps=True)
        cells = CellGrid.sample(2, 3, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.zeros((2, 3), np.int8), cells, row_read_bias(spec, 0))
        names = [net.node_name(k) for k in range(12, net.n_nodes)]
        assert names == ["wl[0].terminal", "wl[1].terminal",
                         "wl[0].terminal_far", "wl[1].terminal_far",
                         "bl[0].terminal", "bl[1].terminal", "bl[2].terminal"]

    def test_far_terminal_named_without_wire_resistance(self):
        # r_wire = 0: both ends of a wordline are one rail node
        spec = CrossbarSpec(rows=2, cols=2, r_wire=0.0, r_driver=5.0, double_sided_clamps=True)
        cells = CellGrid.sample(2, 2, LinearDeviceParams(), NOVAR)
        net = build_network(spec, np.zeros((2, 2), np.int8), cells, row_read_bias(spec, 1))
        assert net.node_name(6) == "wl[0].terminal_far"


_shapes = st.one_of(st.tuples(st.just(1), st.integers(1, 6)),
                    st.tuples(st.integers(1, 6), st.just(1)),
                    st.tuples(st.integers(1, 6), st.integers(1, 6)))


@settings(max_examples=150, deadline=None)
@given(
    shape=_shapes,
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 25.0]),
    double_sided=st.booleans(),
    scheme=st.sampled_from(["row", "conventional", "floating", "resistive"]),
    data=st.data(),
)
def test_every_network_is_one_connected_component(shape, r_wire, r_driver, double_sided,
                                                   scheme, data):
    # solver.check_grounded relies on this: one fixed node anchors the whole network
    rows, cols = shape
    i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, cols - 1))
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    if scheme == "row":
        bias = row_read_bias(spec, i)
    elif scheme == "conventional":
        bias = conventional_cell_bias(spec, i, j)
    else:
        wordlines = tuple(Drive(spec.v_dd) if k == i else Clamp(spec.v_b) for k in range(rows))
        term = FLOATING if scheme == "floating" else ResistiveLoad(1e4)
        bias = BiasConfig.from_terms(wordlines, (term,) * cols)
    cells = CellGrid.sample(rows, cols, LinearDeviceParams(), NOVAR)
    net = build_network(spec, np.zeros((rows, cols), np.int8), cells, bias)
    assert _components(net)[0] == 1


# Independent per-line reference of the network construction ------------------

def reference_network(spec, wordline_sources, bitline_terms):
    """Build the boundary of a network one line at a time: terminal nodes
    are appended as the line ends are met (near wordline ends, far wordline
    ends, then bitline ends), and an unattached far end is a floating entry."""
    m, n = spec.rows, spec.cols
    if spec.r_wire > 0:
        wl_nodes = np.arange(m * n).reshape(m, n)
        bl_nodes = wl_nodes + m * n
        n_rail = 2 * m * n
        gw = 1.0 / spec.r_wire
        wires = [(wl_nodes[i, j], wl_nodes[i, j + 1], gw) for i in range(m) for j in range(n - 1)]
        wires += [(bl_nodes[i, j], bl_nodes[i + 1, j], gw) for i in range(m - 1) for j in range(n)]
    else:
        wl_nodes = np.repeat(np.arange(m)[:, None], n, axis=1)
        bl_nodes = np.repeat(m + np.arange(n)[None, :], m, axis=0)
        n_rail = m + n
        wires = []
    fixed_mask = [False] * n_rail
    fixed_voltage = [np.nan] * n_rail

    def attach(end_node, term):
        end_node = int(end_node)
        if isinstance(term, Floating):
            return LineAttachment(TERM_FLOATING, end_node)
        if isinstance(term, (Drive, Clamp)):
            if spec.r_driver == 0:
                fixed_mask[end_node] = True
                fixed_voltage[end_node] = term.v
                return LineAttachment(TERM_DIRECT, end_node, voltage=term.v)
            g, src = 1.0 / spec.r_driver, term.v
        else:
            g, src = 1.0 / term.r_s, term.to
        t = len(fixed_mask)
        fixed_mask.append(True)
        fixed_voltage.append(src)
        wires.append((end_node, t, g))
        return LineAttachment(TERM_RESISTIVE, end_node, terminal_node=t, conductance=g, voltage=src)

    wl = [attach(wl_nodes[i, 0], s) for i, s in enumerate(wordline_sources)]
    far = [
        attach(wl_nodes[i, n - 1], s)
        if spec.double_sided_clamps and n > 1 and isinstance(s, (Drive, Clamp))
        else LineAttachment(TERM_FLOATING, int(wl_nodes[i, n - 1]))
        for i, s in enumerate(wordline_sources)
    ]
    bl = [attach(bl_nodes[m - 1, j], t) for j, t in enumerate(bitline_terms)]
    return {
        "n_nodes": len(fixed_mask),
        "fixed_mask": np.array(fixed_mask),
        "fixed_voltage": np.array(fixed_voltage),
        "wire_a": np.array([w[0] for w in wires], dtype=np.int64),
        "wire_b": np.array([w[1] for w in wires], dtype=np.int64),
        "wire_g": np.array([w[2] for w in wires], dtype=float),
        "wl_attach": wl,
        "wl_attach_far": far,
        "bl_attach": bl,
    }


_volts = st.floats(-2.0, 2.0, allow_nan=False)
_terms = st.one_of(
    st.just(FLOATING),
    st.builds(Drive, _volts),
    st.builds(Clamp, _volts),
    st.builds(ResistiveLoad, st.floats(1e-3, 1e6), _volts),
)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 5),
    cols=st.integers(1, 5),
    r_wire=st.sampled_from([0.0, 10.0]),
    r_driver=st.sampled_from([0.0, 5.0]),
    double_sided=st.booleans(),
)
def test_build_network_matches_per_line_reference(data, rows, cols, r_wire, r_driver, double_sided):
    wordlines = data.draw(st.lists(_terms, min_size=rows, max_size=rows))
    bitlines = data.draw(st.lists(_terms, min_size=cols, max_size=cols))
    if all(isinstance(t, Floating) for t in wordlines + bitlines):
        wordlines[0] = Drive(1.2)
    spec = CrossbarSpec(rows=rows, cols=cols, r_wire=r_wire, r_driver=r_driver,
                        double_sided_clamps=double_sided)
    cells = CellGrid.sample(rows, cols, LinearDeviceParams(), NOVAR)
    net = build_network(spec, np.zeros((rows, cols), np.int8), cells,
                        BiasConfig.from_terms(tuple(wordlines), tuple(bitlines)))
    ref = reference_network(spec, wordlines, bitlines)

    assert net.n_nodes == ref["n_nodes"]
    assert np.array_equal(net.fixed_mask, ref["fixed_mask"])
    assert np.array_equal(net.fixed_voltage, ref["fixed_voltage"], equal_nan=True)
    for name in ("wire_a", "wire_b", "wire_g"):
        got = getattr(net, name)
        assert got.dtype == ref[name].dtype and np.array_equal(got, ref[name]), name
    for name in ("wl_attach", "wl_attach_far", "bl_attach"):
        attach = getattr(net, name)
        assert len(attach) == len(ref[name])
        for k, want in enumerate(ref[name]):
            got = attach[k]
            for field in ("kind", "attach_node", "terminal_node", "conductance", "control_node"):
                assert getattr(got, field) == getattr(want, field), (name, k, field)
            assert np.array_equal(got.voltage, want.voltage, equal_nan=True), (name, k)
        assert np.array_equal(attach.control_node, [a.control_node for a in ref[name]])
