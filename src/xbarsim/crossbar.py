"""Crossbar geometry, bias schemes, and node-branch network construction.

A biased M x N array becomes a resistive network: with nonzero wire
resistance every cell contributes one wordline-rail node and one
bitline-rail node, chained by wire segments along each line; with zero
wire resistance each line collapses to a single rail node.  Drives and
clamps attach at the decoder end of wordlines (column 0) and the sense
end of bitlines (row M-1), either as directly fixed nodes (no series
resistance) or through an explicit terminal node and series branch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .devices import CellGrid

# Line-attachment kinds recorded per wordline/bitline.
TERM_FLOATING = 0
TERM_DIRECT = 1  # end node fixed at the source voltage (zero series resistance)
TERM_RESISTIVE = 2  # series branch from end node to a fixed terminal node


@dataclass(frozen=True)
class CrossbarSpec:
    """Array geometry and electrical operating point.

    ``double_sided_clamps`` models bias switches opposite the read decoder
    holding every wordline at its source potential from both line ends;
    bitline terminations always stay single-ended at the sense side so the
    sensed current is collected at one node.
    """

    rows: int
    cols: int
    r_wire: float = 10.0
    r_driver: float = 0.0
    v_dd: float = 1.2
    v_b: float = 0.7
    bank_width: int | None = None  # None means a single bank spanning all columns
    double_sided_clamps: bool = False

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"rows and cols must be >= 1, got {self.rows}x{self.cols}")
        if not (np.isfinite(self.r_wire) and self.r_wire >= 0):
            raise ValueError(f"r_wire must be >= 0, got {self.r_wire}")
        if not (np.isfinite(self.r_driver) and self.r_driver >= 0):
            raise ValueError(f"r_driver must be >= 0, got {self.r_driver}")
        if not (np.isfinite(self.v_dd) and np.isfinite(self.v_b)):
            raise ValueError("v_dd and v_b must be finite")
        if not (self.v_dd > self.v_b >= 0):
            raise ValueError(f"require v_dd > v_b >= 0, got v_dd={self.v_dd}, v_b={self.v_b}")
        n = self.cols if self.bank_width is None else self.bank_width
        if n < 1 or self.cols % n != 0:
            raise ValueError(
                f"bank_width must divide cols ({self.cols}), got {self.bank_width}"
            )


# Line sources / terminations -------------------------------------------------

@dataclass(frozen=True)
class Drive:
    """Read stimulus: line end forced to v (through r_driver if nonzero)."""

    v: float

    def __post_init__(self):
        if not np.isfinite(self.v):
            raise ValueError(f"drive voltage must be finite, got {self.v}")


@dataclass(frozen=True)
class Clamp:
    """Bias hold: line end held at v (through r_driver if nonzero)."""

    v: float

    def __post_init__(self):
        if not np.isfinite(self.v):
            raise ValueError(f"clamp voltage must be finite, got {self.v}")


@dataclass(frozen=True)
class ResistiveLoad:
    """Sense resistor r_s from the line end to a fixed potential."""

    r_s: float
    to: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.r_s) and self.r_s > 0):
            raise ValueError(f"r_s must be finite and > 0, got {self.r_s}")
        if not np.isfinite(self.to):
            raise ValueError(f"load potential must be finite, got {self.to}")


@dataclass(frozen=True)
class Floating:
    """No boundary attachment."""


FLOATING = Floating()

WordlineSource = Drive | Clamp | Floating
BitlineTermination = Clamp | ResistiveLoad | Floating

# Per-line bias kinds recorded in BiasConfig.
BIAS_FLOATING = 0
BIAS_DRIVE = 1
BIAS_CLAMP = 2
BIAS_LOAD = 3


def _term_code(term) -> tuple[int, float, float]:
    """(kind, potential, load resistance) of one line term object."""
    if isinstance(term, Floating):
        return BIAS_FLOATING, np.nan, np.nan
    if isinstance(term, Drive):
        return BIAS_DRIVE, term.v, np.nan
    if isinstance(term, Clamp):
        return BIAS_CLAMP, term.v, np.nan
    if isinstance(term, ResistiveLoad):
        return BIAS_LOAD, term.to, term.r_s
    raise TypeError(f"unsupported line attachment: {type(term).__name__}")


def line_arrays(count: int, term) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kind, potential and load arrays of ``count`` lines all given ``term``."""
    kind, v, r = _term_code(term)
    return np.full(count, kind, dtype=np.int8), np.full(count, v), np.full(count, r)


@dataclass(frozen=True, eq=False)
class BiasConfig:
    """Per-line boundary conditions of one read configuration, as arrays.

    ``*_kind`` holds one ``BIAS_*`` code per line, ``*_v`` the line's
    source potential (the clamp or drive voltage, or the far end of a
    load; NaN where the line floats) and ``*_r`` the load resistance r_s
    (NaN on every line that is not a load).  ``from_terms`` builds one from
    per-line term objects.
    """

    wl_kind: np.ndarray
    wl_v: np.ndarray
    wl_r: np.ndarray
    bl_kind: np.ndarray
    bl_v: np.ndarray
    bl_r: np.ndarray

    def __post_init__(self):
        for side in ("wl", "bl"):
            kind = np.asarray(getattr(self, f"{side}_kind"))
            v = np.array(getattr(self, f"{side}_v"), dtype=float)
            r = np.array(getattr(self, f"{side}_r"), dtype=float)
            if kind.ndim != 1 or v.shape != kind.shape or r.shape != kind.shape:
                raise ValueError(
                    f"{side}_kind, {side}_v and {side}_r must be 1-D arrays of one "
                    f"length, got shapes {kind.shape}, {v.shape}, {r.shape}"
                )
            if not np.isin(kind, (BIAS_FLOATING, BIAS_DRIVE, BIAS_CLAMP, BIAS_LOAD)).all():
                raise ValueError(f"{side}_kind entries must be BIAS_* codes, got {np.unique(kind)}")
            kind = kind.astype(np.int8)
            bad = np.where(kind == BIAS_FLOATING, ~np.isnan(v), ~np.isfinite(v))
            if bad.any():
                raise ValueError(
                    f"{side}_v must be finite on attached lines and NaN on floating "
                    f"ones: line {int(np.flatnonzero(bad)[0])} has {v[bad][0]}"
                )
            bad = np.where(kind == BIAS_LOAD, ~(np.isfinite(r) & (r > 0)), ~np.isnan(r))
            if bad.any():
                raise ValueError(
                    f"{side}_r must be finite and > 0 on loads and NaN elsewhere: "
                    f"line {int(np.flatnonzero(bad)[0])} has {r[bad][0]}"
                )
            for name, arr in ((f"{side}_kind", kind), (f"{side}_v", v), (f"{side}_r", r)):
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if (self.wl_kind == BIAS_FLOATING).all() and (self.bl_kind == BIAS_FLOATING).all():
            raise ValueError("bias configuration leaves every line floating (ungrounded network)")

    @classmethod
    def from_terms(
        cls,
        wordline_sources: tuple[WordlineSource, ...],
        bitline_terms: tuple[BitlineTermination, ...],
    ) -> BiasConfig:
        """Bias from one term object (``Drive``, ``Clamp``, ``ResistiveLoad``
        or ``FLOATING``) per wordline and per bitline."""
        wl, bl = (
            np.array([_term_code(t) for t in terms], dtype=float).reshape(-1, 3)
            for terms in (wordline_sources, bitline_terms)
        )
        return cls(wl[:, 0], wl[:, 1], wl[:, 2], bl[:, 0], bl[:, 1], bl[:, 2])


@dataclass(frozen=True)
class BiasMismatch:
    """Per-line clamp-voltage offsets (volts); zero where not specified."""

    wordline_dv: np.ndarray
    bitline_dv: np.ndarray

    @classmethod
    def zeros(cls, spec: CrossbarSpec) -> "BiasMismatch":
        return cls(np.zeros(spec.rows), np.zeros(spec.cols))

    @classmethod
    def uniform(cls, spec: CrossbarSpec, delta_v: float, selected_row: int | None = None) -> "BiasMismatch":
        """Worst-case offset: delta_v on every clamped wordline (not the driven one)."""
        wl = np.full(spec.rows, delta_v, dtype=float)
        if selected_row is not None:
            wl[selected_row] = 0.0
        return cls(wl, np.zeros(spec.cols))


def row_read_bias(spec: CrossbarSpec, selected_row: int, mismatch: BiasMismatch | None = None) -> BiasConfig:
    """One-cycle row read: drive the selected wordline to v_dd, clamp every
    other line (wordlines and all bitlines) to v_b plus any per-line offset."""
    if not (0 <= selected_row < spec.rows):
        raise IndexError(f"selected_row {selected_row} out of range for {spec.rows} rows")
    wl_dv = mismatch.wordline_dv if mismatch is not None else np.zeros(spec.rows)
    bl_dv = mismatch.bitline_dv if mismatch is not None else np.zeros(spec.cols)
    if len(wl_dv) != spec.rows or len(bl_dv) != spec.cols:
        raise ValueError("mismatch offset lengths must match array dimensions")
    wl_kind = np.full(spec.rows, BIAS_CLAMP, dtype=np.int8)
    wl_kind[selected_row] = BIAS_DRIVE
    wl_v = spec.v_b + np.asarray(wl_dv, dtype=float)
    wl_v[selected_row] = spec.v_dd
    return BiasConfig(
        wl_kind, wl_v, np.full(spec.rows, np.nan),
        np.full(spec.cols, BIAS_CLAMP, dtype=np.int8),
        spec.v_b + np.asarray(bl_dv, dtype=float),
        np.full(spec.cols, np.nan),
    )


def conventional_cell_bias(
    spec: CrossbarSpec,
    i: int,
    j: int,
    unselected: WordlineSource | BitlineTermination = FLOATING,
) -> BiasConfig:
    """Single-cell read: drive wordline i, ground bitline j, leave the other
    lines unterminated by default (``unselected`` sweeps grounded variants)."""
    if not (0 <= i < spec.rows and 0 <= j < spec.cols):
        raise IndexError(f"cell ({i}, {j}) out of range for {spec.rows}x{spec.cols}")
    wl_kind, wl_v, wl_r = line_arrays(spec.rows, unselected)
    bl_kind, bl_v, bl_r = line_arrays(spec.cols, unselected)
    wl_kind[i], wl_v[i], wl_r[i] = BIAS_DRIVE, spec.v_dd, np.nan
    bl_kind[j], bl_v[j], bl_r[j] = BIAS_CLAMP, 0.0, np.nan
    return BiasConfig(wl_kind, wl_v, wl_r, bl_kind, bl_v, bl_r)


# Data patterns ----------------------------------------------------------------

def random_pattern(rows: int, cols: int, rng: np.random.Generator, p_lrs: float = 0.5) -> np.ndarray:
    """I.i.d. Bernoulli(p_lrs) stored bits (1 = LRS)."""
    return (rng.random((rows, cols)) < p_lrs).astype(np.int8)


def check_pattern(spec: CrossbarSpec, pattern: np.ndarray) -> np.ndarray:
    pattern = np.asarray(pattern)
    if pattern.shape != (spec.rows, spec.cols):
        raise ValueError(
            f"pattern shape {pattern.shape} does not match array {spec.rows}x{spec.cols}"
        )
    if not np.isin(pattern, (0, 1)).all():
        raise ValueError("pattern entries must be 0 or 1")
    return pattern.astype(np.int8)


# Network ---------------------------------------------------------------------

@dataclass(frozen=True)
class LineAttachment:
    """How one line end is tied to the boundary (one entry of ``LineAttachments``)."""

    kind: int  # TERM_FLOATING / TERM_DIRECT / TERM_RESISTIVE
    attach_node: int  # rail node at the line end
    terminal_node: int = -1  # fixed source node (TERM_RESISTIVE only)
    conductance: float = 0.0  # series branch conductance (TERM_RESISTIVE only)
    voltage: float = np.nan  # source/clamp potential (NaN when floating)

    @property
    def control_node(self) -> int:
        """Node whose net current is the line's boundary current: the
        terminal of a series branch, else the line end itself."""
        return self.terminal_node if self.kind == TERM_RESISTIVE else self.attach_node


@dataclass(frozen=True, eq=False)
class LineAttachments:
    """How one end of every line in a set is tied to the boundary, one
    array entry per line; the fields are those of ``LineAttachment``, which
    ``self[k]`` returns for line k."""

    kind: np.ndarray
    attach_node: np.ndarray
    terminal_node: np.ndarray
    conductance: np.ndarray
    voltage: np.ndarray

    def __len__(self) -> int:
        return self.kind.size

    def __getitem__(self, k: int) -> LineAttachment:
        return LineAttachment(
            int(self.kind[k]), int(self.attach_node[k]), int(self.terminal_node[k]),
            float(self.conductance[k]), float(self.voltage[k]),
        )

    @property
    def control_node(self) -> np.ndarray:
        """Per line, the node whose net current is the line's boundary
        current: the terminal of a series branch, else the line end."""
        return np.where(self.kind == TERM_RESISTIVE, self.terminal_node, self.attach_node)


@dataclass(frozen=True)
class Network:
    """Node-branch description of one biased crossbar.

    Node order: wordline rail nodes, then bitline rail nodes, then the
    terminal nodes of resistive attachments (near wordline ends, far
    wordline ends, then bitlines, each in line order).  With wires
    (``r_wire > 0``) the rail nodes of each set are cell-major, so node
    ``i * N + j`` is cell (i, j)'s wordline node and ``M * N + i * N + j``
    its bitline node; with ideal wires node i is wordline i and ``M + j``
    bitline j.  The ``wire_*`` arrays list the wordline segments
    ``(i, j)-(i, j+1)`` cell-major, then the bitline segments
    ``(i, j)-(i+1, j)`` cell-major, all of conductance ``1 / r_wire``
    (none with ideal wires), then one boundary resistor per resistive
    attachment, from its line end to its terminal node, in terminal-node
    order.  The ``dev_*`` arrays hold one device per cell, cell-major, from
    its wordline node to its bitline node.  ``solver.node_imbalance``
    relies on this order.
    """

    spec: CrossbarSpec
    pattern: np.ndarray
    cells: CellGrid
    bias: BiasConfig  # the per-line boundary conditions it was built from
    active_params: np.ndarray  # (M, N) device parameter of each stored state
    n_nodes: int
    fixed_mask: np.ndarray
    fixed_voltage: np.ndarray
    wire_a: np.ndarray
    wire_b: np.ndarray
    wire_g: np.ndarray
    dev_a: np.ndarray
    dev_b: np.ndarray
    wl_nodes: np.ndarray  # (M, N) wordline rail node per cell
    bl_nodes: np.ndarray  # (M, N) bitline rail node per cell
    wl_attach: LineAttachments  # decoder (column 0) end of each wordline
    bl_attach: LineAttachments  # sense (row M-1) end of each bitline
    # far (column N-1) end of each wordline: attached under double-sided
    # clamping of a driven or clamped line, TERM_FLOATING otherwise
    wl_attach_far: LineAttachments

    def node_name(self, idx: int) -> str:
        m, n = self.spec.rows, self.spec.cols
        if self.spec.r_wire > 0:
            if idx < m * n:
                return f"wl[{idx // n}].seg[{idx % n}]"
            if idx < 2 * m * n:
                k = idx - m * n
                return f"bl[{k % n}].seg[{k // n}]"
        else:
            if idx < m:
                return f"wl[{idx}]"
            if idx < m + n:
                return f"bl[{idx - m}]"
        for line, attach, end in (("wl", self.wl_attach, "terminal"),
                                  ("wl", self.wl_attach_far, "terminal_far"),
                                  ("bl", self.bl_attach, "terminal")):
            hit = np.flatnonzero(attach.terminal_node == idx)
            if hit.size:
                return f"{line}[{hit[0]}].{end}"
        return f"node[{idx}]"


def build_network(
    spec: CrossbarSpec,
    pattern: np.ndarray,
    cells: CellGrid,
    bias: BiasConfig,
) -> Network:
    """Assemble the node-branch network of one biased array.

    Wordline segments chain left to right, bitline segments top to bottom;
    the device of cell (i, j) joins its wordline node to its bitline node.
    Construction is deterministic: identical inputs give identical node
    orderings.  Its cost is a fixed number of array operations, whatever
    the number of lines.
    """
    m, n = spec.rows, spec.cols
    pattern = check_pattern(spec, pattern)
    if cells.shape != (m, n):
        raise ValueError(f"cell grid shape {cells.shape} does not match spec {m}x{n}")
    if bias.wl_kind.size != m or bias.bl_kind.size != n:
        raise ValueError("bias configuration dimensions do not match the array")

    if spec.r_wire > 0:
        wl_nodes = (np.arange(m)[:, None] * n + np.arange(n)[None, :]).astype(np.int64)
        bl_nodes = wl_nodes + m * n
        n_rail = 2 * m * n
        gw = 1.0 / spec.r_wire
        a_w = wl_nodes[:, :-1].ravel()
        b_w = wl_nodes[:, 1:].ravel()
        a_b = bl_nodes[:-1, :].ravel()
        b_b = bl_nodes[1:, :].ravel()
        wire_a = [a_w, a_b]
        wire_b = [b_w, b_b]
        wire_g = [np.full(a_w.size, gw), np.full(a_b.size, gw)]
    else:
        wl_nodes = np.broadcast_to(np.arange(m, dtype=np.int64)[:, None], (m, n)).copy()
        bl_nodes = np.broadcast_to((m + np.arange(n, dtype=np.int64))[None, :], (m, n)).copy()
        n_rail = m + n
        wire_a, wire_b, wire_g = [], [], []

    # Every line end, in terminal order: near wordline ends, far wordline
    # ends (double-sided clamping repeats drives and clamps there, not
    # loads), then bitline ends.
    if spec.double_sided_clamps and n > 1:
        far_kind = np.where(bias.wl_kind == BIAS_LOAD, BIAS_FLOATING, bias.wl_kind)
    else:
        far_kind = np.full(m, BIAS_FLOATING)
    node = np.concatenate([wl_nodes[:, 0], wl_nodes[:, n - 1], bl_nodes[m - 1, :]])
    kind = np.concatenate([bias.wl_kind, far_kind, bias.bl_kind])
    v = np.concatenate([bias.wl_v, bias.wl_v, bias.bl_v])
    r = np.concatenate([bias.wl_r, bias.wl_r, bias.bl_r])
    voltage = np.where(kind == BIAS_FLOATING, np.nan, v)
    source = (kind == BIAS_DRIVE) | (kind == BIAS_CLAMP)
    if spec.r_driver == 0:
        direct, resistive, g = source, kind == BIAS_LOAD, 1.0 / r
    else:
        direct = np.zeros(kind.size, dtype=bool)
        resistive = kind != BIAS_FLOATING
        g = np.where(source, 1.0 / spec.r_driver, 1.0 / r)
    terminal = np.where(resistive, n_rail + np.cumsum(resistive) - 1, -1)
    n_nodes = n_rail + int(resistive.sum())

    fixed_mask = np.zeros(n_nodes, dtype=bool)
    fixed_voltage = np.full(n_nodes, np.nan)
    fixed_mask[node[direct]] = True
    fixed_voltage[node[direct]] = voltage[direct]
    fixed_mask[n_rail:] = True
    fixed_voltage[n_rail:] = voltage[resistive]
    wire_a.append(node[resistive])
    wire_b.append(terminal[resistive])
    wire_g.append(g[resistive])

    term = np.select([direct, resistive], [TERM_DIRECT, TERM_RESISTIVE], TERM_FLOATING)
    fields = (term.astype(np.int8), node, terminal, np.where(resistive, g, 0.0), voltage)
    for arr in fields:
        arr.setflags(write=False)
    bounds = (0, m, 2 * m, 2 * m + n)
    wl_attach, wl_attach_far, bl_attach = (
        LineAttachments(*(f[lo:hi] for f in fields)) for lo, hi in zip(bounds, bounds[1:])
    )

    net = Network(
        spec=spec,
        pattern=pattern,
        cells=cells,
        bias=bias,
        active_params=cells.active_params(pattern),
        n_nodes=n_nodes,
        fixed_mask=fixed_mask,
        fixed_voltage=fixed_voltage,
        wire_a=np.concatenate(wire_a),
        wire_b=np.concatenate(wire_b),
        wire_g=np.concatenate(wire_g),
        dev_a=wl_nodes.ravel().copy(),
        dev_b=bl_nodes.ravel().copy(),
        wl_nodes=wl_nodes,
        bl_nodes=bl_nodes,
        wl_attach=wl_attach,
        bl_attach=bl_attach,
        wl_attach_far=wl_attach_far,
    )
    for arr in (net.fixed_mask, net.fixed_voltage, net.wire_a, net.wire_b, net.wire_g,
                net.dev_a, net.dev_b, net.wl_nodes, net.bl_nodes, net.pattern, net.active_params):
        arr.setflags(write=False)
    return net
