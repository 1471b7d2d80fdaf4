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

    @property
    def n_bank_cols(self) -> int:
        return self.cols if self.bank_width is None else self.bank_width

    @property
    def n_banks(self) -> int:
        return self.cols // self.n_bank_cols


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


@dataclass(frozen=True)
class BiasConfig:
    """Per-line boundary conditions of one read configuration."""

    wordline_sources: tuple[WordlineSource, ...]
    bitline_terms: tuple[BitlineTermination, ...]

    def __post_init__(self):
        anchored = any(not isinstance(s, Floating) for s in self.wordline_sources)
        anchored = anchored or any(not isinstance(t, Floating) for t in self.bitline_terms)
        if not anchored:
            raise ValueError("bias configuration leaves every line floating (ungrounded network)")


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
    wordlines = tuple(
        Drive(spec.v_dd) if i == selected_row else Clamp(spec.v_b + float(wl_dv[i]))
        for i in range(spec.rows)
    )
    bitlines = tuple(Clamp(spec.v_b + float(bl_dv[j])) for j in range(spec.cols))
    return BiasConfig(wordlines, bitlines)


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
    wordlines = tuple(Drive(spec.v_dd) if r == i else unselected for r in range(spec.rows))
    bitlines = tuple(Clamp(0.0) if c == j else unselected for c in range(spec.cols))
    return BiasConfig(wordlines, bitlines)


@dataclass(frozen=True)
class Bank:
    index: int
    col_start: int
    col_stop: int  # half-open

    @property
    def columns(self) -> range:
        return range(self.col_start, self.col_stop)


def bank_partition(spec: CrossbarSpec) -> list[Bank]:
    """Split the N columns into R contiguous banks of bank_width columns."""
    n = spec.n_bank_cols
    return [Bank(b, b * n, (b + 1) * n) for b in range(spec.n_banks)]


# Data patterns ----------------------------------------------------------------

_PATTERN_MAGIC = b"XBP1"


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


def save_pattern_ascii(path, pattern: np.ndarray) -> None:
    with open(path, "w") as f:
        for row in np.asarray(pattern):
            f.write("".join("1" if b else "0" for b in row) + "\n")


def load_pattern_ascii(path) -> np.ndarray:
    rows = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            if set(line) - {"0", "1"}:
                raise ValueError(f"invalid pattern line: {line!r}")
            rows.append([int(c) for c in line])
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("pattern file must be a nonempty rectangular 0/1 grid")
    return np.array(rows, dtype=np.int8)


def save_pattern_packed(path, pattern: np.ndarray) -> None:
    """Binary format: magic 'XBP1', uint32 rows, uint32 cols (little endian),
    then np.packbits of the row-major bit matrix."""
    pattern = np.asarray(pattern, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(_PATTERN_MAGIC)
        f.write(np.array(pattern.shape, dtype="<u4").tobytes())
        f.write(np.packbits(pattern.ravel()).tobytes())


def load_pattern_packed(path) -> np.ndarray:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _PATTERN_MAGIC:
            raise ValueError(f"not a packed pattern file (magic {magic!r})")
        rows, cols = np.frombuffer(f.read(8), dtype="<u4")
        data = np.frombuffer(f.read(), dtype=np.uint8)
    bits = np.unpackbits(data)[: rows * cols]
    return bits.reshape(int(rows), int(cols)).astype(np.int8)


# Network ---------------------------------------------------------------------

@dataclass(frozen=True)
class LineAttachment:
    """How one line end is tied to the boundary."""

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


@dataclass(frozen=True)
class Network:
    """Node-branch description of one biased crossbar.

    Node order: wordline rail nodes, then bitline rail nodes, then any
    terminal nodes appended by resistive attachments.  Branches are wire
    segments plus boundary resistors (``wire_*`` arrays) and one device
    per cell (``dev_*`` arrays, cell-major order).
    """

    spec: CrossbarSpec
    pattern: np.ndarray
    cells: CellGrid
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
    wl_attach: tuple[LineAttachment, ...]
    bl_attach: tuple[LineAttachment, ...]
    # far-end wordline attachments (double-sided clamping only; None otherwise)
    wl_attach_far: tuple[LineAttachment | None, ...] = ()

    @property
    def n_device_branches(self) -> int:
        return self.dev_a.size

    @property
    def n_wire_branches(self) -> int:
        """Wire segments only (boundary series branches excluded)."""
        m, n = self.spec.rows, self.spec.cols
        return 0 if self.spec.r_wire == 0 else m * (n - 1) + (m - 1) * n

    @property
    def n_boundary_attachments(self) -> int:
        attaches = list(self.wl_attach) + list(self.bl_attach)
        attaches += [a for a in self.wl_attach_far if a is not None]
        return sum(1 for a in attaches if a.kind != TERM_FLOATING)

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
        for i, a in enumerate(self.wl_attach):
            if a.terminal_node == idx:
                return f"wl[{i}].terminal"
        for j, a in enumerate(self.bl_attach):
            if a.terminal_node == idx:
                return f"bl[{j}].terminal"
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
    orderings.
    """
    m, n = spec.rows, spec.cols
    pattern = check_pattern(spec, pattern)
    if cells.shape != (m, n):
        raise ValueError(f"cell grid shape {cells.shape} does not match spec {m}x{n}")
    if len(bias.wordline_sources) != m or len(bias.bitline_terms) != n:
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

    fixed_mask = [False] * n_rail
    fixed_voltage = [np.nan] * n_rail
    extra_a: list[int] = []
    extra_b: list[int] = []
    extra_g: list[float] = []
    next_node = n_rail

    def attach(end_node: int, term) -> LineAttachment:
        nonlocal next_node
        if isinstance(term, Floating):
            return LineAttachment(TERM_FLOATING, end_node)
        if isinstance(term, (Drive, Clamp)):
            if spec.r_driver == 0:
                fixed_mask[end_node] = True
                fixed_voltage[end_node] = term.v
                return LineAttachment(TERM_DIRECT, end_node, voltage=term.v)
            g = 1.0 / spec.r_driver
            src = term.v
        elif isinstance(term, ResistiveLoad):
            g = 1.0 / term.r_s
            src = term.to
        else:
            raise TypeError(f"unsupported line attachment: {type(term).__name__}")
        t = next_node
        next_node += 1
        fixed_mask.append(True)
        fixed_voltage.append(src)
        extra_a.append(end_node)
        extra_b.append(t)
        extra_g.append(g)
        return LineAttachment(TERM_RESISTIVE, end_node, terminal_node=t, conductance=g, voltage=src)

    wl_attach = tuple(attach(int(wl_nodes[i, 0]), bias.wordline_sources[i]) for i in range(m))
    if spec.double_sided_clamps and n > 1:
        wl_attach_far = tuple(
            attach(int(wl_nodes[i, n - 1]), bias.wordline_sources[i])
            if isinstance(bias.wordline_sources[i], (Drive, Clamp)) else None
            for i in range(m)
        )
    else:
        wl_attach_far = tuple(None for _ in range(m))
    bl_attach = tuple(attach(int(bl_nodes[m - 1, j]), bias.bitline_terms[j]) for j in range(n))

    if extra_a:
        wire_a.append(np.array(extra_a, dtype=np.int64))
        wire_b.append(np.array(extra_b, dtype=np.int64))
        wire_g.append(np.array(extra_g, dtype=float))

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    net = Network(
        spec=spec,
        pattern=pattern,
        cells=cells,
        n_nodes=next_node,
        fixed_mask=np.array(fixed_mask, dtype=bool),
        fixed_voltage=np.array(fixed_voltage, dtype=float),
        wire_a=cat(wire_a, np.int64),
        wire_b=cat(wire_b, np.int64),
        wire_g=cat(wire_g, float),
        dev_a=wl_nodes.ravel().copy(),
        dev_b=bl_nodes.ravel().copy(),
        wl_nodes=wl_nodes,
        bl_nodes=bl_nodes,
        wl_attach=wl_attach,
        bl_attach=bl_attach,
        wl_attach_far=wl_attach_far,
    )
    for arr in (net.fixed_mask, net.fixed_voltage, net.wire_a, net.wire_b, net.wire_g,
                net.dev_a, net.dev_b, net.wl_nodes, net.bl_nodes, net.pattern):
        arr.setflags(write=False)
    return net
