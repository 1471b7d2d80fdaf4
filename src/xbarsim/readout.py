"""Read schemes: one-cycle row readout plus the baseline reads it is
compared against (the conventional single-cell read with unselected lines
floating, and floating-bitline and resistive-load row reads), with
threshold classification and error statistics.

Besides the one-shot operations, two session classes reuse a single sparse
factorization across many reads of the same sampled array: row reads share
one matrix for every selected row (only the right-hand side changes; sinh
devices iterate on a frozen flat-start Jacobian with true-residual
verification), and single-cell sweeps take one solve per distinct terminal
line, from which every cell's two-terminal effective resistance follows.
Both factor through ``solver.ReducedSystem``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
# Unused here, but kept: the layer tracer in ``perfbench/layers.py`` wraps
# SuperLU through each traced module's ``spla`` attribute.
import scipy.sparse.linalg as spla  # noqa: F401

from . import solver
from .crossbar import (
    BIAS_CLAMP,
    BIAS_DRIVE,
    FLOATING,
    TERM_FLOATING,
    BiasConfig,
    BiasMismatch,
    Clamp,
    CrossbarSpec,
    Network,
    ResistiveLoad,
    build_network,
    check_pattern,
    conventional_cell_bias,
    line_arrays,
    row_read_bias,
)
from .devices import LRS, CellGrid, DeviceParams, ideal_state_currents
from .solver import (
    ReducedSystem,
    SolverConvergenceError,
    bitline_currents,
    branch_currents_at,
    node_imbalance,
    solve,
    solve_nonlinear,
)

_CHORD_MAX_ITERS = 80
_BATCH_TARGET_FLOATS = 16_000_000  # ~128 MB per batched dense block


class SchemeKind(Enum):
    ROW_READOUT = "row-readout"
    CONVENTIONAL = "conventional"
    FLOATING_BITLINES = "floating-bitlines"
    RESISTIVE_LOAD = "resistive-load"


@dataclass(frozen=True)
class ReadResult:
    """Sensed values of one row read, classified against a threshold.

    ``sensed`` holds currents (unit 'A') for current-sensing schemes and
    bitline voltages (unit 'V') for the floating / resistive-load baselines.
    """

    row: int
    columns: np.ndarray
    sensed: np.ndarray
    unit: str
    threshold: float
    classified_bits: np.ndarray
    true_bits: np.ndarray

    @property
    def n_errors(self) -> int:
        return int((self.classified_bits != self.true_bits).sum())

    def csv_rows(self):
        """Rows of (row, col, true_bit, sensed value, read_bit)."""
        for k, col in enumerate(self.columns):
            yield (self.row, int(col), int(self.true_bits[k]),
                   float(self.sensed[k]), int(self.classified_bits[k]))


def midpoint_threshold(spec: CrossbarSpec, base: DeviceParams) -> float:
    """Geometric mean of the ideal LRS and HRS read currents at v_dd - v_b.

    The state currents sit roughly three decades apart, so the log-scale
    midpoint is the natural decision level; the arithmetic mean would sit
    next to the LRS current.
    """
    i_lrs, i_hrs = ideal_state_currents(base, spec.v_dd - spec.v_b)
    return float(np.sqrt(i_lrs * i_hrs))


def classify(values: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold decision with the LRS=1 convention (value >= threshold -> 1)."""
    return (np.asarray(values) >= threshold).astype(np.int8)


def best_threshold_ber(lrs_values, hrs_values) -> tuple[float, float]:
    """Exhaustive scan of candidate thresholds minimizing the balanced error.

    Candidates are the midpoints between adjacent distinct pooled values
    plus sentinels outside the range; classification is value >= t -> LRS.
    The error is the mean of the two per-state error rates, so a biased
    stored pattern does not skew the result.
    """
    lrs = np.sort(np.asarray(lrs_values, dtype=float))
    hrs = np.sort(np.asarray(hrs_values, dtype=float))
    if lrs.size == 0 or hrs.size == 0:
        raise ValueError("both state populations must be nonempty")
    pooled = np.unique(np.concatenate([lrs, hrs]))
    mids = (pooled[:-1] + pooled[1:]) / 2.0 if pooled.size > 1 else np.empty(0)
    candidates = np.concatenate([[pooled[0] - 1.0], mids, [pooled[-1] + 1.0]])
    # error(t) = 0.5 * (P[lrs < t] + P[hrs >= t])
    miss_lrs = np.searchsorted(lrs, candidates, side="left") / lrs.size
    miss_hrs = 1.0 - np.searchsorted(hrs, candidates, side="left") / hrs.size
    ber = 0.5 * (miss_lrs + miss_hrs)
    k = int(np.argmin(ber))
    return float(candidates[k]), float(ber[k])


def split_by_state(values: np.ndarray, true_bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values)
    true_bits = np.asarray(true_bits)
    return values[true_bits == LRS], values[true_bits != LRS]


def _auto_voltage_threshold(values: np.ndarray, true_bits: np.ndarray) -> float:
    """Fallback decision level for voltage reads: best split of this read's
    own labeled values (a single open-circuit level has no per-cell ideal)."""
    lrs, hrs = split_by_state(values, true_bits)
    if lrs.size == 0:
        return float(np.max(values)) + 1.0
    if hrs.size == 0:
        return float(np.min(values)) - 1.0
    return best_threshold_ber(lrs, hrs)[0]


def _make_result(row, sensed, unit, threshold, true_bits, columns=None) -> ReadResult:
    sensed = np.asarray(sensed, dtype=float)
    if columns is None:
        columns = np.arange(sensed.size)
    if threshold is None:
        threshold = _auto_voltage_threshold(sensed, true_bits)
    return ReadResult(
        row=row,
        columns=np.asarray(columns),
        sensed=sensed,
        unit=unit,
        threshold=float(threshold),
        classified_bits=classify(sensed, threshold),
        true_bits=np.asarray(true_bits, dtype=np.int8),
    )


def read_row(
    spec: CrossbarSpec,
    cells: CellGrid,
    pattern: np.ndarray,
    i: int,
    mismatch: BiasMismatch | None = None,
    threshold: float | None = None,
) -> ReadResult:
    """One-cycle row read: solve the biased network once and collect all N
    bitline currents.  The bias does not depend on the bank (per-line
    mismatch offsets apply to every clamp of the affected line), so one
    solve serves every bank."""
    pattern = check_pattern(spec, pattern)
    if threshold is None:
        threshold = midpoint_threshold(spec, cells.base)
    net = build_network(spec, pattern, cells, row_read_bias(spec, i, mismatch))
    currents = bitline_currents(net, solve(net))
    return _make_result(i, currents, "A", threshold, pattern[i])


def read_cell_conventional(
    spec: CrossbarSpec,
    cells: CellGrid,
    pattern: np.ndarray,
    i: int,
    j: int,
) -> float:
    """Single-cell read current (main path plus sneak paths) with the
    selected wordline driven, the selected bitline grounded, and the other
    lines floating."""
    net = build_network(spec, pattern, cells, conventional_cell_bias(spec, i, j))
    sol = solve(net)
    return float(bitline_currents(net, sol, columns=[j])[0])


def _voltage_row_bias(spec: CrossbarSpec, i: int, term) -> BiasConfig:
    """Row i driven, other wordlines clamped to v_b, every bitline given ``term``."""
    wl_kind, wl_v, wl_r = line_arrays(spec.rows, Clamp(spec.v_b))
    wl_kind[i], wl_v[i] = BIAS_DRIVE, spec.v_dd
    return BiasConfig(wl_kind, wl_v, wl_r, *line_arrays(spec.cols, term))


def read_row_floating(
    spec: CrossbarSpec,
    cells: CellGrid,
    pattern: np.ndarray,
    i: int,
    threshold: float | None = None,
) -> ReadResult:
    """Row drive with open bitlines; senses the open-circuit voltage at the
    sense end of each bitline."""
    pattern = check_pattern(spec, pattern)
    net = build_network(spec, pattern, cells, _voltage_row_bias(spec, i, FLOATING))
    sol = solve(net)
    sense_nodes = net.bl_nodes[spec.rows - 1, :]
    voltages = sol.node_voltages[sense_nodes]
    return _make_result(i, voltages, "V", threshold, pattern[i])


def read_row_resistive(
    spec: CrossbarSpec,
    cells: CellGrid,
    pattern: np.ndarray,
    i: int,
    r_s: float,
    to: float = 0.0,
    threshold: float | None = None,
) -> ReadResult:
    """Row drive with a sense resistor r_s from each bitline to ``to``;
    senses the voltage developed across each resistor."""
    pattern = check_pattern(spec, pattern)
    net = build_network(spec, pattern, cells, _voltage_row_bias(spec, i, ResistiveLoad(r_s, to)))
    sol = solve(net)
    voltages = sol.node_voltages[net.bl_attach.attach_node] - to
    return _make_result(i, voltages, "V", threshold, pattern[i])


# Factorization-reuse sessions --------------------------------------------------


def _batch_columns(n_nodes: int, requested: int) -> int:
    return max(1, min(requested, _BATCH_TARGET_FLOATS // max(n_nodes, 1)))


def _line_voltages(net: Network, wl_v: np.ndarray, bl_v: np.ndarray) -> np.ndarray:
    """Node-voltage matrix with every line's control node set from its row
    of ``wl_v`` (wordlines x solves) or ``bl_v`` (bitlines x solves), both
    ends of a double-sided wordline alike, and zeros elsewhere."""
    V = np.zeros((net.n_nodes, wl_v.shape[1]))
    V[net.wl_attach.control_node] = wl_v
    far = net.wl_attach_far
    on = far.kind != TERM_FLOATING
    V[far.control_node[on]] = wl_v[on]
    V[net.bl_attach.control_node] = bl_v
    return V


class RowReadSession:
    """Row readout of one sampled array with a single factorization.

    The fixed-node set of the row-read bias does not depend on the selected
    row, so one ``ReducedSystem`` factorized at the flat start (all lines at
    the hold voltage) serves every row.  Ohmic rows are solved and refined
    by it directly, many rows per batch.  Sinh rows iterate on that frozen
    Jacobian against the true KCL residual until ``solver.KCL_TOL``, with a
    per-row exact Newton fallback if the iteration stalls.
    """

    def __init__(
        self,
        spec: CrossbarSpec,
        cells: CellGrid,
        pattern: np.ndarray,
        mismatch: BiasMismatch | None = None,
    ):
        self.spec = spec
        self.cells = cells
        self.pattern = check_pattern(spec, pattern)
        self.mismatch = mismatch if mismatch is not None else BiasMismatch.zeros(spec)
        self.net = build_network(spec, self.pattern, cells, row_read_bias(spec, 0, self.mismatch))
        self.system = ReducedSystem(self.net)
        self.system.factor(cells.active_conductances(self.pattern))
        self._bl_ctrl = self.net.bl_attach.control_node

    def solve_rows(self, rows, v_b: float | None = None) -> np.ndarray:
        """Full node-voltage matrix (n_nodes x len(rows)), one column per row read.

        ``v_b`` overrides the session hold voltage; the factorized matrix
        does not depend on the bias values, so the override is free.
        """
        rows = list(rows)
        v_b = self.spec.v_b if v_b is None else v_b
        k = np.arange(len(rows))
        wl_v = np.repeat((v_b + self.mismatch.wordline_dv)[:, None], len(rows), axis=1)
        wl_v[rows, k] = self.spec.v_dd
        bl_v = np.repeat((v_b + self.mismatch.bitline_dv)[:, None], len(rows), axis=1)
        V = _line_voltages(self.net, wl_v, bl_v)
        if self.cells.is_linear:
            return self.system.solve(V)[0]
        return self._solve_rows_chord(rows, V, v_b)

    def _solve_rows_chord(self, rows, V: np.ndarray, v_b: float) -> np.ndarray:
        system = self.system
        V[system.unknown] = v_b
        F = system.imbalance(V)
        active = np.arange(V.shape[1])
        last = np.inf
        for it in range(_CHORD_MAX_ITERS):
            res_cols = np.abs(F).max(axis=0) if F.size else np.zeros(len(active))
            keep = res_cols > solver.KCL_TOL
            if not keep.any():
                return V
            active = active[keep]
            F = F[:, keep]
            worst = res_cols[keep].max()
            if it > 6 and worst > 0.5 * last:
                break  # frozen-Jacobian iteration stalled; fall back per row
            last = worst
            V[np.ix_(system.unknown, active)] -= system.lu.solve(F)
            F = system.imbalance(V[:, active])
        for c in active:
            net = build_network(
                self.spec, self.pattern, self.cells, row_read_bias(self.spec, rows[c], self.mismatch)
            )
            V[:, c] = solve_nonlinear(net).node_voltages
        return V

    def bitline_currents_from(self, V: np.ndarray) -> np.ndarray:
        """Per-column sense currents for each solved column of V (cols x N)."""
        return -node_imbalance(self.net, V)[self._bl_ctrl].T

    def branch_power_from(self, V: np.ndarray) -> np.ndarray:
        """Total branch dissipation of each solved column of V (watts)."""
        dv = self.net.incidence.T @ V
        return (dv * branch_currents_at(self.net, dv)).sum(axis=0)

    def row_currents(self, rows) -> np.ndarray:
        rows = list(rows)
        out = np.empty((len(rows), self.spec.cols))
        step = _batch_columns(self.net.n_nodes, len(rows))
        for s in range(0, len(rows), step):
            chunk = rows[s:s + step]
            V = self.solve_rows(chunk)
            out[s:s + len(chunk)] = self.bitline_currents_from(V)
        return out

    def current_map(self) -> np.ndarray:
        """Sensed current of every cell: row i of the map is the row-i read."""
        return self.row_currents(range(self.spec.rows))

    def read_row_result(self, i: int, threshold: float | None = None) -> ReadResult:
        if threshold is None:
            threshold = midpoint_threshold(self.spec, self.cells.base)
        currents = self.row_currents([i])[0]
        return _make_result(i, currents, "A", threshold, self.pattern[i])


class ConventionalSession:
    """Batched single-cell conventional reads on one sampled linear array,
    unselected lines floating.

    The read reduces to the two-terminal effective resistance between the
    driven wordline end p and the sensed bitline end q,
    R(p, q) = Z_pp + Z_qq - Z_pq - Z_qp, where Z is the inverse of the
    interior Laplacian grounded at the last bitline's sense end, restricted
    to the line terminals (Klein & Randic, J. Math. Chem. 12, 1993).  The
    session network's only fixed node is that ground, so the grounded
    Laplacian is the unknown block of its ``ReducedSystem``.  One
    factorization and one back-substitution per distinct wordline and
    bitline answer every cell (one per cell when the terminals outnumber a
    batch or the cells).  The branch-form residual of those solves corrects
    each resistance and, scaled by the cell's current, is checked against
    ``solver.KCL_TOL``.
    """

    def __init__(self, spec: CrossbarSpec, cells: CellGrid, pattern: np.ndarray):
        if not cells.is_linear:
            raise TypeError(
                "ConventionalSession supports linear devices; use "
                "read_cell_conventional for sinh devices"
            )
        if spec.double_sided_clamps:
            raise ValueError(
                "ConventionalSession's effective-resistance path assumes a "
                "single-ended drive; use read_cell_conventional for "
                "double-sided specs"
            )
        self.spec = spec
        self.cells = cells
        self.pattern = check_pattern(spec, pattern)
        # The two drivers add 2 r_driver in series with R(p, q).
        bl_kind, bl_v, bl_r = line_arrays(spec.cols, FLOATING)
        bl_kind[-1], bl_v[-1] = BIAS_CLAMP, 0.0
        bias = BiasConfig(*line_arrays(spec.rows, FLOATING), bl_kind, bl_v, bl_r)
        self.net = build_network(dataclasses.replace(spec, r_driver=0.0), self.pattern, cells, bias)
        self.system = ReducedSystem(self.net)
        self.system.factor(cells.active_conductances(self.pattern))
        # Unknown-vector positions of each wordline's driven end and each
        # bitline's sense end; -1 marks the ground.
        unknown = self.system.unknown
        self._p = np.searchsorted(unknown, self.net.wl_nodes[:, 0])
        self._q = np.searchsorted(unknown, self.net.bl_nodes[spec.rows - 1, :])
        self._q[-1] = -1

    def currents(self, cells_ij) -> np.ndarray:
        """Sensed current for each (i, j) target: one solved column per
        distinct terminal when the terminals fit one batch and number no
        more than the cells (a cell's two columns must share a batch), else
        one column per cell."""
        cells_ij = list(cells_ij)
        if not cells_ij:
            return np.empty(0)
        ii, jj = (np.array(x, dtype=np.int64) for x in zip(*cells_ij))
        p, q = self._p[ii], self._q[jj]
        p_terms, q_terms = np.unique(p), np.unique(q[q >= 0])
        n_p, n_t = p_terms.size, p_terms.size + q_terms.size
        step = _batch_columns(self.net.n_nodes, len(cells_ij))
        if n_t <= step:
            a = np.searchsorted(p_terms, p)
            b = np.where(q >= 0, n_p + np.searchsorted(q_terms, q), n_t)
            r_eff, res = self._pair_resistances(
                np.concatenate([p_terms, q_terms]), np.arange(n_t), np.ones(n_t), n_t, n_p, a, b)
        else:
            r_eff, res = np.empty(len(cells_ij)), np.empty(len(cells_ij))
            for s in range(0, len(cells_ij), step):
                k = np.arange(min(step, len(cells_ij) - s))
                pc, qc = p[s:s + k.size], q[s:s + k.size]
                on = qc >= 0
                rows = np.concatenate([pc, qc[on]])
                cols = np.concatenate([k, k[on]])
                vals = np.concatenate([np.ones(k.size), -np.ones(int(on.sum()))])
                r_eff[s:s + k.size], res[s:s + k.size] = self._pair_resistances(
                    rows, cols, vals, k.size, k.size, k, np.full(k.size, k.size))
        out = self.spec.v_dd / (r_eff + 2.0 * self.spec.r_driver)
        bound = out * res
        worst = int(np.argmax(bound))
        if bound[worst] > solver.KCL_TOL:
            raise SolverConvergenceError(
                f"cell ({ii[worst]}, {jj[worst]}): nodal residual bound "
                f"{bound[worst]:.3e} A exceeds tolerance {solver.KCL_TOL:.1e} A",
                residual=float(bound[worst]), iterations=1,
            )
        return out

    def current(self, i: int, j: int) -> float:
        return float(self.currents([(i, j)])[0])

    def _pair_resistances(self, rows, cols, vals, k, n_a, a, b):
        """Effective resistance of w = e_a - e_b over the k columns of the
        sparse right-hand side B, and a bound on the KCL residual of its
        solution per unit current.  Columns below n_a serve as a, the others
        as b; b == k stands for no column.

        The assembled Laplacian rounds device conductances away where they
        sit beside wire conductances on its diagonal, so X = G^-1 B alone
        gives resistances up to 1.2e-6 relative off (an all-HRS 256x256
        array).  The residual R = E g E'X - B, the system's branch-form
        imbalance, keeps them.  Z = B'X - X'R equals B'G^-1 B but for the
        second-order term R'G^-1 R, so it is symmetric to that order and the
        resistance is w'Zw = Z_aa + Z_bb - 2 Z_ab.  The residual is formed
        one column at a time, in slices of an eighth of a batch, so beside
        its solved block a batch holds one slice.
        """
        system = self.system
        n_red = system.unknown.size
        B = sp.csc_matrix((vals, (rows, cols)), shape=(n_red, k))
        dense = np.zeros((n_red, k))  # pages left untouched stay unmapped
        dense[rows, cols] = vals
        X = system.lu.solve(dense)
        del dense
        touched = np.unique(rows)
        S = B[touched].T @ X[touched]
        z_diag = np.zeros(k + 1)
        z_diag[:k] = np.diagonal(S)
        z_cross = np.zeros((n_a, k - n_a + 1))
        z_cross[:, :-1] = S[:n_a, n_a:]
        res = np.zeros(k + 1)
        x = np.zeros(self.net.n_nodes)  # the ground stays at zero
        width = _batch_columns(8 * n_red, k)
        for s in range(0, k, width):
            c = slice(s, min(s + width, k))
            # column by column: one vector at a time runs faster than a few
            R = np.empty((n_red, c.stop - s), order="F")
            for t in range(s, c.stop):
                x[system.unknown] = X[:, t]
                R[:, t - s] = system.imbalance(x)
            Bc = B[:, c].tocoo()
            R[Bc.row, Bc.col] -= Bc.data
            z_diag[c] -= np.einsum("ij,ij->j", X[:, c], R)
            if c.stop > n_a:
                lo = max(s, n_a)
                z_cross[:, lo - n_a:c.stop - n_a] -= X[:, :n_a].T @ R[:, lo - s:]
            res[c] = np.abs(R, out=R).max(axis=0)
        return z_diag[a] + z_diag[b] - 2.0 * z_cross[a, b - n_a], res[a] + res[b]
