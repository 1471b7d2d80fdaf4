"""Read schemes: one-cycle row readout plus the baseline single-cell,
floating-bitline, and resistive-load reads, with threshold classification
and error statistics.

Besides the one-shot operations, two session classes reuse a single sparse
factorization across many reads of the same sampled array: row reads share
one matrix for every selected row (only the right-hand side changes; sinh
devices iterate on a frozen flat-start Jacobian with true-residual
verification), and single-cell sweeps with floating unselected lines take
one solve per distinct terminal line, from which every cell's two-terminal
effective resistance follows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import solver
from .crossbar import (
    BIAS_DRIVE,
    FLOATING,
    TERM_FLOATING,
    BiasConfig,
    BiasMismatch,
    Clamp,
    CrossbarSpec,
    Floating,
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
    assemble_admittance,
    bitline_currents,
    branch_currents_at,
    check_grounded,
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

    @property
    def error_positions(self) -> np.ndarray:
        return self.columns[self.classified_bits != self.true_bits]

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
    unselected=FLOATING,
) -> float:
    """Single-cell read current (main path plus sneak paths) with the
    selected wordline driven, the selected bitline grounded, and the other
    lines terminated per ``unselected``."""
    net = build_network(spec, pattern, cells, conventional_cell_bias(spec, i, j, unselected))
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
    """Batched single-cell conventional reads on one sampled linear array.

    With unselected lines floating, the read reduces to the two-terminal
    effective resistance between the driven wordline end p and the grounded
    bitline end q, R(p, q) = Z_pp + Z_qq - Z_pq - Z_qp, where Z is the
    inverse of the grounded interior Laplacian restricted to the line
    terminals (Klein & Randic, J. Math. Chem. 12, 1993).  One factorization
    and one back-substitution per distinct wordline and bitline answer
    every cell (one per cell when the terminals outnumber a batch or the
    cells).  The branch-form residual of those solves corrects each
    resistance and, scaled by the cell's current, is checked against
    ``solver.KCL_TOL``.  With unselected lines clamped, the fixed-node set
    is cell-independent, so one ``ReducedSystem`` solves and refines every
    cell's bias as one batch.
    """

    def __init__(
        self,
        spec: CrossbarSpec,
        cells: CellGrid,
        pattern: np.ndarray,
        unselected=FLOATING,
    ):
        if not cells.is_linear:
            raise TypeError(
                "ConventionalSession supports linear devices; use "
                "read_cell_conventional for sinh devices"
            )
        if not isinstance(unselected, (Floating, Clamp)):
            raise TypeError("unselected termination must be Floating or Clamp")
        self.spec = spec
        self.cells = cells
        self.pattern = check_pattern(spec, pattern)
        self.unselected = unselected

        self._floating = isinstance(unselected, Floating)
        if self._floating and spec.double_sided_clamps:
            raise ValueError(
                "ConventionalSession's effective-resistance path assumes a "
                "single-ended drive; use read_cell_conventional for "
                "double-sided specs"
            )
        base_spec = dataclasses.replace(spec, r_driver=0.0) if self._floating else spec
        bias = conventional_cell_bias(base_spec, 0, 0, unselected)
        self.net = build_network(base_spec, self.pattern, cells, bias)
        g_dev = cells.active_conductances(self.pattern)
        self._p_nodes = self.net.wl_nodes[:, 0]
        self._q_nodes = self.net.bl_nodes[spec.rows - 1, :]
        if self._floating:
            # Ground the interior Laplacian at the last bitline's sense end;
            # queries touching the ground node drop that unit entry.
            check_grounded(self.net)
            G = assemble_admittance(self.net, g_dev)
            self._ground = int(self._q_nodes[-1])
            keep = np.ones(self.net.n_nodes, dtype=bool)
            keep[self._ground] = False
            self._keep_index = np.cumsum(keep) - 1
            self._lu = spla.splu(G[keep][:, keep].tocsc())
            # branch ends and conductances in incidence order: wires, then devices
            self._branch_a = np.concatenate([self.net.wire_a, self.net.dev_a])
            self._branch_b = np.concatenate([self.net.wire_b, self.net.dev_b])
            self._branch_g = np.concatenate([self.net.wire_g, g_dev.ravel()])
        else:
            self.system = ReducedSystem(self.net)
            self.system.factor(g_dev)
            self._bl_ctrl = self.net.bl_attach.control_node

    def currents(self, cells_ij) -> np.ndarray:
        """Sensed current for each (i, j) target, batched."""
        cells_ij = list(cells_ij)
        if self._floating:
            return self._currents_floating(cells_ij)
        out = np.empty(len(cells_ij))
        step = _batch_columns(self.net.n_nodes, len(cells_ij))
        for s in range(0, len(cells_ij), step):
            chunk = cells_ij[s:s + step]
            out[s:s + len(chunk)] = self._currents_clamped(chunk)
        return out

    def current(self, i: int, j: int) -> float:
        return float(self.currents([(i, j)])[0])

    def _currents_floating(self, cells_ij) -> np.ndarray:
        """Effective-resistance currents: one solved column per distinct
        terminal when the terminals fit one batch and number no more than
        the cells (a cell's two columns must share a batch), else one
        column per cell."""
        if not cells_ij:
            return np.empty(0)
        ii, jj = (np.array(x, dtype=np.int64) for x in zip(*cells_ij))
        p = self._keep_index[self._p_nodes[ii]]
        q_nodes = self._q_nodes[jj]
        q = np.where(q_nodes == self._ground, -1, self._keep_index[q_nodes])
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

    def _pair_resistances(self, rows, cols, vals, k, n_a, a, b):
        """Effective resistance of w = e_a - e_b over the k columns of the
        sparse right-hand side B, and a bound on the KCL residual of its
        solution per unit current.  Columns below n_a serve as a, the others
        as b; b == k stands for no column.

        The assembled Laplacian rounds device conductances away where they
        sit beside wire conductances on its diagonal, so X = G^-1 B alone
        gives resistances up to 1.2e-6 relative off (an all-HRS 256x256
        array).  The residual R = E g E'X - B, formed from branch voltage
        differences (incidence E, branch conductances g), keeps them.
        Z = B'X - X'R equals B'G^-1 B but for the second-order term
        R'G^-1 R, so it is symmetric to that order and the resistance is
        w'Zw = Z_aa + Z_bb - 2 Z_ab.  The residual is formed from the
        branch end nodes, the ground held at zero, in slices of an eighth of
        a batch, so beside its solved block a batch holds one slice and the
        session no incidence matrix.
        """
        ends_a, ends_b, g0 = self._branch_a, self._branch_b, self._ground
        n_red = self.net.n_nodes - 1
        B = sp.csc_matrix((vals, (rows, cols)), shape=(n_red, k))
        dense = np.zeros((n_red, k))  # pages left untouched stay unmapped
        dense[rows, cols] = vals
        X = self._lu.solve(dense)
        del dense
        touched = np.unique(rows)
        S = B[touched].T @ X[touched]
        z_diag = np.zeros(k + 1)
        z_diag[:k] = np.diagonal(S)
        z_cross = np.zeros((n_a, k - n_a + 1))
        z_cross[:, :-1] = S[:n_a, n_a:]
        res = np.zeros(k + 1)
        x = np.zeros(n_red + 1)
        width = _batch_columns(8 * n_red, k)
        for s in range(0, k, width):
            c = slice(s, min(s + width, k))
            # column by column: one vector at a time runs faster than a few
            R = np.empty((n_red, c.stop - s), order="F")
            for t in range(s, c.stop):
                x[:g0], x[g0 + 1:] = X[:g0, t], X[g0:, t]
                branch_i = x[ends_a] - x[ends_b]
                branch_i *= self._branch_g
                r = np.bincount(ends_a, branch_i, n_red + 1)
                r -= np.bincount(ends_b, branch_i, n_red + 1)
                R[:g0, t - s], R[g0:, t - s] = r[:g0], r[g0 + 1:]
            Bc = B[:, c].tocoo()
            R[Bc.row, Bc.col] -= Bc.data
            z_diag[c] -= np.einsum("ij,ij->j", X[:, c], R)
            if c.stop > n_a:
                lo = max(s, n_a)
                z_cross[:, lo - n_a:c.stop - n_a] -= X[:, :n_a].T @ R[:, lo - s:]
            res[c] = np.abs(R, out=R).max(axis=0)
        return z_diag[a] + z_diag[b] - 2.0 * z_cross[a, b - n_a], res[a] + res[b]

    def _currents_clamped(self, chunk) -> np.ndarray:
        ii, jj = (np.array(x, dtype=np.int64) for x in zip(*chunk))
        k = np.arange(len(chunk))
        wl_v = np.full((self.spec.rows, len(chunk)), self.unselected.v)
        wl_v[ii, k] = self.spec.v_dd
        bl_v = np.full((self.spec.cols, len(chunk)), self.unselected.v)
        bl_v[jj, k] = 0.0
        V, _ = self.system.solve(_line_voltages(self.net, wl_v, bl_v))
        return -node_imbalance(self.net, V)[self._bl_ctrl[jj], k]
