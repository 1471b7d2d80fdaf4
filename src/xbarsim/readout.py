"""Read schemes: one-cycle row readout plus the baseline reads it is
compared against (the conventional single-cell read with unselected lines
floating, and floating-bitline and resistive-load row reads), with
threshold classification and error statistics.  Every read returns its
sensed values as an array; callers classify them with ``classify`` against
``midpoint_threshold`` or score them with ``best_threshold_ber``.

Two session classes reuse a single sparse factorization across many reads
of the same sampled array.  ``RowReadSession`` serves every row read, with
its bitlines clamped (current sensing), floating or loaded (voltage
sensing): one matrix serves every selected row, and only the right-hand
side changes.  Every clamped row starts at the ideal-rail voltages: a
linear one takes one solve and a KCL check, a sinh one iterates on a frozen
zero-bias Jacobian with true-residual verification.
``ConventionalSession`` takes one solve per distinct terminal line of a
single-cell sweep, from which every cell's two-terminal effective
resistance follows.  Both factor through ``solver.ReducedSystem``.
``read_row`` and ``read_cell_conventional`` solve one read afresh; the
first is the reference that row sessions are checked against.  One-shot
reads and clamped sessions alike sense currents with
``solver.bitline_currents`` of solved node voltages.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import scipy.sparse as sp
# Unused here, but kept: the layer tracer in ``perfbench/layers.py`` wraps
# SuperLU through each traced module's ``spla`` attribute.
import scipy.sparse.linalg as spla  # noqa: F401

from . import solver
from .crossbar import (
    BIAS_CLAMP,
    FLOATING,
    TERM_FLOATING,
    BiasConfig,
    BiasMismatch,
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
    bitline_currents,
    solve,
    solve_nonlinear,
)

_CHORD_MAX_ITERS = 80
# ~128 MB: caps the conventional session's solved wordline-end columns, the
# only ones that outlive their panel (arrays up to about 200x200); row reads
# go ``solver._PANEL`` rows a batch.
_BATCH_TARGET_FLOATS = 16_000_000


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


def read_row(
    spec: CrossbarSpec,
    cells: CellGrid,
    pattern: np.ndarray,
    i: int,
    mismatch: BiasMismatch | None = None,
) -> np.ndarray:
    """One-cycle row read: solve the biased network once and return all N
    bitline currents."""
    pattern = check_pattern(spec, pattern)
    net = build_network(spec, pattern, cells, row_read_bias(spec, i, mismatch))
    return bitline_currents(net, solve(net).node_voltages)


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
    return float(bitline_currents(net, solve(net).node_voltages, columns=[j])[0])


# Factorization-reuse sessions --------------------------------------------------


def _line_voltages(net: Network, wl_v: np.ndarray, bl_v: np.ndarray) -> np.ndarray:
    """Node-voltage matrix with every attached line's control node set from
    its row of ``wl_v`` (wordlines x solves) or ``bl_v`` (bitlines x
    solves), both ends of a double-sided wordline alike, and zeros
    elsewhere."""
    V = np.zeros((net.n_nodes, wl_v.shape[1]))
    V[net.wl_attach.control_node] = wl_v
    for att, v in ((net.wl_attach_far, wl_v), (net.bl_attach, bl_v)):
        on = att.kind != TERM_FLOATING
        V[att.control_node[on]] = v[on]
    return V


class RowReadSession:
    """Row reads of one sampled array with a single factorization.

    Every bitline takes the termination ``bitlines`` (as in
    ``crossbar.row_read_bias``), and the session senses what it gives:
    with ``None`` each bitline is clamped at the hold voltage and senses
    the current into its clamp (the one-cycle row readout, ``unit`` 'A');
    with ``FLOATING`` or a ``ResistiveLoad(r_s, to)`` it senses the voltage
    at its sense end, less ``to`` for a load (the voltage-sensing
    baselines, ``unit`` 'V').  ``row_currents`` and
    ``bitline_currents_from`` return these sensed values.

    The fixed-node set of the bias does not depend on the selected row, so
    one ``ReducedSystem`` factorized at zero device bias serves every row.
    Every row of a clamped session starts with each rail node at its line's
    control-node voltage (the ideal-rail solution), so a correction holds
    only the wire drops.  A linear clamped row then takes one solve and a
    KCL check against ``solver.KCL_TOL``.  Its next correction would be
    6e-16 V (128x128, double-sided) to 7e-14 V (256x256, single-sided),
    above the voltages' rounding floor, yet each sensed node sits next to
    its clamp: after one solve every sensed current is within half a
    *sensing quantum* of the fully refined read (the largest conductance at
    a bitline's control node times one ulp of the largest node voltage,
    2.2e-17 A with 10-ohm wires).  Linear rows of floating or loaded
    bitlines, which have no control voltage to start from, are solved and
    refined by ``ReducedSystem.solve``.  Sinh rows of a clamped session
    iterate from the ideal rail on the frozen Jacobian against the true KCL
    residual until ``solver.KCL_TOL``, with a per-row exact Newton
    fallback, at the same hold voltage, if the iteration stalls.  Sinh rows
    of the other terminations take that Newton solve directly: their
    bitlines couple to the array only through high-resistance cells, so a
    residual of ``KCL_TOL`` still leaves their voltages microvolts off.
    No state carries from one read to the next.

    ``row_currents`` reads ``solver._PANEL`` rows per batch, the width of
    one solve panel, so each residual, iterate and correction stays a few
    MB: a 128-row block of a 128x128 array is 32 MiB, which the campaigns'
    heap settings map and fault in afresh every time.
    """

    def __init__(
        self,
        spec: CrossbarSpec,
        cells: CellGrid,
        pattern: np.ndarray,
        mismatch: BiasMismatch | None = None,
        bitlines: Floating | ResistiveLoad | None = None,
    ):
        self.spec = spec
        self.cells = cells
        self.pattern = check_pattern(spec, pattern)
        self.mismatch = mismatch if mismatch is not None else BiasMismatch.zeros(spec)
        self.bitlines = bitlines
        self.unit = "A" if bitlines is None else "V"
        self._v_ref = bitlines.to if isinstance(bitlines, ResistiveLoad) else 0.0
        self.net = build_network(spec, self.pattern, cells,
                                 row_read_bias(spec, 0, self.mismatch, bitlines))
        self.system = ReducedSystem(self.net)
        if cells.is_linear or bitlines is None:  # else no row uses the factor
            self.system.factor(cells.conductances(self.net.active_params, 0.0))

    def solve_rows(self, rows, v_b: float | None = None) -> np.ndarray:
        """Full node-voltage matrix (n_nodes x len(rows)), one column per row read.

        ``v_b`` overrides the session hold voltage; the factorized matrix
        does not depend on the bias values, so the override is free.
        """
        rows = list(rows)
        for i in rows:
            if not (0 <= i < self.spec.rows):
                raise IndexError(f"row {i} out of range for {self.spec.rows} rows")
        if not rows:
            return np.zeros((self.net.n_nodes, 0))
        v_b = self.spec.v_b if v_b is None else v_b
        k = np.arange(len(rows))
        wl_v = np.repeat((v_b + self.mismatch.wordline_dv)[:, None], len(rows), axis=1)
        wl_v[rows, k] = self.spec.v_dd
        bl = v_b + self.mismatch.bitline_dv if self.bitlines is None else self.net.bias.bl_v
        V = _line_voltages(self.net, wl_v, np.repeat(bl[:, None], len(rows), axis=1))
        if self.bitlines is not None:
            if self.cells.is_linear:
                return self.system.solve(V)[0]
            return self._newton_rows(rows, V, k, v_b)
        self._rail_start(V)
        if not self.cells.is_linear:
            return self._solve_rows_chord(rows, V, v_b)
        # One solve from the ideal rail leaves every sensed current within
        # half a sensing quantum of a refined read (see the class docstring).
        if self.system.lu is not None:
            V[self.system.unknown] -= self.system.solve_block(self.system.imbalance(V))
        self.system.check(V)
        return V

    def _rail_start(self, V: np.ndarray) -> None:
        """Set every rail node of the clamped panel V to its line's
        control-node voltage, the ideal-rail solution, in place: an
        n_nodes x len(rows) temporary would set peak memory."""
        net, m, n = self.net, self.spec.rows, self.spec.cols
        wl_v, bl_v = V[net.wl_attach.control_node], V[net.bl_attach.control_node]
        if self.spec.r_wire > 0:
            rails = V[:2 * m * n].reshape(2, m, n, V.shape[1])  # a view: V is C-ordered
            rails[0] = wl_v[:, None]
            rails[1] = bl_v[None]
        else:
            V[:m], V[m:m + n] = wl_v, bl_v

    def _solve_rows_chord(self, rows, V: np.ndarray, v_b: float) -> np.ndarray:
        system = self.system
        # W, at first V itself, is updated in place; a column leaves it, into V, once converged.
        W, active = V, np.arange(V.shape[1])
        F = system.imbalance(W)
        last = np.inf
        for it in range(_CHORD_MAX_ITERS):
            res_cols = np.abs(F).max(axis=0) if F.size else np.zeros(len(active))
            keep = res_cols > solver.KCL_TOL
            if not keep.all():
                if W is not V:
                    V[:, active[~keep]] = W[:, ~keep]
                if not keep.any():
                    return V
                active, W, F = active[keep], W[:, keep], F[:, keep]
            worst = res_cols[keep].max()
            if it > 6 and worst > 0.5 * last:
                break  # frozen-Jacobian iteration stalled; fall back per row
            last = worst
            W[system.unknown] -= system.solve_block(F)
            F = system.imbalance(W)
        return self._newton_rows(rows, V, active, v_b)

    def _newton_rows(self, rows, V: np.ndarray, cols, v_b: float) -> np.ndarray:
        """Exact Newton solve of each column c in ``cols`` of V, the read of
        ``rows[c]`` with this session's bitlines, at hold voltage v_b."""
        spec = dataclasses.replace(self.spec, v_b=v_b)
        for c in cols:
            row_net = build_network(spec, self.pattern, self.cells,
                                    row_read_bias(spec, rows[c], self.mismatch, self.bitlines))
            V[:, c] = solve_nonlinear(row_net).node_voltages
        return V

    def bitline_currents_from(self, V: np.ndarray) -> np.ndarray:
        """Per-column sensed values for each solved column of V (cols x N)."""
        if self.bitlines is None:
            return bitline_currents(self.net, V).T
        return (V[self.net.bl_attach.attach_node] - self._v_ref).T

    def row_currents(self, rows) -> np.ndarray:
        rows = list(rows)
        out = np.empty((len(rows), self.spec.cols))
        for s in range(0, len(rows), solver._PANEL):
            chunk = rows[s:s + solver._PANEL]
            V = self.solve_rows(chunk)
            out[s:s + len(chunk)] = self.bitline_currents_from(V)
        return out


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
    bitline answer every cell, or one per cell when the cells are fewer
    than their terminals or the solved wordline-end columns, which outlive
    their panel, would exceed ``_BATCH_TARGET_FLOATS``.  The branch-form
    residual of those solves corrects each resistance and, scaled by the
    cell's current, is checked against ``solver.KCL_TOL``.
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
        self.system.factor(cells.conductances(self.net.active_params, 0.0))
        # Unknown-vector positions of each wordline's driven end and each
        # bitline's sense end; -1 marks the ground.
        pos = np.full(self.net.n_nodes, -1)
        pos[self.system.unknown] = np.arange(self.system.unknown.size)
        self._p = pos[self.net.wl_nodes[:, 0]]
        self._q = pos[self.net.bl_nodes[spec.rows - 1, :]]

    def currents(self, cells_ij) -> np.ndarray:
        """Sensed current for each (i, j) target: one solved column per
        distinct terminal when the terminals number no more than the cells
        and the wordline-end columns fit ``_BATCH_TARGET_FLOATS``, else one
        column per cell."""
        cells_ij = list(cells_ij)
        if not cells_ij:
            return np.empty(0)
        ii, jj = (np.array(x, dtype=np.int64) for x in zip(*cells_ij))
        bad = (ii < 0) | (ii >= self.spec.rows) | (jj < 0) | (jj >= self.spec.cols)
        if bad.any():
            k = int(np.argmax(bad))
            raise IndexError(f"cell ({ii[k]}, {jj[k]}) out of range for "
                             f"{self.spec.rows}x{self.spec.cols}")
        p, q = self._p[ii], self._q[jj]
        p_terms, q_terms = np.unique(p), np.unique(q[q >= 0])
        n_p, n_t = p_terms.size, p_terms.size + q_terms.size
        n_red = self.system.unknown.size
        if n_t <= len(cells_ij) and n_p * n_red <= _BATCH_TARGET_FLOATS:
            B = sp.csc_matrix((np.ones(n_t), (np.concatenate([p_terms, q_terms]), np.arange(n_t))),
                              shape=(n_red, n_t))
            z_diag, z_cross, res = self._pair_resistances(B, n_p)
            a = np.searchsorted(p_terms, p)
            b = np.where(q >= 0, n_p + np.searchsorted(q_terms, q), n_t)
            r_eff = z_diag[a] + z_diag[b] - 2.0 * z_cross[a, b - n_p]
            res = res[a] + res[b]
        else:
            k = np.arange(len(cells_ij))
            on = q >= 0
            B = sp.csc_matrix((np.concatenate([np.ones(k.size), -np.ones(int(on.sum()))]),
                               (np.concatenate([p, q[on]]), np.concatenate([k, k[on]]))),
                              shape=(n_red, k.size))
            z_diag, _, res = self._pair_resistances(B, 0)
            r_eff, res = z_diag[:-1], res[:-1]
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

    def _pair_resistances(self, B, n_a):
        """Terms of the effective resistance of w = e_a - e_b over the
        columns of the sparse right-hand side B: Z's diagonal, its cross
        block Z_ab (a below n_a, b from n_a on), and a bound on the KCL
        residual of each column's solution per unit current.  Each ends in
        a zero entry (``z_cross`` in a zero column) that stands for no
        column: index k of ``z_diag`` and ``res``, for B's k columns.

        The assembled Laplacian rounds device conductances away where they
        sit beside wire conductances on its diagonal, so X = G^-1 B alone
        gives resistances up to 1.2e-6 relative off (an all-HRS 256x256
        array).  The residual R of X, its branch-form imbalance
        (``ReducedSystem.imbalance``) less B, keeps them.  Z = B'X - X'R
        equals B'G^-1 B but for the second-order term R'G^-1 R, so it is
        symmetric to that order and the resistance is
        w'Zw = Z_aa + Z_bb - 2 Z_ab.

        B is solved ``solver._PANEL`` columns at a time, and each panel's
        residual and terms are formed before the next is solved, so only
        the first n_a columns of X, which the cross term needs, outlive
        their panel.
        """
        system = self.system
        n_red, k = B.shape
        z_diag, res = np.zeros(k + 1), np.zeros(k + 1)
        z_cross = np.zeros((n_a, k - n_a + 1))
        X_a = np.empty((n_red, n_a), order="F")
        touched = np.unique(B.indices)
        B_t = B[touched].T.tocsr()
        x = np.zeros(self.net.n_nodes)  # the ground stays at zero
        for s in range(0, k, solver._PANEL):
            c = slice(s, min(s + solver._PANEL, k))
            Bc = B[:, c].tocoo()
            X = np.zeros(Bc.shape, order="F")  # the panel's right-hand side, then its solution
            X[Bc.row, Bc.col] = Bc.data
            X = system.solve_block(X)
            if s < n_a:
                X_a[:, s:min(c.stop, n_a)] = X[:, :n_a - s]
            S = B_t @ X[touched]  # B'X for this panel's columns of X
            # column by column: one vector at a time runs faster than a few
            R = np.empty(X.shape, order="F")
            for t in range(X.shape[1]):
                x[system.unknown] = X[:, t]
                R[:, t] = system.imbalance(x)
            R[Bc.row, Bc.col] -= Bc.data
            z_diag[c] = np.diagonal(S[c]) - np.einsum("ij,ij->j", X, R)
            if c.stop > n_a:
                lo = max(s, n_a)
                z_cross[:, lo - n_a:c.stop - n_a] = S[:n_a, lo - s:] - X_a.T @ R[:, lo - s:]
            res[c] = np.abs(R, out=R).max(axis=0)
            # Freed before the next panel is solved, which would otherwise
            # hold two more panels beside the new one.
            del X, R
        return z_diag, z_cross, res
