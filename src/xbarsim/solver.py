"""Nodal solution of biased crossbar networks.

The nodal system is assembled over all nodes, then fixed-voltage nodes are
eliminated: ``ReducedSystem`` holds the remaining symmetric
positive-definite conductance Laplacian, its sparse LU factor (or
``LineBlocks``), one correction with that factor (``step``), the refinement
rule every one-shot solve ends with, and the KCL check.
Residuals are evaluated in float64 branch form on the crossbar's grid
(``node_imbalance``: wire segments between neighbouring rail nodes, devices
between the wordline and bitline planes), which is accurate enough that no
extended precision is needed.  Every function here reads those planes
through ``Network.rails``, in one body for wired and ideal-wire arrays.  Linear arrays use one factorization;
sinh-device arrays use damped Newton iteration with the
differential-conductance Jacobian, started on wired arrays from the
ideal-rail solution (each line one node).  Clamped row sessions start from
the ideal rail of their fixed voltages (``_rail_start``), and sinh ones
relax on ``LineBlocks``, each line's tridiagonal block, instead of a full
factor.
Sign convention: device current is positive from the wordline node to the
bitline node; a node's KCL imbalance is the net current leaving it.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .crossbar import TERM_FLOATING, TERM_RESISTIVE, Network, build_network


class SingularNetworkError(ValueError):
    """The network has a floating subgraph with no voltage anchor."""

    def __init__(self, message: str, component_nodes=()):
        super().__init__(message)
        self.component_nodes = tuple(component_nodes)


class SolverConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, residual: float, iterations: int):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


KCL_TOL = 1e-12  # max node-current imbalance of every solve, amperes
MAX_NEWTON_ITERS = 50
_MAX_HALVINGS = 20
# A sinh network's last Newton factor shrinks a soft mode (a line floating behind
# high-resistance cells) by only 0.1-0.3 a step: the floor can take 30 steps.
# Line relaxation of sinh session rows takes 2-9, and 30 or more only with cells
# a thousand times stiffer (k_on = 1e-5 at 128x128); a row the cap leaves above
# KCL_TOL takes per-row Newton.
_REFINE_STEPS = 40
_DISSECTION_LEAF = 64  # nodes per block that nested dissection leaves whole
_PANEL = 16  # right-hand-side columns per SuperLU solve (see ReducedSystem)
# SuperLU sizes its work arrays from nnz(A), several times the fill it writes.
# Under heap retention (``experiments._retain_freed_heap``) a large factor
# placed on freed heap pages that are still resident holds all of them, and one
# placed on fresh pages only those it writes; the heap layout left by earlier
# work decides which, and peak memory moved by 20 MB from one process to the
# next.  Factors of this many unknowns or more trim the heap before and after;
# smaller ones would only fault their retained heap back in.
_TRIM_MIN_UNKNOWNS = 1 << 14

try:  # glibc's; a C library without it keeps its own policy
    _malloc_trim = ctypes.CDLL(None).malloc_trim
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


@dataclass(frozen=True)
class Solution:
    """Solved node voltages of one network, with the solve's diagnostics.
    Currents and power are read from the voltages by ``bitline_currents``,
    ``branch_currents_at``, ``branch_power`` and ``source_power``."""

    node_voltages: np.ndarray
    kcl_residual: float
    iterations: int


def assemble_admittance(net: Network, device_g: np.ndarray) -> sp.csr_matrix:
    """Full nodal conductance matrix with the given per-device conductances."""
    g = np.asarray(device_g, dtype=float).ravel()
    a, b = net.dev_a, net.dev_b
    rows = np.concatenate([net.wire_a, net.wire_b, net.wire_a, net.wire_b, a, b, a, b])
    cols = np.concatenate([net.wire_a, net.wire_b, net.wire_b, net.wire_a, a, b, b, a])
    vals = np.concatenate([net.wire_g, net.wire_g, -net.wire_g, -net.wire_g, g, g, -g, -g])
    return sp.coo_matrix((vals, (rows, cols)), shape=(net.n_nodes, net.n_nodes)).tocsr()


def check_grounded(net: Network) -> None:
    """The network must hold a fixed-voltage node.

    That is the only anchor ``build_network``'s graphs need: every one is
    connected (each wordline rail node is tied to its bitline rail node by
    a device, each rail is a chain or one node, and each terminal hangs off
    a rail end).  ``oracle._check_grounded_bfs`` checks every component
    independently."""
    if not net.fixed_mask.any():
        raise SingularNetworkError(
            "network has no fixed-voltage node (all lines floating)",
            component_nodes=tuple(range(min(net.n_nodes, 8))),
        )


def _device_dv(net: Network, v: np.ndarray) -> np.ndarray:
    return (v[net.dev_a] - v[net.dev_b]).reshape(net.spec.rows, net.spec.cols)


def branch_voltages(net: Network, v: np.ndarray) -> np.ndarray:
    """Voltage across each branch, wires (``Network.wire_*`` order) then
    devices (cell-major), at node voltages v (a vector, or a matrix with one
    column per solve)."""
    return np.concatenate([v[net.wire_a] - v[net.wire_b], v[net.dev_a] - v[net.dev_b]])


def branch_currents_at(net: Network, dv: np.ndarray) -> np.ndarray:
    """Current through each branch, in ``branch_voltages`` order, at branch
    voltages ``dv``."""
    nw = net.wire_a.size
    g = net.wire_g if dv.ndim == 1 else net.wire_g[:, None]
    d = dv[nw:]
    i_dev = net.cells.currents(net.active_params, d.reshape(net.cells.shape + d.shape[1:]))
    return np.concatenate([g * dv[:nw], i_dev.reshape(d.shape)])


def node_imbalance(net: Network, v: np.ndarray) -> np.ndarray:
    """Net current leaving each node at voltages v (a vector, or a matrix
    with one column per solve), formed on the crossbar's grid in
    ``Network``'s node and wire order: wordline segments along each row of
    the wordline rail plane, bitline segments down each column of the
    bitline plane, boundary resistors by index, and devices between the two
    planes (``Network.rails``; a plane of one node per line has no
    segments, and each of its nodes adds its line's devices).

    Each branch's voltage difference is formed before any product, so
    float64 keeps nA device currents exact beside the large wire currents:
    on a solved 128x128 wired row read it agrees with a branch-by-branch
    long-double sum to within 3e-21 A, where the assembled ``G @ v`` is off
    by 4e-17 A.  Each node adds its branch currents in branch order.
    """
    out = np.zeros(v.shape)
    (v_w, v_b), (out_w, out_b) = _lines(net, v), _lines(net, out)
    n_seg = (len(v_w) - 1) * v_w.shape[1] + (len(v_b) - 1) * v_b.shape[1]
    ta, tb, g = net.wire_a[n_seg:], net.wire_b[n_seg:], net.wire_g[n_seg:]  # boundary resistors
    i_term = (g if v.ndim == 1 else g[:, None]) * (v[ta] - v[tb])
    out[tb] -= i_term  # a terminal node's only branch
    for P, O in ((v_w, out_w), (v_b, out_b)):
        i_seg = P[:-1] - P[1:]
        i_seg *= net.g_seg
        O[1:] -= i_seg
        O[:-1] += i_seg
        # Freed before the next plane-sized temporary is made, so the allocator hands
        # back mapped pages: faulting in a fresh one costs as much as its arithmetic.
        del i_seg
    np.add.at(out, ta, i_term)  # with one node per line, both ends of a wordline are one
    i_dev = net.cells.currents(net.active_params, v_w.swapaxes(0, 1) - v_b)
    for op, O, i in ((np.add, out_w, i_dev.swapaxes(0, 1)), (np.subtract, out_b, i_dev)):
        if len(O) == len(i):  # a node per cell
            op(O, i, out=O)
        else:  # a node per line adds its devices in cell order, which np.sum may not keep
            O[:] = op.accumulate(np.concatenate([O, i]))[-1:]
    return out


def _lines(net: Network, A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A's rail planes (``Network.rails``) as views with each line's nodes
    along the first axis: the wordline plane transposed, then the bitline
    plane."""
    W, B = net.rails(A)
    return W.swapaxes(0, 1), B


def _initial_voltages(net: Network) -> np.ndarray:
    return np.where(net.fixed_mask, net.fixed_voltage, np.median(net.fixed_voltage[net.fixed_mask]))


def _ideal_rail_start(net: Network) -> np.ndarray:
    """Newton start of a wired sinh network: the same bias on the same cells
    with each line collapsed to one node (the ``r_wire = 0`` network),
    solved, and each line's voltage spread over its rail nodes (the line
    network's planes broadcast into this one's).  Against
    devices of a megaohm or more, ohm-scale wires only perturb that
    ideal-rail solution (A. Chen, IEEE TED 60(4), 2013), so Newton is left
    with the wire drops alone."""
    lines = build_network(replace(net.spec, r_wire=0.0), net.pattern, net.cells, net.bias)
    v_line = solve_nonlinear(lines).node_voltages
    v = np.empty(net.n_nodes)
    (W, B), (W_line, B_line) = net.rails(v), lines.rails(v_line)
    W[:], B[:] = W_line, B_line
    # Both networks list the terminal nodes alike, after their rail nodes.
    v[W.size + B.size:] = v_line[W_line.size + B_line.size:]
    return v


def _rail_start(net: Network, V: np.ndarray) -> None:
    """Set every rail node of V (nodes x solves) to its line's control-node
    voltage, the ideal rail, in place through the planes of
    ``Network.rails``: a nodes x solves temporary would set peak memory."""
    wl_v, bl_v = V[net.wl_attach.control_node], V[net.bl_attach.control_node]
    W, B = net.rails(V)
    W[:], B[:] = wl_v[:, None], bl_v[None]


@lru_cache(maxsize=8)
def _dissection_order(rows: int, cols: int) -> np.ndarray:
    """Rail nodes of a wired ``rows`` x ``cols`` array in geometric nested
    dissection order (A. George, SIAM J. Numer. Anal. 10(2), 1973): split the
    cell rectangle across its longer side, both halves first and the
    separator after them.  Bitline segments alone join cell rows and
    wordline segments alone join columns, so a row split separates on the
    middle row's bitline nodes and a column split on the middle column's
    wordline nodes.  Dropping fixed nodes leaves every separator valid."""
    nodes = np.arange(2 * rows * cols).reshape(2, rows, cols)  # wordline, bitline rails
    taken = np.zeros(nodes.size, dtype=bool)

    def take(block):
        block = block[~taken[block]]
        taken[block] = True
        return block

    def visit(r0, r1, c0, c1):
        h, w = r1 - r0, c1 - c0
        if 2 * h * w <= _DISSECTION_LEAF:
            return [take(nodes[:, r0:r1, c0:c1].ravel())]
        if h >= w:
            m = r0 + h // 2
            sep = take(nodes[1, m, c0:c1])
            return visit(r0, m, c0, c1) + visit(m, r1, c0, c1) + [sep]
        m = c0 + w // 2
        sep = take(nodes[0, r0:r1, m])
        return visit(r0, r1, c0, m) + visit(r0, r1, m, c1) + [sep]

    order = np.concatenate(visit(0, rows, 0, cols))
    order.setflags(write=False)  # shared by every network of this shape
    return order


class LineBlocks:
    """T, the Jacobian at device conductances ``device_g`` with the device
    couplings between the wordline and bitline planes removed, factored
    line by line.

    In T each wordline and each bitline is a chain of its rail nodes, a
    row of the wordline plane or a column of the bitline plane
    (``Network.rails``); each node keeps its device and boundary-resistor
    conductance on the diagonal, and a fixed node is an identity row cut
    from its chain.  With ideal wires each line is one node and T is
    diagonal.  T is symmetric positive definite and tridiagonal, so it
    factors as L D L' in O(nodes), by the recurrence of LAPACK ``pttrf``,
    and ``relax`` solves with it by that of ``pttrs``.  Both sweep along the chains with every line, and
    every solve column, at once.  ``pttrs`` itself takes one solve
    column's chains after another, bound by its recurrence's latency, and
    needs each plane transposed into chain order and back: a step with it
    took 37-39 ms against 19 ms at 256x256, and 7 against 4.5 ms at
    128x128 (16 columns, one BLAS thread), for the same bits.

    A relaxation step with T (R. S. Varga, *Matrix Iterative Analysis*,
    1962, line relaxation) leaves only the device coupling, so it contracts
    an error by about a cell's zero-bias conductance over a line's
    softest-mode stiffness: sinh cells (k_on * a = 3e-8 S) on 10-ohm lines
    reach the rounding floor in 2-3 steps at 8x8 to 32x32, 5-6 at 256x256
    and 7-9 at 512x512.  For 1-megaohm linear cells (1e-6 S) the ratio is about 30
    times larger, so linear reads keep the full factor.
    """

    def __init__(self, net: Network, device_g: np.ndarray):
        self.net = net
        g = np.asarray(device_g, dtype=float).ravel()
        ends = np.concatenate([net.wire_a, net.wire_b, net.dev_a, net.dev_b])
        diag = np.bincount(ends, np.concatenate([net.wire_g, net.wire_g, g, g]),
                           minlength=net.n_nodes)
        # Every line's nodes in one array, chain position by line: the M
        # wordlines, then the N bitlines, the shorter chains padded with
        # identity rows, so one sweep along the first axis serves them all.
        W, B = _lines(net, np.arange(net.n_nodes))
        m = W.shape[1]
        self.where = np.s_[:len(W), :m], np.s_[:len(B), m:]
        nodes = np.full((max(len(W), len(B)), m + B.shape[1]), -1)
        for plane, where in zip((W, B), self.where):
            nodes[where] = plane
        fixed = (nodes < 0) | net.fixed_mask[nodes]
        D = np.where(fixed, 1.0, diag[nodes])
        E = np.where(fixed[:-1] | fixed[1:], 0.0, -net.g_seg)  # E[i]: chain nodes i and i + 1
        L = np.empty(E.shape)
        for i in range(len(E)):
            L[i] = E[i] / D[i]
            D[i + 1] -= L[i] * E[i]
        self.D, self.L = D[..., None], L[..., None]
        self.fixed = np.flatnonzero(net.fixed_mask)

    def relax(self, V: np.ndarray, F: np.ndarray) -> float:
        """One relaxation step of the solves in V's columns, in place, from
        their full-node imbalance F, whose fixed entries it zeroes: the
        correction T^-1 F leaves every fixed node where it is.  Returns the
        correction's largest entry."""
        F[self.fixed] = 0.0
        X = np.zeros(self.D.shape[:2] + (V.shape[1],))
        for plane, where in zip(_lines(self.net, F), self.where):
            X[where] = plane
        tmp = np.empty(X.shape[1:])
        for i in range(len(self.L)):
            np.multiply(self.L[i], X[i], out=tmp)
            X[i + 1] -= tmp
        X /= self.D
        for i in range(len(self.L) - 1, -1, -1):
            np.multiply(self.L[i], X[i + 1], out=tmp)
            X[i] -= tmp
        for plane, where in zip(_lines(self.net, V), self.where):
            plane -= X[where]
        return max(float(X.max()), float(-X.min()))


class ReducedSystem:
    """The nodal system of one network, reduced to its unknown nodes.

    Owns the fixed/unknown partition, the LU factor of the unknown block
    (or, for a clamped sinh row session, ``LineBlocks`` in its place), one
    correction with that factor (``step``), the refinement rule of steps
    that finishes every one-shot solve and every clamped sinh session row
    (``correct``), and the KCL check (``check``); a clamped linear session
    row takes one ``step`` and the check.  Voltages are full node vectors,
    or matrices with one column per solve: fixed entries are read, unknown
    entries are solved for.

    ``unknown`` lists the unknown nodes in factor order: nested dissection
    of the cell grid, or node order when each line is one node
    (``r_wire = 0``).  The block is symmetric positive definite (a grounded
    Laplacian, or a sinh Jacobian with positive differential conductances),
    so it is factored in that order in symmetric mode with no pivoting.

    ``solve_block`` is the one caller of the factor's solve, and it hands
    SuperLU any block ``_PANEL`` columns at a time.  SuperLU's multi-column
    triangular solve sweeps each supernode across every column it is given,
    so it slows per column as the block widens.  Median ms per column of a
    128-column C-ordered block solved in calls of each width, on a wired
    linear row-read factor (one BLAS thread, widths interleaved over seven
    passes):

    ================  =====  =====  =====  =====  =====  =====
    array             1      8      16     32     64     128
    ================  =====  =====  =====  =====  =====  =====
    128x128 (32512)   3.14   2.41   2.26   2.25   2.36   2.43
    192x192 (73344)   7.99   5.06   4.52   4.46   4.73   5.21
    256x256 (130560)  20.13  11.40  11.11  10.35  11.95  12.31
    ================  =====  =====  =====  =====  =====  =====

    16 columns are within 8% of the best width at each size.  A panel also
    keeps SuperLU's own copy of the right-hand side (a few MB) on reused
    heap, where a block of 32 MiB or more is mapped and faulted in afresh
    under the campaigns' heap settings (``experiments._retain_freed_heap``);
    so the row and conventional sessions hand over one panel at a time.
    """

    def __init__(self, net: Network):
        check_grounded(net)
        self.net = net
        order = (_dissection_order(net.spec.rows, net.spec.cols) if net.spec.r_wire > 0
                 else np.arange(net.n_nodes))  # terminal nodes, not dissected, are fixed
        self.unknown = order[~net.fixed_mask[order]]
        self.lu = self.lines = None

    def factor(self, device_g: np.ndarray) -> None:
        """Factorize the unknown block of the admittance at these device conductances."""
        u = self.unknown
        if u.size:
            A = assemble_admittance(self.net, device_g)[u][:, u].tocsc()
            trim = _malloc_trim if u.size >= _TRIM_MIN_UNKNOWNS else None
            if trim is not None:
                trim(0)
            self.lu = spla.splu(A, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                                options=dict(SymmetricMode=True))
            if trim is not None:
                trim(0)

    def factor_lines(self, device_g: np.ndarray) -> None:
        """Factor ``LineBlocks`` at these device conductances, which
        ``correct`` then relaxes with in place of an LU factor."""
        if self.unknown.size:
            self.lines = LineBlocks(self.net, device_g)

    def solve_block(self, B) -> np.ndarray:
        """Solve the factored block against B, a vector or a matrix with one
        column per solve, ``_PANEL`` columns per SuperLU call.  A matrix
        answer is in Fortran order."""
        if B.ndim == 1 or B.shape[1] <= _PANEL:
            return self.lu.solve(B)
        X = np.empty(B.shape, order="F")
        for s in range(0, B.shape[1], _PANEL):
            c = slice(s, s + _PANEL)
            X[:, c] = self.lu.solve(B[:, c])
        return X

    def imbalance(self, V: np.ndarray) -> np.ndarray:
        """Net current leaving each unknown node."""
        if not self.unknown.size:
            return np.zeros((0,) + V.shape[1:])
        return node_imbalance(self.net, V)[self.unknown]

    def correct(self, V: np.ndarray) -> np.ndarray:
        """Refine the unknowns of V in place against the true residual, one
        ``step`` at a time: with an LU factor each is a solve, with
        ``LineBlocks`` a line relaxation step.

        Progress is judged by the size of the correction, a direct
        voltage-error gauge that sees soft modes (floating lines coupled
        only through high-resistance cells) which per-node residual scales
        miss.  From a flat start (unknowns at zero) on a linear network the
        first correction is the direct solve.  Refinement stops at the
        first of three tests on the correction just applied:

        - it is at or below the rounding floor of the voltages;
        - it did not shrink against the one before;
        - times its contraction ratio against the one before, the size the
          next correction is predicted to have, it is at or below the floor
          (N. J. Higham, *Accuracy and Stability of Numerical Algorithms*,
          2nd ed., SIAM 2002, ch. 12).

        The third test saves a solve that would only confirm the floor: on
        a 128x128 linear row read the corrections run 1.2 V (the direct
        solve), 9e-13 V, then 1e-16 V, so the loop stops after the second.
        The first correction has no ratio, so the prediction never stops
        the loop there: a direct solve that skipped refinement would move
        row-read currents by up to 3e-6 relative.
        """
        if self.lu is None and self.lines is None:
            return V
        prev = np.inf
        for _ in range(_REFINE_STEPS):
            step = self.step(V)
            floor = np.spacing(max(V.max(), -V.min()))
            if step <= floor or step >= prev or (prev < np.inf and step * step <= floor * prev):
                break
            prev = step
        return V

    def step(self, V: np.ndarray) -> float:
        """One correction of V's unknowns in place, with whichever factor
        the system holds; returns its largest entry, 0 with no factor."""
        if self.lines is not None:
            return self.lines.relax(V, node_imbalance(self.net, V))
        if self.lu is None:
            return 0.0
        delta = self.solve_block(self.imbalance(V))
        V[self.unknown] -= delta
        return np.abs(delta).max()

    def check(self, V: np.ndarray) -> float:
        """The KCL residual of V's unknowns, required within ``KCL_TOL``."""
        F = self.imbalance(V)
        residual = float(np.abs(F).max()) if F.size else 0.0
        if not residual <= KCL_TOL:  # NaN too
            raise SolverConvergenceError(
                f"nodal residual {residual:.3e} A exceeds tolerance {KCL_TOL:.1e} A",
                residual=residual, iterations=1,
            )
        return residual

    def solve(self, V: np.ndarray) -> tuple[np.ndarray, float]:
        """``correct`` V, then ``check`` it."""
        V = self.correct(V)
        return V, self.check(V)


def solve_linear(net: Network) -> Solution:
    """Direct sparse solve of a linear-device network."""
    if not net.cells.is_linear:
        raise TypeError("solve_linear requires linear device parameters")
    system = ReducedSystem(net)
    system.factor(net.cells.conductances(net.active_params, 0.0))
    v, residual = system.solve(np.where(net.fixed_mask, net.fixed_voltage, 0.0))
    return Solution(v, residual, iterations=1)


def solve_nonlinear(net: Network) -> Solution:
    """Damped Newton solve of a sinh-device network.

    A wired network starts from its ideal-rail solution
    (``_ideal_rail_start``), whose errors propagate unchanged; a network of
    one node per line starts with its unknowns at the median fixed bias
    (the hold voltage for read configurations).  Each full Newton step is
    halved until the residual falls, so large initial sinh arguments cannot
    run away.  The converged iterate is finished by the shared refinement
    with the last Jacobian factor, or with one factored at the start when
    the start already meets ``KCL_TOL``: a 31x1 array with line offsets
    starts within 1e-13 A of KCL, yet its HRS reads sit up to 7% off.
    """
    if net.cells.is_linear:
        raise TypeError("solve_nonlinear requires nonlinear device parameters")
    system = ReducedSystem(net)
    v = (_ideal_rail_start(net) if net.spec.r_wire > 0 and system.unknown.size
         else _initial_voltages(net))
    f_u = system.imbalance(v)
    for iterations in range(1, MAX_NEWTON_ITERS + 2):
        res = float(np.abs(f_u).max()) if f_u.size else 0.0
        if res <= KCL_TOL:
            break
        # a Jacobian factored at a non-finite residual would be singular
        if iterations > MAX_NEWTON_ITERS or not np.isfinite(res):
            raise SolverConvergenceError(
                f"Newton stopped at nodal residual {res:.3e} A after {iterations - 1} "
                f"of {MAX_NEWTON_ITERS} iterations", residual=res, iterations=iterations - 1)
        system.factor(net.cells.conductances(net.active_params, _device_dv(net, v)).ravel())
        delta = system.solve_block(-f_u)
        norm0 = np.linalg.norm(f_u)
        alpha = 1.0
        for _ in range(_MAX_HALVINGS + 1):
            v_try = v.copy()
            v_try[system.unknown] += alpha * delta
            f_try = system.imbalance(v_try)
            if np.linalg.norm(f_try) < norm0:
                v, f_u = v_try, f_try
                break
            alpha *= 0.5
        else:
            raise SolverConvergenceError(
                f"Newton line search failed to reduce residual {norm0:.3e} A",
                residual=float(norm0), iterations=iterations,
            )
    if system.lu is None and system.unknown.size:  # the start met the KCL bound: refine it all the same
        system.factor(net.cells.conductances(net.active_params, _device_dv(net, v)).ravel())
    v, residual = system.solve(v)
    return Solution(v, residual, iterations)


def solve(net: Network) -> Solution:
    """Dispatch on the device model of the network's cells."""
    return solve_linear(net) if net.cells.is_linear else solve_nonlinear(net)


def bitline_currents(net: Network, v: np.ndarray, columns=None) -> np.ndarray:
    """Current entering each bitline termination (positive into the sense
    node) at node voltages v: a vector, or a matrix with one column per
    solve, which gives one row per bitline.

    ``columns`` restricts the query (needed when other bitlines float);
    querying a floating column is an error since it has no sense path, and
    so is one outside the array.

    Only the sensed nodes' own branches are summed: a load's or driver's
    boundary resistor, else (a direct clamp) the last bitline segment, if
    the bitline plane (``Network.rails``) has more than one row, and then
    the devices that reach the sense node in cell order (the last row's
    with wires, the column's without).  Each sensed node's imbalance is
    accumulated from zero in ``node_imbalance``'s order, so the result has
    the same bits as the negated residual at the control nodes, for O(N)
    work instead of O(MN).
    """
    att = net.bl_attach
    columns = (np.arange(net.spec.cols) if columns is None
               else np.asarray(list(columns), dtype=np.int64))
    outside = (columns < 0) | (columns >= net.spec.cols)
    if outside.any():
        raise IndexError(f"bitline {int(columns[outside][0])} out of range for "
                         f"{net.spec.cols} columns")
    floating = att.kind[columns] == TERM_FLOATING
    if floating.any():
        j = int(columns[floating][0])
        raise ValueError(f"bitline {j} is floating: no sense path to measure current")
    leaving = np.zeros(columns.shape + v.shape[1:])
    series = att.kind[columns] == TERM_RESISTIVE
    c = columns[series]
    g = att.conductance[c]
    leaving[series] -= (g if v.ndim == 1 else g[:, None]) * (
        v[att.attach_node[c]] - v[att.terminal_node[c]])
    c = columns[~series]
    if c.size:
        B = net.rails(v)[1]
        out = leaving[~series]
        if len(B) > 1:
            i_seg = B[-2, c] - B[-1, c]
            i_seg *= net.g_seg
            out -= i_seg
        reach = slice(len(B) - 1, None)  # the rows whose devices end on the sense node
        wl = net.dev_a.reshape(net.active_params.shape)[reach, c]
        i_dev = net.cells.currents(net.active_params[reach, c], v[wl] - B[-1, c])
        leaving[~series] = np.subtract.accumulate(np.concatenate([out[None], i_dev]))[-1]
    return -leaving


def branch_power(net: Network, v: np.ndarray) -> np.ndarray:
    """Total branch dissipation (watts) at node voltages v: a float for a
    vector, one entry per column of a matrix."""
    dv = branch_voltages(net, v)
    return (dv * branch_currents_at(net, dv)).sum(axis=0)


def source_power(net: Network, v: np.ndarray) -> float:
    """Total power injected by all boundary sources at node voltages v
    (Tellegen counterpart of ``branch_power``)."""
    leaving = node_imbalance(net, v)
    fixed = np.flatnonzero(net.fixed_mask)
    return float(np.dot(v[fixed], leaving[fixed]))
