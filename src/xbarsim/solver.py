"""Nodal solution of biased crossbar networks.

The nodal system is assembled over all nodes, then fixed-voltage nodes are
eliminated: ``ReducedSystem`` holds the remaining symmetric
positive-definite conductance Laplacian, its sparse LU factor, and the one
refinement rule every solve path ends with.  Residuals are evaluated in
float64 branch form (``node_imbalance``), which is accurate enough that no
extended precision is needed.  Linear arrays use one factorization;
sinh-device arrays use damped Newton iteration with the
differential-conductance Jacobian.  Sign convention: device current is
positive from the wordline node to the bitline node; a node's KCL
imbalance is the net current leaving it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.csgraph import connected_components

from .crossbar import TERM_FLOATING, Network


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
_REFINE_STEPS = 8


@dataclass(frozen=True)
class Solution:
    """Solved node voltages and branch currents of one network."""

    node_voltages: np.ndarray
    wire_currents: np.ndarray  # aligned with Network.wire_* arrays
    device_currents: np.ndarray  # cell-major, length M*N
    kcl_residual: float
    iterations: int

    @property
    def branch_currents(self) -> np.ndarray:
        return np.concatenate([self.wire_currents, self.device_currents])


def assemble_admittance(net: Network, device_g: np.ndarray) -> sp.csr_matrix:
    """Full nodal conductance matrix with the given per-device conductances."""
    g = np.asarray(device_g, dtype=float).ravel()
    a, b = net.dev_a, net.dev_b
    rows = np.concatenate([net.wire_a, net.wire_b, net.wire_a, net.wire_b, a, b, a, b])
    cols = np.concatenate([net.wire_a, net.wire_b, net.wire_b, net.wire_a, a, b, b, a])
    vals = np.concatenate([net.wire_g, net.wire_g, -net.wire_g, -net.wire_g, g, g, -g, -g])
    return sp.coo_matrix((vals, (rows, cols)), shape=(net.n_nodes, net.n_nodes)).tocsr()


def check_grounded(net: Network) -> None:
    """Every connected component must contain a fixed-voltage node."""
    if not net.fixed_mask.any():
        raise SingularNetworkError(
            "network has no fixed-voltage node (all lines floating)",
            component_nodes=tuple(range(min(net.n_nodes, 8))),
        )
    if net.fixed_mask.all():
        return  # every component holds a fixed node
    n = net.n_nodes
    a = np.concatenate([net.wire_a, net.dev_a])
    b = np.concatenate([net.wire_b, net.dev_b])
    adj = sp.coo_matrix((np.ones(a.size), (a, b)), shape=(n, n))
    ncomp, labels = connected_components(adj, directed=False)
    if ncomp > 1:
        anchored = np.zeros(ncomp, dtype=bool)
        anchored[labels[net.fixed_mask]] = True
        if not anchored.all():
            bad = int(np.flatnonzero(~anchored)[0])
            nodes = np.flatnonzero(labels == bad)
            names = ", ".join(net.node_name(int(k)) for k in nodes[:6])
            raise SingularNetworkError(
                f"floating subgraph with no voltage anchor: {{{names}}}"
                + ("..." if nodes.size > 6 else ""),
                component_nodes=tuple(int(k) for k in nodes),
            )


def _device_dv(net: Network, v: np.ndarray) -> np.ndarray:
    return (v[net.dev_a] - v[net.dev_b]).reshape(net.spec.rows, net.spec.cols)


def branch_currents_at(net: Network, dv: np.ndarray) -> np.ndarray:
    """Current through each branch, in ``Network.incidence`` order, at
    branch voltages ``dv`` (a vector, or a matrix with one column per solve)."""
    nw = net.wire_a.size
    g = net.wire_g if dv.ndim == 1 else net.wire_g[:, None]
    d = dv[nw:]
    i_dev = net.cells.currents(net.pattern, d.reshape(net.cells.shape + d.shape[1:]))
    return np.concatenate([g * dv[:nw], i_dev.reshape(d.shape)])


def node_imbalance(net: Network, v: np.ndarray) -> np.ndarray:
    """Net current leaving each node at voltages v (a vector, or a matrix
    with one column per solve).

    Branch voltage differences are formed before any product, so float64
    keeps nA device currents exact beside the large wire currents: at
    128x128 this agrees with a long-double evaluation to below 1e-20 A,
    where the assembled ``G @ v`` is off by 4e-17 A.
    """
    E = net.incidence
    return E @ branch_currents_at(net, E.T @ v)


def _initial_voltages(net: Network) -> np.ndarray:
    v = np.where(net.fixed_mask, net.fixed_voltage, 0.0)
    fixed_vals = net.fixed_voltage[net.fixed_mask]
    v[~net.fixed_mask] = float(np.median(fixed_vals))
    return v


class ReducedSystem:
    """The nodal system of one network, reduced to its unknown nodes.

    Owns the fixed/unknown partition, the LU factor of the unknown block
    and the one refinement rule that finishes every solve.  Voltages are full node vectors, or matrices with one column per
    solve: fixed entries are read, unknown entries are solved for.
    """

    def __init__(self, net: Network):
        check_grounded(net)
        self.net = net
        self.unknown = np.flatnonzero(~net.fixed_mask)
        self.lu = None

    def factor(self, device_g: np.ndarray) -> None:
        """Factorize the unknown block of the admittance at these device conductances."""
        u = self.unknown
        if u.size:
            self.lu = spla.splu(assemble_admittance(self.net, device_g)[u][:, u].tocsc())

    def imbalance(self, V: np.ndarray) -> np.ndarray:
        """Net current leaving each unknown node."""
        if not self.unknown.size:
            return np.zeros((0,) + V.shape[1:])
        return node_imbalance(self.net, V)[self.unknown]

    def correct(self, V: np.ndarray) -> np.ndarray:
        """Refine the unknowns of V in place against the true residual.

        Progress is judged by the size of the solved correction, a direct
        voltage-error gauge that sees soft modes (floating lines coupled
        only through high-resistance cells) which per-node residual scales
        miss.  Refinement stops at the rounding floor of the voltages or
        when the correction stops shrinking.  From a flat start (unknowns
        at zero) on a linear network the first correction is the direct
        solve.
        """
        if self.lu is None:
            return V
        prev = np.inf
        for _ in range(_REFINE_STEPS):
            delta = self.lu.solve(self.imbalance(V))
            V[self.unknown] -= delta
            step = np.abs(delta).max()
            if step <= np.spacing(np.abs(V).max()) or step >= prev:
                break
            prev = step
        return V

    def solve(self, V: np.ndarray) -> tuple[np.ndarray, float]:
        """``correct`` V, then require the KCL residual within ``KCL_TOL``."""
        V = self.correct(V)
        residual = float(np.abs(self.imbalance(V)).max()) if self.unknown.size else 0.0
        if residual > KCL_TOL:
            raise SolverConvergenceError(
                f"nodal residual {residual:.3e} A exceeds tolerance {KCL_TOL:.1e} A",
                residual=residual, iterations=1,
            )
        return V, residual


def _finish(system: ReducedSystem, v: np.ndarray, residual: float, iterations: int) -> Solution:
    i = branch_currents_at(system.net, system.net.incidence.T @ v)
    nw = system.net.wire_a.size
    return Solution(v, i[:nw], i[nw:], residual, iterations)


def solve_linear(net: Network) -> Solution:
    """Direct sparse solve of a linear-device network."""
    if not net.cells.is_linear:
        raise TypeError("solve_linear requires linear device parameters")
    system = ReducedSystem(net)
    system.factor(net.cells.active_conductances(net.pattern))
    v, residual = system.solve(np.where(net.fixed_mask, net.fixed_voltage, 0.0))
    return _finish(system, v, residual, iterations=1)


def solve_nonlinear(net: Network) -> Solution:
    """Damped Newton solve of a sinh-device network.

    Unknowns start at the median fixed bias (the hold voltage for read
    configurations); each full Newton step is halved until the residual
    falls, so large initial sinh arguments cannot run away.  The converged
    iterate is finished by the shared refinement with the last Jacobian
    factor.
    """
    if net.cells.is_linear:
        raise TypeError("solve_nonlinear requires nonlinear device parameters")
    system = ReducedSystem(net)
    v = _initial_voltages(net)
    f_u = system.imbalance(v)
    for iterations in range(1, MAX_NEWTON_ITERS + 1):
        if (np.abs(f_u).max() if f_u.size else 0.0) <= KCL_TOL:
            break
        system.factor(net.cells.conductances(net.pattern, _device_dv(net, v)).ravel())
        delta = system.lu.solve(-f_u)
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
    else:
        res = float(np.abs(f_u).max())
        if res > KCL_TOL:
            raise SolverConvergenceError(
                f"Newton did not converge in {MAX_NEWTON_ITERS} iterations "
                f"(final residual {res:.3e} A)",
                residual=res, iterations=MAX_NEWTON_ITERS,
            )
    v, residual = system.solve(v)
    return _finish(system, v, residual, iterations)


def solve(net: Network) -> Solution:
    """Dispatch on the device model of the network's cells."""
    return solve_linear(net) if net.cells.is_linear else solve_nonlinear(net)


def bitline_currents(net: Network, sol: Solution, columns=None) -> np.ndarray:
    """Current entering each bitline termination (positive into the sense node).

    ``columns`` restricts the query (needed when other bitlines float);
    querying a floating column is an error since it has no sense path.
    """
    att = net.bl_attach
    columns = (np.arange(net.spec.cols) if columns is None
               else np.asarray(list(columns), dtype=np.int64))
    floating = att.kind[columns] == TERM_FLOATING
    if floating.any():
        j = int(columns[floating][0])
        raise ValueError(f"bitline {j} is floating: no sense path to measure current")
    return -node_imbalance(net, sol.node_voltages)[att.control_node[columns]]


def source_power(net: Network, sol: Solution) -> float:
    """Total power injected by all boundary sources (Tellegen counterpart
    of branch dissipation)."""
    leaving = node_imbalance(net, sol.node_voltages)
    fixed = np.flatnonzero(net.fixed_mask)
    return float(np.dot(sol.node_voltages[fixed], leaving[fixed]))


def dump_system(net: Network, path_prefix: str, sol: Solution | None = None) -> list[str]:
    """Debug dump of the assembled system in plain text.

    Writes ``<prefix>.admittance.mtx`` (MatrixMarket coordinate form of the
    full nodal conductance matrix, linearized at the solution for sinh
    devices), ``<prefix>.nodes.txt`` (``index name fixed voltage`` per
    line), and when a solution is given ``<prefix>.solution.txt``
    (``index voltage`` lines, then ``branch kind a b current_A`` lines).
    Returns the written paths.
    """
    from scipy.io import mmwrite

    v = sol.node_voltages if sol is not None else _initial_voltages(net)
    g_dev = net.cells.conductances(net.pattern, _device_dv(net, v)).ravel()
    paths = [f"{path_prefix}.admittance.mtx", f"{path_prefix}.nodes.txt"]
    mmwrite(paths[0], assemble_admittance(net, g_dev))
    with open(paths[1], "w") as f:
        f.write("# index name fixed voltage\n")
        for k in range(net.n_nodes):
            fx = int(net.fixed_mask[k])
            vv = net.fixed_voltage[k] if fx else float("nan")
            f.write(f"{k} {net.node_name(k)} {fx} {vv:.12g}\n")
    if sol is not None:
        p = f"{path_prefix}.solution.txt"
        paths.append(p)
        with open(p, "w") as f:
            f.write("# node index voltage_V\n")
            for k, vv in enumerate(sol.node_voltages):
                f.write(f"node {k} {vv:.12g}\n")
            f.write("# branch kind node_a node_b current_A\n")
            for k in range(net.wire_a.size):
                f.write(
                    f"branch wire {net.wire_a[k]} {net.wire_b[k]} {sol.wire_currents[k]:.12g}\n"
                )
            for k in range(net.dev_a.size):
                f.write(
                    f"branch device {net.dev_a[k]} {net.dev_b[k]} {sol.device_currents[k]:.12g}\n"
                )
    return paths
