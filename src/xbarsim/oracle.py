"""Independent dense reference solver used to cross-check the sparse path.

Assembly is done with per-branch Python loops into a dense matrix,
grounding is verified with a hand-rolled breadth-first search, and the
factorization is LAPACK's pivoted elimination via numpy.  Nothing here is
shared with the sparse implementation beyond the network description and
the device equations themselves.
"""

from __future__ import annotations

import numpy as np

from . import solver
from .crossbar import Network
from .solver import SingularNetworkError, Solution, SolverConvergenceError

MAX_DENSE_NODES = 5000


def _dense_admittance(net: Network, device_g: np.ndarray) -> np.ndarray:
    n = net.n_nodes
    G = np.zeros((n, n))
    for a, b, g in zip(net.wire_a, net.wire_b, net.wire_g):
        G[a, a] += g
        G[b, b] += g
        G[a, b] -= g
        G[b, a] -= g
    gd = np.asarray(device_g, dtype=float).ravel()
    for k in range(net.dev_a.size):
        a, b, g = net.dev_a[k], net.dev_b[k], gd[k]
        G[a, a] += g
        G[b, b] += g
        G[a, b] -= g
        G[b, a] -= g
    return G


def _check_grounded_bfs(net: Network) -> None:
    n = net.n_nodes
    neighbors: list[list[int]] = [[] for _ in range(n)]
    for a, b in zip(net.wire_a, net.wire_b):
        neighbors[a].append(int(b))
        neighbors[b].append(int(a))
    for a, b in zip(net.dev_a, net.dev_b):
        neighbors[a].append(int(b))
        neighbors[b].append(int(a))
    reached = np.zeros(n, dtype=bool)
    queue = [int(k) for k in np.flatnonzero(net.fixed_mask)]
    if not queue:
        raise SingularNetworkError(
            "network has no fixed-voltage node (all lines floating)",
            component_nodes=tuple(range(min(n, 8))),
        )
    for k in queue:
        reached[k] = True
    while queue:
        k = queue.pop()
        for nb in neighbors[k]:
            if not reached[nb]:
                reached[nb] = True
                queue.append(nb)
    if not reached.all():
        nodes = np.flatnonzero(~reached)
        names = ", ".join(net.node_name(int(k)) for k in nodes[:6])
        raise SingularNetworkError(
            f"floating subgraph with no voltage anchor: {{{names}}}"
            + ("..." if nodes.size > 6 else ""),
            component_nodes=tuple(int(k) for k in nodes),
        )


def _branch_imbalance(net: Network, v: np.ndarray, extended: bool = False) -> np.ndarray:
    """Per-node net leaving current, accumulated branch by branch.

    ``extended`` evaluates in long double: refinement against an extended
    residual keeps floating-line node voltages accurate despite the large
    wire-to-device conductance contrast.
    """
    dtype = np.longdouble if extended else np.float64
    v = v.astype(dtype)
    out = np.zeros(net.n_nodes, dtype=dtype)
    for a, b, g in zip(net.wire_a, net.wire_b, net.wire_g.astype(dtype)):
        i = g * (v[a] - v[b])
        out[a] += i
        out[b] -= i
    dv = (v[net.dev_a] - v[net.dev_b]).reshape(net.spec.rows, net.spec.cols)
    i_dev = net.cells.currents(net.pattern, dv).ravel()
    for k in range(net.dev_a.size):
        out[net.dev_a[k]] += i_dev[k]
        out[net.dev_b[k]] -= i_dev[k]
    return out


def _refine_dense(net: Network, v: np.ndarray, u: np.ndarray, Auu: np.ndarray) -> np.ndarray:
    """Extended-residual refinement judged by the solved correction size
    (see the sparse solver: a residual-max rule under-refines soft modes
    behind high-resistance cells)."""
    prev = np.inf
    for _ in range(8):
        r = _branch_imbalance(net, v, extended=True)[u]
        delta = np.linalg.solve(Auu, r.astype(np.float64))
        step = np.abs(delta).max() if delta.size else 0.0
        v = v.copy()
        v[u] -= delta
        if step == 0.0 or step >= prev:
            break
        prev = step
    return v


def _finish(net: Network, v: np.ndarray, residual: float, iterations: int) -> Solution:
    wire_i = net.wire_g * (v[net.wire_a] - v[net.wire_b])
    dv = (v[net.dev_a] - v[net.dev_b]).reshape(net.spec.rows, net.spec.cols)
    dev_i = net.cells.currents(net.pattern, dv).ravel()
    return Solution(v, wire_i, dev_i, float(residual), iterations)


def dense_reference_solve(net: Network) -> Solution:
    """Reference solve with dense pivoted elimination (both device models)."""
    if net.n_nodes > MAX_DENSE_NODES:
        raise ValueError(
            f"dense reference capped at {MAX_DENSE_NODES} nodes, got {net.n_nodes}"
        )
    _check_grounded_bfs(net)
    u = np.flatnonzero(~net.fixed_mask)
    f = np.flatnonzero(net.fixed_mask)
    v = np.where(net.fixed_mask, net.fixed_voltage, 0.0)

    if net.cells.is_linear:
        G = _dense_admittance(net, net.cells.active_conductances(net.pattern))
        if u.size:
            Guu = G[np.ix_(u, u)]
            rhs = -G[np.ix_(u, f)] @ net.fixed_voltage[f]
            v[u] = np.linalg.solve(Guu, rhs)
            v = _refine_dense(net, v, u, Guu)
        residual = float(np.abs(_branch_imbalance(net, v, extended=True)[u]).max()) if u.size else 0.0
        if residual > solver.KCL_TOL:
            raise SolverConvergenceError(
                f"dense linear residual {residual:.3e} A above tolerance",
                residual=residual, iterations=1,
            )
        return _finish(net, v, residual, iterations=1)

    # Full-matrix Newton for sinh devices.
    v[u] = float(np.median(net.fixed_voltage[f]))
    Juu = None
    f_u = _branch_imbalance(net, v)[u]
    for iterations in range(1, solver.MAX_NEWTON_ITERS + 1):
        res = np.abs(f_u).max() if u.size else 0.0
        if res <= solver.KCL_TOL:
            if Juu is not None:
                v = _refine_dense(net, v, u, Juu)
                res = float(np.abs(_branch_imbalance(net, v, extended=True)[u]).max())
            return _finish(net, v, res, iterations)
        dv = (v[net.dev_a] - v[net.dev_b]).reshape(net.spec.rows, net.spec.cols)
        g_dev = net.cells.conductances(net.pattern, dv).ravel()
        J = _dense_admittance(net, g_dev)
        Juu = J[np.ix_(u, u)]
        delta = np.linalg.solve(Juu, -f_u)
        norm0 = np.linalg.norm(f_u)
        alpha = 1.0
        for _ in range(21):
            v_try = v.copy()
            v_try[u] += alpha * delta
            f_try = _branch_imbalance(net, v_try)[u]
            if np.linalg.norm(f_try) < norm0:
                v, f_u = v_try, f_try
                break
            alpha *= 0.5
        else:
            raise SolverConvergenceError(
                f"dense Newton line search stalled at residual {norm0:.3e} A",
                residual=float(norm0), iterations=iterations,
            )
    res = float(np.abs(f_u).max()) if u.size else 0.0
    if res <= solver.KCL_TOL:
        return _finish(net, v, res, solver.MAX_NEWTON_ITERS)
    raise SolverConvergenceError(
        f"dense Newton did not converge (final residual {res:.3e} A)",
        residual=res, iterations=solver.MAX_NEWTON_ITERS,
    )
