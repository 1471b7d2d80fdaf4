"""Layer tracing from outside the program.

``install()`` replaces the public functions of the ``xbarsim`` modules, and
the SuperLU factorizations and solves they make, with timing wrappers.  Each
name is replaced where the calling module looks it up: ``readout`` imports
``build_network``, ``solve_nonlinear`` and friends by name, ``experiments``
imports ``write_csv`` by name, and ``solver``/``readout`` reach SuperLU
through their own ``spla`` attribute.  Nothing inside the program changes.

Spans are kept in memory as ``(name, start, end, parent)`` tuples; counts
are accumulated at the same boundaries.  ``layer_metrics()`` folds them
into the per-layer metrics the benchmark reports.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, name, fn, after=None):
        """Time every call of ``fn`` as a span ``name``; ``after(args, kwargs,
        result)`` may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, t0, t1, parent)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return traced

    def totals(self) -> tuple[dict, dict]:
        """Inclusive and self time per span name."""
        total: defaultdict[str, float] = defaultdict(float)
        child: defaultdict[int, float] = defaultdict(float)
        for name, t0, t1, parent in self.spans:
            total[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        self_time: defaultdict[str, float] = defaultdict(float)
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            self_time[name] += (t1 - t0) - child[idx]
        return dict(total), dict(self_time)


class _LUProxy:
    """A SuperLU factor whose ``solve`` calls are traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _SplaProxy:
    """Stand-in for ``scipy.sparse.linalg`` inside one calling module."""

    def __init__(self, real, splu):
        self._real = real
        self.splu = splu

    def __getattr__(self, attr):
        return getattr(self._real, attr)


def install(tracer: Tracer) -> None:
    """Wrap the traced names in the loaded ``xbarsim`` modules."""
    from xbarsim import analytics, crossbar, experiments, readout, solver
    from xbarsim.devices import CellGrid

    t, c = tracer, tracer.counts

    def count_cols(args, kwargs, out):
        rhs = args[0]
        c["solver.trisolve_cols"] += rhs.shape[1] if getattr(rhs, "ndim", 1) == 2 else 1

    def traced_splu(real_splu):
        def after(args, kwargs, lu):
            c["solver.factor_fill_nnz"] += lu.nnz

        def splu(*args, **kwargs):
            lu = real_splu(*args, **kwargs)
            return _LUProxy(lu, t.wrap("solver.trisolve", lu.solve, count_cols))

        return t.wrap("solver.factor", splu, after)

    for mod in (solver, readout):
        mod.spla = _SplaProxy(mod.spla, traced_splu(mod.spla.splu))

    def newton(args, kwargs, sol):
        c["solver.newton_iters"] += sol.iterations

    solver.solve_linear = t.wrap("solver.solve_linear", solver.solve_linear)
    solver.solve_nonlinear = t.wrap("solver.solve_nonlinear", solver.solve_nonlinear, newton)
    check_grounded = t.wrap("solver.check_grounded", solver.check_grounded)
    for mod in (solver, readout):
        mod.check_grounded = check_grounded
    # RowReadSession's per-row exact fallback is the only call from readout
    # into solve_nonlinear.
    readout.solve_nonlinear = t.wrap("readout.chord_fallback", solver.solve_nonlinear)

    build_network = t.wrap("crossbar.build_network", crossbar.build_network)
    row_read_bias = t.wrap("crossbar.row_read_bias", crossbar.row_read_bias)
    for mod in (crossbar, readout, analytics):
        mod.build_network = build_network
        mod.row_read_bias = row_read_bias

    def rows_cols(args, kwargs, out):
        c["readout.solve_rows_cols"] += out.shape[1]

    def conv_cells(args, kwargs, out):
        c["readout.conv_cells"] += len(out)

    def one_cell(args, kwargs, out):
        c["readout.conv_cells"] += 1

    rs, cs = readout.RowReadSession, readout.ConventionalSession
    rs.__init__ = t.wrap("readout.session_init", rs.__init__)
    rs.solve_rows = t.wrap("readout.solve_rows", rs.solve_rows, rows_cols)
    cs.__init__ = t.wrap("readout.conv_session", cs.__init__)
    cs.currents = t.wrap("readout.conv_session", cs.currents, conv_cells)
    readout.read_cell_conventional = t.wrap(
        "readout.read_cell", readout.read_cell_conventional, one_cell)

    analytics.power_row_approx = t.wrap("analytics.power_approx", analytics.power_row_approx)
    analytics.mismatch_simulation_check = t.wrap(
        "analytics.mismatch_check", analytics.mismatch_simulation_check)

    real_write_csv = experiments.write_csv

    def write_csv(path, header, rows):
        def counted():
            for row in rows:
                c["io.csv_rows"] += 1
                yield row

        return real_write_csv(path, header, counted())

    experiments.write_csv = t.wrap("io.write_csv", write_csv)
    experiments.write_summary_json = t.wrap("io.write_json", experiments.write_summary_json)

    CellGrid.sample = classmethod(t.wrap("devices.sample", CellGrid.sample.__func__))

    for name in ("run_row_read_map", "run_power_sweep", "run_cdf_conventional",
                 "run_mismatch_sweep"):
        setattr(experiments, name, t.wrap("experiments.campaign", getattr(experiments, name)))


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, per campaign round, as ``{name: (value, unit)}``."""
    total, self_time = tracer.totals()
    c = tracer.counts

    def per(v):
        return v / rounds

    trisolve_s = total.get("solver.trisolve", 0.0)
    cols = c["solver.trisolve_cols"]
    return {
        "crossbar.build_network_s": (per(total.get("crossbar.build_network", 0.0)), "s"),
        "crossbar.build_network_calls": (per(c["crossbar.build_network.calls"]), "count"),
        "crossbar.row_read_bias_s": (per(total.get("crossbar.row_read_bias", 0.0)), "s"),
        "solver.factor_s": (per(total.get("solver.factor", 0.0)), "s"),
        "solver.factor_calls": (per(c["solver.factor.calls"]), "count"),
        "solver.factor_fill_nnz": (per(c["solver.factor_fill_nnz"]), "count"),
        "solver.trisolve_s": (per(trisolve_s), "s"),
        "solver.trisolve_cols": (per(cols), "count"),
        "solver.ms_per_rhs": (1e3 * trisolve_s / cols if cols else 0.0, "ms"),
        "solver.solve_nonlinear_s": (per(total.get("solver.solve_nonlinear", 0.0)), "s"),
        "solver.solve_nonlinear_calls": (per(c["solver.solve_nonlinear.calls"]), "count"),
        "solver.newton_iters": (per(c["solver.newton_iters"]), "count"),
        "solver.solve_linear_s": (per(total.get("solver.solve_linear", 0.0)), "s"),
        "solver.check_grounded_s": (per(total.get("solver.check_grounded", 0.0)), "s"),
        "readout.session_init_s": (per(total.get("readout.session_init", 0.0)), "s"),
        "readout.solve_rows_s": (per(total.get("readout.solve_rows", 0.0)), "s"),
        "readout.solve_rows_cols": (per(c["readout.solve_rows_cols"]), "count"),
        "readout.chord_fallbacks": (per(c["readout.chord_fallback.calls"]), "count"),
        "readout.conv_session_s": (per(total.get("readout.conv_session", 0.0)), "s"),
        "readout.conv_cells": (per(c["readout.conv_cells"]), "count"),
        "readout.read_cell_s": (per(total.get("readout.read_cell", 0.0)), "s"),
        "analytics.power_approx_s": (per(total.get("analytics.power_approx", 0.0)), "s"),
        "analytics.power_approx_calls": (per(c["analytics.power_approx.calls"]), "count"),
        "analytics.mismatch_check_s": (per(total.get("analytics.mismatch_check", 0.0)), "s"),
        "io.write_csv_s": (per(total.get("io.write_csv", 0.0)), "s"),
        "io.csv_rows": (per(c["io.csv_rows"]), "count"),
        "io.write_json_s": (per(total.get("io.write_json", 0.0)), "s"),
        "devices.sample_s": (per(total.get("devices.sample", 0.0)), "s"),
        "experiments.campaign_s": (per(self_time.get("experiments.campaign", 0.0)), "s"),
    }
