"""Benchmark workloads: the campaigns each one calls, the output items it
requests, and the checks its outputs must pass.

Every input derives from the benchmark seed.  The checks never compare with
a stored copy of earlier output: they recompute what they can apart from the
campaign (closed forms, direct solves, the dense oracle) or test a property
the method must have.  A failed check raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from xbarsim import experiments, oracle, readout, solver
from xbarsim.config import (
    CrossbarConfig,
    DeviceConfig,
    ExperimentConfig,
    RunConfig,
    VariationConfig,
)
from xbarsim.crossbar import (
    TERM_RESISTIVE,
    build_network,
    conventional_cell_bias,
    random_pattern,
    row_read_bias,
)
from xbarsim.devices import CellGrid, LinearDeviceParams, VariationSpec

SIGMA = 0.10
MODELS = ("linear", "nonlinear")
SAMPLED_ROWS = 2  # rowmap rows per model checked against a direct solve
SAMPLED_CELLS = 2  # cellcdf cells per run checked against an independent solve
MIN_BER = 0.05  # floating unselected lines must leave the linear CDFs overlapping


class CheckError(AssertionError):
    """A campaign output failed a correctness check."""


def expect(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


@dataclass(frozen=True)
class Campaign:
    label: str  # output subdirectory
    runner: str  # name of the xbarsim.experiments.run_* function
    cfg: RunConfig
    items: int  # requested output items
    output: str  # experiment name: outputs are {output}-{seed}.csv / .json

    def run(self, out_dir: Path) -> dict:
        # Looked up at call time, so traced wrappers are used once installed.
        return getattr(experiments, self.runner)(self.cfg, out_dir / self.label)

    def csv_path(self, out_dir: Path) -> Path:
        return out_dir / self.label / f"{self.output}-{self.cfg.experiment.master_seed}.csv"

    def json_path(self, out_dir: Path) -> Path:
        return self.csv_path(out_dir).with_suffix(".json")


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    campaigns: tuple[Campaign, ...]
    check: Callable[["Workload", Path], None]

    @property
    def items(self) -> int:
        return sum(c.items for c in self.campaigns)


# Independent physics -------------------------------------------------------------

def leaving_currents(net, v) -> np.ndarray:
    """Net current leaving each node, summed branch by branch from the
    network arrays in extended precision."""
    vl = np.asarray(v, dtype=np.longdouble)
    out = np.zeros(net.n_nodes, dtype=np.longdouble)
    iw = net.wire_g.astype(np.longdouble) * (vl[net.wire_a] - vl[net.wire_b])
    np.add.at(out, net.wire_a, iw)
    np.add.at(out, net.wire_b, -iw)
    lrs = net.pattern.ravel() == 1
    par = np.where(lrs, net.cells.on_values.ravel(), net.cells.off_values.ravel())
    par = par.astype(np.longdouble)
    dv = vl[net.dev_a] - vl[net.dev_b]
    i_dev = dv / par if net.cells.is_linear else par * np.sinh(net.cells.base.a * dv)
    np.add.at(out, net.dev_a, i_dev)
    np.add.at(out, net.dev_b, -i_dev)
    return out


def sensed_current(net, leaving, j: int) -> float:
    """Current delivered into the sense termination of bitline j."""
    att = net.bl_attach[j]
    node = att.terminal_node if att.kind == TERM_RESISTIVE else att.attach_node
    return float(-leaving[node])


def cell_current(base, k, dv):
    """Isolated-device current at voltage dv for per-cell parameter k
    (resistance for ohmic devices, current scale for sinh devices)."""
    if isinstance(base, LinearDeviceParams):
        return dv / k
    return k * np.sinh(base.a * dv)


def solved_kcl(net, v) -> float:
    """Largest KCL imbalance over the unknown nodes."""
    unknown = ~net.fixed_mask
    return float(np.abs(leaving_currents(net, v)[unknown]).max()) if unknown.any() else 0.0


def best_balanced_error(lrs, hrs) -> float:
    """Smallest mean of the two per-state error rates over all thresholds."""
    lrs, hrs = np.sort(lrs), np.sort(hrs)
    pooled = np.unique(np.concatenate([lrs, hrs]))
    cuts = np.concatenate([[-np.inf], (pooled[:-1] + pooled[1:]) / 2, [np.inf]])
    miss_lrs = np.searchsorted(lrs, cuts, side="left") / lrs.size
    miss_hrs = 1.0 - np.searchsorted(hrs, cuts, side="left") / hrs.size
    return float((0.5 * (miss_lrs + miss_hrs)).min())


# Outputs ---------------------------------------------------------------------------

def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_summary(path: Path) -> dict:
    with open(path) as f:
        return json.load(f)


def _column(rows, key, kind=float) -> np.ndarray:
    return np.array([kind(r[key]) for r in rows])


def _close(a, b, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= max(abs_, rel * max(abs(a), abs(b)))


def _regenerate(cfg: RunConfig, size: int, stream: int):
    """Pattern, cells and the generator a campaign unit starts from."""
    rng = experiments.seeded_trial_stream(cfg.experiment.master_seed, stream)
    pattern = random_pattern(size, size, rng, cfg.experiment.pattern_p)
    var = VariationSpec(cfg.variation.relative_sigma, experiments._derived_seed(rng))
    cells = CellGrid.sample(size, size, cfg.device.base_params(), var)
    return pattern, cells, rng


def _config(seed: int, model: str, rows: int, double_sided: bool = False, **experiment) -> RunConfig:
    return RunConfig(
        crossbar=CrossbarConfig(rows=rows, cols=rows, double_sided_clamps=double_sided),
        device=DeviceConfig(model=model),
        variation=VariationConfig(relative_sigma=SIGMA, seed=seed),
        experiment=ExperimentConfig(master_seed=seed, workers=1, **experiment),
    )


def _pick(seed: int, n: int, k: int) -> list[int]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
    return sorted(rng.choice(n, size=min(k, n), replace=False).tolist())


# rowmap -------------------------------------------------------------------------

def rowmap(seed: int, n: int = 128) -> Workload:
    campaigns = tuple(
        Campaign(model, "run_row_read_map", _config(seed, model, n, double_sided=True),
                 n * n, "row-read-map")
        for model in MODELS
    )
    return Workload("rowmap", seed, campaigns, check_rowmap)


def check_rowmap(w: Workload, out: Path) -> None:
    separation, maps = {}, {}
    for c in w.campaigns:
        spec = c.cfg.crossbar.to_spec()
        base = c.cfg.device.base_params()
        m, n = spec.rows, spec.cols
        rows = read_rows(c.csv_path(out))
        expect(len(rows) == m * n, f"{c.label}: {len(rows)} map cells, want {m * n}")
        where = _column(rows, "row", int) * n + _column(rows, "col", int)
        expect((where == np.arange(m * n)).all(), f"{c.label}: map cells out of order")
        current = _column(rows, "current_A").reshape(m, n)
        true_bit = _column(rows, "true_bit", int).reshape(m, n)
        read_bit = _column(rows, "read_bit", int).reshape(m, n)
        pattern, cells, _ = _regenerate(c.cfg, n, 0)
        expect((true_bit == pattern).all(), f"{c.label}: stored bits differ from the seeded pattern")
        dv = spec.v_dd - spec.v_b
        threshold = math.sqrt(cell_current(base, _state(base, 1), dv)
                              * cell_current(base, _state(base, 0), dv))
        expect((read_bit == (current >= threshold)).all(),
               f"{c.label}: read bits disagree with the currents at {threshold:.4g} A")
        errors = int((read_bit != true_bit).sum())
        expect(errors == 0, f"{c.label}: {errors} classification errors")
        expect(read_summary(c.json_path(out))["errors"] == 0, f"{c.label}: summary reports errors")
        separation[c.label] = current[pattern == 1].min() / current[pattern == 0].max()
        maps[c.label] = (spec, pattern, cells, current)
    expect(separation["nonlinear"] > separation["linear"],
           f"sinh separation {separation['nonlinear']:.4g} not wider than "
           f"linear {separation['linear']:.4g}")

    for label, (spec, pattern, cells, current) in maps.items():
        for i in _pick(w.seed, spec.rows, SAMPLED_ROWS):
            net = build_network(spec, pattern, cells, row_read_bias(spec, i))
            v = solver.solve(net).node_voltages
            kcl = solved_kcl(net, v)
            expect(kcl <= 1e-12, f"{label}: row {i} direct solve KCL residual {kcl:.3e} A")
            leaving = leaving_currents(net, v)
            for j in range(spec.cols):
                want = sensed_current(net, leaving, j)
                expect(_close(current[i, j], want, 1e-9, 1e-12),
                       f"{label}: cell ({i}, {j}) reads {current[i, j]:.12g} A, "
                       f"direct solve gives {want:.12g} A")


def _state(base, bit: int) -> float:
    """Nominal per-cell parameter of a state."""
    if isinstance(base, LinearDeviceParams):
        return base.lrs_ohms if bit else base.hrs_ohms
    return base.k_on if bit else base.k_off


# powersweep ---------------------------------------------------------------------

def powersweep(seed: int, sizes=(64, 128, 192), power_rows: int = 4) -> Workload:
    cfg = _config(seed, "linear", 64, trials=1, sizes=tuple(sizes), power_rows=power_rows)
    n_vb = sum(1 for v in cfg.experiment.v_b_list if v < cfg.crossbar.v_dd)
    items = len(MODELS) * sum(min(power_rows, s) for s in sizes) * n_vb
    campaign = Campaign("sweep", "run_power_sweep", cfg, items, "power-sweep")
    return Workload("powersweep", seed, (campaign,), check_powersweep)


def check_powersweep(w: Workload, out: Path) -> None:
    (c,) = w.campaigns
    cfg, exp = c.cfg, c.cfg.experiment
    summary = read_summary(c.json_path(out))
    expect(summary["checks"] == {"exact_below_approx": True, "monotone_in_v_b": True},
           f"summary checks {summary['checks']}")
    rows = read_rows(c.csv_path(out))
    expect(len(rows) == c.items, f"{len(rows)} power values, want {c.items}")
    units = [(model, size, t) for model in MODELS for size in exp.sizes for t in range(exp.trials)]
    for idx, (model, size, trial) in enumerate(units):
        ucfg = dataclasses.replace(cfg, device=dataclasses.replace(cfg.device, model=model))
        base = ucfg.device.base_params()
        pattern, cells, rng = _regenerate(ucfg, size, 2000 + idx)
        sampled = sorted(rng.choice(size, size=min(exp.power_rows, size), replace=False).tolist())
        mine = [r for r in rows if r["model"] == model and int(r["size"]) == size
                and int(r["trial"]) == trial]
        expect(sorted({int(r["row"]) for r in mine}) == sampled,
               f"{model} {size}: sampled rows differ from the seeded draw")
        by_row: dict = {}
        for r in mine:
            i, v_b = int(r["row"]), float(r["v_b_V"])
            approx, exact = float(r["power_row_approx_W"]), float(r["power_row_exact_W"])
            k = np.where(pattern[i] == 1, cells.on_values[i], cells.off_values[i])
            dv = cfg.crossbar.v_dd - v_b
            want = float(np.sum(dv * cell_current(base, k, dv)))
            expect(_close(approx, want, 1e-10),
                   f"{model} {size} row {i} v_b={v_b}: wire-free power {approx:.12g} W, "
                   f"closed form {want:.12g} W")
            if model == "linear":
                expect(exact < approx, f"{model} {size} row {i} v_b={v_b}: exact power "
                                       f"{exact:.6g} W not below the wire-free bound")
            by_row.setdefault(i, []).append((v_b, exact))
        for i, series in by_row.items():
            powers = [p for _, p in sorted(series)]
            expect(all(b <= a for a, b in zip(powers, powers[1:])),
                   f"{model} {size} row {i}: exact power rises with the hold voltage")
        if size == min(exp.sizes) and trial == 0:
            r = mine[_pick(w.seed, len(mine), 1)[0]]
            i, v_b = int(r["row"]), float(r["v_b_V"])
            spec = dataclasses.replace(cfg.crossbar.to_spec(), rows=size, cols=size,
                                       bank_width=None, v_b=v_b)
            net = build_network(spec, pattern, cells, row_read_bias(spec, i))
            v = solver.solve(net).node_voltages
            leaving = leaving_currents(net, v)
            fixed = net.fixed_mask
            source = float(np.sum(v[fixed].astype(np.longdouble) * leaving[fixed]))
            exact = float(r["power_row_exact_W"])
            expect(_close(exact, source, 1e-6),
                   f"{model} {size} row {i} v_b={v_b}: exact power {exact:.12g} W, "
                   f"source power of a direct solve {source:.12g} W")


# cellcdf ---------------------------------------------------------------------------

def cellcdf(seed: int, linear=(128, 2048), sinh=(32, 128)) -> Workload:
    campaigns = tuple(
        Campaign(model, "run_cdf_conventional",
                 _config(seed, model, n, sample_cells=cells_, backgrounds=4),
                 cells_, "cdf-conventional")
        for model, (n, cells_) in zip(MODELS, (linear, sinh))
    )
    return Workload("cellcdf", seed, campaigns, check_cellcdf)


def check_cellcdf(w: Workload, out: Path) -> None:
    for c in w.campaigns:
        spec = c.cfg.crossbar.to_spec()
        exp = c.cfg.experiment
        rows = read_rows(c.csv_path(out))
        expect(len(rows) == c.items, f"{c.label}: {len(rows)} samples, want {c.items}")
        summary = read_summary(c.json_path(out))
        expect(summary["samples"] == c.items and not summary["failures"],
               f"{c.label}: summary reports {summary['samples']} samples, "
               f"failures {summary['failures']}")
        keys = {(r["trial"], r["row"], r["col"]) for r in rows}
        expect(len(keys) == len(rows), f"{c.label}: a cell is sampled twice")
        backgrounds = {t: _regenerate(c.cfg, spec.rows, t)[:2] for t in range(exp.backgrounds)}
        for r in rows:
            pattern = backgrounds[int(r["trial"])][0]
            expect(int(r["true_bit"]) == pattern[int(r["row"]), int(r["col"])],
                   f"{c.label}: stored bit of {r['trial']}/{r['row']}/{r['col']} "
                   "differs from the seeded pattern")
        current = _column(rows, "current_A")
        bits = _column(rows, "true_bit", int)
        if c.label == "linear":
            ber = best_balanced_error(current[bits == 1], current[bits == 0])
            expect(_close(ber, summary["best_ber"], 1e-12),
                   f"best BER {summary['best_ber']} in the summary, {ber} from the samples")
            expect(ber > MIN_BER, f"best BER {ber:.4f} not above {MIN_BER}")
        for k in _pick(w.seed, len(rows), SAMPLED_CELLS):
            r = rows[k]
            pattern, cells = backgrounds[int(r["trial"])]
            i, j = int(r["row"]), int(r["col"])
            got = float(r["current_A"])
            where = f"{c.label}: cell {r['trial']}/{i}/{j}"
            if c.label == "linear":
                want = readout.read_cell_conventional(spec, cells, pattern, i, j)
                expect(_close(got, want, 1e-7),
                       f"{where} session reads {got:.12g} A, single-cell solve {want:.12g} A")
                continue
            net = build_network(spec, pattern, cells, conventional_cell_bias(spec, i, j))
            dense = oracle.dense_reference_solve(net).node_voltages
            sparse = solver.solve(net).node_voltages
            gap = float(np.abs(dense - sparse).max())
            expect(gap <= 1e-10, f"{where}: sparse and dense voltages differ by {gap:.3e} V")
            want = sensed_current(net, leaving_currents(net, dense), j)
            expect(_close(got, want, 1e-9),
                   f"{where} reads {got:.12g} A, dense oracle gives {want:.12g} A")


# mismatch ------------------------------------------------------------------------

def mismatch(seed: int, delta_v=(1e-3, 2e-3, 3e-3, 4e-3, 5e-3)) -> Workload:
    # One trial uses the deterministic half/half column, so the seed only
    # names the output files.
    cfg = _config(seed, "linear", 512, trials=1, delta_v_grid=tuple(delta_v))
    campaign = Campaign("sweep", "run_mismatch_sweep", cfg, len(MODELS) * len(delta_v),
                        "mismatch-sweep")
    return Workload("mismatch", seed, (campaign,), check_mismatch)


def _empirical_limit(cfg: RunConfig, model: str, dv: float, i_min: float) -> tuple[int, int]:
    """Range of the largest column height whose unselected-cell current
    stays within i_min, allowing for rounding at the crossing.

    The mismatch column has ideal rails and no variation: each of the n-1
    unselected cells sees exactly dv, n//2 of them in LRS.
    """
    base = dataclasses.replace(cfg.device, model=model).base_params()
    n = np.arange(2, 40_001)
    i_on = cell_current(base, _state(base, 1), dv)
    i_off = cell_current(base, _state(base, 0), dv)
    unwanted = (n // 2) * i_on + (n - 1 - n // 2) * i_off
    lo = int(n[unwanted <= i_min * (1 - 1e-9)].max())
    hi = int(n[unwanted <= i_min * (1 + 1e-9)].max())
    return lo, hi


def check_mismatch(w: Workload, out: Path) -> None:
    (c,) = w.campaigns
    cfg = c.cfg
    rows = read_rows(c.csv_path(out))
    expect(len(rows) == c.items, f"{len(rows)} column limits, want {c.items}")
    summary = read_summary(c.json_path(out))
    expect(summary["within_5pct"] is True, "summary says a limit is off by more than 5%")
    i_bind = min(cfg.mismatch.i_max, cfg.mismatch.i_min)
    lin, non = cfg.device.linear_params(), cfg.device.nonlinear_params()
    seen = set()
    for r in rows:
        model, dv = r["model"], float(r["delta_v_V"])
        seen.add((model, dv))
        if model == "linear":
            bound = 2 * i_bind * lin.lrs_ohms / dv
        else:
            bound = 2 * i_bind / (dv * non.a * non.k_on)
        analytic, empirical = int(r["n_max_analytic"]), int(r["n_max_empirical"])
        expect(analytic == math.floor(bound * (1 + 1e-12)),
               f"{model} dv={dv}: analytic limit {analytic}, closed form {bound:.6g}")
        if math.isclose(dv, 2e-3):
            want = 195 if model == "linear" else 6500
            expect(analytic == want, f"{model} at 2 mV: analytic limit {analytic}, want {want}")
        gap = abs(empirical - analytic) / analytic
        expect(gap <= 0.05, f"{model} dv={dv}: simulated limit {empirical} is "
                            f"{100 * gap:.1f}% from the analytic {analytic}")
        lo, hi = _empirical_limit(cfg, model, dv, i_bind)
        expect(lo <= empirical <= hi,
               f"{model} dv={dv}: simulated limit {empirical}, crossing of the "
               f"exact column current at {lo}..{hi}")
    want = {(m, float(dv)) for m in MODELS for dv in cfg.experiment.delta_v_grid}
    expect(seen == want, f"limits reported for {sorted(seen)}, want {sorted(want)}")


WORKLOADS = {
    "rowmap": rowmap,
    "powersweep": powersweep,
    "cellcdf": cellcdf,
    "mismatch": mismatch,
}
