"""Seeded campaigns that regenerate the headline results as data files:
single-cell read current CDFs, full row-readout current maps with
histograms, read-power sweeps versus array size and hold voltage, the
bias-mismatch column-width sweep, and a scheme comparison table.

Every campaign is a pure function of (configuration, master seed): trial
streams are keyed by stable indices, worker parallelism merges results by
index, and output files are byte-identical across runs and worker counts.
Output naming is ``{experiment}-{seed}.csv`` / ``.json``.
"""

from __future__ import annotations

import ctypes
import dataclasses
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import analytics, readout
from .config import RunConfig, config_echo
from .crossbar import FLOATING, CrossbarSpec, ResistiveLoad, random_pattern
from .devices import HRS, LRS, CellGrid, DeviceParams, VariationSpec
from .io import default_output_dir, write_csv, write_summary_json
from .readout import (
    ConventionalSession,
    RowReadSession,
    SchemeKind,
    best_threshold_ber,
    split_by_state,
)
from .solver import SolverConvergenceError, branch_power

# mallopt parameter numbers from glibc's <malloc.h>
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_BLOCK_MAX = 32 << 20  # glibc's ceiling for its adaptive mmap threshold (64-bit)


def _retain_freed_heap() -> None:
    """Keep freed heap memory in the process for the next allocation.

    Campaigns build and drop networks of a few megabytes thousands of times.
    glibc's adaptive thresholds hand the top of the heap back to the kernel
    after each one, and the next network faults it back in page by page: the
    mismatch sweep (single columns of up to 26004 rows) took about 33k page
    faults per sweep and spent 10-25% of its time in the kernel, more or less
    from one sweep to the next.  Fixing the thresholds where the adaptive rule
    tops out (blocks below 32 MB come from the heap, which is trimmed only
    past twice that) ends the churn.  Setting the trim threshold alone would
    freeze the mmap threshold at 128 kB and send every larger block to mmap.
    A C library without ``mallopt`` keeps its own policy.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, _HEAP_BLOCK_MAX)
    mallopt(_M_TRIM_THRESHOLD, 2 * _HEAP_BLOCK_MAX)


_retain_freed_heap()


def seeded_trial_stream(master_seed: int, trial_index: int) -> np.random.Generator:
    """Deterministic, pairwise-independent stream for one trial unit."""
    return np.random.default_rng(np.random.SeedSequence((master_seed, trial_index)))


def _derived_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def sample_trial(cfg: RunConfig, stream: int, rows: int, cols: int,
                 base: DeviceParams) -> tuple[np.ndarray, CellGrid, np.random.Generator]:
    """Stored pattern and sampled cells of one trial, drawn from its stream
    in a fixed order (pattern, then the variation seed); the stream is
    returned for the trial's further draws."""
    rng = seeded_trial_stream(cfg.experiment.master_seed, stream)
    pattern = random_pattern(rows, cols, rng, cfg.experiment.pattern_p)
    var = VariationSpec(cfg.variation.relative_sigma, _derived_seed(rng))
    return pattern, CellGrid.sample(rows, cols, base, var), rng


def _map_units(fn, units, workers: int) -> list:
    """Order-preserving map over independent trial units."""
    units = list(units)
    if workers <= 1 or len(units) <= 1:
        return [fn(u) for u in units]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, units))


def _ecdf(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    v = np.sort(np.asarray(values, dtype=float))
    return v, np.arange(1, v.size + 1) / v.size


def _out_paths(cfg: RunConfig, out_dir, name: str) -> tuple[Path, Path]:
    base = default_output_dir(out_dir if out_dir is not None else cfg.output_dir)
    seed = cfg.experiment.master_seed
    return base / f"{name}-{seed}.csv", base / f"{name}-{seed}.json"


# Conventional-read CDF ----------------------------------------------------------

def _conventional_reads(spec: CrossbarSpec, cells: CellGrid, pattern, rng,
                        take: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Draw up to ``take`` distinct cells and read each with the conventional
    single-cell scheme: one ``ConventionalSession`` for linear devices with
    a single-ended drive, else one ``read_cell_conventional`` solve per
    cell (a Newton solve for sinh devices, a factor per cell for
    double-sided linear arrays)."""
    flat = rng.choice(spec.rows * spec.cols, size=min(take, spec.rows * spec.cols), replace=False)
    targets = [(int(k) // spec.cols, int(k) % spec.cols) for k in flat]
    if cells.is_linear and not spec.double_sided_clamps:
        return targets, ConventionalSession(spec, cells, pattern).currents(targets)
    return targets, np.array([
        readout.read_cell_conventional(spec, cells, pattern, i, j) for i, j in targets
    ])


def run_cdf_conventional(cfg: RunConfig, out_dir=None) -> dict:
    """Sample single-cell conventional reads over random backgrounds and emit
    the per-state current CDFs plus the best achievable threshold error."""
    exp = cfg.experiment
    spec = cfg.crossbar.to_spec()
    base = cfg.device.base_params()
    per_bg = -(-exp.sample_cells // exp.backgrounds)  # ceil division

    def one_background(t: int):
        pattern, cells, rng = sample_trial(cfg, t, spec.rows, spec.cols, base)
        try:
            targets, currents = _conventional_reads(spec, cells, pattern, rng, per_bg)
        except SolverConvergenceError as e:
            return t, [], str(e)
        rows = [
            (t, i, j, int(pattern[i, j]), float(c))
            for (i, j), c in zip(targets, currents)
        ]
        return t, rows, None

    results = _map_units(one_background, range(exp.backgrounds), exp.workers)
    observations, failures = [], []
    for t, rows, err in sorted(results, key=lambda r: r[0]):
        observations.extend(rows)
        if err:
            failures.append({"trial": t, "error": err})

    currents = np.array([r[4] for r in observations])
    bits = np.array([r[3] for r in observations])
    lrs, hrs = split_by_state(currents, bits)
    threshold, ber = best_threshold_ber(lrs, hrs)

    csv_path, json_path = _out_paths(cfg, out_dir, "cdf-conventional")
    write_csv(csv_path, ["trial", "row", "col", "true_bit", "current_A"], observations)
    cdf_rows = []
    for tag, vals in (("LRS", lrs), ("HRS", hrs)):
        v, p = _ecdf(vals)
        cdf_rows.extend((tag, float(x), float(q)) for x, q in zip(v, p))
    write_csv(csv_path.with_name(csv_path.stem + "-cdf.csv"),
              ["state", "current_A", "cum_prob"], cdf_rows)
    summary = {
        "experiment": "cdf-conventional",
        "seed": exp.master_seed,
        "samples": len(observations),
        "lrs_count": int(lrs.size),
        "hrs_count": int(hrs.size),
        "best_threshold_A": threshold,
        "best_ber": ber,
        "failures": failures,
        "config": config_echo(cfg),
    }
    write_summary_json(json_path, summary)
    return summary


# Row-readout current map --------------------------------------------------------

def run_row_read_map(cfg: RunConfig, out_dir=None) -> dict:
    """Read every row of one sampled array; emit the full sensed-current map,
    per-state histograms, and the separation statistics."""
    exp = cfg.experiment
    spec = cfg.crossbar.to_spec()
    base = cfg.device.base_params()
    pattern, cells, _ = sample_trial(cfg, 0, spec.rows, spec.cols, base)
    session = RowReadSession(spec, cells, pattern)
    current_map = session.row_currents(range(spec.rows))
    threshold = readout.midpoint_threshold(spec, base)
    read_bits = readout.classify(current_map, threshold)
    n_errors = int((read_bits != pattern).sum())

    lrs = current_map[pattern == LRS]
    hrs = current_map[pattern == HRS]
    min_lrs = float(lrs.min()) if lrs.size else float("nan")
    max_hrs = float(hrs.max()) if hrs.size else float("nan")
    separation = min_lrs / max_hrs if hrs.size and lrs.size else float("nan")

    csv_path, json_path = _out_paths(cfg, out_dir, "row-read-map")
    ii, jj = np.divmod(np.arange(pattern.size), spec.cols)
    write_csv(
        csv_path,
        ["row", "col", "true_bit", "current_A", "read_bit"],
        zip(ii.tolist(), jj.tolist(),
            pattern.ravel().tolist(),
            [float(x) for x in current_map.ravel()],
            read_bits.ravel().tolist()),
    )
    hist_rows = []
    for tag, vals in (("LRS", lrs), ("HRS", hrs)):
        if vals.size == 0:
            continue
        counts, edges = np.histogram(vals, bins=exp.map_bins)
        hist_rows.extend(
            (tag, float(edges[k]), float(edges[k + 1]), int(counts[k]))
            for k in range(counts.size)
        )
    write_csv(csv_path.with_name(csv_path.stem + "-hist.csv"),
              ["state", "bin_lo_A", "bin_hi_A", "count"], hist_rows)
    summary = {
        "experiment": "row-read-map",
        "seed": exp.master_seed,
        "device_model": cfg.device.model,
        "threshold_A": threshold,
        "errors": n_errors,
        "min_lrs_current_A": min_lrs,
        "max_hrs_current_A": max_hrs,
        "separation_ratio": separation,
        "config": config_echo(cfg),
    }
    write_summary_json(json_path, summary)
    return summary


# Power sweep ---------------------------------------------------------------------

def run_power_sweep(cfg: RunConfig, out_dir=None) -> dict:
    """Read power versus array size and hold voltage for both device models,
    as the wire-free approximation next to the network-exact value."""
    exp = cfg.experiment
    rows_out = []
    checks = {"exact_below_approx": True, "monotone_in_v_b": True}

    def one_unit(unit):
        idx, (model, size, trial) = unit
        dev_cfg = dataclasses.replace(cfg.device, model=model)
        base = dev_cfg.base_params()
        spec0 = dataclasses.replace(cfg.crossbar.to_spec(), rows=size, cols=size)
        pattern, cells, rng = sample_trial(cfg, 2000 + idx, size, size, base)
        sample_rows = sorted(rng.choice(size, size=min(exp.power_rows, size), replace=False).tolist())
        session = RowReadSession(spec0, cells, pattern)
        if cells.is_linear:
            # With linear devices and no mismatch offsets the node voltages
            # are V(v_b) = v_b + (v_dd - v_b) / v_dd * V(0): every branch
            # voltage scales with v_dd - v_b and every branch power with its
            # square, so one solve at v_b = 0 serves every hold voltage.
            power_0 = branch_power(session.net, session.solve_rows(sample_rows, v_b=0.0))
        out = []
        for v_b in exp.v_b_list:
            if not v_b < spec0.v_dd:
                continue
            spec_vb = dataclasses.replace(spec0, v_b=v_b)
            approx = [analytics.power_row_approx(spec_vb, pattern, cells, i) for i in sample_rows]
            if cells.is_linear:
                exact = ((spec0.v_dd - v_b) / spec0.v_dd) ** 2 * power_0
            else:
                exact = branch_power(session.net, session.solve_rows(sample_rows, v_b=v_b))
            array_approx = sum(analytics.power_rows_approx(spec_vb, pattern, cells).tolist())
            for k, i in enumerate(sample_rows):
                out.append((model, size, trial, float(v_b), i,
                            float(approx[k]), float(exact[k]),
                            float(array_approx), float(size * np.mean(exact))))
        return idx, out

    units = list(enumerate(
        (model, size, t)
        for model in ("linear", "nonlinear")
        for size in exp.sizes
        for t in range(exp.trials)
    ))
    results = _map_units(one_unit, units, exp.workers)
    for _, out in sorted(results, key=lambda r: r[0]):
        rows_out.extend(out)

    by_series: dict = {}
    for model, size, trial, v_b, row, p_approx, p_exact, *_ in rows_out:
        if model == "linear" and cfg.crossbar.r_wire > 0 and p_exact >= p_approx:
            checks["exact_below_approx"] = False
        by_series.setdefault((model, size, trial, row), []).append((v_b, p_exact))
    for series in by_series.values():
        series.sort()
        powers = [p for _, p in series]
        if any(b > a for a, b in zip(powers, powers[1:])):
            checks["monotone_in_v_b"] = False

    csv_path, json_path = _out_paths(cfg, out_dir, "power-sweep")
    write_csv(
        csv_path,
        ["model", "size", "trial", "v_b_V", "row",
         "power_row_approx_W", "power_row_exact_W",
         "power_array_approx_W", "power_array_exact_est_W"],
        rows_out,
    )
    summary = {
        "experiment": "power-sweep",
        "seed": exp.master_seed,
        "sizes": list(exp.sizes),
        "v_b_list": list(exp.v_b_list),
        "trials": exp.trials,
        "checks": checks,
        "config": config_echo(cfg),
    }
    write_summary_json(json_path, summary)
    return summary


# Mismatch sweep --------------------------------------------------------------------

def run_mismatch_sweep(cfg: RunConfig, out_dir=None) -> dict:
    """Analytic versus simulated maximum column width over an offset grid."""
    exp = cfg.experiment
    spec = cfg.crossbar.to_spec()
    rows_out = []
    table = []
    for model in ("linear", "nonlinear"):
        device = dataclasses.replace(cfg.device, model=model).base_params()
        for dv in exp.delta_v_grid:
            p = analytics.MismatchParams(dv, cfg.mismatch.i_max, cfg.mismatch.i_min)
            check = analytics.mismatch_simulation_check(
                spec, p, device, trials=exp.trials, master_seed=exp.master_seed
            )
            gap = float(check.relative_gap)
            rows_out.append((model, float(dv), check.n_max_analytic, check.n_max_empirical, gap))
            table.append({
                "model": model, "delta_v_V": float(dv),
                "n_max_analytic": check.n_max_analytic,
                "n_max_empirical": check.n_max_empirical,
                "relative_gap": gap if np.isfinite(gap) else None,
                "unbounded": check.unbounded,
            })
    csv_path, json_path = _out_paths(cfg, out_dir, "mismatch-sweep")
    write_csv(csv_path,
              ["model", "delta_v_V", "n_max_analytic", "n_max_empirical", "relative_gap"],
              rows_out)
    summary = {
        "experiment": "mismatch-sweep",
        "seed": exp.master_seed,
        "within_5pct": all(
            r["relative_gap"] is not None and r["relative_gap"] <= 0.05 for r in table
        ),
        "table": table,
        "config": config_echo(cfg),
    }
    write_summary_json(json_path, summary)
    return summary


# Scheme comparison -------------------------------------------------------------------

def _scheme_populations(scheme: str, cfg: RunConfig, spec: CrossbarSpec,
                        cells: CellGrid, pattern, rng) -> tuple[np.ndarray, np.ndarray, str]:
    exp = cfg.experiment
    rows = sorted(rng.choice(spec.rows, size=min(exp.scheme_rows, spec.rows), replace=False).tolist())
    if scheme == SchemeKind.CONVENTIONAL.value:
        targets, values = _conventional_reads(spec, cells, pattern, rng, min(exp.sample_cells, 256))
        bits = np.array([pattern[i, j] for i, j in targets])
        return values, bits, "A"
    bitlines = {
        SchemeKind.ROW_READOUT.value: None,
        SchemeKind.FLOATING_BITLINES.value: FLOATING,
        SchemeKind.RESISTIVE_LOAD.value: ResistiveLoad(exp.r_s),
    }
    if scheme not in bitlines:
        raise ValueError(f"unknown scheme {scheme!r}")
    session = RowReadSession(spec, cells, pattern, bitlines=bitlines[scheme])
    return session.row_currents(rows).ravel(), pattern[rows].ravel(), session.unit


def run_scheme_compare(cfg: RunConfig, out_dir=None) -> dict:
    """Best-threshold error rate and state margin per scheme and array size;
    flags the first size at which each scheme stops separating the states."""
    exp = cfg.experiment
    schemes = tuple(kind.value for kind in SchemeKind)

    def one_unit(unit):
        idx, (scheme, size) = unit
        spec = dataclasses.replace(cfg.crossbar.to_spec(), rows=size, cols=size)
        pattern, cells, rng = sample_trial(cfg, 1000 + idx, size, size, cfg.device.base_params())
        try:
            values, bits, unit_name = _scheme_populations(scheme, cfg, spec, cells, pattern, rng)
            lrs, hrs = split_by_state(values, bits)
            if lrs.size == 0 or hrs.size == 0:
                return idx, (scheme, size, float("nan"), float("nan"), 0, unit_name, "empty population")
            _, ber = best_threshold_ber(lrs, hrs)
            margin = float(lrs.min() / hrs.max()) if hrs.max() > 0 else float("inf")
            return idx, (scheme, size, ber, margin, int(values.size), unit_name, "")
        except SolverConvergenceError as e:
            return idx, (scheme, size, float("nan"), float("nan"), 0, "", str(e))

    units = list(enumerate((s, n) for s in schemes for n in exp.scheme_sizes))
    results = _map_units(one_unit, units, exp.workers)
    rows_out = [r for _, r in sorted(results, key=lambda x: x[0])]

    first_failing: dict = {}
    for scheme, size, ber, *_ in rows_out:
        if np.isnan(ber) or ber > exp.ber_fail_threshold:
            if scheme not in first_failing:
                first_failing[scheme] = int(size)
    csv_path, json_path = _out_paths(cfg, out_dir, "scheme-compare")
    write_csv(csv_path,
              ["scheme", "size", "best_ber", "margin_ratio", "samples", "unit", "note"],
              rows_out)
    summary = {
        "experiment": "scheme-compare",
        "seed": exp.master_seed,
        "sizes": list(exp.scheme_sizes),
        "first_failing_size": first_failing,
        "config": config_echo(cfg),
    }
    write_summary_json(json_path, summary)
    return summary
