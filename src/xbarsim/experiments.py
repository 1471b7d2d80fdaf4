"""Seeded campaigns that regenerate the headline results as data files:
single-cell read current CDFs, full row-readout current maps with
histograms, read-power sweeps versus array size and hold voltage, the
bias-mismatch column-width sweep, and a scheme comparison table.

Every campaign is a pure function of (configuration, master seed): trial
streams are keyed by stable indices, worker parallelism merges results by
index, and output files are byte-identical across runs and worker counts.
Every command writes its files through ``emit``: ``{experiment}-{seed}.csv``,
any side table as ``{experiment}-{seed}-{table}.csv`` (``-cdf``, ``-hist``)
and a ``{experiment}-{seed}.json`` summary; ``fom-table`` tags its files with
the bank count in place of the seed.
"""

from __future__ import annotations

import ctypes
import dataclasses
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import analytics, readout
from .config import RunConfig, config_echo
from .crossbar import FLOATING, CrossbarSpec, ResistiveLoad, random_pattern
from .devices import CellGrid, DeviceParams, VariationSpec
from .io import default_output_dir, write_csv, write_summary_json
from .readout import ConventionalSession, RowReadSession, best_threshold_ber, split_by_state
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


def emit(cfg: RunConfig, out_dir, name: str, summary: dict, *tables, tag=None) -> dict:
    """Write each table ``(suffix, header, rows)`` to ``{name}-{tag}{suffix}.csv``,
    then the summary, with ``experiment``, ``config`` and (when the tag is
    the master seed, its default) ``seed`` filled in, to ``{name}-{tag}.json``;
    return that summary.  ``write_csv`` and ``write_summary_json`` are read
    from this module, where the benchmark's layer tracer rebinds them."""
    seed = cfg.experiment.master_seed
    base = default_output_dir(out_dir if out_dir is not None else cfg.output_dir)
    stem = f"{name}-{seed if tag is None else tag}"
    for suffix, header, rows in tables:
        write_csv(base / f"{stem}{suffix}.csv", header, rows)
    summary = {"experiment": name, **({"seed": seed} if tag is None else {}),
               **summary, "config": config_echo(cfg)}
    write_summary_json(base / f"{stem}.json", summary)
    return summary


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
            return [], str(e)
        rows = [
            (t, i, j, int(pattern[i, j]), float(c))
            for (i, j), c in zip(targets, currents)
        ]
        return rows, None

    results = _map_units(one_background, range(exp.backgrounds), exp.workers)
    observations, failures = [], []
    for t, (rows, err) in enumerate(results):
        observations.extend(rows)
        if err:
            failures.append({"trial": t, "error": err})

    currents = np.array([r[4] for r in observations])
    bits = np.array([r[3] for r in observations])
    lrs, hrs = split_by_state(currents, bits)
    threshold, ber = best_threshold_ber(lrs, hrs)

    cdf_rows = []
    for tag, vals in (("LRS", lrs), ("HRS", hrs)):
        v = np.sort(vals)
        cdf_rows.extend((tag, float(x), (k + 1) / v.size) for k, x in enumerate(v))
    return emit(cfg, out_dir, "cdf-conventional", {
        "samples": len(observations),
        "lrs_count": int(lrs.size),
        "hrs_count": int(hrs.size),
        "best_threshold_A": threshold,
        "best_ber": ber,
        "failures": failures,
    }, ("", ["trial", "row", "col", "true_bit", "current_A"], observations),
        ("-cdf", ["state", "current_A", "cum_prob"], cdf_rows))


# Row-readout current map --------------------------------------------------------

def _read_rows(cfg: RunConfig, rows=None):
    """Read ``rows`` (default: every row) of trial 0's array in one clamped
    row session and classify each current at the midpoint threshold.

    Returns the stored bits of those rows, their currents, the threshold,
    the number of misread cells and the read's CSV table."""
    spec = cfg.crossbar.to_spec()
    base = cfg.device.base_params()
    pattern, cells, _ = sample_trial(cfg, 0, spec.rows, spec.cols, base)
    rows = list(range(spec.rows) if rows is None else rows)
    currents = RowReadSession(spec, cells, pattern).row_currents(rows)
    threshold = readout.midpoint_threshold(spec, base)
    bits, read_bits = pattern[rows], readout.classify(currents, threshold)
    table = ("", ["row", "col", "true_bit", "current_A", "read_bit"],
             zip(np.repeat(rows, spec.cols).tolist(), list(range(spec.cols)) * len(rows),
                 bits.ravel().tolist(), currents.ravel().tolist(), read_bits.ravel().tolist()))
    return bits, currents, threshold, int((read_bits != bits).sum()), table


def run_read_row(cfg: RunConfig, out_dir=None, row: int = 0) -> dict:
    """Read one row of the array ``run_row_read_map`` reads, on its own."""
    _, _, threshold, n_errors, table = _read_rows(cfg, [row])
    return emit(cfg, out_dir, "read-row",
                {"row": row, "threshold_A": threshold, "errors": n_errors}, table)


def run_row_read_map(cfg: RunConfig, out_dir=None) -> dict:
    """Read every row of one sampled array; emit the full sensed-current map,
    per-state histograms, and the separation statistics."""
    pattern, current_map, threshold, n_errors, table = _read_rows(cfg)
    lrs, hrs = split_by_state(current_map, pattern)
    min_lrs = float(lrs.min()) if lrs.size else float("nan")
    max_hrs = float(hrs.max()) if hrs.size else float("nan")
    separation = min_lrs / max_hrs if hrs.size and lrs.size else float("nan")

    hist_rows = []
    for tag, vals in (("LRS", lrs), ("HRS", hrs)):
        if vals.size == 0:
            continue
        counts, edges = np.histogram(vals, bins=cfg.experiment.map_bins)
        hist_rows.extend(
            (tag, float(edges[k]), float(edges[k + 1]), int(counts[k]))
            for k in range(counts.size)
        )
    return emit(cfg, out_dir, "row-read-map", {
        "device_model": cfg.device.model,
        "threshold_A": threshold,
        "errors": n_errors,
        "min_lrs_current_A": min_lrs,
        "max_hrs_current_A": max_hrs,
        "separation_ratio": separation,
    }, table, ("-hist", ["state", "bin_lo_A", "bin_hi_A", "count"], hist_rows))


# Power sweep ---------------------------------------------------------------------

def run_power_sweep(cfg: RunConfig, out_dir=None) -> dict:
    """Read power versus array size and hold voltage for both device models,
    as the wire-free approximation next to the network-exact value."""
    exp = cfg.experiment
    checks = {"exact_below_approx": True, "monotone_in_v_b": True}

    def one_unit(unit):
        idx, (model, size, trial) = unit
        base = dataclasses.replace(cfg.device, model=model).base_params()
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
        return out

    units = list(enumerate((model, size, t) for model in ("linear", "nonlinear")
                           for size in exp.sizes for t in range(exp.trials)))
    rows_out = [row for out in _map_units(one_unit, units, exp.workers) for row in out]

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

    return emit(cfg, out_dir, "power-sweep", {
        "sizes": list(exp.sizes),
        "v_b_list": list(exp.v_b_list),
        "trials": exp.trials,
        "checks": checks,
    }, ("", ["model", "size", "trial", "v_b_V", "row",
             "power_row_approx_W", "power_row_exact_W",
             "power_array_approx_W", "power_array_exact_est_W"], rows_out))


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
    return emit(cfg, out_dir, "mismatch-sweep", {
        "within_5pct": all(
            r["relative_gap"] is not None and r["relative_gap"] <= 0.05 for r in table
        ),
        "table": table,
    }, ("", ["model", "delta_v_V", "n_max_analytic", "n_max_empirical", "relative_gap"], rows_out))


# Scheme comparison -------------------------------------------------------------------

_SCHEMES = ("row-readout", "conventional", "floating-bitlines", "resistive-load")


def _scheme_populations(scheme: str, cfg: RunConfig, spec: CrossbarSpec,
                        cells: CellGrid, pattern, rng) -> tuple[np.ndarray, np.ndarray, str]:
    exp = cfg.experiment
    rows = sorted(rng.choice(spec.rows, size=min(exp.scheme_rows, spec.rows), replace=False).tolist())
    if scheme == "conventional":
        targets, values = _conventional_reads(spec, cells, pattern, rng, min(exp.sample_cells, 256))
        bits = np.array([pattern[i, j] for i, j in targets])
        return values, bits, "A"
    bitlines = {
        "row-readout": None,
        "floating-bitlines": FLOATING,
        "resistive-load": ResistiveLoad(exp.r_s),
    }
    session = RowReadSession(spec, cells, pattern, bitlines=bitlines[scheme])
    return session.row_currents(rows).ravel(), pattern[rows].ravel(), session.unit


def run_scheme_compare(cfg: RunConfig, out_dir=None) -> dict:
    """Best-threshold error rate and state margin per scheme and array size;
    flags the first size at which each scheme stops separating the states."""
    exp = cfg.experiment

    def one_unit(unit):
        idx, (scheme, size) = unit
        spec = dataclasses.replace(cfg.crossbar.to_spec(), rows=size, cols=size)
        pattern, cells, rng = sample_trial(cfg, 1000 + idx, size, size, cfg.device.base_params())
        try:
            values, bits, unit_name = _scheme_populations(scheme, cfg, spec, cells, pattern, rng)
            lrs, hrs = split_by_state(values, bits)
            if lrs.size == 0 or hrs.size == 0:
                return (scheme, size, float("nan"), float("nan"), 0, unit_name, "empty population")
            _, ber = best_threshold_ber(lrs, hrs)
            margin = float(lrs.min() / hrs.max()) if hrs.max() > 0 else float("inf")
            return (scheme, size, ber, margin, int(values.size), unit_name, "")
        except SolverConvergenceError as e:
            return (scheme, size, float("nan"), float("nan"), 0, "", str(e))

    units = list(enumerate((s, n) for s in _SCHEMES for n in exp.scheme_sizes))
    rows_out = _map_units(one_unit, units, exp.workers)

    first_failing: dict = {}
    for scheme, size, ber, *_ in rows_out:
        if np.isnan(ber) or ber > exp.ber_fail_threshold:
            first_failing.setdefault(scheme, int(size))
    return emit(cfg, out_dir, "scheme-compare", {
        "sizes": list(exp.scheme_sizes),
        "first_failing_size": first_failing,
    }, ("", ["scheme", "size", "best_ber", "margin_ratio", "samples", "unit", "note"], rows_out))


# Figure of merit -------------------------------------------------------------------

def run_fom_table(cfg: RunConfig, out_dir=None, banks: int = 1) -> dict:
    """Recompute the read-technique comparison with the row readout split
    into ``banks`` banks; its files are tagged with the bank count."""
    rows = analytics.technique_fom_table(r_banks=banks)
    return emit(cfg, out_dir, "fom-table", {
        "banks": banks,
        "all_match": all(r.matches_published for r in rows),
        "rows": [dataclasses.asdict(r) for r in rows],
    }, ("", ["technique", "readout_circuit", "locality_needed", "throughput",
             "array_usage", "power_W", "fom_recomputed", "fom_published", "match"],
        [(r.name, r.readout_circuit, r.locality_needed, r.throughput, r.array_usage,
          r.reading_power, r.fom_recomputed, r.fom_published,
          "MATCH" if r.matches_published else "MISMATCH") for r in rows]), tag=banks)
