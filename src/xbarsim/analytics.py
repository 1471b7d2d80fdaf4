"""Closed-form read-power estimates, the throughput/power/area figure of
merit with the published technique comparison, and bias-mismatch limits on
usable column width (analytic and simulation-checked)."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .crossbar import BiasMismatch, CrossbarSpec, build_network, row_read_bias
from .devices import (
    HRS,
    LRS,
    CellGrid,
    DeviceParams,
    LinearDeviceParams,
    VariationSpec,
    ideal_state_currents,
)
from .solver import bitline_currents, solve

# Cell area implied by an areal density of 640 Gbit/cm^2.
DEFAULT_CELL_AREA_UM2 = 1.0 / 6400.0  # um^2 per bit
# Tallest column a mismatch sweep simulates: it covers the default delta_v grid,
# whose widest bracket (sinh at 0.5 mV) is 52004 rows.
_SWEEP_CAP = 1 << 16


# Power -------------------------------------------------------------------------

def power_row_approx(spec: CrossbarSpec, pattern: np.ndarray, cells: CellGrid, i: int) -> float:
    """Read power of driving row i, ignoring wire resistance (realized cells)."""
    if not (0 <= i < spec.rows):
        raise IndexError(f"row {i} out of range")
    row_vals = np.where(pattern[i] == LRS, cells.on_values[i], cells.off_values[i])
    dv = spec.v_dd - spec.v_b
    return float(np.sum(dv * cells.currents(row_vals, dv)))


def power_rows_approx(spec: CrossbarSpec, pattern: np.ndarray, cells: CellGrid) -> np.ndarray:
    """``power_row_approx`` of every row at once, one entry per row."""
    dv = spec.v_dd - spec.v_b
    return np.sum(dv * cells.currents(cells.active_params(pattern), dv), axis=1)


# Figure of merit ----------------------------------------------------------------

@dataclass(frozen=True)
class FomInputs:
    """Ingredients of the read-technique figure of merit."""

    throughput: float  # bits per cycle
    array_usage: float  # usable fraction of stored bits
    reading_power: float  # W, for reading the complete array
    cell_count: int
    cell_area_um2: float = DEFAULT_CELL_AREA_UM2

    def __post_init__(self):
        if not (0 < self.array_usage <= 1):
            raise ValueError(f"array_usage must be in (0, 1], got {self.array_usage}")
        for name in ("throughput", "reading_power", "cell_count", "cell_area_um2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


def fom(inputs: FomInputs) -> float:
    """Figure of merit in Tbit / (W um^2): throughput times usage over
    per-cell reading power times cell area."""
    per_cell = inputs.reading_power / inputs.cell_count
    return inputs.throughput * inputs.array_usage / (per_cell * inputs.cell_area_um2) / 1e12


@dataclass(frozen=True)
class TechniqueRow:
    name: str
    readout_circuit: str
    locality_needed: bool
    throughput: float
    array_usage: float
    reading_power: float  # W
    fom_recomputed: float  # Tbit/(W um^2)
    fom_published: float
    matches_published: bool  # recomputed within 1% of published


def technique_fom_table(r_banks: int = 1) -> list[TechniqueRow]:
    """Recompute the published read-technique comparison for the 512 x 512
    array at the default cell area.

    The descriptors (throughput, usage, power) are frozen published
    values; only the figure-of-merit column is recomputed.  The row-read
    power, 1.358 mW per bank, scales with the bank count and is a published
    constant, not a derived one.
    """
    n = 512
    if r_banks < 1 or n % r_banks:
        raise ValueError(f"bank count {r_banks} must divide the word width {n}")
    cells = n * n
    rows = [
        ("Multistage reads", "ADC + Comp", False, 1.0 / 6.0, 1.0, 7e-3, 0.04),
        ("Multiport reads", "ADC + Comp", False, 1.0 / 3.0, (n - 2) / n, 2.1e-3, 0.265),
        ("Grounded rows & cols", "VG + Comp", False, 1.0, 1.0, 4e-3, 0.4194),
        ("Predefined dummy bits", "VG + Comp", True, 1.0, (n - 1) / n, 0.291e-3, 5.754),
        ("Row readout (this work)", "VG + Comp", False, n / r_banks, 1.0,
         1.358e-3 * r_banks, 633.0 / r_banks**2),
    ]
    out = []
    for name, circuit, locality, tput, usage, power, published in rows:
        value = fom(FomInputs(tput, usage, power, cells))
        out.append(
            TechniqueRow(
                name=name,
                readout_circuit=circuit,
                locality_needed=locality,
                throughput=tput,
                array_usage=usage,
                reading_power=power,
                fom_recomputed=value,
                fom_published=published,
                matches_published=abs(value - published) <= 0.01 * published,
            )
        )
    return out


def render_fom_table(rows: list[TechniqueRow]) -> str:
    header = f"{'Technique':<26}{'Throughput':>11}{'Usage':>8}{'Power(mW)':>11}{'FOM':>10}{'Published':>11}{'Match':>7}"
    lines = [header, "-" * len(header)]
    for r in rows:
        lines.append(
            f"{r.name:<26}{r.throughput:>11.4g}{r.array_usage:>8.4g}"
            f"{r.reading_power * 1e3:>11.4g}{r.fom_recomputed:>10.4g}"
            f"{r.fom_published:>11.4g}{'yes' if r.matches_published else 'NO':>7}"
        )
    return "\n".join(lines)


# Bias mismatch ------------------------------------------------------------------

@dataclass(frozen=True)
class MismatchParams:
    """Bias-mismatch scenario: line offset and tolerable current window.

    delta_v = 0 describes the ideal no-mismatch case: the parasitic current
    vanishes and no column-width limit exists.
    """

    delta_v: float = 2e-3
    i_max: float = 0.22e-6
    i_min: float = 0.195e-6

    def __post_init__(self):
        if not (np.isfinite(self.delta_v) and self.delta_v >= 0):
            raise ValueError(f"delta_v must be finite and >= 0, got {self.delta_v}")
        for name in ("i_max", "i_min"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


def mismatch_unwanted_current(n: int, p: MismatchParams, device: DeviceParams) -> tuple[float, float]:
    """Total parasitic current into one column from equal-probable unselected
    cells at offset delta_v: (exact two-state sum, dominant-state approximation)."""
    if n < 2:
        raise ValueError(f"column height n must be >= 2, got {n}")
    dv = p.delta_v
    if isinstance(device, LinearDeviceParams):
        exact = dv * (0.5 * n / device.lrs_ohms + (0.5 * n - 1) / device.hrs_ohms)
        approx = 0.5 * n * dv / device.lrs_ohms
    else:
        exact = device.a * dv * (0.5 * n * device.k_on + (0.5 * n - 1) * device.k_off)
        approx = 0.5 * n * device.a * dv * device.k_on
    return float(exact), float(approx)


def max_column_width(p: MismatchParams, device: DeviceParams) -> int:
    """Largest usable column height before mismatch current leaves the
    sensing window (floor of the binding window constraint)."""
    if p.delta_v == 0:
        raise ValueError("delta_v = 0 imposes no column-width limit")
    if isinstance(device, LinearDeviceParams):
        n_hi = 2.0 * p.i_max * device.lrs_ohms / p.delta_v
        n_lo = 2.0 * p.i_min * device.lrs_ohms / p.delta_v
    else:
        n_hi = 2.0 * p.i_max / (p.delta_v * device.a * device.k_on)
        n_lo = 2.0 * p.i_min / (p.delta_v * device.a * device.k_on)
    return int(np.floor(min(n_hi, n_lo)))


@dataclass(frozen=True)
class MismatchCheck:
    n_max_analytic: int | None  # None when no finite limit exists (delta_v = 0)
    n_max_empirical: int
    relative_gap: float
    unbounded: bool = False  # sweep cap reached without a violation


def _balanced_column_pattern(n: int, target_bit: int) -> np.ndarray:
    """Column of n cells: target in row 0, unselected half LRS / half HRS."""
    bits = np.zeros((n, 1), dtype=np.int8)
    bits[0, 0] = target_bit
    n_lrs = n // 2
    bits[1:n_lrs + 1, 0] = LRS
    return bits


def _simulated_unwanted(spec: CrossbarSpec, cells_base: DeviceParams, p: MismatchParams,
                        n: int, trials: int, master_seed: int) -> float:
    """Normalized |sensed - wanted| excursion for an n-cell column with every
    unselected wordline offset by +delta_v.

    One trial uses the deterministic half/half stored composition; more
    trials average random equal-probable patterns (the closed form models
    the expected composition), keeping the per-target worst case.
    """
    spec_n = dataclasses.replace(spec, rows=n, cols=1, bank_width=None, r_wire=0.0)
    cells = CellGrid.sample(n, 1, cells_base, VariationSpec(relative_sigma=0.0, seed=0))
    bias = row_read_bias(spec_n, 0, BiasMismatch.uniform(spec_n, p.delta_v, selected_row=0))
    wanted_lrs, wanted_hrs = ideal_state_currents(cells_base, spec.v_dd - spec.v_b)
    worst = 0.0
    for target in (LRS, HRS):
        wanted = wanted_lrs if target == LRS else wanted_hrs
        excursions = []
        for t in range(max(1, trials)):
            if trials <= 1:
                pattern = _balanced_column_pattern(n, target)
            else:
                rng = np.random.default_rng(np.random.SeedSequence((master_seed, n, t, target)))
                pattern = (rng.random((n, 1)) < 0.5).astype(np.int8)
                pattern[0, 0] = target
            net = build_network(spec_n, pattern, cells, bias)
            sensed = bitline_currents(net, solve(net).node_voltages)[0]
            excursions.append(abs(sensed - wanted))
        limit = p.i_max if target == LRS else p.i_min
        worst = max(worst, float(np.mean(excursions)) / limit)
    return worst


def mismatch_simulation_check(
    spec: CrossbarSpec,
    p: MismatchParams,
    device: DeviceParams,
    trials: int = 1,
    master_seed: int = 1,
) -> MismatchCheck:
    """Find the largest column height whose simulated mismatch current stays
    inside the sensing window, by bisection on the (monotone) normalized
    excursion, and compare with the closed form.

    The bracket starts at twice the closed-form limit and doubles until the
    window is left, never past ``_SWEEP_CAP`` rows; a column of
    ``_SWEEP_CAP`` rows still inside the window is reported ``unbounded``."""
    analytic = max_column_width(p, device) if p.delta_v > 0 else None
    lo = 2
    hi = min(_SWEEP_CAP, 2 * analytic + 4) if analytic is not None else _SWEEP_CAP
    if _simulated_unwanted(spec, device, p, lo, trials, master_seed) > 1.0:
        return MismatchCheck(analytic, 0, float("inf"))
    while _simulated_unwanted(spec, device, p, hi, trials, master_seed) <= 1.0:
        if hi >= _SWEEP_CAP:
            return MismatchCheck(analytic, _SWEEP_CAP, float("nan"), unbounded=True)
        hi = min(2 * hi, _SWEEP_CAP)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _simulated_unwanted(spec, device, p, mid, trials, master_seed) <= 1.0:
            lo = mid
        else:
            hi = mid
    gap = abs(lo - analytic) / analytic if analytic else float("nan")
    return MismatchCheck(analytic, lo, float(gap))
