"""Switching-device models for selector-less crossbar cells.

Two models are supported: an ohmic two-state resistor (distinct low/high
resistance values) and an exponential device whose current follows
``I = k * sinh(a * V)`` with a state-dependent current scale ``k``.
Cell-to-cell variation is applied multiplicatively to the resistance
(linear model) or to ``k`` (exponential model) with a truncated Gaussian
factor, derived deterministically from (seed, row, col) so that sampling
is independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

# Stored-bit convention: 1 = low-resistance state, 0 = high-resistance state.
LRS = 1
HRS = 0

_TRUNC_SIGMAS = 3.0


@dataclass(frozen=True)
class LinearDeviceParams:
    """Ohmic device: one resistance per state."""

    lrs_ohms: float = 1e6
    hrs_ohms: float = 1e9

    def __post_init__(self):
        if not (np.isfinite(self.lrs_ohms) and self.lrs_ohms > 0):
            raise ValueError(f"lrs_ohms must be finite and > 0, got {self.lrs_ohms}")
        if not (np.isfinite(self.hrs_ohms) and self.hrs_ohms > self.lrs_ohms):
            raise ValueError(
                f"hrs_ohms must be finite and > lrs_ohms ({self.lrs_ohms}), got {self.hrs_ohms}"
            )


@dataclass(frozen=True)
class NonlinearDeviceParams:
    """Exponential device: I = k * sinh(a * V), k set by the stored state."""

    k_on: float = 1e-8
    k_off: float = 1e-11
    a: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.k_off) and self.k_off > 0):
            raise ValueError(f"k_off must be finite and > 0, got {self.k_off}")
        if not (np.isfinite(self.k_on) and self.k_on > self.k_off):
            raise ValueError(f"k_on must be finite and > k_off ({self.k_off}), got {self.k_on}")
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError(f"a must be finite and > 0, got {self.a}")


DeviceParams = LinearDeviceParams | NonlinearDeviceParams


@dataclass(frozen=True)
class VariationSpec:
    """Multiplicative device variation: Normal(1, relative_sigma) truncated to 3 sigma."""

    relative_sigma: float = 0.10
    seed: int = 1

    def __post_init__(self):
        if not (0.0 <= self.relative_sigma < 1.0 / 3.0):
            raise ValueError(
                f"relative_sigma must be in [0, 1/3), got {self.relative_sigma}"
            )


def _splitmix64(x: np.ndarray) -> np.ndarray:
    # Standard splitmix64 finalizer; uint64 arithmetic wraps mod 2**64.
    with np.errstate(over="ignore"):
        x = (x + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _cell_uniform(seed: int, i, j, draw: int) -> np.ndarray:
    """Deterministic uniform in (0, 1) keyed by (seed, i, j, draw)."""
    i = np.asarray(i, dtype=np.uint64)
    j = np.asarray(j, dtype=np.uint64)
    h = _splitmix64(np.uint64(seed & 0xFFFFFFFFFFFFFFFF) ^ np.uint64(draw) * np.uint64(0xD6E8FEB86659FD93))
    h = _splitmix64(h + i)
    h = _splitmix64(h + j)
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def variation_factor(var: VariationSpec, i, j, draw: int) -> np.ndarray:
    """Multiplicative factor ~ Normal(1, sigma) truncated to [1-3s, 1+3s].

    Evaluated by inverse-CDF on the truncated range, so scalar and array
    evaluation produce bit-identical values for the same (seed, i, j, draw).
    """
    if var.relative_sigma == 0.0:
        return np.ones(np.broadcast(np.asarray(i), np.asarray(j)).shape)
    u = _cell_uniform(var.seed, i, j, draw)
    lo = ndtr(-_TRUNC_SIGMAS)
    q = ndtri(lo + u * (1.0 - 2.0 * lo))
    return 1.0 + var.relative_sigma * q


class CellGrid:
    """Realized parameters for every cell of an M x N array, and the device
    law (``currents``, ``conductances``) every solve evaluates.

    Both states of cell (i, j) receive independent variation factors
    (draws 0 and 1) keyed by (seed, i, j) alone, so a cell's values do not
    depend on the grid size or on sampling order.  Arrays are read-only
    after construction.
    """

    def __init__(self, base: DeviceParams, var: VariationSpec, on_values: np.ndarray, off_values: np.ndarray):
        if on_values.shape != off_values.shape or on_values.ndim != 2:
            raise ValueError("on/off parameter grids must share one 2-D shape")
        self.base = base
        self.var = var
        self._on = on_values
        self._off = off_values
        for arr in (self._on, self._off):
            arr.setflags(write=False)

    @classmethod
    def sample(cls, rows: int, cols: int, base: DeviceParams, var: VariationSpec) -> "CellGrid":
        ii, jj = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        f_on = variation_factor(var, ii, jj, draw=0)
        f_off = variation_factor(var, ii, jj, draw=1)
        if isinstance(base, LinearDeviceParams):
            return cls(base, var, base.lrs_ohms * f_on, base.hrs_ohms * f_off)
        if isinstance(base, NonlinearDeviceParams):
            return cls(base, var, base.k_on * f_on, base.k_off * f_off)
        raise TypeError(f"unsupported device parameters: {type(base).__name__}")

    @property
    def shape(self) -> tuple[int, int]:
        return self._on.shape

    @property
    def is_linear(self) -> bool:
        return isinstance(self.base, LinearDeviceParams)

    @property
    def on_values(self) -> np.ndarray:
        """Per-cell LRS resistance (linear) or k_on (nonlinear)."""
        return self._on

    @property
    def off_values(self) -> np.ndarray:
        """Per-cell HRS resistance (linear) or k_off (nonlinear)."""
        return self._off

    def active_conductances(self, pattern: np.ndarray) -> np.ndarray:
        """Per-cell small-signal conductance for the stored states at zero bias."""
        if self.is_linear:
            r = np.where(pattern == LRS, self._on, self._off)
            return 1.0 / r
        k = np.where(pattern == LRS, self._on, self._off)
        return k * self.base.a

    def currents(self, pattern: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-cell current at per-cell voltages v: broadcastable to the grid,
        or the grid's shape plus a trailing axis with one column per solve."""
        p = np.where(pattern == LRS, self._on, self._off)
        if np.ndim(v) == p.ndim + 1:
            p = p[..., None]
        return v / p if self.is_linear else p * np.sinh(self.base.a * v)

    def conductances(self, pattern: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Per-cell differential conductance at per-cell voltages v."""
        if self.is_linear:
            r = np.where(pattern == LRS, self._on, self._off)
            return np.broadcast_to(1.0 / r, np.broadcast(v, r).shape).copy()
        k = np.where(pattern == LRS, self._on, self._off)
        return k * self.base.a * np.cosh(self.base.a * v)


def ideal_state_currents(base: DeviceParams, v: float) -> tuple[float, float]:
    """Nominal (LRS, HRS) currents of an isolated device at voltage v."""
    if isinstance(base, LinearDeviceParams):
        return v / base.lrs_ohms, v / base.hrs_ohms
    return base.k_on * np.sinh(base.a * v), base.k_off * np.sinh(base.a * v)
