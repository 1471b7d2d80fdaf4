"""Behavioral model of the current-sensing stage and latched comparator.

The transimpedance stage is reduced to its affine law: a reference level
set by the internal bias currents, minus the sensed current times the load
resistance.  The comparator is a two-phase (reset, latch) decision element
with a configurable input noise margin; transient virtual-ground
disturbance and recovery enter only as configured worst-case constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np


class ComparatorPhase(Enum):
    RESET = "reset"
    LATCH = "latch"


class SequencingError(RuntimeError):
    """Latch requested without a reset phase earlier in the same cycle."""


@dataclass(frozen=True)
class SenseParams:
    """Configured constants of the sensing chain.

    The reference level is v_dd - (alpha * i_ref - i_1) * r_l; the mirror
    ratio alpha and bias currents i_ref / i_1 come from circuit sizing and
    are plain configuration inputs here.  Defaults give a 1.0 V reference
    with a 1 MOhm load.
    """

    v_dd: float = 1.2
    v_b: float = 0.7
    r_l: float = 1e6
    alpha: float = 2.0
    i_ref: float = 0.6e-6
    i_1: float = 1.0e-6
    noise_margin: float = 10e-3
    v_disturb_pos: float = 20e-3
    v_disturb_neg: float = -35e-3
    recovery_time: float = 1e-9
    energy_per_bit: float = 7.6e-15
    i_max: float = 0.22e-6
    i_min: float = 0.195e-6

    def __post_init__(self):
        for name in ("v_dd", "r_l", "alpha", "i_ref", "i_1", "noise_margin",
                     "recovery_time", "energy_per_bit", "i_max", "i_min"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not (np.isfinite(self.v_b) and 0 <= self.v_b < self.v_dd):
            raise ValueError(f"require 0 <= v_b < v_dd, got v_b={self.v_b}")
        if not (np.isfinite(self.v_disturb_pos) and self.v_disturb_pos >= 0):
            raise ValueError("v_disturb_pos must be >= 0")
        if not (np.isfinite(self.v_disturb_neg) and self.v_disturb_neg <= 0):
            raise ValueError("v_disturb_neg must be <= 0")

    @property
    def v_ref(self) -> float:
        return self.v_dd - (self.alpha * self.i_ref - self.i_1) * self.r_l


@dataclass(frozen=True)
class SenseOutput:
    voltage: float
    within_rails: bool


def sense_output_voltage(p: SenseParams, i_in: float) -> SenseOutput:
    """Affine stage output for a nonnegative sensed current.

    The voltage is reported even when it leaves [0, v_dd]; the flag lets a
    caller detect that the load resistance or biasing needs resizing.
    """
    if not (np.isfinite(i_in) and i_in >= 0):
        raise ValueError(f"i_in must be finite and >= 0, got {i_in}")
    v_o = p.v_ref - i_in * p.r_l
    return SenseOutput(float(v_o), bool(0.0 <= v_o <= p.v_dd))


@dataclass(frozen=True)
class LatchDecision:
    bit: int | None  # None while in reset (both rails high)
    reliable: bool
    phase: ComparatorPhase
    xor_output: int  # 0 in reset (outputs equal), 1 once latched


@dataclass
class LatchedComparator:
    """Reset-then-latch decision element.

    Each cycle must see a reset before its latch; the latch decision is the
    sign of the input differential, flagged unreliable inside the noise
    margin.  A trace of (cycle, phase, differential, bit, reliable) tuples
    is kept for export.
    """

    params: SenseParams
    _armed: bool = False
    _cycle: int = 0
    trace: list = field(default_factory=list)

    def step(self, phase: ComparatorPhase, differential: float = 0.0) -> LatchDecision:
        if not np.isfinite(differential):
            raise ValueError("differential must be finite")
        if phase is ComparatorPhase.RESET:
            self._armed = True
            self._cycle += 1
            out = LatchDecision(bit=None, reliable=False, phase=phase, xor_output=0)
        elif phase is ComparatorPhase.LATCH:
            if not self._armed:
                raise SequencingError(
                    f"latch in cycle {self._cycle + 1} without a preceding reset"
                )
            self._armed = False
            bit = 1 if differential >= 0 else 0
            reliable = abs(differential) >= self.params.noise_margin
            out = LatchDecision(bit=bit, reliable=reliable, phase=phase, xor_output=1)
        else:
            raise TypeError(f"unknown phase {phase!r}")
        self.trace.append(
            (self._cycle, phase.value, float(differential), out.bit, out.reliable)
        )
        return out

    def write_trace_csv(self, path) -> None:
        with open(path, "w") as f:
            f.write("cycle,phase,differential_V,bit,reliable\n")
            for cycle, phase, diff, bit, reliable in self.trace:
                b = "" if bit is None else str(bit)
                f.write(f"{cycle},{phase},{diff:.12g},{b},{int(reliable)}\n")


class MarginWindowError(ValueError):
    """An ideal read current violates the configured sensing window."""

    def __init__(self, message: str, offending_state: str):
        super().__init__(message)
        self.offending_state = offending_state


def current_margin_limits(p: SenseParams, lrs_current: float, hrs_current: float) -> tuple[float, float]:
    """Sensing-current window (i_max, i_min) used by the mismatch analysis.

    i_max bounds current excursions when reading a low-resistance cell and
    i_min when reading a high-resistance cell (the comparator noise margin
    mapped through the sense stage).  The ideal state currents must fit
    under their respective limits or the stage saturates before any
    mismatch is added.
    """
    if not (lrs_current > hrs_current):
        raise MarginWindowError(
            f"no sensing margin: LRS current {lrs_current:.4g} A must exceed "
            f"HRS current {hrs_current:.4g} A",
            offending_state="both",
        )
    if lrs_current > p.i_max:
        raise MarginWindowError(
            f"ideal LRS current {lrs_current:.4g} A exceeds i_max {p.i_max:.4g} A; "
            "resize the load resistance or bias point",
            offending_state="LRS",
        )
    if hrs_current > p.i_min:
        raise MarginWindowError(
            f"ideal HRS current {hrs_current:.4g} A exceeds i_min {p.i_min:.4g} A; "
            "resize the load resistance or bias point",
            offending_state="HRS",
        )
    return p.i_max, p.i_min
