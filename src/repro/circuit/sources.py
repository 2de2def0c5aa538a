"""Independent sources and their time functions.

Time functions are pure descriptions evaluated by the compiled circuit.
Pulse-type sources use *smoothstep* edges (C1-continuous) instead of the
SPICE piecewise-linear ramps: fixed-grid integrators and Fourier-based
LPTV analyses both behave much better without slope discontinuities, and
every bundled testbench is built from periodic smooth pulses so that the
circuit has an exact periodic steady state (paper Section IV).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .elements import Element


class TimeFunction:
    """Base class: a time-dependent scalar value ``v(t)``."""

    def __call__(self, t):
        """Value at *t*; an array of times gives the array of values,
        each equal to the scalar evaluation (fixed-grid loops tabulate
        sources this way, :class:`~repro.analysis.stamps.SourceTable`)."""
        raise NotImplementedError

    @property
    def period(self) -> float | None:
        """Fundamental period [s], or ``None`` for aperiodic functions."""
        return None

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        """Slope-corner times of the waveform inside ``(t0, t1)``.

        Adaptive integrators register these as exact landing points so
        the LTE controller does not burn rejection bursts rediscovering
        each edge (see :mod:`repro.analysis.transient`).  Smooth
        waveforms (DC, sine) have none.
        """
        return np.empty(0)


@dataclass
class Dc(TimeFunction):
    """Constant value.  *value* may be an array for batched sweeps
    (every Monte-Carlo sample / bisection lane sees its own level)."""

    value: float | np.ndarray = 0.0

    def __call__(self, t):
        t = np.asarray(t)
        if t.ndim == 0:
            return self.value
        return np.multiply.outer(np.ones_like(t, dtype=float), self.value)

    @property
    def period(self) -> float | None:
        return None


@dataclass
class Sine(TimeFunction):
    """``offset + amplitude * sin(2 pi freq (t - delay))``."""

    offset: float = 0.0
    amplitude: float = 1.0
    freq: float = 1.0
    delay: float = 0.0

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return self.offset + self.amplitude * np.sin(
            2.0 * np.pi * self.freq * (t - self.delay))

    @property
    def period(self) -> float | None:
        return 1.0 / self.freq


def smoothstep(u):
    """Cubic smoothstep ``3u^2 - 2u^3`` clamped to [0, 1]."""
    u = np.clip(u, 0.0, 1.0)
    return u * u * (3.0 - 2.0 * u)


def periodic_breakpoints(offsets: Sequence[float], base: float,
                         period: float, t0: float, t1: float) -> np.ndarray:
    """Expand per-period corner *offsets* (relative to *base*, repeating
    every *period*) into the open interval ``(t0, t1)``.

    Returns an empty array when the expansion would exceed one million
    points (a pathological span/period ratio where per-edge landing is
    hopeless anyway).
    """
    offs = np.asarray(offsets, dtype=float)
    if t1 <= t0 or offs.size == 0 or period <= 0.0:
        return np.empty(0)
    k0 = int(np.floor((t0 - base) / period)) - 1
    k1 = int(np.ceil((t1 - base) / period)) + 1
    if (k1 - k0 + 1) * offs.size > 1_000_000:
        return np.empty(0)
    ks = np.arange(k0, k1 + 1, dtype=float)
    pts = (base + ks[:, None] * period + offs[None, :]).ravel()
    return pts[(pts > t0) & (pts < t1)]


@dataclass
class SmoothPulse(TimeFunction):
    """Periodic pulse with smoothstep edges.

    One period, starting at ``t = delay`` (phase wraps before it):
    rise from *v0* to *v1* over *t_rise*, hold *v1* for *t_high*, fall
    over *t_fall*, hold *v0* for the remainder of *t_period*.
    """

    v0: float = 0.0
    v1: float = 1.0
    delay: float = 0.0
    t_rise: float = 1e-12
    t_high: float = 0.0
    t_fall: float = 1e-12
    t_period: float = 1.0

    def __post_init__(self):
        active = self.t_rise + self.t_high + self.t_fall
        if active > self.t_period:
            raise ValueError("pulse edges/high time exceed the period")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        ph = np.mod(t - self.delay, self.t_period)
        v = np.full_like(ph, float(self.v0))
        # rising edge
        u = ph / self.t_rise
        rising = ph < self.t_rise
        v = np.where(rising, self.v0 + (self.v1 - self.v0) * smoothstep(u), v)
        # high plateau
        t1 = self.t_rise + self.t_high
        v = np.where((ph >= self.t_rise) & (ph < t1), self.v1, v)
        # falling edge
        u2 = (ph - t1) / self.t_fall
        falling = (ph >= t1) & (ph < t1 + self.t_fall)
        v = np.where(falling,
                     self.v1 + (self.v0 - self.v1) * smoothstep(u2), v)
        return v if v.ndim else float(v)

    @property
    def period(self) -> float | None:
        return self.t_period

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        t_r = self.t_rise
        t_f1 = t_r + self.t_high
        offsets = [0.0, t_r, t_f1, t_f1 + self.t_fall]
        return periodic_breakpoints(offsets, self.delay, self.t_period,
                                    t0, t1)


@dataclass
class Pwl(TimeFunction):
    """Piecewise-linear waveform through ``(times, values)``; optionally
    repeated with period *t_period* (points must then span one period)."""

    times: Sequence[float] = field(default_factory=list)
    values: Sequence[float] = field(default_factory=list)
    t_period: float | None = None

    def __post_init__(self):
        self._t = np.asarray(self.times, dtype=float)
        self._v = np.asarray(self.values, dtype=float)
        if self._t.size != self._v.size or self._t.size < 2:
            raise ValueError("PWL needs matching times/values, >= 2 points")
        if np.any(np.diff(self._t) <= 0):
            raise ValueError("PWL times must be strictly increasing")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.t_period is not None:
            t = self._t[0] + np.mod(t - self._t[0], self.t_period)
        out = np.interp(t, self._t, self._v)
        return out if out.ndim else float(out)

    @property
    def period(self) -> float | None:
        return self.t_period

    def breakpoints(self, t0: float, t1: float) -> np.ndarray:
        if self.t_period is None:
            pts = self._t
            return pts[(pts > t0) & (pts < t1)]
        return periodic_breakpoints(self._t - self._t[0], self._t[0],
                                    self.t_period, t0, t1)


@dataclass
class VoltageSource(Element):
    """Independent voltage source between *pos* and *neg* (``n_branch=1``).

    The branch current unknown flows from *pos* through the source to
    *neg* (SPICE convention).
    """

    pos: str = "0"
    neg: str = "0"
    wave: TimeFunction = field(default_factory=Dc)

    def __post_init__(self):
        self.n_branch = 1

    def nodes(self):
        return (self.pos, self.neg)


@dataclass
class CurrentSource(Element):
    """Independent current source; positive current flows from *pos*
    through the source into *neg* (SPICE convention)."""

    pos: str = "0"
    neg: str = "0"
    wave: TimeFunction = field(default_factory=Dc)

    def nodes(self):
        return (self.pos, self.neg)
