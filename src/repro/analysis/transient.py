"""Transient analysis: fixed-grid and adaptive (LTE-controlled) stepping.

The integrator works on the charge-oriented MNA system

.. math:: \\frac{d}{dt} q(x) + i(x, t) = 0, \\qquad q(x) = C x

(all charges in the bundled element set are linear, see
:mod:`repro.analysis.mna`).  Two step drivers share one per-step solver:

**Fixed uniform grid** (the default).  Shooting PSS needs the one-period
state-transition map, which falls out of the per-step Jacobians only
when every Newton step lands on the same grid; the LPTV sensitivity
engine reuses the same grid, making the linear analysis exact on the
discretisation; and batched Monte-Carlo lanes must share time points to
be solved as one stacked system.  When ``t_stop - t_start`` is not an
integer multiple of ``dt`` the final step is *shortened to land exactly
on* ``t_stop`` (with a warning) instead of silently truncating or
overshooting the span.

**Adaptive stepping** (:attr:`TransientOptions.adaptive`).  A
local-truncation-error controller grows and shrinks the step within
``[dt_min, dt_max]``: every corrected solution is compared against an
embedded extrapolation predictor that costs no extra solves.  On
trapezoidal steps the predictor is the quadratic through the last three
accepted points - itself third-order, so the scaled difference isolates
trapezoidal's own O(h^3) truncation term (the classic
predictor-corrector estimate, step growing as ``rtol^(1/3)``); backward
Euler steps and the start-up phase fall back to the linear predictor
and the O(h^2) first-order estimate.  Steps whose estimate exceeds
``rtol``/``atol`` are rejected and retried smaller - as are steps whose
Newton iteration fails outright.  The stepper lands *exactly* on ``t_stop`` and on every
requested :attr:`TransientOptions.t_out` time (measurement-window
edges), so measurements never interpolate across a step boundary.
Batched Monte-Carlo lanes share one step sequence per stacked solve
(the controller takes the worst lane), which keeps chunked runs
deterministic and mergeable: a chunk's time grid depends only on the
chunk's own lanes.  The resulting :attr:`TransientResult.t` is
non-uniform; every consumer downstream (:class:`~repro.waveform.
Waveform` measurements, window masks) interpolates or uses local grid
spacing, so no uniformity assumption survives outside the PSS/LPTV
engines - which require the fixed grid and refuse ``adaptive``.

Trapezoidal is the default (second order, no numerical damping -
important for oscillator period accuracy); backward Euler is available
for heavily damped settling runs and is used for the very first step
after a raw initial condition (it swallows inconsistent ICs within one
step).

Every step runs :func:`~repro.analysis.dcop.newton_iterate`, the Newton
loop DC, the PSS period and transient noise share, with its own
residual and linear policy.  Linear solves go through the circuit's
pluggable backend (:mod:`repro.linalg`).  Backends whose policy allows
factorization reuse get a modified-Newton policy that keeps one
Jacobian factorization alive across iterations *and* time steps.  The
factorization cache is keyed on the *content* of the step-matrix
ingredients ``(theta, dt)`` (:meth:`~repro.linalg.FactorizationCache.
set_key`), so a changing step size can never be answered by a stale LU;
on the native-CSR path a ``dt`` change costs one ``c_lin_data / dt``
vector rescale (:meth:`~repro.analysis.mna.CsrAssembler.c_over_h_data`)
plus the re-factor itself.

Batched runs can additionally *isolate lane failures*
(:attr:`TransientOptions.isolate_lanes`): a Monte-Carlo sample whose
Newton iteration diverges or whose Jacobian goes singular is frozen and
reported in :attr:`TransientResult.failed_lanes` instead of killing the
remaining lanes.  On the adaptive grid a Newton failure first rejects
the step; lanes are only quarantined once the step floor is reached, so
healthy lanes never freeze just because the controller tried an
ambitious step.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..circuit.controlled import GateWindow
from ..circuit.sources import SmoothPulse
from ..errors import ConvergenceError, SingularMatrixError
from ..linalg import (Factorization, FactorizationCache,
                      mark_singular_lanes)
from ..waveform import WaveformSet
from .dcop import NewtonOptions, dc_operating_point, newton_iterate
from .mna import CompiledCircuit, ParamState

Method = str  # "trap" | "be"

#: Step-controller constants (classic I-controller with safety margin).
_SAFETY = 0.9
_GROW_MAX = 2.0
_SHRINK_MIN = 0.2


@dataclass
class TransientOptions:
    """Knobs for :func:`transient`."""

    method: Method = "trap"
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(
        max_step=1.0, max_iterations=50))
    #: Node names (or voltage-source names prefixed ``i:``) to record.
    #: ``None`` records every node voltage.
    record: list[str] | None = None
    #: Keep every ``stride``-th sample in the recorded signals
    #: (fixed grid only).
    stride: int = 1
    #: Store the full unknown trajectory (needed by PSS; batchless,
    #: fixed grid only).
    record_states: bool = False
    #: On batched runs, freeze lanes whose Newton solve diverges or goes
    #: singular (recorded as NaN in their signals and flagged in
    #: :attr:`TransientResult.failed_lanes`) instead of raising and
    #: killing the healthy lanes.  Ignored on batchless runs.
    isolate_lanes: bool = False
    #: Switch from the fixed uniform grid to LTE-controlled adaptive
    #: stepping.  The ``dt`` argument of :func:`transient` becomes a
    #: *ceiling on the initial step* (the controller starts at
    #: ``min(dt, span/1000)`` - the first step carries no error test -
    #: and ramps up from there); :attr:`rtol`/:attr:`atol` set the
    #: per-step error target, the step stays within
    #: ``[dt_min, dt_max]``, and the resulting
    #: :attr:`TransientResult.t` is non-uniform.
    adaptive: bool = False
    #: Relative local-error target per accepted step (adaptive only).
    rtol: float = 1e-3
    #: Absolute local-error floor [V or A] per unknown (adaptive only).
    atol: float = 1e-6
    #: Smallest step the controller may take.  ``None``: ``dt * 1e-9``.
    #: An error-test failure at the floor is accepted (nothing smaller
    #: exists); a Newton failure at the floor raises.
    dt_min: float | None = None
    #: Largest step the controller may take.  ``None``: an eighth of the
    #: span, further capped to 1/16 of the fastest periodic source or
    #: gate period - the LTE test only sees source activity *after*
    #: stepping over it, so the cap is what prevents aliasing a whole
    #: clock cycle away.
    dt_max: float | None = None
    #: Abort (``ConvergenceError``) after this many consecutive
    #: rejections of one step.
    max_rejections: int = 50
    #: Time points the adaptive stepper must land on *exactly* (e.g.
    #: measurement-window edges).  Points outside ``(t_start, t_stop)``
    #: are ignored; ``t_stop`` is always landed on.  Requires
    #: :attr:`adaptive` (the fixed grid cannot honour it and refuses).
    t_out: Sequence[float] | None = None
    #: Register every source/gate waveform corner (pulse edges, PWL
    #: corners, gate-window transitions; see
    #: :func:`source_breakpoints`) as an exact landing time of the
    #: adaptive stepper.  The LTE controller only *reacts* to an edge
    #: after stepping into it, so without the schedule every edge costs
    #: a burst of rejected steps; with it the stepper walks up to the
    #: edge exactly and restarts small on the other side.  Ignored on
    #: the fixed grid.
    breakpoints: bool = True


@dataclass
class TransientResult:
    """Output of :func:`transient`.

    ``t`` has ``K+1`` entries (including the start point); recorded
    signals are arrays of shape ``(K+1, *batch)``.  On a fixed-grid run
    ``t`` is uniform except possibly for a shortened final step (span
    not an integer multiple of ``dt``); on an adaptive run ``t`` is the
    accepted step sequence and generally non-uniform - consumers must
    use local spacing (as :func:`~repro.core.montecarlo.
    measurement_window_mask` does) or interpolate (as every
    :class:`~repro.waveform.Waveform` measurement does), never assume
    ``t[1] - t[0]`` holds globally.
    """

    compiled: CompiledCircuit
    state: ParamState
    t: np.ndarray
    signals: dict[str, np.ndarray]
    x_final_pad: np.ndarray
    states: np.ndarray | None = None
    #: Boolean mask of lanes frozen by :attr:`TransientOptions.isolate_lanes`
    #: (``None`` when isolation was off or the run was batchless).
    failed_lanes: np.ndarray | None = None
    #: Accepted integration steps (``len(t) - 1``, except on strided
    #: fixed-grid runs where ``t`` keeps every ``stride``-th sample).
    n_accepted: int = 0
    #: Steps rejected and retried by the adaptive controller (0 on the
    #: fixed grid).
    n_rejected: int = 0

    def signal(self, name: str) -> np.ndarray:
        try:
            return self.signals[name]
        except KeyError:
            raise KeyError(
                f"'{name}' was not recorded; available: "
                f"{sorted(self.signals)}") from None

    def waveset(self) -> WaveformSet:
        """Recorded signals as a :class:`WaveformSet` (batchless runs).

        Valid for adaptive runs too: waveform measurements interpolate
        on the (then non-uniform) time axis.
        """
        for v in self.signals.values():
            if v.ndim != 1:
                raise ValueError(
                    "waveset() is only available for batchless runs; "
                    "use .signal(name) for batched data")
        return WaveformSet(self.t, self.signals)


def _record_indices(compiled: CompiledCircuit,
                    record: list[str] | None) -> dict[str, int]:
    if record is None:
        return dict(compiled.node_index)
    out: dict[str, int] = {}
    for name in record:
        if name.startswith("i:"):
            out[name] = compiled.branch(name[2:])
        else:
            out[name] = compiled.idx(name)
            if out[name] == compiled.n:
                raise ValueError(f"cannot record ground node '{name}'")
    return out


class _LaneGuard:
    """Tracks and quarantines failed lanes of a batched Newton solve.

    A failed lane keeps its last accepted state during the rest of the
    run (so its residuals stay finite and its Jacobian rows are replaced
    by identity) and is NaN-ed out of the recorded signals at the end.
    """

    def __init__(self, batch_shape: tuple[int, ...], n: int):
        self.failed = np.zeros(batch_shape, dtype=bool)
        self.n = n

    @property
    def any(self) -> bool:
        return bool(self.failed.any())

    def scrub_rhs(self, rhs: np.ndarray) -> None:
        if self.any:
            rhs[self.failed] = 0.0

    def patch_jac(self, jac: np.ndarray) -> None:
        if self.any:
            jac[self.failed] = np.eye(self.n)

    def quarantine(self, mask: np.ndarray, x_pad: np.ndarray,
                   x_prev: np.ndarray) -> None:
        """Mark *mask* lanes failed and roll them back to ``x_prev``."""
        mask = mask & ~self.failed
        if mask.any():
            self.failed |= mask
            x_pad[mask] = x_prev[mask]

    def absorb_bad_delta(self, delta: np.ndarray, x_pad: np.ndarray,
                         x_prev: np.ndarray) -> None:
        """Quarantine lanes whose update is non-finite; zero their delta."""
        # a finite sum has only finite terms: one reduction settles the
        # common all-healthy case
        if np.isfinite(delta.sum()):
            return
        bad = ~np.all(np.isfinite(delta), axis=-1)
        if bad.any():
            self.quarantine(bad, x_pad, x_prev)
            delta[self.failed] = 0.0

    def worst(self, delta: np.ndarray) -> float:
        """Batch-max update norm over the healthy lanes."""
        mag = np.abs(delta)
        if not self.any:
            return float(mag.max())
        return float(np.where(self.failed, 0.0, mag.max(axis=-1)).max())


def _singular_error(compiled: CompiledCircuit, state: ParamState,
                    t_k: float, it: int, detail: str = ""
                    ) -> SingularMatrixError:
    return SingularMatrixError(
        f"singular transient Jacobian at t={t_k:.4e} on "
        f"'{compiled.circuit.name}'{detail}", iterations=it,
        theta_fingerprint=state.theta_fingerprint())


def _solve_isolated(solve, jac_builder, rhs: np.ndarray,
                    guard: _LaneGuard | None, compiled: CompiledCircuit,
                    state: ParamState, t_k: float, it: int,
                    exc: np.linalg.LinAlgError) -> np.ndarray:
    """Recover from *exc*, a failed first ``solve(rhs)`` at Newton
    iteration *it*: isolate the singular lanes and solve again.  Only
    this failure path calls *jac_builder* a second time."""
    if guard is None:
        raise _singular_error(compiled, state, t_k, it) from exc
    jac = jac_builder()
    if mark_singular_lanes(jac, guard.failed) == 0:
        raise _singular_error(compiled, state, t_k, it,
                              " (no offending lane found)") from exc
    guard.patch_jac(jac)
    guard.scrub_rhs(rhs)
    return solve(rhs)


class _NewtonWork:
    """Per-run buffers of one Newton loop.

    Holds the device-stamp scratch of batchless assembly
    (:class:`~repro.analysis.mna.AssemblyScratch`; batched states keep
    the reference path and need none), the step residual's operands
    (:func:`_residual`) and, with *dense_jac*, the ``(n, n)`` step
    matrix every dense Newton step builds (:func:`_step_matrix`).  Each
    run allocates its own: compiled circuits and parameter states are
    shared across threads by the session caches, a run is not.
    """

    def __init__(self, compiled: CompiledCircuit, state: ParamState,
                 batch_shape: tuple[int, ...], dense_jac: bool = False):
        n = compiled.n
        self.scratch = (None if state.batched
                        else compiled.scratch(batch_shape))
        self.dx = np.empty(batch_shape + (n + 1,))
        #: ``dx[..., None]``, the mat-vec's operand: a trailing-axis
        #: view keeps the matrix product a gemm (a gemv rounds apart)
        self.dx_col = self.dx[..., None]
        self.res_col = np.empty(batch_shape + (n + 1, 1))
        self.res = self.res_col[..., 0]
        #: the Newton right-hand side, ``res[..., :n]``
        self.rhs = self.res[..., :n]
        self.tmp = np.empty(batch_shape + (n + 1,))
        self.jac = np.empty(batch_shape + (n, n)) if dense_jac else None


class _StepSolver:
    """One implicit time step, behind the linear-solver-backend seam.

    Owns the per-run work buffers of whichever assembly path the
    backend selects (dense, dense with factorization reuse, or native
    CSR) and the step-size-dependent operands: :meth:`set_step` rescales
    ``C/h`` and re-keys the factorization cache on ``(theta, h)``, so
    both step drivers - fixed grid and adaptive - stay ignorant of the
    backend underneath.
    """

    def __init__(self, compiled: CompiledCircuit, state: ParamState,
                 opts: TransientOptions, batch_shape: tuple[int, ...],
                 theta_trap: np.ndarray, theta_be: np.ndarray):
        self.compiled = compiled
        self.state = state
        self.opts = opts
        self.batch_shape = batch_shape
        n = compiled.n
        # (theta, 1 - theta, content fingerprint) of both schemes,
        # computed once per run; set_step selects one
        self._thetas = {
            be: (theta, 1.0 - theta, theta.tobytes())
            for be, theta in ((False, theta_trap), (True, theta_be))}
        self.theta, self.one_minus, _ = self._thetas[False]

        reuse = compiled.backend.policy.reuse
        self.cache = (FactorizationCache(
            compiled.backend, jac_constant=not compiled.has_nonlinear)
            if reuse else None)
        self.guard = (_LaneGuard(batch_shape, n)
                      if opts.isolate_lanes and batch_shape else None)

        # native-CSR path: batchless runs on a wants_csr backend assemble
        # straight onto the circuit's sparsity plan - the sparse-native
        # state template is consumed as-is, residuals are CSR mat-vecs
        # and no dense (n+1)^2 array (template or buffer) ever exists
        self.use_csr = (self.cache is not None
                        and compiled.backend.wants_csr and not batch_shape)
        if self.use_csr:
            self.asm = compiled.csr_assembler(state)
            self.coh_data = np.empty_like(self.asm.c_lin_data)
            self.g_pad = self.c_over_h = None
            self.f_pad = np.zeros(n + 1)
        else:
            self.asm = self.coh_data = None
            _, self.g_pad, self.f_pad = compiled.buffers(batch_shape)
            # dense path: densify the sparse template once per run
            # (cached on the state - batched MC chunks pay this once)
            self._c_mat = compiled.capacitance(state)
            self.c_over_h = np.empty_like(self._c_mat)
        self.h: float | None = None
        self.work = _NewtonWork(compiled, state, batch_shape,
                                dense_jac=not self.use_csr)

    def set_step(self, be_step: bool, h: float) -> None:
        """Select the scheme and step size for the next :meth:`step`.

        A changed *h* rescales the ``C/h`` operand (a vector rescale on
        the CSR path, see :meth:`~repro.analysis.mna.CsrAssembler.
        c_over_h_data`); the factorization cache is keyed on the
        *content* pair ``(theta, h)`` so a stale LU can never serve a
        changed step matrix - and an unchanged one is never re-factored
        just because a theta array was rebuilt.
        """
        self.theta, self.one_minus, fingerprint = self._thetas[be_step]
        h = float(h)
        if h != self.h:
            if self.use_csr:
                self.asm.c_over_h_data(h, out=self.coh_data)
            else:
                np.multiply(self._c_mat, 1.0 / h, out=self.c_over_h)
            self.h = h
        if self.cache is not None:
            self.cache.set_key((fingerprint, h))

    def residual_only(self, x_pad: np.ndarray, t: float,
                      src: "np.ndarray | None" = None) -> None:
        """Assemble the static residual ``f(x, t)`` into ``f_pad``
        (*src*: the source vector at *t*, when tabulated)."""
        if self.use_csr:
            self.asm.assemble(x_pad, t, self.f_pad, jacobian=False,
                              sources=src)
        else:
            self.compiled.assemble(self.state, x_pad, t, self.g_pad,
                                   self.f_pad, jacobian=False, sources=src,
                                   scratch=self.work.scratch)

    def step(self, x_pad: np.ndarray, x_prev: np.ndarray,
             f_prev: np.ndarray, t_k: float,
             guard: _LaneGuard | None,
             src: "np.ndarray | None" = None,
             offset: "np.ndarray | None" = None) -> None:
        """One implicit step ``x_prev -> x_pad`` at the configured
        ``(theta, h)``; leaves ``f_pad`` at the accepted residual.
        *src* is the source vector at *t_k* when the loop tabulated
        it; *offset* (``(*batch, n)``) is added to the step residual."""
        if self.use_csr:
            _newton_step_csr(self.compiled, self.state, self.asm, x_pad,
                             x_prev, f_prev, t_k, self.theta,
                             self.one_minus, self.coh_data, self.f_pad,
                             self.cache, self.opts.newton, self.work, src)
            return
        _newton_step(self.compiled, self.state, x_pad, x_prev, f_prev,
                     t_k, self.theta, self.one_minus, self.c_over_h,
                     self.g_pad, self.f_pad, self.opts.newton, self.work,
                     guard, src, cache=self.cache, offset=offset)
        if self.cache is None:
            # refresh f_pad at the accepted point for the next trap
            # step (residual only - the Jacobian is rebuilt next step);
            # the reuse loop accepts with f_pad already assembled there
            self.residual_only(x_pad, t_k, src)


def _initial_state(compiled: CompiledCircuit, state: ParamState,
                   x0_pad: np.ndarray | None, t_start: float,
                   batch_shape: tuple[int, ...]
                   ) -> tuple[np.ndarray, bool]:
    """Starting point and whether the first step must be backward Euler."""
    n = compiled.n
    if x0_pad is not None:
        return np.broadcast_to(x0_pad, batch_shape + (n + 1,)).copy(), False
    if compiled.circuit.ic:
        return compiled.initial_padded(batch_shape), True
    dc = dc_operating_point(compiled, state, t=t_start,
                            batch_shape=batch_shape)
    return compiled.pad(dc.x), False


def transient(compiled: CompiledCircuit, t_stop: float, dt: float,
              state: ParamState | None = None,
              x0_pad: np.ndarray | None = None,
              t_start: float = 0.0,
              options: TransientOptions | None = None,
              batch_shape: tuple[int, ...] = (), *,
              stop_at: "Callable[[int, np.ndarray], bool] | None" = None
              ) -> TransientResult:
    """Integrate the circuit from *t_start* to *t_stop*.

    On the default fixed grid *dt* is the uniform step; with
    :attr:`TransientOptions.adaptive` it is a ceiling on the initial
    step of the LTE controller, which then floats within
    ``[dt_min, dt_max]`` and lands exactly on ``t_stop`` and every
    :attr:`TransientOptions.t_out` point.

    Starting point, in order of precedence: *x0_pad* (padded state, e.g.
    the final state of a previous run), the circuit's ``ic`` dictionary
    (SPICE ``uic`` style, missing nodes start at 0), or - when no ICs are
    set at all - the DC operating point at *t_start*.

    Linear systems are solved by ``compiled.backend``; see
    :mod:`repro.linalg` for backend selection and the factorization
    reuse policy.

    *stop_at* (fixed grid only) is called as ``stop_at(k, x_pad)`` after
    every accepted step ``k >= 1``; the run ends at the first step for
    which it returns true, and ``t``, the recorded signals, ``states``
    and ``n_accepted`` then describe the run up to that step.  The PSS
    settle uses it to stop at the first period that closes.

    Warns
    -----
    UserWarning
        On the fixed grid, when ``t_stop - t_start`` is not an integer
        multiple of *dt*: the final step is shortened to land exactly
        on *t_stop* (the seed behaviour silently rounded the span).

    Raises
    ------
    ConvergenceError
        When a Newton solve fails at some time step (unless the failure
        is confined to isolated lanes, see
        :attr:`TransientOptions.isolate_lanes`), or when the adaptive
        controller cannot find an acceptable step above ``dt_min``.
    """
    opts = options or TransientOptions()
    state = state or compiled.nominal
    if state.batched:
        batch_shape = state.batch_shape
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    if t_stop - t_start <= 0.0:
        raise ValueError("t_stop must exceed t_start by at least one step")
    if opts.adaptive:
        if opts.record_states:
            raise ValueError(
                "record_states requires the fixed grid (PSS/LPTV need "
                "uniform steps); disable adaptive")
        if opts.stride != 1:
            raise ValueError("stride requires the fixed grid")
        if stop_at is not None:
            raise ValueError("stop_at requires the fixed grid")
    elif opts.t_out:
        raise ValueError(
            "t_out requires adaptive=True: the fixed grid cannot land "
            "on arbitrary times (its spacing is the contract)")

    x_pad, first_step_be = _initial_state(compiled, state, x0_pad,
                                          t_start, batch_shape)
    rec = _record_indices(compiled, opts.record)
    theta_trap = np.append(compiled.theta_rows(state, opts.method), 1.0)
    theta_be = np.ones(compiled.n + 1)
    solver = _StepSolver(compiled, state, opts, batch_shape,
                         theta_trap, theta_be)

    if opts.adaptive:
        return _adaptive_loop(compiled, state, opts, solver, x_pad,
                              first_step_be, t_start, t_stop, dt, rec)
    return _fixed_loop(compiled, state, opts, solver, x_pad,
                       first_step_be, t_start, t_stop, dt, rec,
                       batch_shape, stop_at)


def _finalize(compiled: CompiledCircuit, state: ParamState,
              solver: _StepSolver, t: np.ndarray,
              sig_store: dict[str, np.ndarray], x_pad: np.ndarray,
              states: np.ndarray | None, n_accepted: int,
              n_rejected: int) -> TransientResult:
    failed = solver.guard.failed if solver.guard is not None else None
    x_final = x_pad.copy()
    if failed is not None and failed.any():
        for sig in sig_store.values():
            sig[:, failed] = np.nan
        x_final[failed] = np.nan
    return TransientResult(
        compiled=compiled, state=state, t=t, signals=sig_store,
        x_final_pad=x_final, states=states, failed_lanes=failed,
        n_accepted=n_accepted, n_rejected=n_rejected)


# ---------------------------------------------------------------------------
# fixed-grid driver
# ---------------------------------------------------------------------------
def _fixed_grid(t_start: float, t_stop: float, dt: float,
                circuit_name: str) -> tuple[np.ndarray, float]:
    """Uniform grid from *t_start* to *t_stop*; the final step is
    shortened (with a warning) when the span is not an integer multiple
    of *dt*.  Returns ``(t_grid, h_last)``."""
    span = t_stop - t_start
    ratio = span / dt
    n_steps = int(round(ratio))
    if n_steps >= 1 and abs(ratio - n_steps) <= 1e-9 * ratio:
        t_grid = t_start + dt * np.arange(n_steps + 1)
        t_grid[-1] = t_stop     # absorb accumulated rounding
        return t_grid, dt
    n_steps = int(np.floor(ratio * (1.0 + 1e-12))) + 1
    t_grid = t_start + dt * np.arange(n_steps + 1)
    t_grid[-1] = t_stop
    h_last = float(t_stop - t_grid[-2])
    warnings.warn(
        f"transient span {span:.6e} s on '{circuit_name}' is not an "
        f"integer multiple of dt={dt:.6e} s; the final step is "
        f"shortened to {h_last:.6e} s to land exactly on t_stop "
        f"(the seed integrator silently rounded the span)",
        UserWarning, stacklevel=4)
    return t_grid, h_last


def _fixed_loop(compiled: CompiledCircuit, state: ParamState,
                opts: TransientOptions, solver: _StepSolver,
                x_pad: np.ndarray, first_step_be: bool, t_start: float,
                t_stop: float, dt: float, rec: dict[str, int],
                batch_shape: tuple[int, ...],
                stop_at: "Callable[[int, np.ndarray], bool] | None"
                ) -> TransientResult:
    n = compiled.n
    t_grid, h_last = _fixed_grid(t_start, t_stop, dt,
                                 compiled.circuit.name)
    n_steps = len(t_grid) - 1
    guard = solver.guard

    kept = range(0, n_steps + 1, opts.stride)
    n_kept = len(kept)
    sig_store = {name: np.empty((n_kept,) + batch_shape)
                 for name in rec}
    states = (np.empty((n_steps + 1, n)) if opts.record_states else None)
    if states is not None and batch_shape:
        raise ValueError("record_states requires a batchless run")

    def store(k_idx: int, k: int) -> None:
        for name, idx in rec.items():
            sig_store[name][k_idx] = x_pad[..., idx]
        if states is not None:
            states[k] = x_pad[..., :n]

    kept_set = {k: i for i, k in enumerate(kept)}
    if 0 in kept_set:
        store(0, 0)

    # tabulate the sources over the whole grid once; only lanes whose
    # own source values differ (row() is None) keep the per-point path
    sources = compiled.source_table(state, t_grid)

    # previous-step static residual, needed by trapezoidal
    solver.residual_only(x_pad, float(t_grid[0]), sources.row(0))
    f_prev = solver.f_pad.copy()
    x_prev = x_pad.copy()
    x_prev2 = x_pad.copy()      # one more step back, for the predictor

    n_done = n_steps
    for k in range(1, n_steps + 1):
        t_k = float(t_grid[k])
        h = dt if k < n_steps else h_last
        be_step = opts.method == "be" or (k == 1 and first_step_be)
        solver.set_step(be_step, h)
        if solver.cache is not None and k >= 2:
            # extrapolation predictor: start Newton from
            # x_prev + r*(x_prev - x_prev2), cheap and second-order
            # (r != 1 only on a shortened final step)
            r = h / dt
            if r == 1.0:
                x_pad += x_prev
                x_pad -= x_prev2
            else:
                np.subtract(x_prev, x_prev2, out=x_pad)
                x_pad *= r
                x_pad += x_prev
            if guard is not None and guard.any:
                x_pad[guard.failed] = x_prev[guard.failed]
        solver.step(x_pad, x_prev, f_prev, t_k, guard, sources.row(k))
        np.copyto(f_prev, solver.f_pad)
        np.copyto(x_prev2, x_prev)
        np.copyto(x_prev, x_pad)
        if k in kept_set:
            store(kept_set[k], k)
        elif states is not None:
            states[k] = x_pad[..., :n]
        if stop_at is not None and stop_at(k, x_pad):
            n_done = k
            break

    if n_done < n_steps:
        n_kept = len(range(0, n_done + 1, opts.stride))
        sig_store = {name: sig[:n_kept] for name, sig in sig_store.items()}
        if states is not None:
            states = states[:n_done + 1]
    return _finalize(compiled, state, solver,
                     t_grid[:n_done + 1:opts.stride], sig_store, x_pad,
                     states, n_done, 0)


# ---------------------------------------------------------------------------
# adaptive driver
# ---------------------------------------------------------------------------
def _default_dt_max(compiled: CompiledCircuit, span: float) -> float:
    """Largest step the controller may try without external guidance.

    An eighth of the span, capped to 1/16 of the fastest periodic
    source or VCCS-gate period *and* to the narrowest pulse/gate active
    width: the LTE test only sees what a step did to the *solution*, so
    it can reject a step that crossed a clock edge but cannot see a
    step that silently jumped over an entire pulse.  The period cap
    bounds how much of a cycle one step may cover; the half-active-width
    cap guarantees some step *endpoint* samples the interior of every
    low-duty-cycle pulse (endpoints one full width apart can phase-lock
    onto the two near-zero pulse edges and skip the middle), and the
    solution kick at that sample then drives refinement.  Aperiodic sources (DC, one-shot PWL) impose no cap;
    pass an explicit ``dt_max`` when such a source carries fast
    activity.
    """
    cap = span / 8.0
    waves = [el.wave for el in compiled.vsources + compiled.isources]
    # a gated Vccs is never in linear_vccs (is_linear requires no gate)
    waves += [el.gate for el in compiled.nl_vccs if el.gate is not None]
    for w in waves:
        p = getattr(w, "period", None)
        if p:
            cap = min(cap, p / 16.0)
        if isinstance(w, SmoothPulse):
            cap = min(cap, 0.5 * (w.t_rise + w.t_high + w.t_fall))
        elif isinstance(w, GateWindow):
            cap = min(cap, 0.5 * (w.t_off - w.t_on + 2.0 * w.tau))
    return cap


#: Above this many registered landing times the schedule is dropped
#: (the stepper would degenerate to a near-fixed grid anyway).
_BREAKPOINT_CAP = 4096


def source_breakpoints(compiled: CompiledCircuit, t_start: float,
                       t_stop: float) -> np.ndarray:
    """Union of waveform corner times in ``(t_start, t_stop)``.

    Collects :meth:`~repro.circuit.sources.TimeFunction.breakpoints`
    from every independent source and every VCCS gate window, sorted
    and de-duplicated to a relative tolerance.
    """
    chunks = []
    waves = [el.wave for el in compiled.vsources + compiled.isources]
    waves += [el.gate for el in compiled.nl_vccs if el.gate is not None]
    for w in waves:
        bp = getattr(w, "breakpoints", None)
        if bp is not None:
            chunks.append(np.asarray(bp(t_start, t_stop), dtype=float))
    if not chunks:
        return np.empty(0)
    pts = np.sort(np.concatenate(chunks))
    if pts.size == 0:
        return pts
    eps = max(1e-12 * (t_stop - t_start),
              4.0 * np.spacing(max(abs(t_start), abs(t_stop))))
    keep = np.empty(pts.size, dtype=bool)
    keep[0] = True
    keep[1:] = np.diff(pts) > eps
    pts = pts[keep]
    if pts.size > _BREAKPOINT_CAP:
        warnings.warn(
            f"{pts.size} source breakpoints in [{t_start:.3g}, "
            f"{t_stop:.3g}] exceed the cap ({_BREAKPOINT_CAP}); "
            "dropping the landing schedule - pass dt_max instead")
        return np.empty(0)
    return pts


def _scaled_mismatch(x_new: np.ndarray, x_pred: np.ndarray,
                     x_prev: np.ndarray, n: int, rtol: float,
                     atol: float, guard: _LaneGuard | None) -> float:
    """Worst corrector-minus-predictor component over scale (healthy
    lanes only) - the raw ingredient of both LTE estimates below."""
    d = x_new[..., :n] - x_pred[..., :n]
    scale = atol + rtol * np.maximum(np.abs(x_new[..., :n]),
                                     np.abs(x_prev[..., :n]))
    ratio = np.abs(d) / scale
    if guard is not None and guard.any:
        ratio[guard.failed] = 0.0
    return float(np.max(ratio))


def _adaptive_loop(compiled: CompiledCircuit, state: ParamState,
                   opts: TransientOptions, solver: _StepSolver,
                   x_pad: np.ndarray, first_step_be: bool,
                   t_start: float, t_stop: float, dt: float,
                   rec: dict[str, int]) -> TransientResult:
    n = compiled.n
    span = t_stop - t_start
    dt_min = opts.dt_min if opts.dt_min is not None else dt * 1e-9
    dt_max = (opts.dt_max if opts.dt_max is not None
              else _default_dt_max(compiled, span))
    if dt_min > dt_max:
        raise ValueError(f"dt_min={dt_min:.3e} exceeds dt_max={dt_max:.3e}")
    guard = solver.guard

    pts: set[float] = set()
    if opts.t_out:
        pts |= {float(tp) for tp in opts.t_out
                if t_start < float(tp) < t_stop}
    if opts.breakpoints:
        pts |= set(source_breakpoints(compiled, t_start, t_stop).tolist())
    targets = [float(t_stop)]
    if pts:
        # merge, dropping near-coincident targets (a landing time a few
        # ulp from its neighbour would force a sliver step)
        eps = max(1e-12 * span,
                  4.0 * np.spacing(max(abs(t_start), abs(t_stop))))
        targets = []
        last = t_start
        for p in sorted(pts):
            if p - last > eps and t_stop - p > eps:
                targets.append(p)
                last = p
        targets.append(float(t_stop))

    times = [t_start]
    store: dict[str, list[np.ndarray]] = {
        name: [x_pad[..., idx].copy()] for name, idx in rec.items()}

    solver.residual_only(x_pad, t_start)
    f_prev = solver.f_pad.copy()
    x_prev = x_pad.copy()       # accepted solution at t
    x_prev2 = x_pad.copy()      # ... one step back
    x_prev3 = x_pad.copy()      # ... two steps back
    x_pred = np.empty_like(x_pad)
    x_tmp = np.empty_like(x_pad)    # predictor scratch (no per-step allocs)
    h1 = h2 = 0.0               # the last two accepted step sizes

    t = t_start
    # the first step is accepted without an error test (no predictor
    # history exists), so it must not be allowed to bake a large error
    # into the start of the waveform: begin at a conservative fraction
    # of the span and let the controller ramp up (it doubles per
    # accepted step, so a timid start costs ~10 cheap steps)
    h = float(min(max(min(dt, span / 1000.0), dt_min), dt_max))
    n_acc = n_rej = 0
    ti = 0
    while ti < len(targets):
        target = targets[ti]
        rejections = 0
        while True:                     # attempts at the next step
            rem = target - t
            land = False
            h_step = h
            # stretch (a little, never past dt_max) or split so the
            # approach to a landing time never leaves a sliver step
            if rem <= min(1.25 * h_step, dt_max):
                h_step, land = rem, True
            elif rem <= 2.0 * h_step:
                h_step = 0.5 * rem
            h_floor = max(dt_min,
                          4.0 * np.spacing(max(abs(t), abs(target))))
            at_floor = h_step <= h_floor * (1.0 + 1e-9)
            t_k = target if land else t + h_step

            be_step = opts.method == "be" or (n_acc == 0 and first_step_be)
            solver.set_step(be_step, h_step)

            # embedded predictor: extrapolate the accepted history to
            # t_k.  Quadratic (through three points) once trapezoidal
            # has the history - its own error is O(h^3), matching the
            # corrector, so the difference isolates the trap LTE;
            # linear otherwise (first-order embedded result).
            if n_acc >= 2 and not be_step:
                a, b, c = h_step, h_step + h1, h_step + h1 + h2
                w1 = b * c / (h1 * (h1 + h2))
                w2 = -a * c / (h1 * h2)
                w3 = a * b / (h2 * (h1 + h2))
                np.multiply(x_prev, w1, out=x_pred)
                np.multiply(x_prev2, w2, out=x_tmp)
                x_pred += x_tmp
                np.multiply(x_prev3, w3, out=x_tmp)
                x_pred += x_tmp
                lte_frac = h_step ** 3 / (2.0 * a * b * c + h_step ** 3)
                exp = 1.0 / 3.0
            elif n_acc >= 1:
                np.subtract(x_prev, x_prev2, out=x_pred)
                x_pred *= h_step / h1
                x_pred += x_prev
                lte_frac = h_step / (h_step + h1)
                exp = 0.5
            else:
                np.copyto(x_pred, x_prev)
                lte_frac = 0.0          # first step: accepted on faith
                exp = 0.5
            if guard is not None and guard.any:
                x_pred[guard.failed] = x_prev[guard.failed]
            np.copyto(x_pad, x_pred)

            # off the floor, a Newton failure rejects the step (healthy
            # lanes must not freeze over an ambitious h); lanes already
            # quarantined stay guarded so their rows remain patched,
            # but any *new* quarantine off the floor is rolled back
            # into a step rejection below
            use_guard = (guard if guard is not None
                         and (at_floor or guard.any) else None)
            prior_failed = (use_guard.failed.copy()
                            if use_guard is not None and not at_floor
                            else None)
            try:
                solver.step(x_pad, x_prev, f_prev, t_k, use_guard)
            except (ConvergenceError, SingularMatrixError) as exc:
                n_rej += 1
                rejections += 1
                if at_floor or rejections > opts.max_rejections:
                    raise ConvergenceError(
                        f"adaptive transient on '{compiled.circuit.name}'"
                        f": Newton kept failing down to the step floor "
                        f"({h_step:.3e} s) at t={t:.6e}",
                        iterations=rejections,
                        residual=getattr(exc, "residual", None),
                        theta_fingerprint=state.theta_fingerprint()
                        ) from exc
                h = max(h_floor, 0.25 * h_step)
                continue
            if prior_failed is not None \
                    and np.any(use_guard.failed != prior_failed):
                np.copyto(use_guard.failed, prior_failed)
                n_rej += 1
                rejections += 1
                if rejections > opts.max_rejections:
                    raise ConvergenceError(
                        f"adaptive transient on '{compiled.circuit.name}'"
                        f": lanes kept failing at t={t:.6e} above the "
                        f"step floor ({h_step:.3e} s)",
                        iterations=rejections,
                        theta_fingerprint=state.theta_fingerprint())
                h = max(h_floor, 0.25 * h_step)
                continue

            err = lte_frac * _scaled_mismatch(
                x_pad, x_pred, x_prev, n, opts.rtol, opts.atol,
                use_guard) if lte_frac else 0.0
            if err <= 1.0 or at_floor:
                break                   # accepted
            n_rej += 1
            rejections += 1
            if rejections > opts.max_rejections:
                raise ConvergenceError(
                    f"adaptive transient on '{compiled.circuit.name}': "
                    f"{opts.max_rejections} consecutive rejections at "
                    f"t={t:.6e} (last h={h_step:.3e} s, err={err:.3g})",
                    iterations=rejections, residual=float(err),
                    theta_fingerprint=state.theta_fingerprint())
            fac = (0.1 if not np.isfinite(err)
                   else max(0.1, min(0.5, _SAFETY * err ** -exp)))
            h = max(h_floor, fac * h_step)

        n_acc += 1
        np.copyto(f_prev, solver.f_pad)
        np.copyto(x_prev3, x_prev2)
        np.copyto(x_prev2, x_prev)
        np.copyto(x_prev, x_pad)
        h2, h1 = h1, h_step
        t = t_k
        times.append(t)
        for name, idx in rec.items():
            store[name].append(x_pad[..., idx].copy())
        if land:
            ti += 1
        fac = (_GROW_MAX if err == 0.0 else
               min(_GROW_MAX, max(_SHRINK_MIN, _SAFETY * err ** -exp)))
        h = float(min(dt_max, max(dt_min, h_step * fac)))

    sig_store = {name: np.stack(vals) for name, vals in store.items()}
    return _finalize(compiled, state, solver, np.asarray(times),
                     sig_store, x_pad, None, n_acc, n_rej)


def _residual(x_pad, x_prev, f_pad, f_prev, theta, one_minus, c_over_h,
              work: _NewtonWork) -> np.ndarray:
    """The step residual ``C/h (x - x_prev) + theta f + (1 - theta)
    f_prev`` into ``work.res`` (returned); *one_minus* is ``1 -
    theta``.  Every operation keeps its operands, its order and - for
    the mat-vec - its operand shapes, so the bits are those of the
    expression evaluated into temporaries."""
    np.subtract(x_pad, x_prev, out=work.dx)
    np.matmul(c_over_h, work.dx_col, out=work.res_col)
    res, tmp = work.res, work.tmp
    np.multiply(theta, f_pad, out=tmp)
    res += tmp
    np.multiply(one_minus, f_prev, out=tmp)
    res += tmp
    return res


def _step_matrix(theta: np.ndarray, g_pad: np.ndarray,
                 c_over_h: np.ndarray, out: np.ndarray,
                 guard: _LaneGuard | None = None) -> np.ndarray:
    """The dense step matrix ``theta G + C/h`` into *out* (``(*batch,
    n, n)``, returned), failed lanes patched to identity."""
    n = out.shape[-1]
    np.multiply(theta[:n, None], g_pad[..., :n, :n], out=out)
    np.add(out, c_over_h[..., :n, :n], out=out)
    if guard is not None:
        guard.patch_jac(out)
    return out


def _newton_step(compiled: CompiledCircuit, state: ParamState,
                 x_pad: np.ndarray, x_prev: np.ndarray,
                 f_prev: np.ndarray, t_k: float, theta: np.ndarray,
                 one_minus: np.ndarray, c_over_h: np.ndarray,
                 g_pad: np.ndarray, f_pad: np.ndarray,
                 newton: NewtonOptions, work: _NewtonWork,
                 guard: _LaneGuard | None = None,
                 src: "np.ndarray | None" = None, *,
                 cache: FactorizationCache | None = None,
                 lu: "Factorization | None" = None,
                 offset: "np.ndarray | None" = None) -> None:
    """One implicit time step into ``x_pad`` by
    :func:`~repro.analysis.dcop.newton_iterate`, with callables built
    once per step.

    *theta* is the per-equation implicitness vector (padded; see
    :meth:`CompiledCircuit.theta_rows`), *one_minus* ``1 - theta`` and
    *work* the run's buffers; dense step matrices go to ``work.jac``.
    *src* is the source vector at *t_k* when tabulated; *offset* is
    added to the step residual.  The linear policy is full Newton by
    default; modified Newton on *cache*, which builds the step matrix
    only when it re-factors and leaves ``f_pad`` at the last assembled
    iterate (an O(G * vntol) ``f_prev`` error, far below the Newton
    tolerance, for one device evaluation less per step); or the LU
    *lu* of a constant-Jacobian circuit's step matrix (batchless, no
    guard) - the matrix every iteration would build, so the same bits.
    """
    full = cache is None and lu is None

    def residual() -> np.ndarray:
        compiled.assemble(state, x_pad, t_k, g_pad, f_pad, jacobian=full,
                          sources=src, scratch=work.scratch)
        _residual(x_pad, x_prev, f_pad, f_prev, theta, one_minus,
                  c_over_h, work)
        if offset is not None:
            work.rhs += offset
        return work.rhs

    def step_matrix() -> np.ndarray:
        if not full:
            # a cache re-factor: one full assembly (with device
            # derivatives) at the current iterate; every factorization
            # copies its operand, so the buffer is reusable
            compiled.assemble(state, x_pad, t_k, g_pad, f_pad,
                              sources=src, scratch=work.scratch)
        return _step_matrix(theta, g_pad, c_over_h, work.jac, guard)

    def solve(rhs: np.ndarray) -> np.ndarray:
        if cache is not None:
            return cache.solve(rhs, step_matrix)
        if lu is not None:
            return lu.solve(rhs)
        return compiled.backend.solve(step_matrix(), rhs)

    def singular(rhs, exc, it):
        return _solve_isolated(solve, step_matrix, rhs, guard, compiled,
                               state, t_k, it, exc)

    if cache is not None:
        cache.new_sequence()
    if not newton_iterate(x_pad, residual, solve, newton, singular,
                          guard=guard, x_prev=x_prev):
        _no_convergence(compiled, state, t_k, newton)


def _no_convergence(compiled: CompiledCircuit, state: ParamState,
                    t_k: float, newton: NewtonOptions) -> None:
    raise ConvergenceError(
        f"transient Newton failed at t={t_k:.4e} on "
        f"'{compiled.circuit.name}'",
        iterations=newton.max_iterations,
        theta_fingerprint=state.theta_fingerprint())


def _newton_step_csr(compiled: CompiledCircuit, state: ParamState, asm,
                     x_pad: np.ndarray, x_prev: np.ndarray,
                     f_prev: np.ndarray, t_k: float, theta: np.ndarray,
                     one_minus: np.ndarray, coh_data: np.ndarray,
                     f_pad: np.ndarray, cache: FactorizationCache,
                     newton: NewtonOptions, work: _NewtonWork,
                     src: "np.ndarray | None" = None) -> None:
    """:func:`_newton_step` with *cache* on the native-CSR path:
    residuals are CSR mat-vecs over the circuit's sparsity plan and the
    step matrix is assembled by value scatter, so no dense ``(n+1)^2``
    buffer exists.  Batchless only, so no lane guard."""
    n = compiled.n
    thn, omn = theta[:n], one_minus[:n]
    dx, rhs, tmp = work.dx[:n], work.rhs, work.tmp[:n]

    def residual() -> np.ndarray:
        asm.assemble(x_pad, t_k, f_pad, jacobian=False, sources=src)
        np.subtract(x_pad[:n], x_prev[:n], out=dx)
        asm.plan.matvec(coh_data, dx, rhs)
        np.multiply(thn, f_pad[:n], out=tmp)
        np.add(rhs, tmp, out=rhs)
        np.multiply(omn, f_prev[:n], out=tmp)
        np.add(rhs, tmp, out=rhs)
        return rhs

    def step_matrix():
        asm.assemble(x_pad, t_k, f_pad, sources=src)
        return asm.step_matrix(theta, coh_data)

    def solve(b: np.ndarray) -> np.ndarray:
        return cache.solve(b, step_matrix)

    def singular(b, exc, it):
        return _solve_isolated(solve, step_matrix, b, None, compiled,
                               state, t_k, it, exc)

    cache.new_sequence()
    if not newton_iterate(x_pad, residual, solve, newton, singular):
        _no_convergence(compiled, state, t_k, newton)
