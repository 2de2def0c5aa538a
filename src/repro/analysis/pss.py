"""Periodic steady-state (PSS) analysis.

The paper's method needs the circuit's periodic steady state before any
noise/sensitivity analysis can run (Section IV): the LPTV linearisation is
taken *around that orbit*.  Two engines are provided, mirroring practice
in RF simulators:

* ``shooting`` - Newton on the one-period map ``Phi(x0) - x0`` using the
  monodromy matrix of the per-step integrator maps along the pass
  (SpectreRF's approach, [16] in the paper).  For oscillators the period
  is an extra unknown closed by a phase-anchor condition.
* ``settle`` - brute-force integration until two consecutive periods
  agree.  Slower but useful as a robustness fallback and as an
  independent check of the shooting result.

A converged :class:`PssResult` stores the orbit on a uniform grid of
``n_steps`` points per period; everything downstream (LPTV sensitivities,
periodic noise, measurements) consumes that grid.

The settle is a cap, not a cost
-------------------------------
Driven shooting starts from a fixed-grid settle transient of at most
:attr:`PssOptions.settle_periods` periods.  At every period boundary
from the second on the settle applies shooting's own test,
``max|x(pT) - x((p-1)T)| <= tol * max(max|x| over the period, 1)``,
and stops at the first period that passes: that period, on the
settle's own time grid, *is* the orbit, and no shooting period is
integrated (:attr:`PssResult.shooting_periods` is 0).  Period 1 starts
at the DC point or the ICs - not an integrated state - so it is never
accepted.  A settle that never closes runs to the cap and hands its
final state to Newton shooting unchanged.  The ``settle`` engine and
:func:`pss_oscillator`'s ``t_settle`` keep their full settle length.

Matrix-free shooting and the dense fallback
-------------------------------------------
Shooting has two implementations behind one option
(:attr:`PssOptions.matrix_free`):

**Matrix-free / Krylov** (the default on ``wants_csr`` backends at or
above :data:`~repro.linalg.krylov.MATRIX_FREE_MIN_UNKNOWNS` unknowns).
The period is integrated through the native-CSR transient path (no
dense ``(n+1)^2`` buffer), the orbit linearisation is stored as
per-step CSR value arrays on the circuit's plan
(:class:`~repro.analysis.orbit.OrbitLinearization`,
O(n_steps * nnz)), and the Newton update solves ``(M - I) dx0 = -r``
(or the bordered oscillator system) by GMRES on the sweep operator
``v -> M v`` - the monodromy matrix is never formed.  This is what
makes 1k+-node PSS runnable at all; a stalled GMRES falls back to the
explicit monodromy with a warning.

**Dense** (small circuits, non-CSR backends, or ``matrix_free=False``).
The update is solved directly against the explicit monodromy - the
product of the pass's per-step maps, bit-identical to earlier releases.
The integration itself builds no linearisation; a pass that does not
close gets its monodromy from
:meth:`~repro.analysis.orbit.OrbitLinearization.monodromy` on the grid
it stepped on, and the pass that closes builds none.  On a
constant-Jacobian circuit one LU of the step matrix serves a whole
pass, and one more the pass's linearisation.

Both engines run one loop: integrate a pass, test its closure, and only
then linearise it; they differ only in how the Newton update is solved.

The converged result shares its factored orbit linearisation through
:meth:`PssResult.linearization`, so LPTV sensitivities, the harmonic
noise engine and the monodromy utilities reuse one set of per-step
factorizations instead of each re-assembling the orbit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..errors import AnalysisError, ConvergenceError, MeasurementError
from ..linalg.krylov import GMRES_MAXITER, gmres_blocked, use_matrix_free
from ..waveform import Waveform, WaveformSet
from .dcop import NewtonOptions, dc_operating_point
from .mna import CompiledCircuit, ParamState
from .orbit import OrbitLinearization
from .transient import TransientOptions, _integrate, transient


@dataclass
class PssOptions:
    """Knobs for :func:`pss` / :func:`pss_oscillator`."""

    n_steps: int = 400
    method: str = "trap"
    engine: str = "shooting"          # or "settle"
    #: Cap on the pre-shooting settle, in periods.  On the fixed grid
    #: the shooting engine's settle stops at the first period (from the
    #: second on) that closes to :attr:`tol` and returns it as the
    #: orbit; only a settle that never closes runs to the cap and hands
    #: its final state to Newton shooting.
    settle_periods: int = 8
    max_iterations: int = 40          # shooting Newton iterations
    tol: float = 1e-9                 # on max|x(T) - x(0)|
    settle_max_periods: int = 2000
    #: Force the matrix-free Krylov shooting engine (``True``) or the
    #: explicit dense monodromy engine (``False``); ``None`` selects by
    #: backend and circuit size (see the module docstring).
    matrix_free: bool | None = None
    #: Relative GMRES tolerance of the matrix-free shooting update.
    krylov_tol: float = 1e-11
    newton: NewtonOptions = field(default_factory=lambda: NewtonOptions(
        max_step=1.0, max_iterations=50))


def _validate(opts: PssOptions, period: "float | None") -> None:
    """Entry-point validation: clear errors instead of downstream shape
    errors (``n_steps=1`` breaks the predictor history, ``period<=0``
    produces empty/backwards grids)."""
    if opts.n_steps < 2:
        raise AnalysisError(
            f"PssOptions.n_steps must be >= 2, got {opts.n_steps}")
    if opts.max_iterations < 1:
        raise AnalysisError(
            "PssOptions.max_iterations must be >= 1, got "
            f"{opts.max_iterations}")
    # a tolerance that can never be met would run every shooting pass
    # and end in a (retryable) ConvergenceError
    if not opts.tol > 0.0:
        raise AnalysisError(
            f"PssOptions.tol must be positive, got {opts.tol!r}")
    if not opts.krylov_tol > 0.0:
        raise AnalysisError(
            f"PssOptions.krylov_tol must be positive, got "
            f"{opts.krylov_tol!r}")
    if period is not None and not period > 0.0:
        raise AnalysisError(
            f"PSS period must be positive, got {period!r}")


@dataclass
class PssResult:
    """A converged periodic steady state.

    ``x`` holds ``n_steps + 1`` orbit samples (first and last nominally
    equal); ``t`` are the matching absolute times - absolute because the
    LPTV linearisation must evaluate time-dependent elements at the same
    source phase the orbit was computed with.
    """

    compiled: CompiledCircuit
    state: ParamState
    period: float
    t: np.ndarray
    x: np.ndarray
    method: str
    engine: str
    is_oscillator: bool = False
    anchor_index: int | None = None
    residual: float = 0.0
    #: Periods integrated by Newton shooting; 0 when a settle period
    #: already closed and became the orbit.
    shooting_periods: int = 0
    #: Cached factored orbit linearisation (built once on first
    #: :meth:`linearization` call, shared by every periodic consumer).
    _lin: "OrbitLinearization | None" = field(
        default=None, repr=False, compare=False)

    @property
    def n_steps(self) -> int:
        return self.x.shape[0] - 1

    @property
    def f0(self) -> float:
        """Fundamental frequency [Hz]."""
        return 1.0 / self.period

    def linearization(self, matrix_free: "bool | None" = None
                      ) -> OrbitLinearization:
        """The factored LPTV operator along this orbit, built once.

        LPTV sensitivities, the harmonic/pnoise engines and the
        monodromy utilities all consume this shared object, so the
        orbit is linearised and its per-step ``A_k`` factored exactly
        once per PSS result.  *matrix_free* forces the sparse or dense
        engine (default: by backend and size); asking for the other
        engine than the cached one rebuilds and re-caches.
        """
        want = use_matrix_free(self.compiled.backend, self.compiled.n,
                               matrix_free)
        if self._lin is None or self._lin.sparse != want:
            self._lin = OrbitLinearization(
                self.compiled, self.state, self.x, self.t, self.period,
                self.method, matrix_free=want)
        return self._lin

    @staticmethod
    def end_slope(x: np.ndarray, h: float) -> np.ndarray:
        """``xdot(T)`` of orbit samples *x* on the uniform step *h*: the
        first-order backward difference ``(x[-1] - x[-2]) / h``.  It is
        the period column of every bordered oscillator system, in
        shooting and in both LPTV closures."""
        return (x[-1] - x[-2]) / h

    def nbytes(self) -> int:
        """Bytes this orbit holds or can still grow to: its samples plus
        its linearisation (Jacobian stack, per-step factors, the
        ``B_k`` block, the default injections' closure), counted
        whether or not that is built yet
        (:meth:`OrbitLinearization.estimate_nbytes`).  The circuit and
        its state are the compile's, not the orbit's."""
        return (self.x.nbytes + self.t.nbytes
                + OrbitLinearization.estimate_nbytes(self.compiled,
                                                     self.n_steps))

    def clear_caches(self) -> "PssResult":
        """Drop the cached orbit linearisation (its per-step
        factorization list is the memory that matters) and the closure
        kept on it; the orbit itself survives.  Returns ``self``."""
        if self._lin is not None:
            self._lin.clear_factors()
        self._lin = None
        return self

    def waveset(self) -> WaveformSet:
        signals = {name: self.x[:, i]
                   for name, i in self.compiled.node_index.items()}
        return WaveformSet(self.t, signals)

    def waveform(self, node: str) -> Waveform:
        return self.waveset()[node]

    def fundamental_amplitude(self, node: str) -> float:
        """Amplitude of the fundamental of *node*'s steady-state waveform
        (the carrier amplitude ``Ac`` in the paper's Eqs. 7-9)."""
        i = self.compiled.node_index[node]
        spectrum = np.fft.rfft(self.x[:-1, i]) / self.n_steps
        if spectrum.shape[0] < 2:
            raise AnalysisError("orbit too short for a fundamental")
        return float(2.0 * np.abs(spectrum[1]))


def integrate_period(compiled: CompiledCircuit, state: ParamState,
                     x0_pad: np.ndarray, t0: float, period: float,
                     n_steps: int, method: str,
                     newton: NewtonOptions,
                     want_monodromy: bool = False
                     ) -> tuple[np.ndarray, np.ndarray | None]:
    """Integrate exactly one period on a uniform grid (dense engine).

    Returns ``(orbit, monodromy)`` where *orbit* has shape
    ``(n_steps + 1, n)``; *monodromy* is ``dPhi/dx0`` or ``None``.

    A run of the transient's fixed-grid loop, grid ``t0 + k * (period /
    n_steps)``, on the *exact* step policy: no predictor and full
    Newton - or, on a constant-Jacobian circuit and a factorization-
    reuse backend, one LU of the step matrix for the whole pass, the
    bits of re-factoring it at every iteration.

    The integration builds no linearisation: the refresh assembly after
    each step computes the residual only.  With *want_monodromy* the
    monodromy is :func:`_pass_linearization`'s
    :meth:`~repro.analysis.orbit.OrbitLinearization.monodromy` on the
    grid the pass stepped on - what shooting builds for a pass that
    does not close.

    This is the *dense fallback* integrator: it consumes the
    sparse-native parameter state through the dense escape hatch
    (:meth:`~repro.analysis.mna.ParamState.to_dense`).  Large circuits
    take the matrix-free path instead (:func:`_integrate_period_csr`).
    """
    h = period / n_steps
    orbit = _integrate(
        compiled, state, TransientOptions(method=method, newton=newton,
                                          record=[], record_states=True),
        x0_pad, t0, t0 + n_steps * h, h, exact=True).states
    if not want_monodromy:
        return orbit, None
    lin = _pass_linearization(compiled, state, orbit, t0, period, method,
                              matrix_free=False)
    return orbit, lin.monodromy()


def _integrate_period_csr(compiled: CompiledCircuit, state: ParamState,
                          x0_pad: np.ndarray, t0: float, period: float,
                          n_steps: int, method: str,
                          newton: NewtonOptions) -> np.ndarray:
    """One period on the uniform grid through the transient stepper.

    The matrix-free engine's integrator: rides the backend seam of
    :func:`~repro.analysis.transient.transient` (native-CSR assembly
    and factorization reuse on ``wants_csr`` backends), so no dense
    ``(n+1)^2`` buffer exists during the integration.  Returns the
    ``(n_steps + 1, n)`` orbit; the linearisation is built separately
    from the stored states.
    """
    res = transient(
        compiled, t_stop=t0 + period, dt=period / n_steps, state=state,
        x0_pad=x0_pad, t_start=t0,
        options=TransientOptions(method=method, record=[],
                                 record_states=True, newton=newton))
    return res.states


def _integrate_pass(compiled: CompiledCircuit, state: ParamState,
                    x_pad: np.ndarray, t0: float, period: float,
                    opts: PssOptions, mf: bool) -> np.ndarray:
    """One period's orbit on the engine's integrator
    (:func:`_integrate_period_csr` or :func:`integrate_period`)."""
    if mf:
        return _integrate_period_csr(compiled, state, x_pad, t0, period,
                                     opts.n_steps, opts.method,
                                     opts.newton)
    return integrate_period(compiled, state, x_pad, t0, period,
                            opts.n_steps, opts.method, opts.newton)[0]


def _pass_linearization(compiled: CompiledCircuit, state: ParamState,
                        orbit: np.ndarray, t0: float, period: float,
                        method: str, matrix_free: bool
                        ) -> OrbitLinearization:
    """Linearisation of a shooting pass that did not close.

    Built per pass by design: the Newton update needs the maps at the
    *current* iterate, and the transient stepper's modified-Newton loop
    does not hold an exact ``G`` at every accepted state.  The dense
    engine linearises on the grid its integrator stepped on
    (``t0 + h * arange``), so its :meth:`~repro.analysis.orbit.
    OrbitLinearization.monodromy` is the product of the per-step maps
    of that pass; the sparse engine keeps its ``linspace`` grid.  A
    pass that closes builds none.
    """
    n_steps = orbit.shape[0] - 1
    if matrix_free:
        t_grid = t0 + np.linspace(0.0, period, n_steps + 1)
    else:
        t_grid = t0 + (period / n_steps) * np.arange(n_steps + 1)
    return OrbitLinearization(compiled, state, orbit, t_grid, period,
                              method, matrix_free=matrix_free)


def _shooting_update(lin: OrbitLinearization, op, rhs: np.ndarray,
                     dense_solve, tol: float, circuit_name: str
                     ) -> np.ndarray:
    """Solve a shooting update.  The dense engine solves against the
    explicit monodromy; the sparse engine runs GMRES on *op* and falls
    back to the explicit monodromy (with a warning) if it stalls."""
    if not lin.sparse:
        return dense_solve(lin.monodromy())
    upd, _, ok = gmres_blocked(op, rhs, tol=tol, maxiter=GMRES_MAXITER)
    if ok:
        return upd
    warnings.warn(
        f"matrix-free shooting update on '{circuit_name}' did not "
        f"converge in {GMRES_MAXITER} GMRES iterations; falling back "
        "to the explicit monodromy solve", UserWarning, stacklevel=3)
    return dense_solve(lin.monodromy())


class _PeriodClosure:
    """Stop test of the fixed-grid settle: shooting's own convergence
    test, applied at every period boundary from the second on.

    Called by the stepper after each accepted step; holds only the
    current period's ``n_steps + 1`` states.  Period 1 starts at the DC
    point or the ICs - not an integrated state - so it is never
    accepted.
    """

    def __init__(self, n_steps: int, n: int, tol: float):
        self.n_steps = n_steps
        self.tol = tol
        self.orbit = np.empty((n_steps + 1, n))
        self.residual: float | None = None

    def __call__(self, k: int, x_pad: np.ndarray) -> bool:
        j = (k - 1) % self.n_steps + 1
        self.orbit[j] = x_pad[:-1]
        if j < self.n_steps:
            return False
        if k > self.n_steps:
            worst = float(np.max(np.abs(self.orbit[-1] - self.orbit[0])))
            scale = max(float(np.max(np.abs(self.orbit))), 1.0)
            if worst <= self.tol * scale:
                self.residual = worst
                return True
        self.orbit[0] = self.orbit[-1]
        return False


def _settle_start(compiled: CompiledCircuit, state: ParamState,
                  period: float, opts: PssOptions,
                  closure: "_PeriodClosure | None" = None
                  ) -> tuple[np.ndarray, np.ndarray | None]:
    """Padded state after the settle, and the settle's time grid
    (``None`` without a settle).  With *closure* the settle stops at the
    first period it accepts."""
    if compiled.circuit.ic:
        x_pad = compiled.initial_padded()
    else:
        dc = dc_operating_point(compiled, state, t=0.0)
        x_pad = compiled.pad(dc.x)
    if opts.settle_periods <= 0:
        return x_pad, None
    res = transient(
        compiled, t_stop=opts.settle_periods * period,
        dt=period / opts.n_steps, state=state, x0_pad=x_pad,
        options=TransientOptions(method=opts.method, record=[],
                                 newton=opts.newton),
        stop_at=closure)
    return res.x_final_pad, res.t


def pss(compiled: CompiledCircuit, period: float,
        state: ParamState | None = None,
        options: PssOptions | None = None) -> PssResult:
    """PSS of a *driven* circuit with known fundamental *period*.

    The testbench must be periodic with this period (all source periods
    dividing it); see the paper's Section IV examples for how to build
    such testbenches.
    """
    opts = options or PssOptions()
    _validate(opts, period)
    state = state or compiled.nominal
    if state.batched:
        raise AnalysisError("PSS analyses are batchless")
    mf = use_matrix_free(compiled.backend, compiled.n, opts.matrix_free)
    closure = (_PeriodClosure(opts.n_steps, compiled.n, opts.tol)
               if opts.engine != "settle" else None)
    x_pad, t_settle = _settle_start(compiled, state, period, opts, closure)
    if closure is not None and closure.residual is not None:
        return PssResult(compiled, state, period,
                         t_settle[-(opts.n_steps + 1):].copy(),
                         closure.orbit, opts.method, "shooting",
                         residual=closure.residual)
    t0 = opts.settle_periods * period

    if opts.engine == "settle":
        return _pss_settle(compiled, state, period, x_pad, t0, opts, mf)

    scale = 1.0
    for it in range(opts.max_iterations):
        orbit = _integrate_pass(compiled, state, x_pad, t0, period, opts,
                                mf)
        res = orbit[-1] - orbit[0]
        scale = max(float(np.max(np.abs(orbit))), 1.0)
        worst = float(np.max(np.abs(res)))
        if worst <= opts.tol * scale:
            return PssResult(compiled, state, period,
                             t0 + np.linspace(0.0, period,
                                              opts.n_steps + 1),
                             orbit, opts.method, "shooting",
                             residual=worst, shooting_periods=it + 1)
        lin = _pass_linearization(compiled, state, orbit, t0, period,
                                  opts.method, mf)
        delta = _shooting_update(
            lin, lambda v: lin.apply_monodromy(v) - v, -res,
            lambda mono: np.linalg.solve(mono - np.eye(compiled.n), -res),
            opts.krylov_tol, compiled.circuit.name)
        x_pad[:-1] = orbit[0] + delta
    raise ConvergenceError(
        f"shooting PSS did not converge on '{compiled.circuit.name}' "
        f"after {opts.max_iterations} iterations "
        f"(residual {worst:.3e}, scale {scale:.3e})",
        iterations=opts.max_iterations, residual=float(worst),
        theta_fingerprint=state.theta_fingerprint())


def _pss_settle(compiled: CompiledCircuit, state: ParamState,
                period: float, x_pad: np.ndarray, t0: float,
                opts: PssOptions, mf: bool = False) -> PssResult:
    if opts.settle_max_periods < 1:
        raise AnalysisError(
            "PssOptions.settle_max_periods must be >= 1 for the settle "
            f"engine, got {opts.settle_max_periods}")
    prev = x_pad[:-1].copy()
    for p in range(opts.settle_max_periods):
        orbit = _integrate_pass(compiled, state, x_pad, t0 + p * period,
                                period, opts, mf)
        x_pad[:-1] = orbit[-1]
        worst = float(np.max(np.abs(orbit[-1] - prev)))
        scale = max(float(np.max(np.abs(orbit))), 1.0)
        if worst <= max(opts.tol * scale * 10.0, 1e-12):
            return PssResult(
                compiled, state, period,
                t0 + p * period + np.linspace(0.0, period,
                                              opts.n_steps + 1),
                orbit, opts.method, "settle", residual=worst)
        prev = orbit[-1].copy()
    raise ConvergenceError(
        f"settle PSS did not reach steady state on "
        f"'{compiled.circuit.name}' within {opts.settle_max_periods} "
        f"periods (residual {worst:.3e})",
        iterations=opts.settle_max_periods, residual=float(worst),
        theta_fingerprint=state.theta_fingerprint())


def pss_oscillator(compiled: CompiledCircuit, anchor: str,
                   t_settle: float, dt_settle: float,
                   state: ParamState | None = None,
                   options: PssOptions | None = None,
                   period_guess: float | None = None) -> PssResult:
    """PSS of an autonomous oscillator; the period is an unknown.

    Parameters
    ----------
    anchor:
        Node used for the phase condition (its ``t=0`` value is pinned) and
        for the initial period estimate.  Pick a swinging node.
    t_settle, dt_settle:
        Free-running transient used to reach the limit cycle and estimate
        the period from threshold crossings.
    period_guess:
        Skip the crossing-based estimate and use this guess instead
        (the settling transient still runs).
    """
    opts = options or PssOptions()
    _validate(opts, period_guess)
    state = state or compiled.nominal
    if state.batched:
        raise AnalysisError("PSS analyses are batchless")
    mf = use_matrix_free(compiled.backend, compiled.n, opts.matrix_free)

    settle = transient(
        compiled, t_stop=t_settle, dt=dt_settle, state=state,
        options=TransientOptions(method=opts.method, record=[anchor],
                                 newton=opts.newton))
    wave = Waveform(settle.t, settle.signal(anchor), anchor)
    if period_guess is None:
        try:
            mid_level = 0.5 * (wave.min() + wave.max())
            n_cross = len(wave.crossings(mid_level, "rise"))
            period = wave.period(skip=max(2, n_cross // 2))
        except MeasurementError as exc:
            raise AnalysisError(
                f"could not estimate the oscillation period from node "
                f"'{anchor}': {exc}") from exc
    else:
        period = period_guess

    # march to the next rising mid-level crossing so the anchor starts on
    # a steep part of the waveform (well-conditioned phase condition)
    mid = 0.5 * (wave.min() + wave.max())
    x_pad = settle.x_final_pad.copy()
    a_idx = compiled.node_index[anchor]
    t_cur = float(settle.t[-1])
    x_pad, t_cur = _advance_to_crossing(compiled, state, x_pad, t_cur,
                                        dt_settle, mid, a_idx, period,
                                        opts, anchor)

    n = compiled.n
    t0 = t_cur
    worst = np.inf
    for it in range(opts.max_iterations):
        orbit = _integrate_pass(compiled, state, x_pad, t0, period, opts,
                                mf)
        res = orbit[-1] - orbit[0]
        scale = max(float(np.max(np.abs(orbit))), 1.0)
        worst = float(np.max(np.abs(res)))
        if worst <= opts.tol * scale:
            return PssResult(compiled, state, period,
                             t0 + np.linspace(0.0, period,
                                              opts.n_steps + 1),
                             orbit, opts.method, "shooting",
                             is_oscillator=True, anchor_index=a_idx,
                             residual=worst, shooting_periods=it + 1)
        h = period / opts.n_steps
        xdot_t = PssResult.end_slope(orbit, h)
        rhs = np.concatenate([-res, [0.0]])
        # the sparse engine scales the period column by h (the unknown
        # becomes dT/h, a per-step voltage-sized quantity): the raw
        # bordered system mixes O(1) voltages with O(1/h) slopes and
        # its conditioning defeats GMRES.  The dense engine solves the
        # raw system (a scale of 1.0 is exact).
        col = h if mf else 1.0
        xdc = xdot_t * col
        lin = _pass_linearization(compiled, state, orbit, t0, period,
                                  opts.method, mf)
        upd = _shooting_update(
            lin, lin.bordered_op(xdc, a_idx), rhs,
            lambda mono: np.linalg.solve(
                _bordered_jacobian(mono, xdc, a_idx), rhs),
            opts.krylov_tol, compiled.circuit.name)
        upd[n] *= col
        dT = float(np.clip(upd[n], -0.2 * period, 0.2 * period))
        x_pad[:-1] = orbit[0] + upd[:n]
        period += dT
        if period <= 0.0:
            raise ConvergenceError("oscillator shooting drove T <= 0")
    raise ConvergenceError(
        f"oscillator shooting did not converge on "
        f"'{compiled.circuit.name}' after {opts.max_iterations} "
        f"iterations (residual {worst:.3e})",
        iterations=opts.max_iterations, residual=float(worst),
        theta_fingerprint=state.theta_fingerprint())


def _bordered_jacobian(mono: np.ndarray, xdot_t: np.ndarray,
                       a_idx: int) -> np.ndarray:
    """Oscillator shooting Jacobian: ``M - I`` bordered by the period
    column and the phase-anchor row."""
    n = mono.shape[0]
    jac = np.zeros((n + 1, n + 1))
    jac[:n, :n] = mono - np.eye(n)
    jac[:n, n] = xdot_t
    jac[n, a_idx] = 1.0
    return jac


def _advance_to_crossing(compiled, state, x_pad, t_cur, dt, level, a_idx,
                         period, opts: PssOptions, anchor: str = "?"):
    """Integrate until the step where the anchor crosses *level*
    rising (at most ~2.2 periods)."""
    # a whole number of steps: the ~2.2-period horizon is a heuristic,
    # so round it up rather than have the integrator snap (and warn
    # about) a shortened final step on every oscillator PSS
    n_adv = max(1, int(np.ceil(2.2 * period / dt - 1e-9)))
    last, crossed = x_pad[a_idx], False

    def rising(k: int, x: np.ndarray) -> bool:
        nonlocal last, crossed
        v = x[a_idx]
        crossed = last < level <= v
        last = v
        return crossed

    res = transient(compiled, t_stop=t_cur + n_adv * dt, dt=dt,
                    state=state, x0_pad=x_pad, t_start=t_cur,
                    options=TransientOptions(method=opts.method, record=[],
                                             newton=opts.newton),
                    stop_at=rising)
    if not crossed:
        warnings.warn(
            f"no rising crossing of anchor node '{anchor}' through "
            f"{level:.4g} within ~2.2 estimated periods; falling back to "
            "the final settling state.  A non-swinging (or mis-chosen) "
            "phase anchor is the usual cause of oscillator shooting "
            "divergence - pick a node that oscillates, or pass a better "
            "period_guess", UserWarning, stacklevel=3)
    return res.x_final_pad, float(res.t[-1])
