"""DC operating point and DC sweeps.

Newton-Raphson with step limiting, backed by two homotopies when plain
Newton fails: gmin stepping (a conductance from every node to ground that
is relaxed to :data:`~repro.constants.GMIN_DEFAULT`) and source stepping
(independent sources ramped from zero).  Everything is batched: a DC sweep
over 1000 source values is a single stacked Newton solve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..constants import (ABSTOL_DEFAULT, GMIN_DEFAULT,
                         MAX_NEWTON_ITERATIONS, VNTOL_DEFAULT)
from ..errors import AnalysisError, ConvergenceError, SingularMatrixError
from ..linalg import FactorizationCache
from .mna import CompiledCircuit, ParamState


@dataclass
class NewtonOptions:
    """Tolerances and limits for Newton solves.

    ``abstol`` bounds the KCL residual [A]; the default is loose relative
    to :data:`~repro.constants.ABSTOL_DEFAULT` because the final accept
    test also requires the Newton update itself to be below ``vntol``.
    """

    abstol: float = max(ABSTOL_DEFAULT, 1e-9)
    vntol: float = VNTOL_DEFAULT
    max_iterations: int = MAX_NEWTON_ITERATIONS
    #: Per-iteration cap on any unknown's update magnitude [V or A].
    max_step: float = 0.5

    def __post_init__(self):
        # a loop of zero iterations has no update to test or quarantine
        if self.max_iterations < 1:
            raise AnalysisError(
                "NewtonOptions.max_iterations must be >= 1, got "
                f"{self.max_iterations}")


@dataclass
class DcResult:
    """Converged DC solution.

    ``x`` is the unpadded unknown vector (``(*batch, n)``).  Use
    :meth:`voltage` / :meth:`current` for named access.
    """

    compiled: CompiledCircuit
    state: ParamState
    x: np.ndarray

    def voltage(self, pos: str, neg: str = "0") -> np.ndarray | float:
        v = (self.compiled.voltage(self.compiled.pad(self.x), pos)
             - self.compiled.voltage(self.compiled.pad(self.x), neg))
        return float(v) if np.ndim(v) == 0 else v

    def current(self, element_name: str) -> np.ndarray | float:
        i = self.x[..., self.compiled.branch(element_name)]
        return float(i) if np.ndim(i) == 0 else i


def _clip_step(delta: np.ndarray, max_step: float) -> None:
    """Clip a Newton update to ``[-max_step, max_step]`` in place - the
    bits of ``np.clip`` without its Python-level wrapper."""
    np.minimum(delta, max_step, out=delta)
    np.maximum(delta, -max_step, out=delta)


def _max_abs(delta: np.ndarray) -> float:
    """``max|delta|`` through the ufunc reduction ``np.max`` wraps (0.0
    for an empty update)."""
    return float(np.maximum.reduce(np.abs(delta), axis=None, initial=0.0))


def newton_iterate(x_pad: np.ndarray, residual, solve,
                   opts: NewtonOptions, singular, *, guard=None,
                   x_prev: np.ndarray | None = None,
                   accept=None) -> bool:
    """The Newton inner loop of every analysis; updates *x_pad*.

    Per iteration: ``rhs = residual()``; the lane *guard* scrubs failed
    lanes; ``delta = solve(rhs)`` under the caller's linear policy (full
    Newton, a :class:`~repro.linalg.FactorizationCache` or one constant
    LU), a :class:`numpy.linalg.LinAlgError` going to ``singular(rhs,
    exc, it)`` to repair or raise; the update is clipped to
    ``max_step``, the guard rolls non-finite lanes back to *x_prev*,
    and it is applied.  Convergence is ``worst <= vntol`` and, when
    given, ``accept()``.  On exhaustion a guard quarantines the lanes
    still moving and True is returned; without one, False.
    """
    n = x_pad.shape[-1] - 1
    for it in range(opts.max_iterations):
        rhs = residual()
        if guard is not None:
            guard.scrub_rhs(rhs)
        try:
            delta = solve(rhs)
        except np.linalg.LinAlgError as exc:
            delta = singular(rhs, exc, it)
        _clip_step(delta, opts.max_step)
        if guard is not None:
            guard.absorb_bad_delta(delta, x_pad, x_prev)
        x_pad[..., :n] -= delta
        worst = (guard.worst(delta) if guard is not None
                 else _max_abs(delta))
        if worst <= opts.vntol and (accept is None or accept()):
            return True
    if guard is None:
        return False
    guard.quarantine(np.max(np.abs(delta), axis=-1) > opts.vntol,
                     x_pad, x_prev)
    return True


def newton_solve(compiled: CompiledCircuit, state: ParamState,
                 x_pad: np.ndarray, t: float,
                 options: NewtonOptions | None = None,
                 source_scale: float = 1.0,
                 gmin: float = GMIN_DEFAULT) -> np.ndarray:
    """Run Newton on the static system ``i(x, t) = 0``; returns ``x_pad``.

    *x_pad* is the initial guess, updated in place by
    :func:`newton_iterate`.  Linear solves run on ``compiled.backend``;
    backends with a reuse policy keep one Jacobian factorization across
    iterations (modified Newton, see :mod:`repro.linalg`) - the
    ``accept`` check that a fresh residual is within ``abstol`` is what
    guarantees this cannot degrade the accepted solution.

    Raises
    ------
    ConvergenceError
        If the iteration does not meet tolerance.
    SingularMatrixError
        If the Jacobian is singular.
    """
    opts = options or NewtonOptions()
    n = compiled.n
    batch = x_pad.shape[:-1]
    backend = compiled.backend
    cache = (FactorizationCache(backend,
                                jac_constant=not compiled.has_nonlinear)
             if backend.policy.reuse else None)

    # native-CSR path: batchless solves on a wants_csr backend stamp
    # the sparse-native state values straight onto the circuit's
    # sparsity plan - no dense template or buffer is ever materialised
    use_csr = (cache is not None and backend.wants_csr and not batch
               and not state.batched)
    if use_csr:
        asm = compiled.csr_assembler(state)
        f_pad = np.zeros(n + 1)
        jac = None

        def assemble(jacobian: bool) -> None:
            asm.assemble(x_pad, t, f_pad, source_scale=source_scale,
                         gmin=gmin, jacobian=jacobian)

        def jac_fresh():
            assemble(True)
            return asm.jac_matrix()
    else:
        _, g_pad, f_pad = compiled.buffers(batch)
        jac = g_pad[..., :n, :n]
        scratch = None if state.batched else compiled.scratch(batch)

        def assemble(jacobian: bool) -> None:
            compiled.assemble(state, x_pad, t, g_pad, f_pad,
                              source_scale=source_scale, gmin=gmin,
                              jacobian=jacobian, scratch=scratch)

        def jac_fresh():
            # cache re-factor: assemble at the current iterate
            assemble(True)
            return jac

    res = f_pad[..., :n]

    def residual() -> np.ndarray:
        assemble(cache is None)
        return res

    def solve(rhs: np.ndarray) -> np.ndarray:
        if cache is not None:
            return cache.solve(rhs, jac_fresh)
        return backend.solve(jac, rhs)

    def singular(rhs, exc, it):
        raise SingularMatrixError(
            f"singular DC Jacobian for '{compiled.circuit.name}' "
            f"(floating node or voltage-source loop?): {exc}",
            iterations=it,
            theta_fingerprint=state.theta_fingerprint()) from exc

    def accept() -> bool:
        assemble(False)
        return _max_abs(res) <= opts.abstol

    if newton_iterate(x_pad, residual, solve, opts, singular,
                      accept=accept):
        return x_pad
    raise ConvergenceError(
        f"Newton failed on '{compiled.circuit.name}' after "
        f"{opts.max_iterations} iterations",
        iterations=opts.max_iterations,
        residual=_max_abs(res),
        theta_fingerprint=state.theta_fingerprint())


def dc_operating_point(compiled: CompiledCircuit,
                       state: ParamState | None = None,
                       t: float = 0.0,
                       x_guess: np.ndarray | None = None,
                       batch_shape: tuple[int, ...] = (),
                       options: NewtonOptions | None = None) -> DcResult:
    """Find the DC operating point (sources evaluated at time *t*).

    Tries plain Newton from the initial-condition guess, then gmin
    stepping, then source stepping.
    """
    state = state or compiled.nominal
    if state.batched:
        batch_shape = state.batch_shape
    if x_guess is not None:
        x_pad = compiled.pad(np.broadcast_to(
            x_guess, batch_shape + (compiled.n,)).copy())
    else:
        x_pad = compiled.initial_padded(batch_shape)

    start = x_pad.copy()
    try:
        newton_solve(compiled, state, x_pad, t, options)
        return DcResult(compiled, state, x_pad[..., :-1].copy())
    except ConvergenceError:
        pass

    # gmin stepping
    x_pad = start.copy()
    try:
        for gmin in np.geomspace(1e-2, GMIN_DEFAULT, 12):
            newton_solve(compiled, state, x_pad, t, options, gmin=gmin)
        return DcResult(compiled, state, x_pad[..., :-1].copy())
    except ConvergenceError:
        pass

    # source stepping
    x_pad = start.copy()
    last_error: ConvergenceError | None = None
    try:
        for scale in np.linspace(0.05, 1.0, 20):
            newton_solve(compiled, state, x_pad, t, options,
                         source_scale=float(scale))
        return DcResult(compiled, state, x_pad[..., :-1].copy())
    except ConvergenceError as exc:
        last_error = exc
    raise ConvergenceError(
        f"no DC operating point found for '{compiled.circuit.name}' "
        f"(Newton, gmin stepping and source stepping all failed): "
        f"{last_error}",
        iterations=(last_error.iterations
                    if last_error is not None else None),
        residual=(last_error.residual
                  if last_error is not None else None),
        theta_fingerprint=state.theta_fingerprint())


def dc_sweep(compiled: CompiledCircuit, source_name: str,
             values: np.ndarray, state: ParamState | None = None,
             options: NewtonOptions | None = None) -> DcResult:
    """Sweep the DC value of one source over *values* (batched solve).

    Returns a :class:`DcResult` whose ``x`` has the sweep as batch axis.
    """
    values = np.asarray(values, dtype=float)
    base = state or compiled.nominal
    swept = compiled.make_state(
        deltas=None, source_values={**base.source_values,
                                    source_name: values},
        batch_shape=values.shape)
    return dc_operating_point(compiled, swept, batch_shape=values.shape,
                              options=options)
