"""LPTV small-signal analysis around a periodic steady state.

This is the time-domain ("shooting") realisation of the paper's LPTV
noise/sensitivity analysis - the same structure SpectreRF's PNOISE uses
([12]-[17] in the paper).  Around a converged PSS orbit the circuit is
linear and periodically time-varying:

.. math:: C \\dot{\\delta x} + G(t)\\, \\delta x
          = -\\Big( \\frac{d}{dt}\\frac{\\partial q}{\\partial p}
          + \\frac{\\partial i}{\\partial p} \\Big)\\, \\delta p

The right-hand side is exactly the *pseudo-noise injection* of a mismatch
parameter (paper Section III); its quasi-DC (1 Hz) limit is the periodic
solution of the equation above with a constant ``delta p``, which this
module computes exactly on the PSS discretisation:

1. along the orbit, factor the per-step integrator matrices
   ``A_k = C/h + theta G_k``, ``B_k = C/h - (1 - theta) G_{k-1}``
   (once, shared with shooting and the harmonic/pnoise consumers -
   :class:`~repro.analysis.orbit.OrbitLinearization`);
2. propagate the one-period particular response ``P_N = dPhi/dp`` for
   *all* parameters as one blocked right-hand side;
3. close the periodicity condition: driven circuits solve
   ``(I - M) dx0 = P_N``; oscillators solve the bordered system that adds
   the period unknown ``dT`` and the phase-anchor row - ``dT/dp`` *is*
   the oscillator's frequency sensitivity (the discrete equivalent of the
   PPV projection of [15]);
4. a second pass stores the full periodic sensitivity waveform
   ``w_i(t_k) = dx_pss(t_k)/dp_i`` for every parameter at once.

Cost: one orbit linearisation plus two block-triangular sweeps -
independent of the number of mismatch parameters beyond cheap matrix
multiplies.  This is the "no additional simulation cost" property the
paper stresses for contributions, correlations and design sensitivities.

Engine selection (the Krylov path and its dense fallback)
---------------------------------------------------------
On a ``wants_csr`` backend at or above
:data:`~repro.linalg.krylov.MATRIX_FREE_MIN_UNKNOWNS` unknowns the
solve runs *matrix-free*: the orbit linearisation is stored as per-step
CSR value arrays on the circuit's plan (O(n_steps * nnz) instead of the
O(n_steps * n^2) dense stack), the monodromy matrix is never formed,
and the periodicity closure is solved by blocked GMRES on the sweep
operator ``v -> M v`` (:mod:`repro.linalg.krylov`) - all injections
ride through the two sweeps and the closure as one blocked RHS, so the
cost stays parameter-count independent.  Below the threshold (or on
dense backends) the explicit dense monodromy path runs instead,
bit-identical to earlier releases: pass 1 carries the identity columns
beside the injections, so one sweep yields ``M`` and ``P_N`` together.
Both engines sweep operands built once - the ``B_k`` stack of the
linearisation, one shared ``A_k`` factorization on a constant-Jacobian
circuit, and ``rho_k`` written step by step into one reused buffer (no
``(N, n, m)`` injection stack); ``matrix_free=`` on
:class:`PeriodicLinearization` / :func:`periodic_sensitivities` forces
either engine (the parity suite does).  A closure that fails to
converge in GMRES falls back to the explicit monodromy with a warning.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..linalg.krylov import GMRES_MAXITER, GMRES_TOL, solve_blocked
from .mna import CompiledCircuit, Injection
from .orbit import OrbitLinearization
from .pss import PssResult


@dataclass
class SensitivitySolution:
    """Periodic sensitivity waveforms of one LPTV solve.

    Attributes
    ----------
    pss:
        The orbit the linearisation was taken around.
    injections:
        The parameter injections, order matching the last axis of
        ``waveforms``.
    waveforms:
        ``(N+1, n, m)``: ``waveforms[k, :, i]`` is the periodic
        steady-state shift per unit of parameter ``i`` at orbit sample
        ``k``.  For oscillators this is the orbit-shape sensitivity at
        fixed phase (the period shift is reported separately).
    dT_dp:
        ``(m,)`` period sensitivities [s/unit]; ``None`` for driven
        circuits.
    """

    pss: PssResult
    injections: list[Injection]
    waveforms: np.ndarray
    dT_dp: np.ndarray | None = None

    @property
    def n_params(self) -> int:
        return len(self.injections)

    @property
    def sigmas(self) -> np.ndarray:
        """Mismatch sigma of every injection, in injection order."""
        return np.array([inj.sigma for inj in self.injections])

    @property
    def keys(self) -> list[tuple[str, str]]:
        return [inj.key for inj in self.injections]

    def node_waveforms(self, node: str, neg: str | None = None
                       ) -> np.ndarray:
        """``(N+1, m)`` sensitivity waveforms of a (differential) node."""
        c = self.pss.compiled
        out = self.waveforms[:, c.node_index[node], :]
        if neg is not None:
            out = out - self.waveforms[:, c.node_index[neg], :]
        return out

    def df_dp(self) -> np.ndarray:
        """Oscillator frequency sensitivities ``df/dp = -dT/dp / T^2``."""
        if self.dT_dp is None:
            raise AnalysisError(
                "frequency sensitivities require an oscillator PSS")
        return -self.dT_dp / self.pss.period ** 2


class PeriodicLinearization:
    """The factored LPTV operator along one PSS orbit.

    A thin sensitivity-solver over the shared
    :class:`~repro.analysis.orbit.OrbitLinearization` (obtained from
    :meth:`~repro.analysis.pss.PssResult.linearization`, so shooting,
    LPTV, the harmonic noise engine and the monodromy utilities all
    reuse one set of per-step ``A_k`` factorizations instead of each
    re-assembling and re-factoring the orbit).

    On the sparse engine the linearisation lives on the circuit's
    :class:`~repro.linalg.sparsity.CsrPlan` (O(n_steps * nnz)) and the
    periodicity closure runs matrix-free through blocked GMRES; on the
    dense engine (small circuits, non-CSR backends) the explicit
    monodromy path of earlier releases runs bit-identically.  See the
    module docstring for when each engages.
    """

    def __init__(self, pss_result: PssResult,
                 matrix_free: "bool | None" = None):
        self.pss = pss_result
        self.lin = pss_result.linearization(matrix_free)
        self.h = self.lin.h
        self.theta = self.lin.theta

    @property
    def compiled(self) -> CompiledCircuit:
        return self.pss.compiled

    @property
    def n_steps(self) -> int:
        return self.pss.n_steps

    @property
    def g_t(self) -> np.ndarray:
        """Dense per-step Jacobian stack (dense engine; the sparse
        engine densifies on demand - harmonic-engine sized only)."""
        return self.lin.g_stack()

    @property
    def c(self) -> np.ndarray:
        return self.lin.c_dense()

    def clear_caches(self) -> "PeriodicLinearization":
        """Drop the per-step factorization list (rebuilt lazily on the
        next solve) - the analogue of the other engines'
        ``clear_caches`` for long sweeps that linearise many orbits.
        Returns ``self``."""
        self.lin.clear_factors()
        return self

    def monodromy(self) -> np.ndarray:
        """State-transition matrix over one period, ``dPhi/dx0``."""
        return self.lin.monodromy()

    def _rho_sweep(self, di: np.ndarray, dq: np.ndarray):
        """Step injections ``rho_k``, ``k = 1 .. n_steps`` in order,
        for the per-row theta scheme, each ``(n, m)``.

        Every ``rho_k`` is written into one reused buffer with the
        order of operations of ``theta * di[k] + (1 - theta) *
        di[k-1] + (dq[k] - dq[k-1]) / h``; a consumer must be done with
        it before the next step.  No ``(N, n, m)`` stack is built.
        """
        theta = self.theta
        one_minus = 1.0 - theta
        rho = np.empty(di.shape[1:])
        tmp = np.empty_like(rho)
        for k in range(1, self.n_steps + 1):
            np.multiply(theta, di[k], out=rho)
            np.multiply(one_minus, di[k - 1], out=tmp)
            rho += tmp
            np.subtract(dq[k], dq[k - 1], out=tmp)
            tmp /= self.h
            rho += tmp
            yield rho

    def solve(self, injections: list[Injection]) -> SensitivitySolution:
        """Periodic response to a unit constant deviation of every
        parameter (the 1-Hz pseudo-noise limit)."""
        if not injections:
            raise AnalysisError("no injections to solve for")
        n = self.compiled.n
        n_steps = self.n_steps

        di = np.stack([inj.di_dp for inj in injections], axis=-1)
        dq = np.zeros_like(di)
        for i, inj in enumerate(injections):
            if inj.dq_dp is not None:
                dq[:, :, i] = inj.dq_dp
        if di.shape[0] != n_steps + 1:
            raise AnalysisError(
                "injections were not built on this PSS orbit "
                f"({di.shape[0]} samples vs {n_steps + 1})")

        if self.lin.sparse:
            dx0, dT_dp = self._close_matrix_free(di, dq)
        else:
            dx0, dT_dp = self._close_dense(di, dq)

        # pass 2: store the full periodic sensitivity waveforms
        m = di.shape[-1]
        d = np.empty((n_steps + 1, n, m))
        d[0] = dx0
        self.lin.sweep(dx0, self._rho_sweep(di, dq), store=d)
        return SensitivitySolution(pss=self.pss, injections=list(injections),
                                   waveforms=d, dT_dp=dT_dp)

    # ------------------------------------------------------------------
    # periodicity closures
    # ------------------------------------------------------------------
    def _close_dense(self, di: np.ndarray, dq: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """Explicit monodromy closure (the legacy bit-identical path):
        pass 1 carries the identity columns alongside the injections,
        so one sweep yields ``M`` and ``P_N`` together."""
        mono, p_n = self.lin.monodromy_and_response(
            di.shape[-1], self._rho_sweep(di, dq))
        return self._close_explicit(mono, p_n)

    def _close_explicit(self, mono: np.ndarray, p_n: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray | None]:
        """Close the periodicity condition against an explicit
        monodromy matrix - the dense engine's closure and the
        matrix-free engine's GMRES-stall fallback."""
        n = self.compiled.n
        if self.pss.is_oscillator:
            a_idx = self.pss.anchor_index
            big = np.zeros((n + 1, n + 1))
            big[:n, :n] = np.eye(n) - mono
            xdot_t = (self.pss.x[-1] - self.pss.x[-2]) / self.h
            big[:n, n] = -xdot_t
            big[n, a_idx] = 1.0
            rhs = np.concatenate([p_n, np.zeros((1, p_n.shape[1]))],
                                 axis=0)
            sol = np.linalg.solve(big, rhs)
            return sol[:n], sol[n]
        return np.linalg.solve(np.eye(n) - mono, p_n), None

    def _close_matrix_free(self, di: np.ndarray, dq: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray | None]:
        """Matrix-free closure: one blocked particular sweep for
        ``P_N`` (no identity columns), then blocked GMRES on the sweep
        operator.  Falls back to the explicit monodromy - with a
        warning - if GMRES stalls."""
        lin = self.lin
        n = self.compiled.n
        m = di.shape[-1]

        # pass 1: particular solution only - the monodromy never rides
        p = lin.sweep(np.zeros((n, m)), self._rho_sweep(di, dq))

        if self.pss.is_oscillator:
            a_idx = self.pss.anchor_index
            xdot_t = (self.pss.x[-1] - self.pss.x[-2]) / self.h
            # h-scaled period column (see OrbitLinearization.
            # bordered_op); sign=-1 gives this closure's I - M
            # convention
            op = lin.bordered_op(xdot_t * self.h, a_idx, sign=-1.0)
            rhs = np.concatenate([p, np.zeros((1, m))], axis=0)
            sol, _, ok = solve_blocked(op, rhs, tol=GMRES_TOL,
                                       maxiter=GMRES_MAXITER)
            if ok:
                return sol[:n], sol[n] * self.h
        else:
            def op(v: np.ndarray) -> np.ndarray:
                return v - lin.apply_monodromy(v)

            sol, _, ok = solve_blocked(op, p, tol=GMRES_TOL,
                                       maxiter=GMRES_MAXITER)
            if ok:
                return sol, None

        warnings.warn(
            f"LPTV periodicity closure on '{self.compiled.circuit.name}' "
            f"did not converge in {GMRES_MAXITER} GMRES iterations; "
            "falling back to the explicit monodromy solve",
            UserWarning, stacklevel=4)
        return self._close_explicit(lin.monodromy(), p)


def periodic_sensitivities(pss_result: PssResult,
                           injections: list[Injection] | None = None,
                           matrix_free: "bool | None" = None
                           ) -> SensitivitySolution:
    """One-call helper: linearise the orbit and solve all mismatch
    injections of the circuit.

    *matrix_free* forces the sparse Krylov engine (``True``) or the
    dense explicit-monodromy engine (``False``); the default ``None``
    selects by backend and circuit size.
    """
    if injections is None:
        compiled = pss_result.compiled
        injections = compiled.mismatch_injections(pss_result.state,
                                                  pss_result.x)
    lin = PeriodicLinearization(pss_result, matrix_free=matrix_free)
    return lin.solve(injections)


__all__ = ["PeriodicLinearization", "SensitivitySolution",
           "periodic_sensitivities", "OrbitLinearization"]
