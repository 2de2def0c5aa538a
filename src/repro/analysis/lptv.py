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
2. write every step injection
   ``rho_k = theta di_k + (1 - theta) di_{k-1} + (dq_k - dq_{k-1}) / h``
   once, for *all* parameters, into the buffer the waveforms fill;
3. close the periodicity condition from the one-period particular
   response ``P_N = dPhi/dp`` (pass 1): driven circuits solve
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
The closure ``(dx0, dT/dp)`` of the circuit's default injection set (a
solve with ``injections=None``) is kept with the orbit's linearisation,
so a later default solve on the same orbit skips pass 1 and costs one
sweep.

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
circuit, and the ``rho_k`` stack, written in blocks of
:data:`~repro.analysis.orbit.ORBIT_BLOCK` steps into ``waveforms[1:]``
(pass 2 reads each ``rho_k`` before it overwrites it with the
waveform sample); ``matrix_free=`` on
:class:`PeriodicLinearization` / :func:`periodic_sensitivities` forces
either engine (the parity suite does).  A closure that fails to
converge in GMRES falls back to the explicit monodromy with a warning;
for the default injection set that fallback closure is the one kept,
so the warning is emitted once per orbit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..linalg.krylov import GMRES_MAXITER, GMRES_TOL, solve_blocked
from .mna import CompiledCircuit, Injection
from .orbit import ORBIT_BLOCK, OrbitLinearization
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

    def _rho_stack(self, injections: list[Injection],
                   d: np.ndarray) -> None:
        """Write the step injection ``rho_k`` of the per-row theta
        scheme into ``d[k]``, ``k = 1 .. n_steps``.

        Each ``rho_k`` keeps the order of operations of ``theta *
        di[k] + (1 - theta) * di[k-1] + (dq[k] - dq[k-1]) / h``, so its
        bits are those of one step at a time.  The steps run in blocks
        of :data:`~repro.analysis.orbit.ORBIT_BLOCK`, gathering ``di``
        and ``dq`` of one block at a time, so no temporary spans the
        orbit.
        """
        n_steps = self.n_steps
        one_minus = 1.0 - self.theta
        shape = (min(ORBIT_BLOCK, n_steps) + 1,) + d.shape[1:]
        di, dq, tmp = np.empty(shape), np.zeros(shape), np.empty(shape)
        for k0 in range(1, n_steps + 1, ORBIT_BLOCK):
            k1 = min(k0 + ORBIT_BLOCK, n_steps + 1)
            b = k1 - k0          # di[j], dq[j] hold samples k0 - 1 + j
            for i, inj in enumerate(injections):
                di[:b + 1, :, i] = inj.di_dp[k0 - 1:k1]
                if inj.dq_dp is not None:
                    dq[:b + 1, :, i] = inj.dq_dp[k0 - 1:k1]
            rho, t = d[k0:k1], tmp[:b]
            np.multiply(self.theta, di[1:b + 1], out=rho)
            np.multiply(one_minus, di[:b], out=t)
            rho += t
            np.subtract(dq[1:b + 1], dq[:b], out=t)
            t /= self.h
            rho += t

    def solve(self, injections: "list[Injection] | None" = None
              ) -> SensitivitySolution:
        """Periodic response to a unit constant deviation of every
        parameter (the 1-Hz pseudo-noise limit).

        *injections* default to every mismatch declaration of the
        circuit; that set's closure is kept on the orbit's
        linearisation (:attr:`OrbitLinearization.closure`, dropped by
        :meth:`~repro.analysis.pss.PssResult.clear_caches`), so a later
        default solve skips pass 1.  A custom list never reads or
        writes it.
        """
        default = injections is None
        if default:
            injections = self.compiled.mismatch_injections(
                self.pss.state, self.pss.x)
        if not injections:
            raise AnalysisError(
                f"circuit '{self.compiled.circuit.name}' declares no "
                "mismatch parameters" if default
                else "no injections to solve for")
        n_steps = self.n_steps
        for inj in injections:
            if inj.di_dp.shape[0] != n_steps + 1:
                raise AnalysisError(
                    "injections were not built on this PSS orbit "
                    f"({inj.di_dp.shape[0]} samples vs {n_steps + 1})")

        d = np.empty((n_steps + 1, self.compiled.n, len(injections)))
        self._rho_stack(injections, d)
        closure = self.lin.closure if default else None
        if closure is None:
            if self.lin.sparse:
                closure = self._close_matrix_free(d[1:])
            else:
                closure = self._close_explicit(
                    *self.lin.monodromy_and_response(d.shape[-1], d[1:]))
            if default:
                self.lin.closure = closure
        dx0, dT_dp = closure

        # pass 2: store the full periodic sensitivity waveforms
        d[0] = dx0
        self.lin.sweep(dx0, d[1:], store=d)
        return SensitivitySolution(
            pss=self.pss, injections=list(injections), waveforms=d,
            dT_dp=None if dT_dp is None else dT_dp.copy())

    # ------------------------------------------------------------------
    # periodicity closures
    # ------------------------------------------------------------------
    def _close_explicit(self, mono: np.ndarray, p_n: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray | None]:
        """Close the periodicity condition against an explicit
        monodromy matrix - the dense engine's closure (pass 1 carries
        the identity columns beside the injections, so one sweep yields
        ``M`` and ``P_N`` together) and the matrix-free engine's
        GMRES-stall fallback."""
        n = self.compiled.n
        if self.pss.is_oscillator:
            a_idx = self.pss.anchor_index
            big = np.zeros((n + 1, n + 1))
            big[:n, :n] = np.eye(n) - mono
            xdot_t = self.pss.end_slope(self.pss.x, self.h)
            big[:n, n] = -xdot_t
            big[n, a_idx] = 1.0
            rhs = np.concatenate([p_n, np.zeros((1, p_n.shape[1]))],
                                 axis=0)
            sol = np.linalg.solve(big, rhs)
            return sol[:n], sol[n]
        return np.linalg.solve(np.eye(n) - mono, p_n), None

    def _close_matrix_free(self, rhos: np.ndarray
                           ) -> tuple[np.ndarray, np.ndarray | None]:
        """Matrix-free closure on the ``(n_steps, n, m)`` stack *rhos*:
        one blocked particular sweep for ``P_N`` (no identity columns),
        then blocked GMRES on the sweep operator.  Falls back to the
        explicit monodromy - with a warning - if GMRES stalls."""
        lin = self.lin
        n = self.compiled.n
        m = rhos.shape[-1]

        # pass 1: particular solution only - the monodromy never rides
        p = lin.sweep(np.zeros((n, m)), rhos)

        if self.pss.is_oscillator:
            a_idx = self.pss.anchor_index
            xdot_t = self.pss.end_slope(self.pss.x, self.h)
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
    lin = PeriodicLinearization(pss_result, matrix_free=matrix_free)
    return lin.solve(injections)


__all__ = ["PeriodicLinearization", "SensitivitySolution",
           "periodic_sensitivities", "OrbitLinearization"]
