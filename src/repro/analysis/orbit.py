"""The factored LPTV operator along one periodic orbit.

:class:`OrbitLinearization` is the shared engine under every periodic
analysis: shooting PSS Newton updates, the LPTV sensitivity solve
(:mod:`repro.analysis.lptv`), the monodromy/Floquet utilities and the
harmonic/pnoise consumers all reduce to sweeps of the per-step maps

.. math:: A_k \\, \\delta x_k = B_k \\, \\delta x_{k-1} - \\rho_k,
          \\qquad A_k = C/h + \\theta G_k,
          \\quad B_k = C/h - (1 - \\theta) G_{k-1}

along a converged orbit.  Building those maps once - and *storing them
sparsely* - is what this class owns; the consumers only differ in the
right-hand sides they push through.

Two storage engines, selected through the backend seam
(:func:`repro.linalg.krylov.use_matrix_free`):

**Sparse-native** (``wants_csr`` backends at or above the matrix-free
threshold, or forced).  The per-step Jacobians are value arrays over
the circuit's fixed :class:`~repro.linalg.sparsity.CsrPlan` -
``O(n_steps * nnz)`` memory instead of the dense ``(n_steps, n, n)``
stack (3.2 GB for a 1k-node circuit at 400 steps) - and every ``A_k``
is factored once through :meth:`~repro.linalg.LinearSolverBackend.
factor_csc`.  The monodromy matrix is never formed: :meth:`
apply_monodromy` is one block-triangular sweep of cached solves, the
operator the Krylov closures consume.  Time-invariant linearisations
(no MOSFETs / behavioral VCCS: ``G_k`` constant) go further - one
assembled Jacobian row broadcast across the orbit and a single shared
factorization, O(nnz) total.

**Dense** (everything else).  The legacy explicit path, bit-identical
to earlier releases: dense ``g_t`` stack, per-step dense factors from
``backend.factor``.  The stack is assembled in blocks of
:data:`ORBIT_BLOCK` samples through the batched
:meth:`~repro.analysis.mna.CompiledCircuit.assemble` (per-row times,
gates and source rows), not one call per sample.  Dense shooting takes
the monodromy of every pass that does not close from here, so this
class is the only code that forms one.

On both engines ``B_k`` is built once per linearisation, as one stack,
and a time-invariant linearisation shares one factorization of its one
``A_k`` across all steps (the same matrix, so the same bits).

The factorization list is a *derived cache*: :meth:`clear_factors`
drops it (and the ``B_k`` block) so long sweeps that
linearise many orbits do not accumulate SuperLU objects; the first
sweep after a clear rebuilds lazily.
"""

from __future__ import annotations

import numpy as np

from ..linalg.krylov import use_matrix_free
from .mna import CompiledCircuit, ParamState

#: Orbit samples per batched assembly of the dense linearisation: few
#: enough calls to drop the per-call overhead, small enough that the
#: block's work buffers stay a few hundred kB (a whole-orbit block
#: raised the cold PSS+LPTV call's peak RSS by ~8 MB).
ORBIT_BLOCK = 64

#: Assumed fill of a sparse LU, as factor entries per Jacobian entry,
#: for :meth:`OrbitLinearization.estimate_nbytes` (a factorization's
#: size is not known before it is built).
SPARSE_LU_FILL = 4


class OrbitLinearization:
    """Per-step linearised maps ``(A_k, B_k)`` of one orbit, factored.

    Parameters
    ----------
    compiled, state:
        The circuit and the parameter state the orbit was integrated
        with.
    x, t:
        Orbit samples ``(n_steps + 1, n)`` (first and last nominally
        equal) and the matching absolute times.
    period:
        Orbit period; the uniform step is ``period / n_steps``.
    method:
        One-step scheme (``"trap"`` / ``"be"``) - sets the per-row
        implicitness via :meth:`~repro.analysis.mna.CompiledCircuit.
        theta_rows`.
    matrix_free:
        Force the sparse (``True``) or dense (``False``) engine;
        ``None`` selects by backend and size (:func:`~repro.linalg.
        krylov.use_matrix_free`).
    """

    def __init__(self, compiled: CompiledCircuit, state: ParamState,
                 x: np.ndarray, t: np.ndarray, period: float,
                 method: str, matrix_free: "bool | None" = None):
        self.compiled = compiled
        self.state = state
        self.n = compiled.n
        self.n_steps = int(x.shape[0]) - 1
        self.h = period / self.n_steps
        self.method = method
        self.theta = compiled.theta_rows(state, method)[:, None]
        self.sparse = use_matrix_free(compiled.backend, compiled.n,
                                      matrix_free)
        #: ``G_k`` is the same at every sample (no state-dependent
        #: devices): on both engines one factorization of the one
        #: ``A_k`` serves all steps, and ``B_k`` is one broadcast row.
        self.time_invariant = not compiled.has_nonlinear
        self._factors: "list | None" = None
        #: Periodicity closure ``(dx0, dT_dp)`` of the circuit's default
        #: injection set on this orbit, kept by
        #: :meth:`~repro.analysis.lptv.PeriodicLinearization.solve`.
        self.closure: "tuple | None" = None
        #: ``B_k`` for ``k = 1 .. n_steps``: CSR value rows on the
        #: sparse engine, dense ``(n, n)`` blocks otherwise; built on
        #: the first sweep (:meth:`_b_block`).
        self._b_t: "np.ndarray | None" = None
        if self.sparse:
            self.plan = compiled.csr_plan
            #: Per-step Jacobian values over the plan, ``(N+1, nnz)``.
            #: Time-invariant circuits assemble one row and broadcast
            #: it - their linearisation stores O(nnz), not
            #: O(n_steps * nnz).
            if self.time_invariant:
                row = compiled.orbit_csr_jacobians(state, x[:1], t[:1])
                self.g_data_t = np.broadcast_to(
                    row[0], (self.n_steps + 1, row.shape[1]))
            else:
                self.g_data_t = compiled.orbit_csr_jacobians(state, x, t)
            # the assembler supplies the shared step-matrix helpers
            # (theta_data gather, theta*G + C/h composition) so the
            # conventions live in one place (CsrAssembler)
            self._asm = compiled.csr_assembler(state)
            self._coh_data = self._asm.c_over_h_data(self.h)
            self._theta1 = np.ascontiguousarray(self.theta[:, 0])
            self.g_t = None
        else:
            n = compiled.n
            n_pts = self.n_steps + 1
            #: Dense per-step Jacobian stack ``(N+1, n, n)``, assembled
            #: in blocks of :data:`ORBIT_BLOCK` samples through the
            #: batched path - each sample bit-identical to a
            #: single-sample assembly, at a fraction of the calls.
            self.g_t = np.empty((n_pts, n, n))
            t = np.asarray(t, dtype=float)
            sources = compiled.source_table(state, t)
            x_buf, g_buf, f_buf = compiled.buffers(
                (min(ORBIT_BLOCK, n_pts),))
            for k0 in range(0, n_pts, ORBIT_BLOCK):
                k1 = min(k0 + ORBIT_BLOCK, n_pts)
                x_pad, g_pad = x_buf[:k1 - k0], g_buf[:k1 - k0]
                x_pad[:, :n] = x[k0:k1]
                compiled.assemble(state, x_pad, t[k0:k1], g_pad,
                                  f_buf[:k1 - k0],
                                  sources=sources.rows(k0, k1))
                self.g_t[k0:k1] = g_pad[:, :n, :n]
            self.c = compiled.capacitance(state)[:n, :n]
            self.c_over_h = self.c / self.h

    @staticmethod
    def estimate_nbytes(compiled: CompiledCircuit, n_steps: int) -> int:
        """Bytes a fully built linearisation of an *n_steps* orbit of
        *compiled* holds, on the engine selected by default: its
        Jacobian stack, its per-step factors, its ``B_k`` block (one
        row or one factor when time-invariant) and the :attr:`closure`
        of the circuit's ``p`` default injections (``n * p + p``
        floats).

        The count comes from shapes alone, so it is known before any of
        it is built.  A sparse factor is estimated at
        :data:`SPARSE_LU_FILL` entries per Jacobian entry.
        """
        n = compiled.n
        p = len(compiled.circuit.mismatch_decls())
        closure = (n * p + p) * 8
        steps = 1 if not compiled.has_nonlinear else n_steps
        if use_matrix_free(compiled.backend, n, None):
            # Jacobian value rows (one when time-invariant), the B_k
            # rows, then the factors (values + indices)
            nnz = compiled.csr_plan.nnz
            g_rows = 1 if steps == 1 else n_steps + 1
            factor = SPARSE_LU_FILL * nnz * 12 + n * 8
            return (g_rows + steps) * nnz * 8 + steps * factor + closure
        block = n * n * 8
        # g_t and c_over_h, the padded capacitance (c is a view of
        # it), theta, then B_k and the factors (LU + pivots)
        return ((n_steps + 2) * block + (n + 1) ** 2 * 8 + n * 8
                + steps * block + steps * (block + n * 8) + closure)

    # ------------------------------------------------------------------
    # factorizations (lazy, clearable)
    # ------------------------------------------------------------------
    def factors(self) -> list:
        """Per-step ``A_k`` factorizations, ``k = 1 .. n_steps``
        (index ``k - 1``).  Built once, lazily; dropped by
        :meth:`clear_factors`."""
        if self._factors is None:
            backend = self.compiled.backend
            if self.sparse:
                if self.time_invariant:
                    f = backend.factor_csc(self._a_csc(1))
                    self._factors = [f] * self.n_steps
                else:
                    self._factors = [backend.factor_csc(self._a_csc(k))
                                     for k in range(1, self.n_steps + 1)]
            elif self.time_invariant:
                f = backend.factor(self.c_over_h + self.theta * self.g_t[1])
                self._factors = [f] * self.n_steps
            else:
                self._factors = [backend.factor(
                    self.c_over_h + self.theta * self.g_t[k])
                    for k in range(1, self.n_steps + 1)]
        return self._factors

    def _a_csc(self, k: int):
        """Factorable CSC of ``A_k`` over the plan (sparse engine) -
        composed by :meth:`~repro.analysis.mna.CsrAssembler.
        step_matrix` so the theta/G/C convention has one owner."""
        self._asm.g_data[:self.plan.nnz] = self.g_data_t[k]
        return self._asm.step_matrix(self._theta1, self._coh_data)

    def clear_factors(self) -> "OrbitLinearization":
        """Drop the factorization list (and the derived ``B_k`` block)
        so repeated orbit linearisations in long sweeps do not
        accumulate factorizations; the stored linearisation itself
        (``g_data_t`` / ``g_t``) survives and the next sweep rebuilds
        lazily.  Returns ``self``."""
        self._factors = None
        self._b_t = None
        return self

    # ------------------------------------------------------------------
    # the per-step maps
    # ------------------------------------------------------------------
    def _b_block(self) -> np.ndarray:
        """Every ``B_k``, built once: CSR value rows ``(N, nnz)`` on
        the sparse engine, dense blocks ``(N, n, n)`` otherwise; one
        broadcast row when time-invariant."""
        if self._b_t is None:
            if self.sparse:
                coh = self._coh_data[:self.plan.nnz]
                one_minus = 1.0 - self._asm.theta_data(self._theta1)
                g_prev = self.g_data_t
            else:
                coh = self.c_over_h
                one_minus = 1.0 - self.theta
                g_prev = self.g_t
            if self.time_invariant:
                row = coh - one_minus * g_prev[0]
                self._b_t = np.broadcast_to(
                    row, (self.n_steps,) + row.shape)
            else:
                self._b_t = coh - one_minus * g_prev[:-1]
        return self._b_t

    def sweep(self, v: np.ndarray, rhos=None,
              store: "np.ndarray | None" = None) -> np.ndarray:
        """Carry *v* through one period of the recurrence
        ``v_k = A_k^{-1} (B_k v_{k-1} - rho_k)``, ``k = 1 .. n_steps``,
        and return ``v_N``.

        *v* may be ``(n,)`` or a blocked ``(n, m)``; the step
        injections ``rho_k`` come from the iterable *rhos* in order
        (zero without it), and with *store* every ``v_k`` is also
        written to ``store[k]``.  The ``B_k`` block and the
        factorizations are looked up once per sweep, and on the dense
        engine every ``B_k v`` lands in one reused buffer; each product
        and solve keeps its operands, so the bits are those of one
        step at a time.
        """
        facs, b_t = self.factors(), self._b_block()
        rhos = iter(rhos) if rhos is not None else None
        buf = None if self.sparse else np.empty(np.shape(v))
        for k in range(1, self.n_steps + 1):
            if self.sparse:
                rhs = self.plan.csr_view(b_t[k - 1]) @ v
            else:
                rhs = np.matmul(b_t[k - 1], v, out=buf)
            if rhos is not None:
                rhs -= next(rhos)
            v = facs[k - 1].solve(rhs)
            if store is not None:
                store[k] = v
        return v

    def apply_monodromy(self, v: np.ndarray) -> np.ndarray:
        """``M v = dPhi/dx0 . v`` - one block-triangular sweep of the
        cached per-step solves; *v* may be ``(n,)`` or a blocked
        ``(n, m)``.  This is the matrix-free operator the Krylov
        shooting update and the LPTV periodicity closure consume."""
        return self.sweep(v)

    def bordered_op(self, xdh: np.ndarray, a_idx: int,
                    sign: float = 1.0):
        """Matrix-free bordered oscillator operator for the Krylov
        closures: ``(v, w) -> (sign * ((M - I) v + xdh w), v[a_idx])``
        on ``(n+1, m)`` blocks.

        *xdh* must be the *h-scaled* period column (``xdot(T) * h`` -
        the period unknown becomes the per-step voltage-sized ``dT/h``,
        which is what keeps the operator well conditioned; callers
        unscale the solution's last row by ``h``).  Shooting uses
        ``sign=+1`` (``M - I`` convention), the LPTV periodicity
        closure ``sign=-1`` (``I - M``).  This is the single owner of
        the bordered convention; the dense fallbacks mirror it.
        """
        n = self.n

        def op(vw: np.ndarray) -> np.ndarray:
            v, w = vw[:n], vw[n:]
            top = self.apply_monodromy(v) - v + xdh[:, None] * w
            if sign < 0.0:
                top = -top
            return np.concatenate([top, v[a_idx:a_idx + 1]], axis=0)

        return op

    def monodromy(self) -> np.ndarray:
        """Explicit state-transition matrix over one period.

        Dense engine: the legacy product sweep
        (:meth:`monodromy_and_response`), which shooting uses for every
        pass that does not close.  Sparse engine: one blocked identity
        sweep - O(n) columns through the cached factorizations, for
        diagnostics/Floquet use and as the fallback when a Krylov
        closure fails to converge.
        """
        if self.sparse:
            return self.apply_monodromy(np.eye(self.n))
        return self.monodromy_and_response(0, ())[0]

    def monodromy_and_response(self, m: int, rhos
                               ) -> tuple[np.ndarray, np.ndarray]:
        """``(M, P_N)`` from one dense sweep that carries the identity
        columns beside *m* particular columns.

        *rhos* are the step injections ``rho_k``, ``k = 1 .. n_steps``
        in order, each ``(n, m)``; ``P_N`` is the one-period response
        to them from a zero start.  With ``m = 0`` this is the plain
        monodromy product.  The LPTV dense closure and dense shooting
        both run this sweep, bit-identical to earlier releases.
        """
        n = self.n
        facs, b_t = self.factors(), self._b_block()
        z = np.zeros((n, n + m))
        z[:, :n] = np.eye(n)
        rhs = np.empty_like(z)
        particular = rhs[:, n:]
        rhos = iter(rhos)
        for k in range(1, self.n_steps + 1):
            np.matmul(b_t[k - 1], z, out=rhs)
            if m:
                particular -= next(rhos)
            z = facs[k - 1].solve(rhs)
        return z[:, :n], z[:, n:]

    # ------------------------------------------------------------------
    # dense views for the (small-circuit) harmonic engine
    # ------------------------------------------------------------------
    def g_dense(self, k: int) -> np.ndarray:
        """Dense ``(n, n)`` Jacobian at orbit sample *k*."""
        if self.sparse:
            return self.plan.densify(self.g_data_t[k])
        return self.g_t[k]

    def g_stack(self) -> np.ndarray:
        """Dense ``(N+1, n, n)`` Jacobian stack.

        Only for consumers that are dense by nature and size-gated
        (the harmonic conversion-matrix engine); the shooting/LPTV
        paths never call this.
        """
        if self.sparse:
            return np.stack([self.plan.densify(row)
                             for row in self.g_data_t])
        return self.g_t

    def c_dense(self) -> np.ndarray:
        """Dense ``(n, n)`` capacitance matrix of the linearisation."""
        if self.sparse:
            c_data = self.state.c_data
            if c_data.ndim > 1:
                c_data = c_data[(0,) * (c_data.ndim - 1)]
            return self.plan.densify(c_data)
        return self.c

    def __repr__(self) -> str:
        engine = "sparse" if self.sparse else "dense"
        return (f"OrbitLinearization(n={self.n}, n_steps={self.n_steps}, "
                f"engine={engine})")
