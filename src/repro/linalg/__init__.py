"""Pluggable linear-solver backends for the MNA solver stack.

Every inner loop of the reproduction - transient Newton steps, DC
homotopy, PSS shooting, the LPTV per-step factorizations - reduces to
"factor an MNA-structured matrix, then solve against one or many
right-hand sides".  This subpackage makes that operation pluggable and,
crucially, *reusable*: the dominant cost of both the paper's LPTV method
and the Monte-Carlo baseline it is benchmarked against (Table II) is
re-factoring near-identical Jacobians thousands of times.

Backend selection
-----------------
Three backends are registered (:func:`available_backends`):

``"dense"``
    Plain dense solves: every request factors from scratch
    (``numpy.linalg.solve`` semantics).  This is the seed behaviour and
    the reference implementation the parity tests compare against.
``"cached"``
    Dense LU with factorization reuse.  Batchless systems are factored
    with LAPACK ``dgetrf`` and solved with ``dgetrs``, called directly
    (:class:`~repro.linalg.backends.DenseLuFactorization`: the same
    calls ``scipy.linalg.lu_factor`` / ``lu_solve`` make, bit-identical
    to them, without their per-call wrapper cost);
    batched Monte-Carlo stacks pre-invert once (``numpy.linalg.inv``)
    so every subsequent solve is a single batched mat-vec.  The modified
    Newton policy below decides when to re-factor.
``"sparse"``
    Native CSR + ``scipy.sparse.linalg.splu``.  Batchless Newton loops
    assemble straight onto the circuit's precomputed sparsity pattern
    (``wants_csr``, see below) and solve through SuperLU; dense and
    batched operands are still accepted (PSS monodromy products factor
    densely, batched Monte-Carlo stacks lane-by-lane).  This is the
    right choice beyond a few hundred unknowns, where dense LU's
    O(n^3) dominates.

Pass a backend (name or instance) to
:func:`repro.analysis.mna.compile_circuit`, or leave the default
``"auto"``: circuits with fewer than
:data:`~repro.linalg.backends.SPARSE_AUTO_THRESHOLD` unknowns get the
cached dense backend, larger ones the sparse backend.

Performance architecture
------------------------
Three layers cooperate to keep the hot loops off Python bytecode and
off O(n^2) scratch memory; each is independently pluggable:

**Compile-time stamp plans** (:mod:`repro.analysis.stamps`).  At
:class:`~repro.analysis.mna.CompiledCircuit` construction every element
family is lowered to flat COO index/value arrays.  Template
construction (`make_state`), source evaluation, MOSFET stamping and
behavioral-VCCS stamping are all vectorised gathers plus ``np.add.at``
scatters - the per-iteration assembly does no per-element Python work.
Static (DC) source vectors are cached per parameter state and combined
source vectors per time point, so a Newton iteration at a fixed step
adds one precomputed vector.

**Lean batch-of-one step.**  The paper's method runs a few Newton
loops on a single parameter state (settle, shooting, orbit
linearisation), where per-call overhead, not arithmetic, sets the
cost.  Batchless states therefore take three shortcuts, chosen only by
batch shape - there is no option: fixed-grid loops tabulate every
time-varying source over the whole grid once
(:class:`~repro.analysis.stamps.SourceTable`, exactly equal to the
per-point evaluation); MOSFETs go through the fused EKV kernel
(:func:`~repro.circuit.mosfet.ekv_ids_fused`, within 1e-14 of the
reference :func:`~repro.circuit.mosfet.ekv_ids`); and dense factors
are bare LAPACK calls.  Batched Monte-Carlo lanes keep the per-point
sources and the reference kernel, so their samples stay bit-identical.

**Native CSR assembly** (:class:`~repro.linalg.sparsity.CsrPlan` +
:class:`~repro.analysis.mna.CsrAssembler`).  A backend that sets
:attr:`LinearSolverBackend.wants_csr` receives operands assembled
directly on the circuit's fixed sparsity pattern: residuals are CSR
mat-vecs, Jacobians are value scatters onto precomputed data slots,
and factorizations consume a CSC view produced by a precomputed
permutation.  Parameter states themselves are sparse-native (their
linear G/C templates are value arrays over the same plan, built by
``make_state`` in O(nnz) memory; dense consumers densify explicitly
via ``ParamState.to_dense``), so no dense ``(n+1)^2`` array exists
anywhere between state construction and ``splu`` - large netlists
scale with ``nnz`` instead of ``n^2`` per state *and* per iteration.

**Matrix-free Krylov periodic engines** (:mod:`repro.linalg.krylov` +
:class:`~repro.analysis.orbit.OrbitLinearization`).  The periodic
analyses (shooting PSS, LPTV sensitivities) used to be the last dense
holdouts: an ``(n_steps, n, n)`` Jacobian stack and an explicitly
formed monodromy matrix.  On ``wants_csr`` backends at or above
``MATRIX_FREE_MIN_UNKNOWNS`` unknowns the orbit linearisation is now
stored as per-step value arrays on the circuit's ``CsrPlan``
(O(n_steps * nnz)), each ``A_k`` is factored once through the
``factor_csc`` backend hook, and the shooting update / periodicity
closure are solved by blocked GMRES on the sweep operator ``v -> M v``
- the monodromy never exists as a matrix.  Below the threshold the
explicit dense path runs bit-identically, and a stalled GMRES falls
back to it with a warning.

**Process-parallel Monte-Carlo sharding**
(:func:`repro.core.montecarlo.monte_carlo_transient` /
``monte_carlo_dc`` with ``n_workers``).  Monte-Carlo chunks are
independent stacked solves with purely local solver state, so they fan
out over a :class:`~concurrent.futures.ProcessPoolExecutor`.  All
mismatch deltas are drawn up front from the single seeded generator
and sliced per chunk; shards are merged in chunk order, making the
parallel ``samples``/``n_failed`` bit-for-bit identical to the serial
run at the same chunk size.

Modified-Newton re-factor policy
--------------------------------
:class:`FactorizationCache` implements the reuse policy shared by the
transient integrator and the DC solver:

* the first solve after a (re-)factorization is a *true* Newton step
  and is always trusted;
* subsequent solves reuse the stale factorization (a "modified Newton"
  or chord step) as long as the update norm keeps contracting by at
  least ``rho_refactor`` (default 0.5) per iteration.  A stale step
  that fails the contraction test triggers an immediate re-factor *and
  re-solve in the same iteration*, so the iteration count never
  degrades below classical Newton by more than the one trial solve;
* a Newton sequence that runs long on a stale factorization
  (``stale_iteration_limit``) forces a re-factor, and every
  factorization is retired after ``max_age`` solves outright (unless
  the caller declared the Jacobian constant) - sequences that accept
  on their first iteration never exercise the contraction test, so
  staleness must also be bounded by age;
* a singular factorization (``numpy.linalg.LinAlgError``, raised
  uniformly by all backends) invalidates the cache; callers either
  re-raise as :class:`~repro.errors.SingularMatrixError` or - in
  lane-isolated Monte-Carlo transients - disable the offending lanes
  and re-factor the remainder.

Because the accepted update must still pass the caller's ``vntol``
test, and a stale acceptance beyond the first iteration of a sequence
requires a contraction factor below 0.5 (with the age bound limiting
how stale that first-iteration trust can get), the converged state
differs from full Newton by O(vntol) - the same order of guarantee the
seed solver documented.

Caching across *time steps* falls out of the same policy: the transient
integrator simply keeps one cache for the whole run and lets the
contraction test decide when the Jacobian has drifted too far.  For
linear circuits this collapses the entire run to a single
factorization.

The contraction test cannot see changes the *caller* makes to the step
matrix, so those are declared explicitly through
:meth:`FactorizationCache.set_key`: the transient integrator keys the
cache on the content pair ``(theta, dt)``, which is what lets adaptive
time stepping reuse factorizations across runs of equal-``dt`` steps
while guaranteeing a changed step size (or a trapezoidal/backward-Euler
switch) always re-factors.  For linear circuits under adaptive stepping
this degrades gracefully to one factorization per *distinct step size*
rather than one per run.
"""

from __future__ import annotations

from .backends import (SPARSE_AUTO_THRESHOLD, CachedDenseBackend,
                       DenseBackend, Factorization, LinearSolverBackend,
                       NewtonPolicy, SparseBackend, available_backends,
                       resolve_backend)
from .krylov import (GMRES_MAXITER, GMRES_TOL, MATRIX_FREE_MIN_UNKNOWNS,
                     gmres_blocked, solve_blocked, use_matrix_free)
from .reuse import FactorizationCache, mark_singular_lanes
from .sparsity import CsrPlan

__all__ = [
    "LinearSolverBackend", "Factorization", "NewtonPolicy",
    "DenseBackend", "CachedDenseBackend", "SparseBackend",
    "resolve_backend", "available_backends", "SPARSE_AUTO_THRESHOLD",
    "FactorizationCache", "mark_singular_lanes", "CsrPlan",
    "gmres_blocked", "solve_blocked", "use_matrix_free",
    "MATRIX_FREE_MIN_UNKNOWNS", "GMRES_TOL", "GMRES_MAXITER",
]
