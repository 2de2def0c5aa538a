"""Linear-solver backends: dense, cached dense LU and sparse splu.

See the :mod:`repro.linalg` package docstring for the selection rules
and the modified-Newton re-factor policy.  All backends normalise
singular systems to :class:`numpy.linalg.LinAlgError` so call sites
handle one exception type regardless of the underlying library.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgetrf as _dgetrf, dgetrs as _dgetrs

#: ``"auto"`` switches from the cached dense backend to the sparse
#: backend at this many MNA unknowns.  Dense LU is O(n^3) per factor
#: while SuperLU on circuit matrices is close to O(nnz^1.5); on the
#: bundled workloads the crossover sits near a hundred unknowns.
SPARSE_AUTO_THRESHOLD = 128


@dataclass
class NewtonPolicy:
    """How Newton loops may reuse this backend's factorizations.

    ``reuse=False`` reproduces the seed behaviour exactly: every
    iteration factors from scratch.  With ``reuse=True`` the policy
    knobs below drive :class:`~repro.linalg.reuse.FactorizationCache`.
    """

    reuse: bool = False
    #: Re-factor when a stale update contracts slower than this.
    rho_refactor: float = 0.5
    #: Force a re-factor when a Newton sequence runs this many
    #: iterations on a factorization older than the sequence.
    stale_iteration_limit: int = 5
    #: Hard bound on solves per factorization (unless the caller
    #: declared the Jacobian constant).  One-iteration sequences never
    #: trip the contraction test, so without this a slowly drifting
    #: Jacobian could be reused for an entire run.
    max_age: int = 64


class Factorization(ABC):
    """A factored linear system ``A x = b`` ready for repeated solves."""

    @abstractmethod
    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        """Solve against *rhs* (``A^T x = b`` when *trans*).

        For batchless factorizations *rhs* may be ``(n,)`` or ``(n, k)``;
        batched factorizations accept ``(*batch, n)`` or
        ``(*batch, n, k)``.
        """


class DenseLuFactorization(Factorization):
    """LAPACK ``dgetrf`` of one 2-D real system, solved with ``dgetrs``.

    The same LAPACK calls ``scipy.linalg.lu_factor`` / ``lu_solve``
    make, and bit-identical to them, without their per-call wrapper
    cost (dtype dispatch, ``check_finite`` copies, batch handling) -
    several times the factor/solve time itself on the ~16-unknown
    systems of a batch-of-one Newton step.  A zero pivot raises
    :class:`numpy.linalg.LinAlgError` directly instead of going through
    a ``LinAlgWarning``, so nothing touches the process-global warning
    filters (the analysis daemon factors in concurrent threads).
    """

    def __init__(self, a: np.ndarray):
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("non-finite matrix entries")
        lu, piv, info = _dgetrf(a)
        if info > 0:          # U[info-1, info-1] is exactly zero
            raise np.linalg.LinAlgError("singular matrix")
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrf")
        self._lu, self._piv = lu, piv

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        x, info = _dgetrs(self._lu, self._piv, rhs, trans=1 if trans else 0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of dgetrs")
        return x


class BatchedInverseFactorization(Factorization):
    """Inverted stack of systems: each reuse is one batched matmul.

    For the small (n ~ tens) matrices of batched Monte-Carlo lanes the
    O(n^3) inversion is paid once and every reuse costs O(n^2) per
    lane, which is what makes cross-step factorization reuse profitable
    even though LAPACK has no batched ``getrs``.  The inversion costs
    about three batched solves, so it is computed *lazily* on the third
    solve: short Newton sequences (a linear circuit's DC solve
    converges in two) never pay more than the plain dense path, long
    ones amortise the inversion within a handful of reuses.
    """

    _INVERT_AFTER = 2

    def __init__(self, a: np.ndarray):
        if not np.all(np.isfinite(a)):
            raise np.linalg.LinAlgError("non-finite matrix entries")
        self._a: np.ndarray | None = a.copy()   # caller's buffer mutates
        self._inv: np.ndarray | None = None
        self._direct_solves = 0

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        if self._inv is None:
            if self._direct_solves < self._INVERT_AFTER:
                self._direct_solves += 1
                a = np.swapaxes(self._a, -1, -2) if trans else self._a
                vector = rhs.ndim == a.ndim - 1
                out = np.linalg.solve(a, rhs[..., None] if vector else rhs)
                return out[..., 0] if vector else out
            self._inv = np.linalg.inv(self._a)
            self._a = None
        inv = np.swapaxes(self._inv, -1, -2) if trans else self._inv
        if rhs.ndim == inv.ndim:                      # (*batch, n, k)
            return np.matmul(inv, rhs)
        return np.matmul(inv, rhs[..., None])[..., 0]


class SparseLuFactorization(Factorization):
    """``scipy.sparse.linalg.splu`` of one 2-D system in CSR/CSC form.

    SciPy's sparse package is imported here, on the first sparse
    factorization, so a dense-only process never loads it.
    """

    def __init__(self, a):
        import scipy.sparse
        import scipy.sparse.linalg
        if scipy.sparse.issparse(a):
            if not np.all(np.isfinite(a.data)):
                raise np.linalg.LinAlgError("non-finite matrix entries")
            mat = a if a.format == "csc" else a.tocsc()
        else:
            a = np.asarray(a)
            if not np.all(np.isfinite(a)):
                raise np.linalg.LinAlgError("non-finite matrix entries")
            mat = scipy.sparse.csr_matrix(a).tocsc()
        try:
            self._lu = scipy.sparse.linalg.splu(mat)
        except RuntimeError as exc:   # "Factor is exactly singular"
            raise np.linalg.LinAlgError(str(exc)) from exc

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        out = self._lu.solve(np.asarray(rhs, dtype=float),
                             trans="T" if trans else "N")
        if not np.isfinite(out).all():
            raise np.linalg.LinAlgError("singular matrix")
        return out


class BatchedSparseLuFactorization(Factorization):
    """Per-lane ``splu`` factors of a batched stack."""

    def __init__(self, a: np.ndarray):
        self._batch = a.shape[:-2]
        self._lanes = [SparseLuFactorization(a[idx])
                       for idx in np.ndindex(*self._batch)]

    def solve(self, rhs: np.ndarray, trans: bool = False) -> np.ndarray:
        out = np.empty_like(np.asarray(rhs, dtype=float))
        for lane, idx in zip(self._lanes, np.ndindex(*self._batch)):
            out[idx] = lane.solve(rhs[idx], trans=trans)
        return out


class LinearSolverBackend(ABC):
    """Factor/solve provider used by every analysis hot loop."""

    name: str = "?"
    policy: NewtonPolicy
    #: True when the backend prefers operands assembled natively on a
    #: precomputed CSR pattern (:class:`~repro.linalg.sparsity.CsrPlan`)
    #: instead of dense ``(n, n)`` buffers.  Batchless Newton loops
    #: switch to the no-densify assembly path when set.
    wants_csr: bool = False

    @abstractmethod
    def factor(self, a: np.ndarray) -> Factorization:
        """Factor ``a`` (``(n, n)`` or ``(*batch, n, n)``).

        Raises :class:`numpy.linalg.LinAlgError` when singular.
        """

    def factor_csc(self, a) -> Factorization:
        """Factor a ``scipy.sparse`` CSC/CSR matrix.

        The seam the sparse-native periodic engines use for their
        per-step ``A_k`` factorizations
        (:class:`~repro.analysis.orbit.OrbitLinearization`): the
        operand is assembled on the circuit's
        :class:`~repro.linalg.sparsity.CsrPlan` and never densified.
        Default is SuperLU for every backend - a dense backend forced
        onto the matrix-free path (parity tests) still factors
        sparsely; :class:`SparseBackend` routes through its own
        :meth:`factor` so policy hooks stay in one place.
        """
        return SparseLuFactorization(a)

    def solve(self, a: np.ndarray, rhs: np.ndarray,
              trans: bool = False) -> np.ndarray:
        """One-shot factor-and-solve."""
        return self.factor(a).solve(rhs, trans=trans)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class DenseBackend(LinearSolverBackend):
    """Seed-equivalent dense solves, no factorization reuse."""

    name = "dense"

    def __init__(self):
        self.policy = NewtonPolicy(reuse=False)

    def factor(self, a: np.ndarray) -> Factorization:
        if a.ndim == 2:
            return DenseLuFactorization(a)
        return BatchedInverseFactorization(a)

    def solve(self, a: np.ndarray, rhs: np.ndarray,
              trans: bool = False) -> np.ndarray:
        if trans:
            a = np.swapaxes(a, -1, -2)
        vector = rhs.ndim == a.ndim - 1
        out = np.linalg.solve(a, rhs[..., None] if vector else rhs)
        return out[..., 0] if vector else out


class CachedDenseBackend(LinearSolverBackend):
    """Dense LU with modified-Newton factorization reuse."""

    name = "cached"

    def __init__(self, policy: NewtonPolicy | None = None):
        self.policy = policy or NewtonPolicy(reuse=True)

    def factor(self, a: np.ndarray) -> Factorization:
        if a.ndim == 2:
            return DenseLuFactorization(a)
        return BatchedInverseFactorization(a)


class SparseBackend(LinearSolverBackend):
    """CSR assembly + SuperLU, with factorization reuse.

    Batchless Newton loops assemble natively on the circuit's
    :class:`~repro.linalg.sparsity.CsrPlan` (``wants_csr``): values are
    scattered straight into the fixed pattern and no dense ``(n+1)^2``
    buffer is materialised between assembly and factorization.  Dense
    and batched operands are still accepted (PSS monodromy products,
    lane-by-lane Monte-Carlo factors).
    """

    name = "sparse"
    wants_csr = True

    def __init__(self, policy: NewtonPolicy | None = None):
        self.policy = policy or NewtonPolicy(reuse=True)

    def factor(self, a: np.ndarray) -> Factorization:
        if a.ndim == 2:     # a dense or a scipy.sparse 2-D system
            return SparseLuFactorization(a)
        return BatchedSparseLuFactorization(a)

    def factor_csc(self, a) -> Factorization:
        return self.factor(a)


_BACKENDS = {
    DenseBackend.name: DenseBackend,
    CachedDenseBackend.name: CachedDenseBackend,
    SparseBackend.name: SparseBackend,
}


def available_backends() -> list[str]:
    """Registered backend names (plus the ``"auto"`` selector)."""
    return ["auto", *sorted(_BACKENDS)]


def resolve_backend(spec: "str | LinearSolverBackend | None",
                    n: int) -> LinearSolverBackend:
    """Turn a backend spec into an instance for an *n*-unknown system.

    ``None`` and ``"auto"`` pick the cached dense backend below
    :data:`SPARSE_AUTO_THRESHOLD` unknowns and the sparse backend at or
    above it.  Instances pass through unchanged.
    """
    if isinstance(spec, LinearSolverBackend):
        return spec
    if spec is None or spec == "auto":
        spec = "cached" if n < SPARSE_AUTO_THRESHOLD else "sparse"
    try:
        return _BACKENDS[spec]()
    except KeyError:
        raise ValueError(
            f"unknown linear-solver backend '{spec}'; available: "
            f"{available_backends()}") from None
