"""Precomputed CSR sparsity patterns for native sparse assembly.

The seed sparse backend densified a padded ``(n+1)^2`` buffer on every
factorization and converted it to CSR from scratch.  A :class:`CsrPlan`
removes both costs: the union pattern of the conductance, capacitance
and device-Jacobian stamps is computed once per compiled circuit, and
every subsequent assembly is a value scatter into a flat ``data`` array
over that fixed structure.

Layout
------
The plan covers the *unpadded* ``n x n`` system in CSR order (row
major, ascending columns).  Stamp positions are resolved through
:meth:`CsrPlan.pos_of`, which maps padded flat indices (including
ground-slot stamps) to data-array slots; ground entries map to a
*trash slot* at index ``nnz`` so scatters need no masking - callers
allocate value arrays of length ``nnz + 1`` and the matrix views use
``data[:nnz]`` only.

The full main diagonal is always part of the pattern: gmin-stepping
scatters straight onto precomputed diagonal slots and SuperLU never
sees a structurally empty pivot.

``splu`` in SciPy cannot reuse a symbolic factorization, but the
structure work that *can* be hoisted is: the CSR and CSC index arrays
and the CSR->CSC data permutation are all precomputed, so producing a
factorable matrix from fresh values is a single take + two shared
index arrays.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse


class CsrPlan:
    """Fixed sparsity pattern of one circuit's ``n x n`` MNA system."""

    def __init__(self, n: int, n1: int, padded_flat: np.ndarray):
        """Build the pattern from padded flat stamp indices.

        Parameters
        ----------
        n:
            Unpadded system size.
        n1:
            Padded width (``n + 1``); *padded_flat* entries are
            ``row * n1 + col`` over the padded system.
        padded_flat:
            Every potential stamp position (duplicates welcome).
        """
        self.n = n
        self.n1 = n1
        padded_flat = np.asarray(padded_flat, dtype=np.intp)
        r = padded_flat // n1
        c = padded_flat % n1
        inside = (r < n) & (c < n)
        flat = r[inside] * n + c[inside]
        diag = np.arange(n, dtype=np.intp) * (n + 1)
        self._flat = np.unique(np.concatenate([flat, diag]))
        self.nnz = int(self._flat.size)
        self.rows = (self._flat // n).astype(np.intp)
        self.cols = (self._flat % n).astype(np.intp)
        self.indices = self.cols.astype(np.int32)
        self.indptr = np.searchsorted(
            self.rows, np.arange(n + 1)).astype(np.int32)
        #: data slot of each diagonal entry (``gmin`` scatters here)
        self.diag_pos = self.pos_of(
            np.arange(n, dtype=np.intp) * n1 + np.arange(n, dtype=np.intp))
        # CSR -> CSC: sort slots by (col, row); csc data = data[perm]
        order = np.lexsort((self.rows, self.cols))
        self._csc_perm = order
        self._csc_indices = self.rows[order].astype(np.int32)
        self._csc_indptr = np.searchsorted(
            self.cols[order], np.arange(n + 1)).astype(np.int32)

    def pos_of(self, padded_flat: np.ndarray) -> np.ndarray:
        """Data slots of padded flat stamp indices (ground -> trash).

        Raises :class:`ValueError` for an in-system position missing
        from the pattern - a plan/stamp mismatch is a programming
        error, not a numerical condition.
        """
        padded_flat = np.asarray(padded_flat, dtype=np.intp)
        r = padded_flat // self.n1
        c = padded_flat % self.n1
        inside = (r < self.n) & (c < self.n)
        out = np.full(padded_flat.shape, self.nnz, dtype=np.intp)
        flat = r[inside] * self.n + c[inside]
        pos = np.searchsorted(self._flat, flat)
        if flat.size and not np.array_equal(self._flat[pos], flat):
            raise ValueError("stamp position outside the CSR pattern")
        out[inside] = pos
        return out

    def matvec(self, data: np.ndarray, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
        """``out = A @ x`` for value array *data* over the pattern.

        Calls the CSR kernel directly - in a Newton inner loop the
        ``scipy.sparse`` operator dispatch costs several times the
        mat-vec itself.  *out* (length ``n``) is overwritten.
        """
        if out is None:
            out = np.zeros(self.n)
        else:
            out[:self.n] = 0.0
        kernel = self._csr_matvec
        if kernel is not None:
            kernel(self.n, self.n, self.indptr, self.indices,
                   data[:self.nnz], x, out[:self.n])
        else:  # pragma: no cover - exercised only without the kernel
            np.add.at(out, self.rows, data[:self.nnz] * x[self.cols])
        return out

    @cached_property
    def _csr_matvec(self):
        """SciPy's CSR mat-vec kernel, looked up once per plan.

        Only the sparse Newton step multiplies on the plan, so a dense
        run never imports :mod:`scipy.sparse`.
        """
        try:
            from scipy.sparse._sparsetools import csr_matvec
        except ImportError:  # pragma: no cover - SciPy layout change
            return None
        return csr_matvec

    def csr_view(self, data: np.ndarray) -> scipy.sparse.csr_matrix:
        """CSR matrix *sharing* ``data[:nnz]`` - mutate data, reuse it."""
        import scipy.sparse
        return scipy.sparse.csr_matrix(
            (data[:self.nnz], self.indices, self.indptr),
            shape=(self.n, self.n))

    def csc_matrix(self, data: np.ndarray) -> scipy.sparse.csc_matrix:
        """Factorable CSC matrix from a value array (data is copied by
        the permutation gather, so the caller may keep mutating)."""
        import scipy.sparse
        return scipy.sparse.csc_matrix(
            (data[:self.nnz][self._csc_perm], self._csc_indices,
             self._csc_indptr), shape=(self.n, self.n))

    def same_pattern(self, other: "CsrPlan") -> bool:
        """True when *other* indexes the identical sparsity structure
        (so value arrays built on one plan are valid on the other)."""
        return (self is other
                or (self.n == other.n and self.n1 == other.n1
                    and self.nnz == other.nnz
                    and np.array_equal(self._flat, other._flat)))

    def densify(self, data: np.ndarray) -> np.ndarray:
        """Dense ``(n, n)`` image of a value array (tests/diagnostics)."""
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = data[:self.nnz]
        return out

    def __repr__(self) -> str:
        return (f"CsrPlan(n={self.n}, nnz={self.nnz}, "
                f"fill={self.nnz / max(self.n * self.n, 1):.3%})")
