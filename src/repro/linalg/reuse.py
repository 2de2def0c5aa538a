"""Factorization reuse (modified Newton) and lane-failure isolation.

The policy implemented by :class:`FactorizationCache` is documented in
the :mod:`repro.linalg` package docstring.  The cache is deliberately
ignorant of circuits: it sees right-hand sides and a ``jac_builder``
callback that produces the *current* Jacobian on demand, so the caller
never assembles or multiplies matrices that a reused factorization
makes unnecessary.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .backends import Factorization, LinearSolverBackend


def _update_norm(delta: np.ndarray) -> float:
    """Max-abs norm over all lanes, ignoring non-finite entries
    (failed lanes are handled by the caller, not the policy)."""
    mag = np.abs(delta)
    # the ufunc reduction ``ndarray.max`` wraps, without the wrapper;
    # a Python float, so the finiteness test is ``math.isfinite``, not
    # a ufunc dispatch on a numpy scalar
    top = float(np.maximum.reduce(mag, axis=None, initial=0.0))
    if math.isfinite(top):
        # max propagates NaN and inf, so every entry is finite
        return top
    return float(mag[np.isfinite(mag)].max(initial=0.0))


class FactorizationCache:
    """One cached factorization driven by the modified-Newton policy.

    Use one cache per Newton *context* (a transient run, one
    ``newton_solve`` call); call :meth:`new_sequence` at the start of
    every Newton sequence (each time step) and :meth:`solve` once per
    iteration.  :meth:`invalidate` drops the factorization when the
    system structurally changes; callers whose step matrix depends on
    external knobs (the transient integrator's theta row weights and
    time step) should instead declare those knobs through
    :meth:`set_key`, which invalidates exactly when the knobs change.
    """

    def __init__(self, backend: LinearSolverBackend,
                 jac_constant: bool = False):
        self.backend = backend
        self.policy = backend.policy
        #: The caller guarantees the Jacobian never changes between
        #: :meth:`invalidate` calls (linear circuits): reuse
        #: unconditionally, the contraction heuristics cannot help.
        self.jac_constant = jac_constant
        self._fact: Factorization | None = None
        self._key: object = None
        self._age = 0            # solves since the last factorization
        self._seq_it = 0         # iterations in the current sequence
        self._prev_norm = np.inf
        #: Factorizations performed (telemetry for tests/benchmarks).
        self.n_factor = 0
        #: Solves answered from a stale factorization.
        self.n_reused = 0

    def invalidate(self) -> None:
        self._fact = None

    def set_key(self, key: object) -> None:
        """Declare the step-matrix ingredients the Jacobian builder will
        use next; invalidate when they changed since the last call.

        The transient integrator passes ``(theta.tobytes(), dt)`` - a
        *content* fingerprint, not an array identity.  Identity checks
        miss equal-content arrays (spurious re-factors) and, far worse,
        cannot see a ``dt`` change at all: the step matrix
        ``theta*G + C/dt`` changes with every adaptive step even though
        the theta vector is the same object, and a stale LU must never
        answer for it.
        """
        if key != self._key:
            self.invalidate()
            self._key = key

    def new_sequence(self) -> None:
        """Start a new Newton sequence (e.g. a new time step)."""
        self._prev_norm = np.inf
        self._seq_it = 0

    def _refactor(self, jac_builder: Callable[[], np.ndarray]) -> None:
        self._fact = self.backend.factor(jac_builder())
        self.n_factor += 1
        self._age = 0

    def solve(self, rhs: np.ndarray,
              jac_builder: Callable[[], np.ndarray]) -> np.ndarray:
        """One Newton linear solve, re-factoring per the policy.

        Raises :class:`numpy.linalg.LinAlgError` when the current
        Jacobian is singular; the cache is left invalidated so the
        caller may repair the system (lane isolation) and retry.
        """
        self._seq_it += 1
        if self._fact is None:
            self._refactor(jac_builder)
        elif not self.jac_constant and self._age >= self.policy.max_age:
            # hard staleness bound: sequences that accept on their
            # first iteration never exercise the contraction test
            try:
                self._refactor(jac_builder)
            except np.linalg.LinAlgError:
                self.invalidate()
                raise
        try:
            delta = self._fact.solve(rhs)
        except np.linalg.LinAlgError:
            self.invalidate()
            raise
        if self.jac_constant:
            self.n_reused += self._age > 0
            self._age += 1
            return delta
        if self._age > 0:
            self.n_reused += 1
            norm = _update_norm(delta)
            stale_too_long = (self._seq_it
                              >= self.policy.stale_iteration_limit
                              and self._age >= self._seq_it)
            if norm > self.policy.rho_refactor * self._prev_norm \
                    or stale_too_long:
                try:
                    self._refactor(jac_builder)
                    delta = self._fact.solve(rhs)
                except np.linalg.LinAlgError:
                    # also covers singularity surfacing at solve time
                    # (lazy batched inversion): never leave a singular
                    # factorization cached for the isolation retry
                    self.invalidate()
                    raise
                norm = _update_norm(delta)
        else:
            norm = _update_norm(delta)
        self._age += 1
        self._prev_norm = norm
        return delta


def mark_singular_lanes(jac: np.ndarray, failed: np.ndarray) -> int:
    """Probe each lane of a batched Jacobian; flag the singular ones.

    *jac* is ``(*batch, n, n)`` dense, *failed* a matching boolean mask
    updated in place.  Returns how many new lanes were flagged.  Used
    by lane-isolated Monte-Carlo transients after a batched solve
    raised: the healthy lanes must not die with the broken ones.
    """
    n = jac.shape[-1]
    probe = np.ones(n)
    newly = 0
    for idx in np.ndindex(*jac.shape[:-2]):
        if failed[idx]:
            continue
        lane = jac[idx]
        if not np.all(np.isfinite(lane)):
            failed[idx] = True
            newly += 1
            continue
        try:
            np.linalg.solve(lane, probe)
        except np.linalg.LinAlgError:
            failed[idx] = True
            newly += 1
    return newly
