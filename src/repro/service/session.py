"""The analysis session: bounded, content-addressed caches + execution.

:class:`AnalysisSession` is the application-layer entry point.  It owns
three LRU stores, all keyed on content hashes from the domain layer
(:meth:`Circuit.fingerprint` / ``CompiledCircuit.cache_key``):

* **compiled** - :class:`~repro.analysis.mna.CompiledCircuit` by
  (fingerprint, cmin, backend spec);
* **pss** - :class:`~repro.analysis.pss.PssResult` orbits (and with
  them the lazily built orbit linearizations) by (cache key, backend,
  drive spec, options);
* **results** - memoized :class:`~repro.service.requests.AnalysisResult`
  values by request key.

The two engine stores share one byte budget and one LRU order
(``cache_bytes``, default :data:`ENGINE_CACHE_BYTES`).  Each entry is
charged its ``nbytes()`` once, when it is stored: what it holds plus
what it can still grow to, so an orbit is charged for its
linearisation before the LPTV builds it.  Storing an entry evicts the
least recently used entries of any engine store until the budget
holds, and an entry larger than the whole budget is handed back to its
caller without being kept.  The result memo is bounded in entries
(``result_capacity``): the network front-end counts results in keys,
per tenant.

Engine-store eviction and :meth:`AnalysisSession.clear` cascade
through the evicted objects' own ``clear_caches()`` so that a bounded
store means bounded memory, not just a bounded entry count.  Dropping
a memoized result cascades through nothing: its compile and orbit are
the very objects the engine stores still hold and charge, and their
own eviction clears them.

Execution is registry-driven: :meth:`AnalysisSession.run` looks the
request kind up in :mod:`repro.service.engines` and runs the registered
engine - this module owns the stores and the memoization only, and
never imports :mod:`repro.core` or :mod:`repro.analysis` itself (CI
enforces that split, so a new engine registers without touching the
session).  The free functions in :mod:`repro.core`
(``transient_mismatch_analysis`` and friends) are cold and never touch
a session: a session is the one, explicit way to cache.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict

from .requests import AnalysisRequest, AnalysisResult

#: Default byte budget of a session's engine stores.  Eight orbits of
#: the largest bundled Table II row (the logic path at 800 steps, whose
#: ``PssResult.nbytes()`` is 5.1 MB with its linearisation) fit; an RC
#: orbit of ``service_mix`` is ~12 kB, so thousands of those fit too.
ENGINE_CACHE_BYTES = 48 * 2 ** 20


class _LruStore:
    """A bounded mapping with LRU eviction.

    Individual operations are thread-safe (one lock per store), which
    is what lets a :class:`AnalysisSession` be shared by the concurrent
    handler threads of the network front-end
    (:mod:`repro.service.net`).  Two threads missing on the same key
    simply both compute - content addressing makes the double ``put``
    harmless.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("store capacity must be >= 1")
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self._lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)

    def pop(self, key):
        """Remove *key* and return its value, or ``None`` when absent."""
        with self._lock:
            return self._data.pop(key, None)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key) -> bool:
        with self._lock:
            return key in self._data

    def stats(self) -> dict:
        with self._lock:
            return {"size": len(self._data), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses}


class _ByteBudget:
    """One byte budget and one LRU order shared by several
    :class:`_BudgetStore` instances (one lock for all of them)."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("cache_bytes must be >= 1")
        self.capacity = capacity
        self.held = 0
        self.lock = threading.Lock()
        #: ``(store, key) -> nbytes``, least recently used first.
        self.order: OrderedDict = OrderedDict()


class _BudgetStore:
    """An LRU mapping charged against a shared :class:`_ByteBudget`.

    ``put`` charges the value's ``nbytes()`` (computed once, outside
    the lock) and evicts the budget's least recently used entries - of
    this store or any other sharing the budget - until the total fits,
    calling each evicted value's ``clear_caches()``.  A value larger
    than the whole budget is not kept.
    """

    def __init__(self, budget: _ByteBudget):
        self.budget = budget
        self._data: OrderedDict = OrderedDict()
        self.bytes = 0
        self.hits = 0
        self.misses = 0

    def get(self, key):
        with self.budget.lock:
            try:
                value = self._data[key]
            except KeyError:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.budget.order.move_to_end((self, key))
            self.hits += 1
            return value

    def _remove(self, key):
        """Unlink *key* (budget lock held); returns its value."""
        nbytes = self.budget.order.pop((self, key))
        self.bytes -= nbytes
        self.budget.held -= nbytes
        return self._data.pop(key)

    def put(self, key, value) -> None:
        nbytes = value.nbytes()
        budget = self.budget
        evicted = []
        with budget.lock:
            if key in self._data:
                self._remove(key)
            if nbytes > budget.capacity:
                return
            self._data[key] = value
            budget.order[(self, key)] = nbytes
            self.bytes += nbytes
            budget.held += nbytes
            while budget.held > budget.capacity:
                store, old = next(iter(budget.order))
                evicted.append(store._remove(old))
        for old in evicted:
            old.clear_caches()

    def clear(self) -> None:
        with self.budget.lock:
            values = [self._remove(key) for key in list(self._data)]
        for value in values:
            value.clear_caches()

    def stats(self) -> dict:
        """Entry count, the shared budget (``capacity``, in bytes),
        the bytes charged to this store, hits and misses."""
        with self.budget.lock:
            return {"size": len(self._data),
                    "capacity": self.budget.capacity,
                    "bytes": self.bytes, "hits": self.hits,
                    "misses": self.misses}


class AnalysisSession:
    """Synchronous executor of analysis work over shared bounded caches.

    Parameters
    ----------
    backend:
        Default linear-solver backend spec (name string) for compiles
        that do not override it.
    cache_bytes:
        Byte budget shared by the compiled and pss stores.
    result_capacity:
        Entry bound of the result memo.
    """

    def __init__(self, backend: str | None = None,
                 cache_bytes: int = ENGINE_CACHE_BYTES,
                 result_capacity: int = 64):
        self.backend = backend
        self.cache_bytes = cache_bytes
        budget = _ByteBudget(cache_bytes)
        self.compiled = _BudgetStore(budget)
        self.pss_store = _BudgetStore(budget)
        self.results = _LruStore(result_capacity)

    # -- domain-object caches ------------------------------------------
    def compile(self, circuit, cmin: float | None = None,
                backend=None):
        """Compile *circuit* through the session cache (see
        :func:`~repro.service.engines.compile_cached`)."""
        from .engines import compile_cached
        return compile_cached(self, circuit, cmin=cmin, backend=backend)

    def pss(self, compiled, period: float | None = None,
            state=None, options=None,
            oscillator_anchor: str | None = None,
            t_settle: float | None = None,
            dt_settle: float | None = None):
        """Periodic steady state through the session cache (see
        :func:`~repro.service.engines.pss_cached`)."""
        from .engines import pss_cached
        return pss_cached(self, compiled, period=period, state=state,
                          options=options,
                          oscillator_anchor=oscillator_anchor,
                          t_settle=t_settle, dt_settle=dt_settle)

    # -- analysis flows ------------------------------------------------
    def transient_mismatch(self, circuit, measures, **kwargs):
        """The paper's sensitivity analysis through the session caches.

        Same contract as the cold :func:`~repro.core.analysis.
        transient_mismatch_analysis`; repeated calls on an unchanged
        circuit reuse the compiled system and the PSS orbit.
        """
        from .engines import transient_mismatch_flow
        return transient_mismatch_flow(self, circuit, measures,
                                       **kwargs)

    def dc_mismatch(self, circuit, outputs: dict, **kwargs):
        """DC mismatch analysis through the session compile cache."""
        from .engines import dc_mismatch_flow
        return dc_mismatch_flow(self, circuit, outputs, **kwargs)

    def monte_carlo_transient(self, circuit, measures, **kwargs):
        """Transient Monte-Carlo with the compile shared through the
        session cache (sampling/merge semantics unchanged - see
        :func:`~repro.core.montecarlo.monte_carlo_transient`)."""
        from .engines import mc_transient_flow
        return mc_transient_flow(self, circuit, measures, **kwargs)

    def monte_carlo_dc(self, circuit, outputs: dict, n: int, **kwargs):
        """DC Monte-Carlo with the compile shared through the session
        cache."""
        from .engines import mc_dc_flow
        return mc_dc_flow(self, circuit, outputs, n, **kwargs)

    # -- request execution ---------------------------------------------
    def run(self, request: AnalysisRequest) -> AnalysisResult:
        """Execute *request* through its registered engine, memoized on
        the request's content key.

        A repeat of an identical request (same circuit content, same
        options - however it was built) returns the stored result with
        ``from_cache=True`` without touching the engines.  Unknown
        kinds raise an :class:`~repro.errors.AnalysisError` listing
        the registered kinds.

        Every returned result owns its ``summary`` and ``failures``, so
        a caller mutating them never reaches the memo.  The rich
        ``detail`` object is shared with the memo (and with every
        later hit): treat it as read-only.
        """
        from .engines import execute
        key = request.key()
        hit = self.cached(key)
        if hit is not None:
            return hit
        return self.memoize(key, execute(self, request, key))

    # -- the result memo -----------------------------------------------
    # run() and a pooled JobQueue (whose engine runs in a worker) both
    # go through these two methods, so a hit looks the same either way
    def cached(self, key: str) -> AnalysisResult | None:
        """The memoized result for request *key*, or ``None``.

        A hit is a detached copy with ``from_cache=True`` whose
        ``runtime_seconds`` is the cost of this lookup; the original
        run's time stays in ``compute_seconds``.
        """
        t_begin = time.perf_counter()
        hit = self.results.get(key)
        if hit is None:
            return None
        result = hit.detached(from_cache=True)
        result.runtime_seconds = time.perf_counter() - t_begin
        return result

    def memoize(self, key: str, result: AnalysisResult) -> AnalysisResult:
        """Store *result* under request *key*; returns the caller's
        detached copy."""
        self.results.put(key, result)
        return result.detached()

    def evict_result(self, key: str) -> bool:
        """Drop one memoized result by request key; returns whether the
        key was present.  The compile and orbit behind it stay in the
        engine stores, intact, so a rerun of the request is an orbit
        hit.

        This is the seam the network front-end's per-tenant quotas use:
        a tenant over its result budget evicts *its own* oldest keys
        without disturbing the session-wide LRU order of the rest.
        """
        return self.results.pop(key) is not None

    # -- hygiene -------------------------------------------------------
    def clear(self) -> None:
        """Drop every store, cascading through the cached objects' own
        ``clear_caches()`` (compiled circuits, orbit linearizations) so
        the memory actually comes back."""
        self.results.clear()
        self.pss_store.clear()
        self.compiled.clear()

    def stats(self) -> dict:
        """Per-store size/capacity/hit/miss counters; the engine stores
        also report their ``bytes`` and share one ``capacity``, the
        byte budget."""
        return {"compiled": self.compiled.stats(),
                "pss": self.pss_store.stats(),
                "results": self.results.stats()}


_DEFAULT_SESSION: AnalysisSession | None = None


def default_session() -> AnalysisSession:
    """A lazily created process-wide session, for callers that want one
    shared cache without threading a session through their code.
    Nothing in the package uses it: the :mod:`repro.core` free
    functions are cold, and everything else takes an explicit
    :class:`AnalysisSession`."""
    global _DEFAULT_SESSION
    if _DEFAULT_SESSION is None:
        _DEFAULT_SESSION = AnalysisSession()
    return _DEFAULT_SESSION
