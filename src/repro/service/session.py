"""The analysis session: bounded, content-addressed caches + execution.

:class:`AnalysisSession` is the application-layer entry point.  It owns
four bounded LRU stores, all keyed on content hashes from the domain
layer (:meth:`Circuit.fingerprint` / ``CompiledCircuit.cache_key`` /
``CompiledCircuit.state_key``):

* **compiled** - :class:`~repro.analysis.mna.CompiledCircuit` by
  (fingerprint, cmin, backend spec);
* **states** - :class:`~repro.analysis.mna.ParamState` by state key;
* **pss** - :class:`~repro.analysis.pss.PssResult` orbits (and with
  them the lazily built orbit linearizations) by (cache key, backend,
  drive spec, options);
* **results** - memoized :class:`~repro.service.requests.AnalysisResult`
  values by request key.

Eviction and :meth:`AnalysisSession.clear` cascade through the evicted
objects' own ``clear_caches()`` so that bounded store size means bounded
memory, not just a bounded entry count.

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
from collections import OrderedDict
from typing import Callable

from .requests import AnalysisRequest, AnalysisResult


class _LruStore:
    """A bounded mapping with LRU eviction and an eviction callback.

    Individual operations are thread-safe (one lock per store), which
    is what lets a :class:`AnalysisSession` be shared by the concurrent
    handler threads of the network front-end
    (:mod:`repro.service.net`).  Two threads missing on the same key
    simply both compute - content addressing makes the double ``put``
    harmless.
    """

    def __init__(self, capacity: int,
                 on_evict: "Callable | None" = None):
        if capacity < 1:
            raise ValueError("store capacity must be >= 1")
        self.capacity = capacity
        self.on_evict = on_evict
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
        evicted = []
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                _, old = self._data.popitem(last=False)
                evicted.append(old)
        if self.on_evict is not None:
            for old in evicted:
                self.on_evict(old)

    def pop(self, key):
        """Remove *key* (cascading through the eviction callback) and
        return its value, or ``None`` when absent."""
        with self._lock:
            value = self._data.pop(key, None)
        if value is not None and self.on_evict is not None:
            self.on_evict(value)
        return value

    def clear(self) -> None:
        with self._lock:
            values = list(self._data.values())
            self._data.clear()
        if self.on_evict is not None:
            for value in values:
                self.on_evict(value)

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


def _clear_detail_caches(result: AnalysisResult) -> None:
    detail = getattr(result, "detail", None)
    for attr in ("compiled", "pss"):
        obj = getattr(detail, attr, None)
        if obj is not None and hasattr(obj, "clear_caches"):
            obj.clear_caches()


class AnalysisSession:
    """Synchronous executor of analysis work over shared bounded caches.

    Parameters
    ----------
    backend:
        Default linear-solver backend spec (name string) for compiles
        that do not override it.
    compiled_capacity, state_capacity, pss_capacity, result_capacity:
        LRU bounds of the four stores.
    """

    def __init__(self, backend: str | None = None,
                 compiled_capacity: int = 8, state_capacity: int = 32,
                 pss_capacity: int = 8, result_capacity: int = 64):
        self.backend = backend
        self.compiled = _LruStore(
            compiled_capacity, on_evict=lambda c: c.clear_caches())
        self.states = _LruStore(
            state_capacity, on_evict=lambda s: s.clear_caches())
        self.pss_store = _LruStore(
            pss_capacity, on_evict=lambda p: p.clear_caches())
        self.results = _LruStore(result_capacity,
                                 on_evict=_clear_detail_caches)

    # -- domain-object caches ------------------------------------------
    def compile(self, circuit, cmin: float | None = None,
                backend=None):
        """Compile *circuit* through the session cache (see
        :func:`~repro.service.engines.compile_cached`)."""
        from .engines import compile_cached
        return compile_cached(self, circuit, cmin=cmin, backend=backend)

    def state(self, compiled, deltas=None, source_values=None,
              batch_shape=None):
        """Parameter state through the session cache (see
        :meth:`~repro.analysis.mna.CompiledCircuit.make_state`)."""
        key = compiled.state_key(deltas=deltas,
                                 source_values=source_values,
                                 batch_shape=batch_shape)
        hit = self.states.get(key)
        if hit is not None:
            return hit
        state = compiled.make_state(deltas=deltas,
                                    source_values=source_values,
                                    batch_shape=batch_shape)
        self.states.put(key, state)
        return state

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
        hit = self.results.get(key)
        if hit is not None:
            return hit.detached(from_cache=True)
        result = execute(self, request, key)
        self.results.put(key, result)
        return result.detached()

    def evict_result(self, key: str) -> bool:
        """Drop one memoized result by request key (cascading through
        its detail caches); returns whether the key was present.

        This is the seam the network front-end's per-tenant quotas use:
        a tenant over its result budget evicts *its own* oldest keys
        without disturbing the session-wide LRU order of the rest.
        """
        return self.results.pop(key) is not None

    # -- hygiene -------------------------------------------------------
    def clear(self) -> None:
        """Drop every store, cascading through the cached objects' own
        ``clear_caches()`` (compiled circuits, parameter states, orbit
        linearizations) so the memory actually comes back."""
        self.results.clear()
        self.pss_store.clear()
        self.states.clear()
        self.compiled.clear()

    def stats(self) -> dict:
        """Per-store size/capacity/hit/miss counters."""
        return {"compiled": self.compiled.stats(),
                "states": self.states.stats(),
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
