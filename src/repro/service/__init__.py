"""Application layer: job-oriented analysis requests over shared caches.

This package is the top of the three-layer architecture (see the
top-level ``README.md``):

* **domain** (:mod:`repro.circuit`, :mod:`repro.analysis`) - circuit
  description and the numerical engines, identified by content hashes
  (:meth:`~repro.circuit.netlist.Circuit.fingerprint`,
  ``CompiledCircuit.cache_key``);
* **application** (this package) - :class:`AnalysisRequest` /
  :class:`AnalysisResult` describe work as JSON-serializable values,
  :class:`AnalysisSession` executes them through bounded LRU caches
  keyed on the content hashes, and :class:`JobQueue` fans independent
  requests across worker processes;
* **infrastructure** (:mod:`repro.service.shards`) - the versioned,
  serializable Monte-Carlo shard protocol whose merge is bit-identical
  to the in-process run.

Every queue submission and Monte-Carlo shard, in process or across
hosts, runs under one :class:`RetryPolicy` - ``retry=None`` is one
attempt - which sets its deadlines, retries with exponential backoff
and deterministic degradation (NaN-frozen spans with structured
:class:`~repro.errors.FailureRecord` reporting), and on a
:class:`WorkerPool` its breakers and hedging; a crashed pool worker
fails only its in-flight jobs and the pool respawns.
:mod:`repro.service.faults` injects reproducible faults at the
execution sites to prove all of it.

The dependency direction is one-way: this package imports the layers
below it, never the reverse (``repro.circuit`` / ``repro.analysis`` /
``repro.core`` must not import ``repro.service`` - CI enforces it).
One file still does: ``repro.core.montecarlo`` runs its shards through
:mod:`repro.service.shards` and :mod:`repro.service.jobs`, and the
lint allows it those two modules and no other.
"""

from .._lazy import lazy_exports
from ..errors import DrainingError, FailureRecord, TransportError

# Each name loads its own module on first access, so the Monte-Carlo
# fan-out (``repro.service.jobs`` and what it imports) never loads the
# client, server or resilience modules.
__getattr__, __dir__ = lazy_exports(globals(), {
    ".client": ("RemoteJob", "RemoteSession"),
    ".engines": ("AnalysisEngine", "engine_for", "register_engine",
                 "registered_kinds", "unregister_engine"),
    ".faults": ("FaultPlan", "FaultRule"),
    ".jobs": ("Job", "JobQueue", "RetryPolicy"),
    ".net": ("AnalysisServer", "TenantConfig", "serve"),
    ".resilience": ("CircuitBreaker", "ScatterPolicy", "ScatterResult",
                    "WorkerPool", "scatter_monte_carlo_transient",
                    "scatter_shards"),
    ".requests": ("REQUEST_FORMAT_VERSION", "AnalysisRequest",
                  "AnalysisResult"),
    ".serialize": ("circuit_from_dict", "circuit_to_dict", "from_jsonable",
                   "to_jsonable"),
    ".session": ("ENGINE_CACHE_BYTES", "AnalysisSession", "default_session"),
    ".shards": ("SHARD_PROTOCOL_VERSION", "MergedShards", "ShardResult",
                "ShardSpec", "degraded_shard_result", "mc_dc_shards",
                "mc_transient_shards", "merge_shard_results", "run_shard"),
})

__all__ = [
    "AnalysisRequest", "AnalysisResult", "REQUEST_FORMAT_VERSION",
    "AnalysisSession", "ENGINE_CACHE_BYTES", "default_session",
    "AnalysisEngine", "register_engine", "unregister_engine",
    "engine_for", "registered_kinds",
    "Job", "JobQueue", "RetryPolicy",
    "FaultPlan", "FaultRule", "FailureRecord",
    "ShardSpec", "ShardResult", "SHARD_PROTOCOL_VERSION",
    "MergedShards", "degraded_shard_result",
    "mc_transient_shards", "mc_dc_shards",
    "run_shard", "merge_shard_results",
    "circuit_to_dict", "circuit_from_dict",
    "to_jsonable", "from_jsonable",
    "AnalysisServer", "TenantConfig", "serve",
    "RemoteSession", "RemoteJob", "ScatterResult",
    "scatter_shards", "scatter_monte_carlo_transient",
    "WorkerPool", "ScatterPolicy", "CircuitBreaker",
    "TransportError", "DrainingError",
]
