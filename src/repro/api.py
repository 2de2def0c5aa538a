"""The supported public API of :mod:`repro` - import from here.

This module is the package's *closed, versioned* surface: everything in
``__all__`` is supported, follows the deprecation policy below, and is
the complete set of entry points the examples, the network daemon and
external callers are expected to use.  Importing from deep modules
(``repro.core.analysis``, ``repro.service.net``, ...) still works but
carries no stability promise - CI enforces that the in-repo examples
import only this facade.

Versioning policy
-----------------
``API_VERSION`` is ``major.minor``:

* **minor** bumps add names or keywords - existing call sites keep
  working unchanged;
* **major** bumps may remove names or change semantics, and only after
  the affected surface spent at least one minor release emitting
  :class:`DeprecationWarning` (warn first, break later - e.g. the
  legacy positional call shapes of ``*_mismatch_analysis`` warned
  through 1.x and were removed in 2.0: they now raise
  :class:`TypeError`).  A deprecation warns with a
  :class:`~repro.errors.ReproDeprecationWarning` naming its successor.
  API 3.0 removed what 2.1 and 2.2 deprecated: :class:`AnalysisSession`'s
  ``compiled_capacity``, ``state_capacity`` and ``pss_capacity`` (one
  byte budget, ``cache_bytes``), ``AnalysisSession.state()`` and its
  ``states`` store (use ``compiled.make_state(...)``), ``ScatterPolicy``
  (use :class:`RetryPolicy`), ``WorkerPool.run_shard`` (use
  ``scatter([spec])[0]``) and :class:`PssOptions`' ``settle_adaptive``,
  ``settle_rtol`` and ``settle_atol`` (cap the settle with
  ``settle_periods``).  Request format v1 still carries the three
  settle fields at their old defaults, so a 2.x request keeps its key;
  any other value is refused.  ``default_session()`` stays, and does
  not warn, while perfbench's ``run_op`` calls it; once that moves to
  an explicit session it warns for a minor release before it can go.

Wire formats version independently (``REQUEST_FORMAT_VERSION``,
``SHARD_PROTOCOL_VERSION``); ``GET /health`` on a daemon reports all
three so clients can negotiate before submitting work.

The surface, by layer
---------------------
circuits
    :class:`Circuit` plus element/stimulus types, technology handling,
    and the example-circuit builders used throughout the paper.
analyses
    The paper's :func:`transient_mismatch_analysis` (one deterministic
    solve per mismatch estimate), the dcmatch baseline
    :func:`dc_mismatch_analysis`, Monte-Carlo references, PSS/LPTV
    engines, measures and downstream statistics helpers.
variation
    Declarative mismatch models (:class:`VariationSpec`) lowered onto
    circuits deterministically.
service
    Requests/results/sessions/queues, and the network front-end:
    :func:`serve` / :class:`AnalysisServer` on the daemon side,
    :class:`RemoteSession` plus the ``scatter_*`` fan-out helpers and
    the fault-tolerant :class:`WorkerPool` dispatch layer on the client
    side, all under one :class:`RetryPolicy`.

What an import loads
--------------------
Importing this module loads the engine only: circuits, analyses,
linear algebra and variation, which is everything
:func:`transient_mismatch_analysis` and :func:`monte_carlo_transient`
run, so a cold call never pays for an import inside its own timer.
The service names load :mod:`repro.service` on first access (PEP 562),
and each of them only its own submodule: touching
:class:`AnalysisSession` does not load the HTTP server or client.
``scipy.sparse`` loads with the first sparse factorization and
``scipy.special`` with the first confidence interval.  ``__all__``,
``dir()``, ``from repro.api import *`` and identity with the
:mod:`repro.service` objects are as with an eager import.
"""

from __future__ import annotations

from ._lazy import lazy_exports

# -- circuits ----------------------------------------------------------
from .circuit import (Circuit, Dc, GateWindow, Pwl, Sine, SmoothPulse,
                      Technology, default_technology)
from .circuits import (five_transistor_ota, inverter_chain,
                       logic_path_testbench, resistor_string_dac,
                       ring_oscillator, strongarm_offset_testbench)
from .circuits.comparator import CORE_DEVICES
from .circuits.dac import dac_tap_names

# -- analyses ----------------------------------------------------------
from .analysis import (compile_circuit, dc_operating_point, dc_sweep,
                       transient)
from .analysis.lptv import periodic_sensitivities
from .analysis.pss import PssOptions, pss, pss_oscillator
from .core import (DcLevel, EdgeDelay, Frequency, dc_mismatch_analysis,
                   monte_carlo_dc, monte_carlo_transient,
                   statistical_waveform, transient_mismatch_analysis,
                   width_sensitivities, width_sensitivity_report)
from .core.contributions import (correlation, covariance,
                                 difference_variance)
from .core.design_sensitivity import sigma_after_resize
from .core.gaussian_mixture import project_mixture, split_gaussian
from .stats import describe, normalized_skewness

# -- variation ---------------------------------------------------------
from .variation import (CorrelationGroup, ParameterVariation,
                        VariationSpec, spec_for_circuit)

# -- errors ------------------------------------------------------------
from .errors import (AnalysisError, AuthenticationError,
                     ConvergenceError, DrainingError, FailureRecord,
                     MeasurementError, NetlistError, QuotaExceededError,
                     ReproError, SolverError, TransportError)

# -- service -----------------------------------------------------------
#: Loaded from :mod:`repro.service` on first access (PEP 562), so an
#: engine-only process never imports the service layer.
_SERVICE_NAMES = (
    "AnalysisRequest", "AnalysisResult", "AnalysisSession",
    "ENGINE_CACHE_BYTES", "default_session", "registered_kinds",
    "JobQueue", "RetryPolicy",
    "FaultPlan", "FaultRule",
    "REQUEST_FORMAT_VERSION", "SHARD_PROTOCOL_VERSION",
    "ShardSpec", "ShardResult", "mc_transient_shards", "mc_dc_shards",
    "run_shard", "merge_shard_results",
    "to_jsonable", "from_jsonable",
    "serve", "AnalysisServer", "TenantConfig",
    "RemoteSession", "RemoteJob",
    "ScatterResult", "scatter_shards", "scatter_monte_carlo_transient",
    "WorkerPool",
)
__getattr__, __dir__ = lazy_exports(globals(), {".service": _SERVICE_NAMES})

#: The facade's own version (see the module docstring for the policy).
API_VERSION = "3.0"

__all__ = [
    "API_VERSION",
    # circuits
    "Circuit", "Technology", "default_technology",
    "Dc", "Sine", "SmoothPulse", "Pwl", "GateWindow",
    "ring_oscillator", "strongarm_offset_testbench",
    "logic_path_testbench", "inverter_chain", "five_transistor_ota",
    "resistor_string_dac", "CORE_DEVICES", "dac_tap_names",
    # analyses
    "compile_circuit", "dc_operating_point", "dc_sweep", "transient",
    "pss", "pss_oscillator", "PssOptions", "periodic_sensitivities",
    "transient_mismatch_analysis", "dc_mismatch_analysis",
    "monte_carlo_transient", "monte_carlo_dc",
    "DcLevel", "EdgeDelay", "Frequency",
    "statistical_waveform", "width_sensitivities",
    "width_sensitivity_report",
    "correlation", "covariance", "difference_variance",
    "sigma_after_resize", "project_mixture", "split_gaussian",
    "describe", "normalized_skewness",
    # variation
    "VariationSpec", "ParameterVariation", "CorrelationGroup",
    "spec_for_circuit",
    # errors
    "ReproError", "NetlistError", "SolverError", "ConvergenceError",
    "AnalysisError", "MeasurementError", "AuthenticationError",
    "QuotaExceededError", "TransportError", "DrainingError",
    "FailureRecord",
    # service
    *_SERVICE_NAMES,
]
