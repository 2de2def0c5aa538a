"""repro: reproduction of "Fast, Non-Monte-Carlo Estimation of Transient
Performance Variation Due to Device Mismatch" (Kim, Jones, Horowitz;
DAC 2007 / IEEE TCAS-I 2010).

Quick start::

    from repro import (default_technology, ring_oscillator,
                       transient_mismatch_analysis, Frequency)

    tech = default_technology()
    osc = ring_oscillator(tech)
    result = transient_mismatch_analysis(
        osc, [Frequency("f_osc", node="osc1")],
        oscillator_anchor="osc1", t_settle=8e-9, dt_settle=2e-12)
    print(result.report())
"""

from ._lazy import lazy_exports
from .circuit import (Circuit, Technology, default_technology,
                      Dc, Sine, SmoothPulse, Pwl, GateWindow)
from .analysis import (compile_circuit, dc_operating_point, dc_sweep,
                       transient)
from .linalg import (LinearSolverBackend, DenseBackend,
                     CachedDenseBackend, SparseBackend,
                     available_backends, resolve_backend)
from .analysis.pss import PssOptions, pss, pss_oscillator
from .analysis.lptv import periodic_sensitivities
from .core import (transient_mismatch_analysis, dc_mismatch_analysis,
                   DcLevel, EdgeDelay, Frequency,
                   monte_carlo_transient, monte_carlo_dc,
                   statistical_waveform, width_sensitivities,
                   width_sensitivity_report)
from .circuits import (ring_oscillator, strongarm_offset_testbench,
                       logic_path_testbench, inverter_chain,
                       five_transistor_ota, resistor_string_dac)
from .variation import (CorrelationGroup, ParameterVariation,
                        VariationSpec, spec_for_circuit)

# the service layer loads on first access (see repro.api)
_SERVICE_NAMES = ("AnalysisRequest", "AnalysisResult", "AnalysisSession",
                  "JobQueue", "default_session", "register_engine",
                  "registered_kinds")
__getattr__, __dir__ = lazy_exports(globals(), {".service": _SERVICE_NAMES})

__version__ = "1.0.0"

__all__ = [
    "Circuit", "Technology", "default_technology",
    "Dc", "Sine", "SmoothPulse", "Pwl", "GateWindow",
    "compile_circuit", "dc_operating_point", "dc_sweep", "transient",
    "LinearSolverBackend", "DenseBackend", "CachedDenseBackend",
    "SparseBackend", "available_backends", "resolve_backend",
    "pss", "pss_oscillator", "PssOptions", "periodic_sensitivities",
    "transient_mismatch_analysis", "dc_mismatch_analysis",
    "DcLevel", "EdgeDelay", "Frequency",
    "monte_carlo_transient", "monte_carlo_dc",
    "statistical_waveform", "width_sensitivities",
    "width_sensitivity_report",
    "ring_oscillator", "strongarm_offset_testbench",
    "logic_path_testbench", "inverter_chain", "five_transistor_ota",
    "resistor_string_dac",
    "CorrelationGroup", "ParameterVariation", "VariationSpec",
    "spec_for_circuit",
    *_SERVICE_NAMES,
    "__version__",
]
