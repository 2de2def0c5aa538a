"""The paper's analysis flows.

:func:`transient_mismatch_analysis` is the headline method (paper Fig. 2):

1. convert every declared mismatch parameter into its equivalent
   pseudo-noise injection (Section III),
2. find the periodic steady state (Section IV),
3. solve the LPTV small-signal system once for all injections
   (Section IV/V) - the time-domain shooting formulation, exact on the
   PSS discretisation,
4. map the periodic sensitivity waveforms through the requested measures
   and assemble contribution tables (Section V), from which variances,
   correlations (Eq. 12) and design sensitivities (Section VII) all
   follow without further simulation.

:func:`dc_mismatch_analysis` is the prior art the paper extends ([8], [9]
- `.SENS`/dcmatch): the same machinery degenerates to a single adjoint
solve at the DC operating point.

Both free functions are cold: every call compiles, solves and returns a
result owned by the caller.  Caching across calls is explicit - an
:class:`~repro.service.session.AnalysisSession` drives the same engines
through its content-addressed stores, bit-identically.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..analysis.dcop import dc_operating_point
from ..analysis.lptv import (PeriodicLinearization, SensitivitySolution)
from ..analysis.mna import CompiledCircuit, Injection, ParamState
from ..analysis.pss import PssOptions, PssResult, pss, pss_oscillator
from ..circuit.elements import ParamKey
from ..circuit.netlist import Circuit
from ..errors import AnalysisError
from .contributions import (ContributionTable, correlation, covariance)
from .measures import Measure


@dataclass
class MismatchAnalysisResult:
    """Everything one pseudo-noise mismatch analysis produces.

    The per-measure :class:`ContributionTable` objects carry the full
    linear model; helper methods expose the paper's derived quantities.
    """

    compiled: CompiledCircuit
    pss: PssResult | None
    sens: SensitivitySolution | None
    measures: list[Measure]
    nominal: dict[str, float]
    tables: dict[str, ContributionTable]
    runtime_seconds: float = 0.0
    #: Wall-clock split: pss / linearization+solve / measures.
    runtime_breakdown: dict[str, float] = field(default_factory=dict)

    @property
    def keys(self) -> list[ParamKey]:
        first = next(iter(self.tables.values()))
        return first.keys

    def sigma(self, metric: str) -> float:
        """Standard deviation of *metric* (paper Eq. 1 generalised)."""
        return self._table(metric).sigma

    def variance(self, metric: str) -> float:
        return self._table(metric).variance

    def mean(self, metric: str) -> float:
        """Nominal (zero-mismatch) value; the linear model's mean."""
        return self.nominal[metric]

    def contributions(self, metric: str) -> ContributionTable:
        return self._table(metric)

    def correlation(self, metric_a: str, metric_b: str) -> float:
        """Correlation between two metrics (paper Eq. 12, Table I)."""
        return correlation(self._table(metric_a), self._table(metric_b))

    def covariance(self, metric_a: str, metric_b: str) -> float:
        return covariance(self._table(metric_a), self._table(metric_b))

    def correlation_matrix(self) -> tuple[list[str], np.ndarray]:
        names = [m.name for m in self.measures]
        k = len(names)
        rho = np.eye(k)
        for i in range(k):
            for j in range(i + 1, k):
                rho[i, j] = rho[j, i] = self.correlation(names[i], names[j])
        return names, rho

    def report(self, top: int = 8) -> str:
        lines = [f"pseudo-noise mismatch analysis of "
                 f"'{self.compiled.circuit.name}'"]
        if self.pss is not None:
            lines.append(f"  PSS: f0 = {self.pss.f0:.6g} Hz, "
                         f"{self.pss.n_steps} pts, engine "
                         f"{self.pss.engine}")
        lines.append(f"  parameters: {len(self.keys)} mismatch sources; "
                     f"runtime {self.runtime_seconds:.2f} s")
        for m in self.measures:
            t = self._table(m.name)
            lines.append("")
            lines.append(f"  {m.name}: nominal {self.nominal[m.name]:.6g}, "
                         f"sigma {t.sigma:.6g}")
            lines.extend("    " + row
                         for row in t.summary(top).splitlines()[1:])
        return "\n".join(lines)

    def _table(self, metric: str) -> ContributionTable:
        try:
            return self.tables[metric]
        except KeyError:
            raise AnalysisError(
                f"no metric named '{metric}'; available: "
                f"{sorted(self.tables)}") from None


def _as_compiled(circuit, backend=None) -> CompiledCircuit:
    """Compile *circuit* if needed; *backend* (name or instance, see
    :mod:`repro.linalg`) overrides the linear-solver backend.

    A ``CompiledCircuit`` passed with a backend override is shallow-
    copied so the per-call override never mutates the caller's object
    (use :meth:`CompiledCircuit.set_backend` for a persistent switch).
    """
    if isinstance(circuit, CompiledCircuit):
        if backend is None:
            return circuit
        import copy
        return copy.copy(circuit).set_backend(backend)
    if isinstance(circuit, Circuit):
        from ..analysis.mna import compile_circuit
        return compile_circuit(circuit, backend=backend)
    raise TypeError("expected a Circuit or CompiledCircuit")


def check_uniform_keywords(retry=None, n_workers: int | None = None,
                           param_covariance=None, variations=None) -> None:
    """Validate the keyword shape every analysis entry point shares.

    ``retry=`` / ``n_workers=`` are accepted everywhere so call sites
    can switch between the deterministic analyses and Monte-Carlo
    without reshaping their keywords; a single solve has nothing to
    retry or fan out, but a malformed value is still an error.  The
    same rules hold for every call shape - a :class:`Circuit` or a
    :class:`CompiledCircuit`, a free function or an
    :class:`~repro.service.requests.AnalysisRequest`:

    * *retry* must be a :class:`~repro.service.jobs.RetryPolicy`
      (known here by its ``to_dict()``), its dict form, or ``None`` -
      otherwise :class:`TypeError`;
    * *n_workers* below 1 raises :class:`AnalysisError`;
    * *param_covariance* and *variations* are mutually exclusive -
      :class:`ValueError`.
    """
    if not (retry is None or isinstance(retry, dict)
            or hasattr(retry, "to_dict")):
        raise TypeError(
            f"retry must be a RetryPolicy, its dict form, or None - "
            f"got {type(retry).__name__!r}")
    if n_workers is not None and int(n_workers) < 1:
        raise AnalysisError("n_workers must be >= 1")
    if param_covariance is not None and variations is not None:
        raise ValueError("give param_covariance or variations, not both")


def check_drive_spec(period: float | None, oscillator_anchor: str | None,
                     t_settle: float | None,
                     dt_settle: float | None) -> None:
    """Raise unless the drive spec names a periodic steady state: a
    *period* (driven circuit) or an *oscillator_anchor* with its
    startup-transient *t_settle* / *dt_settle*."""
    if oscillator_anchor is not None:
        if t_settle is None or dt_settle is None:
            raise AnalysisError(
                "oscillator analyses need t_settle and dt_settle")
    elif period is None:
        raise AnalysisError("give period= or oscillator_anchor=")


def _solve_pss(compiled: CompiledCircuit, period: float | None = None,
               oscillator_anchor: str | None = None,
               t_settle: float | None = None,
               dt_settle: float | None = None,
               state: ParamState | None = None,
               options: PssOptions | None = None) -> PssResult:
    """The periodic steady state for one drive spec (see
    :func:`check_drive_spec`): :func:`~repro.analysis.pss.pss` for a
    driven circuit, :func:`~repro.analysis.pss.pss_oscillator` for an
    autonomous one."""
    check_drive_spec(period, oscillator_anchor, t_settle, dt_settle)
    if oscillator_anchor is not None:
        return pss_oscillator(compiled, oscillator_anchor, t_settle,
                              dt_settle, state=state, options=options)
    return pss(compiled, period, state=state, options=options)


def _analyze_on_orbit(compiled: CompiledCircuit, measures: list[Measure],
                      orbit: Callable[[], PssResult],
                      injections: list[Injection] | None = None,
                      param_covariance: np.ndarray | None = None,
                      ) -> MismatchAnalysisResult:
    """Steps 1-4 of the module docstring on the orbit *orbit()* returns.

    The orbit is obtained here, so ``runtime_breakdown["pss"]`` is the
    wall time of that call - a fresh solve, a cache lookup or a
    precomputed result, whichever *orbit* is.  Without *injections*
    the LPTV solve reuses the periodicity closure a previous call kept
    on the same orbit, so ``runtime_breakdown["lptv"]`` of an orbit hit
    is one waveform sweep.
    """
    t_start = time.perf_counter()
    pss_result = orbit()
    t_pss = time.perf_counter()
    sens = PeriodicLinearization(pss_result).solve(injections)
    t_lptv = time.perf_counter()

    sigmas = sens.sigmas
    keys = sens.keys
    nominal: dict[str, float] = {}
    tables: dict[str, ContributionTable] = {}
    for m in measures:
        nominal[m.name] = m.measure_pss(pss_result)
        s = m.sensitivities(sens)
        tables[m.name] = ContributionTable(
            m.name, keys, s, sigmas, param_covariance=param_covariance)
    t_end = time.perf_counter()

    return MismatchAnalysisResult(
        compiled=compiled, pss=pss_result, sens=sens, measures=measures,
        nominal=nominal, tables=tables,
        runtime_seconds=t_end - t_start,
        runtime_breakdown={"pss": t_pss - t_start,
                           "lptv": t_lptv - t_pss,
                           "measures": t_end - t_lptv})


def run_transient_mismatch(
        compiled: CompiledCircuit, measures: list[Measure],
        pss_result: PssResult,
        injections: list[Injection] | None = None,
        param_covariance: np.ndarray | None = None,
) -> MismatchAnalysisResult:
    """Engine of the sensitivity analysis, given the PSS orbit.

    This is the post-PSS half of the paper's flow (steps 1, 3-4 of the
    module docstring): build pseudo-noise injections on the orbit,
    solve the LPTV system once for all of them, and map the sensitivity
    waveforms through the measures.  The orbit comes in ready-made, so
    ``runtime_breakdown["pss"]`` is (near) zero.
    """
    return _analyze_on_orbit(compiled, measures, lambda: pss_result,
                             injections=injections,
                             param_covariance=param_covariance)


def transient_mismatch_analysis(
        circuit, measures: list[Measure], *,
        period: float | None = None,
        oscillator_anchor: str | None = None,
        t_settle: float | None = None,
        dt_settle: float | None = None,
        state: ParamState | None = None,
        pss_options: PssOptions | None = None,
        injections: list[Injection] | None = None,
        param_covariance: np.ndarray | None = None,
        precomputed_pss: PssResult | None = None,
        backend: str | None = None,
        variations=None,
        retry=None,
        n_workers: int | None = None,
) -> MismatchAnalysisResult:
    """Run the paper's sensitivity-based transient mismatch analysis.

    Exactly one of *period* (driven circuit) or *oscillator_anchor*
    (autonomous circuit, with *t_settle*/*dt_settle* for the startup
    transient) must be given, unless *precomputed_pss* is supplied.

    Every call is cold: it compiles the circuit, solves the periodic
    steady state and runs the LPTV engine, and the result belongs to
    the caller alone.  For caching across calls (compiled circuits,
    PSS orbits, memoized results) use an
    :class:`~repro.service.session.AnalysisSession`; its results are
    bit-identical to this function's.

    Parameters
    ----------
    circuit:
        A :class:`Circuit` or :class:`CompiledCircuit`.
    measures:
        Performance metrics to characterise.
    injections:
        Restrict/override the mismatch sources (default: every
        declaration in the circuit).
    param_covariance:
        Full mismatch covariance matrix for correlated mismatch
        (paper Eq. 6); defaults to independent parameters.
    variations:
        Declarative :class:`~repro.variation.VariationSpec` as an
        alternative to *param_covariance* (mutually exclusive);
        lowered onto the circuit's declaration order, bit-identical
        to the equivalent hand-built matrix.
    backend:
        Linear-solver backend name or instance (``"dense"``,
        ``"cached"``, ``"sparse"``; see :mod:`repro.linalg`); default
        auto-selects by circuit size.
    retry, n_workers:
        Accepted for keyword uniformity with the Monte-Carlo entry
        points; a single deterministic solve has nothing to retry or
        fan out, so they are checked for shape
        (:func:`check_uniform_keywords`) and otherwise ignored.

    Returns
    -------
    MismatchAnalysisResult
    """
    check_uniform_keywords(retry, n_workers, param_covariance, variations)
    compiled = _as_compiled(circuit, backend=backend)
    if variations is not None:
        param_covariance = variations.covariance(compiled)

    def orbit() -> PssResult:
        if precomputed_pss is not None:
            return precomputed_pss
        return _solve_pss(compiled, period=period,
                          oscillator_anchor=oscillator_anchor,
                          t_settle=t_settle, dt_settle=dt_settle,
                          state=state, options=pss_options)

    return _analyze_on_orbit(compiled, measures, orbit,
                             injections=injections,
                             param_covariance=param_covariance)


def run_dc_mismatch(compiled: CompiledCircuit,
                    outputs: dict[str, str | tuple[str, str]],
                    state: ParamState | None = None,
                    param_covariance: np.ndarray | None = None,
                    ) -> MismatchAnalysisResult:
    """Engine of the DC mismatch analysis, given the compiled circuit.

    One adjoint solve per output: with ``G dx = -di/dp``, the output
    sensitivity is ``S_i = -(G^-T c)^T (di/dp)_i`` (the generalised
    adjoint network of Director & Rohrer, [25] in the paper).  ``G`` is
    factored once through the circuit's linear-solver backend and the
    factorization is reused (transposed) across all outputs.
    """
    state = state or compiled.nominal
    t_start = time.perf_counter()

    dc = dc_operating_point(compiled, state)
    x_pad = compiled.pad(dc.x)
    _, g_pad, f_pad = compiled.buffers(())
    compiled.assemble(state, x_pad, 0.0, g_pad, f_pad)
    n = compiled.n
    g = g_pad[:n, :n]

    injections = compiled.mismatch_injections(state, dc.x[None, :])
    if not injections:
        raise AnalysisError("circuit declares no mismatch parameters")
    di = np.stack([inj.di_dp[0] for inj in injections], axis=-1)  # (n, m)
    sigmas = np.array([inj.sigma for inj in injections])
    keys = [inj.key for inj in injections]

    nominal: dict[str, float] = {}
    tables: dict[str, ContributionTable] = {}
    measures: list[Measure] = []
    g_fact = compiled.backend.factor(g)
    from .measures import DcLevel
    for name, spec in outputs.items():
        pos, neg = (spec if isinstance(spec, tuple) else (spec, None))
        c_vec = np.zeros(n)
        c_vec[compiled.node_index[pos]] = 1.0
        if neg is not None:
            c_vec[compiled.node_index[neg]] -= 1.0
        lam = g_fact.solve(c_vec, trans=True)
        s = -(lam @ di)
        nominal[name] = float(c_vec @ dc.x)
        tables[name] = ContributionTable(name, keys, s, sigmas,
                                         param_covariance=param_covariance)
        measures.append(DcLevel(name, pos, neg))

    t_end = time.perf_counter()
    return MismatchAnalysisResult(
        compiled=compiled, pss=None, sens=None, measures=measures,
        nominal=nominal, tables=tables, runtime_seconds=t_end - t_start,
        runtime_breakdown={"dc": t_end - t_start})



def dc_mismatch_analysis(circuit,
                         outputs: dict[str, str | tuple[str, str]], *,
                         state: ParamState | None = None,
                         param_covariance: np.ndarray | None = None,
                         backend: str | None = None,
                         variations=None,
                         retry=None,
                         n_workers: int | None = None,
                         ) -> MismatchAnalysisResult:
    """DC mismatch (dcmatch / [8]) analysis - the method the paper extends.

    Cold on every call, like :func:`transient_mismatch_analysis`: it
    compiles the circuit and runs the adjoint engine
    :func:`run_dc_mismatch`.  Use an
    :class:`~repro.service.session.AnalysisSession` for caching.

    Parameters
    ----------
    outputs:
        Metric name -> node (or ``(pos, neg)`` pair) whose DC value's
        variation is wanted.
    variations:
        Declarative :class:`~repro.variation.VariationSpec` as an
        alternative to *param_covariance* (mutually exclusive).
    retry, n_workers:
        Accepted for keyword uniformity with the Monte-Carlo entry
        points; checked for shape (:func:`check_uniform_keywords`) and
        otherwise ignored.
    """
    check_uniform_keywords(retry, n_workers, param_covariance, variations)
    compiled = _as_compiled(circuit, backend=backend)
    if variations is not None:
        param_covariance = variations.covariance(compiled)
    return run_dc_mismatch(compiled, outputs, state=state,
                           param_covariance=param_covariance)
