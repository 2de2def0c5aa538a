"""Job-oriented analysis requests and results (application layer).

An :class:`AnalysisRequest` describes one unit of analysis work as a
plain value: a serialized circuit, a kind tag, measures/outputs and an
options dict - all JSON types after :meth:`~AnalysisRequest.to_dict`.
Requests therefore have a stable content hash (:meth:`AnalysisRequest.
key`), which is what :class:`~repro.service.session.AnalysisSession`
memoizes results on, and they cross process boundaries unchanged, which
is what :class:`~repro.service.jobs.JobQueue` fans out.

:class:`AnalysisResult` is the matching value-shaped answer: a
``summary`` dict of plain numbers that serializes and memoizes, plus an
optional live ``detail`` object (the engine's rich result - contribution
tables, waveforms) that exists only in-process and never crosses a
boundary.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, replace

from ..circuit.netlist import content_digest
from ..errors import AnalysisError
from .engines import engine_for
from .serialize import (circuit_record, from_jsonable, output_triples,
                        to_jsonable)

REQUEST_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis job as a JSON-serializable value.

    Build instances through :meth:`build` (any registered kind - see
    :func:`~repro.service.engines.registered_kinds`) or the named
    classmethod constructors (:meth:`transient_mismatch`,
    :meth:`dc_mismatch`, :meth:`monte_carlo_transient`,
    :meth:`monte_carlo_dc`, :meth:`pss`, :meth:`ac`, :meth:`sweep`) -
    they serialize the circuit and options into canonical form through
    the kind's registered engine so that equal workloads get equal
    :meth:`key` values.

    Every constructor accepts *variations* - a declarative
    :class:`~repro.variation.VariationSpec` - as an alternative to a
    raw *param_covariance* matrix; the spec rides the request as a
    tagged JSON payload and is lowered onto the circuit's declaration
    order at execution time, bit-identical to the equivalent hand-built
    matrix.
    """

    kind: str
    circuit: dict
    measures: tuple = ()
    outputs: tuple = ()
    options: dict = field(default_factory=dict)
    version: int = REQUEST_FORMAT_VERSION

    def __post_init__(self):
        # raises AnalysisError listing the registered kinds
        engine_for(self.kind)

    # -- constructors --------------------------------------------------
    @classmethod
    def build(cls, kind: str, circuit=None, measures=(), outputs=None,
              **kwargs) -> "AnalysisRequest":
        """Build a request of any registered *kind*.

        The kind's engine canonicalizes *kwargs* into the JSON-stable
        options dict; *measures* / *outputs* are consumed according to
        the engine's payload slot.  This is the generic form behind
        every named constructor - a newly registered engine is
        constructible here with no further plumbing.
        """
        engine = engine_for(kind)
        options = engine.canonicalize(**kwargs)
        measures_t: tuple = ()
        outputs_t: tuple = ()
        if engine.payload == "measures":
            measures_t = tuple(to_jsonable(list(measures)))
        elif engine.payload == "outputs":
            outputs_t = output_triples(
                outputs if outputs is not None else {})
        record = (circuit_record(circuit)
                  if circuit is not None else {})
        return cls(kind=kind, circuit=record, measures=measures_t,
                   outputs=outputs_t, options=options)

    @classmethod
    def transient_mismatch(cls, circuit, measures,
                           period: float | None = None,
                           oscillator_anchor: str | None = None,
                           t_settle: float | None = None,
                           dt_settle: float | None = None,
                           pss_options=None, param_covariance=None,
                           cmin: float | None = None,
                           backend: str | None = None,
                           variations=None, retry=None,
                           n_workers: int | None = None
                           ) -> "AnalysisRequest":
        """The paper's sensitivity analysis (:func:`~repro.core.analysis.
        transient_mismatch_analysis`) as a request.

        *retry* / *n_workers* are accepted for keyword uniformity with
        the Monte-Carlo constructors; a single deterministic solve has
        nothing to fan out or retry, so they are validated and dropped
        from the canonical options.
        """
        return cls.build(
            "transient_mismatch", circuit, measures=measures,
            period=period, oscillator_anchor=oscillator_anchor,
            t_settle=t_settle, dt_settle=dt_settle,
            pss_options=pss_options, param_covariance=param_covariance,
            variations=variations, cmin=cmin, backend=backend,
            retry=retry, n_workers=n_workers)

    @classmethod
    def dc_mismatch(cls, circuit, outputs: dict,
                    param_covariance=None, cmin: float | None = None,
                    backend: str | None = None,
                    variations=None, retry=None,
                    n_workers: int | None = None) -> "AnalysisRequest":
        """DC mismatch (dcmatch) analysis as a request.

        *retry* / *n_workers* are accepted for keyword uniformity with
        the Monte-Carlo constructors; validated, then dropped from the
        canonical options.
        """
        return cls.build(
            "dc_mismatch", circuit, outputs=outputs,
            param_covariance=param_covariance, variations=variations,
            cmin=cmin, backend=backend, retry=retry,
            n_workers=n_workers)

    @classmethod
    def monte_carlo_transient(cls, circuit, measures, n: int,
                              t_stop: float, dt: float,
                              window: tuple | None = None, seed: int = 0,
                              sigma_scale: float = 1.0,
                              param_covariance=None,
                              chunk_size: int = 250,
                              method: str = "trap",
                              extra_record: list | None = None,
                              adaptive: bool = False, rtol: float = 1e-3,
                              atol: float = 1e-6,
                              dt_min: float | None = None,
                              dt_max: float | None = None,
                              n_workers: int | None = None,
                              cmin: float | None = None,
                              backend: str | None = None,
                              retry=None,
                              variations=None) -> "AnalysisRequest":
        """Transient Monte-Carlo (:func:`~repro.core.montecarlo.
        monte_carlo_transient`) as a request.

        *retry* (a :class:`~repro.service.jobs.RetryPolicy` or its
        ``to_dict()`` form) puts the run's shards under supervision.
        """
        return cls.build(
            "mc_transient", circuit, measures=measures, n=n,
            t_stop=t_stop, dt=dt, window=window, seed=seed,
            sigma_scale=sigma_scale, param_covariance=param_covariance,
            variations=variations, chunk_size=chunk_size, method=method,
            extra_record=extra_record, adaptive=adaptive, rtol=rtol,
            atol=atol, dt_min=dt_min, dt_max=dt_max,
            n_workers=n_workers, cmin=cmin, backend=backend,
            retry=retry)

    @classmethod
    def monte_carlo_dc(cls, circuit, outputs: dict, n: int,
                       seed: int = 0, sigma_scale: float = 1.0,
                       param_covariance=None,
                       chunk_size: int | None = None,
                       n_workers: int | None = None,
                       cmin: float | None = None,
                       backend: str | None = None,
                       retry=None, variations=None) -> "AnalysisRequest":
        """DC Monte-Carlo as a request (*retry* as in
        :meth:`monte_carlo_transient`)."""
        return cls.build(
            "mc_dc", circuit, outputs=outputs, n=n, seed=seed,
            sigma_scale=sigma_scale, param_covariance=param_covariance,
            variations=variations, chunk_size=chunk_size,
            n_workers=n_workers, cmin=cmin, backend=backend,
            retry=retry)

    @classmethod
    def pss(cls, circuit, measures=(), period: float | None = None,
            oscillator_anchor: str | None = None,
            t_settle: float | None = None,
            dt_settle: float | None = None, pss_options=None,
            cmin: float | None = None,
            backend: str | None = None) -> "AnalysisRequest":
        """Periodic steady state (:func:`~repro.analysis.pss.pss` /
        :func:`~repro.analysis.pss.pss_oscillator`) as a cacheable
        request; *measures* (optional) report nominal orbit metrics in
        the summary."""
        return cls.build(
            "pss", circuit, measures=measures, period=period,
            oscillator_anchor=oscillator_anchor, t_settle=t_settle,
            dt_settle=dt_settle, pss_options=pss_options, cmin=cmin,
            backend=backend)

    @classmethod
    def ac(cls, circuit, outputs: dict, source: str, freqs,
           amplitude: float = 1.0, cmin: float | None = None,
           backend: str | None = None) -> "AnalysisRequest":
        """Small-signal AC sweep (:func:`~repro.analysis.ac.
        ac_analysis`) as a request; *outputs* maps metric names to
        (differential) response nodes."""
        return cls.build(
            "ac", circuit, outputs=outputs, source=source, freqs=freqs,
            amplitude=amplitude, cmin=cmin, backend=backend)

    @classmethod
    def sweep(cls, requests, labels=None) -> "AnalysisRequest":
        """A batch of sub-requests (live or ``to_dict()`` form) as one
        request; each case memoizes individually *and* the sweep as a
        whole memoizes on its content."""
        return cls.build("sweep", None, requests=list(requests),
                         labels=labels)

    # -- identity ------------------------------------------------------
    def key(self) -> str:
        """Content hash of the full request - the memoization key.

        Hashed on the first call and kept on the request, so the
        layers a submission passes through (daemon, queue, session)
        share one hash.  A request is a value: mutating the dicts it
        holds is unsupported (build a new request instead).
        """
        key = self.__dict__.get("_key")
        if key is None:
            key = content_digest(
                "analysis-request-v1", self.version, self.kind,
                self.circuit, list(self.measures), list(self.outputs),
                self.options)
            object.__setattr__(self, "_key", key)
        return key

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"version": self.version, "kind": self.kind,
                "circuit": self.circuit,
                "measures": list(self.measures),
                "outputs": list(self.outputs),
                "options": self.options}

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisRequest":
        version = data.get("version")
        if version != REQUEST_FORMAT_VERSION:
            raise AnalysisError(
                f"request format version {version!r} is not supported "
                f"(this build speaks {REQUEST_FORMAT_VERSION})")
        return cls(kind=data["kind"], circuit=data["circuit"],
                   measures=tuple(
                       tuple(m) if isinstance(m, list) else m
                       for m in data.get("measures", ())),
                   outputs=tuple(tuple(o) for o in data.get("outputs", ())),
                   options=data.get("options", {}), version=version)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "AnalysisRequest":
        return cls.from_dict(json.loads(text))


@dataclass
class AnalysisResult:
    """The value-shaped answer to an :class:`AnalysisRequest`.

    ``summary`` holds plain-number statistics per metric
    (``{"metrics": {name: {"nominal"/"mean": ..., "sigma": ...}}}`` plus
    kind-specific extras); it is what serializes, memoizes and crosses
    process boundaries.  ``detail`` is the engine's rich in-process
    result (:class:`~repro.core.analysis.MismatchAnalysisResult` or
    :class:`~repro.core.montecarlo.MonteCarloResult`) - dropped by
    :meth:`to_dict`, absent on results from worker processes and on
    deserialized results.

    ``runtime_seconds`` is the cost of the call that returned this
    result: the engine run on a miss, the memo lookup on a hit.
    ``compute_seconds`` is what the engine run behind the answer took
    (equal to ``runtime_seconds`` on a miss, kept from the original run
    on a hit).
    """

    kind: str
    request_key: str
    summary: dict
    runtime_seconds: float = 0.0
    from_cache: bool = False
    #: Structured :class:`~repro.errors.FailureRecord` values for every
    #: span its retry policy degraded (empty on clean runs);
    #: round-trips through :meth:`to_dict`.
    failures: list = field(default_factory=list)
    detail: object = field(default=None, repr=False, compare=False)
    version: int = REQUEST_FORMAT_VERSION
    #: Engine time behind the answer [s] (``None``: ``runtime_seconds``).
    compute_seconds: float | None = None

    def __post_init__(self):
        if self.compute_seconds is None:
            self.compute_seconds = self.runtime_seconds

    def sigma(self, metric: str) -> float:
        return float(self._metric(metric)["sigma"])

    def mean(self, metric: str) -> float:
        m = self._metric(metric)
        return float(m.get("mean", m.get("nominal")))

    def _metric(self, metric: str) -> dict:
        try:
            return self.summary["metrics"][metric]
        except KeyError:
            raise AnalysisError(
                f"no metric named '{metric}'; available: "
                f"{sorted(self.summary.get('metrics', {}))}") from None

    def to_dict(self) -> dict:
        return {"version": self.version, "kind": self.kind,
                "request_key": self.request_key, "summary": self.summary,
                "runtime_seconds": self.runtime_seconds,
                "compute_seconds": self.compute_seconds,
                "from_cache": self.from_cache,
                "failures": [to_jsonable(f) for f in self.failures]}

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisResult":
        version = data.get("version")
        if version != REQUEST_FORMAT_VERSION:
            raise AnalysisError(
                f"result format version {version!r} is not supported "
                f"(this build speaks {REQUEST_FORMAT_VERSION})")
        return cls(kind=data["kind"], request_key=data["request_key"],
                   summary=data["summary"],
                   runtime_seconds=data.get("runtime_seconds", 0.0),
                   compute_seconds=data.get("compute_seconds"),
                   from_cache=data.get("from_cache", False),
                   failures=[from_jsonable(f)
                             for f in data.get("failures", [])],
                   version=version)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResult":
        return cls.from_dict(json.loads(text))

    def detached(self, **changes) -> "AnalysisResult":
        """A copy owning its ``summary`` and ``failures`` list, with
        *changes* applied as by :func:`dataclasses.replace`; ``detail``
        stays shared (copying the engine's result is not cheap)."""
        return replace(self, summary=copy.deepcopy(self.summary),
                       failures=list(self.failures), **changes)
