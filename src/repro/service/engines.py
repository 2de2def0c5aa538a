"""The analysis-engine registry (application layer).

Every request kind the service executes is one :class:`AnalysisEngine`
entry: a kind tag, an options **canonicalizer** (keyword arguments ->
the JSON-stable options dict that hashes into the request key), a
**runner** (session + decoded context -> the engine's rich detail
object) and a **summary builder** (detail -> the plain-number summary
that memoizes and crosses process boundaries).  :mod:`~repro.service.
requests` builds requests through the canonicalizers,
:class:`~repro.service.session.AnalysisSession` executes them through
:func:`execute`, and :class:`~repro.service.jobs.JobQueue` consults
:attr:`AnalysisEngine.fan_out` - no layer keeps its own kind list, so
registering an engine (:func:`register_engine`) is the *only* step a
new analysis needs to become a cacheable, serializable, fan-out-able
request.  The ROADMAP estimators (stochastic-testing/gPC, importance
sampling) slot in as peers of the paper's linearized method this way.

This module also owns the session *flows* (compile-through-cache,
PSS-through-cache, the mismatch/Monte-Carlo orchestrations) that used
to live on :class:`AnalysisSession` directly: the session keeps the
stores and the memoization, the engines own every import of
:mod:`repro.core` / :mod:`repro.analysis` (CI enforces that split via
``tools/check_import_layering.py``).

Variation specs
---------------
Engines resolve their mismatch description through
:func:`resolve_covariance`: an explicit ``param_covariance`` (nested
lists) wins, otherwise a declarative
:class:`~repro.variation.VariationSpec` payload (the ``variations``
option) is decoded and lowered onto the circuit's declaration order -
bit-identical to the equivalent hand-built matrix, in-process and on
the far side of a :class:`~repro.service.jobs.JobQueue` pool.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import AnalysisError
from .serialize import (circuit_from_dict, clean_options,
                        covariance_payload, from_jsonable, output_map,
                        retry_payload, to_jsonable, variation_payload,
                        variation_spec)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class AnalysisEngine:
    """One registered request kind.

    Attributes
    ----------
    kind:
        The tag :class:`~repro.service.requests.AnalysisRequest`
        carries.
    canonicalize:
        ``(**kwargs) -> options dict`` - validates the keyword surface
        of the request constructor and returns the JSON-stable options
        dict (``None`` entries dropped, arrays as nested lists, specs
        as tagged payloads) that the request key hashes.
    run:
        ``(session, ctx) -> detail`` - executes the analysis through
        the session caches; *ctx* is the decoded
        :class:`EngineContext`.
    summarize:
        ``(detail, ctx) -> summary dict`` of plain JSON numbers - what
        memoizes and crosses process boundaries.
    payload:
        Which request payload slot this kind uses: ``"measures"``
        (serialized measure list), ``"outputs"`` (dcmatch output
        triples) or ``None``.
    fan_out:
        True when the engine fans its own work across processes
        (Monte-Carlo).  A pooled :class:`~repro.service.jobs.JobQueue`
        runs such a request that asks for ``n_workers > 1`` in the
        submitting process and sends its shards to the queue's
        workers, so a pooled job never nests a second pool.
    composite:
        True when the engine's work is sub-requests it runs through
        ``session.run`` (``sweep``).  A pooled
        :class:`~repro.service.jobs.JobQueue` runs such an engine in
        the submitting process and sends each sub-request through the
        queue, so the cases hit the queue's memo and their misses run
        in the workers.
    description:
        One line for docs and error messages.
    """

    kind: str
    canonicalize: Callable
    run: Callable
    summarize: Callable
    payload: str | None = None
    fan_out: bool = False
    composite: bool = False
    description: str = ""


_ENGINES: dict[str, AnalysisEngine] = {}


def register_engine(engine: AnalysisEngine,
                    replace: bool = False) -> AnalysisEngine:
    """Add *engine* to the registry (idempotent only with *replace*).

    Registration is the single extension point: once registered, the
    kind is constructible via :meth:`AnalysisRequest.build
    <repro.service.requests.AnalysisRequest.build>`, executable by any
    :class:`~repro.service.session.AnalysisSession`, and accepted by
    :class:`~repro.service.jobs.JobQueue`.
    """
    if engine.kind in _ENGINES and not replace:
        raise AnalysisError(
            f"request kind '{engine.kind}' is already registered "
            f"(pass replace=True to override)")
    _ENGINES[engine.kind] = engine
    return engine


def unregister_engine(kind: str) -> None:
    """Remove a kind (primarily for tests of custom engines)."""
    _ENGINES.pop(kind, None)


def registered_kinds() -> tuple[str, ...]:
    """All registered kind tags, sorted."""
    return tuple(sorted(_ENGINES))


def engine_for(kind: str) -> AnalysisEngine:
    """The engine registered for *kind*, or an :class:`AnalysisError`
    listing what *is* registered."""
    try:
        return _ENGINES[kind]
    except KeyError:
        raise AnalysisError(
            f"unknown request kind '{kind}'; registered kinds: "
            f"{list(registered_kinds())}") from None


# ---------------------------------------------------------------------------
# execution context
# ---------------------------------------------------------------------------
@dataclass
class EngineContext:
    """Decoded request payloads, built once per execution."""

    request: object
    #: Live :class:`~repro.circuit.netlist.Circuit` (``None`` for kinds
    #: without a circuit payload, e.g. ``sweep``).
    circuit: object
    #: Mutable copy of the request options.
    options: dict
    #: Decoded live measures (``payload == "measures"`` kinds).
    measures: list = field(default_factory=list)
    #: Output map ``{name: node | (pos, neg)}`` (``"outputs"`` kinds).
    outputs: dict = field(default_factory=dict)
    #: Resolved mismatch covariance (explicit matrix or lowered
    #: variation spec), or ``None``.
    covariance: "np.ndarray | None" = None


def resolve_covariance(options: dict, circuit) -> "np.ndarray | None":
    """The effective mismatch covariance of *options*: an explicit
    ``param_covariance`` wins; otherwise a ``variations`` payload is
    decoded and lowered onto *circuit*'s declaration order."""
    cov = options.get("param_covariance")
    if cov is not None:
        return np.asarray(cov, dtype=float)
    payload = options.get("variations")
    if payload is not None and circuit is not None:
        return variation_spec(payload).covariance(circuit)
    return None


def build_context(request) -> EngineContext:
    engine = engine_for(request.kind)
    circuit = (circuit_from_dict(request.circuit)
               if request.circuit else None)
    options = dict(request.options)
    ctx = EngineContext(request=request, circuit=circuit,
                        options=options)
    if engine.payload == "measures":
        ctx.measures = [from_jsonable(m) for m in request.measures]
    elif engine.payload == "outputs":
        ctx.outputs = output_map(request.outputs)
    ctx.covariance = resolve_covariance(options, circuit)
    return ctx


def execute(session, request, key: str):
    """Run *request* on *session* and wrap the engine's answer into an
    :class:`~repro.service.requests.AnalysisResult` (the body of
    :meth:`AnalysisSession.run <repro.service.session.AnalysisSession.
    run>` after the memo check)."""
    from .requests import AnalysisResult
    engine = engine_for(request.kind)
    t_begin = time.perf_counter()
    ctx = build_context(request)
    detail = engine.run(session, ctx)
    summary = engine.summarize(detail, ctx)
    return AnalysisResult(
        kind=request.kind, request_key=key, summary=summary,
        runtime_seconds=time.perf_counter() - t_begin,
        failures=list(getattr(detail, "failures", []) or []),
        detail=detail)


# ---------------------------------------------------------------------------
# session flows (the engines' own compile/PSS orchestration; every
# repro.core / repro.analysis import of the session layer lives here)
# ---------------------------------------------------------------------------
def compile_cached(session, circuit, cmin: float | None = None,
                   backend=None):
    """Compile *circuit* through *session*'s compile store.

    An already-compiled circuit passes straight through (with the same
    copy-on-backend-override semantics as the functional API).  Backend
    *instances* bypass the cache - they are mutable solver state, not a
    describable configuration.
    """
    from ..analysis.mna import compile_circuit
    from ..circuit.netlist import Circuit, content_digest
    from ..constants import CMIN_DEFAULT
    from ..core.analysis import _as_compiled
    if not isinstance(circuit, Circuit):
        return _as_compiled(circuit, backend=backend)
    backend = backend if backend is not None else session.backend
    cmin_eff = CMIN_DEFAULT if cmin is None else cmin
    if backend is not None and not isinstance(backend, str):
        return compile_circuit(circuit, cmin=cmin_eff, backend=backend)
    key = content_digest("session-compile-v1", circuit.fingerprint(),
                         float(cmin_eff), backend)
    hit = session.compiled.get(key)
    if hit is not None:
        return hit
    compiled = compile_circuit(circuit, cmin=cmin_eff, backend=backend)
    session.compiled.put(key, compiled)
    return compiled


def pss_cached(session, compiled, period: float | None = None,
               state=None, options=None,
               oscillator_anchor: str | None = None,
               t_settle: float | None = None,
               dt_settle: float | None = None):
    """Periodic steady state through *session*'s orbit store.

    Only nominal orbits (``state is None``) are cached: a custom
    ``ParamState`` is mutable engine state without a content identity,
    so those calls always execute.
    """
    from ..circuit.netlist import content_digest
    from ..core.analysis import _solve_pss

    def run():
        return _solve_pss(compiled, period=period,
                          oscillator_anchor=oscillator_anchor,
                          t_settle=t_settle, dt_settle=dt_settle,
                          state=state, options=options)

    if state is not None:
        return run()
    # The backend tag is part of the key: the orbit is backend-
    # independent but its cached linearization's factorizations are
    # not, and cache_key deliberately excludes the backend.
    key = content_digest(
        "session-pss-v1", compiled.cache_key,
        type(compiled.backend).__name__, period, oscillator_anchor,
        t_settle, dt_settle, options)
    hit = session.pss_store.get(key)
    if hit is not None:
        return hit
    result = run()
    session.pss_store.put(key, result)
    return result


def transient_mismatch_flow(session, circuit, measures,
                            period: float | None = None,
                            oscillator_anchor: str | None = None,
                            t_settle: float | None = None,
                            dt_settle: float | None = None,
                            state=None, pss_options=None,
                            injections=None, param_covariance=None,
                            precomputed_pss=None, backend=None,
                            cmin: float | None = None):
    """The paper's sensitivity analysis through the session caches
    (body of :meth:`AnalysisSession.transient_mismatch`): the compile
    and the orbit come from the session stores, and
    ``runtime_breakdown["pss"]`` is the cost of obtaining the orbit -
    a lookup on a hit."""
    from ..core.analysis import _analyze_on_orbit
    compiled = compile_cached(session, circuit, cmin=cmin,
                              backend=backend)

    def orbit():
        if precomputed_pss is not None:
            return precomputed_pss
        return pss_cached(session, compiled, period=period, state=state,
                          options=pss_options,
                          oscillator_anchor=oscillator_anchor,
                          t_settle=t_settle, dt_settle=dt_settle)

    return _analyze_on_orbit(compiled, measures, orbit,
                             injections=injections,
                             param_covariance=param_covariance)


def dc_mismatch_flow(session, circuit, outputs: dict, state=None,
                     param_covariance=None, backend=None,
                     cmin: float | None = None):
    """DC mismatch analysis through the session compile cache."""
    from ..core.analysis import run_dc_mismatch
    compiled = compile_cached(session, circuit, cmin=cmin,
                              backend=backend)
    return run_dc_mismatch(compiled, outputs, state=state,
                           param_covariance=param_covariance)


def mc_transient_flow(session, circuit, measures, **kwargs):
    """Transient Monte-Carlo with the compile shared through the
    session cache (sampling/merge semantics unchanged)."""
    from ..core.montecarlo import monte_carlo_transient
    compiled = compile_cached(session, circuit,
                              cmin=kwargs.pop("cmin", None),
                              backend=kwargs.pop("backend", None))
    return monte_carlo_transient(compiled, measures, **kwargs)


def mc_dc_flow(session, circuit, outputs: dict, n: int, **kwargs):
    """DC Monte-Carlo with the compile shared through the session
    cache."""
    from ..core.montecarlo import monte_carlo_dc
    compiled = compile_cached(session, circuit,
                              cmin=kwargs.pop("cmin", None),
                              backend=kwargs.pop("backend", None))
    return monte_carlo_dc(compiled, outputs, n, **kwargs)


# ---------------------------------------------------------------------------
# shared canonicalization pieces
# ---------------------------------------------------------------------------
def _mismatch_payloads(param_covariance, variations) -> dict:
    """The two mutually exclusive mismatch-description options."""
    from ..core.analysis import check_uniform_keywords
    check_uniform_keywords(param_covariance=param_covariance,
                           variations=variations)
    return {"param_covariance": covariance_payload(param_covariance),
            "variations": variation_payload(variations)}


def _uniform_keywords(retry, n_workers) -> None:
    """Validate the uniform keyword surface on single-solve kinds.

    Every request constructor accepts ``retry=`` / ``n_workers=`` so
    call sites can switch kinds without reshaping their keyword set.
    On kinds that are one deterministic solve there is nothing to fan
    out or retry, so the values are validated and dropped from the
    canonical options (the request key stays independent of them).
    The shape rules are the free functions' own
    (:func:`~repro.core.analysis.check_uniform_keywords`).
    """
    from ..core.analysis import check_uniform_keywords
    check_uniform_keywords(retry, n_workers)


def _retry_policy(options: dict):
    """Decode a request's ``retry`` option (a plain dict) back into a
    live :class:`~repro.service.jobs.RetryPolicy`."""
    spec = options.get("retry")
    if spec is None:
        return None
    from .jobs import RetryPolicy
    return RetryPolicy.from_dict(spec)


def _mc_summary(detail, ctx) -> dict:
    return {
        "metrics": {name: {"mean": float(st.mean),
                           "sigma": float(st.std),
                           "std_ci_low": float(st.std_ci_low),
                           "std_ci_high": float(st.std_ci_high)}
                    for name, st in detail.stats.items()},
        "n": detail.n,
        "n_failed": detail.n_failed,
    }


# ---------------------------------------------------------------------------
# transient_mismatch
# ---------------------------------------------------------------------------
def _canon_transient_mismatch(period=None, oscillator_anchor=None,
                              t_settle=None, dt_settle=None,
                              pss_options=None, param_covariance=None,
                              variations=None, cmin=None, backend=None,
                              retry=None, n_workers=None):
    _uniform_keywords(retry, n_workers)
    return clean_options({
        "period": period, "oscillator_anchor": oscillator_anchor,
        "t_settle": t_settle, "dt_settle": dt_settle,
        "pss_options": to_jsonable(pss_options),
        "cmin": cmin, "backend": backend,
        **_mismatch_payloads(param_covariance, variations),
    })


def _run_transient_mismatch(session, ctx):
    o = ctx.options
    return transient_mismatch_flow(
        session, ctx.circuit, ctx.measures, period=o.get("period"),
        oscillator_anchor=o.get("oscillator_anchor"),
        t_settle=o.get("t_settle"), dt_settle=o.get("dt_settle"),
        pss_options=from_jsonable(o.get("pss_options")),
        param_covariance=ctx.covariance, backend=o.get("backend"),
        cmin=o.get("cmin"))


def _summary_transient_mismatch(detail, ctx) -> dict:
    return {
        "metrics": {m.name: {"nominal": detail.nominal[m.name],
                             "sigma": detail.sigma(m.name)}
                    for m in ctx.measures},
        "n_params": len(detail.keys),
        "f0": detail.pss.f0,
        "runtime_breakdown": dict(detail.runtime_breakdown),
    }


# ---------------------------------------------------------------------------
# dc_mismatch
# ---------------------------------------------------------------------------
def _canon_dc_mismatch(param_covariance=None, variations=None,
                       cmin=None, backend=None,
                       retry=None, n_workers=None):
    _uniform_keywords(retry, n_workers)
    return clean_options({
        "cmin": cmin, "backend": backend,
        **_mismatch_payloads(param_covariance, variations),
    })


def _run_dc_mismatch(session, ctx):
    o = ctx.options
    return dc_mismatch_flow(session, ctx.circuit, ctx.outputs,
                            param_covariance=ctx.covariance,
                            backend=o.get("backend"), cmin=o.get("cmin"))


def _summary_dc_mismatch(detail, ctx) -> dict:
    return {
        "metrics": {name: {"nominal": detail.nominal[name],
                           "sigma": detail.sigma(name)}
                    for name in ctx.outputs},
        "n_params": len(detail.keys),
    }


# ---------------------------------------------------------------------------
# mc_transient
# ---------------------------------------------------------------------------
def _canon_mc_transient(n=None, t_stop=None, dt=None, window=None,
                        seed=0, sigma_scale=1.0, param_covariance=None,
                        variations=None, chunk_size=250, method="trap",
                        extra_record=None, adaptive=False, rtol=1e-3,
                        atol=1e-6, dt_min=None, dt_max=None,
                        n_workers=None, cmin=None, backend=None,
                        retry=None):
    return clean_options({
        "n": int(n), "t_stop": float(t_stop), "dt": float(dt),
        "window": list(window) if window is not None else None,
        "seed": int(seed), "sigma_scale": float(sigma_scale),
        "chunk_size": int(chunk_size), "method": method,
        "extra_record": list(extra_record) if extra_record else None,
        "adaptive": adaptive or None, "rtol": rtol, "atol": atol,
        "dt_min": dt_min, "dt_max": dt_max, "n_workers": n_workers,
        "cmin": cmin, "backend": backend, "retry": retry_payload(retry),
        **_mismatch_payloads(param_covariance, variations),
    })


def _run_mc_transient(session, ctx):
    o = ctx.options
    window = o.get("window")
    return mc_transient_flow(
        session, ctx.circuit, ctx.measures, n=o["n"],
        t_stop=o["t_stop"], dt=o["dt"],
        window=tuple(window) if window is not None else None,
        seed=o.get("seed", 0), sigma_scale=o.get("sigma_scale", 1.0),
        param_covariance=ctx.covariance,
        chunk_size=o.get("chunk_size", 250),
        method=o.get("method", "trap"),
        extra_record=o.get("extra_record"), backend=o.get("backend"),
        n_workers=o.get("n_workers"), adaptive=o.get("adaptive", False),
        rtol=o.get("rtol", 1e-3), atol=o.get("atol", 1e-6),
        dt_min=o.get("dt_min"), dt_max=o.get("dt_max"),
        cmin=o.get("cmin"), retry=_retry_policy(o))


# ---------------------------------------------------------------------------
# mc_dc
# ---------------------------------------------------------------------------
def _canon_mc_dc(n=None, seed=0, sigma_scale=1.0, param_covariance=None,
                 variations=None, chunk_size=None, n_workers=None,
                 cmin=None, backend=None, retry=None):
    return clean_options({
        "n": int(n), "seed": int(seed),
        "sigma_scale": float(sigma_scale),
        "chunk_size": chunk_size, "n_workers": n_workers,
        "cmin": cmin, "backend": backend, "retry": retry_payload(retry),
        **_mismatch_payloads(param_covariance, variations),
    })


def _run_mc_dc(session, ctx):
    o = ctx.options
    return mc_dc_flow(
        session, ctx.circuit, ctx.outputs, n=o["n"],
        seed=o.get("seed", 0), sigma_scale=o.get("sigma_scale", 1.0),
        param_covariance=ctx.covariance,
        chunk_size=o.get("chunk_size"), n_workers=o.get("n_workers"),
        backend=o.get("backend"), cmin=o.get("cmin"),
        retry=_retry_policy(o))


# ---------------------------------------------------------------------------
# pss
# ---------------------------------------------------------------------------
def _canon_pss(period=None, oscillator_anchor=None, t_settle=None,
               dt_settle=None, pss_options=None, cmin=None,
               backend=None, retry=None, n_workers=None):
    from ..core.analysis import check_drive_spec
    _uniform_keywords(retry, n_workers)
    check_drive_spec(period, oscillator_anchor, t_settle, dt_settle)
    return clean_options({
        "period": period, "oscillator_anchor": oscillator_anchor,
        "t_settle": t_settle, "dt_settle": dt_settle,
        "pss_options": to_jsonable(pss_options),
        "cmin": cmin, "backend": backend,
    })


def _run_pss(session, ctx):
    o = ctx.options
    compiled = compile_cached(session, ctx.circuit, cmin=o.get("cmin"),
                              backend=o.get("backend"))
    return pss_cached(session, compiled, period=o.get("period"),
                      options=from_jsonable(o.get("pss_options")),
                      oscillator_anchor=o.get("oscillator_anchor"),
                      t_settle=o.get("t_settle"),
                      dt_settle=o.get("dt_settle"))


def _summary_pss(detail, ctx) -> dict:
    return {
        "metrics": {m.name: {"nominal": float(m.measure_pss(detail))}
                    for m in ctx.measures},
        "f0": detail.f0,
        "n_steps": detail.n_steps,
        "period": detail.period,
        "method": detail.method,
        "engine": detail.engine,
        "residual": float(detail.residual),
    }


# ---------------------------------------------------------------------------
# ac
# ---------------------------------------------------------------------------
def _canon_ac(source=None, freqs=None, amplitude=1.0, cmin=None,
              backend=None, retry=None, n_workers=None):
    _uniform_keywords(retry, n_workers)
    if source is None:
        raise AnalysisError("ac requests need source= (stimulus name)")
    if freqs is None:
        raise AnalysisError("ac requests need freqs= (frequency grid)")
    return clean_options({
        "source": str(source),
        "freqs": [float(f) for f in np.atleast_1d(freqs)],
        "amplitude": float(amplitude),
        "cmin": cmin, "backend": backend,
    })


def _run_ac(session, ctx):
    from ..analysis.ac import ac_analysis
    o = ctx.options
    compiled = compile_cached(session, ctx.circuit, cmin=o.get("cmin"),
                              backend=o.get("backend"))
    return ac_analysis(compiled, o["source"],
                       np.asarray(o["freqs"], dtype=float),
                       amplitude=o.get("amplitude", 1.0))


def _summary_ac(detail, ctx) -> dict:
    metrics = {}
    for name, pos, neg in ctx.request.outputs:
        h = detail.transfer(pos, neg)
        metrics[name] = {
            "magnitude": [float(v) for v in np.abs(h)],
            "phase_deg": [float(v) for v in
                          np.degrees(np.unwrap(np.angle(h)))],
        }
    return {"freqs": [float(f) for f in detail.freqs],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------
def _canon_sweep(requests=None, labels=None):
    if not requests:
        raise AnalysisError("sweep requests need requests= (sub-request"
                            " dicts)")
    # Normalize through JSON so the canonical options are identical
    # whether the sub-requests arrive live or deserialized (tuples in
    # a live to_dict() would otherwise differ from round-tripped lists).
    subs = []
    for r in requests:
        d = r if isinstance(r, dict) else r.to_dict()
        subs.append(json.loads(json.dumps(d)))
    if labels is not None and len(labels) != len(subs):
        raise AnalysisError(
            f"sweep got {len(labels)} labels for {len(subs)} requests")
    return clean_options({
        "requests": subs,
        "labels": [str(lab) for lab in labels] if labels else None,
    })


def _run_sweep(session, ctx):
    from .requests import AnalysisRequest
    return [session.run(AnalysisRequest.from_dict(d))
            for d in ctx.options["requests"]]


def _summary_sweep(details, ctx) -> dict:
    labels = ctx.options.get("labels") or [None] * len(details)
    cases = []
    for label, res in zip(labels, details):
        cases.append({"label": label, "kind": res.kind,
                      "request_key": res.request_key,
                      "from_cache": res.from_cache,
                      "summary": res.summary})
    return {"n_cases": len(cases), "cases": cases}


# ---------------------------------------------------------------------------
# registration
# ---------------------------------------------------------------------------
register_engine(AnalysisEngine(
    kind="transient_mismatch",
    canonicalize=_canon_transient_mismatch,
    run=_run_transient_mismatch,
    summarize=_summary_transient_mismatch,
    payload="measures",
    description="the paper's linearized transient mismatch analysis"))

register_engine(AnalysisEngine(
    kind="dc_mismatch",
    canonicalize=_canon_dc_mismatch,
    run=_run_dc_mismatch,
    summarize=_summary_dc_mismatch,
    payload="outputs",
    description="DC mismatch (dcmatch) adjoint analysis"))

register_engine(AnalysisEngine(
    kind="mc_transient",
    canonicalize=_canon_mc_transient,
    run=_run_mc_transient,
    summarize=_mc_summary,
    payload="measures",
    fan_out=True,
    description="transient Monte-Carlo over batched lanes"))

register_engine(AnalysisEngine(
    kind="mc_dc",
    canonicalize=_canon_mc_dc,
    run=_run_mc_dc,
    summarize=_mc_summary,
    payload="outputs",
    fan_out=True,
    description="DC Monte-Carlo (dcmatch baseline)"))

register_engine(AnalysisEngine(
    kind="pss",
    canonicalize=_canon_pss,
    run=_run_pss,
    summarize=_summary_pss,
    payload="measures",
    description="periodic steady state as a cacheable request"))

register_engine(AnalysisEngine(
    kind="ac",
    canonicalize=_canon_ac,
    run=_run_ac,
    summarize=_summary_ac,
    payload="outputs",
    description="small-signal AC sweep as a cacheable request"))

register_engine(AnalysisEngine(
    kind="sweep",
    canonicalize=_canon_sweep,
    run=_run_sweep,
    summarize=_summary_sweep,
    composite=True,
    description="a batch of sub-requests run (and memoized) as one"))
