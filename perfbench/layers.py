"""Layer boundaries of the program and the per-layer metrics over them.

:func:`install` wraps, from the outside, the public callables at each
layer boundary of ``repro`` (nothing under ``src/`` changes) so that a
:class:`~tracer.Tracer` records one span per call.  :func:`layer_metrics`
turns the recorded spans and counters into the per-layer metrics named
in ``BENCHMARK.json``.  Span names double as layer names.  The
pipeline stages (compile, DC, settle, shooting, linearisation, LPTV,
measures, Monte-Carlo sampling / pool wait / merge, session, client) are
timed by *self* time - a stage's spans minus the child stages they
contain - so the stage times of one operation add up to its wall time.
The numerical kernels every stage calls (``KERNELS``: assembly,
factorization, solve) are reported beside them with call counts.
"""

from __future__ import annotations

import importlib
import sys
import threading

#: Spans timed as kernels beside the stages (see :func:`tracer.by_layer`).
KERNELS = frozenset({"mna.assemble", "linalg.factor", "linalg.solve"})

#: Per-layer metrics reported by every traced run, in ``BENCHMARK.json``
#: order: ``(metric, unit, source)`` where *source* is ``("self", span)``,
#: ``("calls", span)``, ``("counter", name)`` or ``("ratio", store)``.
LAYER_METRICS = [
    ("mna.compile_s", "s", ("self", "mna.compile")),
    ("mna.assemble_calls", "count", ("calls", "mna.assemble")),
    ("mna.assemble_s", "s", ("self", "mna.assemble")),
    ("linalg.factor_calls", "count", ("calls", "linalg.factor")),
    ("linalg.factor_s", "s", ("self", "linalg.factor")),
    ("linalg.solve_calls", "count", ("calls", "linalg.solve")),
    ("linalg.solve_s", "s", ("self", "linalg.solve")),
    ("dcop.s", "s", ("self", "dcop")),
    ("transient.settle_s", "s", ("self", "transient.settle")),
    ("transient.settle_steps", "count",
     ("counter", "transient.settle_steps")),
    ("pss.s", "s", ("self", "pss")),
    ("pss.shooting_iters", "count", ("calls", "pss.shooting")),
    ("pss.shooting_s", "s", ("self", "pss.shooting")),
    ("lptv.linearize_s", "s", ("self", "lptv.linearize")),
    ("lptv.solve_s", "s", ("self", "lptv.solve")),
    ("measures.s", "s", ("self", "measures")),
    ("mc.sample_s", "s", ("self", "mc.sample")),
    ("mc.pool_wait_s", "s", ("self", "mc.pool_wait")),
    ("mc.merge_s", "s", ("self", "mc.merge")),
    ("mc.lanes_failed", "count", ("counter", "mc.lanes_failed")),
    ("session.result_hit_ratio", "ratio", ("ratio", "results")),
    ("session.pss_hit_ratio", "ratio", ("ratio", "pss")),
    ("session.compiled_hit_ratio", "ratio", ("ratio", "compiled")),
    ("engine.miss_s", "s", ("counter", "engine.miss_s")),
]

#: A per-layer metric is in ``BENCHMARK.json`` when every listed
#: workload calls its layer, so that it reads a measurement on every run.
#: The HTTP client is not called by the Table II workloads (no HTTP
#: there), so its layers are only printed by the traced runs that call
#: them.  The session stores pass the rule: the cold Table II operations
#: look them up and miss, so their hit ratios read 0 there.
PRINTED_METRICS = [
    ("client.encode_s", "s", ("self", "client.encode")),
    ("client.roundtrip_s", "s", ("self", "client.roundtrip")),
    ("client.decode_s", "s", ("self", "client.decode")),
]


def _module(name: str):
    """The module object named *name*.  ``repro.analysis`` re-exports a
    function called ``pss`` over its submodule of the same name, so
    attribute access would return the function; ``sys.modules`` holds
    the module."""
    importlib.import_module(name)
    return sys.modules[name]


def _own(cls, attr: str) -> bool:
    """Whether *cls* itself defines a concrete *attr*."""
    fn = cls.__dict__.get(attr)
    fn = getattr(fn, "__func__", fn)
    return callable(fn) and not getattr(fn, "__isabstractmethod__", False)


def _subclasses(module, base) -> list[type]:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)]


def _settle_or_shooting(tracer) -> str:
    """The PSS module integrates with ``transient`` twice over: the
    pre-shooting settle, and (matrix-free engine) each shooting
    period.  The open spans tell them apart."""
    return ("pss.shooting" if "pss.shooting" in tracer.open_names()
            else "transient.settle")


def _count_settle_steps(tracer, args, kwargs, result) -> None:
    if "pss.shooting" not in tracer.open_names():
        tracer.count("transient.settle_steps", result.n_accepted)


def _count_failed_lanes(tracer, args, kwargs, result) -> None:
    tracer.count("mc.lanes_failed", result.n_failed)


def _count_engine_miss(tracer, args, kwargs, result) -> None:
    if not result.from_cache:
        tracer.count("engine.miss_s", result.runtime_seconds)


def install(tracer) -> None:
    """Wrap every engine-side layer boundary into *tracer*."""
    mna = _module("repro.analysis.mna")
    backends = _module("repro.linalg.backends")
    dcop = _module("repro.analysis.dcop")
    pss = _module("repro.analysis.pss")
    lptv = _module("repro.analysis.lptv")
    measures = _module("repro.core.measures")
    montecarlo = _module("repro.core.montecarlo")
    shards = _module("repro.service.shards")
    session = _module("repro.service.session")

    tracer.wrap_function(mna.compile_circuit, "mna.compile")
    tracer.wrap_attr(mna.CompiledCircuit, "assemble", "mna.assemble")
    for cls in _subclasses(backends, backends.LinearSolverBackend):
        for attr in ("factor", "factor_csc"):
            if _own(cls, attr):
                tracer.wrap_attr(cls, attr, "linalg.factor")
        if _own(cls, "solve"):          # one-shot factor-and-solve
            tracer.wrap_attr(cls, "solve", "linalg.solve")
    for cls in _subclasses(backends, backends.Factorization):
        if _own(cls, "solve"):
            tracer.wrap_attr(cls, "solve", "linalg.solve")
    tracer.wrap_function(dcop.dc_operating_point, "dcop")

    tracer.wrap_attr(pss, "transient", lambda: _settle_or_shooting(tracer),
                     on_call=_count_settle_steps)
    tracer.wrap_function(pss.pss, "pss")
    tracer.wrap_function(pss.pss_oscillator, "pss")
    for attr in ("integrate_period", "_integrate_period_csr"):
        tracer.wrap_attr(pss, attr, "pss.shooting")
    tracer.wrap_attr(pss.PssResult, "linearization", "lptv.linearize")
    tracer.wrap_attr(lptv.PeriodicLinearization, "solve", "lptv.solve")
    for cls in _subclasses(measures, measures.Measure):
        for attr in ("measure_pss", "sensitivities"):
            if _own(cls, attr):
                tracer.wrap_attr(cls, attr, "measures")

    tracer.wrap_function(montecarlo.sample_mismatch, "mc.sample")
    tracer.wrap_function(montecarlo.monte_carlo_transient, "mc.run",
                         on_call=_count_failed_lanes)
    # pool wait: from the end of shard planning to the start of the
    # merge.  A Monte-Carlo run plans and merges on one thread, so the
    # thread's latest plan end belongs to the merge that follows it.
    plans = threading.local()

    def plan_done(tracer_, args, kwargs, result):
        plans.end = tracer_.clock()

    def wait_done(tracer_):
        end = getattr(plans, "end", None)
        if end is not None:
            tracer_.add_span("mc.pool_wait", end, tracer_.clock())
            plans.end = None

    tracer.wrap_function(shards.mc_transient_shards, "mc.plan",
                         on_call=plan_done)
    tracer.wrap_function(shards.merge_shard_results, "mc.merge",
                         before=wait_done)
    tracer.wrap_attr(session.AnalysisSession, "run", "session.run",
                     on_call=_count_engine_miss)


def install_client(tracer) -> None:
    """Wrap the HTTP client's three steps: request encode, the round
    trip (whose self time is network plus daemon), and result decode."""
    client = _module("repro.service.client")
    requests = _module("repro.service.requests")
    shards = _module("repro.service.shards")
    tracer.wrap_attr(requests.AnalysisRequest, "to_dict", "client.encode")
    tracer.wrap_attr(shards.ShardSpec, "to_dict", "client.encode")
    tracer.wrap_attr(client.RemoteSession, "run", "client.roundtrip")
    tracer.wrap_attr(client.RemoteSession, "run_shard", "client.roundtrip")
    tracer.wrap_attr(requests.AnalysisResult, "from_dict", "client.decode")
    tracer.wrap_attr(shards.ShardResult, "from_dict", "client.decode")


def install_server(tracer) -> None:
    """Wrap the daemon's request handling, request decode and result
    serialization."""
    net = _module("repro.service.net")
    requests = _module("repro.service.requests")
    shards = _module("repro.service.shards")
    tracer.wrap_attr(net.ServiceApp, "run", "service.handle")
    tracer.wrap_attr(net.ServiceApp, "run_shard", "service.handle")
    tracer.wrap_attr(requests.AnalysisRequest, "from_dict", "service.decode")
    tracer.wrap_attr(shards.ShardSpec, "from_dict", "service.decode")
    tracer.wrap_attr(requests.AnalysisResult, "to_dict", "service.serialize")
    tracer.wrap_attr(shards.ShardResult, "to_dict", "service.serialize")


def session_deltas(before: dict, after: dict) -> dict:
    """``[hits, misses]`` of each session store between two ``stats()``
    snapshots."""
    return {store: [after[store]["hits"] - before[store]["hits"],
                    after[store]["misses"] - before[store]["misses"]]
            for store in ("results", "pss", "compiled")}


def merge(traces: list[dict]) -> dict:
    """Sum the span rows, counters and session deltas of several traced
    processes (e.g. one round per operation)."""
    rows: dict = {}
    counters: dict = {}
    session: dict = {}
    for trace in traces:
        for name, row in trace["rows"].items():
            acc = rows.setdefault(name, {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            for key in acc:
                acc[key] += row[key]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
        for store, (hits, misses) in trace["session"].items():
            acc = session.setdefault(store, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return {"rows": rows, "counters": counters, "session": session}


def layer_metrics(trace: dict, metrics=LAYER_METRICS) -> dict[str, float]:
    """Per-layer metric values of a (merged) trace record; a hit ratio
    is hits over lookups (0 when the store saw no lookups)."""
    out = {}
    for name, _, (kind, key) in metrics:
        row = trace["rows"].get(key, {"calls": 0, "self_s": 0.0})
        if kind == "self":
            out[name] = row["self_s"]
        elif kind == "calls":
            out[name] = float(row["calls"])
        elif kind == "counter":
            out[name] = float(trace["counters"].get(key, 0.0))
        else:
            hits, misses = trace["session"].get(key, (0, 0))
            out[name] = hits / (hits + misses) if hits + misses else 0.0
    return out
