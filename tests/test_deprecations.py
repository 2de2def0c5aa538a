"""The API 2.2 deprecations.

Each surface that API 3.0 removes warns with a
:class:`~repro.errors.ReproDeprecationWarning` that names its
replacement and says 3.0, and still returns what it returned before
the warning was added.  ``default_session()`` does not warn yet, and
nothing warns at its defaults.
"""

import re
import warnings

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit
from repro.errors import ReproDeprecationWarning
from repro.service import (AnalysisServer, AnalysisSession, RetryPolicy,
                           default_session, mc_dc_shards, run_shard)
from repro.service.resilience import ScatterPolicy, WorkerPool


def _divider():
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", dc=1.2)
    ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.02)
    ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
    return ckt


def _scatter_policy(request):
    def check(policy):
        assert isinstance(policy, RetryPolicy)
        # every field the class had before API 2.2, at the same values
        assert {name: getattr(policy, name) for name in (
            "max_attempts", "base_delay", "backoff", "degrade",
            "failure_threshold", "cooldown", "hedge", "hedge_percentile",
            "hedge_min_samples", "hedge_floor")} == {
            "max_attempts": 3, "base_delay": 0.05, "backoff": 2.0,
            "degrade": True, "failure_threshold": 1, "cooldown": 1.0,
            "hedge": True, "hedge_percentile": 95.0,
            "hedge_min_samples": 3, "hedge_floor": 0.05}
    return (lambda: ScatterPolicy(hedge=True, failure_threshold=1),
            check)


def _session_state(request):
    session = AnalysisSession()
    compiled = compile_circuit(_divider())
    deltas = {("R1", "r"): 10.0}

    def call():
        return session.state(compiled, deltas=deltas), \
            session.state(compiled, deltas=deltas)

    def check(states):
        first, again = states
        assert again is first  # the second call is a store hit
        assert np.array_equal(first.g_data,
                              compiled.make_state(deltas=deltas).g_data)
        assert session.stats()["states"]["size"] == 1
        assert session.stats()["states"]["hits"] == 1
    return call, check


def _pool_run_shard(request):
    spec = mc_dc_shards(_divider(), {"vout": "out"}, 6, 6, seed=3)[0]
    server = AnalysisServer(job_workers=1).start()
    request.addfinalizer(server.close)
    pool = WorkerPool([server.url])
    request.addfinalizer(pool.close)

    def check(result):
        assert np.array_equal(result.samples["vout"],
                              run_shard(spec).samples["vout"])
    return (lambda: pool.run_shard(spec)), check


def _pss_option(name, value):
    def build(request):
        def check(options):
            assert getattr(options, name) == value
        return (lambda: PssOptions(**{name: value})), check
    return build


#: surface -> (``build(request) -> (call, check)``, the successor its
#: warning names).
SURFACES = {
    "ScatterPolicy": (_scatter_policy, "RetryPolicy"),
    "AnalysisSession.state": (_session_state, "make_state"),
    "WorkerPool.run_shard": (_pool_run_shard, r"scatter\(\[spec\]\)"),
    "PssOptions.settle_adaptive": (_pss_option("settle_adaptive", True),
                                   "settle_periods"),
    "PssOptions.settle_rtol": (_pss_option("settle_rtol", 1e-4),
                               "settle_periods"),
    "PssOptions.settle_atol": (_pss_option("settle_atol", 1e-7),
                               "settle_periods"),
}


@pytest.mark.parametrize("surface", list(SURFACES))
def test_surface_warns_and_keeps_its_value(surface, request):
    build, successor = SURFACES[surface]
    call, check = build(request)
    with pytest.warns(ReproDeprecationWarning) as record:
        value = call()
    for warning in record:
        message = str(warning.message)
        assert message.startswith(surface)
        assert "API 3.0" in message
        assert re.search(successor, message)
        assert warning.filename == __file__  # attributed to the caller
    check(value)


def test_defaults_and_default_session_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ReproDeprecationWarning)
        RetryPolicy(hedge=True)
        PssOptions(settle_periods=3)
        AnalysisSession()
        default_session()
