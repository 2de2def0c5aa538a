"""The application layer: AnalysisSession caches, requests, job queue.

Session tests run on a cheap sine-driven RC so the suite stays fast;
the comparator-scale cache win is measured by
``benchmarks/bench_service_cache.py``.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import compile_circuit, pss
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core import (DcLevel, dc_mismatch_analysis,
                        transient_mismatch_analysis)
from repro.core.analysis import run_dc_mismatch, run_transient_mismatch
from repro.errors import AnalysisError
from repro.service import (AnalysisRequest, AnalysisResult,
                           AnalysisSession, JobQueue)

PSS_OPTS = PssOptions(n_steps=64, settle_periods=2)
SRC = Path(__file__).resolve().parent.parent / "src"


def _rc(r=1e3):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", r, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _divider(r1=1e3):
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", dc=1.2)
    ckt.add_resistor("R1", "in", "out", r1, sigma_rel=0.02)
    ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
    return ckt


MEAS = [DcLevel("vout", "out")]


class TestSessionCaches:
    def test_compile_and_pss_cache_hits(self):
        s = AnalysisSession()
        r1 = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                  pss_options=PSS_OPTS)
        # fresh but content-equal circuit object: everything hits
        r2 = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                  pss_options=PSS_OPTS)
        st = s.stats()
        assert st["compiled"]["hits"] == 1
        assert st["pss"]["hits"] == 1
        assert r1.sigma("vout") == r2.sigma("vout")
        assert r2.pss is r1.pss

    def test_changed_value_misses(self):
        s = AnalysisSession()
        s.transient_mismatch(_rc(), MEAS, period=1e-6,
                             pss_options=PSS_OPTS)
        s.transient_mismatch(_rc(r=2e3), MEAS, period=1e-6,
                             pss_options=PSS_OPTS)
        st = s.stats()
        assert st["compiled"]["hits"] == 0
        assert st["pss"]["hits"] == 0

    def test_custom_state_bypasses_pss_cache(self):
        s = AnalysisSession()
        compiled = s.compile(_rc())
        state = compiled.make_state(deltas={("R", "r"): 10.0})
        s.transient_mismatch(compiled, MEAS, period=1e-6, state=state,
                             pss_options=PSS_OPTS)
        assert s.stats()["pss"]["size"] == 0

    def test_cold_parity_with_engine(self):
        """The session path is bit-identical to the direct engine path."""
        wrapped = AnalysisSession().transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        compiled = compile_circuit(_rc())
        direct = run_transient_mismatch(
            compiled, MEAS, pss(compiled, 1e-6, options=PSS_OPTS))
        assert wrapped.sigma("vout") == direct.sigma("vout")
        assert wrapped.nominal["vout"] == direct.nominal["vout"]

    def test_dc_parity(self):
        wrapped = dc_mismatch_analysis(_divider(), {"vout": "out"})
        direct = run_dc_mismatch(compile_circuit(_divider()),
                                 {"vout": "out"})
        assert wrapped.sigma("vout") == direct.sigma("vout")

    def test_runtime_breakdown_patched(self):
        s = AnalysisSession()
        res = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                   pss_options=PSS_OPTS)
        bd = res.runtime_breakdown
        assert set(bd) == {"pss", "lptv", "measures"}
        assert bd["pss"] > 0.0
        assert res.runtime_seconds >= bd["pss"]


class TestColdFreeFunctions:
    """The free functions keep no memo: every call solves and returns a
    result that belongs to its caller alone."""

    def test_identical_calls_return_distinct_results(self):
        r1 = dc_mismatch_analysis(_divider(), {"vout": "out"})
        r2 = dc_mismatch_analysis(_divider(), {"vout": "out"})
        assert r1 is not r2
        nominal, sigma = r2.nominal["vout"], r2.sigma("vout")
        r1.nominal["vout"] = -9.0
        r1.tables.clear()
        assert r2.nominal["vout"] == nominal
        assert r2.sigma("vout") == sigma

    def test_repeat_call_solves_and_reports_its_own_pss_time(self):
        r1 = transient_mismatch_analysis(_rc(), MEAS, period=1e-6,
                                         pss_options=PSS_OPTS)
        r2 = transient_mismatch_analysis(_rc(), MEAS, period=1e-6,
                                         pss_options=PSS_OPTS)
        assert r2 is not r1 and r2.pss is not r1.pss
        assert r2.runtime_breakdown is not r1.runtime_breakdown
        assert r2.runtime_breakdown["pss"] > 0.0
        r1.nominal["vout"] = -9.0
        assert r2.nominal["vout"] != -9.0
        assert r2.sigma("vout") == r1.sigma("vout")

    def test_no_default_session_is_created(self):
        script = textwrap.dedent("""
            import repro.api as api
            import repro.service.session as session
            ckt = api.Circuit("div")
            ckt.add_vsource("V1", "in", "0", dc=1.2)
            ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.02)
            ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
            rc = api.Circuit("rc")
            rc.add_vsource("VS", "in", "0", wave=api.Sine(
                amplitude=0.3, freq=1e6, offset=0.6))
            rc.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
            rc.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
            api.dc_mismatch_analysis(ckt, {"v": "out"})
            api.transient_mismatch_analysis(
                rc, [api.DcLevel("v", "out")], period=1e-6,
                pss_options=api.PssOptions(n_steps=64, settle_periods=2))
            mc = api.monte_carlo_dc(
                ckt, {"v": "out"}, 16, n_workers=2,
                retry=api.RetryPolicy(max_attempts=2))
            assert mc.stats["v"].n == 16
            print(session._DEFAULT_SESSION is None)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "True"


class TestDetachedResults:
    def test_mutating_a_result_never_reaches_the_memo(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        cold = s.run(req)
        sigma = cold.summary["metrics"]["vout"]["sigma"]
        cold.summary["metrics"]["vout"]["sigma"] = 123.0
        cold.failures.append("bogus")
        hit = s.run(req)
        assert hit.from_cache
        assert hit.summary["metrics"]["vout"]["sigma"] == sigma
        assert hit.failures == []
        hit.summary["metrics"]["vout"]["sigma"] = 456.0
        hit.summary["n_params"] = -1
        hit.failures.append("bogus")
        again = s.run(req)
        assert again.summary["metrics"]["vout"]["sigma"] == sigma
        assert again.summary["n_params"] == 2
        assert again.failures == []
        assert again.detail is cold.detail


class TestCacheHygiene:
    def test_eviction_bounds_and_cascades(self):
        s = AnalysisSession(compiled_capacity=2)
        first = s.compile(_rc(r=1e3))
        first.nominal  # populate the cache eviction must drop
        assert first._nominal_state is not None
        s.compile(_rc(r=2e3))
        s.compile(_rc(r=3e3))  # evicts the LRU entry (first)
        assert s.stats()["compiled"]["size"] == 2
        assert first._nominal_state is None

    def test_result_store_bounded(self):
        s = AnalysisSession(result_capacity=2)
        for r1 in (1e3, 2e3, 3e3):
            s.run(AnalysisRequest.dc_mismatch(_divider(r1),
                                              {"vout": "out"}))
        assert s.stats()["results"]["size"] == 2

    def test_clear_cascades(self):
        s = AnalysisSession()
        compiled = s.compile(_rc())
        compiled.nominal
        res = s.transient_mismatch(compiled, MEAS, period=1e-6,
                                   pss_options=PSS_OPTS)
        assert res.pss._lin is not None
        s.clear()
        assert all(v["size"] == 0 for v in s.stats().values())
        assert compiled._nominal_state is None
        assert res.pss._lin is None


class TestRequests:
    def test_run_memoizes(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        a = s.run(req)
        b = s.run(AnalysisRequest.dc_mismatch(_divider(),
                                              {"vout": "out"}))
        assert not a.from_cache and b.from_cache
        assert a.summary == b.summary
        assert a.request_key == b.request_key == req.key()

    def test_json_round_trip_key_equal(self):
        req = AnalysisRequest.transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        rt = AnalysisRequest.from_json(req.to_json())
        assert rt == req
        assert rt.key() == req.key()

    def test_result_round_trip(self):
        s = AnalysisSession()
        res = s.run(AnalysisRequest.dc_mismatch(_divider(),
                                                {"vout": "out"}))
        rt = AnalysisResult.from_json(res.to_json())
        assert rt.summary == res.summary
        assert rt.sigma("vout") == res.sigma("vout")
        assert rt.detail is None

    def test_mc_request_matches_free_function(self):
        from repro.core import monte_carlo_transient
        ref = monte_carlo_transient(_rc(), MEAS, n=6, t_stop=2e-6,
                                    dt=2e-8, window=(1e-6, 2e-6),
                                    seed=5, chunk_size=3)
        res = AnalysisSession().run(AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n=6, t_stop=2e-6, dt=2e-8, window=(1e-6, 2e-6),
            seed=5, chunk_size=3))
        assert res.sigma("vout") == ref.sigma("vout")
        assert res.mean("vout") == ref.mean("vout")
        assert np.array_equal(res.detail.samples["vout"],
                              ref.samples["vout"])

    def test_unknown_kind_rejected(self):
        with pytest.raises(AnalysisError, match="kind"):
            AnalysisRequest(kind="nope", circuit={})

    def test_unknown_metric_message(self):
        s = AnalysisSession()
        res = s.run(AnalysisRequest.dc_mismatch(_divider(),
                                                {"vout": "out"}))
        with pytest.raises(AnalysisError, match="available"):
            res.sigma("nope")


class TestJobQueue:
    def test_inline_queue_shares_session(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        with JobQueue(session=s) as q:
            a = q.submit(req).result()
            b = q.submit(req).result()
        assert not a.from_cache and b.from_cache
        assert a.detail is not None  # inline keeps the rich result

    def test_inline_error_propagates(self):
        bad = AnalysisRequest.dc_mismatch(
            Circuit("empty"), {"v": "x"})
        with JobQueue(session=AnalysisSession()) as q:
            job = q.submit(bad)
            with pytest.raises(Exception):
                job.result()

    def test_worker_pool_matches_inline(self):
        req = AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n=6, t_stop=2e-6, dt=2e-8,
            window=(1e-6, 2e-6), seed=5, chunk_size=3)
        inline = AnalysisSession().run(req)
        with JobQueue(n_workers=2) as q:
            remote = q.map([req])[0]
        assert remote.summary == inline.summary
        assert remote.detail is None


class TestImportLayering:
    def test_domain_layer_never_imports_service(self):
        tools = Path(__file__).parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            from check_import_layering import violations
        finally:
            sys.path.remove(str(tools))
        root = Path(__file__).parent.parent
        assert violations(root) == []
