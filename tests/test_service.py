"""The application layer: AnalysisSession caches, requests, job queue.

Session tests run on a cheap sine-driven RC so the suite stays fast;
the comparator-scale cache win is measured by
``benchmarks/bench_service_cache.py``.
"""

import functools
import gc
import os
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import compile_circuit, pss
from repro.analysis.mna import held_nbytes
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core import (DcLevel, EdgeDelay, dc_mismatch_analysis,
                        transient_mismatch_analysis)
from repro.core.analysis import run_dc_mismatch, run_transient_mismatch
from repro.errors import AnalysisError
from repro.core.workers import worker_pool, worker_state
from repro.service import (AnalysisRequest, AnalysisResult,
                           AnalysisSession, JobQueue, RemoteSession,
                           RetryPolicy)

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


class TestMemoRuntime:
    def test_hit_reports_its_lookup_not_the_original_run(self):
        s = AnalysisSession()
        req = AnalysisRequest.transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        miss = s.run(req)
        hit = s.run(req)
        assert not miss.from_cache and hit.from_cache
        assert miss.compute_seconds == miss.runtime_seconds > 0.0
        # the original engine time rides along; the hit's own runtime
        # is the lookup that served it
        assert hit.compute_seconds == miss.runtime_seconds
        assert 0.0 < hit.runtime_seconds < miss.runtime_seconds

    def test_compute_seconds_round_trips_and_defaults(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        s.run(req)
        hit = s.run(req)
        data = hit.to_dict()
        assert AnalysisResult.from_dict(data).compute_seconds \
            == hit.compute_seconds
        # a payload from before the field existed still decodes
        del data["compute_seconds"]
        old = AnalysisResult.from_dict(data)
        assert old.compute_seconds == old.runtime_seconds


class TestCacheHygiene:
    def test_eviction_bounds_and_cascades(self):
        one = compile_circuit(_rc()).nbytes()
        s = AnalysisSession(cache_bytes=2 * one + one // 2)  # two fit
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

    @pytest.mark.parametrize("drop", ["lru", "evict_result"])
    def test_memo_drop_keeps_the_stored_orbit(self, drop):
        """Dropping a memo entry leaves the orbit the pss store still
        holds (and charges) intact: linearisation and kept closure."""
        s = AnalysisSession(result_capacity=1)
        req = AnalysisRequest.transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        first = s.run(req)
        (orbit,) = s.pss_store._data.values()
        assert orbit._lin is not None and orbit._lin.closure is not None
        if drop == "lru":
            s.run(AnalysisRequest.transient_mismatch(
                _rc(r=2e3), MEAS, period=1e-6, pss_options=PSS_OPTS))
        else:
            assert s.evict_result(req.key())
        assert req.key() not in s.results
        assert orbit._lin is not None and orbit._lin.closure is not None
        hits = s.stats()["pss"]["hits"]
        again = s.run(req)
        assert not again.from_cache
        assert s.stats()["pss"]["hits"] == hits + 1
        assert again.sigma("vout") == first.sigma("vout")


class _Entry:
    """A store value of a declared size that records its eviction."""

    def __init__(self, nbytes):
        self.size = nbytes
        self.cleared = False

    def nbytes(self):
        return self.size

    def clear_caches(self):
        self.cleared = True


def _ladder(r=100.0, n=12):
    ckt = Circuit(f"ladder{n}")
    ckt.add_vsource("VIN", "n0", "0",
                    wave=Sine(amplitude=0.5, freq=5e6, offset=0.5))
    for k in range(1, n + 1):
        ckt.add_resistor(f"R{k}", f"n{k - 1}", f"n{k}", r, sigma_rel=0.01)
        ckt.add_capacitor(f"C{k}", f"n{k}", "0", 1e-12)
    return ckt


def _engine_bytes(session):
    st = session.stats()
    return sum(st[kind]["bytes"] for kind in ("compiled", "pss"))


class TestEngineBudget:
    """The compiled and pss stores share one byte budget and one LRU
    order; the result memo stays bounded in entries."""

    def test_mixed_sizes_evict_by_bytes_in_lru_order_across_kinds(self):
        s = AnalysisSession(cache_bytes=100)
        a, b, c = _Entry(40), _Entry(30), _Entry(20)
        s.compiled.put("a", a)
        s.pss_store.put("b", b)
        s.pss_store.put("c", c)
        assert s.compiled.get("a") is a  # a is now the most recent
        d = _Entry(30)
        s.pss_store.put("d", d)          # 120 bytes: b (LRU) goes
        assert b.cleared
        assert not (a.cleared or c.cleared)
        e = _Entry(50)
        s.compiled.put("e", e)           # 140: c, then a
        assert c.cleared and a.cleared and not d.cleared
        st = s.stats()
        assert {k: (st[k]["size"], st[k]["bytes"])
                for k in ("compiled", "pss")} == {
            "compiled": (1, 50), "pss": (1, 30)}
        assert st["compiled"]["capacity"] == 100
        assert st["results"] == {"size": 0, "capacity": 64,
                                 "hits": 0, "misses": 0}

    def test_pss_counts_its_linearization_before_it_is_built(self):
        s = AnalysisSession()
        compiled = s.compile(_rc())
        orbit = s.pss(compiled, 1e-6, options=PSS_OPTS)
        assert orbit._lin is None
        charged = s.stats()["pss"]["bytes"]
        assert charged == orbit.nbytes()
        assert charged > 3 * (orbit.x.nbytes + orbit.t.nbytes)
        s.transient_mismatch(compiled, MEAS, period=1e-6,
                             pss_options=PSS_OPTS)
        lin = orbit._lin
        assert lin is not None and lin._factors is not None
        assert lin._b_t is not None
        built = held_nbytes(orbit, skip=(compiled, orbit.state))
        assert built <= charged == orbit.nbytes()

    def test_logic_orbit_estimate_covers_what_it_holds(self, logic_path_x):
        """The largest bundled Table II orbit: its estimate is within a
        few percent above what the built linearisation holds, and
        eight of them fit the default budget."""
        tb = logic_path_x
        orbit = pss(compile_circuit(tb.circuit), tb.period,
                    options=PssOptions(n_steps=800, settle_periods=2))
        estimate = orbit.nbytes()
        orbit.linearization().factors()
        orbit.linearization()._b_block()
        built = held_nbytes(orbit, skip=(orbit.compiled, orbit.state))
        assert built <= estimate <= 1.05 * built
        assert 8 * estimate <= AnalysisSession().cache_bytes

    def test_entry_over_the_budget_is_returned_but_not_kept(self):
        s = AnalysisSession(cache_bytes=2000)
        compiled = s.compile(_rc())
        res = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                   pss_options=PSS_OPTS)
        assert res.pss.nbytes() > 2000 >= compiled.nbytes()
        st = s.stats()
        assert st["pss"]["size"] == 0 and st["pss"]["bytes"] == 0
        assert st["compiled"]["size"] == 1
        assert res.pss._lin is not None  # handed back, not cleared
        cold = transient_mismatch_analysis(_rc(), MEAS, period=1e-6,
                                           pss_options=PSS_OPTS)
        assert res.sigma("vout") == cold.sigma("vout")

    def test_eviction_cascades_clear_caches(self):
        probe = AnalysisSession()
        probe.transient_mismatch(_rc(), MEAS, period=1e-6,
                                 pss_options=PSS_OPTS)
        one = _engine_bytes(probe)
        s = AnalysisSession(cache_bytes=one + one // 2)
        first = s.transient_mismatch(_rc(), MEAS, period=1e-6,
                                     pss_options=PSS_OPTS)
        compiled = first.pss.compiled
        assert first.pss._lin is not None
        assert compiled._nominal_state is not None
        s.transient_mismatch(_rc(r=2e3), MEAS, period=1e-6,
                             pss_options=PSS_OPTS)
        assert first.pss._lin is None
        assert compiled._nominal_state is None
        assert _engine_bytes(s) <= s.cache_bytes

    def test_bounded_retention_after_table2_and_ladder_calls(
            self, logic_path_x):
        """Distinct logic-row orbits and ladders through one session:
        together they are charged several budgets, yet what the
        session keeps stays within its budget, and so does what
        tracemalloc sees retained after each round."""
        tb = logic_path_x
        delay = [EdgeDelay("delay_A", "X", "A", tb.vth)]
        budget = 4 * 2 ** 20
        s = AnalysisSession(cache_bytes=budget)
        charged, retained = 0, []
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i, n_steps in enumerate((200, 300, 400, 500)):
                res = s.transient_mismatch(
                    tb.circuit, delay, period=tb.period,
                    pss_options=PssOptions(n_steps=n_steps,
                                           settle_periods=2))
                charged += res.pss.nbytes()
                for j in range(4):
                    res = s.transient_mismatch(
                        _ladder(100.0 + 10 * (4 * i + j)),
                        [DcLevel("v", "n12")], period=2e-7,
                        pss_options=PSS_OPTS)
                    charged += res.pss.nbytes()
                del res
                gc.collect()
                retained.append(tracemalloc.get_traced_memory()[0] - base)
                assert _engine_bytes(s) <= budget
        finally:
            tracemalloc.stop()
        assert charged > 2 * budget
        # the stores' own bookkeeping and Python objects ride on top
        assert max(retained) <= budget + 2 ** 20, retained


def _worker_state():
    return worker_state.get()


class TestWorkerSessions:
    def test_setup_result_is_each_workers_state(self):
        with worker_pool(1, setup=functools.partial(int, "7")) as pool:
            assert pool.submit(_worker_state).result(timeout=60) == 7
        with worker_pool(1) as pool:
            assert pool.submit(_worker_state).result(timeout=60) is None

    def test_worker_store_hit_after_memo_eviction(self):
        """A request evicted from the front's memo runs again on the
        worker's kept compile and orbit, with the same bits."""
        front = AnalysisSession()
        req = AnalysisRequest.transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        with JobQueue(session=front, n_workers=1) as q:
            cold = q.submit(req).result(timeout=60)
            assert front.evict_result(req.key())
            warm = q.submit(req).result(timeout=60)
            (stores,) = q.worker_stats().values()
        assert not warm.from_cache
        assert {k: v for k, v in warm.summary.items()
                if k != "runtime_breakdown"} \
            == {k: v for k, v in cold.summary.items()
                if k != "runtime_breakdown"}
        assert stores["pss"] == {"size": 1, "bytes": stores["pss"]["bytes"],
                                 "hits": 1, "misses": 1}
        assert stores["compiled"]["hits"] == 1
        assert stores["pss"]["bytes"] > 0

    def test_worker_sessions_take_the_queue_budget(self):
        front = AnalysisSession(cache_bytes=2000)
        req = AnalysisRequest.transient_mismatch(
            _rc(), MEAS, period=1e-6, pss_options=PSS_OPTS)
        with JobQueue(session=front, n_workers=1) as q:
            q.submit(req).result(timeout=60)
            (stores,) = q.worker_stats().values()
        # the orbit is larger than 2000 bytes, the compile is not
        assert stores["pss"]["size"] == 0 and stores["pss"]["misses"] == 1
        assert stores["compiled"]["size"] == 1

    def test_inline_queue_reports_no_workers(self):
        with JobQueue() as q:
            q.submit(AnalysisRequest.dc_mismatch(_divider(),
                                                 {"vout": "out"}))
            assert q.worker_stats() == {}

    def test_pooled_queue_over_a_remote_session_is_refused(self):
        remote = RemoteSession("http://127.0.0.1:9")
        with pytest.raises(TypeError, match="cached, memoize"):
            JobQueue(session=remote, n_workers=1)
        # an inline queue still takes one (examples/service_batch.py)
        with JobQueue(session=remote) as q:
            assert q.session is remote


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

    def test_pooled_repeat_is_a_memo_hit_without_dispatch(self):
        s = AnalysisSession()
        req = AnalysisRequest.dc_mismatch(_divider(), {"vout": "out"})
        with JobQueue(session=s, n_workers=2) as q:
            first = q.submit(req).result(timeout=60)
            again = q.submit(req).result(timeout=60)
            pool = q.pool_stats()
        assert not first.from_cache and again.from_cache
        assert pool["dispatched"] == 1  # the repeat never left
        assert again.summary == first.summary
        # the worker's summary is what the submitting session memoized
        assert first.detail is None and again.detail is None
        assert s.stats()["results"] == {"size": 1, "capacity": 64,
                                         "hits": 1, "misses": 1}

    def test_pooled_sweep_cases_go_through_the_queue(self):
        cases = [AnalysisRequest.dc_mismatch(_divider(r1), {"vout": "out"})
                 for r1 in (1e3, 2e3)]
        with JobQueue(n_workers=2) as q:
            q.submit(cases[0]).result(timeout=60)
            sweep = q.submit(AnalysisRequest.sweep(cases)).result(
                timeout=60)
            pool = q.pool_stats()
        # the memoized case is a hit; only the other one is dispatched
        assert [c["from_cache"] for c in sweep.summary["cases"]] \
            == [True, False]
        assert pool["dispatched"] == 2
        inline = AnalysisSession().run(AnalysisRequest.sweep(cases))
        assert [c["summary"] for c in sweep.summary["cases"]] \
            == [c["summary"] for c in inline.summary["cases"]]

    def test_worker_pool_matches_inline(self):
        req = AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n=6, t_stop=2e-6, dt=2e-8,
            window=(1e-6, 2e-6), seed=5, chunk_size=3)
        inline = AnalysisSession().run(req)
        with JobQueue(n_workers=2) as q:
            remote = q.map([req])[0]
        assert remote.summary == inline.summary
        assert remote.detail is None

    @pytest.mark.parametrize("kind,retry", [
        ("mc_transient", None),
        ("mc_dc", RetryPolicy(max_attempts=2)),
    ])
    def test_pooled_fan_out_spreads_its_shards_over_the_workers(
            self, kind, retry):
        if kind == "mc_transient":
            req = AnalysisRequest.monte_carlo_transient(
                _rc(), MEAS, n=6, t_stop=2e-6, dt=2e-8,
                window=(1e-6, 2e-6), seed=5, chunk_size=2, n_workers=2)
        else:
            req = AnalysisRequest.monte_carlo_dc(
                _divider(), {"vout": "out"}, 12, seed=5, chunk_size=4,
                n_workers=2)
        inline = AnalysisSession().run(req)
        with JobQueue(n_workers=2, retry=retry) as q:
            pooled = q.submit(req).result(timeout=60)
            again = q.submit(req).result(timeout=60)
            pool = q.pool_stats()
        # one dispatch per shard: no request dispatch, no nested pool
        assert pool["dispatched"] == 3
        assert pooled.summary == inline.summary
        assert again.from_cache and again.summary == inline.summary

    def test_pool_size_is_validated(self):
        with pytest.raises(ValueError, match="n_workers"):
            JobQueue(n_workers=0)


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
