"""Loopback tests of the HTTP front-end (daemon + client).

Everything here crosses real sockets on ephemeral loopback ports, but
the workloads are the cheap sine-driven RC / resistive-divider circuits
from ``test_service.py``, so the suite stays fast.  The invariants under
test are the PR's contract:

* a request served over HTTP is bit-identical to the in-process
  ``AnalysisSession`` run (same engines, same keys, same summaries);
* the shard protocol fans out across worker daemons and merges
  bit-identically to :func:`monte_carlo_transient`;
* tenancy: token auth, bounded per-tenant result quotas layered over
  the shared session memo, pending-job quotas;
* one tagged error schema (:class:`FailureRecord` payloads) with HTTP
  statuses mapped from the exception hierarchy - and injected faults
  degrading into ``failures`` on a 200, not into 5xx;
* keep-alive: a session's sequential calls share one connection, a
  memo hit on it costs no delayed-ACK stall, an unread request body
  never bleeds into the next request, a closed daemon is a
  ``TransportError`` and a restarted one a single reconnect.
"""

import http.client
import json
import sys
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core import DcLevel
from repro.core.montecarlo import monte_carlo_transient
from repro.errors import (AnalysisError, AuthenticationError,
                          ConvergenceError, FailureRecord,
                          JobTimeoutError, QuotaExceededError, ReproError,
                          TransportError, WorkerCrashError)
from repro.service import (AnalysisRequest, AnalysisServer,
                           AnalysisSession, FaultPlan, FaultRule, JobQueue,
                           RemoteSession, RetryPolicy, TenantConfig,
                           mc_transient_shards, merge_shard_results,
                           WorkerPool, registered_kinds, run_shard,
                           scatter_monte_carlo_transient, scatter_shards)
from repro.service import net
from repro.service.net import error_payload, status_for, wire_versions

PSS_OPTS = PssOptions(n_steps=64, settle_periods=2)
MEAS = [DcLevel("vout", "out")]


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


def _transient_request(r=1e3):
    return AnalysisRequest.transient_mismatch(
        _rc(r), MEAS, period=1e-6, pss_options=PSS_OPTS)


def _dc_request(r1=1e3):
    return AnalysisRequest.dc_mismatch(_divider(r1), {"vdc": "out"})


def _raw(url, method="GET", body=None, token=None, headers=None):
    """Raw HTTP exchange, bypassing the client: (status, json payload)."""
    req = urllib.request.Request(url, data=body, method=method)
    req.add_header("Content-Type", "application/json")
    if token is not None:
        req.add_header("Authorization", f"Bearer {token}")
    for name, value in (headers or {}).items():
        req.add_header(name, value)
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_run_bit_identical_to_in_process(self):
        request = _transient_request()
        local = AnalysisSession().run(request)
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            remote = client.run(request)
            again = client.run(request)
        def numbers(summary):
            # everything but the wall-clock timings
            return {k: v for k, v in summary.items()
                    if k != "runtime_breakdown"}

        assert numbers(remote.summary) == numbers(local.summary)
        assert remote.sigma("vout") == local.sigma("vout")
        assert remote.request_key == request.key()
        assert not remote.from_cache
        assert again.from_cache
        assert again.summary == remote.summary

    def test_health_and_version_negotiation(self):
        with AnalysisServer() as server:
            health = RemoteSession(server.url).health()
        assert health["status"] == "ok"
        assert health["versions"] == wire_versions()
        assert health["authenticated"] is False
        assert "transient_mismatch" in health["kinds"]
        assert health["api_version"] is not None

    def test_client_refuses_version_mismatch(self):
        class _Stale(RemoteSession):
            def health(self):
                return {"versions": {"request_format": -1,
                                     "shard_protocol": -1}}

        with AnalysisServer() as server:
            client = _Stale(server.url)
            with pytest.raises(AnalysisError, match="version mismatch"):
                client.run(_dc_request())

    def test_shard_round_trip(self):
        specs = mc_transient_shards(_rc(), MEAS, 8, 2e-6, 2e-8,
                                    chunk_size=4, seed=3)
        local = [run_shard(s) for s in specs]
        with AnalysisServer() as server:
            remote = [RemoteSession(server.url).run_shard(s)
                      for s in specs]
        for mine, theirs in zip(local, remote):
            assert theirs.to_dict() == mine.to_dict()
        merged = merge_shard_results(remote)
        assert np.array_equal(
            merged.samples["vout"],
            merge_shard_results(local).samples["vout"])

    def test_scatter_matches_in_process_mc(self):
        n, t_stop, dt, seed, chunk = 8, 2e-6, 2e-8, 11, 4
        with AnalysisServer() as w1, AnalysisServer() as w2:
            remote = scatter_monte_carlo_transient(
                [w1.url, w2.url], _rc(), MEAS, n, t_stop, dt,
                seed=seed, chunk_size=chunk)
        local = monte_carlo_transient(_rc(), MEAS, n, t_stop, dt,
                                      seed=seed, chunk_size=chunk)
        assert np.array_equal(remote.samples["vout"],
                              local.samples["vout"])
        assert remote.sigma("vout") == local.stats["vout"].std
        assert remote.mean("vout") == local.stats["vout"].mean
        assert remote.n_failed == 0 and remote.failures == []

    def test_scatter_summary_matches_served_request(self):
        """The merged scatter summary equals what ``POST /run`` of the
        whole Monte-Carlo workload reports - two routes, one answer."""
        n, seed, chunk = 8, 5, 4
        request = AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n, 2e-6, 2e-8, seed=seed, chunk_size=chunk)
        with AnalysisServer() as server:
            served = RemoteSession(server.url).run(request)
            scattered = scatter_monte_carlo_transient(
                [server.url], _rc(), MEAS, n, 2e-6, 2e-8,
                seed=seed, chunk_size=chunk)
        assert scattered.summary() == served.summary


# ---------------------------------------------------------------------------
# concurrency and the shared memo
# ---------------------------------------------------------------------------
class TestConcurrentClients:
    def test_clients_share_the_warm_cache(self):
        request = _transient_request()
        with AnalysisServer() as server:
            RemoteSession(server.url).run(request)  # warm it
            results, errors = [], []

            def hit():
                try:
                    results.append(RemoteSession(server.url).run(request))
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.session.stats()
        assert errors == []
        assert len(results) == 4
        assert all(r.from_cache for r in results)
        assert all(r.summary == results[0].summary for r in results)
        assert stats["results"]["hits"] >= 4

    def test_remote_stats_mirror_session_stats(self):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            client.run(_dc_request())
            client.run(_dc_request())
            remote = client.stats()
            local = server.session.stats()
        assert remote == local
        assert remote["results"]["hits"] == 1


# ---------------------------------------------------------------------------
# the engine pool: misses and shards run in worker processes
# ---------------------------------------------------------------------------
def _numbers(summary):
    # everything but the wall-clock timings
    return {k: v for k, v in summary.items() if k != "runtime_breakdown"}


class TestEnginePool:
    def test_worker_bits_equal_in_process_bits(self):
        """One request of each kind, a fan-out one and one shard,
        executed in the daemon's engine processes, against the same
        work in-process: the transient sigma here is pure roundoff, so
        only identical arithmetic keeps it equal."""
        requests = {
            "dc": _dc_request(),
            "mc": AnalysisRequest.monte_carlo_transient(
                _rc(), MEAS, 8, 2e-6, 2e-8, seed=3, chunk_size=4),
            "tm": _transient_request(),
            # fans out: its two shards run in the workers
            "mc_fan_out": AnalysisRequest.monte_carlo_transient(
                _rc(), MEAS, 8, 2e-6, 2e-8, seed=3, chunk_size=4,
                n_workers=2),
        }
        spec = mc_transient_shards(_rc(2e3), MEAS, 8, 2e-6, 2e-8,
                                   chunk_size=4, seed=3)[1]
        local = {kind: AnalysisSession().run(request)
                 for kind, request in requests.items()}
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            remote = {kind: client.run(request)
                      for kind, request in requests.items()}
            shard = client.run_shard(spec)
            pool = client.server_stats()["pool"]
        assert pool["workers"] == 2 and len(pool["pids"]) == 2
        assert pool["dispatched"] == 6  # every one ran in a worker
        for kind in requests:
            assert not remote[kind].from_cache
            assert _numbers(remote[kind].summary) \
                == _numbers(local[kind].summary), kind
        assert remote["tm"].sigma("vout") == local["tm"].sigma("vout")
        assert shard.to_dict() == run_shard(spec).to_dict()

    def test_stats_show_the_pool(self):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            before = client.server_stats()["pool"]
            client.run(_dc_request())
            client.run(_dc_request())   # a memo hit: not dispatched
            after = client.server_stats()["pool"]
        assert before["workers"] == 2
        assert before["epoch"] == after["epoch"] == 0
        assert after["pids"] == before["pids"]
        assert after["dispatched"] - before["dispatched"] == 1

    def test_stats_show_each_workers_stores(self):
        """A tm request evicted from the memo runs again on the
        worker's kept orbit: /stats shows one pss hit across the
        workers, and the summary bits are the cold run's."""
        request = _transient_request()
        with AnalysisServer(job_workers=1) as server:
            client = RemoteSession(server.url)
            assert client.server_stats()["workers"] == {}
            cold = client.run(request)
            assert server.session.evict_result(request.key())
            warm = client.run(request)
            stats = client.server_stats()
        assert not cold.from_cache and not warm.from_cache
        assert _numbers(warm.summary) == _numbers(cold.summary)
        workers = stats["workers"]
        assert list(workers) == [str(pid) for pid in stats["pool"]["pids"]]
        assert sum(w["pss"]["hits"] for w in workers.values()) == 1
        for stores in workers.values():
            assert set(stores) == {"compiled", "states", "pss"}
            for counters in stores.values():
                assert set(counters) == {"size", "bytes", "hits",
                                         "misses"}

    def test_memo_hit_reports_its_own_runtime(self):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            miss = client.run(_transient_request())
            hit = client.run(_transient_request())
        assert not miss.from_cache and hit.from_cache
        assert miss.compute_seconds == miss.runtime_seconds > 0.0
        assert hit.compute_seconds == miss.runtime_seconds
        assert 0.0 < hit.runtime_seconds < miss.runtime_seconds


# ---------------------------------------------------------------------------
# asynchronous jobs
# ---------------------------------------------------------------------------
class TestJobs:
    def test_submit_poll_result(self):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            job = client.submit(_dc_request())
            result = job.result(timeout=30)
            assert job.done()
            assert job.poll()["status"] == "done"
        assert result.sigma("vdc") > 0
        expected = AnalysisSession().run(_dc_request())
        assert result.summary == expected.summary

    def test_resubmit_is_idempotent(self):
        request = _dc_request()
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            first = client.submit(request)
            first.result(timeout=30)
            second = client.submit(request)
            assert second.key == first.key == request.key()
            assert second.poll()["status"] == "done"
            stats = client.server_stats()
        assert stats["jobs"]["total"] == 1

    def test_unknown_job_key_is_404(self):
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/jobs/deadbeef")
            with pytest.raises(ReproError, match="no job with key"):
                RemoteSession(server.url)._call("GET", "/jobs/deadbeef")
        assert status == 404
        assert payload["error"]["__type__"] == "FailureRecord"

    def test_failed_job_reports_structured_error(self):
        bad = {"version": 1, "kind": "transient_mismatch",
               "circuit": {}, "measures": [], "outputs": [],
               "options": {}}
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/jobs", "POST",
                                   json.dumps(bad).encode())
            assert status == 202
            job_url = server.url + "/jobs/" + payload["key"]
            for _ in range(200):
                status, data = _raw(job_url)
                if data["status"] in ("done", "failed"):
                    break
        assert data["status"] == "failed"
        assert data["error"]["__type__"] == "FailureRecord"
        assert data["error"]["site"] == "job"
        assert data["error_status"] in (400, 422)


# ---------------------------------------------------------------------------
# tenancy: tokens and quotas
# ---------------------------------------------------------------------------
TENANTS = [TenantConfig(name="alice", token="tok-a", max_results=2,
                        max_pending_jobs=1),
           TenantConfig(name="bob", token="tok-b", max_results=2)]


class TestTenancy:
    def test_token_required_and_checked(self):
        with AnalysisServer(tenants=TENANTS) as server:
            assert RemoteSession(server.url).health()["authenticated"]
            with pytest.raises(AuthenticationError,
                               match="missing tenant token"):
                RemoteSession(server.url).run(_dc_request())
            with pytest.raises(AuthenticationError,
                               match="unknown tenant token"):
                RemoteSession(server.url, token="wrong").run(_dc_request())
            ok = RemoteSession(server.url, token="tok-a").run(_dc_request())
            assert ok.sigma("vdc") > 0
            status, _ = _raw(server.url + "/stats")
            assert status == 401

    def test_x_repro_token_header(self):
        with AnalysisServer(tenants=TENANTS) as server:
            status, payload = _raw(server.url + "/stats",
                                   headers={"X-Repro-Token": "tok-b"})
        assert status == 200
        assert "bob" in payload["tenants"]

    def test_quota_evicts_tenants_oldest_result(self):
        requests = [_dc_request(r1) for r1 in (1e3, 2e3, 3e3)]
        with AnalysisServer(tenants=TENANTS) as server:
            alice = RemoteSession(server.url, token="tok-a")
            for request in requests:
                alice.run(request)
            # alice holds 2 of 3 keys: the newest is still memoized,
            # the oldest was evicted from the shared memo
            assert alice.run(requests[-1]).from_cache
            rerun = alice.run(requests[0])
            stats = alice.server_stats()
        assert not rerun.from_cache
        assert stats["tenants"]["alice"]["evictions"] >= 1
        assert stats["tenants"]["alice"]["results"] == 2

    def test_shared_results_survive_one_tenants_eviction(self):
        shared = _dc_request(1e3)
        with AnalysisServer(tenants=TENANTS) as server:
            alice = RemoteSession(server.url, token="tok-a")
            bob = RemoteSession(server.url, token="tok-b")
            alice.run(shared)
            bob.run(shared)          # bob now holds the same key
            alice.run(_dc_request(2e3))
            alice.run(_dc_request(3e3))  # alice's quota evicts `shared`
            # ...but bob still holds it, so the memo kept it warm
            assert bob.run(shared).from_cache
            stats = bob.server_stats()
        assert stats["tenants"]["alice"]["evictions"] == 1
        assert stats["session"]["results"]["size"] == 3

    def test_pending_job_quota_is_429(self):
        plan = FaultPlan(rules=[FaultRule(site="run_request",
                                          kind="hang",
                                          hang_seconds=1.0)])
        with AnalysisServer(tenants=TENANTS) as server:
            alice = RemoteSession(server.url, token="tok-a")
            with plan.active():
                slow = alice.submit(_dc_request(1e3))
                with pytest.raises(QuotaExceededError,
                                   match="pending jobs"):
                    alice.submit(_dc_request(2e3))
            assert slow.result(timeout=30).sigma("vdc") > 0
            # with the first job drained the quota frees up
            assert alice.submit(_dc_request(2e3)).result(
                timeout=30).sigma("vdc") > 0

    def test_tenant_config_validation(self):
        with pytest.raises(ValueError, match="max_results"):
            TenantConfig(name="x", token="t", max_results=0)
        with pytest.raises(ValueError, match="max_pending_jobs"):
            TenantConfig(name="x", token="t", max_pending_jobs=0)
        dupes = [TenantConfig(name="a", token="same"),
                 TenantConfig(name="b", token="same")]
        with pytest.raises(ValueError, match="unique"):
            AnalysisServer(tenants=dupes)


# ---------------------------------------------------------------------------
# the uniform error schema
# ---------------------------------------------------------------------------
class TestErrorSchema:
    def test_status_mapping(self):
        assert status_for(AuthenticationError("x")) == 401
        assert status_for(QuotaExceededError("x")) == 429
        assert status_for(JobTimeoutError("x")) == 504
        assert status_for(WorkerCrashError("x")) == 502
        assert status_for(ConvergenceError("x", iterations=3)) == 422
        assert status_for(AnalysisError("x")) == 400
        assert status_for(ValueError("x")) == 400
        assert status_for(RuntimeError("x")) == 500

    def test_error_payload_is_tagged_failure_record(self):
        payload = error_payload(AnalysisError("nope"), 400)
        assert payload["status"] == 400
        assert payload["versions"] == wire_versions()
        record = payload["error"]
        assert record["__type__"] == "FailureRecord"
        assert record["error"] == "AnalysisError"
        assert record["message"] == "nope"

    def test_unknown_kind_lists_registered_kinds(self):
        bad = {"version": 1, "kind": "astrology", "circuit": {},
               "measures": [], "outputs": [], "options": {}}
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/run", "POST",
                                   json.dumps(bad).encode())
        assert status == 400
        assert payload["error"]["__type__"] == "FailureRecord"
        assert "unknown request kind" in payload["error"]["message"]
        assert sorted(payload["kinds"]) == sorted(registered_kinds())

    def test_future_wire_version_is_400(self):
        request = _dc_request().to_dict()
        request["version"] = 99
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/run", "POST",
                                   json.dumps(request).encode())
        assert status == 400
        assert "version" in payload["error"]["message"]

    def test_malformed_json_is_400(self):
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/run", "POST",
                                   b"this is not json")
            empty, _ = _raw(server.url + "/run", "POST", b"")
        assert status == 400
        assert payload["error"]["__type__"] == "FailureRecord"
        assert empty == 400

    def test_unknown_endpoint_is_404(self):
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/nope")
        assert status == 404
        assert "no endpoint" in payload["error"]["message"]

    def test_client_rebuilds_server_exception(self):
        """A convergence fault on the daemon surfaces client-side as
        the same exception class, solver context and all."""
        plan = FaultPlan(rules=[FaultRule(site="run_request",
                                          kind="convergence")])
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            with plan.active():
                with pytest.raises(ConvergenceError) as info:
                    client.run(_dc_request())
        assert info.value.iterations == 0
        assert "injected convergence failure" in str(info.value)

    def test_raw_convergence_fault_is_422(self):
        plan = FaultPlan(rules=[FaultRule(site="run_request",
                                          kind="convergence")])
        body = json.dumps(_dc_request().to_dict()).encode()
        with AnalysisServer() as server:
            with plan.active():
                status, payload = _raw(server.url + "/run", "POST", body)
        assert status == 422
        assert payload["error"]["error"] == "ConvergenceError"


# ---------------------------------------------------------------------------
# supervision over the wire: faults degrade, they don't 5xx
# ---------------------------------------------------------------------------
class TestFaultedDaemon:
    RETRY = RetryPolicy(max_attempts=2, base_delay=0.0)

    def test_transient_shard_fault_heals_on_retry(self):
        specs = mc_transient_shards(_rc(), MEAS, 8, 2e-6, 2e-8,
                                    chunk_size=4, seed=3)
        clean = [run_shard(s) for s in specs]
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence",
                                          fail_attempts=1)])
        with AnalysisServer(retry=self.RETRY) as server:
            with plan.active():
                healed = scatter_shards([server.url], specs)
        for mine, theirs in zip(clean, healed):
            assert theirs.to_dict() == mine.to_dict()

    def test_exhausted_shard_degrades_into_failures(self):
        n, chunk, seed = 8, 4, 3
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence",
                                          start=chunk)])
        with AnalysisServer(retry=self.RETRY) as server:
            with plan.active():
                result = scatter_monte_carlo_transient(
                    [server.url], _rc(), MEAS, n, 2e-6, 2e-8,
                    seed=seed, chunk_size=chunk)
        local = monte_carlo_transient(_rc(), MEAS, n, 2e-6, 2e-8,
                                      seed=seed, chunk_size=chunk)
        # the faulted span is NaN-frozen and recorded, not a 5xx...
        assert result.n_failed == chunk
        assert len(result.failures) == 1
        record = result.failures[0]
        assert isinstance(record, FailureRecord)
        assert record.error == "ConvergenceError"
        assert (record.start, record.stop) == (chunk, n)
        assert np.all(np.isnan(result.samples["vout"][chunk:]))
        # ...and the surviving span is still bit-identical
        assert np.array_equal(result.samples["vout"][:chunk],
                              local.samples["vout"][:chunk])

    def test_unsupervised_shard_fault_is_422(self):
        spec = mc_transient_shards(_rc(), MEAS, 4, 2e-6, 2e-8,
                                   chunk_size=4, seed=3)[0]
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence")])
        with AnalysisServer() as server:  # no retry policy
            with plan.active():
                with pytest.raises(ConvergenceError):
                    RemoteSession(server.url).run_shard(spec)


# ---------------------------------------------------------------------------
# keep-alive connections and the daemon's lifecycle
# ---------------------------------------------------------------------------
def _port(url):
    return int(url.rsplit(":", 1)[1])


def _eight_shards():
    return mc_transient_shards(_rc(), MEAS, 8, 2e-6, 2e-8, chunk_size=1,
                               seed=3)


def _wait_for(predicate, seconds=5.0):
    """Poll *predicate* until it holds or *seconds* pass; its value."""
    deadline = time.monotonic() + seconds
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestKeepAlive:
    def test_sequential_runs_share_one_connection(self):
        """Negotiation and every call after it ride one keep-alive
        connection, counted by the daemon."""
        with AnalysisServer() as server:
            with RemoteSession(server.url) as client:
                for r1 in (1e3, 2e3, 1e3, 2e3, 1e3):
                    client.run(_dc_request(r1))
                stats = server.connection_stats()
        assert stats == {"open": 1, "accepted": 1}

    def test_keep_alive_hit_has_no_delayed_ack_stall(self):
        """A memo hit on a reused connection costs about a millisecond;
        headers and body sent in two writes without TCP_NODELAY would
        wait ~40 ms on the client's delayed ACK."""
        request = _dc_request()
        with AnalysisServer() as server:
            with RemoteSession(server.url) as client:
                client.run(request)
                walls = []
                for _ in range(15):
                    t0 = time.perf_counter()
                    assert client.run(request).from_cache
                    walls.append(time.perf_counter() - t0)
        assert sorted(walls)[len(walls) // 2] < 0.020

    def test_stats_count_connections(self):
        with AnalysisServer() as server:
            with RemoteSession(server.url) as client:
                client.health()
                stats = client.server_stats()
        assert stats["connections"] == {"open": 1, "accepted": 1}

    @pytest.mark.parametrize("method, path, status", [
        ("POST", "/nope", 404),
        ("POST", "/run", 401),
        ("GET", "/stats", 200),
        ("POST", "/admin/drain", 200),
    ], ids=["404", "401", "get-with-body", "drain"])
    def test_unread_body_keeps_the_connection_framed(self, method, path,
                                                     status):
        """A body no endpoint reads is read off the socket, so the next
        request on the same connection is answered, not misparsed (a
        drained daemon answers it with its tagged 503)."""
        body = json.dumps(_dc_request().to_dict()).encode()
        with AnalysisServer(tenants=TENANTS) as server:
            conn = http.client.HTTPConnection("127.0.0.1",
                                              _port(server.url),
                                              timeout=30)
            try:
                token = ({} if status == 401
                         else {"Authorization": "Bearer tok-a"})
                conn.request(method, path, body=body, headers=token)
                reply = conn.getresponse()
                reply.read()
                assert reply.status == status
                assert not reply.will_close
                conn.request("POST", "/run", body=body,
                             headers={"Authorization": "Bearer tok-a"})
                second = conn.getresponse()
                payload = json.loads(second.read())
            finally:
                conn.close()
            stats = server.connection_stats()
        assert stats["accepted"] == 1
        if path == "/admin/drain":
            assert second.status == 503
            assert payload["error"]["error"] == "DrainingError"
            return
        assert second.status == 200
        assert payload["summary"]["metrics"] == AnalysisSession().run(
            _dc_request()).summary["metrics"]

    def test_oversized_body_closes_the_connection(self):
        """A body past ``max_body_bytes`` is not read: the 413 says
        ``Connection: close`` and the client reconnects cleanly."""
        body = json.dumps(_dc_request().to_dict()).encode()
        with AnalysisServer(max_body_bytes=len(body) - 1) as server:
            conn = http.client.HTTPConnection("127.0.0.1",
                                              _port(server.url),
                                              timeout=30)
            try:
                conn.request("POST", "/run", body=body + b" " * 64)
                reply = conn.getresponse()
                reply.read()
                conn.request("GET", "/health")  # reconnects
                again = conn.getresponse()
                again.read()
            finally:
                conn.close()
            accepted = server.connection_stats()["accepted"]
        assert reply.status == 413 and reply.will_close
        assert again.status == 200
        assert accepted == 2

    def test_closed_daemon_is_a_transport_error(self):
        """A session whose keep-alive connection is live gets a
        TransportError from a closed daemon - not a memo hit from a
        handler thread that outlived it, nor a 500 from its stopped
        engine pool."""
        request = _dc_request()
        server = AnalysisServer().start()
        try:
            client = RemoteSession(server.url)
            client.run(request)  # memoized, connection idle and live
        finally:
            server.close()
        with pytest.raises(TransportError) as info:
            client.run(request)
        assert info.value.endpoint == server.url
        assert isinstance(info.value.__cause__, urllib.error.URLError)

    def test_reused_connection_to_restarted_daemon_reconnects(self):
        """A daemon restarted on the same port closed the session's
        idle connection; the call replays once on a fresh one."""
        request = _dc_request()
        with AnalysisServer() as first:
            url = first.url
            client = RemoteSession(url)
            client.run(request)
        with AnalysisServer(port=_port(url)) as second:
            result = client.run(request)
            accepted = second.connection_stats()["accepted"]
        assert not result.from_cache  # the new daemon computed it
        assert result.summary["metrics"] == AnalysisSession().run(
            request).summary["metrics"]
        assert accepted == 1

    def test_timeout_on_reused_connection_is_not_replayed(self):
        """A socket timeout may mean the daemon is still working on the
        request: it raises at once, and the daemon saw one request."""
        calls = []
        with AnalysisServer() as server:
            run = server.app.run

            def slow_run(tenant, payload):
                calls.append(payload)
                time.sleep(1.0)
                return run(tenant, payload)

            server.app.run = slow_run
            client = RemoteSession(server.url, timeout=0.3)
            client.health()  # the /run below reuses this connection
            with pytest.raises(TransportError) as info:
                client.run(_dc_request())
            seen = len(calls)
        assert seen == 1
        assert isinstance(info.value.__cause__, urllib.error.URLError)

    def test_plain_scatter_negotiates_once(self):
        """Concurrent first calls on one session share one
        ``GET /health``."""
        with AnalysisServer() as server:
            health = server.app.health
            probes = []
            server.app.health = lambda: probes.append(1) or health()
            scatter_shards([server.url], _eight_shards())
        assert len(probes) == 1

    def test_plain_scatter_closes_its_connections(self):
        """The temporary pool of a plain scatter closes the sessions it
        built, so the daemon's open-connection count returns to 0."""
        with AnalysisServer() as server:
            results = scatter_shards([server.url], _eight_shards())
            assert _wait_for(
                lambda: server.connection_stats()["open"] == 0)
            accepted = server.connection_stats()["accepted"]
        assert len(results) == 8
        assert accepted >= 1

    def test_pool_closes_the_sessions_it_built(self):
        """A closed pool's URL-built sessions hold no connection, even
        while the pool object itself is still referenced."""
        with AnalysisServer() as server:
            pool = WorkerPool([server.url])
            with pool:
                pool.scatter(_eight_shards())
            assert _wait_for(
                lambda: server.connection_stats()["open"] == 0)
            assert pool.stats()["endpoints"][0]["dispatched"] == 8

    def test_idle_connection_is_closed(self, monkeypatch):
        """A keep-alive connection that sends nothing for
        ``IDLE_TIMEOUT_S`` is closed by the daemon and frees its
        handler: the open count returns to 0 and the client reads
        EOF."""
        monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 0.2)
        with AnalysisServer() as server:
            conn = http.client.HTTPConnection("127.0.0.1",
                                              _port(server.url),
                                              timeout=30)
            try:
                conn.request("GET", "/health")
                reply = conn.getresponse()
                reply.read()
                assert reply.status == 200 and not reply.will_close
                assert server.connection_stats()["open"] == 1
                assert _wait_for(
                    lambda: server.connection_stats()["open"] == 0)
                assert conn.sock.recv(1) == b""   # closed by the daemon
            finally:
                conn.close()
            stats = server.connection_stats()
        assert stats == {"open": 0, "accepted": 1}

    def test_session_idle_past_the_timeout_replays_once(self, monkeypatch):
        """A session whose idle connection the daemon closed gets the
        same answer on its next call, replayed once on one fresh
        connection."""
        monkeypatch.setattr(net, "IDLE_TIMEOUT_S", 0.2)
        request = _dc_request()
        with AnalysisServer() as server:
            with RemoteSession(server.url) as client:
                first = client.run(request)
                before = server.connection_stats()
                assert _wait_for(
                    lambda: server.connection_stats()["open"] == 0)
                again = client.run(request)
                after = server.connection_stats()
        assert before == {"open": 1, "accepted": 1}
        assert after == {"open": 1, "accepted": 2}
        assert again.from_cache
        assert again.summary["metrics"] == first.summary["metrics"]

    def test_idle_timeout_is_far_above_client_pauses(self):
        """The default leaves live clients alone: a closed-loop client
        pauses well under a second between requests."""
        assert net.IDLE_TIMEOUT_S >= 10.0


# ---------------------------------------------------------------------------
# the body-digest index in front of the result memo
# ---------------------------------------------------------------------------
def _post_run(url, body, token=None):
    return _raw(url + "/run", "POST", body, token=token)


def _body(request, **dumps):
    return json.dumps(request.to_dict(), **dumps).encode()


class TestBodyIndex:
    def test_byte_different_bodies_share_one_memo_entry(self):
        """Key order and whitespace change the bytes, not the request:
        both bodies land on one memo entry, and each repeat is an
        index hit."""
        request = _dc_request()
        compact = _body(request, separators=(",", ":"))
        spaced = _body(request, sort_keys=True, indent=2)
        assert compact != spaced
        with AnalysisServer() as server:
            replies = [_post_run(server.url, body)
                       for body in (compact, spaced, compact, spaced)]
            stats = RemoteSession(server.url).server_stats()
        assert [status for status, _ in replies] == [200] * 4
        assert [p["from_cache"] for _, p in replies] == [
            False, True, True, True]
        assert {p["request_key"] for _, p in replies} == {request.key()}
        assert stats["session"]["results"]["size"] == 1
        index = stats["body_index"]
        assert (index["size"], index["hits"], index["misses"]) == (2, 2, 2)

    def test_index_hit_is_charged_like_a_hit(self):
        """An index hit counts one tenant request and refreshes the
        key's place in the tenant's quota, so the quota evicts the
        other key."""
        a, b, c = (_body(_dc_request(r1)) for r1 in (1e3, 2e3, 3e3))
        with AnalysisServer(tenants=TENANTS) as server:
            for body in (a, b, a, c):
                assert _post_run(server.url, body, "tok-a")[0] == 200
            index_hits = RemoteSession(
                server.url, token="tok-a").server_stats()["body_index"]
            _, again_a = _post_run(server.url, a, "tok-a")
            _, again_b = _post_run(server.url, b, "tok-a")
            stats = RemoteSession(server.url, token="tok-a").server_stats()
        assert index_hits["hits"] == 1
        assert again_a["from_cache"] and not again_b["from_cache"]
        alice = stats["tenants"]["alice"]
        assert alice["requests"] == 6
        assert alice["results"] == 2
        assert alice["evictions"] == 2

    def test_draining_refuses_an_index_hit(self):
        body = _body(_dc_request())
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            assert _post_run(server.url, body)[0] == 200
            assert _post_run(server.url, body)[1]["from_cache"]
            client.drain()
            status, payload = _post_run(server.url, body)
            index = client.server_stats()["body_index"]
        assert status == 503
        assert payload["error"]["error"] == "DrainingError"
        assert payload["retry_after"] == 5.0
        assert index["hits"] == 1   # the refused body was not looked up

    def test_evicted_result_reruns_with_identical_bits(self):
        """A body whose result left the memo (here: by quota) runs the
        engine again, with the same bits, and costs one memo lookup."""
        first = _body(_transient_request())
        with AnalysisServer(tenants=TENANTS) as server:
            _, miss = _post_run(server.url, first, "tok-a")
            for r in (2e3, 3e3):
                _post_run(server.url, _body(_transient_request(r)),
                          "tok-a")
            _, rerun = _post_run(server.url, first, "tok-a")
            stats = RemoteSession(server.url, token="tok-a").server_stats()
        assert not miss["from_cache"] and not rerun["from_cache"]
        assert _numbers(rerun["summary"]) == _numbers(miss["summary"])
        assert rerun["request_key"] == miss["request_key"]
        results = stats["session"]["results"]
        assert (results["hits"], results["misses"]) == (0, 4)
        assert stats["body_index"]["hits"] == 1

    def test_refused_bodies_never_enter_the_index(self):
        wrong_version = _dc_request().to_dict()
        wrong_version["version"] = 99
        with AnalysisServer() as server:
            statuses = [_post_run(server.url, body)[0] for body in (
                b"this is not json", b"{\"version\": 1",
                json.dumps(wrong_version).encode(),
                json.dumps(wrong_version).encode())]
            index = RemoteSession(server.url).server_stats()["body_index"]
        assert statuses == [400] * 4
        assert index["size"] == 0 and index["hits"] == 0

    def test_index_never_exceeds_its_bound(self):
        session = AnalysisSession(result_capacity=2)
        with AnalysisServer(session=session) as server:
            sizes = []
            for r1 in (1e3, 2e3, 3e3, 4e3, 1e3):
                assert _post_run(server.url, _body(_dc_request(r1)))[0] \
                    == 200
                sizes.append(RemoteSession(server.url).server_stats()[
                    "body_index"]["size"])
            index = RemoteSession(server.url).server_stats()["body_index"]
        assert sizes == [1, 2, 2, 2, 2]
        assert index["capacity"] == session.results.capacity == 2


    def test_concurrent_bodies_keep_the_index_consistent(self):
        """More threads than cores send three bodies through one app
        whose memo holds two, with a short switch interval: every
        reply carries its own body's key, and every call is counted
        once by the index and by the tenant."""
        requests = [_dc_request(r1) for r1 in (1e3, 2e3, 3e3)]
        bodies = [_body(r) for r in requests]
        app = net.ServiceApp(session=AnalysisSession(result_capacity=2),
                             job_workers=1)
        tenant = app.authenticate(None)
        wrong, errors = [], []

        def client(offset):
            try:
                for i in range(30):
                    j = (i + offset) % 3
                    reply = app.run(tenant, bodies[j])
                    if reply["request_key"] != requests[j].key():
                        wrong.append(j)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=client, args=(k,))
                       for k in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            index = app.stats()["body_index"]
        finally:
            sys.setswitchinterval(interval)
            app.close()
        assert not any(t.is_alive() for t in threads)
        assert errors == [] and wrong == []
        assert index["hits"] + index["misses"] == 180
        assert index["size"] <= index["capacity"] == 2
        assert tenant.requests == 180


class TestKeyHashedOnce:
    """Each submission hashes its request's content key exactly once,
    on every path; an index hit hashes none."""

    @pytest.fixture
    def key_hashes(self, monkeypatch):
        from repro.service import requests
        calls = []
        digest = requests.content_digest

        def counted(*parts):
            calls.append(parts[0])
            return digest(*parts)

        monkeypatch.setattr(requests, "content_digest", counted)
        return calls

    @pytest.mark.parametrize("n_workers", [None, 1])
    def test_job_queue_submit(self, key_hashes, n_workers):
        with JobQueue(session=AnalysisSession(),
                      n_workers=n_workers) as queue:
            counts = []
            for _ in range(2):   # a miss, then a memo hit
                before = len(key_hashes)
                queue.submit(_dc_request()).result(timeout=60)
                counts.append(len(key_hashes) - before)
        assert counts == [1, 1]

    def test_daemon_jobs_and_run(self, key_hashes):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            sends = [
                lambda: client.submit(_dc_request(2e3)).result(timeout=30),
                lambda: client.run(_dc_request()),   # a miss
                lambda: client.run(_dc_request()),   # an index hit
            ]
            counts = []
            for send in sends:
                before = len(key_hashes)
                send()
                counts.append(len(key_hashes) - before)
        assert counts == [1, 1, 0]
