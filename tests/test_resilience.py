"""Chaos tests of the fault-tolerant network dispatch layer.

The invariants under test are this PR's contract:

* the client never leaks a raw :class:`urllib.error.URLError` - every
  no-response failure surfaces as a typed
  :class:`~repro.errors.TransportError` naming the endpoint and method;
* :class:`CircuitBreaker` walks closed -> open -> half-open with a
  single probe slot, under an injectable clock;
* a :class:`WorkerPool` scatter survives dead, draining and slow
  endpoints and still merges **bit-identical** to the fault-free
  in-process :func:`monte_carlo_transient` run (shards are generative,
  so re-dispatch changes nothing);
* a shard that exhausts every endpoint degrades into NaN-frozen lanes
  with a ``site="transport"`` :class:`FailureRecord` (serializable,
  counted by ``n_failed``), or - when every lane is lost - one typed
  error;
* ``POST /admin/drain`` refuses new work with a tagged 503 while
  in-flight jobs finish and stay pollable;
* the acceptance storm: real OS-process daemons, one SIGKILLed and one
  drained, and the merged samples still match bit for bit.
"""

import json
import multiprocessing
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.circuit import Circuit, Sine
from repro.core import DcLevel
from repro.core.montecarlo import monte_carlo_transient
from repro.core.workers import WATCH_INTERVAL_S, worker_pids, worker_pool
from repro.errors import (ConvergenceError, DrainingError, FailureRecord,
                          ReproError, TransportError)
from repro.service import (AnalysisRequest, AnalysisServer,
                           AnalysisSession, FaultPlan,
                           FaultRule, RemoteSession, RetryPolicy,
                           from_jsonable, mc_transient_shards,
                           merge_shard_results,
                           scatter_monte_carlo_transient, scatter_shards,
                           to_jsonable)
from repro.service.resilience import (CircuitBreaker, ScatterPolicy,
                                      WorkerPool,
                                      is_infrastructure_failure)

MEAS = [DcLevel("vout", "out")]
FAST = RetryPolicy(base_delay=0.0)
#: Every process start method this platform offers.
START_METHODS = multiprocessing.get_all_start_methods()


def _rc(r=1e3):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", r, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _specs(n=8, chunk=4, seed=3):
    return mc_transient_shards(_rc(), MEAS, n, 2e-6, 2e-8,
                               chunk_size=chunk, seed=seed)


def _local(n=8, chunk=4, seed=3):
    return monte_carlo_transient(_rc(), MEAS, n, 2e-6, 2e-8,
                                 chunk_size=chunk, seed=seed)


def _dead_url():
    """A loopback URL nothing listens on (bound, then released)."""
    sock = socket.socket()
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()
    return f"http://127.0.0.1:{port}"


def _raw(url, method="GET", body=None):
    req = urllib.request.Request(url, data=body, method=method)
    req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=30) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


# ---------------------------------------------------------------------------
# typed transport errors (never a raw URLError)
# ---------------------------------------------------------------------------
class TestTransportError:
    def test_dead_endpoint_raises_typed_error(self):
        url = _dead_url()
        client = RemoteSession(url, timeout=2.0)
        with pytest.raises(TransportError) as info:
            client.health()
        assert info.value.endpoint == url
        assert info.value.method == "GET"
        assert isinstance(info.value, ReproError)

    def test_injected_drop_surfaces_as_transport_error(self):
        plan = FaultPlan(rules=[FaultRule(site="transport",
                                          kind="crash")])
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            with plan.active():
                with pytest.raises(TransportError) as info:
                    client.health()
        assert info.value.endpoint == server.url
        assert "no HTTP response" in str(info.value)

    def test_transport_error_pickles_with_context(self):
        import pickle
        err = pickle.loads(pickle.dumps(TransportError(
            "boom", endpoint="http://x:1", method="POST")))
        assert (err.endpoint, err.method) == ("http://x:1", "POST")

    def test_job_polls_heal_through_transient_drops(self):
        """The job keeps running server-side whether or not a poll got
        through, so ``result()`` retries transient transport failures
        instead of abandoning a perfectly healthy job."""
        request = AnalysisRequest.dc_mismatch(_rc(), {"vdc": "out"})
        plan = FaultPlan(rules=[FaultRule(site="transport",
                                          kind="crash",
                                          fail_attempts=2)])
        with AnalysisServer() as server:
            job = RemoteSession(server.url).submit(request)
            with plan.active():
                result = job.result(timeout=30.0, poll_interval=0.01)
        assert result.summary["metrics"]["vdc"]["sigma"] > 0.0

    def test_job_poll_retry_budget_is_bounded(self):
        request = AnalysisRequest.dc_mismatch(_rc(), {"vdc": "out"})
        plan = FaultPlan(rules=[FaultRule(site="transport",
                                          kind="crash")])
        with AnalysisServer() as server:
            job = RemoteSession(server.url).submit(request)
            job.result(timeout=30.0)  # let it finish cleanly first
            with plan.active():
                with pytest.raises(TransportError):
                    job.result(timeout=30.0, poll_interval=0.01,
                               transport_retries=2)


# ---------------------------------------------------------------------------
# the breaker automaton
# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def _clocked(self, **kw):
        now = [0.0]
        breaker = CircuitBreaker(clock=lambda: now[0], **kw)
        return breaker, now

    def test_opens_after_threshold_consecutive_failures(self):
        breaker, _ = self._clocked(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == "closed" and breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()

    def test_success_resets_the_failure_count(self):
        breaker, _ = self._clocked(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == "closed"

    def test_cooldown_half_opens_with_one_probe_slot(self):
        breaker, now = self._clocked(failure_threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert breaker.state == "open" and not breaker.allow()
        now[0] = 9.9
        assert not breaker.allow()
        now[0] = 10.0
        assert breaker.state == "half_open"
        assert breaker.allow()          # the single probe slot
        assert not breaker.allow()      # everyone else waits

    def test_probe_outcome_resolves_half_open(self):
        breaker, now = self._clocked(failure_threshold=1, cooldown=1.0)
        breaker.record_failure()
        now[0] = 1.0
        assert breaker.allow()
        breaker.record_failure()        # failed probe: re-open
        assert breaker.state == "open" and not breaker.allow()
        now[0] = 2.0
        assert breaker.allow()
        breaker.record_success()        # healed probe: close
        assert breaker.state == "closed" and breaker.allow()

    def test_validates_threshold(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestScatterPolicy:
    """The deprecated alias: it warns, and is a RetryPolicy."""

    def test_backoff_shape(self):
        with pytest.warns(DeprecationWarning, match="ScatterPolicy"):
            policy = ScatterPolicy(base_delay=0.05, backoff=2.0)
        assert isinstance(policy, RetryPolicy)
        assert policy.delay(1) == pytest.approx(0.05)
        assert policy.delay(2) == pytest.approx(0.10)
        assert policy.delay(3) == pytest.approx(0.20)
        assert RetryPolicy(base_delay=0.0).delay(3) == 0.0

    def test_round_trips_through_dict(self):
        policy = RetryPolicy(max_attempts=5, hedge=True,
                             hedge_percentile=90.0)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        with pytest.warns(DeprecationWarning, match="ScatterPolicy"):
            alias = ScatterPolicy.from_dict(policy.to_dict())
        assert alias.to_dict() == policy.to_dict()

    @pytest.mark.parametrize("bad", [
        {"max_attempts": 0}, {"failure_threshold": 0},
        {"cooldown": -1.0}, {"hedge_percentile": 0.0},
        {"hedge_percentile": 101.0}, {"hedge_min_samples": 0}])
    def test_validates(self, bad):
        with pytest.raises(ValueError):
            RetryPolicy(**bad)
        with pytest.raises(ValueError), pytest.warns(DeprecationWarning):
            ScatterPolicy(**bad)

    def test_infrastructure_classification(self):
        assert is_infrastructure_failure(TransportError("x"))
        err = ReproError("supervised shard died")
        err.http_status = 502
        assert is_infrastructure_failure(err)
        assert not is_infrastructure_failure(ConvergenceError("x"))
        assert not is_infrastructure_failure(
            DrainingError("deliberate"))


# ---------------------------------------------------------------------------
# the pool: dispatch, failover, degrade
# ---------------------------------------------------------------------------
class TestWorkerPool:
    def test_clean_scatter_is_bit_identical(self):
        local = _local()
        with AnalysisServer() as w1, AnalysisServer() as w2:
            with WorkerPool([w1.url, w2.url], policy=FAST) as pool:
                merged = merge_shard_results(pool.scatter(_specs()))
        assert np.array_equal(merged.samples["vout"],
                              local.samples["vout"])
        assert merged.n_failed == 0

    def test_failed_endpoint_fails_over_bit_identical(self):
        """Every call to one endpoint drops at the socket; its shards
        re-dispatch to the healthy endpoint and the merge is still
        exact, while the dead endpoint's breaker opens."""
        local = _local()
        with AnalysisServer() as w1, AnalysisServer() as w2:
            plan = FaultPlan(rules=[FaultRule(
                site="transport", kind="crash",
                start=f"{w1.url} POST /shard")])
            policy = RetryPolicy(base_delay=0.0, failure_threshold=1)
            with plan.active():
                with WorkerPool([w1.url, w2.url],
                                policy=policy) as pool:
                    merged = merge_shard_results(pool.scatter(_specs()))
                    stats = pool.stats()
        assert np.array_equal(merged.samples["vout"],
                              local.samples["vout"])
        assert merged.n_failed == 0
        by_url = {e["url"]: e for e in stats["endpoints"]}
        assert by_url[w1.url]["failures"] >= 1
        assert by_url[w1.url]["breaker"] in ("open", "half_open")
        assert by_url[w2.url]["failures"] == 0

    def test_probe_routes_around_draining_endpoint(self):
        local = _local()
        with AnalysisServer() as w1, AnalysisServer() as w2:
            RemoteSession(w2.url).drain()
            with WorkerPool([w1.url, w2.url], policy=FAST) as pool:
                pool.probe()
                merged = merge_shard_results(pool.scatter(_specs()))
                stats = pool.stats()
        assert np.array_equal(merged.samples["vout"],
                              local.samples["vout"])
        by_url = {e["url"]: e for e in stats["endpoints"]}
        assert by_url[w2.url]["draining"] is True
        assert by_url[w2.url]["dispatched"] == 0
        assert by_url[w1.url]["dispatched"] == len(_specs())

    def test_background_probe_discovers_dead_endpoint(self):
        dead = _dead_url()
        with AnalysisServer() as live:
            with WorkerPool([live.url,
                             RemoteSession(dead, timeout=1.0)],
                            policy=RetryPolicy(failure_threshold=1),
                            probe_interval=0.05) as pool:
                deadline = time.monotonic() + 5.0
                while time.monotonic() < deadline:
                    by_url = {e["url"]: e for e in
                              pool.stats()["endpoints"]}
                    if by_url[dead]["failures"] >= 1:
                        break
                    time.sleep(0.02)
        assert by_url[dead]["failures"] >= 1
        assert by_url[dead]["breaker"] in ("open", "half_open")
        assert by_url[live.url]["breaker"] == "closed"

    def test_all_dead_scatter_degrades_with_transport_records(self):
        specs = _specs()
        sessions = [RemoteSession(_dead_url(), timeout=1.0)
                    for _ in range(2)]
        with WorkerPool(sessions, policy=FAST) as pool:
            results = pool.scatter(specs)
        merged = merge_shard_results(results)
        assert merged.n_failed == sum(s.stop - s.start for s in specs)
        assert np.all(np.isnan(merged.samples["vout"]))
        assert len(merged.failures) == len(specs)
        for spec, record in zip(specs, merged.failures):
            assert isinstance(record, FailureRecord)
            assert record.site == "transport"
            assert record.error == "TransportError"
            assert record.attempts == FAST.max_attempts
            assert (record.start, record.stop) == (spec.start,
                                                   spec.stop)
            assert record.n_lanes == spec.stop - spec.start
            # the record survives the wire
            assert from_jsonable(to_jsonable(record)) == record

    def test_all_lanes_lost_raises_one_typed_error(self):
        urls = [_dead_url(), _dead_url()]
        with WorkerPool([RemoteSession(u, timeout=1.0) for u in urls],
                        policy=FAST) as pool:
            with pytest.raises(TransportError, match="all 8 lanes"):
                scatter_monte_carlo_transient(
                    pool, _rc(), MEAS, 8, 2e-6, 2e-8, seed=3,
                    chunk_size=4)

    def test_degrade_false_raises_naming_the_span(self):
        policy = RetryPolicy(base_delay=0.0, degrade=False,
                             max_attempts=2)
        with WorkerPool([RemoteSession(_dead_url(), timeout=1.0)],
                        policy=policy) as pool:
            with pytest.raises(TransportError,
                               match=r"shard \[0, 4\)"):
                pool.scatter(_specs(n=4, chunk=4))

    def test_partial_transport_loss_counts_degraded_lanes(self):
        """A merge of one healthy and one transport-degraded shard
        counts exactly the degraded lanes and keeps the survivors."""
        specs = _specs()
        with AnalysisServer() as server:
            good = RemoteSession(server.url).run_shard(specs[0])
        from repro.service.shards import degraded_shard_result
        bad = degraded_shard_result(
            specs[1], TransportError("endpoint never answered"),
            attempts=3, site="transport")
        merged = merge_shard_results([good, bad])
        local = _local()
        assert merged.n_failed == specs[1].stop - specs[1].start
        assert merged.failures[0].site == "transport"
        assert np.array_equal(merged.samples["vout"][:specs[0].stop],
                              local.samples["vout"][:specs[0].stop])
        assert np.all(np.isnan(merged.samples["vout"][specs[1].start:]))

    def test_terminal_shard_failure_names_span_and_endpoint(self):
        """A workload failure (not infrastructure) propagates out of
        the pool annotated with which span died where - and out of a
        plain scatter (a temporary one-attempt pool) identically."""
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence", start=4)])
        with AnalysisServer() as server:  # unsupervised: faults raise
            with plan.active():
                with WorkerPool([server.url], policy=FAST) as pool:
                    with pytest.raises(ConvergenceError) as via_pool:
                        pool.scatter(_specs())
                with pytest.raises(ConvergenceError) as via_plain:
                    scatter_shards([server.url], _specs())
        for info in (via_pool, via_plain):
            assert f"[shard [4, 8) on {server.url}]" in str(info.value)
            assert info.value.shard_span == (4, 8)
            assert info.value.endpoint == server.url

    def test_hedged_dispatch_beats_a_straggler(self):
        """A shard stuck on a slow endpoint past the observed latency
        percentile is duplicated onto the other endpoint; the first
        result wins, the merge stays exact, and the scatter finishes
        long before the straggler would have."""
        hang = 3.0
        policy = RetryPolicy(hedge=True, hedge_percentile=50.0,
                             hedge_min_samples=2, hedge_floor=0.01,
                             base_delay=0.0)
        local = _local(n=16, chunk=4)
        with AnalysisServer() as w1, AnalysisServer() as w2:
            with WorkerPool([w1.url, w2.url], policy=policy) as pool:
                pool.scatter(_specs())  # warm the latency window
                plan = FaultPlan(rules=[FaultRule(
                    site="transport", kind="hang", hang_seconds=hang,
                    start=f"{w1.url} POST /shard")])
                with plan.active():
                    t0 = time.monotonic()
                    merged = merge_shard_results(
                        pool.scatter(_specs(n=16, chunk=4)))
                    elapsed = time.monotonic() - t0
                stats = pool.stats()
        assert np.array_equal(merged.samples["vout"],
                              local.samples["vout"])
        assert stats["hedges"] >= 1
        assert elapsed < hang

    def test_pool_requires_an_endpoint(self):
        with pytest.raises(ValueError):
            WorkerPool([])


# ---------------------------------------------------------------------------
# plain scatters: policy=None is a one-attempt pool
# ---------------------------------------------------------------------------
class TestPlainScatter:
    def test_plain_scatter_keeps_every_engine_busy(self):
        """A default daemon runs two engine processes; a plain scatter
        keeps both busy, so two shards that each hang 1.5 s in an
        engine finish together rather than one after the other."""
        hang = 1.5
        plan = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          hang_seconds=hang)])
        with AnalysisServer() as server:
            with plan.active():
                t0 = time.monotonic()
                results = scatter_shards([server.url], _specs())
                elapsed = time.monotonic() - t0
        assert np.array_equal(merge_shard_results(results).samples["vout"],
                              _local().samples["vout"])
        assert elapsed < 1.6 * hang  # one at a time takes >= 2 * hang

    @pytest.mark.parametrize("scatter", [
        lambda pool, policy: scatter_shards(pool, _specs(),
                                            policy=policy),
        lambda pool, policy: scatter_monte_carlo_transient(
            pool, _rc(), MEAS, 8, 2e-6, 2e-8, seed=3, chunk_size=4,
            policy=policy),
    ], ids=["scatter_shards", "scatter_monte_carlo_transient"])
    def test_policy_with_a_pool_is_rejected(self, scatter):
        """A pool scatters under its own policy; a second one passed
        alongside it is an error, not silently ignored."""
        with WorkerPool([RemoteSession(_dead_url(), timeout=1.0)],
                        policy=FAST) as pool:
            with pytest.raises(ValueError, match="own policy"):
                scatter(pool, RetryPolicy(max_attempts=1,
                                          degrade=False))
            assert pool.stats()["endpoints"][0]["dispatched"] == 0

    def test_exhausted_plain_scatter_names_span_endpoint_and_cause(self):
        """An infrastructure failure of a plain scatter raises the
        pool's exhaustion error, tagged like a terminal failure and
        chained to the error the endpoint gave."""
        url = _dead_url()
        with pytest.raises(TransportError,
                           match=r"shard \[0, 4\) exhausted 1 attempts"
                           ) as info:
            scatter_shards([url], _specs(n=4, chunk=4))
        assert info.value.shard_span == (0, 4)
        assert info.value.endpoint == url
        cause = info.value.__cause__
        assert isinstance(cause, TransportError) and cause.endpoint == url
        assert isinstance(cause.__cause__, urllib.error.URLError)


# ---------------------------------------------------------------------------
# summary parity: two routes, one answer - failures included
# ---------------------------------------------------------------------------
class TestSummaryParity:
    def test_degraded_scatter_summary_matches_served_request(self):
        """With the same deterministic fault plan active on both
        routes, the scatter summary (``n_failed`` and all) equals what
        ``POST /run`` of the whole supervised workload reports."""
        n, chunk, seed = 8, 4, 3
        retry = RetryPolicy(max_attempts=2, base_delay=0.0)
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence",
                                          start=chunk)])
        request = AnalysisRequest.monte_carlo_transient(
            _rc(), MEAS, n, 2e-6, 2e-8, seed=seed, chunk_size=chunk,
            retry=retry)
        with AnalysisServer(retry=retry) as server:
            with plan.active():
                served = RemoteSession(server.url).run(request)
                scattered = scatter_monte_carlo_transient(
                    [server.url], _rc(), MEAS, n, 2e-6, 2e-8,
                    seed=seed, chunk_size=chunk, policy=FAST)
        assert scattered.n_failed == chunk
        assert scattered.summary() == served.summary
        assert served.summary["n_failed"] == chunk


# ---------------------------------------------------------------------------
# graceful drain
# ---------------------------------------------------------------------------
class TestDrain:
    def test_drain_refuses_new_work_with_tagged_503(self):
        body = json.dumps(AnalysisRequest.dc_mismatch(
            _rc(), {"vdc": "out"}).to_dict()).encode()
        with AnalysisServer() as server:
            status, payload = _raw(server.url + "/admin/drain", "POST")
            assert status == 200
            assert payload["status"] == "draining"
            for path in ("/run", "/jobs"):
                code, refusal = _raw(server.url + path, "POST", body)
                assert code == 503
                assert refusal["error"]["error"] == "DrainingError"
                assert refusal["retry_after"] == pytest.approx(
                    payload["retry_after"])
            spec_body = json.dumps(_specs()[0].to_dict()).encode()
            code, _ = _raw(server.url + "/shard", "POST", spec_body)
            assert code == 503

    def test_client_raises_draining_error_with_hint(self):
        with AnalysisServer(drain_retry_after=2.5) as server:
            client = RemoteSession(server.url)
            assert client.drain()["status"] == "draining"
            with pytest.raises(DrainingError) as info:
                client.run(AnalysisRequest.dc_mismatch(
                    _rc(), {"vdc": "out"}))
        assert info.value.retry_after == pytest.approx(2.5)
        assert info.value.http_status == 503

    def test_health_reports_draining_without_refusing(self):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            client.drain()
            health = client.health()
            stats = client.server_stats()
        assert health["status"] == "draining"
        assert health["draining"] is True
        assert stats["draining"] is True

    def test_inflight_jobs_finish_and_stay_pollable(self):
        request = AnalysisRequest.dc_mismatch(_rc(), {"vdc": "out"})
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            job = client.submit(request)
            drained = client.drain()
            assert drained["status"] == "draining"
            result = job.result(timeout=30.0)    # accepted work finishes
            assert job.poll()["status"] == "done"  # and stays pollable
            with pytest.raises(DrainingError):
                client.submit(AnalysisRequest.dc_mismatch(
                    _rc(1.1e3), {"vdc": "out"}))
        assert result.summary["metrics"]["vdc"]["sigma"] > 0.0

    def test_drain_is_idempotent(self):
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            assert client.drain()["status"] == "draining"
            assert client.drain()["status"] == "draining"


# ---------------------------------------------------------------------------
# the acceptance storm: real processes, real SIGKILL
# ---------------------------------------------------------------------------
def _spawn_daemon():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env)
    url = proc.stdout.readline().strip()
    if not url.startswith("http"):
        proc.kill()
        raise RuntimeError(f"daemon failed to announce: {url!r}")
    return proc, url


class TestSubprocessFailover:
    def test_scatter_survives_sigkill_and_drain_bit_identical(self):
        """Three real daemon processes; one is SIGKILLed, one drained.
        The pool reroutes both endpoints' shards and the merged samples
        still match the fault-free in-process run bit for bit."""
        n, chunk, seed = 24, 4, 11
        local = monte_carlo_transient(_rc(), MEAS, n, 2e-6, 2e-8,
                                      seed=seed, chunk_size=chunk)
        daemons = [_spawn_daemon() for _ in range(3)]
        procs = [p for p, _ in daemons]
        urls = [u for _, u in daemons]
        try:
            with WorkerPool(urls,
                            policy=RetryPolicy(base_delay=0.0,
                                               failure_threshold=1)
                            ) as pool:
                pool.probe()   # all three look healthy right now
                RemoteSession(urls[2]).drain()
                procs[0].send_signal(signal.SIGKILL)
                procs[0].wait(timeout=10)
                # the pool has not probed since: it still believes in
                # both endpoints and must *discover* the kill and the
                # drain through dispatch failures / tagged 503s
                result = scatter_monte_carlo_transient(
                    pool, _rc(), MEAS, n, 2e-6, 2e-8, seed=seed,
                    chunk_size=chunk)
                stats = pool.stats()
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait(timeout=10)
        assert np.array_equal(result.samples["vout"],
                              local.samples["vout"])
        assert result.n_failed == 0 and result.failures == []
        by_url = {e["url"]: e for e in stats["endpoints"]}
        assert by_url[urls[0]]["failures"] >= 1       # the kill was felt
        assert by_url[urls[2]]["draining"] is True    # the drain too
        assert by_url[urls[1]]["failures"] == 0


# ---------------------------------------------------------------------------
# engine processes die with their daemon
# ---------------------------------------------------------------------------
def _alive(pid: int) -> bool:
    """Whether *pid* is a live process (a zombie is not)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # no procfs: fall back to a signal probe
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True


def _gone_within(pids, seconds: float) -> list:
    """The *pids* still alive after waiting up to *seconds*."""
    deadline = time.monotonic() + seconds
    while True:
        alive = [pid for pid in pids if _alive(pid)]
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


class TestOrphanedWorkers:
    @pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM],
                             ids=["sigkill", "sigterm"])
    def test_engine_workers_die_with_the_daemon(self, sig):
        proc, url = _spawn_daemon()
        try:
            client = RemoteSession(url)
            client.run(AnalysisRequest.dc_mismatch(_rc(), {"vdc": "out"}))
            pids = client.server_stats()["pool"]["pids"]
            assert len(pids) == 2 and proc.pid not in pids
            assert all(_alive(pid) for pid in pids)
            proc.send_signal(sig)
            proc.wait(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
        assert _gone_within(pids, 2.0) == []

    @pytest.mark.parametrize("method", START_METHODS)
    def test_pool_workers_die_with_their_parent(self, method):
        """The pool factory the Monte-Carlo free functions share: a
        parent that exits without shutting its pool down leaves no
        worker behind, whatever the start method - also one the pool
        was still starting when the parent exited."""
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        script = ("import multiprocessing, os\n"
                  "from repro.core.workers import worker_pids, "
                  "worker_pool\n"
                  "if __name__ == '__main__':\n"
                  "    pool = worker_pool(2, multiprocessing."
                  f"get_context({method!r}))\n"
                  "    pool.submit(os.getpid).result()\n"
                  "    pool.submit(os.getpid)\n"
                  "    print(*worker_pids(pool), flush=True)\n"
                  "    os._exit(0)\n")
        proc = subprocess.Popen([sys.executable, "-c", script], env=env,
                                stdout=subprocess.PIPE, text=True)
        pids = [int(pid) for pid in proc.stdout.readline().split()]
        proc.wait(timeout=30)
        proc.stdout.close()
        assert pids
        assert _gone_within(pids, 2.0) == []

    @pytest.mark.parametrize("method", START_METHODS)
    def test_a_live_owner_keeps_its_workers(self, method):
        """Under ``forkserver`` a worker's parent is the forkserver, not
        the pool's owner; the watchdog must not mistake that for an
        orphaning."""
        with worker_pool(2, multiprocessing.get_context(method)) as pool:
            pool.submit(os.getpid).result(timeout=30)
            time.sleep(3 * WATCH_INTERVAL_S)
            pids = worker_pids(pool)
            assert pids and all(_alive(pid) for pid in pids)
            assert pool.submit(abs, -1).result(timeout=30) == 1


def _reaped_within(pids, seconds: float) -> list:
    """The *pids* whose process entry still exists after waiting up to
    *seconds*: a pool reaps its dead workers only after marking itself
    broken, so a reaped worker's pool knows it broke."""
    deadline = time.monotonic() + seconds
    while True:
        left = [pid for pid in pids if os.path.exists(f"/proc/{pid}")]
        if not left or time.monotonic() > deadline:
            return left
        time.sleep(0.05)


class TestEngineCrash:
    @pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
    def test_default_daemon_answers_after_its_engines_die(self):
        """A daemon without a retry policy whose engine processes all
        die (the OOM killer, say) respawns its pool for the next miss
        and answers it with a 200, not a BrokenProcessPool 500."""
        request = AnalysisRequest.dc_mismatch(_rc(2e3), {"vdc": "out"})
        with AnalysisServer() as server:
            client = RemoteSession(server.url)
            client.run(AnalysisRequest.dc_mismatch(_rc(), {"vdc": "out"}))
            pids = client.server_stats()["pool"]["pids"]
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            assert _reaped_within(pids, 10.0) == []
            result = client.run(request)
            pool = client.server_stats()["pool"]
        assert result.summary == AnalysisSession().run(request).summary
        assert pool["epoch"] == 1
        assert pool["pids"] and set(pool["pids"]).isdisjoint(pids)
