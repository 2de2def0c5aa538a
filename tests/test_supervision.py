"""One retry contract on every placement.

An inline :class:`~repro.service.jobs.JobQueue`, a pooled one and a
:class:`~repro.service.resilience.WorkerPool` over a loopback daemon
all run their shards through :func:`~repro.service.jobs.run_with_retry`,
so they keep one contract: a fault that heals after one attempt leaves
the result bit-identical, exhaustion degrades with a
:class:`~repro.errors.FailureRecord` counting every attempt, and no
backoff sleep follows the last attempt.  A pooled queue runs those
loops on a bounded set of supervising threads, and a
:class:`~repro.service.jobs.RetryPolicy` refuses a deadline no attempt
could meet.
"""

import threading
import time

import numpy as np
import pytest

from repro.circuit import Circuit
from repro.errors import ReproError
from repro.service import (AnalysisRequest, AnalysisServer, FaultPlan,
                           FaultRule, JobQueue, RemoteSession,
                           RetryPolicy, mc_dc_shards, run_shard)
from repro.service.jobs import SUPERVISORS_PER_WORKER
from repro.service.resilience import ScatterPolicy, WorkerPool

#: Distinctive backoff values, so the sleeps they cause can be picked
#: out of every other ``time.sleep`` in the process.
BACKOFF = {"max_attempts": 3, "base_delay": 0.0123, "backoff": 1.5}


def _divider():
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", dc=1.2)
    ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.02)
    ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
    return ckt


def _spec():
    return mc_dc_shards(_divider(), {"vout": "out"}, 6, 6, seed=3)[0]


def _queue_run(n_workers):
    def run(spec, heal):
        plan = FaultPlan(rules=[FaultRule(
            site="run_shard", kind="convergence",
            fail_attempts=1 if heal else None)])
        with JobQueue(n_workers=n_workers,
                      retry=RetryPolicy(**BACKOFF)) as queue:
            with plan.active():
                job = queue.submit_shard(spec)
            result = job.result(timeout=60)
        assert job.failed_attempts == (1 if heal else 3)
        return result, "ConvergenceError"
    return run


def _pool_run(spec, heal):
    with AnalysisServer() as server:
        plan = FaultPlan(rules=[FaultRule(
            site="transport", kind="crash",
            start=f"{server.url} POST /shard",
            fail_attempts=1 if heal else None)])
        policy = ScatterPolicy(failure_threshold=10, **BACKOFF)
        with WorkerPool([server.url], policy=policy) as pool:
            with plan.active():
                (result,) = pool.scatter([spec])
    return result, "TransportError"


#: Every placement of a shard, each returning ``(result, the error
#: class its fault raises)``.
PLACEMENTS = {"inline": _queue_run(None), "pooled": _queue_run(1),
              "worker_pool": _pool_run}


@pytest.fixture
def sleeps(monkeypatch):
    """The backoff sleeps taken while a test runs, in order."""
    schedule = {RetryPolicy(**BACKOFF).delay(k)
                for k in range(1, BACKOFF["max_attempts"] + 1)}
    taken = []
    real = time.sleep

    def sleep(seconds):
        if seconds in schedule:
            taken.append(seconds)
        real(seconds)

    monkeypatch.setattr(time, "sleep", sleep)
    return taken


class TestOneContract:
    @pytest.mark.parametrize("placement", list(PLACEMENTS))
    def test_one_attempt_fault_heals_bit_identical(self, placement,
                                                   sleeps):
        spec = _spec()
        result, _ = PLACEMENTS[placement](spec, heal=True)
        clean = run_shard(spec)
        assert np.array_equal(result.samples["vout"],
                              clean.samples["vout"])
        assert result.n_failed == 0 and result.failures == []
        assert sleeps == [RetryPolicy(**BACKOFF).delay(1)]

    @pytest.mark.parametrize("placement", list(PLACEMENTS))
    def test_exhaustion_degrades_without_a_trailing_sleep(self,
                                                          placement,
                                                          sleeps):
        spec = _spec()
        result, error = PLACEMENTS[placement](spec, heal=False)
        assert np.isnan(result.samples["vout"]).all()
        assert result.n_failed == spec.n_lanes
        (record,) = result.failures
        assert record.error == error
        assert record.attempts == BACKOFF["max_attempts"]
        policy = RetryPolicy(**BACKOFF)
        # one backoff between attempts, none after the last
        assert sleeps == [policy.delay(1), policy.delay(2)]


class TestSupervisingThreads:
    def test_supervising_threads_are_bounded(self):
        specs = mc_dc_shards(_divider(), {"vout": "out"}, 40, 1, seed=3)
        plan = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          hang_seconds=0.02)])
        policy = RetryPolicy(max_attempts=1, deadline=30.0,
                             degrade=False)
        queue = JobQueue(n_workers=1, retry=policy)
        try:
            before = threading.active_count()
            with plan.active():
                jobs = [queue.submit_shard(spec) for spec in specs]
            peak = before
            give_up = time.monotonic() + 60.0
            while (not all(job.done() for job in jobs)
                   and time.monotonic() < give_up):
                peak = max(peak, threading.active_count())
                time.sleep(0.002)
            results = [job.result(timeout=60) for job in jobs]
        finally:
            queue.shutdown()
        assert peak - before <= SUPERVISORS_PER_WORKER
        assert threading.active_count() <= before
        assert sum(r.n_failed for r in results) == 0


class TestRetryPolicyValidation:
    @pytest.mark.parametrize("deadline", [-1.0, 0.0, 0, float("nan"),
                                          float("inf"), "5"])
    def test_unmeetable_deadline_is_refused(self, deadline):
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=deadline)

    @pytest.mark.parametrize("deadline", [None, 0.25, 3])
    def test_positive_finite_deadline_is_accepted(self, deadline):
        assert RetryPolicy(deadline=deadline).deadline == deadline

    def test_wire_request_with_unmeetable_deadline_gets_400(self):
        retry = RetryPolicy(deadline=1.0).to_dict()
        retry["deadline"] = -1.0
        request = AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=6, seed=3, retry=retry)
        with AnalysisServer() as server:
            with pytest.raises(ReproError, match="deadline") as info:
                RemoteSession(server.url).run(request)
        assert info.value.http_status == 400
