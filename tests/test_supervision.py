"""One retry contract on every placement.

An inline :class:`~repro.service.jobs.JobQueue`, a pooled one and a
:class:`~repro.service.resilience.WorkerPool` over a loopback daemon
all run their shards through :func:`~repro.service.jobs.run_with_retry`,
so they keep one contract: a fault that heals after one attempt leaves
the result bit-identical, exhaustion degrades with a
:class:`~repro.errors.FailureRecord` counting every attempt, and no
backoff sleep follows the last attempt.  A pooled queue runs those
loops on a bounded set of supervising threads.  One
:class:`~repro.service.jobs.RetryPolicy` serves every placement: it
refuses values no loop could run, each placement refuses by name the
fields it cannot honour, and its dict form runs and keys like itself.
"""

import dataclasses
import threading
import time

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.circuit import Circuit
from repro.core import DcLevel, monte_carlo_dc, monte_carlo_transient
from repro.errors import ReproError
from repro.service import (AnalysisRequest, AnalysisServer,
                           AnalysisSession, FaultPlan, FaultRule,
                           JobQueue, RemoteSession, RetryPolicy,
                           mc_dc_shards, run_shard,
                           scatter_monte_carlo_transient, scatter_shards,
                           serve)
from repro.service import resilience
from repro.service.jobs import (ONE_ATTEMPT, SUPERVISORS_PER_WORKER,
                                run_shards)
from repro.service.resilience import WorkerPool

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
        policy = RetryPolicy(failure_threshold=10, **BACKOFF)
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
        # built valid, then edited as a hand-written body would be: the
        # constructor itself refuses the bad policy
        payload = AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=6, seed=3,
            retry=RetryPolicy(deadline=1.0)).to_dict()
        payload["options"]["retry"]["deadline"] = -1.0
        request = AnalysisRequest.from_dict(payload)
        with AnalysisServer() as server:
            with pytest.raises(ReproError, match="deadline") as info:
                RemoteSession(server.url).run(request)
        assert info.value.http_status == 400


#: An address nothing listens on; a refused policy never reaches it.
NOWHERE = "http://127.0.0.1:9"


def _mc_dc(retry):
    return monte_carlo_dc(_divider(), {"vout": "out"}, 8, seed=3,
                          retry=retry)


def _mc_transient(retry):
    return monte_carlo_transient(_divider(), [DcLevel("vout", "out")], 8,
                                 1e-7, 1e-8, seed=3, chunk_size=4,
                                 retry=retry)


class TestOnePolicyType:
    def test_eleven_fields_one_codec_one_default(self):
        assert len(dataclasses.fields(RetryPolicy)) == 11
        policy = RetryPolicy(deadline=2.0, hedge=True, cooldown=0.5)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        # a policy a process placement takes encodes as before API 2.2
        assert RetryPolicy(max_attempts=2).to_dict() == {
            "max_attempts": 2, "base_delay": 0.05, "backoff": 2.0,
            "deadline": None, "degrade": True}
        assert ONE_ATTEMPT == RetryPolicy(max_attempts=1, degrade=False)
        # one constant: a plain scatter uses the same object
        assert getattr(resilience, "ONE_ATTEMPT",
                       ONE_ATTEMPT) is ONE_ATTEMPT

    def test_times_and_factors_are_floats(self):
        policy = RetryPolicy(base_delay=0, backoff=1, deadline=2,
                             cooldown=0, hedge_percentile=50, hedge_floor=0)
        for name in ("base_delay", "backoff", "deadline", "cooldown",
                     "hedge_percentile", "hedge_floor"):
            assert type(getattr(policy, name)) is float
        assert policy == RetryPolicy(
            base_delay=0.0, backoff=1.0, deadline=2.0, cooldown=0.0,
            hedge_percentile=50.0, hedge_floor=0.0)

    @pytest.mark.parametrize("bad", [
        {"max_attempts": 2.5}, {"backoff": -1.0}, {"hedge_floor": -1},
        {"hedge_min_samples": 2.5}, {"failure_threshold": 0.5},
        {"base_delay": -0.01}, {"cooldown": float("nan")},
        {"max_attempts": "3"}, {"max_attempts": True}, {"backoff": True},
        {"deadline": True},
        pytest.param({"base_delay": 10 ** 400}, id="base_delay-overflow")],
        ids=lambda bad: f"{bad}")
    def test_values_no_loop_can_run_are_refused(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            RetryPolicy(**bad)

    @pytest.mark.parametrize("place", [
        lambda p: WorkerPool([NOWHERE], policy=p),
        lambda p: scatter_shards([NOWHERE], [_spec()], policy=p),
        lambda p: scatter_monte_carlo_transient(
            [NOWHERE], _divider(), [DcLevel("vout", "out")], 4, 1e-7,
            1e-8, policy=p),
    ], ids=["WorkerPool", "scatter_shards",
            "scatter_monte_carlo_transient"])
    def test_an_endpoint_pool_refuses_a_deadline(self, place):
        with pytest.raises(ValueError, match="deadline"):
            place(RetryPolicy(deadline=1.0))

    @pytest.mark.parametrize("policy", [
        RetryPolicy(hedge=True), {"failure_threshold": 5}],
        ids=["policy", "dict"])
    @pytest.mark.parametrize("place", [
        lambda p: JobQueue(retry=p),
        lambda p: AnalysisServer(retry=p, job_workers=1),
        lambda p: serve(port=0, retry=p, job_workers=1, block=False),
        lambda p: run_shards([_spec()], compile_circuit(_divider()),
                             retry=p),
        _mc_dc, _mc_transient,
        lambda p: AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=6, seed=3, retry=p),
        lambda p: AnalysisRequest.dc_mismatch(
            _divider(), {"vout": "out"}, retry=p),
    ], ids=["JobQueue", "AnalysisServer", "serve", "run_shards",
            "monte_carlo_dc", "monte_carlo_transient", "mc_request",
            "dc_request"])
    def test_a_process_placement_refuses_endpoint_fields(self, place,
                                                         policy):
        with pytest.raises(ValueError,
                           match="hedge|failure_threshold") as info:
            place(policy)
        assert "WorkerPool" in str(info.value)

    def test_wire_request_with_an_endpoint_field_gets_400(self):
        payload = AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=6, seed=3,
            retry=RetryPolicy()).to_dict()
        payload["options"]["retry"]["hedge"] = True
        request = AnalysisRequest.from_dict(payload)
        with AnalysisServer(job_workers=1) as server:
            with pytest.raises(ReproError, match="hedge") as info:
                RemoteSession(server.url).run(request)
        assert info.value.http_status == 400

    @pytest.mark.parametrize("run", [_mc_dc, _mc_transient],
                             ids=["monte_carlo_dc", "monte_carlo_transient"])
    def test_dict_retry_runs_like_its_policy(self, run):
        by_dict = run({"max_attempts": 2})
        by_policy = run(RetryPolicy(max_attempts=2))
        assert by_dict.n_failed == by_policy.n_failed == 0
        for name, samples in by_policy.samples.items():
            assert np.array_equal(by_dict.samples[name], samples)

    def test_equal_policies_key_one_request(self):
        def build(retry):
            return AnalysisRequest.monte_carlo_dc(
                _divider(), {"vout": "out"}, n=6, seed=3, retry=retry)

        assert len({build(retry).key() for retry in (
            RetryPolicy(), {"max_attempts": 3}, RetryPolicy().to_dict(),
            {"base_delay": 0.05, "max_attempts": 3}, {"backoff": 2})}) == 1
        assert build(RetryPolicy(base_delay=0)).key() \
            == build(RetryPolicy(base_delay=0.0)).key()
        session = AnalysisSession()
        assert not session.run(build(RetryPolicy())).from_cache
        assert session.run(build({"max_attempts": 3})).from_cache

    @pytest.mark.parametrize("retry", [{"max_atempts": 3},
                                       {"max_attempts": 2.5}],
                             ids=["typo", "fraction"])
    def test_bad_retry_dict_is_refused_when_the_request_is_built(
            self, retry):
        with pytest.raises((TypeError, ValueError), match="max_at"):
            AnalysisRequest.monte_carlo_dc(
                _divider(), {"vout": "out"}, n=6, seed=3, retry=retry)
