"""Fault-injection suite: supervision under deterministic chaos.

Every scenario drives the supervision layer of
:mod:`repro.service.jobs` through the seeded fault harness
(:mod:`repro.service.faults`) and checks the two invariants the layer
promises:

* shards *unaffected* by a fault merge bit-identical to the fault-free
  run (retries and pool respawns never perturb results - shards are
  generative, so re-execution is exact);
* shards that exhaust their retries degrade deterministically: their
  span is NaN-frozen, counted in ``n_failed``, and reported through a
  structured :class:`~repro.errors.FailureRecord`.

The DC Monte-Carlo workload keeps each shard in the milliseconds so the
timing-sensitive scenarios (deadlines, hangs) stay fast and robust.
"""

import os
import pickle
import signal
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
import pytest

from repro.circuit import Circuit, Sine
from repro.core import monte_carlo_dc, monte_carlo_transient
from repro.core.measures import Measure
from repro.errors import (RETRYABLE_ERRORS, AnalysisError,
                          ConvergenceError, FailureRecord,
                          JobTimeoutError, SingularMatrixError,
                          WorkerCrashError)
from repro.service import (AnalysisRequest, AnalysisResult, FaultPlan,
                           FaultRule, JobQueue, RetryPolicy, ShardResult,
                           from_jsonable, mc_dc_shards,
                           merge_shard_results, to_jsonable)
from repro.service.faults import FAULTS_ENV, maybe_inject
from repro.service.jobs import run_with_retry


def _divider():
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", dc=1.2)
    ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.02)
    ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
    return ckt


def _specs(n=24, chunk=6, seed=3):
    return mc_dc_shards(_divider(), {"vout": "out"}, n, chunk, seed=seed)


@pytest.fixture(scope="module")
def clean():
    """The fault-free reference run every scenario compares against."""
    return monte_carlo_dc(_divider(), {"vout": "out"}, n=24, seed=3,
                          chunk_size=6)


FAST = RetryPolicy(max_attempts=3, base_delay=0.0)


@dataclass
class PeakLevel(Measure):
    """A measure the serialization registry does not know: it travels
    by pickle only (module-level, so pool workers can unpickle it)."""

    name: str
    node: str

    def measure_waveset(self, ws) -> float:
        return ws[self.node].max()

    def required_nodes(self) -> list[str]:
        return [self.node]


def _custom_mc(**placement):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return monte_carlo_transient(ckt, [PeakLevel("peak", "out")], n=8,
                                 t_stop=2e-6, dt=2e-8, chunk_size=4,
                                 seed=3, **placement)


#: Every way a Monte-Carlo run can place its shards.
PLACEMENTS = {"serial": {}, "serial+retry": {"retry": FAST},
              "pool": {"n_workers": 2},
              "pool+retry": {"n_workers": 2, "retry": FAST}}


class TestFaultPlan:
    def test_round_trips_and_env_activation(self):
        plan = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          start=6, fail_attempts=2,
                                          probability=0.5,
                                          hang_seconds=0.1)], seed=7)
        assert FaultPlan.from_json(plan.to_json()) == plan
        assert os.environ.get(FAULTS_ENV) is None
        with plan.active():
            assert FaultPlan.from_json(os.environ[FAULTS_ENV]) == plan
            # nesting restores the outer plan, not nothing
            inner = FaultPlan(seed=9)
            with inner.active():
                assert FaultPlan.from_json(
                    os.environ[FAULTS_ENV]) == inner
            assert FaultPlan.from_json(os.environ[FAULTS_ENV]) == plan
        assert os.environ.get(FAULTS_ENV) is None

    def test_rejects_unknown_sites_and_kinds(self):
        with pytest.raises(ValueError, match="site"):
            FaultRule(site="nowhere", kind="crash")
        with pytest.raises(ValueError, match="kind"):
            FaultRule(site="run_shard", kind="gamma_ray")

    def test_probabilistic_rules_are_deterministic(self):
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence",
                                          probability=0.5)], seed=11)
        rule = plan.rules[0]
        decisions = [plan.should_fire(rule, "run_shard", key, 0)
                     for key in range(32)]
        assert decisions == [plan.should_fire(rule, "run_shard", key, 0)
                             for key in range(32)]
        # a half-probability rule over 32 keys fires somewhere, but
        # not everywhere
        assert any(decisions) and not all(decisions)

    def test_probabilistic_rules_draw_independently(self):
        # two rules matching the same (site, key, attempt) must not
        # share one uniform draw: lockstep firing would skew
        # multi-rule chaos plans (the later rule could only ever fire
        # where the earlier one also would)
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="crash",
                                          probability=0.4),
                                FaultRule(site="run_shard", kind="hang",
                                          probability=0.4)], seed=5)
        first, second = plan.rules
        keys = range(64)
        da = [plan.should_fire(first, "run_shard", k, 0) for k in keys]
        db = [plan.should_fire(second, "run_shard", k, 0) for k in keys]
        assert da != db
        # in particular the second rule fires on keys the first spares
        assert any(b and not a for a, b in zip(da, db))

    def test_fail_attempts_heals_on_retry(self):
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence",
                                          fail_attempts=2)])
        with plan.active():
            for attempt in (0, 1):
                with pytest.raises(ConvergenceError):
                    maybe_inject("run_shard", key=0, attempt=attempt)
            maybe_inject("run_shard", key=0, attempt=2)  # healed

    def test_no_plan_is_a_no_op(self):
        maybe_inject("run_shard", key=0, attempt=0)


class TestRetryPolicy:
    def test_round_trip_and_backoff_schedule(self):
        policy = RetryPolicy(max_attempts=4, base_delay=0.05,
                             backoff=2.0, deadline=1.5, degrade=False)
        assert RetryPolicy.from_dict(policy.to_dict()) == policy
        assert [policy.delay(k) for k in (1, 2, 3)] == [0.05, 0.1, 0.2]
        assert RetryPolicy(base_delay=0.0).delay(3) == 0.0
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    @pytest.mark.parametrize("base_delay, backoff",
                             [(0.05, 2.0), (0.0, 2.0), (0.3, 1.5),
                              (-1.0, 3.0)])
    def test_scatter_policy_shares_the_backoff(self, base_delay, backoff):
        """A scatter's policy (a RetryPolicy with endpoint fields set)
        accepts, refuses and backs off exactly as a process placement's
        does (a negative delay is refused)."""
        endpoint = {"failure_threshold": 1, "cooldown": 0.5, "hedge": True}
        if base_delay < 0:
            for extra in ({}, endpoint):
                with pytest.raises(ValueError, match="base_delay"):
                    RetryPolicy(base_delay=base_delay, backoff=backoff,
                                **extra)
            return
        retry = RetryPolicy(base_delay=base_delay, backoff=backoff)
        scatter = RetryPolicy(base_delay=base_delay, backoff=backoff,
                              **endpoint)
        assert ([scatter.delay(k) for k in range(1, 7)]
                == [retry.delay(k) for k in range(1, 7)])

    def test_non_retryable_errors_fail_fast(self):
        calls = []

        def attempt(k):
            calls.append(k)
            raise AnalysisError("malformed on purpose")

        with pytest.raises(AnalysisError):
            run_with_retry(FAST, attempt, None)
        assert calls == [0]  # no retry for a deterministic error

    def test_retryable_exhaustion_raises_without_degrade(self):
        calls = []

        def attempt(k):
            calls.append(k)
            raise ConvergenceError("still diverging")

        with pytest.raises(ConvergenceError):
            run_with_retry(FAST, attempt, None)
        assert calls == [0, 1, 2]


class TestInlineSupervision:
    def test_transient_fault_heals_bit_identical(self, clean):
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence", start=6,
                                          fail_attempts=1)])
        with plan.active():
            sup = monte_carlo_dc(_divider(), {"vout": "out"}, n=24,
                                 seed=3, chunk_size=6, retry=FAST)
        assert np.array_equal(sup.samples["vout"],
                              clean.samples["vout"])
        assert sup.n_failed == 0 and sup.failures == []

    def test_exhaustion_degrades_span_nan_frozen(self, clean):
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence", start=6)])
        with plan.active():
            sup = monte_carlo_dc(
                _divider(), {"vout": "out"}, n=24, seed=3, chunk_size=6,
                retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        vals = sup.samples["vout"]
        assert np.isnan(vals[6:12]).all()
        ok = np.r_[0:6, 12:24]
        assert np.array_equal(vals[ok], clean.samples["vout"][ok])
        assert sup.n_failed == 6
        assert sup.failed_metrics == {"vout": 6}
        (rec,) = sup.failures
        assert rec.error == "ConvergenceError"
        assert (rec.site, rec.attempts) == ("shard", 2)
        assert (rec.start, rec.stop, rec.n_lanes) == (6, 12, 6)
        # statistics come from the surviving finite lanes
        assert np.isfinite(sup.stats["vout"].std)

    def test_inline_queue_shard_degrades(self):
        spec = _specs()[0]
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence")])
        with plan.active():
            with JobQueue(retry=RetryPolicy(max_attempts=2,
                                            base_delay=0.0)) as queue:
                result = queue.submit_shard(spec).result()
        assert np.isnan(result.samples["vout"]).all()
        assert result.n_failed == spec.n_lanes
        assert result.failures[0].attempts == 2

    def test_crash_fault_in_parent_is_supervised_not_fatal(self):
        # in the parent process the injected "crash" must raise, not
        # _exit the interpreter
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="crash")])
        with plan.active():
            with pytest.raises(WorkerCrashError):
                maybe_inject("run_shard", key=0, attempt=0)


class TestPooledSupervision:
    def test_worker_crash_respawns_pool_and_recovers(self, clean):
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="crash", start=12,
                                          fail_attempts=1)])
        with plan.active():
            with JobQueue(n_workers=2, retry=FAST) as queue:
                jobs = [queue.submit_shard(s) for s in _specs()]
                results = [j.result(timeout=60) for j in jobs]
                assert queue.pool_epoch >= 1  # exactly-once respawn ran
        merged = merge_shard_results(results)
        assert np.array_equal(merged.samples["vout"],
                              clean.samples["vout"])
        assert merged.n_failed == 0 and merged.failures == []

    def test_hung_shard_times_out_retries_bit_identical(self, clean):
        plan = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          start=6, fail_attempts=1,
                                          hang_seconds=1.5)])
        policy = RetryPolicy(max_attempts=3, base_delay=0.0,
                             deadline=0.75)
        with plan.active():
            with JobQueue(n_workers=2, retry=policy) as queue:
                jobs = [queue.submit_shard(s) for s in _specs()]
                results = [j.result(timeout=60) for j in jobs]
                assert jobs[1].failed_attempts == 1
        merged = merge_shard_results(results)
        assert np.array_equal(merged.samples["vout"],
                              clean.samples["vout"])

    def test_deadline_exhaustion_degrades_with_timeout_record(self,
                                                              clean):
        plan = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          start=6, hang_seconds=1.2)])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0,
                             deadline=0.4)
        with plan.active():
            with JobQueue(n_workers=2, retry=policy) as queue:
                jobs = [queue.submit_shard(s) for s in _specs()]
                results = [j.result(timeout=60) for j in jobs]
        merged = merge_shard_results(results)
        assert np.isnan(merged.samples["vout"][6:12]).all()
        ok = np.r_[0:6, 12:24]
        assert np.array_equal(merged.samples["vout"][ok],
                              clean.samples["vout"][ok])
        assert merged.n_failed == 6
        (rec,) = merged.failures
        assert rec.error == "JobTimeoutError"
        assert rec.attempts == 2

    def test_queued_past_deadline_degrades_not_cancelled(self):
        # backlog deeper than the pool (6 shards on 2 workers): the
        # deadline expires on attempts still PENDING in the queue, so
        # inner.cancel() *succeeds*.  That cancellation must count as
        # the timeout (retry, then degrade) - not surface as a
        # terminal CancelledError after a single attempt.
        specs = _specs(n=36, chunk=6)
        plan = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          hang_seconds=1.2)])
        policy = RetryPolicy(max_attempts=2, base_delay=0.0,
                             deadline=0.4)
        with plan.active():
            with JobQueue(n_workers=2, retry=policy) as queue:
                jobs = [queue.submit_shard(s) for s in specs]
                results = [j.result(timeout=60) for j in jobs]
        for job, result in zip(jobs, results):
            assert job.failed_attempts == 2  # full budget, every shard
            (rec,) = result.failures
            assert rec.error == "JobTimeoutError"
            assert rec.attempts == 2
        merged = merge_shard_results(results)
        assert merged.n_failed == 36
        assert np.isnan(merged.samples["vout"]).all()

    def test_submit_racing_pool_breakage_is_supervised(self):
        # pool.submit raises BrokenProcessPool synchronously while a
        # crashed pool awaits respawn; a dispatch hitting that window
        # must go through the crash machinery (respawn + retry), not
        # fail the job with the raw exception
        queue = JobQueue(n_workers=2, retry=FAST)
        real = queue._submit_raw
        calls = []

        def racing(fn, payload, attempt):
            calls.append(attempt)
            if len(calls) == 1:
                raise BrokenProcessPool(
                    "pool broke under a racing submit")
            return real(fn, payload, attempt)

        queue._submit_raw = racing
        try:
            job = queue.submit_shard(_specs()[0])
            result = job.result(timeout=60)
        finally:
            queue.shutdown()
        assert calls == [0, 1]  # first attempt broken, retry ran
        assert job.failed_attempts == 1
        assert queue.pool_epoch == 1  # the breakage forced a respawn
        assert result.n_failed == 0
        assert not np.isnan(result.samples["vout"]).any()

    def test_pooled_monte_carlo_with_crash_end_to_end(self, clean):
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="crash", start=0,
                                          fail_attempts=1)])
        with plan.active():
            sup = monte_carlo_dc(_divider(), {"vout": "out"}, n=24,
                                 seed=3, chunk_size=6, n_workers=2,
                                 retry=FAST)
        assert np.array_equal(sup.samples["vout"],
                              clean.samples["vout"])
        assert sup.failures == []

    def test_one_attempt_crash_fails_in_flight_job_and_respawns(self,
                                                                clean):
        # retry=None is one attempt under the same supervisor: a killed
        # worker fails the job it held with WorkerCrashError (never a
        # raw BrokenProcessPool), the pool respawns once, and the next
        # submission runs on the new pool
        spec = _specs()[0]
        hang = FaultPlan(rules=[FaultRule(site="run_shard", kind="hang",
                                          hang_seconds=30.0)])
        with JobQueue(n_workers=2) as queue:
            with hang.active():
                job = queue.submit_shard(spec)
            for pid in queue.pool_stats()["pids"]:
                os.kill(pid, signal.SIGKILL)
            with pytest.raises(WorkerCrashError):
                job.result(timeout=60)
            assert job.failed_attempts == 1
            result = queue.submit_shard(spec).result(timeout=60)
            assert queue.pool_stats()["epoch"] == 1
        assert np.array_equal(result.samples["vout"],
                              clean.samples["vout"][:spec.stop])

    def test_shutdown_cancels_queued_futures(self):
        # a failing map() unwinds through __exit__; cancel_futures=True
        # is what keeps the teardown from blocking on queued work
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence")])
        specs = _specs()
        with plan.active():
            with pytest.raises(ConvergenceError):
                with JobQueue(n_workers=2) as queue:  # unsupervised
                    jobs = [queue.submit_shard(s) for s in specs]
                    for job in jobs:
                        job.result(timeout=60)


class TestPlacements:
    @pytest.fixture(scope="class")
    def reference(self):
        return _custom_mc().samples["peak"]

    @pytest.mark.parametrize("placement", list(PLACEMENTS))
    def test_custom_measure_on_every_placement(self, placement,
                                               reference):
        kwargs = PLACEMENTS[placement]
        assert np.array_equal(_custom_mc(**kwargs).samples["peak"],
                              reference)
        # the run_shard fault site fires on every placement: one
        # attempt raises, a policy heals bit-identical
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence", start=4,
                                          fail_attempts=1)])
        with plan.active():
            if "retry" not in kwargs:
                with pytest.raises(ConvergenceError):
                    _custom_mc(**kwargs)
                return
            healed = _custom_mc(**kwargs)
        assert np.array_equal(healed.samples["peak"], reference)
        assert healed.n_failed == 0 and healed.failures == []


class TestRequestPath:
    def test_session_request_reports_failures(self):
        request = AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=24, seed=3, chunk_size=6,
            retry=RetryPolicy(max_attempts=2, base_delay=0.0))
        plan = FaultPlan(rules=[FaultRule(site="run_shard",
                                          kind="convergence",
                                          start=18)])
        with plan.active():
            with JobQueue(n_workers=2) as queue:
                result = queue.submit(request).result(timeout=60)
        assert result.summary["n_failed"] == 6
        (rec,) = result.failures
        assert isinstance(rec, FailureRecord)
        assert (rec.error, rec.start, rec.stop) == ("ConvergenceError",
                                                    18, 24)
        # the failures survived the worker's serialize round-trip
        # already; one more explicit round-trip for good measure
        again = AnalysisResult.from_dict(result.to_dict())
        assert again.failures == result.failures

    def test_retry_option_round_trips_through_request(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        request = AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=8, seed=3, retry=policy)
        decoded = AnalysisRequest.from_json(request.to_json())
        assert decoded.options["retry"] == policy.to_dict()
        # and a dict is accepted directly
        again = AnalysisRequest.monte_carlo_dc(
            _divider(), {"vout": "out"}, n=8, seed=3,
            retry=policy.to_dict())
        assert again.key() == request.key()


class TestFailureSerialization:
    def test_failure_record_round_trips(self):
        rec = FailureRecord.from_exception(
            ConvergenceError("diverged", iterations=40, residual=1e-3,
                             theta_fingerprint="abc123"),
            site="shard", attempts=3, start=10, stop=20)
        assert rec.iterations == 40 and rec.residual == 1e-3
        assert rec.n_lanes == 10
        assert from_jsonable(to_jsonable(rec)) == rec

    def test_shard_result_round_trips_failures(self):
        rec = FailureRecord(error="JobTimeoutError", message="slow",
                            site="shard", attempts=2, start=0, stop=4)
        result = ShardResult(
            kind="mc_dc", start=0, stop=4,
            samples={"vout": np.full(4, np.nan)}, n_failed=4,
            workload_key="k", failures=[rec])
        back = ShardResult.from_json(result.to_json())
        assert back.failures == [rec]
        assert np.isnan(back.samples["vout"]).all()

    def test_solver_errors_keep_context_through_pickle(self):
        for cls in (ConvergenceError, SingularMatrixError):
            exc = cls("bad", iterations=7, residual=2.5e-4,
                      theta_fingerprint="deadbeefdeadbeef")
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is cls
            assert back.context() == exc.context()
            rendered = str(back)
            assert "iterations=7" in rendered
            assert "residual=2.500e-04" in rendered
            assert "theta=deadbeefdead" in rendered
        assert str(ConvergenceError("plain")) == "plain"

    def test_retryable_taxonomy(self):
        assert ConvergenceError in RETRYABLE_ERRORS
        assert JobTimeoutError in RETRYABLE_ERRORS
        assert WorkerCrashError in RETRYABLE_ERRORS
        assert AnalysisError not in RETRYABLE_ERRORS


class TestMergeDiagnostics:
    def _result(self, start, stop):
        return ShardResult("mc_dc", start, stop,
                           {"m": np.zeros(stop - start)},
                           workload_key="k")

    def test_duplicate_span_named(self):
        with pytest.raises(AnalysisError,
                           match=r"duplicate shard span \[0, 4\)"):
            merge_shard_results([self._result(0, 4),
                                 self._result(0, 4)])

    def test_overlap_named(self):
        with pytest.raises(
                AnalysisError,
                match=r"\[0, 4\) overlaps \[2, 6\) on \[2, 4\)"):
            merge_shard_results([self._result(0, 4),
                                 self._result(2, 6)])

    def test_gap_named(self):
        with pytest.raises(AnalysisError,
                           match=r"span \[4, 6\) is missing"):
            merge_shard_results([self._result(0, 4),
                                 self._result(6, 8)])
