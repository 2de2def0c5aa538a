"""Process fan-out of analysis requests and Monte-Carlo shards.

:class:`JobQueue` executes :class:`~repro.service.requests.
AnalysisRequest` jobs - inline through a shared
:class:`~repro.service.session.AnalysisSession` when no pool is
requested, or across a process pool
(:func:`~repro.core.workers.worker_pool`) when one is.

Either way a request is looked up in the session's result memo first
(:meth:`AnalysisSession.cached <repro.service.session.AnalysisSession.
cached>`): a hit is served in the submitting process and never waits
for a worker.  A pooled miss goes to a worker process by pickle, with
its content key, and comes back as the summary-only result
(``detail is None``): the rich ``detail`` object holds live
factorizations and is deliberately not shipped back.  The submitting
process memoizes that result in its session
(:meth:`~repro.service.session.AnalysisSession.memoize`), so a repeat
returns ``from_cache=True`` with no second dispatch.  A composite kind
(``sweep``) runs in the submitting process and sends each of its cases
through the queue the same way; so does a Monte-Carlo request asking
for ``n_workers > 1``, whose shards (with its compile) go to the
workers in place of a second pool.  Inline execution keeps the full
detail.

Each worker process gets its own engine session, built by the queue
when the worker starts (:func:`~repro.core.workers.worker_pool`'s
*setup*) with the byte budget of the queue's session.  Its compiled
circuits and PSS orbits stay as long as that budget holds them, so a
request evicted from the result memo and sent again runs only what
follows the orbit, with the same bits.  Every worker result comes back
with that worker's store counters, which :meth:`JobQueue.worker_stats`
reports per PID.  Workers exit when the process that started them dies
(:mod:`repro.core.workers`).

Supervision
-----------
Every submission runs under a :class:`RetryPolicy` - the queue's
``retry=``, or the one a Monte-Carlo request carries for its shards;
``None`` is :data:`ONE_ATTEMPT`.  Every placement runs the same loop,
:func:`run_with_retry`: an inline job in the caller, a pooled one on a
supervising thread of the queue, a cross-host shard on a
:class:`~repro.service.resilience.WorkerPool` coordinator.  Only the
attempt differs, and what :meth:`RetryPolicy.for_placement` lets it
honour.  A pooled attempt is one blocking call: dispatch, then wait.

* each pooled attempt gets a wall-clock **deadline**, a timed wait on
  its future (inline execution cannot be preempted).  An overrun attempt is cancelled if still queued, or
  abandoned if running, and its future is never read again, so a late
  result can neither resolve the job nor merge a shard twice;
* failed attempts **retry with exponential backoff**, but only for
  errors a retry can plausibly fix (:data:`~repro.errors.
  RETRYABLE_ERRORS`) - malformed requests fail immediately, and no
  backoff follows the last attempt;
* a **worker crash** (``BrokenProcessPool``, at submit or in flight)
  fails only the attempts in flight, as
  :class:`~repro.errors.WorkerCrashError` (retried while attempts
  remain), and respawns the executor exactly once per breakage
  (pool-epoch guarded, however many jobs were in flight);
  re-execution is safe because shards are generative
  (:class:`~repro.service.shards.ShardSpec` redraws from the seed), so
  the bit-identical merge guarantee survives recovery;
* a shard that exhausts its attempts **degrades deterministically**
  (``RetryPolicy.degrade``, default on): its span merges NaN-frozen
  with ``n_failed`` accounting and a structured
  :class:`~repro.errors.FailureRecord`, instead of killing the run.

A pooled queue has :data:`SUPERVISORS_PER_WORKER` supervising threads
per worker process.  A supervising thread waits only on process-pool
futures, never on another job: a composite request or a fan-out
(:func:`_runs_in_front`) runs on a thread of its own, so a sweep
waiting on its cases cannot hold the supervisors its cases need.
Deadlines are measured from dispatch to the process pool, so time
spent queued behind busy workers counts (up to
:data:`SUPERVISORS_PER_WORKER` attempts per worker are dispatched at
once); size them with headroom over the per-shard runtime.
Fault injection for all of these paths lives in
:mod:`repro.service.faults`; the hooks sit in :func:`execute_shard`
and :func:`_run_request` and fire on both sides of the process
boundary: every attempt carries the plan that was active when its
job was submitted to the worker.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace

from ..core.workers import (shard_runner, worker_pids, worker_pool,
                            worker_state)
from ..errors import RETRYABLE_ERRORS, JobTimeoutError, WorkerCrashError
from .engines import engine_for, execute
from .faults import adopt_plan, maybe_inject, plan_text
from .requests import AnalysisRequest, AnalysisResult
from .session import AnalysisSession
from .shards import (ShardResult, ShardSpec, degraded_shard_result,
                     run_shard)


@dataclass(frozen=True)
class RetryPolicy:
    """Supervision parameters of every placement (a :class:`JobQueue`,
    a Monte-Carlo run, a :class:`~repro.service.resilience.WorkerPool`;
    ``None`` is :data:`ONE_ATTEMPT`); :data:`ENDPOINT_FIELDS` steer
    only a ``WorkerPool``'s choice of endpoint.

    ``delay(k)`` after the *k*-th failed attempt is
    ``base_delay * backoff**(k-1)`` seconds - classic exponential
    backoff, 0.05/0.1/0.2/... at the defaults.
    """

    #: Total attempts per job (first run + retries).
    max_attempts: int = 3
    #: Backoff before the first retry [s]; 0 disables sleeping.
    base_delay: float = 0.05
    #: Backoff growth factor per further retry.
    backoff: float = 2.0
    #: Per-attempt wall-clock limit [s]: ``None`` (unbounded) or a
    #: positive finite number.  Only pooled queues enforce it, from
    #: dispatch, so it includes time queued behind busy workers.
    deadline: float | None = None
    #: Degrade shard jobs that exhaust their attempts into NaN-frozen
    #: spans (:func:`~repro.service.shards.degraded_shard_result`)
    #: instead of raising.  Request jobs always raise.
    degrade: bool = True
    #: Consecutive infrastructure failures that open a breaker.
    failure_threshold: int = 3
    #: Seconds an open breaker waits before one half-open probe.
    cooldown: float = 1.0
    #: Once a shard outlives the pool's observed latency percentile,
    #: dispatch a duplicate elsewhere; the first result wins.
    hedge: bool = False
    #: Latency percentile (of recent clean calls) of a straggler.
    hedge_percentile: float = 95.0
    #: Clean calls observed before hedging arms (a percentile of two
    #: points is noise).
    hedge_min_samples: int = 3
    #: Hedge no earlier than this [s], whatever the percentile: a fast,
    #: jittery workload would otherwise hedge every shard.
    hedge_floor: float = 0.05

    def __post_init__(self):
        for names, valid, rule in _RULES:
            for name in names:
                value = getattr(self, name)
                try:
                    ok = not isinstance(value, bool) and valid(value)
                    # equal policies encode, and key a request, the same
                    if ok and name in _FLOAT_FIELDS and value is not None:
                        object.__setattr__(self, name, float(value))
                except OverflowError:   # an int too large for a float
                    ok = False
                if not ok:
                    raise ValueError(f"{type(self).__name__}.{name} must "
                                     f"be {rule}, got {value!r}")

    def delay(self, failed_attempts: int) -> float:
        """Backoff [s] after *failed_attempts* failures (>= 1)."""
        if self.base_delay <= 0.0:
            return 0.0
        return self.base_delay * self.backoff ** (failed_attempts - 1)

    def to_dict(self) -> dict:
        """The retry-loop fields, plus endpoint-selection fields off
        their defaults: so a process placement's policy encodes (and
        keys a request) as before API 2.2."""
        return {name: value for name, value in vars(self).items()
                if name not in ENDPOINT_FIELDS or value != _DEFAULTS[name]}

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)

    @classmethod
    def for_placement(cls, policy, endpoints: bool = False
                      ) -> "RetryPolicy":
        """*policy* (or its dict form) for a pool of HTTP endpoints
        (*endpoints*) or a process placement: a field the placement
        cannot honour is a :class:`ValueError` (a 400 on the wire)."""
        if not isinstance(policy, RetryPolicy):
            policy = cls.from_dict(policy)
        names, why = ((("deadline",), "a WorkerPool has no deadline")
                      if endpoints else
                      (ENDPOINT_FIELDS, "only a WorkerPool selects endpoints"))
        for name in names:
            value = getattr(policy, name)
            if value != _DEFAULTS[name]:
                raise ValueError(f"RetryPolicy.{name}={value!r} cannot be "
                                 f"honoured here: {why}")
        return policy


_DEFAULTS = {f.name: f.default for f in fields(RetryPolicy)}

#: The fields only a :class:`~repro.service.resilience.WorkerPool`
#: reads: its circuit breakers and hedging.
ENDPOINT_FIELDS = ("failure_threshold", "cooldown", "hedge",
                   "hedge_percentile", "hedge_min_samples", "hedge_floor")

#: The times and factors, stored as ``float`` whatever their spelling.
_FLOAT_FIELDS = ("base_delay", "backoff", "deadline", "cooldown",
                 "hedge_percentile", "hedge_floor")

#: ``(fields, test, rule)``: what a :class:`RetryPolicy` refuses (a
#: ``bool`` in any of these numeric fields, too).
_RULES = (
    (("max_attempts", "failure_threshold", "hedge_min_samples"),
     lambda v: isinstance(v, numbers.Integral) and v >= 1, "an integer >= 1"),
    (("base_delay", "backoff", "cooldown", "hedge_floor"),
     lambda v: isinstance(v, numbers.Real) and 0 <= v < math.inf,
     "a finite number >= 0"),
    (("hedge_percentile",),
     lambda v: isinstance(v, numbers.Real) and 0 < v <= 100, "in (0, 100]"),
    (("deadline",), lambda v: v is None or (
        isinstance(v, numbers.Real) and 0 < v < math.inf),
     "None or a positive finite number of seconds"))

#: The policy of ``retry=None``: one attempt, and a failure raises.
ONE_ATTEMPT = RetryPolicy(max_attempts=1, degrade=False)


class Job:
    """Handle on one submitted request."""

    def __init__(self, request, future: Future | None = None):
        self.request = request
        self.future = future
        #: Attempts the retry loop has seen fail so far, on every
        #: placement (0 for a job that succeeded first try).
        self.failed_attempts = 0

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: float | None = None):
        """The :class:`AnalysisResult` (or :class:`ShardResult` for
        shard jobs), blocking until available."""
        return self.future.result(timeout)


# -- worker-process entry points (module-level: picklable) -------------
#: The engine-store counters a worker reports with each result.
_REPORTED = ("size", "bytes", "hits", "misses")


def _engine_session(cache_bytes: int) -> AnalysisSession:
    """A worker's engine session (the pool's per-worker *setup*)."""
    return AnalysisSession(cache_bytes=cache_bytes)


def _report(session) -> tuple[int, dict]:
    """This worker's PID and its engine stores' counters."""
    stats = session.stats()
    return os.getpid(), {kind: {f: stats[kind][f] for f in _REPORTED}
                         for kind in ("compiled", "pss")}


def _run_request(request: AnalysisRequest, key: str, attempt: int = 0,
                 plan: str | None = None):
    adopt_plan(plan)
    maybe_inject("run_request", key=key, attempt=attempt)
    # the submitting process memoizes the result; the worker keeps
    # only compiles and orbits
    session = worker_state.get()
    result = replace(execute(session, request, key), detail=None)
    return result, _report(session)


def compiled_for_shard(spec: ShardSpec, session):
    """Compile a shard's circuit, through the session compile cache
    when that is semantically transparent (no session-level backend
    override that the spec does not know about)."""
    from .serialize import circuit_from_dict
    circuit = circuit_from_dict(spec.circuit)
    backend = spec.options.get("backend")
    if session is not None and session.backend is None:
        return session.compile(circuit, backend=backend)
    from ..analysis.mna import compile_circuit
    return compile_circuit(circuit, backend=backend)


def execute_shard(spec: ShardSpec, attempt: int = 0,
                   compiled=None) -> ShardResult:
    """One shard attempt: the fault-injection site, then the shard."""
    maybe_inject("run_shard", key=spec.start, attempt=attempt)
    return run_shard(spec, compiled)


def _run_shard(spec: ShardSpec, attempt: int = 0,
               plan: str | None = None, compiled=None):
    adopt_plan(plan)
    session = worker_state.get()
    if compiled is None:
        compiled = compiled_for_shard(spec, session)
    return execute_shard(spec, attempt, compiled), _report(session)


# ---------------------------------------------------------------------------
# supervision
# ---------------------------------------------------------------------------
def retry_pause(policy, error: BaseException, failed: int,
                retryable=None) -> float | None:
    """The default *pause* of :func:`run_with_retry`: the backoff
    ``policy.delay(failed)`` after an error *retryable(error)* admits
    (default: one of :data:`~repro.errors.RETRYABLE_ERRORS`), else
    ``None``: raise now."""
    admitted = (isinstance(error, RETRYABLE_ERRORS) if retryable is None
                else retryable(error))
    return policy.delay(failed) if admitted else None


def run_with_retry(policy, attempt_fn, degrade_fn=None, pause=None):
    """The retry loop of every placement: *attempt_fn(attempt)* until
    it succeeds, the policy's attempts run out, or *pause* says stop.

    After the *failed*-th failure, *pause(error, failed)* returns the
    wait [s] before the next attempt, or ``None`` to raise *error*
    now (default: :func:`retry_pause` of *policy*).  No wait follows
    the last attempt.  On exhaustion, *degrade_fn(last_error,
    attempts)*, when given, returns a degraded result (or raises);
    without one the last error raises.
    """
    if pause is None:
        pause = functools.partial(retry_pause, policy)
    delay = 0.0
    for attempt in range(policy.max_attempts):
        if delay > 0.0:
            time.sleep(delay)
        try:
            return attempt_fn(attempt)
        except Exception as exc:
            delay = pause(exc, attempt + 1)
            if delay is None:
                raise
            last = exc
    if degrade_fn is not None:
        return degrade_fn(last, policy.max_attempts)
    raise last


#: Supervising threads of a pooled :class:`JobQueue` per worker
#: process: each runs one job's retry loop, waiting on one attempt at
#: a time.
SUPERVISORS_PER_WORKER = 4


class JobQueue:
    """Fan independent analysis jobs across worker processes.

    Parameters
    ----------
    session:
        The session whose result memo every request is looked up in
        (and, inline, executed through); default: a private
        :class:`~repro.service.session.AnalysisSession` of this queue.
        A pooled queue needs its memo interface (``cached`` and
        ``memoize``), so only an inline queue accepts a
        :class:`~repro.service.client.RemoteSession`.
    n_workers:
        ``None`` executes every job inline at submission time; an
        integer (at least 1) starts a pool of that many worker
        processes now, each with an engine session of the session's
        ``cache_bytes`` budget, and up to
        :data:`SUPERVISORS_PER_WORKER` supervising threads per worker.
    retry:
        The :class:`RetryPolicy` (or its dict form) of every submission
        (deadlines, retry with backoff, shard degradation - see the
        module docstring).
        ``None`` (default) is :data:`ONE_ATTEMPT`: a failure raises,
        and a crashed worker fails only its in-flight jobs while the
        pool respawns.

    Use as a context manager, or call :meth:`shutdown`.
    """

    def __init__(self, session=None, n_workers: int | None = None,
                 retry: RetryPolicy | None = None):
        if session is None:
            session = AnalysisSession()
        self.session = session
        self.n_workers = n_workers
        self.retry = (ONE_ATTEMPT if retry is None
                      else RetryPolicy.for_placement(retry))
        if n_workers is not None and n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._inline = n_workers is None
        if not self._inline and not all(
                hasattr(session, name)
                for name in ("cached", "memoize", "cache_bytes")):
            raise TypeError(
                f"a pooled JobQueue needs a session with the result-memo "
                f"interface (cached, memoize) and an engine budget "
                f"(cache_bytes); {type(session).__name__} has none - run "
                f"it on an inline queue (n_workers=None)")
        self._pool_lock = threading.Lock()
        self._pool_epoch = 0
        self._dispatched = 0
        #: worker PID -> its engine stores as of its last result
        self._worker_stores: dict[int, dict] = {}
        self._pool = None if self._inline else self._new_pool()
        self._supervisors = None if self._inline else ThreadPoolExecutor(
            max_workers=SUPERVISORS_PER_WORKER * n_workers,
            thread_name_prefix="repro-supervise")

    # -- pool plumbing -------------------------------------------------
    def _new_pool(self):
        return worker_pool(self.n_workers, setup=functools.partial(
            _engine_session, self.session.cache_bytes))

    def _submit_raw(self, fn, payload,
                    attempt: int) -> tuple[Future, int]:
        """Submit ``fn(payload, attempt)``; returns its future and the
        pool epoch.  A pool that broke while idle is respawned first:
        no attempt ran on it, so none is charged."""
        for last_try in (False, True):
            with self._pool_lock:
                pool = self._pool
                epoch = self._pool_epoch
            if pool is None:
                raise RuntimeError("JobQueue is shut down")
            try:
                inner = pool.submit(fn, payload, attempt)
                break
            except BrokenProcessPool:
                if last_try:
                    raise
                self._respawn_pool(epoch)
        with self._pool_lock:
            self._dispatched += 1
        return inner, epoch

    def _attempt(self, fn, payload, deadline: float | None,
                 attempt: int):
        """One pooled attempt, blocking: ``fn(payload, attempt)`` on a
        worker, waited for at most *deadline* seconds from dispatch.

        An overrun raises :class:`~repro.errors.JobTimeoutError`; a
        still-queued attempt is cancelled and a running one abandoned.
        A pool broken at submit or in flight is respawned (once per
        breakage) and raises :class:`~repro.errors.WorkerCrashError`.
        """
        epoch = self._pool_epoch
        try:
            inner, epoch = self._submit_raw(fn, payload, attempt)
            if not futures_wait((inner,), timeout=deadline).done:
                inner.cancel()
                raise JobTimeoutError(f"attempt {attempt} exceeded the "
                                      f"{deadline} s deadline")
            raw = inner.result()
        except BrokenProcessPool as exc:
            self._respawn_pool(epoch)
            raise WorkerCrashError(
                f"worker process died mid-job: {exc}") from exc
        return self._reported(raw)

    def _respawn_pool(self, seen_epoch: int) -> None:
        """Replace a broken executor, exactly once per breakage.

        Every job in flight when a worker dies fails with
        ``BrokenProcessPool`` and calls in here; the epoch check makes
        the first caller respawn and the rest no-ops, so one crash
        costs one respawn however many shards it took down.
        """
        with self._pool_lock:
            if self._pool is None:
                raise RuntimeError("JobQueue is shut down")
            if self._pool_epoch != seen_epoch:
                return
            old = self._pool
            self._pool = self._new_pool()
            self._pool_epoch += 1
        old.shutdown(wait=False, cancel_futures=True)

    @property
    def pool_epoch(self) -> int:
        """Number of pool respawns survived so far."""
        return self._pool_epoch

    def pool_stats(self) -> dict:
        """The worker pool: configured ``workers`` (0 inline), live
        worker ``pids``, jobs ``dispatched`` to it (attempts, memo hits
        excluded) and the respawn ``epoch``."""
        with self._pool_lock:
            return {"workers": 0 if self._inline else self.n_workers,
                    "pids": worker_pids(self._pool),
                    "dispatched": self._dispatched,
                    "epoch": self._pool_epoch}

    def worker_stats(self) -> dict:
        """Each live worker's engine stores (``compiled`` and ``pss``:
        ``size``, ``bytes``, ``hits``, ``misses``) as it last
        reported them with a result, keyed by PID as a string (empty
        inline)."""
        with self._pool_lock:
            live = worker_pids(self._pool)
            return {str(pid): self._worker_stores[pid] for pid in live
                    if pid in self._worker_stores}

    def _reported(self, raw):
        """Record the worker report riding on *raw*; its value."""
        value, (pid, stores) = raw
        with self._pool_lock:
            self._worker_stores[pid] = stores
        return value

    # -- submission ----------------------------------------------------
    def submit(self, request: AnalysisRequest) -> Job:
        """Queue one request; returns immediately with a :class:`Job`.

        A memo hit resolves at once.  Inline queues execute a miss
        synchronously here (full ``detail`` available); pooled queues
        execute it in a worker and deliver (and memoize) the
        summary-only result.
        """
        if self._inline:
            def attempt_fn(attempt: int):
                maybe_inject("run_request", key=request.key(),
                             attempt=attempt)
                return self.session.run(request)
            return self._supervise(request, self.retry, attempt_fn)
        key = request.key()
        hit = self.session.cached(key)
        if hit is not None:
            return Job(request, _resolved(lambda: hit))
        if _runs_in_front(request):
            def run_in_front() -> AnalysisResult:
                token = shard_runner.set(self._run_shards)
                try:
                    return self.session.memoize(key, execute(
                        _QueuedSession(self), request, key))
                finally:
                    shard_runner.reset(token)
            return Job(request, _in_thread(run_in_front))

        # the key rides as the payload: _run_request(request, key, ...)
        run = functools.partial(_run_request, request, plan=plan_text())

        def attempt_fn(attempt: int) -> AnalysisResult:
            return self.session.memoize(key, self._attempt(
                run, key, self.retry.deadline, attempt))
        return self._supervise(request, self.retry, attempt_fn)

    def submit_shard(self, spec: ShardSpec) -> Job:
        """Queue one Monte-Carlo shard (see
        :mod:`repro.service.shards`); shards are never memoized."""
        return self._submit_shard(spec, self.retry)

    def _submit_shard(self, spec: ShardSpec, policy: RetryPolicy,
                      compiled=None) -> Job:
        if self._inline:
            def attempt_fn(attempt: int) -> ShardResult:
                return execute_shard(
                    spec, attempt,
                    compiled if compiled is not None
                    else compiled_for_shard(spec, self.session))
        else:
            attempt_fn = functools.partial(
                self._attempt, functools.partial(
                    _run_shard, plan=plan_text(), compiled=compiled),
                spec, policy.deadline)
        degrade_fn = (functools.partial(degraded_shard_result, spec)
                      if policy.degrade else None)
        return self._supervise(spec, policy, attempt_fn, degrade_fn)

    def _run_shards(self, specs, compiled, retry) -> list:
        """Run *specs* with *compiled* under *retry* (or its dict form;
        else the queue's policy); results in spec (= merge) order.  The
        :data:`~repro.core.workers.shard_runner` of a fan-out request
        run in this process, and the body of :func:`run_shards`."""
        policy = (self.retry if retry is None
                  else RetryPolicy.for_placement(retry))
        jobs = [self._submit_shard(spec, policy, compiled)
                for spec in specs]
        return [job.result() for job in jobs]

    def _supervise(self, item, policy: RetryPolicy, attempt_fn,
                   degrade_fn=None) -> Job:
        """A :class:`Job` running *attempt_fn* under *policy* through
        :func:`run_with_retry`: here on an inline queue, on a
        supervising thread on a pooled one."""
        job = Job(item)

        def pause(error: BaseException, failed: int) -> float | None:
            job.failed_attempts = failed
            return retry_pause(policy, error, failed)

        def supervise():
            return run_with_retry(policy, attempt_fn, degrade_fn, pause)

        job.future = (_resolved(supervise) if self._inline
                      else self._supervisors.submit(supervise))
        return job

    def map(self, requests) -> list:
        """Submit all *requests* and block for their results, in
        order."""
        jobs = [self.submit(r) for r in requests]
        return [job.result() for job in jobs]

    # -- lifecycle -----------------------------------------------------
    def shutdown(self, wait: bool = True,
                 cancel_futures: bool = True) -> None:
        """Stop the pool.  Queued-but-unstarted jobs are cancelled
        (*cancel_futures*), so a caller unwinding from a failed
        :meth:`map` does not block on work it no longer wants; pass
        ``wait=False`` to also skip waiting for already-running jobs.
        """
        with self._pool_lock:
            pool = self._pool
            self._pool = None
        if pool is not None:
            # the pool first: it resolves or cancels every attempt a
            # supervising thread may be waiting on
            pool.shutdown(wait=wait, cancel_futures=cancel_futures)
            self._supervisors.shutdown(wait=wait,
                                       cancel_futures=cancel_futures)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def _runs_in_front(request: AnalysisRequest) -> bool:
    """Whether a pooled queue runs *request*'s engine in the submitting
    process, sending its sub-requests (a composite kind) or its shards
    (a fan-out kind asking for ``n_workers > 1``) through the queue."""
    engine = engine_for(request.kind)
    return engine.composite or (
        engine.fan_out and (request.options.get("n_workers") or 1) > 1)


class _QueuedSession:
    """What an engine run in the submitting process sees as its
    session: the queue's session, except that sub-requests go through
    the queue itself (memo first, misses to workers)."""

    def __init__(self, queue: JobQueue):
        self.queue = queue

    def run(self, request: AnalysisRequest) -> AnalysisResult:
        return self.queue.submit(request).result()

    def __getattr__(self, name):
        return getattr(self.queue.session, name)


def _in_thread(fn) -> Future:
    """A future resolving to ``fn()``, run on a daemon thread."""
    future: Future = Future()

    def target() -> None:
        try:
            future.set_result(fn())
        except Exception as exc:
            future.set_exception(exc)

    threading.Thread(target=target, name="repro-front-job",
                     daemon=True).start()
    return future


def _resolved(fn) -> Future:
    """A future resolved with ``fn()``, run now in the caller, so
    inline and pooled jobs share an interface."""
    future: Future = Future()
    try:
        future.set_result(fn())
    except Exception as exc:  # propagate through the future
        future.set_exception(exc)
    return future


def run_shards(specs, compiled, n_workers: int | None = None,
               retry: RetryPolicy | None = None) -> list:
    """Execute Monte-Carlo shard *specs* with the caller's *compiled*
    circuit, under *retry* (or its dict form; ``None``:
    :data:`ONE_ATTEMPT`), returning results in spec (= merge) order.

    The shards run on a private pool of *n_workers* processes when
    that is more than one and there is more than one shard, else
    inline; either way through :meth:`JobQueue._run_shards`, the path
    a daemon's fan-out requests take."""
    pooled = n_workers is not None and n_workers > 1 and len(specs) > 1
    with JobQueue(n_workers=n_workers if pooled else None,
                  retry=retry) as queue:
        return queue._run_shards(specs, compiled, None)
