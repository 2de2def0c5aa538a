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
``None`` is :data:`ONE_ATTEMPT`.  Inline jobs run through
:func:`run_with_retry`, pooled ones under one ``_Supervised`` each:

* each attempt gets a wall-clock **deadline** (pooled queues only -
  inline execution cannot be preempted); an overrun attempt is
  abandoned and re-dispatched, and its stale result, should the hung
  worker ever produce one, is discarded by a generation check, so a
  shard is never merged twice;
* failed attempts **retry with exponential backoff**, but only for
  errors a retry can plausibly fix (:data:`~repro.errors.
  RETRYABLE_ERRORS`) - malformed requests fail immediately;
* a **worker crash** (``BrokenProcessPool``) fails only the jobs in
  flight, as :class:`~repro.errors.WorkerCrashError` (retried while
  attempts remain), and respawns the executor exactly once per
  breakage (pool-epoch guarded, however many jobs were in flight);
  re-execution is safe because shards are generative
  (:class:`~repro.service.shards.ShardSpec` redraws from the seed), so
  the bit-identical merge guarantee survives recovery;
* a shard that exhausts its attempts **degrades deterministically**
  (``RetryPolicy.degrade``, default on): its span merges NaN-frozen
  with ``n_failed`` accounting and a structured
  :class:`~repro.errors.FailureRecord`, instead of killing the run.

Deadlines are measured from dispatch, so time spent queued behind busy
workers counts; size them with headroom over the per-shard runtime.
Fault injection for all of these paths lives in
:mod:`repro.service.faults`; the hooks sit in :func:`execute_shard`
and :func:`_run_request` and fire on both sides of the process
boundary: every dispatch carries the submitter's active plan to the
worker.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from concurrent.futures import CancelledError, Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace

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
    """Supervision parameters of one :class:`JobQueue` (or one
    Monte-Carlo run); ``retry=None`` everywhere means
    :data:`ONE_ATTEMPT`.

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
    #: Per-attempt wall-clock limit [s] (``None``: unbounded).  Only
    #: enforceable on pooled queues; measured from dispatch, so it
    #: includes time queued behind busy workers.
    deadline: float | None = None
    #: Degrade shard jobs that exhaust their attempts into NaN-frozen
    #: spans (:func:`~repro.service.shards.degraded_shard_result`)
    #: instead of raising.  Request jobs always raise.
    degrade: bool = True

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("RetryPolicy.max_attempts must be >= 1")

    def delay(self, failed_attempts: int) -> float:
        """Backoff [s] after *failed_attempts* failures (>= 1)."""
        if self.base_delay <= 0.0:
            return 0.0
        return self.base_delay * self.backoff ** (failed_attempts - 1)

    def to_dict(self) -> dict:
        return {"max_attempts": self.max_attempts,
                "base_delay": self.base_delay, "backoff": self.backoff,
                "deadline": self.deadline, "degrade": self.degrade}

    @classmethod
    def from_dict(cls, data: dict) -> "RetryPolicy":
        return cls(**data)


#: The policy of ``retry=None``: one attempt, and a failure raises.
ONE_ATTEMPT = RetryPolicy(max_attempts=1, degrade=False)


class Job:
    """Handle on one submitted request."""

    def __init__(self, request, future: Future, supervisor=None):
        self.request = request
        self.future = future
        self._supervisor = supervisor

    def done(self) -> bool:
        return self.future.done()

    def result(self, timeout: float | None = None):
        """The :class:`AnalysisResult` (or :class:`ShardResult` for
        shard jobs), blocking until available."""
        return self.future.result(timeout)

    @property
    def failed_attempts(self) -> int:
        """Attempts the supervisor has seen fail so far (0 for inline
        jobs, and for pooled ones that succeeded first try)."""
        return (self._supervisor.attempts
                if self._supervisor is not None else 0)


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
                         for kind in ("compiled", "states", "pss")}


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
# inline supervision
# ---------------------------------------------------------------------------
def run_with_retry(policy: RetryPolicy, attempt_fn, degrade_fn):
    """Synchronous retry loop: *attempt_fn(attempt)* until success,
    retryable-error budget exhaustion, or a non-retryable error.

    *degrade_fn(last_error, attempts)*, when given, converts
    exhaustion into a degraded result instead of a raise.
    """
    last: BaseException | None = None
    for attempt in range(policy.max_attempts):
        if attempt:
            delay = policy.delay(attempt)
            if delay > 0.0:
                time.sleep(delay)
        try:
            return attempt_fn(attempt)
        except RETRYABLE_ERRORS as exc:
            last = exc
    if degrade_fn is not None:
        return degrade_fn(last, policy.max_attempts)
    raise last


# ---------------------------------------------------------------------------
# pooled supervision
# ---------------------------------------------------------------------------
class _Supervised:
    """Supervisor of one pooled job: deadlines, retries, degradation.

    All state transitions are guarded by a generation token: every
    re-dispatch invalidates the previous attempt, so a stale completion
    (a timed-out worker finishing late, a pool-breakage race) can never
    resolve the job a second time or double-merge a shard.  The token
    is what makes crash re-dispatch *exactly once* per attempt - the
    idempotency key is the job itself, whose shard payload is
    content-addressed (:meth:`ShardSpec.workload_key`).
    """

    def __init__(self, queue: "JobQueue", fn, payload, decode,
                 policy: RetryPolicy, degrade_fn=None):
        self.queue = queue
        self.fn = fn
        self.payload = payload
        self.decode = decode
        self.policy = policy
        self.degrade_fn = degrade_fn
        self.future: Future = Future()
        #: Failed attempts so far (== the attempt index dispatched next).
        self.attempts = 0
        self._lock = threading.Lock()
        self._generation = 0
        self._inner: Future | None = None
        self._epoch = 0
        self._timer: threading.Timer | None = None
        #: Generation whose inner-future cancellation is the deadline
        #: timer's doing (so ``_on_done`` defers to it); shutdown
        #: cancels never set this and stay terminal.
        self._deadline_cancel_gen: int | None = None
        self._done = False
        self._dispatch()

    # -- attempt lifecycle --------------------------------------------
    def _dispatch(self) -> None:
        with self._lock:
            if self._done:
                return
            gen = self._generation
            attempt = self.attempts
        try:
            inner, epoch = self.queue._submit_raw(self.fn, self.payload,
                                                  attempt)
        except BrokenProcessPool as exc:
            # the submit raced another job's pool breakage before any
            # supervisor respawned: route it through the crash
            # machinery (WorkerCrashError conversion, epoch-guarded
            # respawn, retry budget) like an in-flight breakage
            with self._lock:
                self._epoch = self.queue.pool_epoch
            self._handle_failure(exc, gen)
            return
        except Exception as exc:  # queue shut down mid-retry
            self._finish_exception(exc)
            return
        with self._lock:
            if self._done or gen != self._generation:
                inner.cancel()
                return
            self._inner = inner
            self._epoch = epoch
            if self.policy.deadline is not None:
                self._timer = threading.Timer(self.policy.deadline,
                                              self._on_deadline, [gen])
                self._timer.daemon = True
                self._timer.start()
        inner.add_done_callback(lambda fut: self._on_done(fut, gen))

    def _on_done(self, fut: Future, gen: int) -> None:
        with self._lock:
            if self._done or gen != self._generation:
                return  # stale attempt: result discarded
            if fut.cancelled() and self._deadline_cancel_gen == gen:
                # the deadline timer cancelled this still-queued
                # attempt and owns the failure: its JobTimeoutError
                # retries/degrades, where a CancelledError would kill
                # the job outright
                return
            self._cancel_timer()
            exc = (CancelledError() if fut.cancelled()
                   else fut.exception())
            if exc is None:
                self._done = True
                raw = fut.result()
        if exc is None:
            try:
                self.future.set_result(self.decode(raw))
            except Exception as dexc:
                self.future.set_exception(dexc)
        else:
            self._handle_failure(exc, gen)

    def _on_deadline(self, gen: int) -> None:
        with self._lock:
            if self._done or gen != self._generation:
                return
            inner = self._inner
            self._deadline_cancel_gen = gen  # claim the cancel below
        if inner is not None:
            inner.cancel()  # a queued attempt dies here (its _on_done
            #                 defers to this timeout); a running one is
            #                 abandoned to its fate and gated stale
        self._handle_failure(JobTimeoutError(
            f"attempt {self.attempts} exceeded the "
            f"{self.policy.deadline} s deadline"), gen)

    def _handle_failure(self, exc: BaseException, gen: int) -> None:
        respawn_epoch = None
        with self._lock:
            if self._done or gen != self._generation:
                return  # deadline/completion race: first cause wins
            self._cancel_timer()
            self._generation += 1
            self.attempts += 1
            if isinstance(exc, BrokenProcessPool):
                exc = WorkerCrashError(
                    f"worker process died mid-job: {exc}")
                respawn_epoch = self._epoch
            retryable = isinstance(exc, RETRYABLE_ERRORS)
            will_retry = (retryable
                          and self.attempts < self.policy.max_attempts)
            attempts = self.attempts
        if respawn_epoch is not None:
            try:
                self.queue._respawn_pool(respawn_epoch)
            except Exception:
                will_retry = False  # queue shut down underneath us
        if will_retry:
            delay = self.policy.delay(attempts)
            if delay > 0.0:
                timer = threading.Timer(delay, self._dispatch)
                timer.daemon = True
                timer.start()
            else:
                self._dispatch()
            return
        if retryable and self.degrade_fn is not None:
            with self._lock:
                self._done = True
            try:
                self.future.set_result(self.degrade_fn(exc, attempts))
            except Exception as dexc:
                self.future.set_exception(dexc)
        else:
            self._finish_exception(exc)

    # -- helpers -------------------------------------------------------
    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _finish_exception(self, exc: BaseException) -> None:
        with self._lock:
            if self._done:
                return
            self._done = True
            self._cancel_timer()
        self.future.set_exception(exc)


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
        ``cache_bytes`` budget.
    retry:
        The :class:`RetryPolicy` of every submission (deadlines, retry
        with backoff, shard degradation - see the module docstring).
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
        self.retry = ONE_ATTEMPT if retry is None else retry
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

    # -- pool plumbing -------------------------------------------------
    def _new_pool(self):
        return worker_pool(self.n_workers, setup=functools.partial(
            _engine_session, self.session.cache_bytes))

    def _submit_raw(self, fn, payload,
                    attempt: int) -> tuple[Future, int]:
        """Submit one attempt; returns its future and the pool epoch.
        A pool that broke while idle is respawned first: no attempt
        ran on it, so none is charged."""
        for last_try in (False, True):
            with self._pool_lock:
                pool = self._pool
                epoch = self._pool_epoch
            if pool is None:
                raise RuntimeError("JobQueue is shut down")
            try:
                inner = pool.submit(fn, payload, attempt, plan_text())
                break
            except BrokenProcessPool:
                if last_try:
                    raise
                self._respawn_pool(epoch)
        with self._pool_lock:
            self._dispatched += 1
        return inner, epoch

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
        """Each live worker's engine stores (``compiled``, ``states``,
        ``pss``: ``size``, ``bytes``, ``hits``, ``misses``) as it last
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
            return Job(request, _inline_future(
                self.retry, attempt_fn, None))
        key = request.key()
        hit = self.session.cached(key)
        if hit is not None:
            return Job(request, _inline_future(
                self.retry, lambda _: hit, None))
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
        return self._dispatch(
            request, functools.partial(_run_request, request), key,
            lambda result: self.session.memoize(key, result), self.retry)

    def submit_shard(self, spec: ShardSpec) -> Job:
        """Queue one Monte-Carlo shard (see
        :mod:`repro.service.shards`); shards are never memoized."""
        return self._submit_shard(spec, self.retry)

    def _submit_shard(self, spec: ShardSpec, policy: RetryPolicy,
                      compiled=None) -> Job:
        degrade_fn = None
        if policy.degrade:
            def degrade_fn(exc, attempts):
                return degraded_shard_result(spec, exc, attempts)
        if self._inline:
            def attempt_fn(attempt: int) -> ShardResult:
                return execute_shard(
                    spec, attempt,
                    compiled if compiled is not None
                    else compiled_for_shard(spec, self.session))
            return Job(spec, _inline_future(policy, attempt_fn,
                                            degrade_fn))
        fn = (_run_shard if compiled is None
              else functools.partial(_run_shard, compiled=compiled))
        return self._dispatch(spec, fn, spec, lambda result: result,
                              policy, degrade_fn)

    def _run_shards(self, specs, compiled, retry) -> list:
        """Run *specs* with *compiled* under *retry* (else the queue's
        policy); results in spec (= merge) order.  The
        :data:`~repro.core.workers.shard_runner` of a fan-out request
        run in this process, and the body of :func:`run_shards`."""
        policy = self.retry if retry is None else retry
        jobs = [self._submit_shard(spec, policy, compiled)
                for spec in specs]
        return [job.result() for job in jobs]

    def _dispatch(self, item, fn, payload, decode, policy: RetryPolicy,
                  degrade_fn=None) -> Job:
        """Send one job to the pool under its own supervisor."""
        sup = _Supervised(self, fn, payload,
                          lambda raw: decode(self._reported(raw)),
                          policy, degrade_fn)
        return Job(item, sup.future, supervisor=sup)

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
            pool.shutdown(wait=wait, cancel_futures=cancel_futures)

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


def _inline_future(policy: RetryPolicy, attempt_fn,
                   degrade_fn) -> Future:
    """Execute now under *policy*; deliver through a resolved future
    so inline and pooled jobs share an interface."""
    future: Future = Future()
    try:
        future.set_result(run_with_retry(policy, attempt_fn, degrade_fn))
    except Exception as exc:  # propagate through the future
        future.set_exception(exc)
    return future


def run_shards(specs, compiled, n_workers: int | None = None,
               retry: RetryPolicy | None = None) -> list:
    """Execute Monte-Carlo shard *specs* with the caller's *compiled*
    circuit, under *retry* (``None``: :data:`ONE_ATTEMPT`), returning
    results in spec (= merge) order.

    The shards run on a private pool of *n_workers* processes when
    that is more than one and there is more than one shard, else
    inline; either way through :meth:`JobQueue._run_shards`, the path
    a daemon's fan-out requests take."""
    pooled = n_workers is not None and n_workers > 1 and len(specs) > 1
    with JobQueue(n_workers=n_workers if pooled else None) as queue:
        return queue._run_shards(specs, compiled, retry)
