"""Fault-tolerant cross-host execution: worker pools over N daemons.

A shard sent across the wire runs under the same retry loop as one
run in process (:func:`~repro.service.jobs.run_with_retry`): attempts
with backoff, then degrade or raise.  What differs is what fails - a
daemon SIGKILLed mid-shard, a connection reset, a slow straggler, or
a host draining for a rolling restart - and this module decides where
each attempt goes:

* :class:`CircuitBreaker` - one endpoint's health automaton: *closed*
  (traffic flows) -> *open* after ``failure_threshold`` consecutive
  transport/5xx failures (traffic stops) -> *half-open* after
  ``cooldown`` seconds (exactly one probe request is let through;
  success closes the breaker, failure re-opens it).  Breakers stop a
  dead endpoint from charging every shard a connection timeout before
  the pool routes around it.
* :class:`~repro.service.jobs.RetryPolicy` - every placement's policy:
  attempt budget, backoff, degrade-vs-raise, and the fields only a pool
  reads (breaker thresholds, hedged dispatch); a pool refuses a
  ``deadline``.
* :class:`WorkerPool` - N endpoints behind one ``scatter``: shards are
  dispatched dynamically to the least-loaded healthy endpoint (not
  round-robin, so a lost endpoint's share redistributes), a shard whose
  endpoint fails is retried with backoff on the next healthy endpoint
  (safe because :class:`~repro.service.shards.ShardSpec` is generative
  and idempotent - re-execution is bit-identical), a draining endpoint
  (tagged 503) is rerouted without tripping its breaker, and a shard
  that exhausts every endpoint degrades into NaN-frozen lanes carrying
  a :class:`~repro.errors.FailureRecord` with ``site="transport"`` -
  the in-process degrade contract, instead of aborting the run.
  Optional *hedging* duplicates a shard that outlives the observed
  latency percentile onto a second endpoint; the first result wins and
  the straggler is discarded before the merge (results are taken once
  per span, so a late loser can never double-merge).
* :func:`scatter_shards` / :func:`scatter_monte_carlo_transient` -
  cross-host Monte-Carlo through the caller's pool, or a temporary one
  over plain endpoints, so every shard sent over HTTP runs under a
  pool's per-shard supervision.

Because every shard redraws its samples from the seed, none of this
perturbs the numbers: a scatter that survived a killed daemon, a
drained daemon and a hedged straggler merges bit-identical to the
fault-free in-process :func:`~repro.core.montecarlo.
monte_carlo_transient` run.  ``tests/test_resilience.py`` proves it on
loopback; ``benchmarks/bench_scatter_chaos.py`` gates the clean-path
overhead (<= 5%).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures import wait as futures_wait
from dataclasses import dataclass, field

from ..errors import DrainingError, TransportError
from ..stats import summarize_samples
from .client import RemoteSession, annotate_shard_failure
from .engines import mc_summary
from .jobs import ONE_ATTEMPT, RetryPolicy, retry_pause, run_with_retry
from .shards import (ShardResult, ShardSpec, degraded_shard_result,
                     mc_transient_shards, merge_shard_results)

#: Circuit-breaker states (see :class:`CircuitBreaker`).
BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


def is_infrastructure_failure(exc: BaseException) -> bool:
    """Whether *exc* indicts the *endpoint* rather than the workload:
    transport failures (no HTTP response at all) and 5xx responses.
    These count against the circuit breaker and reroute the shard;
    everything else (4xx, solver errors) is the workload's own problem
    and propagates."""
    if isinstance(exc, DrainingError):
        return False  # drain is deliberate, not a failure
    if isinstance(exc, TransportError):
        return True
    return getattr(exc, "http_status", 0) >= 500


class CircuitBreaker:
    """Per-endpoint failure automaton: closed -> open -> half-open.

    Thread-safe; *clock* is injectable for tests.  ``allow()`` is the
    gate a dispatcher asks before sending traffic - it owns the
    open -> half-open transition and hands out exactly one probe slot,
    so however many shard threads ask at once, a recovering endpoint
    sees one trial request, not a thundering herd.
    """

    def __init__(self, failure_threshold: int = 3,
                 cooldown: float = 1.0, clock=time.monotonic):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._state = BREAKER_CLOSED
        self._failures = 0
        self._opened_at: float | None = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            self._maybe_half_open()
            return self._state

    def _maybe_half_open(self) -> None:
        # caller holds the lock
        if (self._state == BREAKER_OPEN
                and self._clock() - self._opened_at >= self.cooldown):
            self._state = BREAKER_HALF_OPEN
            self._probing = False

    def allow(self) -> bool:
        """May a request go to this endpoint right now?  In half-open,
        the first caller claims the single probe slot; the rest are
        refused until the probe resolves."""
        with self._lock:
            self._maybe_half_open()
            if self._state == BREAKER_CLOSED:
                return True
            if self._state == BREAKER_HALF_OPEN and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            self._state = BREAKER_CLOSED
            self._failures = 0
            self._opened_at = None
            self._probing = False

    def record_failure(self) -> None:
        with self._lock:
            self._failures += 1
            if (self._state == BREAKER_HALF_OPEN
                    or self._failures >= self.failure_threshold):
                self._state = BREAKER_OPEN
                self._opened_at = self._clock()
                self._probing = False

    def __repr__(self) -> str:
        return (f"CircuitBreaker(state={self.state!r}, "
                f"failures={self._failures})")


class _Endpoint:
    """One worker daemon inside the pool: session + breaker + flags."""

    def __init__(self, session: RemoteSession, policy: RetryPolicy):
        self.session = session
        self.breaker = CircuitBreaker(
            failure_threshold=policy.failure_threshold,
            cooldown=policy.cooldown)
        self.draining = False
        self.in_flight = 0
        self.dispatched = 0
        self.failures = 0

    @property
    def url(self) -> str:
        return self.session.base_url

    def stats(self) -> dict:
        return {"url": self.url, "breaker": self.breaker.state,
                "draining": self.draining,
                "dispatched": self.dispatched,
                "failures": self.failures,
                "in_flight": self.in_flight}


class WorkerPool:
    """N worker daemons behind one fault-tolerant ``scatter``.

    Parameters
    ----------
    workers:
        Endpoint URLs or :class:`~repro.service.client.RemoteSession`
        objects.  Sessions the pool builds from URLs close with it;
        sessions passed in stay the caller's.
    policy:
        A :class:`~repro.service.jobs.RetryPolicy` (or its dict form)
        without a ``deadline``; default ``RetryPolicy()``.
    probe_interval:
        When set, a background daemon thread probes every endpoint's
        ``GET /health`` this often [s]: a healthy probe closes the
        breaker and refreshes the ``draining`` flag, a failed probe
        counts like a failed request.  ``None`` (default) relies on
        request traffic and half-open probes alone; :meth:`probe` runs
        one sweep on demand either way.

    Use as a context manager, or call :meth:`close`.
    """

    def __init__(self, workers, policy: RetryPolicy | None = None,
                 probe_interval: float | None = None):
        self.policy = (RetryPolicy() if policy is None else
                       RetryPolicy.for_placement(policy, endpoints=True))
        #: Sessions this pool built from URLs, closed with it.
        self._owned: list[RemoteSession] = []
        self._endpoints = []
        for worker in workers:
            if not isinstance(worker, RemoteSession):
                worker = RemoteSession(worker)
                self._owned.append(worker)
            self._endpoints.append(_Endpoint(worker, self.policy))
        if not self._endpoints:
            raise ValueError("need at least one worker daemon")
        self._lock = threading.Lock()
        self._rr = 0
        self._latencies: deque = deque(maxlen=128)
        self._hedges = 0
        self._hedge_wins = 0
        n = len(self._endpoints)
        coordinators = max(4, 2 * n)
        self._coord = ThreadPoolExecutor(
            max_workers=coordinators, thread_name_prefix="repro-scatter")
        # every coordinator may hold a primary plus a hedge in flight;
        # sizing the call executor at 2x keeps that deadlock-free
        self._calls = ThreadPoolExecutor(
            max_workers=2 * coordinators, thread_name_prefix="repro-call")
        self._probe_stop = threading.Event()
        self._probe_thread: threading.Thread | None = None
        if probe_interval is not None:
            self._probe_thread = threading.Thread(
                target=self._probe_loop, args=(probe_interval,),
                name="repro-pool-probe", daemon=True)
            self._probe_thread.start()

    # -- endpoint selection --------------------------------------------
    def _pick(self, exclude: tuple = ()) -> _Endpoint | None:
        """The least-loaded healthy endpoint (round-robin tiebreak),
        or a half-open probe slot, or ``None`` when nothing will take
        traffic right now."""
        with self._lock:
            self._rr += 1
            rr = self._rr
            n = len(self._endpoints)
            closed = [(ep, i) for i, ep in enumerate(self._endpoints)
                      if ep not in exclude and not ep.draining
                      and ep.breaker.state == BREAKER_CLOSED]
            if closed:
                ep, _ = min(closed, key=lambda pair: (
                    pair[0].in_flight, (pair[1] - rr) % n))
                return ep
            # no closed breaker: try to claim a half-open probe slot
            for i in range(n):
                ep = self._endpoints[(rr + i) % n]
                if ep in exclude or ep.draining:
                    continue
                if ep.breaker.allow():
                    return ep
            # relax the exclusion before giving up: a shard that just
            # failed on the only live endpoint should still retry there
            for i in range(n):
                ep = self._endpoints[(rr + i) % n]
                if not ep.draining and ep.breaker.allow():
                    return ep
            return None

    # -- one attempt ---------------------------------------------------
    def _timed_run(self, ep: _Endpoint, spec: ShardSpec,
                   attempt: int) -> ShardResult:
        """One HTTP shard execution with full accounting: latency on
        success, breaker bookkeeping on infrastructure failure, the
        ``draining`` flag on a tagged 503."""
        with self._lock:
            ep.in_flight += 1
            ep.dispatched += 1
        t0 = time.perf_counter()
        try:
            result = ep.session.run_shard(spec, attempt=attempt)
        except DrainingError:
            with self._lock:
                ep.draining = True
            raise
        except Exception as exc:
            if is_infrastructure_failure(exc):
                ep.breaker.record_failure()
                with self._lock:
                    ep.failures += 1
            raise
        else:
            ep.breaker.record_success()
            with self._lock:
                self._latencies.append(time.perf_counter() - t0)
            return result
        finally:
            with self._lock:
                ep.in_flight -= 1

    def _hedge_threshold(self) -> float | None:
        """Seconds after which a running shard counts as a straggler,
        or ``None`` while hedging is off / not yet armed."""
        if not self.policy.hedge:
            return None
        with self._lock:
            lat = sorted(self._latencies)
        if len(lat) < self.policy.hedge_min_samples:
            return None
        rank = self.policy.hedge_percentile / 100.0 * len(lat)
        index = min(len(lat) - 1, max(0, int(rank + 0.5) - 1))
        return max(lat[index], self.policy.hedge_floor)

    def _call_with_hedge(self, ep: _Endpoint, spec: ShardSpec,
                         attempt: int) -> ShardResult:
        """Execute on *ep*; past the straggler threshold, duplicate
        onto another endpoint and take the first result that lands.
        The loser keeps running server-side but its result is dropped
        here - only one result per span ever reaches the merge."""
        primary = self._calls.submit(self._timed_run, ep, spec, attempt)
        threshold = self._hedge_threshold()
        if threshold is None:
            return primary.result()
        try:
            return primary.result(timeout=threshold)
        except FuturesTimeoutError:
            pass
        alt = self._pick(exclude=(ep,))
        if alt is None or alt is ep:
            return primary.result()
        with self._lock:
            self._hedges += 1
        secondary = self._calls.submit(self._timed_run, alt, spec,
                                       attempt)
        pending = {primary, secondary}
        last_exc: BaseException | None = None
        while pending:
            done, pending = futures_wait(pending,
                                         return_when=FIRST_COMPLETED)
            for fut in done:
                try:
                    result = fut.result()
                except Exception as exc:
                    last_exc = exc
                else:
                    if fut is secondary:
                        with self._lock:
                            self._hedge_wins += 1
                    return result
        raise last_exc

    # -- the scatter path ----------------------------------------------
    def _run_one(self, spec: ShardSpec) -> ShardResult:
        """One shard under the policy, through
        :func:`~repro.service.jobs.run_with_retry`: each attempt goes
        to the best endpoint but the one that just failed; a drain
        reroutes at once, an infrastructure failure after backoff, a
        workload error raises; a shard out of attempts degrades (or
        raises) with the last endpoint failure."""
        policy = self.policy
        tried: list[str] = []
        last_ep: _Endpoint | None = None
        last_exc: BaseException | None = None

        def attempt_fn(attempt: int) -> ShardResult:
            nonlocal last_ep, last_exc
            ep = self._pick(
                exclude=(last_ep,) if last_ep is not None else ())
            if ep is None:
                raise TransportError(
                    f"no healthy endpoint for shard [{spec.start}, "
                    f"{spec.stop}) (all breakers open or draining)")
            if ep.url not in tried:
                tried.append(ep.url)
            try:
                return self._call_with_hedge(ep, spec, attempt)
            except Exception as exc:
                if not (isinstance(exc, DrainingError)
                        or is_infrastructure_failure(exc)):
                    raise annotate_shard_failure(exc, spec, ep.url)
                last_ep, last_exc = ep, exc
                raise

        def pause(exc: BaseException, failed: int) -> float | None:
            if isinstance(exc, DrainingError):
                return 0.0  # a deliberate refusal: reroute at once
            return retry_pause(policy, exc, failed,
                               retryable=is_infrastructure_failure)

        def exhausted(last: BaseException, attempts: int) -> ShardResult:
            # tagged like a terminal failure, chained to the last
            # endpoint error
            last = last_exc or last
            exc = TransportError(
                f"shard [{spec.start}, {spec.stop}) exhausted {attempts} "
                f"attempts across the pool "
                f"({', '.join(tried) or 'no endpoint reachable'}); "
                f"last error: {last}",
                endpoint=tried[-1] if tried else None)
            exc.shard_span = (spec.start, spec.stop)
            exc.__cause__ = last
            if not policy.degrade:
                raise exc
            return degraded_shard_result(spec, exc, attempts,
                                         site="transport")

        return run_with_retry(policy, attempt_fn, exhausted, pause)

    def scatter(self, specs: list[ShardSpec]) -> list[ShardResult]:
        """Execute *specs* across the pool; results return in spec
        order, ready for :func:`~repro.service.shards.
        merge_shard_results`.  A terminal (non-infrastructure) shard
        failure cancels the not-yet-started remainder and propagates,
        naming the shard and endpoint."""
        futures = [self._coord.submit(self._run_one, spec)
                   for spec in specs]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise

    # -- health probing ------------------------------------------------
    def probe(self) -> dict:
        """One health sweep over every endpoint; returns
        :meth:`stats`.  A healthy response closes the breaker and
        refreshes ``draining`` from the payload; a failed probe counts
        like a failed request."""
        for ep in self._endpoints:
            try:
                health = ep.session.health()
            except Exception:
                ep.breaker.record_failure()
                with self._lock:
                    ep.failures += 1
            else:
                with self._lock:
                    ep.draining = bool(health.get("draining", False))
                ep.breaker.record_success()
        return self.stats()

    def _probe_loop(self, interval: float) -> None:
        while not self._probe_stop.wait(interval):
            try:
                self.probe()
            except Exception:  # pragma: no cover - probes never raise
                pass

    # -- introspection / lifecycle -------------------------------------
    @property
    def endpoints(self) -> list[str]:
        return [ep.url for ep in self._endpoints]

    def stats(self) -> dict:
        with self._lock:
            hedges, wins = self._hedges, self._hedge_wins
            samples = len(self._latencies)
        return {"endpoints": [ep.stats() for ep in self._endpoints],
                "hedges": hedges, "hedge_wins": wins,
                "latency_samples": samples}

    def close(self) -> None:
        self._probe_stop.set()
        if self._probe_thread is not None:
            self._probe_thread.join(timeout=5.0)
            self._probe_thread = None
        self._coord.shutdown(wait=False, cancel_futures=True)
        self._calls.shutdown(wait=False, cancel_futures=True)
        for session in self._owned:
            session.close()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# cross-host Monte-Carlo
# ---------------------------------------------------------------------------
def scatter_shards(workers, specs: list[ShardSpec],
                   policy: RetryPolicy | None = None
                   ) -> list[ShardResult]:
    """Execute *specs* across *workers*, concurrently; results return
    in spec order, ready for
    :func:`~repro.service.shards.merge_shard_results`.

    *workers* is a :class:`WorkerPool`, which scatters under its own
    policy (passing *policy* too is a :class:`ValueError`), or URLs /
    :class:`~repro.service.client.RemoteSession` objects, scattered
    through a temporary pool under *policy*; ``None`` is
    :data:`~repro.service.jobs.ONE_ATTEMPT`, so each shard goes once to
    the least-loaded endpoint and the first failure raises.

    A terminal shard failure cancels the not-yet-started shards and
    propagates - a workload error as itself, an exhausted shard as a
    :class:`~repro.errors.TransportError` chained to the last error -
    carrying ``shard_span`` and ``endpoint``.
    """
    if isinstance(workers, WorkerPool):
        if policy is not None:
            raise ValueError("a WorkerPool scatters under its own "
                             "policy; set it on the pool, not here")
        return workers.scatter(specs)
    with WorkerPool(workers, policy=policy or ONE_ATTEMPT) as pool:
        return pool.scatter(specs)


@dataclass
class ScatterResult:
    """A scattered Monte-Carlo run, merged: the same sample/statistics
    surface as :class:`~repro.core.montecarlo.MonteCarloResult` (the
    samples are bit-identical to the in-process run; the live deltas
    stay on the workers)."""

    n: int
    samples: dict
    stats: dict
    n_failed: int = 0
    failures: list = field(default_factory=list)
    runtime_seconds: float = 0.0

    def sigma(self, metric: str) -> float:
        return self.stats[metric].std

    def mean(self, metric: str) -> float:
        return self.stats[metric].mean

    def summary(self) -> dict:
        """The :class:`~repro.service.requests.AnalysisResult` summary
        shape of this run (what ``POST /run`` of the whole workload
        would report)."""
        return mc_summary(self)


def scatter_monte_carlo_transient(workers, circuit, measures, n: int,
                                  t_stop: float, dt: float,
                                  chunk_size: int = 250, policy=None,
                                  **kwargs) -> ScatterResult:
    """One coordinator, N worker daemons: plan the shard set
    (:func:`~repro.service.shards.mc_transient_shards`), scatter it,
    merge span-ordered.

    Accepts the planner's keywords (``window``, ``seed``,
    ``sigma_scale``, ``param_covariance``, ``variations``, ``method``,
    ``backend``, ...) plus *workers*/*policy* as in
    :func:`scatter_shards`.  Statistics are computed over the finite
    merged samples exactly as :func:`~repro.core.montecarlo.
    monte_carlo_transient` computes them, so at equal *chunk_size* the
    whole result - samples and statistics - matches the in-process run
    bit for bit.  A run whose *every* lane was lost to transport
    failures raises one :class:`~repro.errors.TransportError`
    summarizing the loss (statistics over zero samples mean nothing);
    partial transport loss degrades like any other lane failure.
    """
    t_begin = time.perf_counter()
    specs = mc_transient_shards(circuit, measures, n, t_stop, dt,
                                chunk_size=chunk_size, **kwargs)
    merged = merge_shard_results(
        scatter_shards(workers, specs, policy=policy))
    if merged.n_failed >= n and merged.failures and all(
            f.site == "transport" for f in merged.failures):
        raise TransportError(
            f"all {n} lanes lost to transport failures across "
            f"{len(specs)} shards; first: "
            f"{merged.failures[0].message}")
    stats, _ = summarize_samples(merged.samples)
    return ScatterResult(n=n, samples=merged.samples, stats=stats,
                         n_failed=merged.n_failed,
                         failures=list(merged.failures),
                         runtime_seconds=time.perf_counter() - t_begin)
