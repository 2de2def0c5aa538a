"""Client of the analysis daemon (stdlib :mod:`urllib` only).

:class:`RemoteSession` mirrors the in-process
:class:`~repro.service.session.AnalysisSession` surface - ``run(request)
-> AnalysisResult``, the named analysis conveniences, ``stats()`` - so
code written against a local session points at a URL instead and runs
unchanged; in particular it slots straight into an inline
:class:`~repro.service.jobs.JobQueue` as its ``session``.  Structured
wire errors (:func:`~repro.service.net.error_payload` records) are
reconstructed into the *same* exception classes the in-process call
would have raised, solver context and all, so error handling is also
transport-independent.

Cross-host Monte-Carlo rides on the shard protocol:
:func:`scatter_shards` fans planned :class:`~repro.service.shards.
ShardSpec` payloads across N worker daemons and
:func:`scatter_monte_carlo_transient` wraps the full plan -> scatter ->
span-ordered merge pipeline, producing samples bit-identical to the
in-process :func:`~repro.core.montecarlo.monte_carlo_transient` run at
equal ``chunk_size`` (the workers redraw the same seeded joint
sample set and slice their spans - see :mod:`repro.service.shards`).
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from .. import errors as _errors
from ..errors import (AnalysisError, JobTimeoutError, ReproError,
                      SolverError, TransportError)
from ..stats import summarize_samples
from .faults import maybe_inject
from .requests import (REQUEST_FORMAT_VERSION, AnalysisRequest,
                       AnalysisResult)
from .serialize import from_jsonable
from .shards import (SHARD_PROTOCOL_VERSION, ShardResult, ShardSpec,
                     mc_transient_shards, merge_shard_results)


def _rebuild_error(record) -> Exception:
    """The wire :class:`~repro.errors.FailureRecord` back as the
    exception the server-side engine raised (same class, same solver
    context), falling back to :class:`ReproError` for unknown names."""
    cls = getattr(_errors, record.error, None)
    if not (isinstance(cls, type) and issubclass(cls, ReproError)):
        return ReproError(f"{record.error}: {record.message}")
    if issubclass(cls, SolverError):
        return cls(record.message, iterations=record.iterations,
                   residual=record.residual,
                   theta_fingerprint=record.theta_fingerprint)
    return cls(record.message)


def _raise_wire_error(payload: dict, status: int) -> None:
    record = payload.get("error") if isinstance(payload, dict) else None
    if isinstance(record, dict) and record.get("__type__") == "FailureRecord":
        exc = _rebuild_error(from_jsonable(record))
    else:
        exc = ReproError(f"analysis daemon returned HTTP {status}: "
                         f"{payload!r}")
    # the HTTP status and the drain retry hint ride along so dispatch
    # policy (WorkerPool breakers, drain rerouting) can read them off
    # the reconstructed exception
    exc.http_status = status
    retry_after = (payload.get("retry_after")
                   if isinstance(payload, dict) else None)
    if retry_after is not None and getattr(exc, "retry_after",
                                           None) is None:
        exc.retry_after = float(retry_after)
    raise exc


class RemoteSession:
    """An analysis daemon as a session-shaped object.

    Parameters
    ----------
    base_url:
        The daemon's root URL (``http://host:port``).
    token:
        Tenant token, for daemons started with
        :class:`~repro.service.net.TenantConfig` entries.
    timeout:
        Per-call socket timeout [s].  Analysis runs synchronously
        inside ``POST /run``, so size this over the expected solve
        time (or use :meth:`submit` and poll).
    """

    def __init__(self, base_url: str, token: str | None = None,
                 timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        self._negotiated = False

    # -- transport -----------------------------------------------------
    def _call(self, method: str, path: str, payload=None,
              attempt: int = 0) -> dict:
        data = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        req = urllib.request.Request(self.base_url + path, data=data,
                                     method=method)
        req.add_header("Content-Type", "application/json")
        if self.token:
            req.add_header("Authorization", f"Bearer {self.token}")
        try:
            # the transport fault site sits before the socket is
            # touched; the key names the endpoint so a plan can drop
            # one daemon of a pool and leave the others alone
            maybe_inject("transport",
                         key=f"{self.base_url} {method} {path}",
                         attempt=attempt)
            with urllib.request.urlopen(req,
                                        timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as err:
            body = err.read().decode("utf-8", errors="replace")
            try:
                wire = json.loads(body)
            except json.JSONDecodeError:
                wire = {"raw": body}
            _raise_wire_error(wire, err.code)
        except (OSError, http.client.HTTPException) as err:
            # URLError, ConnectionError, socket.timeout, a connection
            # torn down mid-response: no HTTP reply ever arrived.
            # (HTTPError subclasses URLError, so it must be caught
            # above, not here.)
            raise TransportError(
                f"{method} {self.base_url}{path} got no HTTP response "
                f"({type(err).__name__}: {err})",
                endpoint=self.base_url, method=method) from err

    def _negotiate(self) -> None:
        """Refuse to talk across wire-format versions (once, lazily)."""
        if self._negotiated:
            return
        theirs = self.health().get("versions", {})
        ours = {"request_format": REQUEST_FORMAT_VERSION,
                "shard_protocol": SHARD_PROTOCOL_VERSION}
        if theirs != ours:
            raise AnalysisError(
                f"wire version mismatch: daemon at {self.base_url} "
                f"speaks {theirs}, this client speaks {ours}")
        self._negotiated = True

    # -- daemon surface ------------------------------------------------
    def health(self) -> dict:
        return self._call("GET", "/health")

    def stats(self) -> dict:
        """The daemon session's per-store counters - same shape as
        :meth:`AnalysisSession.stats`."""
        return self.server_stats()["session"]

    def server_stats(self) -> dict:
        """Full daemon statistics: session stores, tenant quotas,
        job-queue depth."""
        return self._call("GET", "/stats")

    def run(self, request: AnalysisRequest) -> AnalysisResult:
        """Execute *request* on the daemon, synchronously."""
        self._negotiate()
        return AnalysisResult.from_dict(
            self._call("POST", "/run", request.to_dict()))

    def submit(self, request: AnalysisRequest) -> "RemoteJob":
        """Queue *request* asynchronously; poll the returned job."""
        self._negotiate()
        data = self._call("POST", "/jobs", request.to_dict())
        return RemoteJob(self, data["key"])

    def run_shard(self, spec: ShardSpec,
                  attempt: int = 0) -> ShardResult:
        """Execute one Monte-Carlo shard on the daemon.  *attempt* is
        the dispatcher's re-dispatch counter, threaded into the
        transport fault site so ``fail_attempts`` rules heal across
        pool retries."""
        self._negotiate()
        return ShardResult.from_dict(
            self._call("POST", "/shard", spec.to_dict(),
                       attempt=attempt))

    def drain(self) -> dict:
        """Put the daemon into graceful drain (``POST /admin/drain``):
        in-flight and queued jobs finish and stay pollable, new work is
        refused with a tagged 503."""
        return self._call("POST", "/admin/drain")

    # -- session-shaped conveniences -----------------------------------
    def transient_mismatch(self, circuit, measures,
                           **kwargs) -> AnalysisResult:
        """The paper's sensitivity analysis, served remotely (summary
        only - the live detail object never crosses the wire)."""
        return self.run(AnalysisRequest.transient_mismatch(
            circuit, measures, **kwargs))

    def dc_mismatch(self, circuit, outputs: dict,
                    **kwargs) -> AnalysisResult:
        return self.run(AnalysisRequest.dc_mismatch(circuit, outputs,
                                                    **kwargs))

    def monte_carlo_transient(self, circuit, measures, n: int,
                              t_stop: float, dt: float,
                              **kwargs) -> AnalysisResult:
        return self.run(AnalysisRequest.monte_carlo_transient(
            circuit, measures, n, t_stop, dt, **kwargs))

    def monte_carlo_dc(self, circuit, outputs: dict, n: int,
                       **kwargs) -> AnalysisResult:
        return self.run(AnalysisRequest.monte_carlo_dc(circuit, outputs,
                                                       n, **kwargs))


class RemoteJob:
    """Handle on one asynchronously submitted request (mirrors
    :class:`~repro.service.jobs.Job`)."""

    def __init__(self, session: RemoteSession, key: str):
        self.session = session
        self.key = key

    def poll(self, attempt: int = 0) -> dict:
        """The raw job record: ``status`` plus result/error fields."""
        return self.session._call("GET", f"/jobs/{self.key}",
                                  attempt=attempt)

    def done(self) -> bool:
        return self.poll()["status"] in ("done", "failed")

    def result(self, timeout: float | None = None,
               poll_interval: float = 0.05,
               transport_retries: int = 5) -> AnalysisResult:
        """Block (polling) until the job finishes; raise its
        reconstructed error if it failed.

        Polls tolerate transient network failures: the job keeps
        running server-side whether or not a status request got
        through, so up to *transport_retries* consecutive
        :class:`~repro.errors.TransportError` polls are retried with
        backoff before the error propagates.
        """
        deadline = (time.monotonic() + timeout
                    if timeout is not None else None)
        misses = 0
        while True:
            try:
                data = self.poll(attempt=misses)
            except TransportError:
                misses += 1
                if misses > transport_retries:
                    raise
                if deadline is not None \
                        and time.monotonic() >= deadline:
                    raise
                time.sleep(poll_interval * min(2.0 ** (misses - 1),
                                               8.0))
                continue
            misses = 0
            if data["status"] == "done":
                return AnalysisResult.from_dict(data["result"])
            if data["status"] == "failed":
                raise _rebuild_error(from_jsonable(data["error"]))
            if deadline is not None and time.monotonic() >= deadline:
                raise JobTimeoutError(
                    f"job {self.key} still '{data['status']}' after "
                    f"{timeout} s")
            time.sleep(poll_interval)


# ---------------------------------------------------------------------------
# cross-host Monte-Carlo fan-out
# ---------------------------------------------------------------------------
def _as_sessions(workers) -> list[RemoteSession]:
    out = [w if isinstance(w, RemoteSession) else RemoteSession(w)
           for w in workers]
    if not out:
        raise ValueError("need at least one worker daemon")
    return out


def annotate_shard_failure(exc: BaseException, spec: ShardSpec,
                           endpoint: str) -> BaseException:
    """Tag a terminal shard failure with *which* span died on *which*
    endpoint, preserving the exception class (a scatter of 40 shards
    over 3 daemons is undebuggable without this)."""
    note = f"[shard [{spec.start}, {spec.stop}) on {endpoint}]"
    if note not in str(exc):
        if getattr(exc, "message", None) is not None:
            exc.message = f"{exc.message} {note}"
        if exc.args:
            exc.args = (f"{exc.args[0]} {note}",) + exc.args[1:]
        else:
            exc.args = (note,)
    exc.shard_span = (spec.start, spec.stop)
    exc.endpoint = endpoint
    return exc


def _run_static(session: RemoteSession,
                spec: ShardSpec) -> ShardResult:
    try:
        return session.run_shard(spec)
    except Exception as exc:
        raise annotate_shard_failure(exc, spec, session.base_url)


def scatter_shards(workers, specs: list[ShardSpec],
                   policy=None) -> list[ShardResult]:
    """Execute *specs* across *workers*, concurrently; results return
    in spec order, ready for
    :func:`~repro.service.shards.merge_shard_results`.

    *workers* may be URLs / :class:`RemoteSession` objects (static
    round-robin over the set) or a
    :class:`~repro.service.resilience.WorkerPool` (dynamic dispatch
    with failover, breakers and drain avoidance).  Passing *policy* (a
    :class:`~repro.service.resilience.ScatterPolicy`) with plain
    workers wraps them in a temporary pool for this call.

    On a terminal shard failure the outstanding not-yet-started shards
    are cancelled and the error propagates annotated with the failing
    span and endpoint.
    """
    from .resilience import WorkerPool
    if isinstance(workers, WorkerPool):
        return workers.scatter(specs)
    if policy is not None:
        with WorkerPool(workers, policy=policy) as pool:
            return pool.scatter(specs)
    sessions = _as_sessions(workers)
    with ThreadPoolExecutor(max_workers=len(sessions)) as pool:
        futures = [pool.submit(_run_static,
                               sessions[i % len(sessions)], spec)
                   for i, spec in enumerate(specs)]
        try:
            return [f.result() for f in futures]
        except BaseException:
            for f in futures:
                f.cancel()
            raise


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
        return {"metrics": {name: {"mean": float(st.mean),
                                   "sigma": float(st.std),
                                   "std_ci_low": float(st.std_ci_low),
                                   "std_ci_high": float(st.std_ci_high)}
                            for name, st in self.stats.items()},
                "n": self.n, "n_failed": self.n_failed}


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
