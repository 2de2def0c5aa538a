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

This module is the transport only.  Cross-host Monte-Carlo - sending
shards to N daemons and merging them - lives with the worker pool that
supervises it, in :mod:`repro.service.resilience`; that module calls
:meth:`RemoteSession.run_shard` and tags failures with
:func:`annotate_shard_failure`.
"""

from __future__ import annotations

import http.client
import json
import time
import urllib.error
import urllib.request

from .. import errors as _errors
from ..errors import (AnalysisError, JobTimeoutError, ReproError,
                      SolverError, TransportError)
from .faults import maybe_inject
from .requests import (REQUEST_FORMAT_VERSION, AnalysisRequest,
                       AnalysisResult)
from .serialize import from_jsonable
from .shards import SHARD_PROTOCOL_VERSION, ShardResult, ShardSpec


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
# helpers of the cross-host scatter (repro.service.resilience)
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
