"""Client of the analysis daemon (stdlib :mod:`http.client` only).

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

Connections
-----------
A session keeps a free list of idle HTTP/1.1 keep-alive connections to
its daemon.  A call takes an idle connection or opens one, and puts it
back only after reading the whole response, so concurrent callers (the
threads and hedges of a :class:`~repro.service.resilience.WorkerPool`)
each hold their own, and a run of sequential calls pays one TCP
connect.  The daemon may close an idle connection between two calls
(it restarted, or was closed); a *reused* connection that fails before
a status line arrives - disconnected, reset, broken pipe - is replayed
once on a fresh connection.  That is safe because ``/run``, ``/shard``
and ``/jobs`` are content-addressed: running a request twice gives the
same answer.  A fresh connection's failure, and any socket timeout, is
never replayed: it raises :class:`~repro.errors.TransportError`,
chained to a :class:`urllib.error.URLError`.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import urllib.error
import urllib.parse

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


def _as_url_error(err: BaseException) -> urllib.error.URLError:
    """*err* as the :class:`urllib.error.URLError` a
    :class:`~repro.errors.TransportError` is chained to."""
    if isinstance(err, urllib.error.URLError):
        return err
    wrapped = urllib.error.URLError(err)
    wrapped.__cause__ = err
    return wrapped


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

    The session holds keep-alive connections (see the module
    docstring): use it as a context manager, or call :meth:`close`.
    """

    def __init__(self, base_url: str, token: str | None = None,
                 timeout: float = 60.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout = timeout
        url = urllib.parse.urlsplit(self.base_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"not an http(s) URL: {base_url!r}")
        self._connection_class = (http.client.HTTPSConnection
                                  if url.scheme == "https"
                                  else http.client.HTTPConnection)
        self._host, self._port, self._prefix = (url.hostname, url.port,
                                                url.path)
        self._idle: list[http.client.HTTPConnection] = []
        self._closed = False
        self._lock = threading.Lock()
        self._negotiate_lock = threading.Lock()
        self._negotiated = False

    # -- transport -----------------------------------------------------
    def _call(self, method: str, path: str, payload=None,
              attempt: int = 0) -> dict:
        body = (json.dumps(payload).encode("utf-8")
                if payload is not None else None)
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        try:
            # the transport fault site sits before the socket is
            # touched; the key names the endpoint so a plan can drop
            # one daemon of a pool and leave the others alone
            maybe_inject("transport",
                         key=f"{self.base_url} {method} {path}",
                         attempt=attempt)
            status, raw = self._exchange(method, self._prefix + path,
                                         body, headers)
        except (OSError, http.client.HTTPException) as err:
            # refused, reset, timed out, torn down mid-response: no
            # HTTP reply ever arrived
            raise TransportError(
                f"{method} {self.base_url}{path} got no HTTP response "
                f"({type(err).__name__}: {err})",
                endpoint=self.base_url,
                method=method) from _as_url_error(err)
        if not 200 <= status < 300:
            text = raw.decode("utf-8", errors="replace")
            try:
                wire = json.loads(text)
            except json.JSONDecodeError:
                wire = {"raw": text}
            _raise_wire_error(wire, status)
        return json.loads(raw.decode("utf-8"))

    def _exchange(self, method: str, target: str, body: bytes | None,
                  headers: dict) -> tuple[int, bytes]:
        """One request and its whole response on a connection of the
        free list: ``(status, body)``."""
        conn, reused = self._checkout()
        try:
            while True:
                try:
                    conn.request(method, target, body=body,
                                 headers=headers)
                    response = conn.getresponse()
                    break
                except ConnectionError:
                    # no status line: the daemon closed this idle
                    # connection before it read the request (it was
                    # closed or restarted) - one replay, fresh
                    if not reused:
                        raise
                    conn.close()
                    conn, reused = self._connection(), False
            raw = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._checkin(conn)
        return response.status, raw

    def _connection(self) -> http.client.HTTPConnection:
        """A fresh connection; it connects on its first request."""
        return self._connection_class(self._host, self._port,
                                      timeout=self.timeout)

    def _checkout(self) -> tuple[http.client.HTTPConnection, bool]:
        """An idle connection (``reused=True``) or a fresh one."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self._connection(), False

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(conn)
                return
        conn.close()

    def close(self) -> None:
        """Close the idle connections; one in use closes when its call
        ends.  Calls made afterwards still work, each on a connection
        of its own that it closes."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "RemoteSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _negotiate(self) -> None:
        """Refuse to talk across wire-format versions (once, lazily:
        concurrent first calls wait on one ``GET /health``)."""
        if self._negotiated:
            return
        with self._negotiate_lock:
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
# helper of the cross-host scatter (repro.service.resilience)
# ---------------------------------------------------------------------------
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
