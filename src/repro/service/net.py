"""HTTP front-end of the analysis service (stdlib only).

The daemon serves the exact wire formats the lower layers already
speak - :meth:`AnalysisRequest.to_dict` payloads and
:class:`~repro.service.shards.ShardSpec` shards - over a
:class:`http.server.ThreadingHTTPServer`.  ``/run``, ``/shard`` and
``/jobs`` all go through one pooled
:class:`~repro.service.jobs.JobQueue` over one shared
:class:`~repro.service.session.AnalysisSession`: the daemon is one
front process plus ``job_workers`` engine processes.  The front decodes,
answers memo hits from the session, and serializes; engine misses and
shards run in the workers, off the front's interpreter, and a miss's
summary is memoized in the front.  Nothing here re-implements
execution: a request served over HTTP runs the same registered engine
as an in-process
:meth:`AnalysisSession.run <repro.service.session.AnalysisSession.run>`,
so the summaries (and the request keys they memoize under) are
bit-identical.

Endpoints
---------
``GET /health``
    Liveness + version negotiation: wire versions
    (``REQUEST_FORMAT_VERSION``, ``SHARD_PROTOCOL_VERSION``), the
    facade ``API_VERSION`` and the registered kinds.  Unauthenticated.
``GET /stats``
    Session store counters, the ``body_index`` (``size``,
    ``capacity``, ``hits``, ``misses``), the engine pool (``workers``,
    ``pids``, ``dispatched``, respawn ``epoch``), each engine
    process's stores under ``workers`` (by PID: ``compiled``,
    ``states`` and ``pss``, each ``size``, ``bytes``, ``hits``,
    ``misses``, as last reported with a result), per-tenant quota
    counters, the asynchronous job count and the HTTP ``connections``
    (``open`` now, ``accepted`` in all).
``POST /run``
    Execute one :class:`AnalysisRequest` synchronously; returns the
    ``AnalysisResult.to_dict()`` summary.  A body seen before is a
    memo hit without decoding: the sha256 of the raw body indexes its
    request key (see "Memo hits" below).
``POST /shard``
    Execute one :class:`ShardSpec`; returns ``ShardResult.to_dict()``.
    This is the cross-host fan-out surface: a coordinator plans shards
    with :func:`~repro.service.shards.mc_transient_shards`, scatters
    them over N daemons (:func:`~repro.service.resilience.scatter_shards`)
    and merges bit-identically via
    :func:`~repro.service.shards.merge_shard_results`.
``POST /jobs``
    Asynchronous submit; returns ``202`` with the job key (the
    request's content key - resubmitting an identical request returns
    the same job instead of queueing twice).
``GET /jobs/<key>``
    Poll: ``running`` / ``done`` (with the result) / ``failed`` (with
    the structured error record).
``POST /admin/drain``
    Graceful drain for rolling restarts: the daemon stops accepting
    new ``/run``/``/shard``/``/jobs`` work - each refused with a
    tagged 503 (:class:`~repro.errors.DrainingError` payload carrying
    ``retry_after``) - while in-flight and queued jobs run to
    completion and stay pollable through ``GET /jobs/<key>``.
    ``GET /health`` reports ``draining: true`` so load balancers and
    :class:`~repro.service.resilience.WorkerPool` probes route around
    the daemon instead of tripping its circuit breaker.

Memo hits
---------
A ``/run`` hit costs a C-speed digest of its body and two dictionary
lookups: ``sha256(body)`` -> request key (the body-digest index) ->
memoized result -> serialize.  The index is an LRU with as many
entries as the session's result memo; an entry is written only after
a successful answer, so a malformed body or a refused version never
enters it.  A body the index does not know, or whose result has left
the memo, takes the full path - decode, :meth:`AnalysisRequest.key
<repro.service.requests.AnalysisRequest.key>`, memo, engine - and two
bodies that differ only in key order or whitespace share one memo
entry.  ``/shard`` is never memoized and ``/jobs`` always decodes.

Connections
-----------
The daemon speaks HTTP/1.1 keep-alive: one handler thread serves every
request of one connection, so a client that keeps its connection
(:class:`~repro.service.client.RemoteSession` does) pays no connect and
no thread start per request.  Each response leaves in one write, on a
socket with ``TCP_NODELAY``: headers and body sent apart would hold the
body back until the client's delayed ACK of the headers (~40 ms).  A
request body an endpoint does not read (an error answered early) is
read off the socket before the reply, or - past ``max_body_bytes`` -
the connection closes after it, so the next request on the connection
is never parsed out of a stale body.  :meth:`AnalysisServer.close`
shuts every open connection down: a client holding one gets a
:class:`~repro.errors.TransportError`, never an answer from a closed
daemon.  A connection that sits idle for :data:`IDLE_TIMEOUT_S` is
closed by the daemon, so a client that never closes its session, or
vanishes without a FIN, does not hold a handler thread forever; a
:class:`~repro.service.client.RemoteSession` whose idle connection was
closed this way replays its next request once on a fresh one.

Tenancy
-------
When the server is constructed with :class:`TenantConfig` entries,
every endpoint except ``/health`` requires a token
(``Authorization: Bearer <token>`` or ``X-Repro-Token``).  Each tenant
gets a bounded result quota layered *on top of* the session LRUs: the
session stays shared (two tenants running the same workload share one
cached result), but once a tenant holds more than ``max_results``
distinct result keys its oldest keys are evicted from the session memo
- unless another tenant still holds them - so one chatty tenant cannot
wash out everyone else's warm cache.  ``max_pending_jobs`` bounds the
asynchronous queue per tenant the same way.

Errors
------
Every error leaves as one tagged payload built from
:class:`~repro.errors.FailureRecord` (the same schema degraded shard
results carry), with the HTTP status mapped from the exception
hierarchy - see :func:`status_for` - and the registered kinds listed on
unknown-kind errors.  Supervision is server-side: construct the server
with ``retry=RetryPolicy(...)`` and transient solver faults retry (or
degrade, for shards) exactly as they do on an in-process queue,
surfacing as ``failures`` on a ``200`` rather than as a 5xx.  The
policy's deadlines apply too.  Under any policy, the default one
attempt included, a crashed engine process fails only the jobs in
flight on it (``WorkerCrashError``, a 502) and the pool respawns.
"""

from __future__ import annotations

import hashlib
import json
import socket
import sys
import threading
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from ..errors import (AnalysisError, AuthenticationError, DrainingError,
                      FailureRecord, JobTimeoutError, MeasurementError,
                      NetlistError, QuotaExceededError, ReproError,
                      SolverError, TransportError, WorkerCrashError)
from .engines import registered_kinds
from .jobs import JobQueue, RetryPolicy
from .requests import REQUEST_FORMAT_VERSION, AnalysisRequest
from .serialize import to_jsonable
from .session import AnalysisSession, _LruStore
from .shards import SHARD_PROTOCOL_VERSION, ShardSpec

#: Seconds a keep-alive connection may wait for its next request before
#: the daemon closes it and frees its handler thread.  Far above the
#: pauses of a client that is still using its connection (a closed-loop
#: client's think time, a benchmark's gap between segments), so only an
#: abandoned connection ever meets it.
IDLE_TIMEOUT_S = 30.0


def wire_versions() -> dict:
    """The version vector negotiated through ``GET /health``."""
    return {"request_format": REQUEST_FORMAT_VERSION,
            "shard_protocol": SHARD_PROTOCOL_VERSION}


def _api_version() -> str | None:
    # lazy: repro.api imports this module (serve / AnalysisServer)
    try:
        from ..api import API_VERSION
    except ImportError:  # stripped installs without the facade
        return None
    return API_VERSION


# ---------------------------------------------------------------------------
# uniform error schema
# ---------------------------------------------------------------------------
def status_for(exc: BaseException) -> int:
    """HTTP status of *exc*, mapped from the exception hierarchy.

    Client mistakes (malformed payloads, unknown kinds, bad netlists)
    are 4xx; numerical failures are ``422 Unprocessable`` - the request
    was well-formed, the mathematics refused; infrastructure failures
    map to their conventional 5xx; anything unrecognised is a 500.
    """
    if isinstance(exc, AuthenticationError):
        return 401
    if isinstance(exc, QuotaExceededError):
        return 429
    if isinstance(exc, DrainingError):
        return 503
    if isinstance(exc, JobTimeoutError):
        return 504
    if isinstance(exc, (WorkerCrashError, TransportError)):
        return 502
    if isinstance(exc, (SolverError, MeasurementError)):
        return 422
    if isinstance(exc, (AnalysisError, NetlistError, ReproError)):
        return 400
    if isinstance(exc, (ValueError, TypeError, KeyError,
                        json.JSONDecodeError)):
        return 400
    return 500


def error_payload(exc: BaseException, status: int,
                  site: str = "net") -> dict:
    """One tagged wire error: a serialized
    :class:`~repro.errors.FailureRecord` (solver context and all), the
    mapped *status*, the version vector, and - for unknown-kind errors
    - the kinds this daemon does speak."""
    record = FailureRecord.from_exception(exc, site=site, attempts=1)
    payload = {"error": to_jsonable(record), "status": status,
               "versions": wire_versions()}
    retry_after = getattr(exc, "retry_after", None)
    if retry_after is not None:
        # the 503 drain tag: clients (and WorkerPool) read this to
        # retry elsewhere instead of treating the daemon as dead
        payload["retry_after"] = float(retry_after)
    message = record.message
    if "unknown request kind" in message or "unknown shard kind" in message:
        payload["kinds"] = list(registered_kinds())
    return payload


class _HttpError(ReproError):
    """Internal: an error with an explicit HTTP status (404s mostly)."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


# ---------------------------------------------------------------------------
# tenancy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class TenantConfig:
    """One tenant of the daemon: its token and its quotas."""

    name: str
    token: str
    #: Distinct result keys this tenant may hold in the session memo
    #: before its oldest are evicted (refcounted across tenants).
    max_results: int = 32
    #: Unfinished asynchronous jobs this tenant may have queued.
    max_pending_jobs: int = 8

    def __post_init__(self):
        if self.max_results < 1:
            raise ValueError("TenantConfig.max_results must be >= 1")
        if self.max_pending_jobs < 1:
            raise ValueError("TenantConfig.max_pending_jobs must be >= 1")


#: The implicit tenant of an open (token-less) daemon.
ANONYMOUS = TenantConfig(name="anonymous", token="",
                         max_results=10 ** 9, max_pending_jobs=10 ** 9)


class _TenantState:
    """Mutable per-tenant accounting (quota keys + counters)."""

    def __init__(self, config: TenantConfig):
        self.config = config
        #: Result keys this tenant holds, oldest first.
        self.keys: OrderedDict = OrderedDict()
        self.requests = 0
        self.evictions = 0

    def stats(self) -> dict:
        return {"results": len(self.keys),
                "max_results": self.config.max_results,
                "requests": self.requests,
                "evictions": self.evictions}


class _JobRecord:
    """One asynchronous job: its future plus the tenants awaiting it."""

    def __init__(self, key: str, tenants: set):
        self.key = key
        self.tenants = tenants
        self.future: Future | None = None

    def status(self) -> str:
        if self.future is None or not self.future.done():
            return "running"
        return "failed" if self.future.exception() is not None else "done"


# ---------------------------------------------------------------------------
# the application (transport-free: the handler only parses/serializes)
# ---------------------------------------------------------------------------
class ServiceApp:
    """Endpoint logic over one shared session - everything the HTTP
    handler does after parsing and before serializing.  Keeping it off
    the handler class makes the surface testable without sockets and
    reusable by a future transport.

    *job_workers* (at least 1) engine processes execute memo misses
    and shards; *session* is the memo in front of them.
    """

    def __init__(self, session: AnalysisSession | None = None,
                 tenants: list[TenantConfig] | None = None,
                 retry: RetryPolicy | None = None,
                 job_workers: int = 2,
                 max_body_bytes: int = 16 * 2 ** 20,
                 drain_retry_after: float = 5.0):
        self.session = session if session is not None else AnalysisSession()
        self.max_body_bytes = max_body_bytes
        self.drain_retry_after = drain_retry_after
        self._draining = threading.Event()
        # one queue for /run, /shard and /jobs: memo hits answered here,
        # misses and shards on the engine processes, all under `retry`
        # supervision.  Its workers start now, before this app's server
        # starts its threads (see worker_pool for what that guarantees).
        # They fork from this process, so the one module an engine
        # loads on first use, scipy.special (the Monte-Carlo summaries'
        # quantiles), is loaded here: no request pays it in a worker.
        import scipy.special  # noqa: F401
        self.queue = JobQueue(session=self.session, n_workers=job_workers,
                              retry=retry)
        self._open = tenants is None
        roster = [ANONYMOUS] if tenants is None else list(tenants)
        self._by_token = {t.token: _TenantState(t) for t in roster}
        if len(self._by_token) != len(roster):
            raise ValueError("tenant tokens must be unique")
        self._quota_lock = threading.Lock()
        #: result key -> set of tenant names holding it (refcount).
        self._owners: dict[str, set] = {}
        self._jobs_lock = threading.Lock()
        self._jobs: dict[str, _JobRecord] = {}
        #: sha256 of a ``/run`` body -> its request key.  As many
        #: entries as the result memo, each a 32-byte digest and a
        #: 64-character key, so the entry bound is a byte bound too.
        self._bodies = _LruStore(self.session.results.capacity)

    # -- auth ----------------------------------------------------------
    def authenticate(self, token: str | None) -> _TenantState:
        if self._open:
            return self._by_token[""]
        if not token:
            raise AuthenticationError(
                "missing tenant token (Authorization: Bearer <token> "
                "or X-Repro-Token)")
        try:
            return self._by_token[token]
        except KeyError:
            raise AuthenticationError("unknown tenant token") from None

    # -- per-tenant result quota ---------------------------------------
    def _record_result(self, tenant: _TenantState, key: str) -> None:
        """Charge *key* to *tenant*; evict its oldest keys over quota,
        dropping each from the session memo only once no tenant holds
        it (the session LRU itself stays shared)."""
        evict = []
        with self._quota_lock:
            tenant.requests += 1
            tenant.keys[key] = True
            tenant.keys.move_to_end(key)
            self._owners.setdefault(key, set()).add(tenant.config.name)
            while len(tenant.keys) > tenant.config.max_results:
                old, _ = tenant.keys.popitem(last=False)
                holders = self._owners.get(old, set())
                holders.discard(tenant.config.name)
                tenant.evictions += 1
                if not holders:
                    self._owners.pop(old, None)
                    evict.append(old)
        for old in evict:
            self.session.evict_result(old)

    # -- graceful drain ------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self) -> dict:
        """Stop accepting new ``/run``/``/shard``/``/jobs`` work (each
        now refused with a tagged 503) while everything already
        accepted - including queued asynchronous jobs - runs to
        completion and stays pollable.  Idempotent; this is the rolling
        -restart protocol: drain, wait for ``pending`` to reach 0, stop
        the process."""
        self._draining.set()
        with self._jobs_lock:
            pending = sum(1 for j in self._jobs.values()
                          if j.status() == "running")
        return {"status": "draining", "pending_jobs": pending,
                "retry_after": self.drain_retry_after}

    def _refuse_if_draining(self, what: str) -> None:
        if self._draining.is_set():
            raise DrainingError(
                f"daemon is draining and accepts no new {what}; "
                f"in-flight work is finishing - retry another endpoint "
                f"or wait retry_after={self.drain_retry_after} s",
                retry_after=self.drain_retry_after)

    # -- endpoints -----------------------------------------------------
    def health(self) -> dict:
        return {"status": "draining" if self.draining else "ok",
                "api_version": _api_version(),
                "versions": wire_versions(),
                "kinds": list(registered_kinds()),
                "authenticated": not self._open,
                "draining": self.draining}

    def stats(self) -> dict:
        with self._jobs_lock:
            jobs = list(self._jobs.values())
        return {"session": self.session.stats(),
                "body_index": self._bodies.stats(),
                "pool": self.queue.pool_stats(),
                "workers": self.queue.worker_stats(),
                "draining": self.draining,
                "tenants": {st.config.name: st.stats()
                            for st in self._by_token.values()},
                "jobs": {"total": len(jobs),
                         "pending": sum(1 for j in jobs
                                        if j.status() == "running")}}

    def run(self, tenant: _TenantState, body: bytes) -> dict:
        """``POST /run`` on the raw request *body*.

        A body whose digest the index knows, and whose request key is
        still in the result memo, is answered from the memo without
        being decoded or its request hashed.  Any other body is
        decoded and submitted, and a successful answer records the
        body's digest against its request key.
        """
        self._refuse_if_draining("synchronous runs")
        digest = hashlib.sha256(body).digest()
        key = self._bodies.get(digest)
        # checked first so an evicted key costs one memo lookup (the
        # full path's), not two
        if key is not None and key in self.session.results:
            hit = self.session.cached(key)
            if hit is not None:
                self._record_result(tenant, key)
                return hit.to_dict()
        request = AnalysisRequest.from_dict(json.loads(body.decode("utf-8")))
        result = self.queue.submit(request).result()
        self._record_result(tenant, result.request_key)
        self._bodies.put(digest, result.request_key)
        return result.to_dict()

    def run_shard(self, tenant: _TenantState, payload: dict) -> dict:
        self._refuse_if_draining("shards")
        spec = ShardSpec.from_dict(payload)
        with self._quota_lock:
            tenant.requests += 1
        return self.queue.submit_shard(spec).result().to_dict()

    def submit_job(self, tenant: _TenantState, payload: dict) -> dict:
        self._refuse_if_draining("jobs")
        request = AnalysisRequest.from_dict(payload)
        key = request.key()
        with self._jobs_lock:
            record = self._jobs.get(key)
            if record is not None:
                # idempotent resubmit: same content, same job
                record.tenants.add(tenant.config.name)
                return self._job_payload(record)
            pending = sum(
                1 for r in self._jobs.values()
                if tenant.config.name in r.tenants
                and r.status() == "running")
            if pending >= tenant.config.max_pending_jobs:
                raise QuotaExceededError(
                    f"tenant '{tenant.config.name}' already has "
                    f"{pending} pending jobs "
                    f"(max_pending_jobs={tenant.config.max_pending_jobs})")
            record = _JobRecord(key, {tenant.config.name})
            self._jobs[key] = record
        try:
            record.future = self.queue.submit(request).future
        except Exception:
            with self._jobs_lock:
                self._jobs.pop(key, None)
            raise

        def _charge(future: Future) -> None:
            if not future.cancelled() and future.exception() is None:
                self._record_result(tenant, key)

        record.future.add_done_callback(_charge)
        return self._job_payload(record)

    def job_status(self, tenant: _TenantState, key: str) -> dict:
        with self._jobs_lock:
            record = self._jobs.get(key)
        if record is None:
            raise _HttpError(404, f"no job with key '{key}'")
        return self._job_payload(record)

    def _job_payload(self, record: _JobRecord) -> dict:
        status = record.status()
        payload = {"key": record.key, "status": status}
        if status == "done":
            payload["result"] = record.future.result().to_dict()
        elif status == "failed":
            exc = record.future.exception()
            payload["error_status"] = status_for(exc)
            payload["error"] = to_jsonable(
                FailureRecord.from_exception(exc, site="job", attempts=1))
        return payload

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        self.queue.shutdown()


# ---------------------------------------------------------------------------
# HTTP plumbing
# ---------------------------------------------------------------------------
class _HttpServer(ThreadingHTTPServer):
    """One handler thread per connection; the open connections are
    tracked so :meth:`close_connections` can hang them up (the mixin
    does not track its daemon threads)."""

    daemon_threads = True
    allow_reuse_address = True
    app: ServiceApp  # attached by AnalysisServer

    def __init__(self, *args, **kwargs):
        self._conn_lock = threading.Lock()
        self._open: set[socket.socket] = set()
        self._accepted = 0
        super().__init__(*args, **kwargs)

    def process_request(self, request, client_address) -> None:
        with self._conn_lock:
            self._open.add(request)
            self._accepted += 1
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._conn_lock:
            self._open.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # a connection the client dropped or close() hung up is no
        # daemon fault; anything else keeps the stock traceback
        if not isinstance(sys.exc_info()[1], OSError):
            super().handle_error(request, client_address)

    def connection_stats(self) -> dict:
        with self._conn_lock:
            return {"open": len(self._open), "accepted": self._accepted}

    def close_connections(self) -> None:
        """Shut every open connection down: a handler waiting for its
        next request reads EOF, one still working fails its write."""
        with self._conn_lock:
            for sock in self._open:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:  # the client got there first
                    pass


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-analysis"
    #: TCP_NODELAY: a keep-alive reply must not wait on Nagle
    disable_nagle_algorithm = True

    @property
    def timeout(self) -> float:
        """Socket timeout of the connection (read by
        :meth:`~socketserver.StreamRequestHandler.setup`): a connection
        idle for :data:`IDLE_TIMEOUT_S` times out waiting for its next
        request line and is closed."""
        return IDLE_TIMEOUT_S

    # -- plumbing ------------------------------------------------------
    @property
    def app(self) -> ServiceApp:
        return self.server.app  # type: ignore[attr-defined]

    def log_message(self, *args) -> None:  # tests spin many daemons
        pass

    def _token(self) -> str | None:
        auth = self.headers.get("Authorization", "")
        if auth.startswith("Bearer "):
            return auth[len("Bearer "):].strip()
        return self.headers.get("X-Repro-Token")

    def _declared_length(self) -> int:
        """Bytes of request body on the socket.  A body this handler
        cannot frame (chunked, or a malformed length) closes the
        connection after the reply."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if length < 0 or "Transfer-Encoding" in self.headers:
            self.close_connection = True
            return 0
        return length

    def _raw_body(self) -> bytes:
        length = self._unread
        if length > self.app.max_body_bytes:
            raise _HttpError(413, f"request body of {length} bytes "
                                  f"exceeds the "
                                  f"{self.app.max_body_bytes} byte limit")
        self._unread = 0
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise AnalysisError("expected a JSON request body")
        return raw

    def _body(self) -> dict:
        return json.loads(self._raw_body().decode("utf-8"))

    def _skip_body(self) -> None:
        """Read off a body no endpoint read, so the next request on
        this connection starts where the client sent it; one past
        ``max_body_bytes`` closes the connection instead."""
        if self._unread > self.app.max_body_bytes:
            self.close_connection = True
        elif self._unread:
            self.rfile.read(self._unread)
        self._unread = 0

    def _send(self, status: int, payload: dict) -> None:
        self._skip_body()
        body = json.dumps(payload).encode("utf-8")
        head = [f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}",
                f"Server: {self.version_string()}",
                f"Date: {self.date_time_string()}",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        if self.close_connection:
            head.append("Connection: close")
        # one write: headers and body sent apart would hold the body
        # behind the client's delayed ACK of the headers
        self.wfile.write("\r\n".join(head).encode("latin-1")
                         + b"\r\n\r\n" + body)

    # -- routing -------------------------------------------------------
    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")

    def _route(self, method: str) -> None:
        path = self.path.split("?", 1)[0]
        self._unread = self._declared_length()
        try:
            if method == "GET" and path == "/health":
                self._send(200, self.app.health())
                return
            tenant = self.app.authenticate(self._token())
            if method == "GET" and path == "/stats":
                self._send(200, {**self.app.stats(),
                                 "connections":
                                 self.server.connection_stats()})
            elif method == "POST" and path == "/admin/drain":
                self._send(200, self.app.drain())  # body ignored
            elif method == "POST" and path == "/run":
                self._send(200, self.app.run(tenant, self._raw_body()))
            elif method == "POST" and path == "/shard":
                self._send(200, self.app.run_shard(tenant, self._body()))
            elif method == "POST" and path == "/jobs":
                self._send(202, self.app.submit_job(tenant, self._body()))
            elif method == "GET" and path.startswith("/jobs/"):
                key = path[len("/jobs/"):]
                self._send(200, self.app.job_status(tenant, key))
            else:
                raise _HttpError(404,
                                 f"no endpoint for {method} {path}")
        except Exception as exc:
            status = (exc.status if isinstance(exc, _HttpError)
                      else status_for(exc))
            self._send(status, error_payload(exc, status))


class AnalysisServer:
    """The long-running daemon: a threaded HTTP server over one
    :class:`ServiceApp`.

    ``port=0`` binds an ephemeral port (read it back from :attr:`url`)
    - the shape every loopback test and example uses.  Use as a context
    manager, or pair :meth:`start` with :meth:`close`.
    """

    def __init__(self, session: AnalysisSession | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 tenants: list[TenantConfig] | None = None,
                 retry: RetryPolicy | None = None, job_workers: int = 2,
                 max_body_bytes: int = 16 * 2 ** 20,
                 drain_retry_after: float = 5.0):
        self.app = ServiceApp(session=session, tenants=tenants,
                              retry=retry, job_workers=job_workers,
                              max_body_bytes=max_body_bytes,
                              drain_retry_after=drain_retry_after)
        self._httpd = _HttpServer((host, port), _Handler)
        self._httpd.app = self.app
        self._thread: threading.Thread | None = None

    @property
    def session(self) -> AnalysisSession:
        return self.app.session

    @property
    def url(self) -> str:
        host, port = self._httpd.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "AnalysisServer":
        """Serve on a daemon thread; returns self (chainable)."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="repro-analysis-server", daemon=True)
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (the daemon entry point)."""
        self._httpd.serve_forever()

    def connection_stats(self) -> dict:
        """HTTP connections: ``open`` now, ``accepted`` in all."""
        return self._httpd.connection_stats()

    def close(self) -> None:
        """Stop accepting, hang up every open connection, then stop
        the engine pool."""
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.app.close()

    def __enter__(self) -> "AnalysisServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


def serve(host: str = "127.0.0.1", port: int = 8760,
          session: AnalysisSession | None = None,
          tenants: list[TenantConfig] | None = None,
          retry: RetryPolicy | None = None, job_workers: int = 2,
          block: bool = True) -> AnalysisServer:
    """Start an analysis daemon.

    ``block=True`` (the daemon entry point) serves on the calling
    thread until interrupted; ``block=False`` serves on a background
    thread and returns the started :class:`AnalysisServer` (close it).
    """
    server = AnalysisServer(session=session, host=host, port=port,
                            tenants=tenants, retry=retry,
                            job_workers=job_workers)
    if not block:
        return server.start()
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return server


def _main(argv: list | None = None) -> int:
    """``python -m repro.service.net``: one worker daemon as a real OS
    process.  Announces its URL on stdout (one line, flushed) before
    serving, so a supervisor - or the chaos suite, which SIGKILLs these
    to prove failover - can spawn on an ephemeral port and read the
    address back."""
    import argparse
    parser = argparse.ArgumentParser(
        description="repro analysis worker daemon")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="0 binds an ephemeral port (announced on "
                             "stdout)")
    parser.add_argument("--retry-attempts", type=int, default=0,
                        help="attempts per engine job and shard, with "
                             "shard degradation (0: one attempt, no "
                             "degradation)")
    args = parser.parse_args(argv)
    retry = (RetryPolicy(max_attempts=args.retry_attempts)
             if args.retry_attempts > 0 else None)
    server = AnalysisServer(host=args.host, port=args.port, retry=retry)
    print(server.url, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
