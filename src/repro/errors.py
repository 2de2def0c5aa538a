"""Exception hierarchy for the repro package.

Solver failures (:class:`ConvergenceError`, :class:`SingularMatrixError`)
carry structured context - iteration count, final residual, and the
content fingerprint of the parameter state ("theta") that failed - so a
failure harvested from a worker process still identifies *which* sample
of *which* workload diverged.  :class:`FailureRecord` is the
JSON-serializable form of one such failure as it appears on degraded
analysis results (see :mod:`repro.service.shards`).
"""

from __future__ import annotations

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for every error raised by this package."""


class NetlistError(ReproError):
    """Raised for malformed circuits: duplicate names, unknown nodes, ..."""


class SolverError(ReproError):
    """Base of numerical-solver failures, with uniform context.

    Attributes
    ----------
    iterations:
        Number of iterations performed before giving up.
    residual:
        Norm of the final residual, when meaningful.
    theta_fingerprint:
        Content fingerprint of the parameter state under which the
        solve failed (see
        :meth:`~repro.analysis.mna.ParamState.theta_fingerprint`), when
        one was in scope at the raise site.
    """

    def __init__(self, message: str, iterations: int | None = None,
                 residual: float | None = None,
                 theta_fingerprint: str | None = None):
        super().__init__(message)
        self.message = message
        self.iterations = iterations
        self.residual = residual
        self.theta_fingerprint = theta_fingerprint

    def context(self) -> dict:
        """The non-``None`` context fields as a plain dict."""
        out = {}
        if self.iterations is not None:
            out["iterations"] = self.iterations
        if self.residual is not None:
            out["residual"] = self.residual
        if self.theta_fingerprint is not None:
            out["theta_fingerprint"] = self.theta_fingerprint
        return out

    def __str__(self) -> str:
        parts = []
        if self.iterations is not None:
            parts.append(f"iterations={self.iterations}")
        if self.residual is not None:
            parts.append(f"residual={self.residual:.3e}")
        if self.theta_fingerprint is not None:
            parts.append(f"theta={self.theta_fingerprint[:12]}")
        if not parts:
            return self.message
        return f"{self.message} [{', '.join(parts)}]"

    def __reduce__(self):
        # default Exception pickling only keeps ``args``; solver errors
        # cross process boundaries (pool workers), so the context must
        # survive the round trip
        return (type(self), (self.message, self.iterations,
                             self.residual, self.theta_fingerprint))


class ConvergenceError(SolverError):
    """Raised when an iterative solver fails to converge."""


class SingularMatrixError(SolverError):
    """Raised when an MNA matrix is singular (floating node, V-loop, ...)."""


class AnalysisError(ReproError):
    """Raised when an analysis is asked something it cannot provide."""


class MeasurementError(ReproError):
    """Raised when a waveform measurement cannot be taken
    (missing crossing, no oscillation, ...)."""


class JobTimeoutError(ReproError):
    """Raised (internally, by the job supervisor) when one attempt of a
    supervised job overruns its :class:`~repro.service.jobs.RetryPolicy`
    deadline.  The attempt is abandoned and re-dispatched; the error
    surfaces only on a :class:`FailureRecord` once retries are
    exhausted."""


class WorkerCrashError(ReproError):
    """Raised when a worker process died mid-job (the supervised form
    of :class:`concurrent.futures.process.BrokenProcessPool`), or by the
    fault-injection harness simulating such a crash in-process."""


class TransportError(ReproError):
    """Raised by the network client (:mod:`repro.service.client`) when a
    call never produced an HTTP response: connection refused/reset, DNS
    failure, socket timeout, a daemon that closed - the daemon may not
    even have seen the request.  A kept-alive connection the daemon
    closed between two calls is first replayed once on a fresh one;
    this error is what remains (a timeout is never replayed).  Chained
    to a :class:`urllib.error.URLError` whose ``reason`` is the socket
    error, naming the endpoint and method so a multi-daemon scatter can
    say *which* worker dropped.  Maps to HTTP 502 should a relay ever
    re-serve it."""

    def __init__(self, message: str, endpoint: str | None = None,
                 method: str | None = None):
        super().__init__(message)
        self.message = message
        self.endpoint = endpoint
        self.method = method

    def __reduce__(self):
        return (type(self), (self.message, self.endpoint, self.method))


class DrainingError(ReproError):
    """Raised by a daemon that is gracefully draining
    (``POST /admin/drain``): new ``/run``/``/shard``/``/jobs`` work is
    refused with HTTP 503 while in-flight jobs finish.  ``retry_after``
    carries the server's retry hint [s]; a
    :class:`~repro.service.resilience.WorkerPool` reroutes to another
    endpoint instead of waiting."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.message = message
        self.retry_after = retry_after

    def __reduce__(self):
        return (type(self), (self.message, self.retry_after))


class AuthenticationError(ReproError):
    """Raised by the network front-end (:mod:`repro.service.net`) when a
    request carries no tenant token, or an unknown one.  Maps to HTTP
    401 on the wire."""


class QuotaExceededError(ReproError):
    """Raised by the network front-end when a tenant exceeds one of its
    :class:`~repro.service.net.TenantConfig` quotas (e.g. pending
    asynchronous jobs).  Maps to HTTP 429 on the wire."""


class ReproDeprecationWarning(DeprecationWarning):
    """A public name or keyword that the next major API version removes
    (see the versioning policy in repro.api)."""


#: Error classes a supervised job retry can plausibly fix: numerical
#: failures (possibly transient - a marginal sample, a perturbed
#: start), infrastructure failures (crashed worker, overrun deadline,
#: dropped connection).  Deterministic request errors (AnalysisError,
#: NetlistError) are deliberately absent - retrying a malformed request
#: cannot succeed.
RETRYABLE_ERRORS = (ConvergenceError, SingularMatrixError,
                    MeasurementError, JobTimeoutError, WorkerCrashError,
                    TransportError)


@dataclass(frozen=True)
class FailureRecord:
    """One supervised-job failure as a structured, serializable value.

    Attached to degraded :class:`~repro.service.shards.ShardResult` /
    :class:`~repro.service.requests.AnalysisResult` values (and summed
    into ``n_failed``); round-trips through
    :mod:`repro.service.serialize`.
    """

    #: Exception class name from this module's taxonomy
    #: (``"ConvergenceError"``, ``"JobTimeoutError"``, ...).
    error: str
    message: str
    #: Supervision site: ``"shard"`` / ``"request"`` for server-side
    #: execution failures, ``"transport"`` for a shard that exhausted
    #: every endpoint of a :class:`~repro.service.resilience.WorkerPool`
    #: without ever getting a response.
    site: str
    #: Attempts performed before giving up.
    attempts: int
    #: Owned sample span ``[start, stop)`` for shard failures.
    start: int | None = None
    stop: int | None = None
    #: Solver context, when the terminal error carried it.
    iterations: int | None = None
    residual: float | None = None
    theta_fingerprint: str | None = None

    @classmethod
    def from_exception(cls, exc: BaseException, site: str, attempts: int,
                       start: int | None = None,
                       stop: int | None = None) -> "FailureRecord":
        ctx = exc.context() if isinstance(exc, SolverError) else {}
        message = (exc.message if isinstance(exc, SolverError)
                   else str(exc))
        return cls(error=type(exc).__name__, message=message, site=site,
                   attempts=attempts, start=start, stop=stop,
                   iterations=ctx.get("iterations"),
                   residual=ctx.get("residual"),
                   theta_fingerprint=ctx.get("theta_fingerprint"))

    @property
    def n_lanes(self) -> int:
        """Lanes lost to this failure (0 for non-shard failures)."""
        if self.start is None or self.stop is None:
            return 0
        return self.stop - self.start
