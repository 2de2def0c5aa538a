"""Deterministic fault injection for the job-execution layer.

The supervision machinery in :mod:`repro.service.jobs` exists for
failure modes that are miserable to reproduce on demand: a worker
process dying mid-shard, a shard hanging past its deadline, a sample
that fails to converge once and succeeds on retry.  This module makes
all of them reproducible:

* :class:`FaultRule` - one injected fault: a *site* (``"run_shard"`` /
  ``"run_request"`` on the execution side; ``"transport"`` on the
  network client, where a ``"crash"`` is a seeded connection drop and a
  ``"hang"`` a slow response), a *kind* (``"crash"`` / ``"hang"`` /
  ``"convergence"``), an optional span-start match, an optional
  ``fail_attempts`` bound (fault fires only while ``attempt <
  fail_attempts`` - the "transient-then-succeed" shape), and an
  optional seeded probability.
* :class:`FaultPlan` - an ordered rule set with a seed, serializable to
  JSON.  :meth:`FaultPlan.active` exports the plan through the
  ``REPRO_FAULT_PLAN`` environment variable.  A pooled
  :class:`~repro.service.jobs.JobQueue` ships the plan active at
  dispatch (:func:`plan_text`) with every job, and the worker adopts it
  (:func:`adopt_plan`) - so one plan drives faults on both sides of the
  process boundary, deterministically, even in workers started before
  the plan was.
* :func:`maybe_inject` - the hook the execution sites call.  With no
  plan in the environment it is a dictionary lookup and a return; the
  clean path stays clean.

Determinism: a probabilistic rule decides via a stable hash of
``(seed, rule index, site, key, attempt)``, never via process-local RNG
state - the same plan over the same workload injects the same faults
regardless of which worker executes which shard, or how often the run
is repeated, and distinct rules draw independently even when they match
the same decision coordinates.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

from ..errors import ConvergenceError, WorkerCrashError

#: Environment variable carrying the active plan (JSON); inherited by
#: spawned worker processes, which is what lets one plan cross the
#: process boundary.
FAULTS_ENV = "REPRO_FAULT_PLAN"

FAULT_SITES = ("run_shard", "run_request", "transport")
FAULT_KINDS = ("crash", "hang", "convergence")


@dataclass(frozen=True)
class FaultRule:
    """One injected fault (see the module docstring)."""

    site: str
    kind: str
    #: Match only the shard whose span starts here (``None``: any).
    start: int | None = None
    #: Fire only while ``attempt < fail_attempts`` (``None``: always).
    #: ``fail_attempts=1`` is the classic transient fault: the first
    #: attempt fails, the retry succeeds.
    fail_attempts: int | None = None
    #: Seeded firing probability in ``[0, 1]`` (1.0: deterministic).
    probability: float = 1.0
    #: Sleep length of a ``"hang"`` fault.  Keep it a few multiples of
    #: the supervisor deadline under test: the sleeping worker is
    #: abandoned, not interrupted, and occupies its pool slot until the
    #: sleep ends.
    hang_seconds: float = 2.0

    def __post_init__(self):
        if self.site not in FAULT_SITES:
            raise ValueError(f"unknown fault site '{self.site}'; "
                             f"expected one of {FAULT_SITES}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind '{self.kind}'; "
                             f"expected one of {FAULT_KINDS}")

    def matches(self, site: str, key, attempt: int) -> bool:
        if site != self.site:
            return False
        if self.start is not None and key != self.start:
            return False
        if self.fail_attempts is not None \
                and attempt >= self.fail_attempts:
            return False
        return True


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of :class:`FaultRule` injections."""

    rules: tuple = ()
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(
            r if isinstance(r, FaultRule) else FaultRule(**r)
            for r in self.rules))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {"seed": self.seed,
                "rules": [asdict(r) for r in self.rules]}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(rules=tuple(FaultRule(**r)
                               for r in data.get("rules", ())),
                   seed=data.get("seed", 0))

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    # -- activation ----------------------------------------------------
    def activate(self) -> None:
        """Export the plan through :data:`FAULTS_ENV`; worker processes
        spawned afterwards inherit it."""
        os.environ[FAULTS_ENV] = self.to_json()

    @staticmethod
    def deactivate() -> None:
        os.environ.pop(FAULTS_ENV, None)

    @contextmanager
    def active(self):
        """``with plan.active():`` - activate for the block, restore
        the previous plan (or none) afterwards."""
        previous = os.environ.get(FAULTS_ENV)
        self.activate()
        try:
            yield self
        finally:
            if previous is None:
                self.deactivate()
            else:
                os.environ[FAULTS_ENV] = previous

    # -- decision ------------------------------------------------------
    def should_fire(self, rule: FaultRule, site: str, key,
                    attempt: int, index: int | None = None) -> bool:
        if not rule.matches(site, key, attempt):
            return False
        if rule.probability >= 1.0:
            return True
        if index is None:
            index = self.rules.index(rule)
        return _stable_unit(self.seed, index, site, key,
                            attempt) < rule.probability


def _stable_unit(seed: int, rule_index: int, site: str, key,
                 attempt: int) -> float:
    """A deterministic pseudo-uniform in ``[0, 1)`` from the decision
    coordinates - identical in every process, unlike RNG state.  The
    rule index is part of the token so rules matching the same
    ``(site, key, attempt)`` draw independently instead of firing in
    lockstep."""
    token = f"{seed}:{rule_index}:{site}:{key!r}:{attempt}".encode()
    digest = hashlib.sha256(token).digest()
    return int.from_bytes(digest[:8], "big") / 2 ** 64


# ---------------------------------------------------------------------------
# the injection hook
# ---------------------------------------------------------------------------
#: Parsed-plan cache keyed on the raw env string (workers parse once,
#: not per shard).
_CACHED: tuple[str | None, FaultPlan | None] = (None, None)


def current_plan() -> FaultPlan | None:
    """The plan exported via :data:`FAULTS_ENV`, or ``None``."""
    global _CACHED
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    if _CACHED[0] != text:
        _CACHED = (text, FaultPlan.from_json(text))
    return _CACHED[1]


def plan_text() -> str | None:
    """The active plan as exported (JSON text), or ``None``: what a
    job carries to its worker."""
    return os.environ.get(FAULTS_ENV)


def adopt_plan(text: str | None) -> None:
    """Make *text* (a :func:`plan_text` value) this process's plan;
    ``None`` clears it."""
    if text is None:
        os.environ.pop(FAULTS_ENV, None)
    else:
        os.environ[FAULTS_ENV] = text


def maybe_inject(site: str, key=None, attempt: int = 0) -> None:
    """Fire the first matching fault of the active plan, if any.

    Called by the execution sites in :mod:`repro.service.jobs`
    (``_run_shard`` / ``_run_request``) with *key* identifying the unit
    of work (a shard's span start; ``None`` for requests) and the
    supervisor's *attempt* counter - which is what lets
    ``fail_attempts`` faults heal across retries even though a crash
    destroys all worker-local state.
    """
    plan = current_plan()
    if plan is None:
        return
    for index, rule in enumerate(plan.rules):
        if plan.should_fire(rule, site, key, attempt, index):
            _fire(rule, site, key, attempt)
            return


def _fire(rule: FaultRule, site: str, key, attempt: int) -> None:
    if site == "transport":
        # client-side network faults: the hook sits in
        # RemoteSession._call, *before* the socket is touched.  A
        # "crash" is a connection drop (the raw URLError the client's
        # transport-error handling must absorb); a "hang" is a slow
        # response (the shape hedged dispatch exists for).
        if rule.kind == "crash":
            import urllib.error
            raise urllib.error.URLError(
                f"injected connection drop (key={key!r}, "
                f"attempt {attempt})")
        if rule.kind == "hang":
            time.sleep(rule.hang_seconds)
            return
    if rule.kind == "crash":
        # in a pool worker: die the way a real crash does (no cleanup,
        # no exception crosses the pipe - the parent sees
        # BrokenProcessPool).  In the parent process the simulated
        # crash must not take the interpreter down, so it raises the
        # supervised equivalent instead.
        if multiprocessing.parent_process() is not None:
            os._exit(41)
        raise WorkerCrashError(
            f"injected worker crash at {site} (key={key!r}, "
            f"attempt {attempt})")
    if rule.kind == "hang":
        # sleep, then proceed normally: a hung-then-slow shard.  The
        # supervisor's deadline abandons the attempt; the stale result
        # (if the sleep ever ends) is discarded by generation checks.
        time.sleep(rule.hang_seconds)
        return
    if rule.kind == "convergence":
        raise ConvergenceError(
            f"injected convergence failure at {site} (key={key!r}, "
            f"attempt {attempt})", iterations=0)
    raise AssertionError(f"unreachable fault kind {rule.kind!r}")
