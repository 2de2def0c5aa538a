"""One fresh-process piece of a benchmark run.

Usage::

    python perfbench/child.py WORKLOAD --out FILE [--trace] [--setup-only]
                              [--op OP] [--seed N] [--seconds S]

Imports ``repro.api`` (the timer starts before the import), builds the
workload's inputs - plus, for ``service_mix``, starts a
``python -m repro.service`` daemon and waits until ``GET /health``
answers - and records that as the set-up time.  Unless ``--setup-only``
is given it then runs the workload once: the one Table II operation
``--op`` (a Table II workload runs one operation per process), or the
``service_mix`` closed loop for ``--seconds``.  Every answer is checked
against ``reference.json``.  The record is written to ``--out`` as JSON;
``run.py`` aggregates the records of a run.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import OPERATIONS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
#: Errors kept per record (the count is always complete).
MAX_ERRORS = 20
#: Longest wait for a spawned daemon to answer ``GET /health`` [s]; it
#: takes about 1 s.
DAEMON_START_TIMEOUT_S = 60.0
#: Length of one ``service_mix`` loop segment [s] (see ``run_service``).
SEGMENT_S = 5.0


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reference(workload: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)[workload]


def _jsonable(value):
    """The value as JSON would return it (tuples become lists)."""
    return json.loads(json.dumps(value))


def _versions() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _trace_record(spans: list, counters: dict, before: dict,
                  after: dict) -> dict:
    """What ``run.py`` needs of a traced process: per-layer span rows,
    counters and the session store hits / misses in between."""
    import layers
    from tracer import by_layer
    return {"rows": by_layer(spans, layers.KERNELS),
            "counters": dict(counters),
            "session": layers.session_deltas(before, after)}


# ---------------------------------------------------------------------------
# Table II batch workloads
# ---------------------------------------------------------------------------
def run_batch(args) -> dict:
    import repro.api as api
    import workloads
    ops = workloads.BATCH[args.workload](api)
    record = {"setup_s": time.perf_counter() - START,
              "versions": _versions()}
    import calib
    record["kernel_s"] = calib.sample()
    if args.setup_only:
        return record
    call = ops[args.op]
    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer
        tracer = Tracer()
        layers.install(tracer)
    ref = _reference(args.workload)[args.op]
    try:
        result = workloads.run_op(api, args.op, call, tracer)
    except Exception as exc:   # the operation counts as failed
        record.update(wall_s=None, errors=[f"{type(exc).__name__}: {exc}"])
        return record
    record["kernel_s"] += calib.sample()
    record.update(wall_s=result["wall_s"], answer=result["answer"],
                  errors=workloads.check(args.op, result["answer"], ref))
    if tracer is not None:
        tracer.restore()
        record["trace"] = _trace_record(tracer.spans, tracer.counters,
                                        *result["session"])
        tracer.dump(OUT / f"spans-{args.workload}-{args.op}.jsonl")
    return record


# ---------------------------------------------------------------------------
# service_mix
# ---------------------------------------------------------------------------
class Daemon:
    """One ``python -m repro.service`` process on an ephemeral port
    (run through ``daemon.py`` when traced)."""

    def __init__(self, api, spans_path: "Path | None" = None):
        self.api = api
        self.spans_path = spans_path
        self.proc = None
        self.url = None

    def start(self) -> "Daemon":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro.service", "--port", "0"]
        else:
            cmd = [sys.executable, str(HERE / "daemon.py"), "--spans",
                   str(self.spans_path), "--port", "0"]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=ROOT)
        self.url = self.proc.stdout.readline().strip()
        if not self.url:
            raise RuntimeError("daemon exited without announcing its URL")
        probe = self.api.RemoteSession(self.url, timeout=5.0)
        deadline = time.perf_counter() + DAEMON_START_TIMEOUT_S
        while True:
            try:
                probe.health()
                return self
            except self.api.TransportError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.005)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def _check_replies(records: list, ref: dict) -> tuple[int, list]:
    """Failed request count and error texts: a transport or daemon
    error, a reply off its stored reference, or a repeated key whose
    reply is not bit-identical to its first reply in this run."""
    import mix
    first: dict = {}
    failed, errors = 0, []
    for label, _, ok, _, _, reply in records:
        if not ok:
            failed += 1
            errors.append(f"{label}: {reply}")
            continue
        reply = _jsonable(reply)
        errs = mix.check(label, reply, ref[label])
        if first.setdefault(label, reply) != reply:
            errs.append(f"{label}: repeated reply differs from its first")
        if errs:
            failed += 1
            errors.extend(errs)
    return failed, errors[:MAX_ERRORS]


def run_service(args) -> dict:
    import repro.api as api
    import mix
    pool = mix.build_pool(api)
    spans = OUT / "spans-service_mix-daemon.jsonl" if args.trace else None
    daemon = Daemon(api, spans)
    try:
        daemon.start()
        record = {"setup_s": time.perf_counter() - START,
                  "versions": _versions()}
        import calib
        record["kernel_s"] = calib.sample()
        if args.setup_only:
            return record
        tracer = None
        session = api.RemoteSession(daemon.url)
        if args.trace:
            import layers
            from tracer import Tracer
            tracer = Tracer()
            layers.install_client(tracer)
            before = session.stats()
        loop = mix.ClosedLoop(api, daemon.url, pool, args.seed)
        # the loop runs in segments with the host-speed kernel timed
        # between them (the clients idle meanwhile), so every request is
        # scaled by the host's speed around its own segment
        n_segments = max(1, round(args.seconds / SEGMENT_S))
        kernel = record["kernel_s"]
        record["segments"], record["requests"] = [], []
        for segment in range(n_segments):
            start = len(loop.records)
            wall = loop.run(args.seconds / n_segments)
            following = calib.sample()
            record["segments"].append({"loop_s": wall,
                                       "kernel_s": kernel + following})
            kernel = following
            record["requests"].extend(
                (label, latency, ok, from_cache, segment)
                for label, latency, ok, from_cache, _, _
                in loop.records[start:])
        if tracer is not None:
            tracer.restore()
            after = session.stats()
        record["peak_rss_mb"] = daemon.peak_rss_mb()
    finally:
        daemon.stop()
    record["failed"], record["errors"] = _check_replies(
        loop.records, _reference("service_mix"))
    if tracer is not None:
        import layers
        from tracer import load
        daemon_spans, daemon_counters = load(spans)
        # two processes, two span-id spaces: aggregate each on its own
        record["trace"] = layers.merge([
            _trace_record(tracer.spans, {}, before, after),
            _trace_record(daemon_spans, daemon_counters, before, before)])
        tracer.dump(OUT / "spans-service_mix.jsonl")
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--op", choices=OPERATIONS,
                        help="the operation of a Table II workload to run "
                        "(required: one operation per process)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    if (args.workload != "service_mix" and not args.setup_only
            and args.op is None):
        parser.error("a Table II workload runs one --op per process")
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)
    record = (run_service(args) if args.workload == "service_mix"
              else run_batch(args))
    record.setdefault("peak_rss_mb", _peak_rss_mb())
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
