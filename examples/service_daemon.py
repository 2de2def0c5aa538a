"""The analysis service over the wire: daemon, client, shard fan-out.

The paper's pitch is that a mismatch-variation estimate costs one
deterministic solve - cheap enough to *serve*.  This example runs the
whole network stack in one process (three daemons on loopback ports),
but every byte crosses real HTTP, so the same code serves real hosts:

1. a daemon (:class:`AnalysisServer`; ``repro.api.serve`` is the
   blocking entry point) with per-tenant tokens and quotas;
2. a :class:`RemoteSession` running the paper's sensitivity analysis
   remotely - twice, to show the daemon-side result memo;
3. an asynchronous submit/poll job;
4. a Monte-Carlo reference fanned out over two *worker* daemons
   (:func:`scatter_monte_carlo_transient`) and merged bit-identically
   to the in-process run - the cross-host form of the paper's
   validation experiments;
5. the structured error surface: a bogus request comes back as a typed
   exception, not a stack trace in HTML;
6. fault tolerance: three worker daemons as *real OS processes* behind
   a :class:`WorkerPool` - one is drained for a rolling restart, one is
   SIGKILLed outright, and the scattered Monte-Carlo still completes
   with samples bit-identical to the in-process run (shards are
   generative, so failover re-execution changes nothing).
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np

from repro.api import (AnalysisRequest, AnalysisServer, Circuit,
                       DcLevel, PssOptions, RemoteSession,
                       RetryPolicy, Sine, TenantConfig, WorkerPool,
                       monte_carlo_transient,
                       scatter_monte_carlo_transient)


def rc_lowpass() -> Circuit:
    ckt = Circuit("rc_lowpass")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_resistor("R2", "out", "0", 2e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def main() -> None:
    measures = [DcLevel("vout", "out")]
    pss_opts = PssOptions(n_steps=128, settle_periods=3)

    tenants = [TenantConfig(name="alice", token="alice-token",
                            max_results=16, max_pending_jobs=4)]
    with AnalysisServer(tenants=tenants) as server:
        client = RemoteSession(server.url, token="alice-token")
        health = client.health()
        print(f"daemon at {server.url}: api {health['api_version']}, "
              f"wire versions {health['versions']}")
        print(f"kinds: {', '.join(health['kinds'])}")

        # -- the paper's analysis, served --------------------------------
        request = AnalysisRequest.transient_mismatch(
            rc_lowpass(), measures, period=1e-6, pss_options=pss_opts)
        first = client.run(request)
        again = client.run(request)
        print(f"sigma(vout) = {first.sigma('vout') * 1e3:.4f} mV "
              f"({first.runtime_seconds * 1e3:.0f} ms cold; repeat "
              f"from_cache={again.from_cache})")

        # -- asynchronous submit/poll ------------------------------------
        job = client.submit(AnalysisRequest.dc_mismatch(
            rc_lowpass(), {"vdc": "out"}))
        print(f"job {job.key[:12]}... -> "
              f"sigma {job.result(timeout=60).sigma('vdc') * 1e3:.4f} mV")

        # -- structured errors -------------------------------------------
        try:
            client.run(AnalysisRequest.from_dict(
                {"version": 1, "kind": "transient_mismatch",
                 "circuit": {}, "measures": [], "outputs": [],
                 "options": {}}))
        except Exception as exc:
            print(f"bad request -> {type(exc).__name__}: {exc}")

    # -- cross-host Monte-Carlo fan-out ----------------------------------
    n, t_stop, dt, seed, chunk = 16, 2e-6, 2e-8, 7, 4
    with AnalysisServer() as w1, AnalysisServer() as w2:
        print(f"scattering {n} samples over 2 worker daemons "
              f"({w1.url}, {w2.url})...")
        remote = scatter_monte_carlo_transient(
            [w1.url, w2.url], rc_lowpass(), measures, n, t_stop, dt,
            seed=seed, chunk_size=chunk)
    local = monte_carlo_transient(rc_lowpass(), measures, n, t_stop,
                                  dt, seed=seed, chunk_size=chunk)
    identical = all(np.array_equal(remote.samples[name],
                                   local.samples[name])
                    for name in local.samples)
    print(f"merged sigma(vout) = {remote.sigma('vout') * 1e3:.4f} mV; "
          f"samples bit-identical to the in-process run: {identical}")
    assert identical

    # -- surviving a worker kill -----------------------------------------
    # three daemons as real OS processes this time, so one can actually
    # die: the pool discovers the corpse through dispatch failures,
    # opens its breaker, and fails the shards over - while the drained
    # daemon refuses new work with a tagged 503 that reroutes without
    # breaker penalty
    print("spawning 3 worker daemon processes; draining one, "
          "SIGKILLing another...")
    daemons = [_spawn_daemon() for _ in range(3)]
    procs = [p for p, _ in daemons]
    urls = [u for _, u in daemons]
    try:
        policy = RetryPolicy(base_delay=0.0, failure_threshold=1)
        with WorkerPool(urls, policy=policy) as pool:
            pool.probe()                        # everyone looks healthy
            RemoteSession(urls[2]).drain()      # rolling restart begins
            procs[0].send_signal(signal.SIGKILL)  # and one just dies
            procs[0].wait(timeout=10)
            survived = scatter_monte_carlo_transient(
                pool, rc_lowpass(), measures, n, t_stop, dt,
                seed=seed, chunk_size=chunk)
            report = {e["url"]: e for e in pool.stats()["endpoints"]}
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)
    identical = np.array_equal(survived.samples["vout"],
                               local.samples["vout"])
    print(f"  killed  {urls[0]}: breaker {report[urls[0]]['breaker']}, "
          f"{report[urls[0]]['failures']} failures felt")
    print(f"  healthy {urls[1]}: "
          f"{report[urls[1]]['dispatched']} shards dispatched")
    print(f"  drained {urls[2]}: draining="
          f"{report[urls[2]]['draining']}, breaker "
          f"{report[urls[2]]['breaker']}")
    print(f"survived the storm: n_failed={survived.n_failed}, samples "
          f"bit-identical to the in-process run: {identical}")
    assert identical and survived.n_failed == 0


def _spawn_daemon():
    """One worker daemon as a killable OS process (``python -m
    repro.service`` announces its URL on stdout)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0"],
        stdout=subprocess.PIPE, text=True, env=env)
    url = proc.stdout.readline().strip()
    if not url.startswith("http"):
        proc.kill()
        raise RuntimeError(f"daemon failed to announce: {url!r}")
    return proc, url


if __name__ == "__main__":
    main()
