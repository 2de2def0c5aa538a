"""Worker-pool dispatch overhead and a multi-daemon chaos storm.

The :class:`~repro.service.resilience.WorkerPool` must be free when
every endpoint is healthy and correct when they are not.  This
benchmark measures both halves on a scattered transient Monte-Carlo
run over real loopback daemons:

* **static vs pooled** - the identical scatter through a static
  round-robin baseline kept in this file (one thread per endpoint,
  each shard sent once, no supervision) and through a ``WorkerPool``
  (breakers armed, no faults).  The pool's bookkeeping is a lock and a
  couple of counters per shard; the acceptance gate is <= 5% overhead
  (plus a small absolute allowance for timer noise on sub-second
  runs).
* **storm** - three real daemon *processes*: one SIGKILLed between the
  health probe and the scatter (the pool must discover the corpse
  through dispatch failures and fail over), one draining (tagged 503s
  must reroute without tripping a breaker), plus a client-side hang
  injected on the survivor's slow twin to exercise hedged dispatch.
  The run must complete with samples *bit-identical* to the fault-free
  in-process run: failover re-executes generative shards, it never
  perturbs them.

Published as ``BENCH_scatter_chaos.json``: ``overhead_ok`` /
``recovered_bit_identical`` are the acceptance flags, the wall times
track the dispatch cost trajectory across PRs.
"""

import os
import signal
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
from conftest import WallClock, mc_samples, publish

from repro.circuit import Circuit, Sine
from repro.core import monte_carlo_transient
from repro.core.measures import DcLevel
from repro.service import (RemoteSession, RetryPolicy, WorkerPool,
                           mc_transient_shards, merge_shard_results,
                           scatter_monte_carlo_transient)

T_STOP = 3e-6
DT = 2e-8
WINDOW = (2e-6, 3e-6)
SEED = 7
MEAS = [DcLevel("vout", "out")]


def _rc_mc():
    ckt = Circuit("rc_scatter_chaos")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.03)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.01)
    return ckt


def _specs(n, chunk):
    return mc_transient_shards(_rc_mc(), MEAS, n, T_STOP, DT,
                               window=WINDOW, seed=SEED,
                               chunk_size=chunk)


def _scatter_static(sessions, specs):
    """The unsupervised baseline: one thread per endpoint, shard *i*
    sent once to endpoint *i* mod N; results in spec order."""
    with ThreadPoolExecutor(max_workers=len(sessions)) as threads:
        futures = [threads.submit(sessions[i % len(sessions)].run_shard,
                                  spec)
                   for i, spec in enumerate(specs)]
        return [f.result() for f in futures]


def _spawn_daemon():
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


def test_scatter_chaos(results_dir):
    n = mc_samples()
    chunk = max(2, n // 8)
    specs = _specs(n, chunk)
    local = monte_carlo_transient(_rc_mc(), MEAS, n, T_STOP, DT,
                                  window=WINDOW, seed=SEED,
                                  chunk_size=chunk)

    daemons = [_spawn_daemon() for _ in range(3)]
    procs = [p for p, _ in daemons]
    urls = [u for _, u in daemons]
    try:
        # -- clean-path overhead: static round-robin vs pool (best of
        # 2; same daemons, same shards, warm caches on both sides) ----
        sessions = [RemoteSession(u) for u in urls]
        _scatter_static(sessions, specs)  # warm the daemons' memos
        t_static = t_pool = float("inf")
        for _ in range(2):
            with WallClock() as w:
                static = _scatter_static(sessions, specs)
            t_static = min(t_static, w.seconds)
            with WorkerPool(urls, policy=RetryPolicy()) as pool:
                with WallClock() as w:
                    pooled = pool.scatter(specs)
            t_pool = min(t_pool, w.seconds)
        merged_static = merge_shard_results(static)
        merged_pooled = merge_shard_results(pooled)
        assert np.array_equal(merged_static.samples["vout"],
                              merged_pooled.samples["vout"])
        assert np.array_equal(merged_pooled.samples["vout"],
                              local.samples["vout"])
        overhead = t_pool / t_static - 1.0
        # 5% relative plus an absolute allowance for timer noise on
        # short CI-sized runs (REPRO_BENCH_MC=24: well under a second)
        overhead_ok = t_pool <= t_static * 1.05 + 0.25
        assert overhead_ok, (
            f"pool dispatch overhead {overhead * 100:.1f}% on the "
            f"clean path (static {t_static:.3f} s, pool "
            f"{t_pool:.3f} s)")

        # -- the storm: kill one daemon, drain another, scatter -------
        policy = RetryPolicy(base_delay=0.0, failure_threshold=1,
                             hedge=True, hedge_percentile=95.0,
                             hedge_min_samples=4)
        with WorkerPool(urls, policy=policy) as pool:
            pool.probe()  # all three look healthy right now
            RemoteSession(urls[2]).drain()
            procs[0].send_signal(signal.SIGKILL)
            procs[0].wait(timeout=10)
            with WallClock() as w:
                storm = scatter_monte_carlo_transient(
                    pool, _rc_mc(), MEAS, n, T_STOP, DT,
                    window=WINDOW, seed=SEED, chunk_size=chunk)
            t_storm = w.seconds
            stats = pool.stats()
        recovered = bool(np.array_equal(storm.samples["vout"],
                                        local.samples["vout"]))
        assert recovered, "storm did not recover bit-identical samples"
        assert storm.n_failed == 0 and storm.failures == []
        by_url = {e["url"]: e for e in stats["endpoints"]}
        assert by_url[urls[0]]["failures"] >= 1   # the corpse was felt
        assert by_url[urls[2]]["draining"] is True
        # tagged 503s reroute without counting as endpoint failures
        assert by_url[urls[2]]["breaker"] == "closed"
        assert by_url[urls[2]]["failures"] == 0
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=10)

    text = "\n".join([
        f"scatter chaos (transient MC, n = {n}, {len(specs)} shards "
        f"of {chunk}, 3 loopback daemons)",
        f"{'path':<26s} {'wall [s]':>10s}  notes",
        f"{'static round-robin':<26s} {t_static:>10.3f}  "
        f"no supervision",
        f"{'worker pool (clean)':<26s} {t_pool:>10.3f}  "
        f"breakers armed, no faults ({overhead * 100:+.1f}%)",
        f"{'worker pool (storm)':<26s} {t_storm:>10.3f}  "
        "one daemon SIGKILLed + one draining, healed by failover",
        "samples bit-identical to the in-process run throughout",
    ])
    publish(results_dir, "scatter_chaos", text, data={
        "n_mc": n,
        "n_shards": len(specs),
        "n_daemons": 3,
        "wall_seconds": {"static": t_static, "pool_clean": t_pool,
                         "storm": t_storm},
        "overhead_fraction": overhead,
        "overhead_ok": overhead_ok,
        "recovered_bit_identical": recovered,
        "storm_failures_seen": by_url[urls[0]]["failures"],
    })
