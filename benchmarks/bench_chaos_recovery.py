"""Supervision overhead and chaos recovery on a Monte-Carlo workload.

The job supervision layer (:class:`~repro.service.jobs.RetryPolicy`)
must be free when nothing fails and correct when everything does.  This
benchmark measures both halves on a transient Monte-Carlo run:

* **clean vs supervised** - the identical serial run with
  ``retry=None`` (one attempt) and with a three-attempt retry policy
  (no faults injected).  Both take the same path; the acceptance gate
  is <= 5% overhead
  (plus a small absolute allowance for timer noise on sub-second runs).
* **chaos** - the same workload through a pooled
  :class:`~repro.service.jobs.JobQueue` under an injected fault storm
  (a worker crash, a hang past the deadline, and a transient
  convergence failure - all first-attempt faults that heal on retry).
  The run must complete with samples *bit-identical* to the fault-free
  run: recovery re-executes generative shards, it never perturbs them.

Published as ``BENCH_chaos_recovery.json``:``overhead_ok``/
``recovered_bit_identical`` are the acceptance flags, the wall times
track the supervision cost trajectory across PRs.
"""

import time

import numpy as np
from conftest import WallClock, mc_samples, publish

from repro.circuit import Circuit, Sine
from repro.core import monte_carlo_transient
from repro.core.measures import DcLevel
from repro.service import FaultPlan, FaultRule, RetryPolicy

T_STOP = 3e-6
DT = 2e-8
WINDOW = (2e-6, 3e-6)
SEED = 7


def _rc_mc():
    ckt = Circuit("rc_chaos")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.03)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.01)
    return ckt


def _run(n, chunk, retry=None, n_workers=None):
    return monte_carlo_transient(
        _rc_mc(), [DcLevel("vout", "out")], n=n, t_stop=T_STOP, dt=DT,
        window=WINDOW, seed=SEED, chunk_size=chunk, retry=retry,
        n_workers=n_workers)


def test_chaos_recovery(results_dir):
    n = mc_samples()
    chunk = max(2, n // 8)
    policy = RetryPolicy(max_attempts=3, base_delay=0.0, deadline=30.0)

    # -- clean-path overhead (best of 2, serial: no pool noise) --------
    t_clean = t_sup = float("inf")
    for _ in range(2):
        with WallClock() as w:
            clean = _run(n, chunk)
        t_clean = min(t_clean, w.seconds)
        with WallClock() as w:
            supervised = _run(n, chunk, retry=policy)
        t_sup = min(t_sup, w.seconds)
    assert np.array_equal(clean.samples["vout"],
                          supervised.samples["vout"])
    assert supervised.failures == []
    overhead = t_sup / t_clean - 1.0
    # 5% relative plus an absolute allowance for timer noise on short
    # CI-sized runs (REPRO_BENCH_MC=24 finishes in well under a second)
    overhead_ok = t_sup <= t_clean * 1.05 + 0.25
    assert overhead_ok, (
        f"supervision overhead {overhead * 100:.1f}% on the clean path "
        f"(clean {t_clean:.3f} s, supervised {t_sup:.3f} s)")

    # -- chaos: crash + hang + transient failure, all healing ----------
    # the crash breaks the whole pool, which fails every in-flight
    # shard and consumes *their* first attempt too - so the hang and
    # convergence rules fire for two attempts (they still heal within
    # the budget whether or not the breakage got there first)
    spans = sorted({s * chunk for s in range(-(-n // chunk))})
    storm = FaultPlan(rules=[
        FaultRule(site="run_shard", kind="crash", start=spans[0],
                  fail_attempts=1),
        FaultRule(site="run_shard", kind="hang",
                  start=spans[len(spans) // 2], fail_attempts=2,
                  hang_seconds=1.0),
        FaultRule(site="run_shard", kind="convergence", start=spans[-1],
                  fail_attempts=2),
    ])
    chaos_policy = RetryPolicy(max_attempts=4, base_delay=0.0,
                               deadline=0.5 + t_clean)
    with storm.active():
        with WallClock() as w:
            chaos = _run(n, chunk, retry=chaos_policy, n_workers=2)
    t_chaos = w.seconds
    recovered = bool(np.array_equal(clean.samples["vout"],
                                    chaos.samples["vout"]))
    assert recovered, "chaos run did not recover bit-identical samples"
    assert chaos.n_failed == clean.n_failed
    assert chaos.failures == []

    text = "\n".join([
        f"chaos recovery (transient MC, n = {n}, "
        f"{len(spans)} shards of {chunk})",
        f"{'path':<22s} {'wall [s]':>10s}  notes",
        f"{'clean serial':<22s} {t_clean:>10.3f}  one attempt",
        f"{'supervised serial':<22s} {t_sup:>10.3f}  "
        f"retry policy armed, no faults ({overhead * 100:+.1f}%)",
        f"{'chaos pooled (2 wkr)':<22s} {t_chaos:>10.3f}  "
        "crash + hang + convergence fault, all healed on retry",
        "samples bit-identical across all three runs",
    ])
    publish(results_dir, "chaos_recovery", text, data={
        "n_mc": n,
        "n_shards": len(spans),
        "wall_seconds": {"clean": t_clean, "supervised": t_sup,
                         "chaos": t_chaos},
        "overhead_fraction": overhead,
        "overhead_ok": overhead_ok,
        "recovered_bit_identical": recovered,
    })


def test_supervised_request_overhead_smoke(results_dir):
    """The request path accepts a retry option without re-running the
    engines twice (memo still keyed on content, retry included)."""
    from repro.service import AnalysisRequest, AnalysisSession
    policy = RetryPolicy(max_attempts=2, base_delay=0.0)
    request = AnalysisRequest.monte_carlo_transient(
        _rc_mc(), [DcLevel("vout", "out")], n=8, t_stop=T_STOP, dt=DT,
        window=WINDOW, seed=SEED, chunk_size=4, retry=policy)
    session = AnalysisSession()
    first = session.run(request)
    t0 = time.perf_counter()
    again = session.run(request)
    t_memo = time.perf_counter() - t0
    assert again.from_cache and t_memo < 1.0
    assert first.failures == [] and first.summary["n_failed"] == 0
