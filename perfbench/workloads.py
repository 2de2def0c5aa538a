"""The two Table II workloads: inputs, operations and answer checks.

Each batch workload is a list of operations on one testbench, every one
a call into ``repro.api``: the proposed method and its Monte-Carlo
baseline.  :func:`run_op` runs one operation of a freshly built
testbench; the benchmark runs every operation in a fresh process, so no
memo, orbit or compiled circuit survives from one to the next.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

#: Relative tolerance of the sigma / nominal checks.
RTOL = 1e-9


def _comparator(api):
    tb = api.strongarm_offset_testbench(api.default_technology())
    measures = [api.DcLevel("vos", tb.vos_node)]
    period = tb.period
    n_cyc = tb.settle_cycles
    # Table II row 1, as in benchmarks/bench_table2_summary.py; the MC
    # sample count is the ROADMAP's reference baseline (MC-24)
    return {
        "proposed": lambda: api.transient_mismatch_analysis(
            tb.circuit, measures, period=period,
            pss_options=api.PssOptions(n_steps=500, settle_periods=30)),
        "mc": lambda: api.monte_carlo_transient(
            tb.circuit, measures, n=24, t_stop=(n_cyc - 24) * period,
            dt=period / 400,
            window=((n_cyc - 25) * period, (n_cyc - 24) * period),
            seed=201, chunk_size=12, n_workers=2),
    }


def _logic(api):
    tb = api.logic_path_testbench(api.default_technology(), late_input="X")
    measures = [api.EdgeDelay("delay_A", "X", "A", tb.vth)]
    period = tb.period
    # Table II row 2, as in benchmarks/bench_table2_summary.py
    return {
        "proposed": lambda: api.transient_mismatch_analysis(
            tb.circuit, measures, period=period,
            pss_options=api.PssOptions(n_steps=800, settle_periods=2)),
        "mc": lambda: api.monte_carlo_transient(
            tb.circuit, measures, n=200, t_stop=2 * period,
            dt=period / 800, window=(period, 2 * period), seed=202,
            chunk_size=100, n_workers=2),
    }


#: Batch workload name -> testbench builder returning its operations.
BATCH = {"comparator_pss": _comparator, "logic_table2": _logic}
#: The operations of every batch workload, in run order.
OPERATIONS = ("proposed", "mc")


def samples_digest(samples: dict) -> str:
    """SHA-256 over the Monte-Carlo samples, metric names sorted."""
    h = hashlib.sha256()
    for name in sorted(samples):
        h.update(name.encode())
        h.update(np.ascontiguousarray(samples[name], dtype=float).tobytes())
    return h.hexdigest()


def answer(op: str, result) -> dict:
    """The checkable answer of one operation's result."""
    if op == "proposed":
        return {name: {"sigma": result.sigma(name),
                       "nominal": result.mean(name)}
                for name in result.tables}
    return {"sha256": samples_digest(result.samples),
            "sigma": {name: result.sigma(name) for name in result.stats},
            "n_failed": result.n_failed}


def close(value: float, ref: float, scale: float) -> bool:
    """``|value - ref| <= RTOL * scale``."""
    return abs(value - ref) <= RTOL * scale


def check(op: str, got: dict, ref: dict) -> list[str]:
    """Differences of an operation's answer from its reference (empty
    when it matches).  Sigma is checked relative to itself; a nominal
    relative to ``max(|nominal|, sigma)``, because a nominal can sit at
    zero (the comparator's offset) where a relative check is noise.
    Monte-Carlo samples must be bit-identical."""
    errors = []
    if op == "proposed":
        for name, want in ref.items():
            have = got.get(name)
            if have is None:
                errors.append(f"metric {name} missing")
                continue
            if not close(have["sigma"], want["sigma"], abs(want["sigma"])):
                errors.append(f"sigma({name}) = {have['sigma']!r}, "
                              f"reference {want['sigma']!r}")
            scale = max(abs(want["nominal"]), abs(want["sigma"]))
            if not close(have["nominal"], want["nominal"], scale):
                errors.append(f"nominal({name}) = {have['nominal']!r}, "
                              f"reference {want['nominal']!r}")
        return errors
    if got["sha256"] != ref["sha256"]:
        errors.append(f"MC samples hash {got['sha256'][:16]}..., "
                      f"reference {ref['sha256'][:16]}...")
    if got["n_failed"] != ref["n_failed"]:
        errors.append(f"{got['n_failed']} failed lanes, reference "
                      f"{ref['n_failed']}")
    return errors


def run_op(api, op: str, call, tracer=None) -> dict:
    """Run operation *op* of a built testbench (``call`` is
    ``BATCH[name](api)[op]``) once.

    Returns its wall time and answer, and the process default session's
    store counters around it.  With a *tracer*, the operation is the
    root span ``op.<op>``.
    """
    before = api.default_session().stats()
    start = time.perf_counter()
    result = call() if tracer is None else tracer.call("op." + op, call)
    wall = time.perf_counter() - start
    return {"wall_s": wall, "answer": answer(op, result),
            "session": (before, api.default_session().stats())}
