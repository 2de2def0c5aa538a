"""Per-iteration cost of the batch-of-one Newton step (Table II logic path).

The paper's proposed method is a handful of deterministic solves - one
PSS, one LPTV - on a batch of one, so its wall time is the cost of one
Newton iteration times the iteration count.  On the ~16-unknown logic
path that cost is mostly per-call overhead: device evaluation, source
evaluation and the LAPACK wrappers.  This benchmark publishes:

* microseconds per call of the kernels of one iteration on the logic
  path's nominal state, at orbit operating points: ``assemble`` with
  and without the Jacobian (each with the per-run scratch a Newton
  loop owns), the step residual, ``factor`` and ``solve`` through the
  circuit's backend, and one whole modified-Newton iteration of the
  settle - residual-only assembly, residual, a solve on the cached
  factorization, the clipped update and its norm (median of several
  rounds);
* microseconds per batched ``assemble`` call, with and without the
  Jacobian, on a 100-lane Monte-Carlo state (one lane chunk of the
  Table II MC-200 baseline) at the same operating points;
* for one proposed call (PSS with 800 steps and 2 settle periods, then
  the LPTV solve): its wall time, the number of assemblies and
  factorizations it made, and sigma(delay_A), which must stay within
  1e-9 of the value before the lean step.

Results go to ``results/BENCH_lean_step.json``.
"""

import statistics
import time

import numpy as np

from repro.analysis import compile_circuit, pss
from repro.analysis.dcop import NewtonOptions
from repro.analysis.pss import PssOptions
from repro.analysis.transient import (_NewtonWork, _newton_step_reuse,
                                      _residual)
from repro.circuits import logic_path_testbench
from repro.core.analysis import run_transient_mismatch
from repro.core.measures import EdgeDelay
from repro.linalg import FactorizationCache

from conftest import publish

#: sigma(delay_A) of the proposed call before the lean step.
SIGMA_REF = 6.880112389803763e-12
N_STEPS = 800
SETTLE_PERIODS = 2
#: Lanes of one Monte-Carlo chunk of the Table II baseline.
MC_LANES = 100
ROUNDS = 7
CALLS = 300


def _us_per_call(fn, points) -> float:
    """Median over rounds of the mean microseconds per ``fn(point)``."""
    fn(points[0])
    rounds = []
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        for i in range(CALLS):
            fn(points[i % len(points)])
        rounds.append((time.perf_counter() - t0) / CALLS * 1e6)
    return statistics.median(rounds)


def _counting(fn, counts, key):
    def wrapped(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    return wrapped


def test_lean_step(tech, results_dir):
    tb = logic_path_testbench(tech, late_input="X")
    measures = [EdgeDelay("delay_A", "X", "A", tb.vth)]

    # ----- one proposed call, counted -----
    compiled = compile_circuit(tb.circuit)
    counts = {"assemble": 0, "factor": 0}
    compiled.assemble = _counting(compiled.assemble, counts, "assemble")
    compiled.backend.factor = _counting(compiled.backend.factor, counts,
                                        "factor")
    t0 = time.perf_counter()
    orbit = pss(compiled, tb.period,
                options=PssOptions(n_steps=N_STEPS,
                                   settle_periods=SETTLE_PERIODS))
    result = run_transient_mismatch(compiled, measures, orbit)
    wall = time.perf_counter() - t0
    sigma = result.sigma("delay_A")
    assert abs(sigma - SIGMA_REF) <= 1e-9 * SIGMA_REF

    # ----- per-call kernels at orbit operating points -----
    kern = compile_circuit(tb.circuit)
    state = kern.nominal
    n = kern.n
    x_pads = [kern.pad(x) for x in orbit.x[:: N_STEPS // 16]]
    t_pts = orbit.t[:: N_STEPS // 16]
    _, g_pad, f_pad = kern.buffers(())
    c_over_h_pad = kern.capacitance(state) / (tb.period / N_STEPS)
    c_over_h = c_over_h_pad[:n, :n]
    steps = []
    for x_pad, t in zip(x_pads, t_pts):
        kern.assemble(state, x_pad, float(t), g_pad, f_pad)
        steps.append(0.5 * g_pad[:n, :n] + c_over_h)
    backend = kern.backend
    factors = [backend.factor(a) for a in steps]
    rhs = np.random.default_rng(0).normal(size=n)
    # sources come from a grid table, as in the fixed-grid loops
    table = kern.source_table(state, t_pts)
    pts = range(len(x_pads))
    # the per-run buffers a transient's step solver owns
    work = _NewtonWork(kern, state, ())

    def assemble(i, jacobian):
        kern.assemble(state, x_pads[i], float(t_pts[i]), g_pad, f_pad,
                      jacobian=jacobian, sources=table.row(i),
                      scratch=work.scratch)

    # the step residual between consecutive orbit points
    theta = np.append(kern.theta_rows(state, "trap"), 1.0)
    one_minus = 1.0 - theta
    f_pts = []
    for i in pts:
        assemble(i, False)
        f_pts.append(f_pad.copy())

    def residual(i):
        j = i - 1
        _residual(x_pads[i], x_pads[j], f_pts[i], f_pts[j], theta,
                  one_minus, c_over_h_pad, work)

    # one modified-Newton iteration of the settle: the cache holds the
    # step matrix's factorization and, for a constant-Jacobian cache,
    # never re-factors; an infinite tolerance accepts after one pass
    cache = FactorizationCache(backend, jac_constant=True)
    cache.solve(rhs, lambda: steps[0])
    one_pass = NewtonOptions(max_iterations=1, vntol=np.inf,
                             max_step=1.0)
    x_it = np.empty_like(x_pads[0])

    def newton_iteration(i):
        j = i - 1
        np.copyto(x_it, x_pads[i])
        _newton_step_reuse(kern, state, x_it, x_pads[j], f_pts[j],
                           float(t_pts[i]), theta, one_minus,
                           c_over_h_pad, g_pad, f_pad, cache, one_pass,
                           work, src=table.row(i))

    # one Monte-Carlo chunk: per-lane threshold deltas, every lane at
    # the same orbit point, lane-shared sources from a grid table
    rng = np.random.default_rng(1)
    lanes = (MC_LANES,)
    mc_state = kern.make_state(deltas={
        (e.name, "vt0"): rng.normal(0.0, 0.01, lanes) for e in kern.mosfets
    })
    mc_x = [np.broadcast_to(x, lanes + x.shape).copy() for x in x_pads]
    _, mc_g, mc_f = kern.buffers(lanes)
    mc_table = kern.source_table(mc_state, t_pts)

    def assemble_lanes(i, jacobian):
        kern.assemble(mc_state, mc_x[i], float(t_pts[i]), mc_g, mc_f,
                      jacobian=jacobian, sources=mc_table.row(i))

    us = {
        "assemble_jacobian": _us_per_call(lambda i: assemble(i, True), pts),
        "assemble_residual": _us_per_call(lambda i: assemble(i, False),
                                          pts),
        "residual": _us_per_call(residual, pts),
        "factor": _us_per_call(backend.factor, steps),
        "solve": _us_per_call(lambda f: f.solve(rhs), factors),
        "newton_iteration": _us_per_call(newton_iteration, pts),
        f"assemble_jacobian_{MC_LANES}_lanes": _us_per_call(
            lambda i: assemble_lanes(i, True), pts),
        f"assemble_residual_{MC_LANES}_lanes": _us_per_call(
            lambda i: assemble_lanes(i, False), pts),
    }

    lines = [
        "batch-of-one Newton step, Table II logic path "
        f"(n={n}, {len(kern.mosfets)} MOSFETs, backend={backend.name})",
        f"{'kernel':<30s} {'us/call':>9s}",
        *(f"{k:<30s} {v:>9.1f}" for k, v in us.items()),
        f"proposed call: {wall:.3f} s, {counts['assemble']} assemblies, "
        f"{counts['factor']} factorizations, "
        f"sigma(delay_A) = {sigma:.6e} s",
    ]
    data = {
        "n_unknowns": n,
        "n_mosfets": len(kern.mosfets),
        "n_steps": N_STEPS,
        "n_settle_periods": SETTLE_PERIODS,
        "n_mc_lanes": MC_LANES,
        "backend": backend.name,
        "per_call_us": us,
        "proposed": {
            "wall_seconds": wall,
            "assemble_calls": counts["assemble"],
            "factor_calls": counts["factor"],
            "sigma_delay_a": sigma,
            "sigma_rel_err": abs(sigma - SIGMA_REF) / SIGMA_REF,
        },
    }
    publish(results_dir, "lean_step", "\n".join(lines), data=data)
