"""Parity of the lean Newton step: batch of one, batched lanes, orbit.

Batchless (batch-of-one) runs take three shortcuts, chosen only by the
parameter state's batch shape:

* sources tabulated once over the fixed grid
  (:class:`~repro.analysis.stamps.SourceTable`), exactly equal to the
  per-point :meth:`~repro.analysis.stamps.SourcePlan.combined`;
* the fused EKV kernel (:func:`~repro.circuit.mosfet.ekv_ids_fused`),
  within 1e-14 of the reference :func:`~repro.circuit.mosfet.ekv_ids`
  that batched Monte-Carlo lanes keep, evaluated in place with the
  state's constants (:class:`~repro.circuit.mosfet.MosConstants`);
* bare LAPACK ``dgetrf`` / ``dgetrs`` in
  :class:`~repro.linalg.backends.DenseLuFactorization`, bit-identical
  to ``scipy.linalg.lu_factor`` / ``lu_solve``.

Batched assembly - Monte-Carlo lanes, and the dense orbit
linearisation in blocks of samples - is made lean without changing a
bit, and each shortcut is pinned here against what it replaced:

* the reference kernel against a frozen copy of its textbook form
  (four softplus calls, masked logistic);
* the 1-D flat-index device scatter against the ``(bidx, idx)`` tuple
  scatter;
* batched source tables against the per-point source plan;
* the blocked orbit Jacobian stack, and the LPTV sigma on it, against
  the one-sample-per-call loop.

The batch-of-one iteration then lost its allocations without changing
a bit: per-state kernel constants, device and residual values written
into per-run buffers.  Residual-only and Jacobian assembly,
``_residual`` and ``_update_norm`` are each pinned with
``np.array_equal`` to a frozen copy of the composition they replaced,
on the logic path, the comparator, the ring oscillator, the 5T OTA and
RC.

The end-to-end pins are the logic-path sigma and nominal of Table II,
the comparator's sigma(vos) and the oscillator's sigma(f), each equal
to the value before the per-run buffers; the logic proposed call's
assembly and factorization counts; and two threads on one
session-cached compiled circuit against a serial run.
"""

from __future__ import annotations

import gc
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg

from repro.analysis import compile_circuit, pss
from repro.analysis import mna
from repro.analysis.mna import _BIDX_CACHE_MAX, CompiledCircuit
from repro.analysis.orbit import ORBIT_BLOCK, OrbitLinearization
from repro.analysis.pss import PssOptions
from repro.analysis.stamps import SourceTable
from repro.analysis.transient import _NewtonWork, _residual
from repro.api import transient_mismatch_analysis
from repro.circuit import Circuit, Sine
from repro.circuit.mosfet import (EkvWork, MosConstants, ekv_ids,
                                  ekv_ids_fused)
from repro.circuit.sources import Pwl
from repro.circuits import (five_transistor_ota, logic_path_testbench,
                            ring_oscillator, strongarm_offset_testbench)
from repro.constants import PHI_T
from repro.core.analysis import run_transient_mismatch
from repro.core.measures import DcLevel, EdgeDelay, Frequency
from repro.linalg import reuse
from repro.linalg.backends import DenseLuFactorization
from repro.linalg.krylov import use_matrix_free
from repro.service import AnalysisSession

#: Logic-path sigma(delay_A) of the Table II proposed call (PSS with
#: 800 steps, 2 settle periods) before the lean step existed.
LOGIC_SIGMA = 6.880112389803763e-12


# ---------------------------------------------------------------------------
# sources on the grid
# ---------------------------------------------------------------------------
def _sine_pwl_circuit() -> Circuit:
    ckt = Circuit("sine_pwl")
    ckt.add_vsource("VS", "a", "0",
                    wave=Sine(amplitude=0.3, freq=1.3e6, offset=0.6,
                              delay=1e-8))
    ckt.add_vsource("VP", "b", "0",
                    wave=Pwl(times=[1e-7, 3e-7, 5e-7, 9e-7],
                             values=[0.0, 1.0, 0.25, 0.0], t_period=8e-7))
    ckt.add_vsource("VD", "c", "0", dc=0.9)
    # a DC and a time-varying current source sharing node "b": the
    # table must add the waves on top of the static vector
    ckt.add_isource("ID", "b", "0", dc=1e-4)
    ckt.add_isource("IS", "0", "b",
                    wave=Sine(amplitude=2e-5, freq=2.5e6, offset=1e-5))
    ckt.add_resistor("R1", "a", "b", 1e3)
    ckt.add_resistor("R2", "b", "c", 2e3)
    ckt.add_resistor("R3", "c", "0", 3e3)
    return ckt


def _testbenches(tech):
    comp = strongarm_offset_testbench(tech)
    logic = logic_path_testbench(tech, late_input="X")
    return {
        "comparator": (comp.circuit, comp.period),
        "logic_path": (logic.circuit, logic.period),
        "oscillator": (ring_oscillator(tech), 4e-10),
        "sine_pwl": (_sine_pwl_circuit(), 8e-7),
    }


@pytest.mark.parametrize(
    "name", ["comparator", "logic_path", "oscillator", "sine_pwl"])
def test_grid_table_equals_per_point_sources(tech, name):
    circuit, period = _testbenches(tech)[name]
    compiled = compile_circuit(circuit)
    state = compiled.nominal
    n_steps = 400
    t0 = 3 * period
    h = period / n_steps
    # the PSS grid (t0 + k h) and a settle-style grid (t_start + dt k)
    for t_grid in (t0 + h * np.arange(n_steps + 1),
                   0.0 + h * np.arange(2 * n_steps + 1)):
        table = compiled.source_table(state, t_grid)
        plan = compiled._src_plan
        if not plan.tv_waves:
            assert table.row(0) is None
            continue
        fresh = compiled.make_state()
        for k in range(t_grid.size):
            want = plan.combined(fresh, float(t_grid[k]))
            assert np.array_equal(table.row(k), want), (name, k)


def _mc_state(compiled, lanes: int = 5, seed: int = 3):
    """A Monte-Carlo parameter state: per-lane threshold deltas."""
    rng = np.random.default_rng(seed)
    return compiled.make_state(deltas={
        (e.name, "vt0"): rng.normal(0.0, 0.01, lanes)
        for e in compiled.mosfets})


@pytest.mark.parametrize("name", ["comparator", "logic_path", "sine_pwl"])
def test_batched_table_rows_equal_per_point_sources(tech, name):
    circuit, period = _testbenches(tech)[name]
    compiled = compile_circuit(circuit)

    def lanes():
        return (_mc_state(compiled) if compiled.mosfets
                else compiled.make_state(batch_shape=(5,)))

    state = lanes()
    assert state.batched
    t_grid = 0.0 + (period / 300) * np.arange(601)
    table = compiled.source_table(state, t_grid)
    fresh = lanes()
    plan = compiled._src_plan
    for k in range(t_grid.size):
        want = plan.combined(fresh, float(t_grid[k]))
        assert want.shape == (compiled.n + 1,)
        assert np.array_equal(table.row(k), want), (name, k)
    block = table.rows(250, 317)
    for i, k in enumerate(range(250, 317)):
        assert np.array_equal(block[i], table.row(k)), (name, k)


def test_lane_varying_sources_are_not_tabulated(tech):
    compiled = compile_circuit(_sine_pwl_circuit())
    state = compiled.make_state(
        source_values={"VD": np.array([0.8, 0.9, 1.0])})
    table = compiled.source_table(state, np.linspace(0.0, 8e-7, 9))
    assert table.row(4) is None
    assert table.rows(2, 6) is None


# ---------------------------------------------------------------------------
# fused EKV kernel
# ---------------------------------------------------------------------------
def _operating_points(tech, n_points: int = 12):
    """Terminal voltages of the logic path's devices along its orbit."""
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    res = pss(compiled, tb.period,
              options=PssOptions(n_steps=200, settle_periods=1))
    rows = np.linspace(0, res.x.shape[0] - 1, n_points).astype(int)
    x_pad = compiled.pad(res.x[rows])
    v = compiled._mos_sign * x_pad[..., compiled._mos_idx.T]
    state = compiled.nominal
    return ([v[..., i, :] for i in range(4)]
            + [state.mos["vt0"], state.mos["beta"], compiled._mos_n,
               compiled._mos_lam])


def _random_points(n: int = 4000):
    rng = np.random.default_rng(7)
    vd, vg, vs, vb = (rng.uniform(-0.4, 1.6, n) for _ in range(4))
    return [vd, vg, vs, vb, rng.uniform(0.2, 0.5, n),
            rng.uniform(1e-5, 1e-3, n), rng.uniform(1.1, 1.6, n),
            rng.uniform(0.0, 0.4, n)]


def _fused(vd, vg, vs, vb, vt0, beta, n, lam_eff, derivatives=True):
    """:func:`ekv_ids_fused` on per-terminal arrays, as ``(ids, g_d,
    g_g, g_s, g_b)`` (``ids`` alone without *derivatives*)."""
    shape = np.broadcast_shapes(*(np.shape(a) for a in (vd, vg, vs, vb)))
    work = EkvWork(shape)
    work.v[...] = np.stack([np.broadcast_to(a, shape)
                            for a in (vs, vd, vg, vb, vb, vb)], axis=-2)
    ids = ekv_ids_fused(work, vt0, MosConstants.of(beta, n, lam_eff),
                        derivatives)
    if not derivatives:
        return (ids,)
    return (ids, *(work.g[..., k, :] for k in range(4)))


@pytest.mark.parametrize("derivatives", [True, False])
@pytest.mark.parametrize("points", ["orbit", "random"])
def test_fused_kernel_matches_reference(tech, derivatives, points):
    args = (_operating_points(tech) if points == "orbit"
            else _random_points())
    ref = ekv_ids(*args, derivatives=derivatives)
    got = _fused(*args, derivatives=derivatives)
    fields = ("ids", "g_d", "g_g", "g_s", "g_b")
    assert len(got) == (5 if derivatives else 1)
    for f, have in zip(fields, got):
        want = getattr(ref, f)
        assert have.shape == want.shape
        # relative to the quantity's scale: gm = dF_f - dF_r cancels at
        # vds = 0, so an elementwise ratio would measure that instead
        err = np.max(np.abs(have - want)) / np.max(np.abs(want))
        assert err <= 1e-14, (f, err)


def _spy_kernels(monkeypatch):
    calls = {"ekv_ids": 0, "ekv_ids_fused": 0}

    def spy(name, fn):
        def wrapped(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)
        monkeypatch.setattr(mna, name, wrapped)

    spy("ekv_ids", ekv_ids)
    spy("ekv_ids_fused", ekv_ids_fused)
    return calls


def _assemble(compiled, state, x_pad, jacobian=True):
    _, g_pad, f_pad = compiled.buffers(x_pad.shape[:-1])
    compiled.assemble(state, x_pad, 1.3e-9, g_pad, f_pad,
                      jacobian=jacobian)
    return g_pad, f_pad


def test_batched_assemble_stays_on_reference_kernel(tech, monkeypatch):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    rng = np.random.default_rng(3)
    deltas = {(e.name, "vt0"): rng.normal(0.0, 0.01, 5)
              for e in compiled.mosfets}
    state = compiled.make_state(deltas=deltas)
    x_pad = compiled.pad(rng.uniform(0.0, tech.vdd, (5, compiled.n)))
    g, f = _assemble(compiled, state, x_pad)

    calls = _spy_kernels(monkeypatch)
    g2, f2 = _assemble(compiled, state, x_pad)
    assert calls == {"ekv_ids": 1, "ekv_ids_fused": 0}
    assert np.array_equal(g, g2) and np.array_equal(f, f2)

    # pinned to ekv_ids: bit-identical with every kernel bound to it
    monkeypatch.setattr(mna, "ekv_ids_fused", ekv_ids)
    g3, f3 = _assemble(compiled, state, x_pad)
    assert np.array_equal(g, g3) and np.array_equal(f, f3)


def _reference_in_place(beta):
    """:func:`ekv_ids` behind the in-place signature of
    :func:`ekv_ids_fused` (the state's *beta* is not one of its
    constants)."""
    def kernel(work, vt0, consts, derivatives=True):
        v = work.v
        ev = ekv_ids(v[..., 1, :], v[..., 2, :], v[..., 0, :],
                     v[..., 3, :], vt0, beta, consts.n, consts.lam,
                     derivatives=derivatives)
        work.ids[...] = ev.ids
        if derivatives:
            for k, g in enumerate((ev.g_d, ev.g_g, ev.g_s, ev.g_b)):
                work.g[..., k, :] = g
        return work.ids
    return kernel


def test_batchless_assemble_uses_fused_kernel(tech, monkeypatch):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    x_pad = compiled.pad(
        np.random.default_rng(4).uniform(0.0, tech.vdd, compiled.n))
    g, f = _assemble(compiled, compiled.nominal, x_pad)
    calls = _spy_kernels(monkeypatch)
    _assemble(compiled, compiled.nominal, x_pad, jacobian=False)
    assert calls == {"ekv_ids": 0, "ekv_ids_fused": 1}
    monkeypatch.setattr(mna, "ekv_ids_fused",
                        _reference_in_place(compiled.nominal.mos["beta"]))
    g_ref, f_ref = _assemble(compiled, compiled.nominal, x_pad)
    assert np.max(np.abs(g - g_ref)) <= 1e-14 * np.max(np.abs(g_ref))
    assert np.max(np.abs(f - f_ref)) <= 1e-14 * np.max(np.abs(g_ref))


# ---------------------------------------------------------------------------
# reference kernel: bit-pinned to its textbook form
# ---------------------------------------------------------------------------
_LN2 = np.log(2.0)


def _frozen_softplus(x):
    return np.logaddexp(0.0, x)


def _frozen_logistic(x):
    out = np.empty_like(x, dtype=float)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _frozen_ekv_ids(vd, vg, vs, vb, vt0, beta, n, lam_eff, phi_t=PHI_T,
                    derivatives=True):
    """The reference kernel as it was written before it was stacked:
    four softplus calls and the masked logistic."""
    vd, vg, vs, vb = (np.asarray(a, dtype=float) for a in (vd, vg, vs, vb))
    vp = (vg - vb - vt0) / n

    def interp_f(u):
        sp = _frozen_softplus(0.5 * u)
        return sp * sp, (sp * _frozen_logistic(0.5 * u)
                         if derivatives else None)

    f_f, df_f = interp_f((vp - (vs - vb)) / phi_t)
    f_r, df_r = interp_f((vp - (vd - vb)) / phi_t)
    i_core = 2.0 * n * beta * phi_t * phi_t * (f_f - f_r)
    vds = vd - vs
    sabs = phi_t * (_frozen_softplus(vds / phi_t)
                    + _frozen_softplus(-vds / phi_t) - 2.0 * _LN2)
    m = 1.0 + lam_eff * sabs
    ids = i_core * m
    if not derivatives:
        return (ids,)
    dm = lam_eff * np.tanh(0.5 * vds / phi_t)
    gm = 2.0 * beta * phi_t * (df_f - df_r) * m
    g_d = 2.0 * n * beta * phi_t * df_r * m + i_core * dm
    g_s = -2.0 * n * beta * phi_t * df_f * m - i_core * dm
    g_b = (n - 1.0) * gm
    return ids, g_d, gm, g_s, g_b


def _edge_points():
    """Every combination of signed zeros, tiny and huge voltages
    (softplus arguments beyond +-700) and non-finite values on the four
    terminals."""
    vals = np.array([0.0, -0.0, 1e-300, -1e-300, 0.45, -0.45, 40.0,
                     -40.0, 1e3, -1e3, np.inf, -np.inf, np.nan])
    grid = np.stack(np.meshgrid(vals, vals, vals, vals,
                                indexing="ij")).reshape(4, -1)
    k = grid.shape[1]
    rng = np.random.default_rng(11)
    return [*grid, rng.uniform(0.2, 0.5, k), rng.uniform(1e-5, 1e-3, k),
            rng.uniform(1.1, 1.6, k), rng.uniform(0.0, 0.4, k)]


def _lane_points(tech):
    """Batched ``(lanes, devices)`` terminal voltages with per-lane
    parameters, as a Monte-Carlo assembly passes them."""
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    state = _mc_state(compiled, lanes=64)
    x_pad = compiled.pad(np.random.default_rng(5).uniform(
        -0.1, tech.vdd + 0.1, (64, compiled.n)))
    v = compiled._mos_sign * x_pad[..., compiled._mos_idx.T]
    return ([v[..., i, :] for i in range(4)]
            + [state.mos["vt0"], state.mos["beta"], compiled._mos_n,
               compiled._mos_lam])


@pytest.mark.parametrize("derivatives", [True, False])
@pytest.mark.parametrize("points", ["orbit", "random", "edge", "lanes"])
def test_reference_kernel_is_bit_pinned(tech, derivatives, points):
    args = {"orbit": lambda: _operating_points(tech),
            "random": _random_points, "edge": _edge_points,
            "lanes": lambda: _lane_points(tech)}[points]()
    with np.errstate(all="ignore"):
        want = _frozen_ekv_ids(*args, derivatives=derivatives)
        got = ekv_ids(*args, derivatives=derivatives)
    fields = ("ids", "g_d", "g_g", "g_s", "g_b")[:len(want)]
    for f, ref in zip(fields, want):
        have = getattr(got, f)
        assert have.shape == ref.shape and have.dtype == ref.dtype
        assert np.array_equal(have, ref, equal_nan=True), f
    if points == "edge":
        # the cases the identity must survive are really there
        assert np.isnan(want[0]).any() and np.isinf(args[0]).any()
    if not derivatives:
        assert got.g_d is None and got.gm is None


def test_reference_kernel_is_bit_pinned_on_scalars():
    edge, rand = _edge_points(), _random_points()
    cases = ([(edge, i) for i in range(0, edge[0].size, 97)]
             + [(rand, i) for i in range(40)])
    for points, i in cases:
        args = [float(a[i]) for a in points]
        with np.errstate(all="ignore"):
            want = _frozen_ekv_ids(*args)
            got = ekv_ids(*args)
        have = (got.ids, got.g_d, got.g_g, got.g_s, got.g_b)
        for ref, val in zip(want, have):
            assert np.array_equal(val, ref, equal_nan=True), (i, args)


# ---------------------------------------------------------------------------
# batched assembly: flat-index scatter
# ---------------------------------------------------------------------------
def _tuple_scatter(self, target, idx, vals, batch, kind):
    """The broadcast ``(bidx, idx)`` tuple scatter the flat path
    replaced."""
    if batch:
        np.add.at(target, (self._bidx(batch), idx), vals)
    else:
        np.add.at(target, idx, vals)


@pytest.mark.parametrize("jacobian", [True, False])
@pytest.mark.parametrize("name", ["comparator", "logic_path"])
@pytest.mark.parametrize("lanes", [1, 7])
def test_batched_scatter_matches_tuple_index(tech, monkeypatch, name,
                                             jacobian, lanes):
    circuit, period = _testbenches(tech)[name]
    compiled = compile_circuit(circuit)
    rng = np.random.default_rng(9)
    x_pad = compiled.pad(rng.uniform(0.0, tech.vdd, (lanes, compiled.n)))
    # 0.37 periods in: the comparator's gated VCCS is mid-transition
    t = 0.37 * period
    for state in (_mc_state(compiled, lanes), compiled.nominal):
        _, g_flat, f_flat = compiled.buffers((lanes,))
        compiled.assemble(state, x_pad, t, g_flat, f_flat,
                          jacobian=jacobian)
        with monkeypatch.context() as m:
            m.setattr(CompiledCircuit, "_scatter", _tuple_scatter)
            _, g_tup, f_tup = compiled.buffers((lanes,))
            compiled.assemble(state, x_pad, t, g_tup, f_tup,
                              jacobian=jacobian)
        assert np.array_equal(f_flat, f_tup)
        assert np.array_equal(g_flat, g_tup)
    if name == "comparator":
        assert compiled.nl_vccs and compiled._nlv_plan.any_gate


def test_batched_assemble_rejects_strided_buffers(tech):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    x_pad, g_pad, f_pad = compiled.buffers((4,))
    with pytest.raises(ValueError, match="C-contiguous"):
        compiled.assemble(compiled.nominal, x_pad, 0.0, g_pad,
                          np.zeros((compiled.n + 1, 4)).T,
                          jacobian=False)


def test_flat_index_cache_is_bounded(tech):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    n1 = compiled.n + 1
    shapes = [(b,) for b in range(1, _BIDX_CACHE_MAX + 5)] + [(2, 3)]
    for shape in shapes:
        x_pad, g_pad, f_pad = compiled.buffers(shape)
        compiled.assemble(compiled.nominal, x_pad, 0.0, g_pad, f_pad)
        assert len(compiled._flat_cache) <= _BIDX_CACHE_MAX
    assert list(compiled._flat_cache) == shapes[-_BIDX_CACHE_MAX:]
    # a hit refreshes recency instead of growing the cache
    x_pad, g_pad, f_pad = compiled.buffers(shapes[-3])
    compiled.assemble(compiled.nominal, x_pad, 0.0, g_pad, f_pad)
    assert list(compiled._flat_cache)[-1] == shapes[-3]
    assert len(compiled._flat_cache) == _BIDX_CACHE_MAX
    flat = compiled._flat_cache[(2, 3)]["mos_g"]
    lanes = np.arange(6)[:, None] * (n1 * n1)
    assert np.array_equal(flat, (lanes + compiled._mos_gflat).ravel())
    compiled.clear_caches()
    assert not compiled._flat_cache


# ---------------------------------------------------------------------------
# blocked orbit linearisation
# ---------------------------------------------------------------------------
def _rc_circuit() -> Circuit:
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _orbit_case(tech, name):
    """Circuit, PSS result and measures of one blocked-orbit case; every
    ``n_steps + 1`` spans several blocks and is not a multiple of one."""
    if name == "rc":
        compiled = compile_circuit(_rc_circuit())
        res = pss(compiled, 1e-6,
                  options=PssOptions(n_steps=200, settle_periods=3))
        return compiled, res, [DcLevel("avg", "out")]
    if name == "comparator":
        tb = strongarm_offset_testbench(tech)
        compiled = compile_circuit(tb.circuit)
        res = pss(compiled, tb.period,
                  options=PssOptions(n_steps=150, settle_periods=30))
        return compiled, res, [DcLevel("vos", tb.vos_node)]
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    res = pss(compiled, tb.period,
              options=PssOptions(n_steps=170, settle_periods=2))
    return compiled, res, [EdgeDelay("delay_A", "X", "A", tb.vth)]


def _per_sample_stack(compiled, state, x, t):
    """The dense linearisation as one single-sample assembly per
    orbit sample."""
    n = compiled.n
    _, g_pad, f_pad = compiled.buffers(())
    sources = compiled.source_table(state, t)
    out = np.empty((x.shape[0], n, n))
    for k in range(x.shape[0]):
        compiled.assemble(state, compiled.pad(x[k]), float(t[k]), g_pad,
                          f_pad, sources=sources.row(k))
        out[k] = g_pad[:n, :n]
    return out


@pytest.mark.parametrize("name", ["logic_path", "comparator", "rc"])
def test_blocked_orbit_equals_per_sample_loop(tech, monkeypatch, name):
    compiled, res, measures = _orbit_case(tech, name)
    n_pts = res.x.shape[0]
    assert n_pts > 2 * ORBIT_BLOCK and n_pts % ORBIT_BLOCK
    assert not use_matrix_free(compiled.backend, compiled.n, None)

    calls = {"n": 0}
    assemble = compiled.assemble

    def counting(*a, **kw):
        calls["n"] += 1
        return assemble(*a, **kw)

    with monkeypatch.context() as m:
        m.setattr(compiled, "assemble", counting)
        lin = res.linearization()
    assert not lin.sparse
    assert calls["n"] == -(-n_pts // ORBIT_BLOCK)
    want = _per_sample_stack(compiled, res.state, res.x, res.t)
    assert np.array_equal(lin.g_t, want)

    # the LPTV sigma on the blocked stack is the one on the loop's
    sigma = run_transient_mismatch(compiled, measures, res).sigma(
        measures[0].name)
    res.clear_caches()
    build = OrbitLinearization.__init__

    def per_sample(self, compiled, state, x, t, *args, **kwargs):
        build(self, compiled, state, x, t, *args, **kwargs)
        self.g_t = _per_sample_stack(compiled, state, x, t)

    monkeypatch.setattr(OrbitLinearization, "__init__", per_sample)
    sigma_loop = run_transient_mismatch(compiled, measures, res).sigma(
        measures[0].name)
    assert np.isfinite(sigma) and sigma > 0.0
    assert sigma == sigma_loop


# ---------------------------------------------------------------------------
# bare LAPACK
# ---------------------------------------------------------------------------
def _regular(n: int = 16, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, n)) + 4.0 * np.eye(n)


@pytest.mark.parametrize("trans", [False, True])
@pytest.mark.parametrize("rhs_shape", [(16,), (16, 5)])
def test_dense_lu_bit_identical_to_scipy(trans, rhs_shape):
    a = _regular()
    # a strided view, as the Newton loops pass (j_pad[:n, :n])
    a_view = np.pad(a, ((0, 1), (0, 1)))[:16, :16]
    rhs = np.random.default_rng(1).normal(size=rhs_shape)
    want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), rhs,
                                 trans=1 if trans else 0)
    have = DenseLuFactorization(a_view).solve(rhs, trans=trans)
    assert have.shape == want.shape
    assert np.array_equal(have, want)


def test_dense_lu_leaves_warning_filters_alone(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("warnings.catch_warnings is not thread-safe")

    singular = _regular()
    singular[:, 3] = 0.0
    nonfinite = _regular()
    nonfinite[2, 7] = np.nan
    filters = warnings.filters
    snapshot = list(filters)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        inside, inside_snapshot = warnings.filters, list(warnings.filters)
        monkeypatch.setattr(warnings, "catch_warnings", forbidden)
        DenseLuFactorization(_regular()).solve(np.ones(16))
        with pytest.raises(np.linalg.LinAlgError):
            DenseLuFactorization(singular)
        with pytest.raises(np.linalg.LinAlgError):
            DenseLuFactorization(nonfinite)
        assert warnings.filters is inside
        assert warnings.filters == inside_snapshot
        monkeypatch.undo()
    assert caught == []
    assert warnings.filters is filters and warnings.filters == snapshot


# ---------------------------------------------------------------------------
# end to end: the Table II logic path
# ---------------------------------------------------------------------------
def test_logic_path_sigma_and_no_table_left_behind(tech):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    state = compiled.nominal
    res = pss(compiled, tb.period,
              options=PssOptions(n_steps=800, settle_periods=2))
    out = run_transient_mismatch(
        compiled, [EdgeDelay("delay_A", "X", "A", tb.vth)], res)
    sigma = out.sigma("delay_A")
    assert abs(sigma - LOGIC_SIGMA) <= 1e-9 * LOGIC_SIGMA

    # the tables lived only for their loops
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, SourceTable)]
    for value in vars(state).values():
        assert not isinstance(value, SourceTable)
        if isinstance(value, np.ndarray):
            assert value.ndim < 2 or value.shape[0] < res.n_steps


# ---------------------------------------------------------------------------
# the batch-of-one iteration in per-run buffers, against frozen copies
# ---------------------------------------------------------------------------
def _frozen_ekv_ids_fused(vd, vg, vs, vb, vt0, beta, n, lam_eff,
                          phi_t=PHI_T, derivatives=True):
    """The fused kernel as it was before its constants moved to the
    state and its values into buffers: every constant recomputed and
    every intermediate a fresh temporary."""
    vp = np.asarray((vg - vb - vt0) / n)
    vds = np.asarray(vd - vs)
    shape = (vp.shape if vp.shape == vds.shape
             else np.broadcast_shapes(vp.shape, vds.shape))
    x = np.empty((3,) + shape)
    np.subtract(vs, vb, out=x[0])
    np.subtract(vd, vb, out=x[1])
    np.subtract(vp, x[:2], out=x[:2])
    x[:2] *= 0.5 / phi_t
    np.divide(vds, phi_t, out=x[2])
    a = np.abs(x)
    e = np.exp(-a)
    lg = np.log1p(e)
    sp = np.maximum(x[:2], 0.0)
    sp += lg[:2]
    k = 2.0 * n * beta * phi_t
    sq = sp * sp
    i_core = k * phi_t * (sq[0] - sq[1])
    m = 1.0 + (lam_eff * phi_t) * (a[2] + 2.0 * lg[2] - 2.0 * _LN2)
    ids = i_core * m
    if not derivatives:
        return ids, None
    ef = e[:2]
    df = np.where(x[:2] >= 0.0, 1.0, ef)
    df /= 1.0 + ef
    df *= sp
    df *= m
    df *= k
    i_dm = i_core * (lam_eff * np.tanh(0.5 * x[2]))
    gm = (df[0] - df[1]) / n
    g_d = df[1] + i_dm
    g_s = -df[0] - i_dm
    g_b = (n - 1.0) * gm
    return ids, (g_d, gm, g_s, g_b)


def _frozen_assemble(compiled, state, x_pad, t, g_pad, f_pad,
                     jacobian=True, sources=None):
    """:meth:`CompiledCircuit.assemble` of a batchless state as it was
    composed before the per-run buffers: a gather temporary, the
    frozen kernel, ``sign * ids`` and concatenated stamp values."""
    batch = f_pad.shape[:-1]
    g_lin = state.to_dense()[0]
    if jacobian:
        np.copyto(g_pad, g_lin)
        np.matmul(g_pad, x_pad[..., None], out=f_pad[..., None])
    else:
        np.matmul(g_lin, x_pad[..., None], out=f_pad[..., None])
    compiled._add_sources(state, t, f_pad, 1.0, sources)
    gflat = g_pad.reshape(batch + (-1,)) if jacobian else None
    if compiled.mosfets:
        v = compiled._mos_sign * x_pad[..., compiled._mos_idx.T]
        ids, g = _frozen_ekv_ids_fused(
            v[..., 0, :], v[..., 1, :], v[..., 2, :], v[..., 3, :],
            state.mos["vt0"], state.mos["beta"], compiled._mos_n,
            compiled._mos_lam, derivatives=jacobian)
        ids_phys = compiled._mos_sign * ids
        fvals = np.concatenate((ids_phys, -ids_phys), axis=-1)
        compiled._scatter(f_pad, compiled._mos_frows, fvals, batch,
                          "mos_f")
        if jacobian:
            g4 = np.concatenate(g, axis=-1)
            gvals = np.concatenate((g4, -g4), axis=-1)
            compiled._scatter(gflat, compiled._mos_gflat, gvals, batch,
                              "mos_g")
    if compiled.nl_vccs:
        compiled._add_nl_vccs(state, x_pad, t, f_pad, jacobian, gflat,
                              compiled._nlv_plan.g_idx, batch)
    f_pad[..., compiled._ground] = 0.0


def _frozen_residual(x_pad, x_prev, f_pad, f_prev, theta, c_over_h):
    dx = x_pad - x_prev
    res = np.matmul(c_over_h, dx[..., None])[..., 0]
    res += theta * f_pad
    res += (1.0 - theta) * f_prev
    return res


def _frozen_update_norm(delta):
    mag = np.abs(delta)
    top = np.maximum.reduce(mag, axis=None, initial=0.0)
    if np.isfinite(top):
        return float(top)
    return float(mag[np.isfinite(mag)].max(initial=0.0))


#: The circuits the lean-iteration parity covers, with a period.
LEAN_CIRCUITS = ["logic_path", "comparator", "oscillator", "ota", "rc"]


def _lean_case(tech, name):
    if name == "ota":
        return five_transistor_ota(tech), 1e-6
    if name == "rc":
        return _rc_circuit(), 1e-6
    return _testbenches(tech)[name]


def _lean_points(compiled, tech, rng, batch=()):
    return compiled.pad(rng.uniform(-0.2, tech.vdd + 0.2,
                                    batch + (compiled.n,)))


@pytest.mark.parametrize("jacobian", [False, True])
@pytest.mark.parametrize("name", LEAN_CIRCUITS)
def test_lean_assembly_matches_frozen_composition(tech, name, jacobian):
    circuit, period = _lean_case(tech, name)
    compiled = compile_circuit(circuit)
    state = compiled.nominal
    rng = np.random.default_rng(21)
    t_grid = np.linspace(0.0, period, 9)
    table = compiled.source_table(state, t_grid)
    # one scratch kept across every point, as a Newton loop keeps it:
    # nothing a point leaves behind may reach the next
    scratch = compiled.scratch()
    for k, t in enumerate(t_grid):
        x_pad = _lean_points(compiled, tech, rng)
        _, g_want, f_want = compiled.buffers(())
        _frozen_assemble(compiled, state, x_pad, float(t), g_want, f_want,
                         jacobian, table.row(k))
        for scr in (scratch, None):
            _, g_have, f_have = compiled.buffers(())
            compiled.assemble(state, x_pad, float(t), g_have, f_have,
                              jacobian=jacobian, sources=table.row(k),
                              scratch=scr)
            assert np.array_equal(f_have, f_want), (name, k)
            assert np.array_equal(g_have, g_want), (name, k)
    # a block of orbit samples: per-row times and source rows, one call
    x_blk = _lean_points(compiled, tech, rng, (len(t_grid),))
    _, g_want, f_want = compiled.buffers(x_blk.shape[:-1])
    _frozen_assemble(compiled, state, x_blk, t_grid, g_want, f_want,
                     jacobian, table.rows(0, len(t_grid)))
    _, g_have, f_have = compiled.buffers(x_blk.shape[:-1])
    compiled.assemble(state, x_blk, t_grid, g_have, f_have,
                      jacobian=jacobian,
                      sources=table.rows(0, len(t_grid)))
    assert np.array_equal(f_have, f_want)
    assert np.array_equal(g_have, g_want)


@pytest.mark.parametrize("lanes", [(), (4,)])
@pytest.mark.parametrize("name", LEAN_CIRCUITS)
def test_residual_matches_frozen_expression(tech, name, lanes):
    circuit, _ = _lean_case(tech, name)
    compiled = compile_circuit(circuit)
    state = (compiled.nominal if not lanes or not compiled.mosfets
             else _mc_state(compiled, lanes[0]))
    theta = np.append(compiled.theta_rows(state, "trap"), 1.0)
    c_over_h = compiled.capacitance(state) / 2.5e-12
    work = _NewtonWork(compiled, state, lanes)
    rng = np.random.default_rng(8)
    for _ in range(3):            # the buffers are reused call to call
        x_pad, x_prev, f_pad, f_prev = (
            _lean_points(compiled, tech, rng, lanes) for _ in range(4))
        want = _frozen_residual(x_pad, x_prev, f_pad, f_prev, theta,
                                c_over_h)
        have = _residual(x_pad, x_prev, f_pad, f_prev, theta,
                         1.0 - theta, c_over_h, work)
        assert have.shape == want.shape
        assert np.array_equal(have, want)
        assert np.array_equal(work.rhs, want[..., :compiled.n])


def test_update_norm_matches_frozen():
    rng = np.random.default_rng(13)
    cases = [rng.normal(size=16), rng.normal(size=(5, 16)),
             np.zeros(16), np.zeros(0), np.array([-0.0, 0.0]),
             np.array([1.0, np.nan, -3.0]), np.array([np.inf, 2.0]),
             np.array([[np.nan, -np.inf], [4.0, -5.0]]),
             np.array([np.nan, np.nan])]
    for delta in cases:
        want = _frozen_update_norm(delta)
        have = reuse._update_norm(delta)
        assert type(have) is float
        assert have == want or (math.isnan(have) and math.isnan(want))


def test_kernel_constants_are_state_prefixes(tech):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    state = compiled.make_state(deltas={
        (compiled.mosfets[0].name, "beta_rel"): 0.01})
    consts = state.mos_constants()
    assert state.mos_constants() is consts          # built once
    n, lam, beta = compiled._mos_n, compiled._mos_lam, state.mos["beta"]
    k = 2.0 * n * beta * PHI_T
    for have, want in ((consts.k, k), (consts.k_phi, k * PHI_T),
                       (consts.lam_phi, lam * PHI_T),
                       (consts.n_minus_1, n - 1.0), (consts.n, n),
                       (consts.lam, lam)):
        assert np.array_equal(have, want)
        assert not have.flags.writeable
    assert consts.half_over_phi == 0.5 / PHI_T
    state.clear_caches()
    assert state.mos_constants() is not consts


# ---------------------------------------------------------------------------
# end to end: answers, counts, threads
# ---------------------------------------------------------------------------
#: Values before the per-run buffers (sigma and nominal of the Table II
#: rows, the ring oscillator's sigma(f)); the change keeps every bit.
LOGIC_SIGMA_E2E = 6.8801123897503315e-12
LOGIC_NOMINAL = 1.1864360644528196e-10
COMPARATOR_SIGMA_VOS = 0.03225431185917122
OSCILLATOR_SIGMA_F = 68870704.30071294


def _logic_proposed(tech, circuit=None):
    tb = logic_path_testbench(tech, late_input="X")
    return transient_mismatch_analysis(
        tb.circuit if circuit is None else circuit,
        [EdgeDelay("delay_A", "X", "A", tb.vth)], period=tb.period,
        pss_options=PssOptions(n_steps=800, settle_periods=2))


def test_end_to_end_answers_are_unchanged(tech):
    logic = _logic_proposed(tech)
    assert logic.sigma("delay_A") == LOGIC_SIGMA_E2E
    assert logic.mean("delay_A") == LOGIC_NOMINAL
    tb = strongarm_offset_testbench(tech)
    comp = transient_mismatch_analysis(
        tb.circuit, [DcLevel("vos", tb.vos_node)], period=tb.period,
        pss_options=PssOptions(n_steps=500, settle_periods=30))
    assert comp.sigma("vos") == COMPARATOR_SIGMA_VOS
    osc = transient_mismatch_analysis(
        ring_oscillator(tech), [Frequency("f", "osc1")],
        oscillator_anchor="osc1", t_settle=8e-9, dt_settle=2e-12,
        pss_options=PssOptions(n_steps=300))
    assert osc.sigma("f") == OSCILLATOR_SIGMA_F



def test_logic_proposed_call_counts(tech, monkeypatch):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    counts = {"assemble": 0, "factor": 0}
    assemble, factor = compiled.assemble, compiled.backend.factor

    def counting_assemble(*a, **kw):
        counts["assemble"] += 1
        return assemble(*a, **kw)

    def counting_factor(*a, **kw):
        counts["factor"] += 1
        return factor(*a, **kw)

    monkeypatch.setattr(compiled, "assemble", counting_assemble)
    monkeypatch.setattr(compiled.backend, "factor", counting_factor)
    out = _logic_proposed(tech, compiled)
    assert out.sigma("delay_A") == LOGIC_SIGMA_E2E
    assert counts == {"assemble": 3783, "factor": 1011}


def test_threads_on_one_cached_compile_match_serial(tech):
    """Threads sharing one session-cached compile (and its nominal
    state) each get the serial answer: every buffer a run writes is its
    own.  More threads than cores and a short switch interval make the
    interleaving dense enough that a shared buffer would show."""
    tb = logic_path_testbench(tech, late_input="X")
    serial = _logic_proposed(tech)
    compiled = AnalysisSession().compile(tb.circuit)
    n_threads = 3
    results, errors = [None] * n_threads, []

    def run(i):
        try:
            results[i] = _logic_proposed(tech, compiled)
        except Exception as exc:  # pragma: no cover - reported below
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,))
               for i in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert not errors
    for res in results:
        assert res.sigma("delay_A") == serial.sigma("delay_A")
        assert res.mean("delay_A") == serial.mean("delay_A")
        assert np.array_equal(res.tables["delay_A"].sensitivities,
                              serial.tables["delay_A"].sensitivities)
    # the per-run buffers stayed with their runs
    held = list(vars(compiled).values()) + list(
        vars(compiled.nominal).values())
    assert not [v for v in held
                if isinstance(v, (mna.AssemblyScratch, EkvWork))]
