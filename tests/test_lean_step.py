"""Parity of the lean Newton step: batch of one, batched lanes, orbit.

Batchless (batch-of-one) runs take three shortcuts, chosen only by the
parameter state's batch shape:

* sources tabulated once over the fixed grid
  (:class:`~repro.analysis.stamps.SourceTable`), exactly equal to the
  per-point :meth:`~repro.analysis.stamps.SourcePlan.combined`;
* the fused EKV kernel (:func:`~repro.circuit.mosfet.ekv_ids_fused`),
  within 1e-14 of the reference :func:`~repro.circuit.mosfet.ekv_ids`
  that batched Monte-Carlo lanes keep;
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

The end-to-end pin is the logic-path sigma of Table II.
"""

from __future__ import annotations

import gc
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
from repro.circuit import Circuit, Sine
from repro.circuit.mosfet import ekv_ids, ekv_ids_fused
from repro.circuit.sources import Pwl
from repro.circuits import (logic_path_testbench, ring_oscillator,
                            strongarm_offset_testbench)
from repro.constants import PHI_T
from repro.core.analysis import run_transient_mismatch
from repro.core.measures import DcLevel, EdgeDelay
from repro.linalg.backends import DenseLuFactorization
from repro.linalg.krylov import use_matrix_free

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


@pytest.mark.parametrize("derivatives", [True, False])
@pytest.mark.parametrize("points", ["orbit", "random"])
def test_fused_kernel_matches_reference(tech, derivatives, points):
    args = (_operating_points(tech) if points == "orbit"
            else _random_points())
    ref = ekv_ids(*args, derivatives=derivatives)
    got = ekv_ids_fused(*args, derivatives=derivatives)
    fields = ("ids", "g_d", "g_g", "g_s", "g_b")
    for f in fields if derivatives else fields[:1]:
        want, have = getattr(ref, f), getattr(got, f)
        assert have.shape == want.shape
        # relative to the quantity's scale: gm = dF_f - dF_r cancels at
        # vds = 0, so an elementwise ratio would measure that instead
        err = np.max(np.abs(have - want)) / np.max(np.abs(want))
        assert err <= 1e-14, (f, err)
    if not derivatives:
        assert got.g_d is None and got.gm is None


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


def test_batchless_assemble_uses_fused_kernel(tech, monkeypatch):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    x_pad = compiled.pad(
        np.random.default_rng(4).uniform(0.0, tech.vdd, compiled.n))
    g, f = _assemble(compiled, compiled.nominal, x_pad)
    calls = _spy_kernels(monkeypatch)
    _assemble(compiled, compiled.nominal, x_pad, jacobian=False)
    assert calls == {"ekv_ids": 0, "ekv_ids_fused": 1}
    monkeypatch.setattr(mna, "ekv_ids_fused", ekv_ids)
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
