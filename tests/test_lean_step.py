"""Parity of the lean batch-of-one Newton step.

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
from repro.analysis.pss import PssOptions
from repro.analysis.stamps import SourceTable
from repro.circuit import Circuit, Sine
from repro.circuit.mosfet import ekv_ids, ekv_ids_fused
from repro.circuit.sources import Pwl
from repro.circuits import (logic_path_testbench, ring_oscillator,
                            strongarm_offset_testbench)
from repro.core.analysis import run_transient_mismatch
from repro.core.measures import EdgeDelay
from repro.linalg.backends import DenseLuFactorization

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


def test_batched_state_is_not_tabulated(tech):
    tb = logic_path_testbench(tech, late_input="X")
    compiled = compile_circuit(tb.circuit)
    state = compiled.make_state(batch_shape=(3,))
    table = compiled.source_table(state, np.linspace(0.0, tb.period, 9))
    assert table.row(4) is None


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
