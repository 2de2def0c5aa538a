"""Tests for the time-domain LPTV sensitivity engine - the heart of the
paper's method.

Ground truths used:

* finite differences of re-solved PSS (exact up to FD truncation),
* analytic phasor sensitivities on linear circuits,
* the AC analysis (the LPTV engine on an LTI circuit must reduce to it),
* the oscillator adjoint vs re-solved oscillator PSS.
"""

import dataclasses
import gc
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from repro.analysis import (compile_circuit, periodic_sensitivities, pss,
                            pss_oscillator)
from repro.analysis import lptv as lptv_module
from repro.analysis.lptv import PeriodicLinearization
from repro.analysis.mna import held_nbytes
from repro.analysis.orbit import OrbitLinearization
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core.analysis import (run_transient_mismatch,
                                 transient_mismatch_analysis)
from repro.core.measures import DcLevel, EdgeDelay
from repro.errors import AnalysisError
from repro.linalg import CachedDenseBackend
from repro.linalg.krylov import GMRES_MAXITER, GMRES_TOL, solve_blocked
from repro.service.session import AnalysisSession


@pytest.fixture(scope="module")
def rc_pss():
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    compiled = compile_circuit(ckt)
    result = pss(compiled, 1e-6,
                 options=PssOptions(n_steps=256, settle_periods=3))
    return compiled, result


def rebuild_rc(dr=0.0, dc=0.0):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3 + dr, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9 + dc, sigma_rel=0.02)
    return compile_circuit(ckt)


class TestDrivenSensitivities:
    def test_matches_finite_difference_r(self, rc_pss):
        compiled, p0 = rc_pss
        sens = periodic_sensitivities(p0)
        i = sens.keys.index(("R", "r"))
        opts = PssOptions(n_steps=256, settle_periods=3)
        p1 = pss(rebuild_rc(dr=0.1), 1e-6, options=opts)
        fd = (p1.x[:, 1] - p0.x[:, 1]) / 0.1
        w = sens.node_waveforms("out")[:, i]
        assert np.max(np.abs(w - fd)) < 2e-4 * np.max(np.abs(fd))

    def test_matches_finite_difference_c(self, rc_pss):
        compiled, p0 = rc_pss
        sens = periodic_sensitivities(p0)
        i = sens.keys.index(("C", "c"))
        opts = PssOptions(n_steps=256, settle_periods=3)
        p1 = pss(rebuild_rc(dc=1e-13), 1e-6, options=opts)
        fd = (p1.x[:, 1] - p0.x[:, 1]) / 1e-13
        w = sens.node_waveforms("out")[:, i]
        assert np.max(np.abs(w - fd)) < 2e-4 * np.max(np.abs(fd))

    def test_analytic_phasor_sensitivity(self, rc_pss):
        """d v_out / dR of the fundamental must match the phasor
        derivative -j w C Vin / (1 + j w R C)^2."""
        compiled, p0 = rc_pss
        sens = periodic_sensitivities(p0)
        i = sens.keys.index(("R", "r"))
        w = sens.node_waveforms("out")[:, i]
        # fft/N yields the coefficient of exp(+j w0 t) directly
        got = np.fft.fft(w[:-1])[1] / (w.shape[0] - 1)
        w0 = 2 * np.pi * 1e6
        vin1 = 0.3 / 2j
        expected = -1j * w0 * 1e-9 * vin1 / (1 + 1j * w0 * 1e3 * 1e-9) ** 2
        assert got == pytest.approx(expected, rel=1e-3)

    def test_mosfet_vt_beta_sensitivities_vs_fd(self, cs_amp_pss, tech):
        compiled, p0 = cs_amp_pss
        sens = periodic_sensitivities(p0)
        iout = compiled.node_index["d"]
        opts = PssOptions(n_steps=512, settle_periods=4)
        for key, delta in ((("M1", "vt0"), 1e-5),
                           (("M1", "beta_rel"), 1e-5)):
            i = sens.keys.index(key)
            state = compiled.make_state(deltas={key: delta})
            p1 = pss(compiled, 1e-6, state=state, options=opts)
            fd = (p1.x[:, iout] - p0.x[:, iout]) / delta
            w = sens.node_waveforms("d")[:, i]
            err = np.max(np.abs(w - fd)) / np.max(np.abs(fd))
            assert err < 5e-3, key

    def test_injections_must_match_orbit(self, rc_pss):
        compiled, p0 = rc_pss
        lin = PeriodicLinearization(p0)
        bad = compiled.mismatch_injections(p0.state, p0.x[:10])
        with pytest.raises(AnalysisError):
            lin.solve(bad)

    def test_empty_injections_rejected(self, rc_pss):
        compiled, p0 = rc_pss
        lin = PeriodicLinearization(p0)
        with pytest.raises(AnalysisError):
            lin.solve([])

    def test_df_dp_requires_oscillator(self, rc_pss):
        compiled, p0 = rc_pss
        sens = periodic_sensitivities(p0)
        with pytest.raises(AnalysisError):
            sens.df_dp()


class _CountingBackend(CachedDenseBackend):
    def __init__(self):
        super().__init__()
        self.n_factored = 0

    def factor(self, a):
        self.n_factored += 1
        return super().factor(a)


def _reference_waveforms(p, injections, matrix_free=False):
    """A short copy of the sweeps as they were before ``B_k`` became one
    stack and ``rho_k`` one stack written once: ``(waveforms, dT_dp)``.

    The dense engine rebuilds its per-step operands at every step and
    closes against the explicit monodromy (bordered for an
    oscillator); the matrix-free engine is fed ``rho_k`` one step at a
    time and closes by blocked GMRES.
    """
    lin = OrbitLinearization(p.compiled, p.state, p.x, p.t, p.period,
                             p.method, matrix_free=matrix_free)
    theta, h, n = lin.theta, lin.h, lin.n
    di = np.stack([inj.di_dp for inj in injections], axis=-1)
    dq = np.zeros_like(di)
    for i, inj in enumerate(injections):
        if inj.dq_dp is not None:
            dq[:, :, i] = inj.dq_dp
    m = di.shape[-1]
    steps = range(1, p.n_steps + 1)

    def b_k(k):
        return lin.c_over_h - (1.0 - theta) * lin.g_t[k - 1]

    def a_k(k):
        return p.compiled.backend.factor(lin.c_over_h + theta * lin.g_t[k])

    def rho(k):
        return (theta * di[k] + (1.0 - theta) * di[k - 1]
                + (dq[k] - dq[k - 1]) / h)

    if matrix_free:
        assert not p.is_oscillator
        part = lin.sweep(np.zeros((n, m)), (rho(k) for k in steps))
        cur, _, ok = solve_blocked(lambda v: v - lin.apply_monodromy(v),
                                   part, tol=GMRES_TOL,
                                   maxiter=GMRES_MAXITER)
        assert ok
        out = np.empty((p.n_steps + 1, n, m))
        out[0] = cur
        lin.sweep(cur, (rho(k) for k in steps), store=out)
        return out, None

    z = np.zeros((n, n + m))
    z[:, :n] = np.eye(n)
    for k in steps:
        rhs = b_k(k) @ z
        rhs[:, n:] -= rho(k)
        z = a_k(k).solve(rhs)
    dT_dp = None
    if p.is_oscillator:
        big = np.zeros((n + 1, n + 1))
        big[:n, :n] = np.eye(n) - z[:, :n]
        big[:n, n] = -(p.x[-1] - p.x[-2]) / h
        big[n, p.anchor_index] = 1.0
        sol = np.linalg.solve(
            big, np.concatenate([z[:, n:], np.zeros((1, m))], axis=0))
        cur, dT_dp = sol[:n], sol[n]
    else:
        cur = np.linalg.solve(np.eye(n) - z[:, :n], z[:, n:])
    out = [cur]
    for k in steps:
        rhs = b_k(k) @ cur
        rhs -= rho(k)
        cur = a_k(k).solve(rhs)
        out.append(cur)
    return np.stack(out), dT_dp


@pytest.fixture(scope="module")
def logic_pss(logic_path_x):
    """The Table II row 2 orbit (logic path, 800 steps)."""
    compiled = compile_circuit(logic_path_x.circuit)
    return compiled, pss(compiled, logic_path_x.period,
                         options=PssOptions(n_steps=800, settle_periods=2))


class TestSharedOperands:
    """The sweeps build ``B_k`` once per linearisation, write every
    ``rho_k`` once into the waveform buffer and - on a constant-Jacobian
    circuit - share one factorization of ``A_k``, without changing a
    bit."""

    def test_time_invariant_dense_factors_once(self):
        backend = _CountingBackend()
        c = compile_circuit(rebuild_rc().circuit, backend=backend)
        p = pss(c, 1e-6, options=PssOptions(n_steps=64, settle_periods=3))
        lin = OrbitLinearization(c, p.state, p.x, p.t, p.period, p.method,
                                 matrix_free=False)
        assert lin.time_invariant
        before = backend.n_factored
        factors = lin.factors()
        assert backend.n_factored - before == 1
        assert len(factors) == 64 and all(f is factors[0] for f in factors)

    def test_shared_factor_bits_equal_per_step_factors(self, rc_pss):
        _, p = rc_pss
        shared = periodic_sensitivities(dataclasses.replace(p, _lin=None),
                                        matrix_free=False)
        per_step = dataclasses.replace(p, _lin=None)
        lin = per_step.linearization(matrix_free=False)
        lin.time_invariant = False        # per-step factors and B_k
        sol = periodic_sensitivities(per_step, matrix_free=False)
        assert len({id(f) for f in lin.factors()}) == p.n_steps
        assert np.array_equal(shared.waveforms, sol.waveforms)

    #: case -> (orbit fixture, matrix_free)
    CASES = {"rc": ("rc_pss", False), "cs_amp": ("cs_amp_pss", False),
             "logic": ("logic_pss", False),
             "ring": ("oscillator_pss", False),
             "rc-matrix-free": ("rc_pss", True),
             "cs_amp-matrix-free": ("cs_amp_pss", True)}

    @pytest.mark.parametrize("case", list(CASES))
    def test_sweeps_match_per_step_operands(self, case, request):
        fixture, matrix_free = self.CASES[case]
        p = request.getfixturevalue(fixture)[-1]
        p = dataclasses.replace(p, _lin=None)
        injections = p.compiled.mismatch_injections(p.state, p.x)
        sol = periodic_sensitivities(p, injections,
                                     matrix_free=matrix_free)
        waveforms, dT_dp = _reference_waveforms(p, injections, matrix_free)
        assert np.array_equal(sol.waveforms, waveforms)
        assert (sol.dT_dp is None) == (dT_dp is None) == (case != "ring")
        if dT_dp is not None:
            assert np.array_equal(sol.dT_dp, dT_dp)


def _count_closures(monkeypatch) -> dict:
    """Count dense monodromy sweeps (pass 1 of the dense closure, and
    dense shooting's)."""
    calls = {"n": 0}
    inner = OrbitLinearization.monodromy_and_response

    def counting(self, *args, **kwargs):
        calls["n"] += 1
        return inner(self, *args, **kwargs)

    monkeypatch.setattr(OrbitLinearization, "monodromy_and_response",
                        counting)
    return calls


class TestClosureReuse:
    """The closure ``(dx0, dT_dp)`` of the default injection set is kept
    with the orbit's linearisation: a later default solve on the same
    orbit runs the waveform sweep alone, with the same bits."""

    OPTS = PssOptions(n_steps=100, settle_periods=2)

    def test_repeat_on_one_session_orbit_skips_pass_one(self, rc_lowpass,
                                                        monkeypatch):
        calls = _count_closures(monkeypatch)
        s = AnalysisSession()
        first = s.transient_mismatch(rc_lowpass, [DcLevel("vout", "out")],
                                     period=1e-6, pss_options=self.OPTS)
        assert calls["n"] >= 1            # shooting's and the closure's
        calls["n"] = 0
        measures = [DcLevel("vin_out", "in", "out"),
                    DcLevel("vout", "out")]
        again = s.transient_mismatch(rc_lowpass, measures, period=1e-6,
                                     pss_options=self.OPTS)
        assert again.pss is first.pss and calls["n"] == 0
        cold = transient_mismatch_analysis(rc_lowpass, measures,
                                           period=1e-6,
                                           pss_options=self.OPTS)
        assert np.array_equal(again.sens.waveforms, cold.sens.waveforms)
        for m in measures:
            assert again.sigma(m.name) == cold.sigma(m.name)
            assert np.array_equal(again.tables[m.name].sensitivities,
                                  cold.tables[m.name].sensitivities)

    def test_oscillator_period_sensitivities_are_values(self,
                                                        oscillator_pss,
                                                        monkeypatch):
        p = dataclasses.replace(oscillator_pss[1], _lin=None)
        calls = _count_closures(monkeypatch)
        first = periodic_sensitivities(p)
        want = first.dT_dp.copy()
        first.dT_dp[:] = 0.0
        again = periodic_sensitivities(p)
        assert calls["n"] == 1
        assert np.array_equal(again.dT_dp, want)
        assert np.array_equal(again.waveforms, first.waveforms)

    def test_custom_injections_neither_read_nor_write_it(self, rc_pss):
        p = dataclasses.replace(rc_pss[1], _lin=None)
        custom = p.compiled.mismatch_injections(p.state, p.x)[:1]
        lin = PeriodicLinearization(p)
        alone = lin.solve(custom)
        assert lin.lin.closure is None
        lin.solve()
        sentinel = (np.full_like(lin.lin.closure[0], np.nan), None)
        lin.lin.closure = sentinel
        assert np.array_equal(lin.solve(custom).waveforms, alone.waveforms)
        assert lin.lin.closure is sentinel

    def test_clear_caches_drops_it(self, rc_pss, monkeypatch):
        p = dataclasses.replace(rc_pss[1], _lin=None)
        calls = _count_closures(monkeypatch)
        first = periodic_sensitivities(p)
        assert p._lin.closure is not None
        p.clear_caches()
        assert p._lin is None
        again = periodic_sensitivities(p)
        assert calls["n"] == 2
        assert np.array_equal(again.waveforms, first.waveforms)

    def test_gmres_stall_fallback_is_kept_and_warns_once(self, rc_pss,
                                                         monkeypatch):
        p = dataclasses.replace(rc_pss[1], _lin=None)

        def stalled(op, rhs, **kwargs):
            return np.zeros_like(rhs), 0, False

        monkeypatch.setattr(lptv_module, "solve_blocked", stalled)
        with pytest.warns(UserWarning, match="did not converge"):
            first = periodic_sensitivities(p, matrix_free=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            again = periodic_sensitivities(p, matrix_free=True)
        assert np.array_equal(again.waveforms, first.waveforms)

    def test_kept_closure_is_charged(self, logic_path_x):
        """What a ``tm`` solve leaves on an orbit whose linearisation is
        built is its closure, and :meth:`PssResult.nbytes` charges it:
        ``n * p + p`` floats for the ``p`` default injections."""
        tb = logic_path_x
        compiled = compile_circuit(tb.circuit)
        measures = [EdgeDelay("delay_A", "X", "A", tb.vth)]
        orbit = pss(compiled, tb.period,
                    options=PssOptions(n_steps=200, settle_periods=2))
        lin = orbit.linearization()
        # everything else the orbit and the compile keep is built first:
        # the explicit list runs every step of the solve but keeps nothing
        PeriodicLinearization(orbit).solve(
            compiled.mismatch_injections(orbit.state, orbit.x))
        assert lin.closure is None
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = run_transient_mismatch(compiled, measures, orbit)
            del res
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert orbit._lin is lin and lin.closure is not None
        n, n_params = compiled.n, len(compiled.circuit.mismatch_decls())
        charge = (n * n_params + n_params) * 8
        # a waveform stack left behind would be 1 MB here; the
        # interpreter's and numpy's own caches account for < 2 kB
        assert lin.closure[0].nbytes <= charge
        assert retained <= charge + 2048
        assert held_nbytes(orbit, skip=(compiled, orbit.state)) \
            <= orbit.nbytes()

    def test_threads_on_one_cached_orbit_match_serial(self, logic_path_x):
        """Threads sharing one session orbit, its closure cold at the
        start, each get the serial answer."""
        tb = logic_path_x
        measures = [EdgeDelay("delay_A", "X", "A", tb.vth)]
        opts = PssOptions(n_steps=800, settle_periods=2)
        serial = transient_mismatch_analysis(tb.circuit, measures,
                                             period=tb.period,
                                             pss_options=opts)
        s = AnalysisSession()
        orbit = s.pss(s.compile(tb.circuit), tb.period, options=opts)
        n_threads = 3
        results, errors = [None] * n_threads, []

        def run(i):
            try:
                results[i] = s.transient_mismatch(
                    tb.circuit, measures, period=tb.period,
                    pss_options=opts)
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
            assert res.pss is orbit
            assert res.sigma("delay_A") == serial.sigma("delay_A")
            assert np.array_equal(res.sens.waveforms,
                                  serial.sens.waveforms)


def test_rc_period_average_sigma_is_zero(rc_lowpass):
    """The period average of a sine-driven RC low-pass is the source
    offset for every R and C, so its mismatch sigma is zero in theory:
    what the engine reports is roundoff."""
    out = transient_mismatch_analysis(
        rc_lowpass, [DcLevel("vout", "out")], period=1e-6,
        pss_options=PssOptions(n_steps=100, settle_periods=2))
    nominal = out.mean("vout")
    assert nominal == pytest.approx(0.6, rel=1e-12)
    assert out.sigma("vout") <= 1e-12 * abs(nominal)


class TestLptvReducesToAc:
    """On an LTI circuit the periodic sensitivity of the orbit equals
    the phasor-derivative waveform - equivalently, the LPTV transfer at
    f -> 0 equals the AC transfer, which the RC checks above exercise.
    Here: a time-invariant bias point (DC-driven RC) must give a
    *constant* sensitivity waveform equal to the DC sensitivity."""

    def test_constant_waveform_for_dc_drive(self):
        ckt = Circuit("dcrc")
        ckt.add_vsource("VS", "in", "0", dc=1.0)
        ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.01)
        ckt.add_resistor("R2", "out", "0", 1e3, sigma_rel=0.01)
        ckt.add_capacitor("C", "out", "0", 1e-12)
        compiled = compile_circuit(ckt)
        p = pss(compiled, 1e-6, options=PssOptions(n_steps=64,
                                                   settle_periods=1))
        sens = periodic_sensitivities(p)
        w = sens.node_waveforms("out")
        assert np.max(np.abs(w - w[0])) < 1e-9 * np.max(np.abs(w))
        # divider DC sensitivity: d/dR1 of Vin*R2/(R1+R2) = -Vin*R2/(R1+R2)^2
        i = sens.keys.index(("R1", "r"))
        assert w[0, i] == pytest.approx(-1.0 * 1e3 / 4e6, rel=1e-6)


class TestOscillatorAdjoint:
    def test_frequency_sensitivities_vs_fd(self, oscillator_pss):
        compiled, p0 = oscillator_pss
        sens = periodic_sensitivities(p0)
        dfdp = sens.df_dp()
        opts = PssOptions(n_steps=300)
        for key, delta in ((("MN1", "vt0"), 2e-4),
                           (("MP3", "beta_rel"), 2e-3)):
            i = sens.keys.index(key)
            state = compiled.make_state(deltas={key: delta})
            p1 = pss_oscillator(compiled, anchor="osc1", t_settle=8e-9,
                                dt_settle=2e-12, state=state, options=opts,
                                period_guess=p0.period)
            fd = (1 / p1.period - 1 / p0.period) / delta
            assert dfdp[i] == pytest.approx(fd, rel=0.03), key

    def test_ring_symmetry_of_sensitivities(self, oscillator_pss):
        """All NMOS vt0 sensitivities must have equal magnitude (the
        ring is rotationally symmetric)."""
        compiled, p0 = oscillator_pss
        sens = periodic_sensitivities(p0)
        dfdp = sens.df_dp()
        mags = [abs(dfdp[sens.keys.index((f"MN{i}", "vt0"))])
                for i in range(1, 6)]
        assert np.max(mags) / np.min(mags) == pytest.approx(1.0, rel=0.02)

    def test_vt_increase_slows_nmos_ring(self, oscillator_pss):
        """Higher NMOS threshold -> weaker pulldown -> lower frequency."""
        compiled, p0 = oscillator_pss
        sens = periodic_sensitivities(p0)
        i = sens.keys.index(("MN2", "vt0"))
        assert sens.df_dp()[i] < 0.0

    def test_beta_increase_speeds_ring(self, oscillator_pss):
        compiled, p0 = oscillator_pss
        sens = periodic_sensitivities(p0)
        i = sens.keys.index(("MN2", "beta_rel"))
        assert sens.df_dp()[i] > 0.0
