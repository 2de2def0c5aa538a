"""Tests for the time-domain LPTV sensitivity engine - the heart of the
paper's method.

Ground truths used:

* finite differences of re-solved PSS (exact up to FD truncation),
* analytic phasor sensitivities on linear circuits,
* the AC analysis (the LPTV engine on an LTI circuit must reduce to it),
* the oscillator adjoint vs re-solved oscillator PSS.
"""

import dataclasses

import numpy as np
import pytest

from repro.analysis import (compile_circuit, periodic_sensitivities, pss,
                            pss_oscillator)
from repro.analysis.lptv import PeriodicLinearization
from repro.analysis.orbit import OrbitLinearization
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core.analysis import transient_mismatch_analysis
from repro.core.measures import DcLevel
from repro.errors import AnalysisError
from repro.linalg import CachedDenseBackend


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


def _reference_waveforms(p, injections):
    """A short copy of the dense sweeps as they were before ``B_k``
    became one stack and ``rho_k`` one reused buffer: per-step
    operands, rebuilt at every step."""
    lin = OrbitLinearization(p.compiled, p.state, p.x, p.t, p.period,
                             p.method, matrix_free=False)
    theta, h, n = lin.theta, lin.h, lin.n
    di = np.stack([inj.di_dp for inj in injections], axis=-1)
    dq = np.zeros_like(di)
    for i, inj in enumerate(injections):
        if inj.dq_dp is not None:
            dq[:, :, i] = inj.dq_dp

    def b_k(k):
        return lin.c_over_h - (1.0 - theta) * lin.g_t[k - 1]

    def a_k(k):
        return p.compiled.backend.factor(lin.c_over_h + theta * lin.g_t[k])

    def rho(k):
        return (theta * di[k] + (1.0 - theta) * di[k - 1]
                + (dq[k] - dq[k - 1]) / h)

    z = np.zeros((n, n + di.shape[-1]))
    z[:, :n] = np.eye(n)
    for k in range(1, p.n_steps + 1):
        rhs = b_k(k) @ z
        rhs[:, n:] -= rho(k)
        z = a_k(k).solve(rhs)
    cur = np.linalg.solve(np.eye(n) - z[:, :n], z[:, n:])
    out = [cur]
    for k in range(1, p.n_steps + 1):
        rhs = b_k(k) @ cur
        rhs -= rho(k)
        cur = a_k(k).solve(rhs)
        out.append(cur)
    return np.stack(out)


class TestSharedOperands:
    """The sweeps build ``B_k`` once per linearisation, write ``rho_k``
    into one buffer and - on a constant-Jacobian circuit - share one
    factorization of ``A_k``, without changing a bit."""

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

    @pytest.mark.parametrize("case", ["rc", "cs_amp"])
    def test_sweeps_match_per_step_operands(self, case, rc_pss,
                                            cs_amp_pss):
        _, p = rc_pss if case == "rc" else cs_amp_pss
        p = dataclasses.replace(p, _lin=None)
        injections = p.compiled.mismatch_injections(p.state, p.x)
        sol = periodic_sensitivities(p, injections, matrix_free=False)
        assert np.array_equal(sol.waveforms,
                              _reference_waveforms(p, injections))


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
