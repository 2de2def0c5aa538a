"""Deeper tests of the PSS machinery: monodromy correctness, settle
fallback behaviour, grid consistency, the settle-to-shooting hand-off."""

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.analysis.dcop import NewtonOptions, dc_operating_point
from repro.analysis.orbit import OrbitLinearization
from repro.analysis.pss import (PssOptions, integrate_period, pss,
                                pss_oscillator)
from repro.analysis.transient import TransientOptions, transient
from repro.circuit import Circuit, Sine
from repro.circuit.technology import default_technology
from repro.circuits.comparator import strongarm_offset_testbench
from repro.circuits.logic import logic_path_testbench
from repro.core.analysis import run_transient_mismatch
from repro.core.measures import DcLevel
from repro.errors import RETRYABLE_ERRORS, AnalysisError, ConvergenceError
from repro.linalg import CachedDenseBackend


def rc_circuit(tau=1e-7):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.5, freq=1e6, offset=0.5))
    ckt.add_resistor("R", "in", "out", 1e3)
    ckt.add_capacitor("C", "out", "0", tau / 1e3)
    return compile_circuit(ckt)


def _cs_amp():
    """Sine-driven common-source stage: a state-dependent Jacobian."""
    tech = default_technology()
    ckt = Circuit("cs_amp")
    ckt.add_vsource("VDD", "vdd", "0", dc=tech.vdd)
    ckt.add_vsource("VG", "g", "0",
                    wave=Sine(amplitude=0.25, freq=1e6, offset=0.7))
    ckt.add_resistor("RL", "vdd", "d", 2e3)
    ckt.add_mosfet("M1", "d", "g", "0", "0", w=2e-6, l=0.26e-6, tech=tech)
    ckt.add_capacitor("CL", "d", "0", 20e-15)
    return compile_circuit(ckt)


NEWTON = NewtonOptions(max_step=1.0, max_iterations=50)


class TestMonodromy:
    def test_rc_floquet_multiplier(self):
        """The RC node's one-period multiplier is exp(-T/tau)."""
        tau = 2e-7
        compiled = rc_circuit(tau)
        from repro.analysis import dc_operating_point
        x_pad = compiled.pad(dc_operating_point(compiled).x)
        _, mono = integrate_period(compiled, compiled.nominal, x_pad,
                                   0.0, 1e-6, 400, "trap", NEWTON,
                                   want_monodromy=True)
        iout = compiled.node_index["out"]
        assert mono[iout, iout] == pytest.approx(np.exp(-1e-6 / tau),
                                                 rel=1e-3)

    def test_monodromy_matches_perturbation(self):
        """M dx0 must predict the end-of-period response to an initial
        state kick."""
        compiled = rc_circuit(2e-7)
        from repro.analysis import dc_operating_point
        x_pad = compiled.pad(dc_operating_point(compiled).x)
        orbit0, mono = integrate_period(compiled, compiled.nominal,
                                        x_pad, 0.0, 1e-6, 300, "trap",
                                        NEWTON, want_monodromy=True)
        iout = compiled.node_index["out"]
        kick = 1e-3
        x_kicked = x_pad.copy()
        x_kicked[iout] += kick
        orbit1, _ = integrate_period(compiled, compiled.nominal,
                                     x_kicked, 0.0, 1e-6, 300, "trap",
                                     NEWTON)
        predicted = mono[:, iout] * kick
        actual = orbit1[-1] - orbit0[-1]
        assert np.allclose(predicted, actual, rtol=1e-3, atol=1e-12)

    def test_orbit_sample_count(self):
        compiled = rc_circuit()
        from repro.analysis import dc_operating_point
        x_pad = compiled.pad(dc_operating_point(compiled).x)
        orbit, _ = integrate_period(compiled, compiled.nominal, x_pad,
                                    0.0, 1e-6, 123, "trap", NEWTON)
        assert orbit.shape == (124, compiled.n)


class TestSettleEngine:
    def test_settle_gives_up_on_slow_circuit(self):
        """A circuit with tau >> max periods must raise, not hang."""
        compiled = rc_circuit(tau=1e-3)    # 1000 periods
        with pytest.raises(ConvergenceError):
            pss(compiled, 1e-6,
                options=PssOptions(engine="settle", n_steps=64,
                                   settle_periods=0,
                                   settle_max_periods=5))

    def test_settle_result_metadata(self):
        compiled = rc_circuit(2e-8)
        res = pss(compiled, 1e-6,
                  options=PssOptions(engine="settle", n_steps=64,
                                     settle_periods=1))
        assert res.engine == "settle"
        assert res.n_steps == 64

    def test_comparator_settle_matches_shooting(self, comparator_pss):
        """Both PSS engines agree on the comparator's metastable vos."""
        tb, compiled, shoot = comparator_pss
        settle = pss(compiled, tb.period,
                     options=PssOptions(engine="settle", n_steps=500,
                                        settle_periods=30,
                                        settle_max_periods=120))
        v_a = shoot.waveform("vos").mean()
        v_b = settle.waveform("vos").mean()
        assert abs(v_a - v_b) < 1e-6


class TestGridConsistency:
    def test_finer_grid_converges_period_values(self):
        compiled = rc_circuit(2e-7)
        iout = compiled.node_index["out"]
        vals = []
        for n in (100, 200, 400):
            res = pss(compiled, 1e-6,
                      options=PssOptions(n_steps=n, settle_periods=2))
            vals.append(res.x[n // 2, iout])   # mid-period sample
        # second-order convergence: error shrinks ~4x per refinement
        e1 = abs(vals[0] - vals[2])
        e2 = abs(vals[1] - vals[2])
        assert e2 < 0.5 * e1

    def test_absolute_time_axis(self):
        # tau = 0.1 T closes on settle period 3: the orbit is that
        # period, on the settle's own grid
        res = pss(rc_circuit(1e-7), 1e-6,
                  options=PssOptions(n_steps=64, settle_periods=3))
        assert res.shooting_periods == 0
        assert res.t[0] == pytest.approx(2e-6)
        assert res.t[-1] - res.t[0] == pytest.approx(1e-6)
        # tau = 2 T never closes inside the cap: shooting starts at 3 T
        res = pss(rc_circuit(2e-6), 1e-6,
                  options=PssOptions(n_steps=64, settle_periods=3))
        assert res.shooting_periods >= 1
        assert res.t[0] == pytest.approx(3e-6)
        assert res.t[-1] - res.t[0] == pytest.approx(1e-6)


class TestSettleHandOff:
    """The fixed-grid settle stops at the first period that passes
    shooting's test and hands it over as the orbit; a settle that
    never closes goes to Newton shooting unchanged."""

    def test_comparator_stops_at_period_two(self, comparator_pss):
        tb, compiled, res = comparator_pss     # settle_periods=30
        assert res.shooting_periods == 0
        assert res.t[0] == pytest.approx(tb.period)
        assert res.t[-1] - res.t[0] == pytest.approx(tb.period)
        out = run_transient_mismatch(
            compiled, [DcLevel("vos", tb.vos_node)], res)
        assert out.sigma("vos") == pytest.approx(0.03225431185840952,
                                                 rel=1e-9)

    def test_unclosed_settle_matches_shooting_flow(self):
        """tau = 2 T cannot close in a 2-period settle: the orbit is
        bit-identical to settle-then-dense-shooting composed by hand."""
        compiled = rc_circuit(2e-6)
        period, n_steps = 1e-6, 100
        opts = PssOptions(n_steps=n_steps, settle_periods=2)
        res = pss(compiled, period, options=opts)

        state = compiled.nominal
        x_pad = compiled.pad(dc_operating_point(compiled, state).x)
        x_pad = transient(
            compiled, t_stop=2 * period, dt=period / n_steps, state=state,
            x0_pad=x_pad,
            options=TransientOptions(method=opts.method, record=[],
                                     newton=opts.newton)).x_final_pad
        for it in range(opts.max_iterations):
            orbit, mono = integrate_period(
                compiled, state, x_pad, 2 * period, period, n_steps,
                opts.method, opts.newton, want_monodromy=True)
            r = orbit[-1] - orbit[0]
            scale = max(float(np.max(np.abs(orbit))), 1.0)
            if float(np.max(np.abs(r))) <= opts.tol * scale:
                break
            x_pad[:-1] = orbit[0] + np.linalg.solve(
                mono - np.eye(compiled.n), -r)
        assert res.shooting_periods == it + 1 >= 2
        assert np.array_equal(res.x, orbit)
        assert res.t[0] == 2 * period

    def test_dc_started_period_is_never_accepted(self):
        """settle_periods=1: period 1 starts at the DC point, so the
        DC-driven RC still goes through shooting."""
        ckt = Circuit("dcrc")
        ckt.add_vsource("VS", "in", "0", dc=1.0)
        ckt.add_resistor("R1", "in", "out", 1e3)
        ckt.add_resistor("R2", "out", "0", 1e3)
        ckt.add_capacitor("C", "out", "0", 1e-12)
        res = pss(compile_circuit(ckt), 1e-6,
                  options=PssOptions(n_steps=64, settle_periods=1))
        assert res.shooting_periods == 1


class TestToleranceValidation:
    """A tolerance that can never be met is rejected up front, not
    after every shooting pass ends in a (retryable) ConvergenceError."""

    @pytest.mark.parametrize("field", ["tol", "krylov_tol"])
    @pytest.mark.parametrize("value", [0.0, -1e-9, float("nan")])
    def test_pss_rejects(self, field, value):
        # with tol=0 even this 3-unknown RC ran all 40 passes, and a
        # supervised queue retried the ConvergenceError
        opts = PssOptions(n_steps=16, settle_periods=0, **{field: value})
        with pytest.raises(AnalysisError, match=field) as exc:
            pss(rc_circuit(), 1e-6, options=opts)
        assert not isinstance(exc.value, RETRYABLE_ERRORS)

    @pytest.mark.parametrize("field", ["tol", "krylov_tol"])
    def test_pss_oscillator_rejects(self, field):
        opts = PssOptions(n_steps=16, **{field: 0.0})
        with pytest.raises(AnalysisError, match=field):
            pss_oscillator(rc_circuit(), "out", t_settle=1e-6,
                           dt_settle=1e-8, options=opts)


class _CountingBackend(CachedDenseBackend):
    """The default small-circuit backend, counting its factorizations."""

    def __init__(self):
        super().__init__()
        self.n_factored = 0

    def factor(self, a):
        self.n_factored += 1
        return super().factor(a)


def _inline_monodromy(compiled, state, orbit, t0, period, method):
    """The product the dense integrator used to accumulate inline:
    ``A_k``/``B_k`` from a single-sample assembly at each accepted
    state, ``M <- factor(A_k).solve(B_k @ M)``."""
    n = compiled.n
    n_steps = orbit.shape[0] - 1
    h = period / n_steps
    _, g_pad, f_pad = compiled.buffers(())
    c_over_h = compiled.capacitance(state) / h
    th_n = np.append(compiled.theta_rows(state, method), 1.0)[:n, None]
    sources = compiled.source_table(state, t0 + h * np.arange(n_steps + 1))
    x_pad = compiled.pad(orbit[0])
    compiled.assemble(state, x_pad, t0, g_pad, f_pad,
                      sources=sources.row(0))
    g_prev = g_pad.copy()
    mono = np.eye(n)
    for k in range(1, n_steps + 1):
        x_pad = compiled.pad(orbit[k])
        compiled.assemble(state, x_pad, t0 + k * h, g_pad, f_pad,
                          sources=sources.row(k))
        a_k = c_over_h[:n, :n] + th_n * g_pad[:n, :n]
        b_k = c_over_h[:n, :n] - (1.0 - th_n) * g_prev[:n, :n]
        mono = compiled.backend.factor(a_k).solve(b_k @ mono)
        np.copyto(g_prev, g_pad)
    return mono


def _comparator():
    tb = strongarm_offset_testbench(default_technology())
    return compile_circuit(tb.circuit), tb.period


def _logic_path():
    tb = logic_path_testbench(default_technology(), late_input="X")
    return compile_circuit(tb.circuit), tb.period


class TestMonodromyFromLinearization:
    """Shooting's monodromy is the orbit linearisation's, bit for bit,
    and it is built only for passes that do not close."""

    @pytest.mark.parametrize("build", [
        lambda: (rc_circuit(2e-6), 1e-6), _comparator, _logic_path],
        ids=["rc", "comparator", "logic_path"])
    def test_matches_the_inline_product(self, build):
        compiled, period = build()
        state = compiled.nominal
        x_pad = compiled.pad(dc_operating_point(compiled, state).x)
        t0 = 0.5 * period
        orbit, mono = integrate_period(compiled, state, x_pad, t0, period,
                                       120, "trap", NEWTON,
                                       want_monodromy=True)
        lin = OrbitLinearization(compiled, state, orbit,
                                 t0 + (period / 120) * np.arange(121),
                                 period, "trap", matrix_free=False)
        inline = _inline_monodromy(compiled, state, orbit, t0, period,
                                   "trap")
        assert np.array_equal(lin.monodromy(), inline)
        assert np.array_equal(mono, inline)

    def test_constant_jacobian_pass_factors_once(self):
        ckt = rc_circuit(2e-6).circuit
        backend = _CountingBackend()
        compiled = compile_circuit(ckt, backend=backend)
        x_pad = compiled.pad(dc_operating_point(compiled).x)
        before = backend.n_factored
        orbit, mono = integrate_period(compiled, compiled.nominal, x_pad,
                                       0.0, 1e-6, 100, "trap", NEWTON)
        assert mono is None and backend.n_factored - before == 1
        # the monodromy adds one more: the linearisation's shared LU
        integrate_period(compiled, compiled.nominal, x_pad, 0.0, 1e-6,
                         100, "trap", NEWTON, want_monodromy=True)
        assert backend.n_factored - before == 3
        # the same pass on the one-shot solve path: the same bits
        ref = compile_circuit(ckt, backend="cached")
        ref_orbit, _ = integrate_period(ref, ref.nominal, x_pad, 0.0,
                                        1e-6, 100, "trap", NEWTON)
        assert np.array_equal(orbit, ref_orbit)

    @pytest.mark.parametrize("build,k", [
        (lambda: pss(rc_circuit(2e-6), 1e-6, options=PssOptions(
            n_steps=100, settle_periods=2)), 2),
        (lambda: pss(_cs_amp(), 1e-6, options=PssOptions(
            n_steps=128, settle_periods=0)), 2),
    ], ids=["rc", "cs_amp"])
    def test_k_passes_build_k_minus_one_monodromies(self, monkeypatch,
                                                     build, k):
        built = []
        original = OrbitLinearization.monodromy

        def counted(self):
            built.append(self)
            return original(self)

        monkeypatch.setattr(OrbitLinearization, "monodromy", counted)
        res = build()
        assert res.shooting_periods == k
        assert len(built) == k - 1

    def test_rc_solve_factors_once_per_stage(self):
        """DC point, settle, two shooting passes, the unclosed pass's
        monodromy and the LPTV sweeps of a linear RC: one LU each, not
        one per Newton iteration and step (702 before)."""
        ckt = Circuit("rc")
        ckt.add_vsource("VS", "in", "0",
                        wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
        ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
        ckt.add_capacitor("C", "out", "0", 2e-9, sigma_rel=0.02)
        backend = _CountingBackend()
        compiled = compile_circuit(ckt, backend=backend)
        res = pss(compiled, 1e-6,
                  options=PssOptions(n_steps=100, settle_periods=2))
        assert res.shooting_periods == 2
        run_transient_mismatch(compiled, [DcLevel("out", "out")], res)
        assert backend.n_factored == 6
