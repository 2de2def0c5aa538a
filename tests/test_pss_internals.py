"""Deeper tests of the PSS machinery: monodromy correctness, settle
fallback behaviour, grid consistency, the settle-to-shooting hand-off."""

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.analysis.dcop import NewtonOptions, dc_operating_point
from repro.analysis.pss import PssOptions, integrate_period, pss
from repro.analysis.transient import TransientOptions, transient
from repro.circuit import Circuit, Sine
from repro.core.analysis import run_transient_mismatch
from repro.core.measures import DcLevel
from repro.errors import ConvergenceError


def rc_circuit(tau=1e-7):
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.5, freq=1e6, offset=0.5))
    ckt.add_resistor("R", "in", "out", 1e3)
    ckt.add_capacitor("C", "out", "0", tau / 1e3)
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
