"""Transient breakpoint schedule: source corners become landing targets.

Smooth pulse edges, PWL corners and gate-window transitions register
their landing times with the adaptive stepper, so the LTE controller
stops paying rejected steps to *discover* each edge.
"""

import numpy as np
import pytest

from repro.analysis import compile_circuit, pss, transient
from repro.analysis.pss import PssOptions
from repro.analysis.transient import TransientOptions, source_breakpoints
from repro.circuit import Circuit, Sine, SmoothPulse
from repro.circuit.controlled import GateWindow
from repro.circuit.sources import Dc, Pwl, periodic_breakpoints

NS = 1e-9


def _pulse():
    return SmoothPulse(v0=0.0, v1=1.0, delay=0.0, t_rise=1 * NS,
                       t_high=3 * NS, t_fall=1 * NS, t_period=10 * NS)


class TestWaveBreakpoints:
    def test_smooth_pulse_corners(self):
        pts = _pulse().breakpoints(0.0, 20 * NS)
        expect = {1, 4, 5, 10, 11, 14, 15}  # ns; interval is open
        assert set(np.round(pts / NS).astype(int)) == expect

    def test_pwl_aperiodic(self):
        w = Pwl(times=[0.0, 1 * NS, 2 * NS], values=[0.0, 1.0, 0.0])
        assert set(w.breakpoints(0.0, 3 * NS)) == {1 * NS, 2 * NS}
        assert w.breakpoints(5 * NS, 9 * NS).size == 0

    def test_pwl_periodic(self):
        w = Pwl(times=[0.0, 1 * NS, 2 * NS], values=[0.0, 1.0, 0.0],
                t_period=2 * NS)
        pts = w.breakpoints(0.0, 5 * NS)
        assert set(np.round(pts / NS).astype(int)) == {1, 2, 3, 4}

    def test_gate_window_corners(self):
        g = GateWindow(t_on=2 * NS, t_off=6 * NS, period=10 * NS,
                       tau=1 * NS)
        pts = g.breakpoints(0.0, 10 * NS)
        assert set(np.round(pts / NS).astype(int)) == {2, 3, 6, 7}

    def test_dc_and_sine_have_none(self):
        assert Dc(1.0).breakpoints(0.0, 1.0).size == 0
        assert Sine(freq=1e6).breakpoints(0.0, 1e-5).size == 0

    def test_pathological_expansion_guarded(self):
        # span/period ratio that would expand past the guard: empty
        pts = periodic_breakpoints([0.0, 0.25], 0.0, 1e-12, 0.0, 1.0)
        assert pts.size == 0


class TestSourceBreakpoints:
    def _compiled(self):
        ckt = Circuit("pulse_rc")
        ckt.add_vsource("VP", "in", "0", wave=_pulse())
        ckt.add_resistor("R", "in", "out", 1e3)
        ckt.add_capacitor("C", "out", "0", 1e-12)
        return compile_circuit(ckt)

    def test_collects_and_sorts(self):
        pts = source_breakpoints(self._compiled(), 0.0, 20 * NS)
        assert np.all(np.diff(pts) > 0)
        assert set(np.round(pts / NS).astype(int)) == {1, 4, 5, 10, 11,
                                                       14, 15}

    def test_cap_falls_back_to_empty(self):
        compiled = self._compiled()
        # 5e-5 s of 10 ns pulses: ~20000 corners, over the cap but
        # under the per-wave expansion guard
        with pytest.warns(UserWarning, match="breakpoint"):
            pts = source_breakpoints(compiled, 0.0, 5e-5)
        assert pts.size == 0

    def test_adaptive_lands_on_corners(self):
        compiled = self._compiled()
        res = transient(compiled, t_stop=20 * NS, dt=0.5 * NS,
                        options=TransientOptions(record=["out"],
                                                 adaptive=True))
        for corner in source_breakpoints(compiled, 0.0, 20 * NS):
            assert np.any(res.t == corner)

    def test_opt_out(self):
        compiled = self._compiled()
        res = transient(compiled, t_stop=20 * NS, dt=0.5 * NS,
                        options=TransientOptions(
                            record=["out"], adaptive=True,
                            breakpoints=False))
        # without the schedule the stepper has no reason to hit 11 ns
        # exactly (dt does not divide it after LTE adjustments)
        assert res.n_accepted > 0

    def test_schedule_reduces_rejections(self):
        compiled = self._compiled()
        off = transient(compiled, t_stop=40 * NS, dt=0.5 * NS,
                        options=TransientOptions(
                            record=["out"], adaptive=True,
                            breakpoints=False))
        on = transient(compiled, t_stop=40 * NS, dt=0.5 * NS,
                       options=TransientOptions(record=["out"],
                                                adaptive=True))
        assert on.n_rejected <= off.n_rejected
        # accuracy sanity: same final value
        assert np.isclose(on.x_final_pad[:-1][0], off.x_final_pad[:-1][0],
                          rtol=1e-2, atol=1e-3)


class TestAdaptiveSettle:
    def test_settle_adaptive_matches_fixed_orbit(self):
        ckt = Circuit("rc_lp")
        ckt.add_vsource("VS", "in", "0",
                        wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
        ckt.add_resistor("R", "in", "out", 1e3)
        ckt.add_capacitor("C", "out", "0", 1e-9)
        compiled = compile_circuit(ckt)
        fixed = pss(compiled, 1e-6,
                    options=PssOptions(n_steps=128, settle_periods=3))
        with pytest.warns(DeprecationWarning, match="settle_adaptive"):
            options = PssOptions(n_steps=128, settle_periods=3,
                                 settle_adaptive=True)
        adapt = pss(compiled, 1e-6, options=options)
        # the shooting Newton polishes both to the same orbit
        assert np.allclose(adapt.x, fixed.x, rtol=1e-6, atol=1e-9)
        assert adapt.residual <= 1e-6
