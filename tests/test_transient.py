"""Unit tests for the transient integrator: analytic circuits,
convergence order, batching, DAE robustness."""

import numpy as np
import pytest

from repro.analysis import compile_circuit, transient
from repro.analysis.transient import TransientOptions
from repro.circuit import Circuit, Sine


def rc_step_circuit(r=1e3, c=1e-9, v=1.0):
    ckt = Circuit("rc_step")
    ckt.add_vsource("V1", "in", "0", dc=v)
    ckt.add_resistor("R", "in", "out", r)
    ckt.add_capacitor("C", "out", "0", c)
    ckt.set_ic({"in": v, "out": 0.0})
    return ckt


class TestAnalyticCircuits:
    def test_rc_charging_curve(self):
        tau = 1e-6
        c = compile_circuit(rc_step_circuit())
        res = transient(c, t_stop=5 * tau, dt=tau / 200)
        w = res.waveset()["out"]
        for frac in (0.5, 1.0, 2.0, 3.0):
            expected = 1.0 - np.exp(-frac)
            assert w(frac * tau) == pytest.approx(expected, abs=2e-4)

    def test_rc_sine_amplitude_and_phase(self):
        f0, r, cv = 1e6, 1e3, 1e-9
        ckt = Circuit("rc")
        ckt.add_vsource("VS", "in", "0", wave=Sine(amplitude=1.0, freq=f0))
        ckt.add_resistor("R", "in", "out", r)
        ckt.add_capacitor("C", "out", "0", cv)
        res = transient(compile_circuit(ckt), t_stop=10 / f0,
                        dt=1 / (f0 * 500))
        w = res.waveset()["out"].slice(6 / f0, 10 / f0)
        h = 1.0 / (1.0 + 2j * np.pi * f0 * r * cv)
        assert w.fundamental_amplitude(f0) == pytest.approx(abs(h),
                                                            rel=1e-3)

    def test_lc_resonance_energy_conservation(self):
        """Trapezoidal integration preserves LC oscillation amplitude."""
        l, cv = 1e-6, 1e-12   # f0 ~ 159 MHz
        ckt = Circuit("lc")
        ckt.add_inductor("L", "a", "0", l)
        ckt.add_capacitor("C", "a", "0", cv)
        ckt.set_ic(a=1.0)
        f0 = 1.0 / (2 * np.pi * np.sqrt(l * cv))
        res = transient(compile_circuit(ckt), t_stop=20 / f0,
                        dt=1 / (f0 * 200))
        w = res.waveset()["a"]
        assert w.frequency(skip=3) == pytest.approx(f0, rel=1e-3)
        late = w.slice(15 / f0, 20 / f0)
        assert late.peak_to_peak() == pytest.approx(2.0, rel=5e-3)

    def test_lc_with_backward_euler_decays(self):
        """BE's numerical damping must shrink the LC amplitude - this
        is why trapezoidal is the default for oscillators."""
        l, cv = 1e-6, 1e-12
        ckt = Circuit("lc")
        ckt.add_inductor("L", "a", "0", l)
        ckt.add_capacitor("C", "a", "0", cv)
        ckt.set_ic(a=1.0)
        f0 = 1.0 / (2 * np.pi * np.sqrt(l * cv))
        res = transient(compile_circuit(ckt), t_stop=20 / f0,
                        dt=1 / (f0 * 200),
                        options=TransientOptions(method="be"))
        w = res.waveset()["a"]
        assert w.slice(15 / f0, 20 / f0).peak_to_peak() < 1.0


class TestConvergenceOrder:
    def _rc_error(self, n_per_tau, method):
        tau = 1e-6
        c = compile_circuit(rc_step_circuit())
        res = transient(c, t_stop=2 * tau, dt=tau / n_per_tau,
                        options=TransientOptions(method=method))
        w = res.waveset()["out"]
        t = w.t[1:]
        return np.max(np.abs(w.v[1:] - (1.0 - np.exp(-t / tau))))

    def test_trap_second_order(self):
        e1 = self._rc_error(50, "trap")
        e2 = self._rc_error(100, "trap")
        assert e1 / e2 == pytest.approx(4.0, rel=0.3)

    def test_be_first_order(self):
        e1 = self._rc_error(50, "be")
        e2 = self._rc_error(100, "be")
        assert e1 / e2 == pytest.approx(2.0, rel=0.3)


class TestBatching:
    def test_batched_rc_matches_scalar(self):
        c = compile_circuit(rc_step_circuit())
        deltas = {("R", "r"): np.array([-200.0, 0.0, 500.0])}
        state = c.make_state(deltas=deltas)
        res = transient(c, t_stop=2e-6, dt=1e-8, state=state)
        out = res.signal("out")          # (K+1, 3)
        assert out.shape[1] == 3
        for j, dr in enumerate(deltas[("R", "r")]):
            tau = (1e3 + dr) * 1e-9
            expected = 1.0 - np.exp(-res.t / tau)
            assert np.allclose(out[:, j], expected, atol=2e-3)

    def test_waveset_refuses_batched(self):
        c = compile_circuit(rc_step_circuit())
        state = c.make_state(deltas={("R", "r"): np.zeros(2)})
        res = transient(c, t_stop=1e-7, dt=1e-9, state=state)
        with pytest.raises(ValueError):
            res.waveset()


class TestOptionsAndRobustness:
    def test_record_subset_and_stride(self):
        c = compile_circuit(rc_step_circuit())
        res = transient(c, t_stop=1e-6, dt=1e-9,
                        options=TransientOptions(record=["out"], stride=4))
        assert set(res.signals) == {"out"}
        assert res.t.size == res.signal("out").size

    def test_record_branch_current(self):
        c = compile_circuit(rc_step_circuit())
        res = transient(c, t_stop=1e-6, dt=1e-9,
                        options=TransientOptions(record=["i:V1"]))
        i = res.signal("i:V1")
        assert i[1] == pytest.approx(-1e-3, rel=0.05)   # initial surge

    def test_continuation_from_final_state(self):
        c = compile_circuit(rc_step_circuit())
        r1 = transient(c, t_stop=1e-6, dt=1e-9)
        r2 = transient(c, t_stop=2e-6, dt=1e-9, t_start=1e-6,
                       x0_pad=r1.x_final_pad)
        w = r2.waveset()["out"]
        assert w(2e-6) == pytest.approx(1.0 - np.exp(-2.0), abs=1e-3)

    def test_zero_span_rejected(self):
        c = compile_circuit(rc_step_circuit())
        with pytest.raises(ValueError):
            transient(c, t_stop=0.0, dt=1e-9)

    def test_inconsistent_ic_recovered_by_be_start(self):
        """A deliberately inconsistent IC must not break the first step."""
        ckt = rc_step_circuit()
        ckt.set_ic({"in": 0.3, "out": 0.7})   # 'in' contradicts V1=1.0
        res = transient(compile_circuit(ckt), t_stop=1e-6, dt=1e-9)
        w = res.waveset()["in"]
        assert w(1e-8) == pytest.approx(1.0, abs=1e-6)

    def test_stop_at_truncates_the_run(self):
        """A run stopped by its caller reports only the steps it took,
        bit-identical to the same prefix of the full run."""
        c = compile_circuit(rc_step_circuit())
        opts = TransientOptions(record=["out"], stride=3, record_states=True)
        full = transient(c, t_stop=1e-7, dt=1e-9, options=opts)
        seen = []

        def stop_at(k, x_pad):
            seen.append(k)
            return k == 40

        cut = transient(c, t_stop=1e-7, dt=1e-9, options=opts,
                        stop_at=stop_at)
        assert seen == list(range(1, 41))
        assert cut.n_accepted == 40
        assert np.array_equal(cut.t, full.t[:14])
        assert np.array_equal(cut.signal("out"), full.signal("out")[:14])
        assert np.array_equal(cut.states, full.states[:41])
        assert np.array_equal(cut.x_final_pad[:-1], full.states[40])
        with pytest.raises(ValueError):
            transient(c, t_stop=1e-7, dt=1e-9, stop_at=stop_at,
                      options=TransientOptions(adaptive=True))
