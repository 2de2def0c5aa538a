"""Unit tests for the DC operating point, sweeps and batched solves."""

import numpy as np
import pytest

from repro.analysis import (compile_circuit, dc_operating_point, dc_sweep,
                            transient)
from repro.analysis.dcop import NewtonOptions
from repro.analysis.transient import TransientOptions
from repro.circuit import Circuit
from repro.errors import AnalysisError, NetlistError


class TestLinearDc:
    def test_divider(self, rc_divider):
        dc = dc_operating_point(compile_circuit(rc_divider))
        assert dc.voltage("out") == pytest.approx(0.9, abs=1e-6)
        assert dc.current("V1") == pytest.approx(-0.3e-3, rel=1e-6)

    def test_differential_voltage(self, rc_divider):
        dc = dc_operating_point(compile_circuit(rc_divider))
        assert dc.voltage("in", "out") == pytest.approx(0.3, abs=1e-6)

    def test_isource_into_resistor(self):
        ckt = Circuit()
        ckt.add_isource("I1", "0", "a", dc=1e-3)   # pushes into node a
        ckt.add_resistor("R1", "a", "0", 2e3)
        dc = dc_operating_point(compile_circuit(ckt))
        # gmin (1e-12 S to ground) shunts ~2 pA, so only ~1e-9 relative
        assert dc.voltage("a") == pytest.approx(2.0, rel=1e-6)

    def test_vcvs_gain(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", dc=0.25)
        ckt.add_vcvs("E1", "out", "0", "in", "0", gain=4.0)
        ckt.add_resistor("RL", "out", "0", 1e3)
        dc = dc_operating_point(compile_circuit(ckt))
        assert dc.voltage("out") == pytest.approx(1.0, rel=1e-9)

    def test_vccs_linear(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "in", "0", dc=0.5)
        ckt.add_vccs("G1", "0", "out", "in", "0", gm=1e-3)
        ckt.add_resistor("RL", "out", "0", 1e3)
        dc = dc_operating_point(compile_circuit(ckt))
        assert dc.voltage("out") == pytest.approx(0.5, rel=1e-9)

    def test_inductor_is_dc_short(self):
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", dc=1.0)
        ckt.add_inductor("L1", "a", "b", 1e-9)
        ckt.add_resistor("R1", "b", "0", 1e3)
        dc = dc_operating_point(compile_circuit(ckt))
        assert dc.voltage("b") == pytest.approx(1.0, rel=1e-6)
        assert dc.current("L1") == pytest.approx(1e-3, rel=1e-4)


class TestNonlinearDc:
    def test_diode_connected_nmos(self, tech):
        ckt = Circuit()
        ckt.add_vsource("VDD", "vdd", "0", dc=1.2)
        ckt.add_resistor("R1", "vdd", "d", 10e3)
        ckt.add_mosfet("M1", "d", "d", "0", "0", 1e-6, 0.26e-6, tech)
        dc = dc_operating_point(compile_circuit(ckt))
        vd = dc.voltage("d")
        # diode-connected: VGS above threshold but far below supply
        assert tech.nmos.vt0 * 0.8 < vd < 0.9

    def test_cmos_inverter_transfer(self, tech):
        from repro.circuits.logic import add_inverter
        ckt = Circuit()
        ckt.add_vsource("VDD", "vdd", "0", dc=tech.vdd)
        ckt.add_vsource("VIN", "in", "0", dc=0.0)
        add_inverter(ckt, "g1", "in", "out", tech)
        c = compile_circuit(ckt)
        sweep = dc_sweep(c, "VIN", np.linspace(0.0, tech.vdd, 21))
        vout = c.voltage(c.pad(sweep.x), "out")
        assert vout[0] == pytest.approx(tech.vdd, abs=1e-3)
        assert vout[-1] == pytest.approx(0.0, abs=1e-3)
        assert np.all(np.diff(vout) < 1e-6)     # monotone falling

    def test_five_transistor_ota_bias(self, tech):
        from repro.circuits import five_transistor_ota
        dc = dc_operating_point(compile_circuit(five_transistor_ota(tech)))
        # unity-gain buffer: the output follows the input within the
        # finite-gain error (matched devices -> no systematic offset
        # beyond the mirror's V_DS imbalance)
        assert dc.voltage("out") == pytest.approx(dc.voltage("inp"),
                                                  abs=0.02)
        assert 0.05 < dc.voltage("tail") < 0.6
        # mirror node sits one |VGS_P| below the supply
        assert 0.2 < dc.voltage("mir") < 0.9


class TestBatchedDc:
    def test_dc_sweep_matches_pointwise(self, rc_divider):
        c = compile_circuit(rc_divider)
        vals = np.array([0.6, 1.2, 2.4])
        sweep = dc_sweep(c, "V1", vals)
        vout = c.voltage(c.pad(sweep.x), "out")
        assert np.allclose(vout, 0.75 * vals, rtol=1e-9)

    def test_batched_deltas(self, rc_divider):
        c = compile_circuit(rc_divider)
        deltas = {("R2", "r"): np.array([0.0, 300.0, -300.0])}
        state = c.make_state(deltas=deltas)
        dc = dc_operating_point(c, state)
        r2 = 3e3 + deltas[("R2", "r")]
        assert np.allclose(dc.voltage("out"), 1.2 * r2 / (1e3 + r2),
                           rtol=1e-9)

    def test_inconsistent_batch_shapes_rejected(self, rc_divider):
        c = compile_circuit(rc_divider)
        with pytest.raises(ValueError):
            c.make_state(deltas={("R1", "r"): np.zeros(3),
                                 ("R2", "r"): np.zeros(4)})


class TestCompilerErrors:
    def test_unknown_node_in_idx(self, rc_divider):
        c = compile_circuit(rc_divider)
        with pytest.raises(NetlistError):
            c.idx("nonexistent")

    def test_source_override_requires_dc(self, tech):
        from repro.circuit import Sine
        ckt = Circuit()
        ckt.add_vsource("V1", "a", "0", wave=Sine())
        ckt.add_resistor("R1", "a", "0", 1e3)
        c = compile_circuit(ckt)
        state = c.make_state(source_values={"V1": 2.0})
        with pytest.raises(NetlistError):
            dc_operating_point(c, state)


class TestNewtonOptions:
    """A Newton loop of zero iterations is refused up front, on the
    lane-guarded path (which used to raise ``UnboundLocalError``) and
    on the plain one (which used to report non-convergence)."""

    def test_zero_iterations_refused_under_a_lane_guard(self, rc_divider):
        c = compile_circuit(rc_divider)
        with pytest.raises(AnalysisError, match="max_iterations must be"):
            transient(c, 1e-7, 1e-8, batch_shape=(3,),
                      options=TransientOptions(
                          isolate_lanes=True,
                          newton=NewtonOptions(max_iterations=0)))

    def test_zero_iterations_refused_without_a_guard(self, rc_divider):
        c = compile_circuit(rc_divider)
        with pytest.raises(AnalysisError, match="max_iterations must be"):
            dc_operating_point(c, options=NewtonOptions(max_iterations=0))
