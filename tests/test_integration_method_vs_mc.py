"""Integration tests: the paper's central claim on every benchmark.

In the small-mismatch (linear) regime the pseudo-noise/LPTV estimate of
each performance sigma must agree with batched Monte-Carlo within the MC
confidence interval - this is Table II of the paper, executed at reduced
sample counts to keep the suite fast.  The full-size runs live in
``benchmarks/``.
"""

import numpy as np
import pytest

from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.circuits import logic_path_testbench
from repro.core import (DcLevel, EdgeDelay, Frequency,
                        monte_carlo_transient,
                        transient_mismatch_analysis)
from repro.core.contributions import correlated_covariance_from_mixing


pytestmark = pytest.mark.slow


class TestLinearCircuitExact:
    """On a purely linear circuit the linear model is exact: MC and the
    sensitivity analysis must agree to MC noise even at large sigma."""

    def test_driven_divider_with_cap(self):
        ckt = Circuit("lin")
        ckt.add_vsource("VS", "in", "0",
                        wave=Sine(amplitude=0.2, freq=1e6, offset=0.5))
        ckt.add_resistor("R1", "in", "mid", 1e3, sigma_rel=0.05)
        ckt.add_resistor("R2", "mid", "0", 2e3, sigma_rel=0.05)
        ckt.add_capacitor("C1", "mid", "0", 0.2e-9, sigma_rel=0.05)
        metric = DcLevel("vmid", "mid")
        res = transient_mismatch_analysis(
            ckt, [metric], period=1e-6,
            pss_options=PssOptions(n_steps=128, settle_periods=2))
        mc = monte_carlo_transient(
            ckt, [metric], n=600, t_stop=4e-6, dt=1e-6 / 128,
            window=(3e-6, 4e-6), seed=21)
        assert res.sigma("vmid") == pytest.approx(mc.sigma("vmid"),
                                                  rel=0.10)
        assert res.mean("vmid") == pytest.approx(mc.mean("vmid"),
                                                 rel=0.02)


class TestLogicPathDelay:
    def test_sigma_and_correlation_x_late(self, tech):
        tb = logic_path_testbench(tech, late_input="X")
        measures = [EdgeDelay("dA", "X", "A", tb.vth),
                    EdgeDelay("dB", "X", "B", tb.vth)]
        res = transient_mismatch_analysis(
            tb.circuit, measures, period=tb.period,
            pss_options=PssOptions(n_steps=800, settle_periods=2))
        mc = monte_carlo_transient(
            tb.circuit, measures, n=200, t_stop=2 * tb.period,
            dt=tb.period / 800, window=(tb.period, 2 * tb.period),
            seed=22)
        # sigma within the MC-200 confidence interval (~ +/-10 %)
        assert res.sigma("dA") == pytest.approx(mc.sigma("dA"), rel=0.15)
        # correlation: shared gates -> high (paper Table I: 0.885)
        rho_lin = res.correlation("dA", "dB")
        rho_mc = mc.correlation("dA", "dB")
        assert rho_lin > 0.7
        assert rho_lin == pytest.approx(rho_mc, abs=0.08)

    @pytest.fixture(scope="class")
    def y_late(self, tech):
        """The Y-late testbench and its independent-mismatch analysis,
        solved once for the tests below (the free function is cold)."""
        tb = logic_path_testbench(tech, late_input="Y")
        measures = [EdgeDelay("dA", "Y", "A", tb.vth),
                    EdgeDelay("dB", "Y", "B", tb.vth)]
        res = transient_mismatch_analysis(
            tb.circuit, measures, period=tb.period,
            pss_options=PssOptions(n_steps=800, settle_periods=2))
        return tb, measures, res

    def test_correlation_collapses_y_late(self, y_late):
        _, _, res = y_late
        # disjoint critical paths -> |rho| small (paper Table I: 0.01)
        assert abs(res.correlation("dA", "dB")) < 0.35

    def test_correlated_die_level_mismatch_raises_rho(self, y_late):
        """Adding a fully shared (die-to-die) component to every vt0
        raises the delay correlation even on disjoint paths - the
        paper's Section III-C argument, via Eq. 6."""
        tb, measures, res_indep = y_late
        keys = res_indep.keys
        sig = np.array([d.sigma for d in
                        tb.circuit.mismatch_decls()])
        m = len(keys)
        mix = np.zeros((m, m + 1))
        mix[:, :m] = np.diag(sig * 0.6)
        shared = np.array([0.8 * s if k[1] == "vt0" else 0.0
                           for k, s in zip(keys, sig)])
        mix[:, m] = shared
        cov = correlated_covariance_from_mixing(mix)
        # same orbit, new covariance: only the LPTV half re-runs
        res_corr = transient_mismatch_analysis(
            res_indep.compiled, measures, precomputed_pss=res_indep.pss,
            param_covariance=cov)
        assert (res_corr.correlation("dA", "dB")
                > res_indep.correlation("dA", "dB") + 0.2)


class TestComparatorOffset:
    def test_sigma_vs_mc(self, tech, comparator_pss):
        tb, compiled, pss_result = comparator_pss
        metric = DcLevel("vos", "vos")
        res = transient_mismatch_analysis(
            compiled, [metric], precomputed_pss=pss_result)
        mc = monte_carlo_transient(
            compiled, [metric], n=120, t_stop=36 * tb.period,
            dt=tb.period / 400,
            window=(35 * tb.period, 36 * tb.period), seed=23,
            chunk_size=120)
        # MC-120 CI is ~ +/-13 %
        assert res.sigma("vos") == pytest.approx(mc.sigma("vos"),
                                                 rel=0.20)
        assert 10e-3 < res.sigma("vos") < 80e-3

    def test_symmetry_of_contributions(self, tech, comparator_pss):
        """Matched pairs must contribute equally (M2/M3, M4/M5, ...)."""
        tb, compiled, pss_result = comparator_pss
        res = transient_mismatch_analysis(
            compiled, [DcLevel("vos", "vos")],
            precomputed_pss=pss_result)
        t = res.contributions("vos")
        for a, b in (("M2", "M3"), ("M4", "M5"), ("M6", "M7")):
            assert t.fraction_of(a) == pytest.approx(t.fraction_of(b),
                                                     rel=0.05), (a, b)

    def test_input_pair_vt_sensitivity_is_unity(self, tech,
                                                comparator_pss):
        """dVOS/dVT(M2) = +1 exactly: a threshold shift on one input
        device is indistinguishable from an input offset."""
        tb, compiled, pss_result = comparator_pss
        res = transient_mismatch_analysis(
            compiled, [DcLevel("vos", "vos")],
            precomputed_pss=pss_result)
        t = res.contributions("vos")
        i = t.keys.index(("M2", "vt0"))
        assert t.sensitivities[i] == pytest.approx(1.0, rel=0.02)


class TestOscillatorFrequency:
    def test_sigma_vs_mc(self, tech, oscillator_pss):
        compiled, pss_result = oscillator_pss
        metric = Frequency("f", "osc1")
        res = transient_mismatch_analysis(
            compiled, [metric], precomputed_pss=pss_result)
        mc = monte_carlo_transient(
            compiled, [metric], n=200, t_stop=10e-9, dt=2e-12,
            window=(2e-9, 10e-9), seed=24)
        assert res.mean("f") == pytest.approx(mc.mean("f"), rel=0.02)
        assert res.sigma("f") == pytest.approx(mc.sigma("f"), rel=0.15)

    def test_relative_sigma_sane(self, tech, oscillator_pss):
        compiled, pss_result = oscillator_pss
        res = transient_mismatch_analysis(
            compiled, [Frequency("f", "osc1")],
            precomputed_pss=pss_result)
        assert 0.005 < res.sigma("f") / res.mean("f") < 0.10
