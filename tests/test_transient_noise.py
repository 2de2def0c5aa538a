"""Tests for the transient-noise engine (paper Fig. 5(a) baseline)."""

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.analysis.transient_noise import transient_noise_analysis
from repro.circuit import Circuit
from repro.constants import BOLTZMANN, T_NOMINAL
from repro.errors import AnalysisError, ConvergenceError


def ktc_circuit(r=10e3, c=1e-12):
    ckt = Circuit("ktc")
    ckt.add_vsource("V", "in", "0", dc=0.5)
    ckt.add_resistor("R", "in", "out", r)
    ckt.add_capacitor("C", "out", "0", c)
    return compile_circuit(ckt)


pytestmark = pytest.mark.slow


class TestKtc:
    def test_stationary_sigma_is_ktc(self):
        c = 1e-12
        compiled = ktc_circuit(c=c)
        res = transient_noise_analysis(compiled, t_stop=300e-9,
                                       dt=0.25e-9, n_runs=300,
                                       record=["out"], seed=2)
        expect = np.sqrt(BOLTZMANN * T_NOMINAL / c)
        assert res.stationary_sigma("out") == pytest.approx(expect,
                                                            rel=0.10)

    def test_independent_of_r(self):
        """kT/C does not depend on the resistor value."""
        s = []
        for r in (3e3, 30e3):
            compiled = ktc_circuit(r=r)
            res = transient_noise_analysis(
                compiled, t_stop=60 * r * 1e-12, dt=0.05 * r * 1e-12,
                n_runs=250, record=["out"], seed=3)
            s.append(res.stationary_sigma("out"))
        assert s[0] == pytest.approx(s[1], rel=0.15)

    def test_sigma_t_grows_from_zero(self):
        """Starting from the deterministic DC point, the ensemble spread
        grows with the RC time constant before saturating."""
        compiled = ktc_circuit()
        res = transient_noise_analysis(compiled, t_stop=100e-9,
                                       dt=0.25e-9, n_runs=200,
                                       record=["out"], seed=4)
        sig = res.sigma_t("out")
        assert sig[1] < 0.3 * sig[-1]
        assert np.all(np.isfinite(sig))

    def test_mean_stays_at_bias(self):
        compiled = ktc_circuit()
        res = transient_noise_analysis(compiled, t_stop=100e-9,
                                       dt=0.25e-9, n_runs=200,
                                       record=["out"], seed=5)
        assert res.mean_t("out")[-1] == pytest.approx(0.5, abs=1e-4)

    def test_requires_noise_sources(self):
        ckt = Circuit("quiet")
        ckt.add_vsource("V", "a", "0", dc=1.0)
        ckt.add_resistor("R", "a", "0", 1e3, noisy=False)
        compiled = compile_circuit(ckt)
        with pytest.raises(AnalysisError):
            transient_noise_analysis(compiled, 1e-9, 1e-12, 4,
                                     record=["a"])


def test_unconverged_step_raises():
    """A step whose Newton iteration never converges is an error, not a
    silently kept last iterate: one lane's assembly goes NaN at one
    step and the run names that step and the circuit."""
    compiled = ktc_circuit()
    dt = 0.25e-9
    t_bad = 7 * dt
    assemble = compiled.assemble

    def poisoned(state, x_pad, t, g_pad, f_pad, *args, **kw):
        assemble(state, x_pad, t, g_pad, f_pad, *args, **kw)
        if t == t_bad:
            f_pad[3] = np.nan

    compiled.assemble = poisoned
    with pytest.raises(ConvergenceError,
                       match=r"transient Newton failed at t=1\.7500e-09 "
                             r"on 'ktc'") as err:
        transient_noise_analysis(compiled, t_stop=5e-9, dt=dt, n_runs=8,
                                 record=["out"], seed=1)
    assert err.value.iterations == 50
    assert (err.value.theta_fingerprint
            == compiled.nominal.theta_fingerprint())


class TestGrid:
    """The noise grid is validated the way :func:`transient`'s is."""

    @pytest.mark.parametrize("kw, arg", [
        ({"dt": 0.0}, "dt"),
        ({"dt": -1e-10}, "dt"),
        ({"n_runs": 0}, "n_runs"),
        ({"t_stop": 0.4e-10}, "t_stop")])
    def test_refuses_a_grid_with_no_step(self, kw, arg):
        args = {"t_stop": 1e-9, "dt": 1e-10, "n_runs": 4,
                "record": ["out"], **kw}
        with pytest.raises(ValueError, match=rf"^{arg}"):
            transient_noise_analysis(ktc_circuit(), **args)

    def test_rounded_span_warns_and_keeps_its_bits(self):
        compiled = ktc_circuit()
        with pytest.warns(UserWarning, match="ends at 9.000000e-10 s"):
            res = transient_noise_analysis(compiled, 1e-9, 0.3e-9, 4,
                                           ["out"], seed=1)
        whole = transient_noise_analysis(compiled, 3 * 0.3e-9, 0.3e-9, 4,
                                         ["out"], seed=1)
        assert res.t[-1] == 3 * 0.3e-9
        assert np.array_equal(res.t, whole.t)
        assert np.array_equal(res.signals["out"], whole.signals["out"])
