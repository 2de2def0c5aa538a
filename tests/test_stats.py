"""Unit tests for the statistics helpers, including the paper's
confidence-interval numbers (Section VI / VIII), parity with the
scipy.stats formulas the module no longer imports, and the cold-start
guard that keeps scipy.stats out of the package."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sps

from repro.errors import MeasurementError
from repro.stats import (SampleStats, ascii_histogram, describe,
                         gaussian_pdf, histogram_against_gaussian,
                         normalized_skewness, sigma_confidence_interval,
                         sigma_relative_ci_halfwidth, summarize_samples)

SRC = Path(__file__).resolve().parent.parent / "src"


class TestDescribe:
    def test_gaussian_sample_moments(self):
        rng = np.random.default_rng(0)
        x = rng.normal(2.0, 0.5, 200_000)
        st = describe(x)
        assert st.mean == pytest.approx(2.0, abs=0.01)
        assert st.std == pytest.approx(0.5, rel=0.01)
        assert abs(st.skewness) < 0.02

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            describe(np.array([1.0]))

    def test_ci_contains_truth_usually(self):
        rng = np.random.default_rng(1)
        hits = 0
        for _ in range(50):
            x = rng.normal(0.0, 1.0, 400)
            st = describe(x)
            hits += st.std_ci_low <= 1.0 <= st.std_ci_high
        assert hits >= 42   # ~95 % coverage, generous slack


class TestPaperConfidenceNumbers:
    """The paper quotes +/-14 %, +/-4.5 %, +/-1.4 % for n = 100, 1000,
    10000 (Sections VI and VIII)."""

    @pytest.mark.parametrize("n,expected", [(100, 0.14), (1000, 0.045),
                                            (10000, 0.014)])
    def test_relative_halfwidth(self, n, expected):
        assert sigma_relative_ci_halfwidth(n) == pytest.approx(
            expected, rel=0.05)

    def test_chi2_interval_matches_asymptotics(self):
        lo, hi = sigma_confidence_interval(1.0, 10000)
        assert 0.5 * (hi - lo) == pytest.approx(0.014, rel=0.03)

    def test_interval_ordering(self):
        lo, hi = sigma_confidence_interval(2.0, 50)
        assert lo < 2.0 < hi


class TestSkewness:
    def test_symmetric_sample_has_tiny_skew(self):
        rng = np.random.default_rng(2)
        x = rng.normal(5.0, 1.0, 100_000)
        assert abs(normalized_skewness(x)) < 0.05

    def test_paper_definition_sign(self):
        # right-skewed distribution around a positive mean -> positive
        rng = np.random.default_rng(3)
        x = 5.0 + rng.exponential(1.0, 100_000)
        assert normalized_skewness(x) > 0.0

    def test_cube_root_scaling(self):
        # mu3^(1/3)/mu: scaling x by c scales the metric by c/c = 1
        rng = np.random.default_rng(4)
        x = 5.0 + rng.exponential(1.0, 50_000)
        a = normalized_skewness(x)
        b = normalized_skewness(3.0 * x)
        assert a == pytest.approx(b, rel=1e-9)


class TestHistogramHelpers:
    def test_pdf_normalisation(self):
        x = np.linspace(-6, 6, 10001)
        p = gaussian_pdf(x, 0.0, 1.0)
        assert np.trapezoid(p, x) == pytest.approx(1.0, abs=1e-6)

    def test_histogram_density_integrates_to_one(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, 20000)
        centres, density, pdf = histogram_against_gaussian(x, 0.0, 1.0,
                                                           bins=40)
        width = centres[1] - centres[0]
        assert np.sum(density) * width == pytest.approx(1.0, rel=1e-6)
        assert pdf.max() == pytest.approx(gaussian_pdf(
            np.array([0.0]), 0.0, 1.0)[0], rel=0.05)

    def test_ascii_histogram_renders(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, 5000)
        art = ascii_histogram(x, 0.0, 1.0, bins=15, label="offset")
        assert "offset" in art
        assert art.count("\n") == 15
        assert "*" in art and "#" in art

    def test_ascii_histogram_zero_sigma_draws_bars_only(self):
        # a measure with no mismatch sensitivity has sigma_lin = 0: its
        # PDF is not finite, so the rows carry the bars and no marker
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            art = ascii_histogram(np.full(50, 1.5), 1.5, 0.0, bins=5)
        rows = art.splitlines()[1:]
        assert len(rows) == 5
        assert "#" * 50 in art
        assert not any("*" in row for row in rows)


def _scipy_describe(x, confidence):
    """:func:`describe` spelled with the scipy.stats calls it replaced."""
    n = x.size
    std = float(x.std(ddof=1))
    alpha = 1.0 - confidence
    chi2_lo = sps.chi2.ppf(alpha / 2.0, n - 1)
    chi2_hi = sps.chi2.ppf(1.0 - alpha / 2.0, n - 1)
    return SampleStats(
        n=n, mean=float(x.mean()), std=std,
        skewness=float(sps.skew(x, bias=False)) if n > 2 else 0.0,
        normalized_skewness=normalized_skewness(x),
        std_ci_low=std * np.sqrt((n - 1) / chi2_hi),
        std_ci_high=std * np.sqrt((n - 1) / chi2_lo))


class TestScipyStatsParity:
    """The scipy.special formulas are bit-identical to scipy.stats."""

    CONFIDENCES = (0.5, 0.9, 0.95, 0.99)

    def test_describe_every_field(self):
        rng = np.random.default_rng(7)
        mismatches = []
        for n in range(2, 501):
            x = (rng.exponential(1.0, n) + 3.0 if n % 2
                 else rng.normal(1e-3, 2e-4, n))
            for c in self.CONFIDENCES:
                if describe(x, confidence=c) != _scipy_describe(x, c):
                    mismatches.append((n, c))
        assert mismatches == []

    def test_confidence_interval_and_halfwidth(self):
        mismatches = []
        for n in range(2, 501):
            for c in self.CONFIDENCES:
                alpha = 1.0 - c
                hi = sps.chi2.ppf(1.0 - alpha / 2.0, n - 1)
                lo = sps.chi2.ppf(alpha / 2.0, n - 1)
                ci = (0.7 * np.sqrt((n - 1) / hi),
                      0.7 * np.sqrt((n - 1) / lo))
                half = float(sps.norm.ppf(0.5 + c / 2.0)
                             / np.sqrt(2.0 * n))
                if (sigma_confidence_interval(0.7, n, c) != ci
                        or sigma_relative_ci_halfwidth(n, c) != half):
                    mismatches.append((n, c))
        assert mismatches == []

    def test_skewness_is_nan_on_constant_samples(self):
        assert math.isnan(describe(np.full(10, 1.5)).skewness)
        assert math.isnan(describe(np.zeros(3)).skewness)

    def test_skewness_is_zero_at_two_samples(self):
        assert describe(np.array([1.0, 4.0])).skewness == 0.0


class TestSummarizeSamples:
    def test_counts_failed_lanes_and_describes_the_rest(self):
        vals = np.array([1.0, np.nan, 2.0, np.inf, 4.0])
        stats, failed = summarize_samples({"a": vals})
        assert failed == {"a": 2}
        assert stats["a"] == describe(np.array([1.0, 2.0, 4.0]))

    def test_raises_when_fewer_than_two_lanes_survive(self):
        vals = {"ok": np.arange(4.0), "bad": np.array([np.nan, 1.0])}
        with pytest.raises(MeasurementError, match="'bad'"):
            summarize_samples(vals)


def _fresh(script: str) -> str:
    """Run *script* in a fresh interpreter on ``src``; its stdout."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                         env=env, capture_output=True, text=True,
                         check=True)
    return out.stdout.strip()


class TestColdStart:
    """``import repro.api`` loads the engine only: the service layer,
    scipy.sparse and scipy.special load on first use, and scipy.stats
    never (the ``no-scipy-stats`` lint pins the spelling; these pin the
    module graph, transitive imports included)."""

    def test_scipy_stats_is_never_imported(self):
        assert _fresh("""
            import sys
            import numpy as np
            import repro.api as api
            api.describe(np.arange(5.0))
            ckt = api.Circuit("div")
            ckt.add_vsource("V1", "in", "0", dc=1.2)
            ckt.add_resistor("R1", "in", "out", 1e3, sigma_rel=0.02)
            ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
            mc = api.monte_carlo_dc(ckt, {"v": "out"}, n=8)
            assert mc.stats["v"].n == 8
            print("scipy.stats" in sys.modules)
        """) == "False"

    def test_import_loads_the_engine_only(self):
        out = _fresh("""
            import sys
            import repro.api
            print(sorted(m for m in ("repro.service", "scipy.sparse",
                                     "scipy.special", "http.client",
                                     "http.server", "ssl")
                         if m in sys.modules))
        """)
        assert out == "[]"

    def test_cold_transient_mismatch_loads_no_module(self):
        """The proposed call runs on what the import loaded, so no
        operation's timer pays for an import."""
        out = _fresh("""
            import sys
            import repro.api as api
            ckt = api.Circuit("rc")
            ckt.add_vsource("VS", "in", "0", wave=api.Sine(
                amplitude=0.3, freq=1e6, offset=0.6))
            ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
            ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
            before = set(sys.modules)
            res = api.transient_mismatch_analysis(
                ckt, [api.DcLevel("vout", "out")], period=1e-6,
                pss_options=api.PssOptions(n_steps=64, settle_periods=2))
            assert res.sigma("vout") >= 0.0
            print(sorted(set(sys.modules) - before),
                  "repro.service" in sys.modules)
        """)
        assert out == "[] False"

    def test_every_exported_name_resolves_as_before(self):
        out = _fresh("""
            import sys
            import repro
            import repro.api as api
            import repro.service as service
            # each service name loads its own module, not the package
            api.AnalysisSession
            assert "repro.service.session" in sys.modules
            assert "repro.service.net" not in sys.modules
            for module in (repro, api):
                listed = set(dir(module))
                for name in module.__all__:
                    value = getattr(module, name)
                    assert name in listed, name
                    if hasattr(service, name):
                        assert value is getattr(service, name), name
            for name in service.__all__:
                getattr(service, name)
                assert name in dir(service), name
            for module in (repro, api, service):
                try:
                    module.no_such_name
                except AttributeError:
                    pass
                else:
                    raise AssertionError(module.__name__)
            print("ok")
        """)
        assert out == "ok"

    def test_star_import(self):
        out = _fresh("""
            from repro.api import *
            import repro.api as api
            import repro.service
            assert AnalysisSession is repro.service.AnalysisSession
            assert Circuit is api.Circuit
            print(API_VERSION == api.API_VERSION)
        """)
        assert out == "True"

    def test_daemon_loads_scipy_special_before_its_engines_fork(self):
        """A daemon's engine processes inherit scipy.special, so no
        worker's first Monte-Carlo summary pays the import."""
        out = _fresh("""
            import sys
            from repro.service import net
            assert "scipy.special" not in sys.modules
            app = net.ServiceApp(job_workers=1)
            app.close()
            print("scipy.special" in sys.modules)
        """)
        assert out == "True"

    def test_sparse_transient_and_mc_summary_run_cold(self):
        out = _fresh("""
            import sys
            import numpy as np
            import repro.api as api
            ckt = api.Circuit("rc")
            ckt.add_vsource("VS", "in", "0", wave=api.Sine(
                amplitude=0.3, freq=1e6, offset=0.6))
            ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
            ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
            assert "scipy.sparse" not in sys.modules
            runs = [api.transient(api.compile_circuit(ckt, backend=b),
                                  2e-6, 1e-8)
                    for b in ("sparse", "cached")]
            assert "scipy.sparse" in sys.modules
            np.testing.assert_allclose(runs[0].signal("out"),
                                       runs[1].signal("out"), rtol=1e-9)
            assert "scipy.special" not in sys.modules
            mc = api.monte_carlo_transient(
                ckt, [api.DcLevel("vout", "out")], n=8, t_stop=2e-6,
                dt=1e-8, window=(1e-6, 2e-6))
            st = mc.stats["vout"]
            assert st.n == 8 and st.std_ci_low < st.std < st.std_ci_high
            # the fan-out loads its supervisor, not the network layers
            print("scipy.special" in sys.modules, sorted(
                m for m in ("repro.service.client", "repro.service.net",
                            "repro.service.resilience", "http.client")
                if m in sys.modules))
        """)
        assert out == "True []"
