"""The ``repro.api`` facade: closure, versioning, layering, shims.

This suite pins the PR's API-redesign contract:

* ``repro.api`` is a *closed* surface - ``API_VERSION`` is present,
  every ``__all__`` name resolves, and the re-exports are the very
  objects from their home modules (no copies, no drift);
* the in-repo examples and the network front-end respect the layering
  rules CI enforces (``examples-use-facade``, ``net-no-internals``);
* the request paths take ``variations`` / ``retry`` / ``n_workers``
  uniformly, validated by the same rules whatever the call shape, and
  the legacy positional call shapes of the analysis entry points,
  removed in API 2.0, raise ``TypeError``.
"""

import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.api as api
from repro.api import (AnalysisError, AnalysisRequest, Circuit,
                       RetryPolicy, Sine, compile_circuit,
                       dc_mismatch_analysis, spec_for_circuit,
                       transient_mismatch_analysis)

ROOT = Path(__file__).parent.parent


def _divider(r1=1e3):
    ckt = Circuit("div")
    ckt.add_vsource("V1", "in", "0", dc=1.2)
    ckt.add_resistor("R1", "in", "out", r1, sigma_rel=0.02)
    ckt.add_resistor("R2", "out", "0", 3e3, sigma_rel=0.02)
    return ckt


def _rc():
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _layering_checker():
    tools = ROOT / "tools"
    sys.path.insert(0, str(tools))
    try:
        import check_import_layering
    finally:
        sys.path.remove(str(tools))
    return check_import_layering


def _layering_violations(only=None):
    checker = _layering_checker()
    return ({r.name for r in checker.RULES},
            checker.violations(ROOT, only=only))


# ---------------------------------------------------------------------------
# the closed surface
# ---------------------------------------------------------------------------
class TestFacade:
    def test_api_version_is_major_minor(self):
        assert re.fullmatch(r"\d+\.\d+", api.API_VERSION)
        assert "API_VERSION" in api.__all__

    def test_all_names_resolve(self):
        missing = [name for name in api.__all__
                   if not hasattr(api, name)]
        assert missing == []

    def test_all_has_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_reexports_are_the_home_objects(self):
        from repro.circuit import Circuit as home_circuit
        from repro.core import \
            transient_mismatch_analysis as home_transient
        from repro.service import AnalysisServer as home_server
        from repro.service import RemoteSession as home_client
        assert api.Circuit is home_circuit
        assert api.transient_mismatch_analysis is home_transient
        assert api.AnalysisServer is home_server
        assert api.RemoteSession is home_client

    def test_daemon_reports_the_facade_version(self):
        with api.AnalysisServer() as server:
            health = api.RemoteSession(server.url).health()
        assert health["api_version"] == api.API_VERSION


# ---------------------------------------------------------------------------
# layering rules (the same checker CI runs)
# ---------------------------------------------------------------------------
class TestLayering:
    def test_new_rules_are_registered(self):
        names, _ = _layering_violations()
        assert {"net-no-internals", "examples-use-facade"} <= names

    def test_net_layer_uses_no_internals(self):
        _, found = _layering_violations(only="net-no-internals")
        assert found == []

    def test_examples_import_only_the_facade(self):
        _, found = _layering_violations(only="examples-use-facade")
        assert found == []

    def test_package_never_imports_scipy_stats(self):
        names, found = _layering_violations(only="no-scipy-stats")
        assert "no-scipy-stats" in names
        assert found == []

    def test_domain_rule_covers_all_of_core(self):
        rule = next(r for r in _layering_checker().RULES
                    if r.name == "domain-no-service")
        assert "src/repro/core" in rule.paths
        assert [rel for rel, _ in rule.allow] \
            == ["src/repro/core/montecarlo.py"]
        core = ROOT / "src" / "repro" / "core"
        scanned = {p for p in rule.files(ROOT) if p.parent == core}
        assert scanned == set(core.glob("*.py"))

    def _core_with(self, tmp_path, name, line):
        """A copy of ``repro/core`` under *tmp_path* with *line* added
        to module *name* inside a function."""
        core = tmp_path / "src" / "repro" / "core"
        core.mkdir(parents=True)
        for path in (ROOT / "src" / "repro" / "core").glob("*.py"):
            source = path.read_text()
            if path.name == name:
                source += "\n\ndef f():\n" + line
            (core / path.name).write_text(source)

    def test_domain_rule_flags_a_service_import_in_core(self, tmp_path):
        rule = next(r for r in _layering_checker().RULES
                    if r.name == "domain-no-service")
        self._core_with(tmp_path, "analysis.py",
                        "    from ..service.session import default_session\n")
        found = rule.violations(tmp_path)
        assert len(found) == 1
        assert found[0].startswith("src/repro/core/analysis.py:")
        assert "default_session" in found[0]

    @pytest.mark.parametrize("line", [
        "    from ..service.serialize import variation_spec\n",
        "    from repro.service.session import default_session\n",
        "    from ..service import jobs\n",
        "    import repro.service.jobs\n",
    ])
    def test_domain_rule_flags_a_third_service_module_in_montecarlo(
            self, tmp_path, line):
        # montecarlo.py may import repro.service.shards and
        # repro.service.jobs, and nothing else from the service
        rule = next(r for r in _layering_checker().RULES
                    if r.name == "domain-no-service")
        self._core_with(tmp_path, "montecarlo.py", line)
        found = rule.violations(tmp_path)
        assert len(found) == 1
        assert found[0].startswith("src/repro/core/montecarlo.py:")
        assert line.strip() in found[0]

    @pytest.mark.parametrize("line,caught", [
        ("import scipy.stats", True),
        ("    import scipy.stats as sps", True),
        ("import numpy, scipy.stats", True),
        ("from scipy.stats import norm", True),
        ("from scipy.stats._stats_py import skew", True),
        ("from scipy import stats", True),
        ("    from scipy import special, stats as sps", True),
        ("from scipy import special", False),
        ("from scipy import statsmodels_like", False),
        ("from . import stats", False),
        ("# from scipy import stats", False),
    ])
    def test_scipy_stats_rule_catches_every_spelling(self, line, caught):
        rule = next(r for r in _layering_checker().RULES
                    if r.name == "no-scipy-stats")
        assert any(p.match(line) for p in rule.patterns) is caught


# ---------------------------------------------------------------------------
# keyword uniformity: variations / retry / n_workers everywhere
# ---------------------------------------------------------------------------
class TestUniformKeywords:
    def test_single_solve_requests_accept_and_drop_them(self):
        plain = AnalysisRequest.dc_mismatch(_divider(), {"v": "out"})
        tuned = AnalysisRequest.dc_mismatch(
            _divider(), {"v": "out"},
            retry=RetryPolicy(max_attempts=2), n_workers=4)
        assert tuned.key() == plain.key()

    def test_entry_points_accept_retry_and_n_workers(self):
        res = dc_mismatch_analysis(
            _divider(), {"v": "out"},
            retry=RetryPolicy(max_attempts=2), n_workers=2)
        assert res.sigma("v") > 0

    def test_bogus_retry_is_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            AnalysisRequest.dc_mismatch(_divider(), {"v": "out"},
                                        retry="soon")

    @pytest.mark.parametrize("compiled", [False, True],
                             ids=["Circuit", "CompiledCircuit"])
    @pytest.mark.parametrize("analysis", ["dc", "transient"])
    @pytest.mark.parametrize("bad,error", [
        ({"retry": "soon"}, TypeError),
        ({"n_workers": 0}, AnalysisError),
        ("both", ValueError),
    ], ids=["retry", "n_workers", "both_forms"])
    def test_keyword_shape_is_checked_the_same_for_every_call_shape(
            self, compiled, analysis, bad, error):
        ckt = _divider() if analysis == "dc" else _rc()
        if bad == "both":
            spec = spec_for_circuit(ckt)
            bad = {"variations": spec,
                   "param_covariance": spec.covariance(ckt)}
        target = compile_circuit(ckt) if compiled else ckt
        with pytest.raises(error):
            if analysis == "dc":
                dc_mismatch_analysis(target, {"v": "out"}, **bad)
            else:
                transient_mismatch_analysis(
                    target, [api.DcLevel("vout", "out")], period=1e-6,
                    **bad)


# ---------------------------------------------------------------------------
# deprecation policy: positional call shapes warned through 1.x and were
# removed in 2.0
# ---------------------------------------------------------------------------
class TestPositionalDeprecation:
    @pytest.mark.parametrize("call", [
        lambda: dc_mismatch_analysis(_divider(), {"v": "out"}, None,
                                     np.diag([1e-4, 1e-4])),
        lambda: transient_mismatch_analysis(_rc(), [api.DcLevel(
            "vout", "out")], 1e-6),
    ], ids=["dc", "transient"])
    def test_positional_call_is_a_type_error(self, call):
        with pytest.raises(TypeError, match="positional argument"):
            call()

    def test_keyword_call_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            dc_mismatch_analysis(_divider(), {"v": "out"})
