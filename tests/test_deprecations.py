"""The API 3.0 cut.

API 3.0 removed each surface that warned with a
:class:`~repro.errors.ReproDeprecationWarning` since 2.1 or 2.2: the
name is gone (:class:`AttributeError`) or the keyword is refused
(:class:`TypeError`), like the 2.0 positional shapes.  Request format
v1 is unchanged: a ``tm`` body a 2.x client encodes, with the three
retired settle fields at their old defaults, is served and keyed as a
3.0 client's request for the same workload.  ``default_session()``
stays and, like every default, does not warn.
"""

import json
import urllib.error
import urllib.request
import warnings

import pytest

import repro.service
from repro import api, errors
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.core import DcLevel
from repro.errors import ReproDeprecationWarning
from repro.service import (AnalysisRequest, AnalysisServer,
                           AnalysisSession, RetryPolicy, default_session,
                           resilience)

#: surface -> a call that must raise AttributeError or TypeError.
REMOVED = {
    "api.ScatterPolicy": lambda: api.ScatterPolicy,
    "service.ScatterPolicy": lambda: repro.service.ScatterPolicy,
    "resilience.ScatterPolicy": lambda: resilience.ScatterPolicy,
    "AnalysisSession.state": lambda: AnalysisSession().state,
    "WorkerPool.run_shard": lambda: resilience.WorkerPool.run_shard,
    "PssOptions.settle_adaptive": lambda: PssOptions(settle_adaptive=False),
    "PssOptions.settle_rtol": lambda: PssOptions(settle_rtol=1e-3),
    "PssOptions.settle_atol": lambda: PssOptions(settle_atol=1e-6),
    "AnalysisSession(compiled_capacity=)":
        lambda: AnalysisSession(compiled_capacity=2),
    "AnalysisSession(state_capacity=)":
        lambda: AnalysisSession(state_capacity=2),
    "AnalysisSession(pss_capacity=)":
        lambda: AnalysisSession(pss_capacity=2),
    "errors.warn_deprecated": lambda: errors.warn_deprecated,
}


@pytest.mark.parametrize("surface", list(REMOVED))
def test_removed_surface_is_gone(surface):
    with pytest.raises((AttributeError, TypeError)):
        REMOVED[surface]()


def test_the_cut_is_api_3_0():
    assert api.API_VERSION == "3.0"
    assert "ScatterPolicy" not in api.__all__
    assert "ScatterPolicy" not in dir(api)
    assert set(AnalysisSession().stats()) == {"compiled", "pss", "results"}


def test_defaults_and_default_session_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error", ReproDeprecationWarning)
        RetryPolicy(hedge=True)
        PssOptions(settle_periods=3)
        AnalysisSession()
        default_session()


# ---------------------------------------------------------------------------
# request format v1 across the cut
# ---------------------------------------------------------------------------
#: A ``tm`` request body as API 2.2 encoded it: ``PssOptions`` still
#: lists ``settle_adaptive``, ``settle_rtol`` and ``settle_atol``.
V1_TM_BODY = (
    '{"version": 1, "kind": "transient_mismatch", "circuit": {"format": 1, '
    '"name": "rc_lowpass", "elements": [{"__type__": "VoltageSource", '
    '"name": "VS", "pos": "in", "neg": "0", "wave": {"__type__": "Sine", '
    '"offset": 0.6, "amplitude": 0.3, "freq": 1000000.0, "delay": 0.0}}, '
    '{"__type__": "Resistor", "name": "R", "pos": "in", "neg": "out", '
    '"r": 1000.0, "sigma_rel": 0.05, "noisy": true}, {"__type__": '
    '"Capacitor", "name": "C", "pos": "out", "neg": "0", "c": 1e-09, '
    '"sigma_rel": 0.02}], "ic": {}}, "measures": [{"__type__": "DcLevel", '
    '"name": "vout", "node": "out", "neg": null}], "outputs": [], '
    '"options": {"period": 1e-06, "pss_options": {"__type__": '
    '"PssOptions", "n_steps": 40, "method": "trap", "engine": "shooting", '
    '"settle_periods": 2, "max_iterations": 40, "tol": 1e-09, '
    '"settle_max_periods": 2000, "matrix_free": null, "krylov_tol": '
    '1e-11, "settle_adaptive": false, "settle_rtol": 0.001, '
    '"settle_atol": 1e-06, "newton": {"__type__": "NewtonOptions", '
    '"abstol": 1e-09, "vntol": 1e-09, "max_iterations": 50, '
    '"max_step": 1.0}}}}')
#: Its request key under API 2.2.
V1_TM_KEY = "d433a4674abe5e9e9240f758d03c85b1344f1d4dc75eb297688c706f2ae34037"


def _tm_request():
    ckt = Circuit("rc_lowpass")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return AnalysisRequest.transient_mismatch(
        ckt, [DcLevel("vout", "out")], period=1e-6,
        pss_options=PssOptions(n_steps=40, settle_periods=2))


def _post_run(url, body: str):
    req = urllib.request.Request(url + "/run", data=body.encode(),
                                 method="POST")
    req.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(req, timeout=60) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read().decode())


class TestRequestFormatV1:
    def test_a_3_0_client_encodes_the_v1_bytes_and_key(self):
        request = _tm_request()
        assert request.to_json() == V1_TM_BODY
        assert request.key() == V1_TM_KEY
        assert AnalysisRequest.from_json(V1_TM_BODY).key() == V1_TM_KEY

    def test_a_3_0_daemon_serves_the_v1_body(self):
        local = AnalysisSession().run(_tm_request())
        adaptive = V1_TM_BODY.replace('"settle_adaptive": false',
                                      '"settle_adaptive": true')
        with AnalysisServer(job_workers=1) as server:
            status, reply = _post_run(server.url, V1_TM_BODY)
            refused, error = _post_run(server.url, adaptive)
        assert status == 200
        assert reply["request_key"] == V1_TM_KEY
        assert reply["summary"]["metrics"] == local.summary["metrics"]
        assert refused == 400
        assert "settle_adaptive was removed in API 3.0" in json.dumps(error)
