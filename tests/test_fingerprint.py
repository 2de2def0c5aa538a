"""Content-hash stability: circuit fingerprints and compile/state keys.

The whole service-layer cache architecture rests on these invariants:
equal circuit *content* must hash equal (regardless of how the netlist
was typed in), and any change that alters the compiled system must hash
different.
"""

import hashlib
from collections import OrderedDict, namedtuple
from dataclasses import dataclass, field
from dataclasses import fields as _frozen_fields
from dataclasses import is_dataclass as _frozen_is_dataclass

import numpy as np
import pytest

from repro.analysis import compile_circuit
from repro.analysis.pss import PssOptions
from repro.circuit import Circuit, Sine
from repro.circuit.netlist import content_digest
from repro.circuit.technology import default_technology
from repro.circuits import (five_transistor_ota, inverter_chain,
                            logic_path_testbench, rc_ladder,
                            resistor_string_dac, ring_oscillator,
                            strongarm_offset_testbench)
from repro.core import DcLevel
from repro.service import (AnalysisRequest, AnalysisSession,
                           circuit_from_dict, circuit_to_dict,
                           mc_transient_shards, registered_kinds)
from repro.service.serialize import measure_tokens
from repro.variation import (CorrelationGroup, ParameterVariation,
                             VariationSpec)


def _divider(node_in="in", node_out="out", r1=1e3, order="forward",
             name="divider"):
    ckt = Circuit(name)
    adds = [
        lambda: ckt.add_vsource("V1", node_in, "0", dc=1.2),
        lambda: ckt.add_resistor("R1", node_in, node_out, r1,
                                 sigma_rel=0.02),
        lambda: ckt.add_resistor("R2", node_out, "0", 3e3,
                                 sigma_rel=0.02),
    ]
    for add in (adds if order == "forward" else reversed(adds)):
        add()
    return ckt


class TestFingerprint:
    def test_insertion_order_invariant(self):
        assert (_divider(order="forward").fingerprint()
                == _divider(order="backward").fingerprint())

    def test_node_rename_invariant(self):
        assert (_divider().fingerprint()
                == _divider(node_in="a", node_out="b").fingerprint())

    def test_circuit_name_invariant(self):
        # the display name is presentation, not content
        assert (_divider(name="x").fingerprint()
                == _divider(name="y").fingerprint())

    def test_value_perturbation_distinct(self):
        assert (_divider().fingerprint()
                != _divider(r1=1e3 * (1 + 1e-12)).fingerprint())

    def test_tolerance_spec_distinct(self):
        a = _divider()
        b = _divider()
        b["R1"].sigma_rel = 0.05
        assert a.fingerprint() != b.fingerprint()

    def test_ground_aliases_equal(self):
        a = Circuit("g1")
        a.add_resistor("R", "n", "0", 1e3)
        b = Circuit("g2")
        b.add_resistor("R", "n", "gnd", 1e3)
        assert a.fingerprint() == b.fingerprint()

    def test_initial_conditions_hash(self):
        a, b = _divider(), _divider()
        b.ic["out"] = 0.5
        assert a.fingerprint() != b.fingerprint()

    def test_serialization_round_trip_preserves_fingerprint(self):
        ckt = Circuit("rt")
        ckt.add_vsource("VS", "in", "0",
                        wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
        ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
        ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
        ckt.ic["out"] = 0.1
        rt = circuit_from_dict(circuit_to_dict(ckt))
        assert rt.fingerprint() == ckt.fingerprint()


class TestContentDigest:
    def test_type_tags_distinguish(self):
        # 1 / 1.0 / True / "1" must all hash apart
        digests = {content_digest(v) for v in (1, 1.0, True, "1")}
        assert len(digests) == 4

    def test_ndarray_content(self):
        a = content_digest(np.arange(3.0))
        b = content_digest(np.arange(3.0))
        c = content_digest(np.arange(3.0) + 1e-15)
        assert a == b != c

    def test_dict_order_invariant(self):
        assert (content_digest({"a": 1, "b": 2})
                == content_digest({"b": 2, "a": 1}))

    def test_unhashable_rejected(self):
        with pytest.raises(TypeError):
            content_digest(object())


class TestCompileKeys:
    def test_cache_key_stable_across_compiles(self):
        assert (compile_circuit(_divider()).cache_key
                == compile_circuit(_divider(node_in="a")).cache_key)

    def test_cache_key_cmin_sensitive(self):
        a = compile_circuit(_divider())
        b = compile_circuit(_divider(), cmin=2e-15)
        assert a.cache_key != b.cache_key

    def test_session_compile_fingerprints_once(self, monkeypatch):
        """The compile holds the fingerprint it was compiled from, so
        its cache and state keys do not hash the netlist again."""
        calls = []
        fingerprint = Circuit.fingerprint

        def counted(circuit):
            calls.append(circuit)
            return fingerprint(circuit)

        monkeypatch.setattr(Circuit, "fingerprint", counted)
        compiled = AnalysisSession().compile(_divider())
        keys = (compiled.cache_key, compiled.state_key())
        assert len(calls) == 1
        assert compiled.circuit_fingerprint == fingerprint(_divider())
        assert keys[0] == compile_circuit(_divider()).cache_key

    def test_state_key_nominal_vs_deltas(self):
        c = compile_circuit(_divider())
        k_nom = c.state_key()
        assert k_nom == c.state_key(deltas={})
        k_d = c.state_key(deltas={("R1", "r"): 5.0})
        k_d2 = c.state_key(deltas={("R1", "r"): 5.0})
        assert k_d == k_d2 != k_nom

    def test_state_key_batch_shape(self):
        c = compile_circuit(_divider())
        assert c.state_key(batch_shape=(4,)) != c.state_key()

    def test_state_key_array_deltas(self):
        c = compile_circuit(_divider())
        a = c.state_key(deltas={("R1", "r"): np.array([1.0, 2.0])})
        b = c.state_key(deltas={("R1", "r"): np.array([1.0, 2.5])})
        assert a != b


# ---------------------------------------------------------------------------
# encoder parity: the one-pass encoder against a frozen copy of the v1
# hasher, which fed each token to sha256 in turn
# ---------------------------------------------------------------------------
def _frozen_hash_update(h, obj) -> None:
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"T;" if obj else b"f;")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(("F%r;" % float(obj)).encode())
    elif isinstance(obj, str):
        raw = obj.encode()
        h.update(b"S%d:" % len(raw))
        h.update(raw)
        h.update(b";")
    elif isinstance(obj, bytes):
        h.update(b"Y%d:" % len(obj))
        h.update(obj)
        h.update(b";")
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        h.update(("A%s%r:" % (arr.dtype.str, arr.shape)).encode())
        h.update(arr.tobytes())
        h.update(b";")
    elif isinstance(obj, (list, tuple)):
        h.update(b"L%d:" % len(obj))
        for item in obj:
            _frozen_hash_update(h, item)
        h.update(b";")
    elif isinstance(obj, dict):
        h.update(b"D%d:" % len(obj))
        for key in sorted(obj):
            _frozen_hash_update(h, key)
            _frozen_hash_update(h, obj[key])
        h.update(b";")
    elif _frozen_is_dataclass(obj) and not isinstance(obj, type):
        h.update(("C%s:" % type(obj).__name__).encode())
        for f in _frozen_fields(obj):
            _frozen_hash_update(h, f.name)
            _frozen_hash_update(h, getattr(obj, f.name))
        h.update(b";")
    else:
        raise TypeError(
            f"cannot fingerprint a value of type {type(obj).__name__}")


def _frozen_digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        _frozen_hash_update(h, part)
    return h.hexdigest()


def _frozen_fingerprint(circuit) -> str:
    elements = sorted(circuit, key=lambda el: el.name)
    canon = {}

    def node_id(node):
        if node in ("0", "gnd"):
            return "=gnd="
        tag = canon.get(node)
        if tag is None:
            tag = canon[node] = f"#{len(canon)}"
        return tag

    records = []
    for el in elements:
        fields_rec = {}
        for f in _frozen_fields(el):
            value = getattr(el, f.name)
            if f.name in {"pos", "neg", "ctrl_pos", "ctrl_neg",
                          "d", "g", "s", "b"} and isinstance(value, str):
                value = node_id(value)
            fields_rec[f.name] = value
        records.append((type(el).__name__, fields_rec))
    ic_rec = sorted(
        (node_id(node) if (node in canon or node in ("0", "gnd"))
         else "?" + node, float(v))
        for node, v in circuit.ic.items())
    return _frozen_digest("circuit-fingerprint-v1", records, ic_rec)


class _Tag(str):
    pass


_Pair = namedtuple("_Pair", "first second")


@dataclass
class _Inner:
    weights: tuple = (1, 2.5)
    label: str = "néud"


@dataclass
class _Outer:
    inner: _Inner = field(default_factory=_Inner)
    rows: list = field(default_factory=lambda: [_Inner(), None])
    table: dict = field(default_factory=lambda: {"z": 1, "a": [True]})


VALUE_CORPUS = [
    None, True, False, 0, -7, 2 ** 70, np.int64(-3), np.int32(5),
    0.0, -0.0, 1.5, 1e-300, float("nan"), float("inf"), float("-inf"),
    np.float64(0.1), np.float32(0.1),
    "", "plain", "éè ∑ \U0001f600", _Tag("tagged"),
    b"", b"\x00\xffbytes",
    np.arange(6.0).reshape(2, 3),
    np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    np.arange(6, dtype=np.int32).reshape(3, 2),
    np.asfortranarray(np.arange(6, dtype=np.int32).reshape(3, 2)),
    np.zeros((0, 2)),
    [1, [2, (3.0, "x")], ()], (None, [], {}),
    {"b": 1, "a": 2.0, "c": {"y": [1], "x": None}},
    {2: "two", 1: "one"},
    OrderedDict([("b", 1), ("a", 2.0)]), _Pair(1, ("x", None)),
    _Inner(), _Outer(),
]


def _rc():
    ckt = Circuit("rc")
    ckt.add_vsource("VS", "in", "0",
                    wave=Sine(amplitude=0.3, freq=1e6, offset=0.6))
    ckt.add_resistor("R", "in", "out", 1e3, sigma_rel=0.05)
    ckt.add_capacitor("C", "out", "0", 1e-9, sigma_rel=0.02)
    return ckt


def _requests():
    tech = default_technology()
    rc = _rc()
    meas = [DcLevel("vout", "out")]
    spec = VariationSpec(
        variations=(ParameterVariation("R", "r", group="g"),
                    ParameterVariation("C", "c", scale=2.0, group="g")),
        groups=(CorrelationGroup("g", 0.3),))
    dc = AnalysisRequest.dc_mismatch(five_transistor_ota(tech),
                                     {"vos": ("out", "inp")})
    tm = AnalysisRequest.transient_mismatch(
        rc, meas, period=1e-6,
        pss_options=PssOptions(n_steps=100, settle_periods=2))
    return [
        dc, tm,
        AnalysisRequest.monte_carlo_transient(
            rc, meas, 8, 2e-6, 2e-8, seed=3, chunk_size=4,
            variations=spec),
        AnalysisRequest.monte_carlo_dc(_divider(), {"v": "out"}, 16,
                                       seed=1),
        AnalysisRequest.pss(rc, meas, period=1e-6),
        AnalysisRequest.ac(rc, {"vout": "out"}, "VS", [1e3, 1e6]),
        AnalysisRequest.sweep([dc, tm], labels=["dc", "tm"]),
    ]


def _testbenches():
    tech = default_technology()
    return {
        "ota": five_transistor_ota(tech),
        "comparator": strongarm_offset_testbench(tech).circuit,
        "logic_path": logic_path_testbench(tech).circuit,
        "inverter_chain": inverter_chain(tech),
        "ring_oscillator": ring_oscillator(tech),
        "dac": resistor_string_dac(tech),
        "rc_ladder": rc_ladder(6),
        "divider_with_ic": _with_ic(_divider()),
    }


def _with_ic(ckt):
    ckt.ic.update({"out": 0.25, "floating": 1.0, "0": 0.0})
    return ckt


#: ``content_digest(*VALUE_CORPUS)`` and the divider's fingerprint, as
#: the v1 hasher computed them.
PINNED_CORPUS = (
    "01df85cf8b688773c37fb5b2c5725fc80ad630da3abdf2fdbd8fddd65c0da4ba")
PINNED_DIVIDER = (
    "067c3193b47c52c553945d4a29a9182bca0a474c058d1e794ccf7cc1fcd52dd9")


class TestEncoderParity:
    @pytest.mark.parametrize("value", VALUE_CORPUS,
                             ids=lambda v: type(v).__name__)
    def test_each_value_digests_as_before(self, value):
        assert content_digest(value) == _frozen_digest(value)
        assert content_digest("tag", value, [value]) \
            == _frozen_digest("tag", value, [value])

    def test_whole_corpus_in_one_digest(self):
        assert content_digest(*VALUE_CORPUS) \
            == _frozen_digest(*VALUE_CORPUS)

    @pytest.mark.parametrize("bad", [object(), {1, 2}, bytearray(b"x"),
                                     [1, object()], Circuit])
    def test_unencodable_values_raise_type_error(self, bad):
        with pytest.raises(TypeError):
            _frozen_digest(bad)
        with pytest.raises(TypeError, match="cannot fingerprint"):
            content_digest(bad)

    @pytest.mark.parametrize("name", sorted(_testbenches()))
    def test_bundled_testbench_fingerprints(self, name):
        circuit = _testbenches()[name]
        assert circuit.fingerprint() == _frozen_fingerprint(circuit)

    def test_request_keys_of_every_kind(self):
        requests = _requests()
        assert sorted({r.kind for r in requests}) \
            == sorted(registered_kinds())
        for request in requests:
            assert request.key() == _frozen_digest(
                "analysis-request-v1", request.version, request.kind,
                request.circuit, list(request.measures),
                list(request.outputs), request.options), request.kind

    def test_shard_workload_key(self):
        spec = mc_transient_shards(_rc(), [DcLevel("v", "out")], 8,
                                   2e-6, 2e-8, seed=5, chunk_size=4)[1]
        assert spec.workload_key() == _frozen_digest(
            "shard-workload-v1", spec.version, spec.kind, spec.circuit,
            spec.n_total, spec.seed, spec.sigma_scale,
            spec.param_covariance, spec.variations,
            measure_tokens(spec.measures), spec.outputs,
            spec.options)

    def test_variation_spec_fingerprint(self):
        spec = VariationSpec(
            variations=(ParameterVariation("R2", "r", sigma=1.0),
                        ParameterVariation("R1", "r", group="m")),
            groups=(CorrelationGroup("m", -0.5),), default_scale=1.5)
        assert spec.fingerprint() \
            == _frozen_digest("variation-spec-v1", spec)

    def test_compile_and_state_keys(self):
        circuit = _testbenches()["ota"]
        cold = compile_circuit(circuit)
        warm = AnalysisSession().compile(circuit)
        fingerprint = _frozen_fingerprint(circuit)
        assert cold.cache_key == warm.cache_key == _frozen_digest(
            "compiled-circuit-v1", fingerprint, float(cold.cmin))
        deltas = {("MI1", "vt0"): np.array([1e-3, -2e-3])}
        assert warm.state_key(deltas=deltas, batch_shape=(2,)) \
            == _frozen_digest("param-state-v1", cold.cache_key, deltas,
                              {}, (2,))

    def test_pinned_digests(self):
        """Literal v1 digests, so the frozen copy above cannot drift
        along with the encoder."""
        assert content_digest(*VALUE_CORPUS) == PINNED_CORPUS
        assert _divider().fingerprint() == PINNED_DIVIDER
