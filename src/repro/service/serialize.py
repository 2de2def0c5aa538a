"""JSON-serializable encodings of circuits, measures and options.

Everything the service layer ships across a process or host boundary -
:class:`~repro.service.requests.AnalysisRequest` payloads and
:class:`~repro.service.shards.ShardSpec` shards - is encoded through the
two functions here:

* :func:`to_jsonable` turns a registered dataclass (elements, time
  functions, measures, analysis options) into a plain
  ``{"__type__": ..., field: value}`` dict of JSON types; numpy arrays
  become tagged lists.
* :func:`from_jsonable` inverts it exactly.

The registry is closed on purpose: only types the engines themselves
ship can cross a serialization boundary, so a decoded request can never
execute arbitrary classes.  In-process paths (the default
:func:`~repro.core.montecarlo.monte_carlo_transient` fan-out) keep
passing live objects and never pay for the round-trip.
"""

from __future__ import annotations

from dataclasses import fields as _dataclass_fields
from dataclasses import is_dataclass as _is_dataclass

import numpy as np

from ..circuit.netlist import Circuit

#: Built lazily (pulling the measure classes in at import time would
#: drag :mod:`repro.core` into every service import).
_REGISTRY: dict[str, type] | None = None

#: Fields API 3.0 removed that request format v1 still carries:
#: type -> (the field they precede, {field: the value v1 writes}).
#: :func:`to_jsonable` writes them where v1 did, so a record's bytes
#: and a request's key stay v1's; :func:`from_jsonable` drops them and
#: refuses any other value.  The table goes with format v1.
RETIRED_FIELDS = {
    "PssOptions": ("newton", {"settle_adaptive": False,
                              "settle_rtol": 1e-3, "settle_atol": 1e-6}),
}


def _registry() -> dict[str, type]:
    global _REGISTRY
    if _REGISTRY is None:
        from ..analysis.dcop import NewtonOptions
        from ..analysis.pss import PssOptions
        from ..analysis.transient import TransientOptions
        from ..circuit.controlled import GateWindow, Vccs, Vcvs
        from ..circuit.mosfet import Mosfet
        from ..circuit.passives import Capacitor, Inductor, Resistor
        from ..circuit.sources import (CurrentSource, Dc, Pwl, Sine,
                                       SmoothPulse, VoltageSource)
        from ..circuit.technology import MosParams, Technology
        from ..core.gaussian_mixture import MixtureComponent
        from ..core.measures import DcLevel, EdgeDelay, Frequency
        from ..errors import FailureRecord
        from ..variation import (CorrelationGroup, ParameterVariation,
                                 VariationSpec)
        _REGISTRY = {cls.__name__: cls for cls in (
            Resistor, Capacitor, Inductor,
            VoltageSource, CurrentSource, Vccs, Vcvs, Mosfet,
            Dc, Sine, SmoothPulse, Pwl, GateWindow,
            MosParams, Technology,
            DcLevel, EdgeDelay, Frequency,
            NewtonOptions, PssOptions, TransientOptions,
            FailureRecord,
            ParameterVariation, CorrelationGroup, VariationSpec,
            MixtureComponent,
        )}
    return _REGISTRY


def to_jsonable(obj):
    """Encode *obj* into JSON-compatible types (see module docstring).

    Raises ``TypeError`` for values outside the closed registry - an
    unregistered custom :class:`~repro.core.measures.Measure`, say -
    which is the signal that a workload can only run in-process.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return {"__ndarray__": obj.tolist(), "dtype": str(obj.dtype)}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"JSON object keys must be strings, got {k!r}")
            out[k] = to_jsonable(v)
        return out
    name = type(obj).__name__
    if _is_dataclass(obj) and name in _registry():
        rec = {"__type__": name}
        before, retired = RETIRED_FIELDS.get(name, (None, {}))
        for f in _dataclass_fields(obj):
            if f.name == before:
                rec.update(retired)
            if f.init:
                rec[f.name] = to_jsonable(getattr(obj, f.name))
        return rec
    raise TypeError(
        f"cannot serialize a value of type {type(obj).__name__} "
        "(not in the service type registry)")


def from_jsonable(obj):
    """Decode the output of :func:`to_jsonable` back into live objects."""
    if isinstance(obj, dict):
        if "__ndarray__" in obj:
            return np.asarray(obj["__ndarray__"],
                              dtype=obj.get("dtype", "float64"))
        if "__type__" in obj:
            name = obj["__type__"]
            try:
                cls = _registry()[name]
            except KeyError:
                raise TypeError(
                    f"unknown serialized type '{name}'") from None
            retired = RETIRED_FIELDS.get(name, (None, {}))[1]
            kwargs = {}
            for k, v in obj.items():
                if k in retired:
                    if type(v) is not type(retired[k]) or v != retired[k]:
                        raise ValueError(
                            f"{name}.{k} was removed in API 3.0; "
                            f"request format v1 accepts only "
                            f"{k}={retired[k]!r}, got {v!r}")
                elif k != "__type__":
                    kwargs[k] = from_jsonable(v)
            return cls(**kwargs)
        return {k: from_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [from_jsonable(v) for v in obj]
    return obj


def circuit_to_dict(circuit: Circuit) -> dict:
    """Serialize a :class:`Circuit` (elements + initial conditions)."""
    return {
        "format": 1,
        "name": circuit.name,
        "elements": [to_jsonable(el) for el in circuit],
        "ic": {node: float(v) for node, v in circuit.ic.items()},
    }


def circuit_from_dict(data: dict) -> Circuit:
    """Rebuild a :class:`Circuit` from :func:`circuit_to_dict` output.

    The round-trip preserves the fingerprint:
    ``circuit_from_dict(circuit_to_dict(c)).fingerprint()
    == c.fingerprint()``.
    """
    if data.get("format") != 1:
        raise ValueError(
            f"unsupported circuit format {data.get('format')!r}")
    ckt = Circuit(data.get("name", "circuit"))
    for rec in data["elements"]:
        ckt.add(from_jsonable(rec))
    ckt.ic.update({node: float(v)
                   for node, v in data.get("ic", {}).items()})
    return ckt


# ---------------------------------------------------------------------------
# shared canonicalization helpers
#
# One construction site for the payload shapes that requests, shards and
# engines all agree on (these used to be copy-pasted between
# requests.py and shards.py).
# ---------------------------------------------------------------------------
def clean_options(options: dict) -> dict:
    """Drop ``None`` entries so that 'omitted' and 'default' hash
    identically - requests built with and without explicit defaults
    would otherwise miss each other's cached results."""
    return {k: v for k, v in options.items() if v is not None}


def circuit_record(circuit) -> dict:
    """Canonicalise any circuit-shaped argument into the serialized
    record: dicts pass through, :class:`Circuit` serializes, compiled
    circuits (anything exposing a ``.circuit`` attribute) serialize
    their inner :class:`Circuit`."""
    if isinstance(circuit, dict):
        return circuit
    if isinstance(circuit, Circuit):
        return circuit_to_dict(circuit)
    inner = getattr(circuit, "circuit", None)
    if isinstance(inner, Circuit):
        return circuit_to_dict(inner)
    raise TypeError("expected a Circuit, CompiledCircuit or circuit dict")


def covariance_payload(param_covariance) -> list | None:
    """Mismatch covariance as nested lists (JSON), or ``None``."""
    if param_covariance is None:
        return None
    return np.asarray(param_covariance, dtype=float).tolist()


def variation_payload(variations) -> dict | None:
    """A :class:`~repro.variation.VariationSpec` (or its already-encoded
    tagged dict) as the tagged-jsonable options payload, or ``None``."""
    if variations is None:
        return None
    if isinstance(variations, dict):
        return variations
    return to_jsonable(variations)


def variation_spec(payload):
    """Decode :func:`variation_payload` output back into a live
    :class:`~repro.variation.VariationSpec` (``None`` passes through)."""
    if payload is None or not isinstance(payload, dict):
        return payload
    return from_jsonable(payload)


def output_triples(outputs) -> tuple:
    """Canonicalise a dcmatch output map into sorted
    ``(name, pos, neg)`` triples - a hashable, JSON-stable shape.
    Already-canonical triple sequences pass through unchanged."""
    if not isinstance(outputs, dict):
        return tuple(
            (str(name), str(pos), None if neg is None else str(neg))
            for name, pos, neg in outputs)
    rows = []
    for name, spec in outputs.items():
        pos, neg = (spec if isinstance(spec, (tuple, list))
                    else (spec, None))
        rows.append((str(name), str(pos),
                     None if neg is None else str(neg)))
    return tuple(sorted(rows))


def output_map(triples) -> dict:
    """Invert :func:`output_triples` into the engine-facing dict."""
    return {name: (pos if neg is None else (pos, neg))
            for name, pos, neg in triples}


def encode_measures(measures) -> list:
    """Serialize registered measures; keep custom ones live (the
    payload then works in-process / via pickle but refuses JSON)."""
    out = []
    for m in measures:
        if isinstance(m, dict):
            out.append(m)
            continue
        try:
            out.append(to_jsonable(m))
        except TypeError:
            out.append(m)
    return out


def decode_measures(measures) -> list:
    """Decode :func:`encode_measures` output back into live measures
    (live objects pass through)."""
    return [from_jsonable(m) if isinstance(m, dict) else m
            for m in measures]


def measure_tokens(measures) -> list:
    """Hashable stand-ins for a measure list: serialized records pass
    through, live (unregistered) measures hash by type + repr."""
    out = []
    for m in measures:
        if isinstance(m, dict):
            out.append(m)
            continue
        try:
            out.append(to_jsonable(m))
        except TypeError:
            out.append(["live", type(m).__name__, repr(m)])
    return out
