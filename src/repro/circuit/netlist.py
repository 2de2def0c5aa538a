"""The :class:`Circuit` container: a named collection of elements.

A circuit is pure description - compiling it into a numerical MNA system
happens in :mod:`repro.analysis.mna`.  Node names are free-form strings;
``"0"`` and ``"gnd"`` denote ground.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import fields as _dataclass_fields
from dataclasses import is_dataclass as _is_dataclass
from typing import Iterable, Iterator

import numpy as np

from ..errors import NetlistError
from .controlled import GateWindow, Vccs, Vcvs
from .elements import Element, MismatchDecl, NoiseDecl
from .mosfet import Mosfet
from .passives import Capacitor, Inductor, Resistor
from .sources import (CurrentSource, Dc, Pwl, Sine, SmoothPulse,
                      TimeFunction, VoltageSource)
from .technology import Technology

#: Node names treated as the ground/reference node.
GROUND_NAMES = frozenset({"0", "gnd"})

#: Dataclass field names that hold node references on the bundled
#: elements.  Fingerprinting replaces their values with canonical node
#: ids so that renaming nodes does not change the hash.
_NODE_FIELDS = frozenset({"pos", "neg", "ctrl_pos", "ctrl_neg",
                          "d", "g", "s", "b"})

#: Canonical token for the ground node inside fingerprints.
_GROUND_TOKEN = "=gnd="


def _encode(obj, put) -> None:
    """Append the type-tagged canonical encoding of *obj* to a byte
    stream through *put* (a ``list.append``).

    Supports the value types that appear in circuit descriptions and
    analysis options: scalars, strings, bytes, numpy arrays, lists,
    tuples, dicts (order-independent) and nested dataclasses.  The
    encoding is injective per type (length-prefixed strings, tagged
    scalars) so structurally different objects never collide by
    concatenation.

    Exact-type dispatch covers the types a content key is mostly made
    of; any other value (subclasses, numpy scalars and arrays, bytes,
    dataclasses) takes :func:`_encode_other`'s ``isinstance`` chain,
    which yields the same bytes the exact branches would.
    """
    t = type(obj)
    if t is str:
        raw = obj.encode()
        put(b"S%d:%b;" % (len(raw), raw))
    elif t is float:
        put(b"F%a;" % obj)   # %a of a float is its repr
    elif t is dict:
        put(b"D%d:" % len(obj))
        for key in sorted(obj):
            if type(key) is str:   # the usual key, encoded in place
                raw = key.encode()
                put(b"S%d:%b;" % (len(raw), raw))
            else:
                _encode(key, put)
            _encode(obj[key], put)
        put(b";")
    elif t is list or t is tuple:
        put(b"L%d:" % len(obj))
        for item in obj:
            _encode(item, put)
        put(b";")
    elif obj is None:
        put(b"N;")
    elif t is bool:
        put(b"T;" if obj else b"f;")
    elif t is int:
        put(b"I%d;" % obj)
    else:
        _encode_other(obj, put)


def _encode_other(obj, put) -> None:
    # the v1 isinstance chain, minus bool (it has no subclasses)
    if isinstance(obj, (int, np.integer)):
        put(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        put(b"F%a;" % float(obj))
    elif isinstance(obj, str):
        raw = obj.encode()
        put(b"S%d:%b;" % (len(raw), raw))
    elif isinstance(obj, bytes):
        put(b"Y%d:%b;" % (len(obj), obj))
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        put(("A%s%r:" % (arr.dtype.str, arr.shape)).encode())
        put(arr.tobytes())
        put(b";")
    elif isinstance(obj, (list, tuple)):
        _encode(list(obj), put)   # a subclass encodes as its items
    elif isinstance(obj, dict):
        _encode(dict(obj), put)
    elif _is_dataclass(obj) and not isinstance(obj, type):
        header, names = _dataclass_layout(type(obj))
        put(header)
        for name, encoded_name in names:
            put(encoded_name)
            _encode(getattr(obj, name), put)
        put(b";")
    else:
        raise TypeError(
            f"cannot fingerprint a value of type {type(obj).__name__}")


@functools.lru_cache(maxsize=256)
def _dataclass_layout(cls) -> tuple[bytes, tuple]:
    """The constant part of a dataclass's encoding: its ``C<name>:``
    header and, per field in declaration order, the field name and
    that name's encoding."""
    names = []
    for f in _dataclass_fields(cls):
        raw = f.name.encode()
        names.append((f.name, b"S%d:%b;" % (len(raw), raw)))
    return ("C%s:" % cls.__name__).encode(), tuple(names)


def content_digest(*parts) -> str:
    """SHA-256 hex digest of *parts* under the canonical encoding.

    This is the hashing primitive behind :meth:`Circuit.fingerprint`,
    ``CompiledCircuit.cache_key`` and the :class:`repro.service`
    content-addressed caches.  The parts are encoded in one pass into
    one byte string, hashed by one ``sha256`` call; the digests are
    those of feeding each token to the hash in turn (the v1 encoding).
    """
    out: list[bytes] = []
    put = out.append
    for part in parts:
        _encode(part, put)
    return hashlib.sha256(b"".join(out)).hexdigest()


class Circuit:
    """A netlist: elements, nodes and optional initial conditions.

    Parameters
    ----------
    name:
        Label used in diagnostics.

    Examples
    --------
    >>> ckt = Circuit("divider")
    >>> ckt.add_vsource("VIN", "in", "0", dc=1.0)
    >>> ckt.add_resistor("R1", "in", "out", 1e3)
    >>> ckt.add_resistor("R2", "out", "0", 1e3)
    """

    def __init__(self, name: str = "circuit"):
        self.name = name
        self._elements: dict[str, Element] = {}
        #: Initial node voltages for ``transient(..., use_ic=True)`` [V].
        self.ic: dict[str, float] = {}

    # ------------------------------------------------------------------
    # element management
    # ------------------------------------------------------------------
    def add(self, element: Element) -> Element:
        """Add *element*; names must be unique within the circuit."""
        if not element.name:
            raise NetlistError("elements must be named")
        if element.name in self._elements:
            raise NetlistError(
                f"duplicate element name '{element.name}' in '{self.name}'")
        for node in element.nodes():
            if not isinstance(node, str) or not node:
                raise NetlistError(
                    f"element '{element.name}' has an invalid node {node!r}")
        self._elements[element.name] = element
        return element

    def __getitem__(self, name: str) -> Element:
        try:
            return self._elements[name]
        except KeyError:
            raise NetlistError(
                f"no element named '{name}' in '{self.name}'") from None

    def __contains__(self, name: str) -> bool:
        return name in self._elements

    def __iter__(self) -> Iterator[Element]:
        return iter(self._elements.values())

    def __len__(self) -> int:
        return len(self._elements)

    @property
    def elements(self) -> list[Element]:
        return list(self._elements.values())

    def nodes(self) -> list[str]:
        """All non-ground node names, in first-use order."""
        seen: dict[str, None] = {}
        for el in self._elements.values():
            for node in el.nodes():
                if node not in GROUND_NAMES:
                    seen.setdefault(node)
        return list(seen)

    def fingerprint(self) -> str:
        """Stable content hash of the netlist (SHA-256 hex digest).

        The hash covers topology, element parameter values and the
        mismatch/tolerance declarations implied by them, and the stored
        initial conditions.  It is *invariant* to

        * element insertion order (elements are hashed in name order),
        * renaming non-ground nodes (node names are replaced by
          canonical first-use indices over the name-sorted elements),
        * the circuit's display :attr:`name` (diagnostics only).

        Any change to element names, connectivity or parameter values
        produces a different digest.  This is the domain-layer identity
        used by ``CompiledCircuit.cache_key`` and the content-addressed
        caches in :class:`repro.service.AnalysisSession`.
        """
        elements = sorted(self._elements.values(), key=lambda el: el.name)
        canon: dict[str, str] = {}

        def node_id(node: str) -> str:
            if node in GROUND_NAMES:
                return _GROUND_TOKEN
            tag = canon.get(node)
            if tag is None:
                tag = canon[node] = f"#{len(canon)}"
            return tag

        records = []
        for el in elements:
            fields_rec: dict[str, object] = {}
            for name, _ in _dataclass_layout(type(el))[1]:
                value = getattr(el, name)
                if name in _NODE_FIELDS and isinstance(value, str):
                    value = node_id(value)
                fields_rec[name] = value
            records.append((type(el).__name__, fields_rec))
        # Initial conditions on nodes no element references cannot affect
        # a simulation; keep them under their raw names for determinism.
        ic_rec = sorted(
            (node_id(node) if (node in canon or node in GROUND_NAMES)
             else "?" + node, float(v))
            for node, v in self.ic.items())
        return content_digest("circuit-fingerprint-v1", records, ic_rec)

    def validate(self) -> None:
        """Check structural sanity; raises :class:`NetlistError`.

        Every element must reference ground somewhere in the circuit and
        each node should connect at least two element terminals (a single
        connection means a dangling branch that makes the MNA matrix
        singular, except for intentionally open control terminals).
        """
        if not self._elements:
            raise NetlistError(f"circuit '{self.name}' is empty")
        touches_ground = any(
            node in GROUND_NAMES
            for el in self._elements.values() for node in el.nodes())
        if not touches_ground:
            raise NetlistError(
                f"circuit '{self.name}' never references ground ('0')")

    # ------------------------------------------------------------------
    # aggregated declarations
    # ------------------------------------------------------------------
    def mismatch_decls(self) -> list[MismatchDecl]:
        """Every mismatch parameter declared by any element."""
        out: list[MismatchDecl] = []
        for el in self._elements.values():
            out.extend(el.mismatch_decls())
        return out

    def noise_decls(self) -> list[NoiseDecl]:
        """Every physical noise source declared by any element."""
        out: list[NoiseDecl] = []
        for el in self._elements.values():
            out.extend(el.noise_decls())
        return out

    # ------------------------------------------------------------------
    # convenience constructors
    # ------------------------------------------------------------------
    def add_resistor(self, name: str, pos: str, neg: str, r: float,
                     sigma_rel: float = 0.0, noisy: bool = True) -> Resistor:
        return self.add(Resistor(name=name, pos=pos, neg=neg, r=r,
                                 sigma_rel=sigma_rel, noisy=noisy))

    def add_capacitor(self, name: str, pos: str, neg: str, c: float,
                      sigma_rel: float = 0.0) -> Capacitor:
        return self.add(Capacitor(name=name, pos=pos, neg=neg, c=c,
                                  sigma_rel=sigma_rel))

    def add_inductor(self, name: str, pos: str, neg: str, l: float,
                     sigma_rel: float = 0.0) -> Inductor:
        return self.add(Inductor(name=name, pos=pos, neg=neg, l=l,
                                 sigma_rel=sigma_rel))

    def add_vsource(self, name: str, pos: str, neg: str,
                    dc: float | None = None,
                    wave: TimeFunction | None = None) -> VoltageSource:
        if (dc is None) == (wave is None):
            raise NetlistError(f"vsource {name}: give exactly one of dc/wave")
        if wave is None:
            wave = Dc(dc)
        return self.add(VoltageSource(name=name, pos=pos, neg=neg, wave=wave))

    def add_isource(self, name: str, pos: str, neg: str,
                    dc: float | None = None,
                    wave: TimeFunction | None = None) -> CurrentSource:
        if (dc is None) == (wave is None):
            raise NetlistError(f"isource {name}: give exactly one of dc/wave")
        if wave is None:
            wave = Dc(dc)
        return self.add(CurrentSource(name=name, pos=pos, neg=neg, wave=wave))

    def add_vccs(self, name: str, pos: str, neg: str, ctrl_pos: str,
                 ctrl_neg: str, gm: float, vlimit: float | None = None,
                 gate: GateWindow | None = None) -> Vccs:
        return self.add(Vccs(name=name, pos=pos, neg=neg, ctrl_pos=ctrl_pos,
                             ctrl_neg=ctrl_neg, gm=gm, vlimit=vlimit,
                             gate=gate))

    def add_vcvs(self, name: str, pos: str, neg: str, ctrl_pos: str,
                 ctrl_neg: str, gain: float) -> Vcvs:
        return self.add(Vcvs(name=name, pos=pos, neg=neg, ctrl_pos=ctrl_pos,
                             ctrl_neg=ctrl_neg, gain=gain))

    def add_mosfet(self, name: str, d: str, g: str, s: str, b: str,
                   w: float, l: float, tech: Technology,
                   polarity: str = "n", m: float = 1.0,
                   noisy: bool = True) -> Mosfet:
        return self.add(Mosfet.from_tech(name, d, g, s, b, w, l, tech,
                                         polarity=polarity, m=m, noisy=noisy))

    def set_ic(self, assignments: dict[str, float] | None = None,
               **nodes: float) -> None:
        """Set initial node voltages for ``use_ic`` transients."""
        if assignments:
            self.ic.update(assignments)
        self.ic.update(nodes)

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, {len(self._elements)} elements, "
                f"{len(self.nodes())} nodes)")


__all__ = [
    "Circuit", "GROUND_NAMES", "content_digest",
    "Resistor", "Capacitor", "Inductor",
    "VoltageSource", "CurrentSource",
    "Vccs", "Vcvs", "GateWindow",
    "Mosfet", "Technology",
    "Dc", "Sine", "SmoothPulse", "Pwl",
]


def merge(name: str, circuits: Iterable[Circuit]) -> Circuit:
    """Combine several circuits into one (names must not collide)."""
    out = Circuit(name)
    for ckt in circuits:
        for el in ckt:
            out.add(el)
        out.ic.update(ckt.ic)
    return out
