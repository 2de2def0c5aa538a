"""Compiled modified-nodal-analysis (MNA) system.

:func:`compile_circuit` turns a :class:`~repro.circuit.Circuit` into a
:class:`CompiledCircuit` that evaluates residuals and Jacobians for every
analysis.  Three design decisions shape this module:

**Unknowns and padding.**  The MNA unknown vector is
``x = [node voltages..., branch currents...]`` with ground eliminated.
Internally every gather/scatter runs against *padded* arrays with one extra
"ground slot" at index ``n``: reads from it give 0 V, writes to it are
discarded.  This removes all special-casing of grounded terminals from the
hot loops.

**Batching.**  Every evaluation accepts an optional leading batch axis on
``x``; device parameters may carry per-batch deltas.  A 1000-point
Monte-Carlo run therefore assembles and solves stacked ``(1000, n, n)``
systems with no Python-level per-sample loop, which keeps the paper's MC
baseline (Table II) honest.

**Linear/nonlinear split.**  All linear elements (R, C, L, sources,
controlled sources) are stamped once per parameter set into constant
conductance/capacitance templates; only MOSFETs and behavioral
transconductors are re-evaluated per Newton iteration.  All charges in the
bundled element set are linear (``q = C x``), so the reactive matrix is
constant throughout a run - transient steps and LPTV analyses exploit
this.

**Compile-time stamp plans.**  Every element family is lowered to flat
COO index/value arrays at construction (:mod:`repro.analysis.stamps`),
so template building and the per-iteration source/MOSFET/VCCS stamping
are vectorised gathers plus ``np.add.at`` scatters - no per-element
Python loops in any hot path.  Batched device stamps scatter through
cached 1-D positions into the flattened buffers (numpy's fast
``np.add.at`` path), in the same accumulation order.  On a
``wants_csr`` backend, batchless runs go further and assemble natively
on the circuit's sparsity pattern (:class:`CsrAssembler`), never
materialising a dense ``(n+1)^2`` buffer.  A batchless state's
device values land in an :class:`AssemblyScratch` that the Newton
loop owns for its run - never the compiled circuit or the state,
which session caches share across threads - and the fused EKV
kernel's constant factors come from the state
(:meth:`ParamState.mos_constants`), computed once.

**Sparse-native parameter states.**  :meth:`CompiledCircuit.make_state`
builds the linear G/C templates as value arrays over the circuit's
:class:`~repro.linalg.sparsity.CsrPlan` pattern - O(nnz) memory per
state instead of O(n^2), which is what bounds netlist size when the
paper's method builds one linearized system per mismatch parameter.
Dense-path consumers (batched Monte-Carlo stacks, AC/LPTV/PSS) densify
lazily and explicitly through :meth:`ParamState.to_dense`; the native
CSR path consumes the sparse form directly and a 10k-node ladder state
never touches an ``(n+1)^2`` array.

The compiled circuit also builds the paper's central objects: for every
:class:`~repro.circuit.MismatchDecl` an equivalent *pseudo-noise injection*
(the exact parameter derivative ``di/dp`` and ``dq/dp`` evaluated along an
orbit - Section III of the paper), and for every physical noise source its
(cyclostationary) modulation waveform.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..circuit.controlled import Vccs, Vcvs
from ..circuit.elements import (MismatchDecl, NoiseDecl, ParamKey,
                                PsdShape)
from ..circuit.mosfet import (EkvWork, MosConstants, MosEval, Mosfet,
                              ekv_ids, ekv_ids_fused)
from ..circuit.netlist import GROUND_NAMES, Circuit
from ..circuit.passives import Capacitor, Inductor, Resistor
from ..circuit.sources import CurrentSource, VoltageSource
from ..constants import BOLTZMANN, CMIN_DEFAULT, T_NOMINAL
from ..errors import NetlistError
from ..linalg import LinearSolverBackend, resolve_backend
from ..linalg.sparsity import CsrPlan
from .stamps import LinearStampPlan, NlVccsPlan, SourcePlan, SourceTable

Deltas = dict[ParamKey, "float | np.ndarray"]

#: Upper bound on the batch shapes whose scatter indices are cached
#: (:meth:`CompiledCircuit._bidx`, :meth:`CompiledCircuit._flat_idx`),
#: per cache: enough for steady Monte-Carlo
#: chunking (one full-size + one remainder shape) with slack for nested
#: sweeps, small enough that varying chunk shapes cannot grow memory
#: without bound.
_BIDX_CACHE_MAX = 8


# ---------------------------------------------------------------------------
# parameter state
# ---------------------------------------------------------------------------
@dataclass
class ParamState:
    """Effective parameter values for one run (nominal + deltas).

    The linear G/C templates are *sparse-native*: ``g_data``/``c_data``
    are value arrays over the circuit's fixed
    :class:`~repro.linalg.sparsity.CsrPlan` pattern (length
    ``nnz + 1`` - the extra trash slot absorbed ground stamps during
    construction and stays zero), with a leading batch axis when any
    linear-element delta is batched.  State construction therefore
    costs O(nnz) memory, which is what bounds netlist size when one
    linearized system per mismatch parameter is needed; nothing of
    shape ``(n+1)^2`` exists until a dense-path consumer explicitly
    calls the :meth:`to_dense` escape hatch.

    ``mos``, ``vccs`` hold per-group effective parameter arrays;
    :meth:`mos_constants` derives the fused EKV kernel's constant
    factors from them once.
    ``source_values`` maps source names to overriding values (scalar or
    per-batch array) - used for example by the comparator bisection lanes.
    Overrides are consumed into a cached static source vector on the
    first assembly, so treat ``source_values`` as frozen once the state
    has been used; to sweep a source value, build a new state per value
    (or one batched state, as :func:`~repro.analysis.dcop.dc_sweep`
    does).
    """

    batch_shape: tuple[int, ...]
    #: Linear conductance template values over :attr:`plan`
    #: (``(*tbatch, nnz + 1)``; ``tbatch`` is empty unless a linear
    #: delta is batched).
    g_data: np.ndarray
    #: Linear capacitance template values over :attr:`plan`.
    c_data: np.ndarray
    #: The circuit's fixed sparsity pattern the templates live on.
    plan: CsrPlan = field(repr=False, compare=False)
    #: Padded system width ``n + 1`` (for :meth:`to_dense`).
    n1: int = 0
    mos: dict[str, np.ndarray] = field(default_factory=dict)
    vccs_gm: np.ndarray = field(default_factory=lambda: np.zeros(0))
    source_values: dict[str, "float | np.ndarray"] = field(
        default_factory=dict)
    #: Cached static (DC) source vector - see
    #: :class:`~repro.analysis.stamps.SourcePlan`.
    src_static: "np.ndarray | None" = field(
        default=None, repr=False, compare=False)
    #: Cached combined source vector ``(t, vector)`` for the last
    #: evaluated time point.
    src_cache: "tuple[float, np.ndarray] | None" = field(
        default=None, repr=False, compare=False)
    #: The circuit's per-device slope factors ``n`` and length-scaled
    #: ``lambda_eff`` (inputs of :meth:`mos_constants`).
    mos_n: np.ndarray = field(default_factory=lambda: np.zeros(0),
                              repr=False, compare=False)
    mos_lam: np.ndarray = field(default_factory=lambda: np.zeros(0),
                                repr=False, compare=False)
    #: Lazily densified ``(g_lin, c_lin)`` pair (:meth:`to_dense`).
    _dense: "tuple[np.ndarray, np.ndarray] | None" = field(
        default=None, repr=False, compare=False)
    #: Lazily built fused-kernel constants (:meth:`mos_constants`).
    _consts: "MosConstants | None" = field(
        default=None, repr=False, compare=False)

    @property
    def batched(self) -> bool:
        return len(self.batch_shape) > 0

    def to_dense(self) -> tuple[np.ndarray, np.ndarray]:
        """Densify the linear templates - the explicit O(n^2) escape
        hatch for dense-path consumers.

        Returns the padded ``(g_lin, c_lin)`` pair of shape
        ``(*tbatch, n+1, n+1)`` (``tbatch`` non-empty only when a
        linear delta is batched).  Built lazily on first call and
        cached: the batched Monte-Carlo assembly densifies once per
        chunk, AC/LPTV/PSS once per analysis, and sparse-backend runs
        never call it at all.
        """
        if self._dense is None:
            plan, n1 = self.plan, self.n1
            tbatch = self.g_data.shape[:-1]
            g = np.zeros(tbatch + (n1, n1))
            c = np.zeros(tbatch + (n1, n1))
            g[..., plan.rows, plan.cols] = self.g_data[..., :plan.nnz]
            c[..., plan.rows, plan.cols] = self.c_data[..., :plan.nnz]
            self._dense = (g, c)
        return self._dense

    def mos_constants(self) -> MosConstants:
        """The per-device constant factors of
        :func:`~repro.circuit.mosfet.ekv_ids_fused` for this
        (batchless) state - read-only, built lazily on first call and
        cached like :meth:`to_dense`, so a Newton loop stops
        recomputing them on every device evaluation."""
        if self._consts is None:
            self._consts = MosConstants.of(self.mos["beta"], self.mos_n,
                                           self.mos_lam)
        return self._consts

    def clear_caches(self) -> "ParamState":
        """Drop the derived per-state caches (densified templates and
        source vectors); the sparse templates themselves survive.
        Returns ``self``."""
        self._dense = None
        self._consts = None
        self.src_static = None
        self.src_cache = None
        return self

    def theta_fingerprint(self) -> str:
        """Content hash of the effective parameter values ("theta").

        Identifies *which* parameter sample a state holds - attached to
        solver failures (:class:`~repro.errors.SolverError`) so a
        failure harvested from a worker process still names the exact
        sample set that diverged.  Derived arrays and caches are
        excluded: two states with equal parameters hash equally.
        """
        import hashlib
        h = hashlib.sha256()
        h.update(repr(self.batch_shape).encode())
        h.update(np.ascontiguousarray(self.g_data, dtype=float))
        h.update(np.ascontiguousarray(self.c_data, dtype=float))
        for name in sorted(self.mos):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.mos[name], dtype=float))
        h.update(np.ascontiguousarray(self.vccs_gm, dtype=float))
        for name in sorted(self.source_values):
            h.update(name.encode())
            h.update(np.ascontiguousarray(
                np.asarray(self.source_values[name], dtype=float)))
        return h.hexdigest()[:16]


def _lru(cache: dict, key, build):
    """``cache[key]``, built by ``build()`` on a miss and refreshed to
    most recent on a hit; the oldest entry is evicted beyond
    :data:`_BIDX_CACHE_MAX` (dicts preserve insertion order)."""
    value = cache.pop(key, None)
    if value is None:
        value = build()
        if len(cache) >= _BIDX_CACHE_MAX:
            cache.pop(next(iter(cache)))
    cache[key] = value
    return value


def _delta_for(deltas: Deltas | None, key: ParamKey):
    if not deltas:
        return 0.0
    return deltas.get(key, 0.0)


def _broadcast_dev(nominal: np.ndarray, delta_list: list,
                   batch: tuple[int, ...]) -> np.ndarray:
    """Combine per-device nominals with (possibly batched) deltas.

    Returns shape ``(ndev,)`` when nothing is batched, else
    ``(*batch, ndev)``.
    """
    if not any(np.ndim(d) > 0 for d in delta_list) and not batch:
        return nominal + np.asarray(delta_list, dtype=float)
    out = np.broadcast_to(nominal, batch + nominal.shape).copy()
    for i, d in enumerate(delta_list):
        out[..., i] = nominal[i] + np.asarray(d, dtype=float)
    return out


# ---------------------------------------------------------------------------
# injections (the paper's pseudo-noise sources / noise modulations)
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Injection:
    """Equivalent pseudo-noise injection of one mismatch parameter.

    For a parameter deviation ``delta p`` the circuit equations change by
    ``d/dt (dq_dp * delta p) + di_dp * delta p``; these arrays are the
    derivatives evaluated along the orbit the injection was built for.

    Attributes
    ----------
    decl:
        The mismatch declaration this injection realises.
    di_dp:
        Resistive injection, shape ``(N, n)`` (orbit samples x unknowns).
    dq_dp:
        Reactive injection, same shape, or ``None`` when absent.
    """

    decl: MismatchDecl
    di_dp: np.ndarray
    dq_dp: np.ndarray | None = None

    @property
    def key(self) -> ParamKey:
        return self.decl.key

    @property
    def sigma(self) -> float:
        return self.decl.sigma


@dataclass(frozen=True)
class NoiseInjection:
    """One physical noise source along an orbit.

    The output PSD contribution of this source through a transfer vector
    ``H`` is ``|H . b|^2 * psd0 * shape(f)`` where ``shape(f)`` is 1 for
    white sources and ``1/f`` for flicker sources.  ``b`` already contains
    the cyclostationary modulation (e.g. ``sqrt(gm(t))`` for MOS thermal
    noise).
    """

    decl: NoiseDecl
    b: np.ndarray
    psd0: float

    @property
    def shape(self) -> PsdShape:
        return self.decl.shape

    def psd(self, f: float) -> float:
        if self.decl.shape is PsdShape.FLICKER:
            return self.psd0 / f
        return self.psd0


# ---------------------------------------------------------------------------
# compiled circuit
# ---------------------------------------------------------------------------
class CompiledCircuit:
    """Numerical twin of a :class:`Circuit`.  Build via
    :func:`compile_circuit`."""

    def __init__(self, circuit: Circuit, cmin: float = CMIN_DEFAULT,
                 backend: "str | LinearSolverBackend | None" = None):
        circuit.validate()
        self.circuit = circuit
        self.cmin = cmin

        self.node_names: list[str] = circuit.nodes()
        self.node_index: dict[str, int] = {
            name: i for i, name in enumerate(self.node_names)}
        self.n_nodes = len(self.node_names)

        # branch unknowns, in element order
        self.branch_index: dict[str, int] = {}
        nxt = self.n_nodes
        for el in circuit:
            if el.n_branch:
                self.branch_index[el.name] = nxt
                nxt += el.n_branch
        self.n = nxt                     #: system size
        self._ground = self.n            # padded ground slot

        # element partitions
        self.resistors = [e for e in circuit if isinstance(e, Resistor)]
        self.capacitors = [e for e in circuit if isinstance(e, Capacitor)]
        self.inductors = [e for e in circuit if isinstance(e, Inductor)]
        self.vsources = [e for e in circuit if isinstance(e, VoltageSource)]
        self.isources = [e for e in circuit if isinstance(e, CurrentSource)]
        self.vcvs = [e for e in circuit if isinstance(e, Vcvs)]
        all_vccs = [e for e in circuit if isinstance(e, Vccs)]
        self.linear_vccs = [e for e in all_vccs if e.is_linear]
        self.nl_vccs = [e for e in all_vccs if not e.is_linear]
        self.mosfets = [e for e in circuit if isinstance(e, Mosfet)]

        known = (set(map(id, self.resistors)) | set(map(id, self.capacitors))
                 | set(map(id, self.inductors)) | set(map(id, self.vsources))
                 | set(map(id, self.isources)) | set(map(id, self.vcvs))
                 | set(map(id, all_vccs)) | set(map(id, self.mosfets)))
        for el in circuit:
            if id(el) not in known:
                raise NetlistError(
                    f"element '{el.name}' of type {type(el).__name__} is not "
                    "supported by the MNA compiler")

        self._index_mosfets()

        # compile-time stamp plans (see :mod:`repro.analysis.stamps`):
        # every hot assembly loop below is a gather/scatter over these
        self._lin_plan = LinearStampPlan(self)
        self._src_plan = SourcePlan(self)
        self._nlv_plan = NlVccsPlan(self, self.nl_vccs)
        #: per-batch-shape flat scatter index columns (satellite of the
        #: stamp-plan work: rebuilt once per shape, not per assemble)
        self._bidx_cache: dict[tuple[int, ...], np.ndarray] = {}
        #: per-batch-shape 1-D scatter positions of the device stamps
        #: over a flattened batched buffer (:meth:`_flat_idx`)
        self._flat_cache: dict[tuple[int, ...],
                               dict[str, np.ndarray]] = {}
        self._csr_plan: "CsrPlan | None" = None
        self._mos_gpos: "np.ndarray | None" = None
        self._nlv_gpos: "np.ndarray | None" = None

        self._nominal_state: ParamState | None = None
        self._cache_key: str | None = None
        #: Linear-solver backend used by every analysis on this circuit
        #: (see :mod:`repro.linalg`); change it with :meth:`set_backend`.
        self.backend = resolve_backend(backend, self.n)

    def set_backend(self, backend: "str | LinearSolverBackend | None"
                    ) -> "CompiledCircuit":
        """Switch the linear-solver backend in place; returns ``self``."""
        self.backend = resolve_backend(backend, self.n)
        return self

    # ------------------------------------------------------------------
    # indexing helpers
    # ------------------------------------------------------------------
    def idx(self, node: str) -> int:
        """Padded index of *node* (ground maps to the discard slot)."""
        if node in GROUND_NAMES:
            return self._ground
        try:
            return self.node_index[node]
        except KeyError:
            raise NetlistError(f"unknown node '{node}'") from None

    def branch(self, element_name: str) -> int:
        return self.branch_index[element_name]

    def voltage(self, x: np.ndarray, node: str) -> np.ndarray:
        """Node voltage from an unknown vector (any batch shape)."""
        i = self.idx(node)
        if i == self._ground:
            return np.zeros(np.shape(x)[:-1])
        return np.asarray(x)[..., i]

    def _index_mosfets(self) -> None:
        m = self.mosfets
        self._mos_idx = np.array(
            [[self.idx(e.d), self.idx(e.g), self.idx(e.s), self.idx(e.b)]
             for e in m], dtype=int).reshape(len(m), 4)
        self._mos_sign = np.array([e.sign for e in m])
        self._mos_vt0 = np.array([e.params.vt0 for e in m])
        self._mos_beta = np.array([e.beta for e in m])
        self._mos_n = np.array([e.params.n for e in m])
        self._mos_lam = np.array([e.lam_eff for e in m])
        #: terminal gather of the fused kernel, rows (s, d, g, b, b, b)
        #: (:class:`~repro.circuit.mosfet.EkvWork`), and its polarity
        self._mos_tidx = np.ascontiguousarray(
            self._mos_idx[:, [2, 0, 1, 3, 3, 3]].T)
        self._mos_tsign = np.ascontiguousarray(
            np.broadcast_to(self._mos_sign, self._mos_tidx.shape))
        if m:
            # flattened (row, col) pairs for the 8 Jacobian stamps and the
            # 2 residual stamps of each device, padded system of width n+1
            d, g, s, b = (self._mos_idx[:, k] for k in range(4))
            rows = np.concatenate([d, d, d, d, s, s, s, s])
            cols = np.concatenate([d, g, s, b, d, g, s, b])
            self._mos_gflat = rows * (self.n + 1) + cols
            self._mos_frows = np.concatenate([d, s])

    def _bidx(self, batch: tuple[int, ...]) -> np.ndarray:
        """Flattened-batch scatter index column for ``np.add.at``.

        Cached per batch shape: Monte-Carlo chunks of a common size
        reuse one index array instead of rebuilding it per assemble.
        The cache is LRU-bounded (:data:`_BIDX_CACHE_MAX` shapes), so a
        long sweep over *varying* chunk shapes recycles slots instead
        of growing memory monotonically.
        """
        return _lru(self._bidx_cache, batch, lambda: np.arange(
            int(np.prod(batch))).reshape(batch)[..., None])

    def _flat_idx(self, batch: tuple[int, ...], kind: str) -> np.ndarray:
        """1-D positions of the *kind* device stamps (``"mos_f"``,
        ``"mos_g"``, ``"nlv_f"``, ``"nlv_g"``) in a flattened, C-ordered
        ``(*batch, m)`` buffer.

        ``np.add.at`` on a 1-D target with a 1-D index takes numpy's
        fast path, about 10x faster at 100 lanes than the broadcast
        ``(bidx, idx)`` tuple it replaces.  The positions run lane by
        lane in stamp order, so every slot accumulates the same values
        in the same order and the result is bit-identical.  Cached per
        batch shape, LRU-bounded like :meth:`_bidx`.
        """
        per_shape = _lru(self._flat_cache, batch, dict)
        flat = per_shape.get(kind)
        if flat is None:
            n1 = self.n + 1
            idx, width = {
                "mos_f": (self._mos_frows, n1),
                "mos_g": (self._mos_gflat, n1 * n1),
                "nlv_f": (self._nlv_plan.f_idx, n1),
                "nlv_g": (self._nlv_plan.g_idx, n1 * n1)}[kind]
            lanes = self._bidx(batch).reshape(-1, 1) * width
            flat = per_shape[kind] = (lanes + idx).ravel()
        return flat

    def _scatter(self, target: np.ndarray, idx: np.ndarray,
                 vals: np.ndarray, batch: tuple[int, ...],
                 kind: str) -> None:
        """``target[..., idx] += vals`` with duplicates accumulated in
        stamp order; a batched *target* must be C-contiguous and is
        scattered through its 1-D view (:meth:`_flat_idx`)."""
        if not batch:
            np.add.at(target, idx, vals)
            return
        if not target.flags.c_contiguous:
            raise ValueError("batched assembly buffers must be "
                             "C-contiguous")
        shape = batch + idx.shape
        if vals.shape != shape:
            vals = np.broadcast_to(vals, shape)
        np.add.at(target.reshape(-1), self._flat_idx(batch, kind),
                  vals.reshape(-1))

    # ------------------------------------------------------------------
    # content-addressed identity
    # ------------------------------------------------------------------
    @property
    def cache_key(self) -> str:
        """Stable content hash of this compile (SHA-256 hex digest).

        Combines :meth:`Circuit.fingerprint` with the compile options
        that change the numerical system (``cmin``) and a format-version
        tag covering the stamp-plan layout.  Two independently compiled
        circuits with equal netlist content produce equal keys, which is
        what lets :class:`repro.service.AnalysisSession` share one
        compile between requests.  The linear-solver backend is *not*
        part of the key (it is a mutable execution strategy, not
        content); session caches append the backend spec themselves.
        """
        if self._cache_key is None:
            from ..circuit.netlist import content_digest
            self._cache_key = content_digest(
                "compiled-circuit-v1", self.circuit.fingerprint(),
                float(self.cmin))
        return self._cache_key

    def state_key(self, deltas: "Deltas | None" = None,
                  source_values: "dict[str, float | np.ndarray] | None"
                  = None,
                  batch_shape: tuple[int, ...] | None = None) -> str:
        """Content hash of the :class:`ParamState` that
        :meth:`make_state` would build from the same arguments.

        Derived from :attr:`cache_key`, so it is stable across processes
        and compiles of equal circuits.  Delta dictionaries hash
        order-independently; array-valued deltas and source overrides
        hash by value.
        """
        from ..circuit.netlist import content_digest
        return content_digest(
            "param-state-v1", self.cache_key,
            {k: v for k, v in (deltas or {}).items()},
            dict(source_values or {}),
            tuple(int(s) for s in (batch_shape or ())))

    def clear_caches(self) -> "CompiledCircuit":
        """Drop every derived cache this circuit accumulated.

        Releases the per-batch-shape scatter-index cache, the cached
        nominal parameter state (with its densified templates and
        source vectors) and the VCCS gate-value cache.  The structural
        compile products (stamp plans, the CSR sparsity plan) are
        *not* caches - they are size-bounded per circuit and rebuilding
        them would only cost time - so they survive.  Returns ``self``.
        """
        self._bidx_cache.clear()
        self._flat_cache.clear()
        if self._nominal_state is not None:
            self._nominal_state.clear_caches()
        self._nominal_state = None
        self._nlv_plan.clear_cache()
        return self

    # ------------------------------------------------------------------
    # parameter state construction
    # ------------------------------------------------------------------
    def make_state(self, deltas: Deltas | None = None,
                   source_values: dict[str, "float | np.ndarray"]
                   | None = None,
                   batch_shape: tuple[int, ...] | None = None) -> ParamState:
        """Build the effective parameters for a run.

        Parameters
        ----------
        deltas:
            ``{(element, param): delta}``; values may be scalars or arrays
            of a common batch shape (one delta per Monte-Carlo sample).
        source_values:
            Overrides for source values by element name (scalar or batched).
        batch_shape:
            Forces the batch shape when no delta implies one.
        """
        deltas = deltas or {}
        source_values = dict(source_values or {})
        inferred: tuple[int, ...] = tuple(batch_shape or ())
        for v in list(deltas.values()) + list(source_values.values()):
            if np.ndim(v) > 0:
                shape = np.shape(v)
                if inferred not in ((), shape):
                    raise ValueError("inconsistent batch shapes in deltas")
                inferred = shape

        lin_batched = any(
            np.ndim(deltas.get((e.name, p), 0.0)) > 0
            for e, p in self._linear_param_iter())
        tshape = inferred if lin_batched else ()
        # sparse-native templates: O(nnz) value arrays on the circuit's
        # CSR pattern - no dense (n+1)^2 array is built here (dense
        # consumers go through ParamState.to_dense explicitly)
        g_data, c_data = self._lin_plan.build_data(
            deltas, tshape, self._bidx(tshape) if tshape else None,
            self.csr_plan)

        mos = {}
        if self.mosfets:
            mos["vt0"] = _broadcast_dev(
                self._mos_vt0,
                [_delta_for(deltas, (e.name, "vt0")) for e in self.mosfets],
                inferred)
            rel = _broadcast_dev(
                np.zeros(len(self.mosfets)),
                [_delta_for(deltas, (e.name, "beta_rel"))
                 for e in self.mosfets], inferred)
            mos["beta"] = self._mos_beta * (1.0 + rel)

        vccs_gm = np.array([e.gm for e in self.nl_vccs])
        return ParamState(batch_shape=inferred, g_data=g_data,
                          c_data=c_data, plan=self.csr_plan,
                          n1=self.n + 1, mos=mos, vccs_gm=vccs_gm,
                          source_values=source_values,
                          mos_n=self._mos_n, mos_lam=self._mos_lam)

    @property
    def has_nonlinear(self) -> bool:
        """True when the Jacobian ``G`` depends on the state ``x``
        (MOSFETs or behavioral transconductors present)."""
        return bool(self.mosfets or self.nl_vccs)

    @property
    def nominal(self) -> ParamState:
        """Cached parameter state with no deltas."""
        if self._nominal_state is None:
            self._nominal_state = self.make_state()
        return self._nominal_state

    def _linear_param_iter(self):
        for e in self.resistors:
            yield e, "r"
        for e in self.capacitors:
            yield e, "c"
        for e in self.inductors:
            yield e, "l"

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def capacitance(self, state: ParamState) -> np.ndarray:
        """Constant (padded) capacitance matrix ``dq/dx`` for this state.

        Dense escape hatch (:meth:`ParamState.to_dense`): used by the
        dense integrator paths and the AC/LPTV/PSS engines, which are
        O(n^2) by nature; sparse-backend transients use
        :attr:`CsrAssembler.c_lin_data` instead and never densify.
        """
        return state.to_dense()[1]

    def assemble(self, state: ParamState, x_pad: np.ndarray,
                 t: "float | np.ndarray",
                 g_pad: np.ndarray, f_pad: np.ndarray,
                 source_scale: float = 1.0, gmin: float = 0.0,
                 jacobian: bool = True,
                 sources: "np.ndarray | None" = None,
                 scratch: "AssemblyScratch | None" = None) -> None:
        """Evaluate ``f = i(x, t)`` and ``G = di/dx`` into padded buffers.

        ``x_pad`` has shape ``(*batch, n+1)`` with the last entry 0;
        ``g_pad``/``f_pad`` are overwritten.  *source_scale* multiplies all
        independent sources (source-stepping homotopy) and *gmin* adds a
        conductance from every node to ground (gmin-stepping).

        With ``jacobian=False`` only the residual ``f`` is evaluated
        and ``g_pad`` is left untouched - modified-Newton iterations on
        a cached factorization (:mod:`repro.linalg`) skip the device
        derivative evaluation and Jacobian scatter entirely, which is
        most of the assembly cost.

        *sources* is the padded source vector at *t* when the caller
        already has it - a :class:`~repro.analysis.stamps.SourceTable`
        row of a fixed-grid loop; by default it comes from the source
        plan.

        *t* may also be an array with one time per row of a batched
        *x_pad* - a block of orbit samples - when *sources* holds the
        matching rows (:meth:`~repro.analysis.stamps.SourceTable.
        rows`); gates are then evaluated per row.

        *scratch* holds the device-stamp buffers of a batchless state
        (:meth:`scratch`, sized for *x_pad*'s batch); a Newton loop
        passes the one it owns for the run, other callers get a fresh
        one.  Batched states ignore it.
        """
        batch = f_pad.shape[:-1]
        # dense-path consumers densify the sparse template once per
        # state (cached escape hatch); the CSR path never lands here
        g_lin = state.to_dense()[0]
        if jacobian:
            np.copyto(g_pad, g_lin)
            if gmin > 0.0:
                diag = np.einsum("...ii->...i", g_pad)
                diag[..., :self.n_nodes] += gmin
            np.matmul(g_pad, x_pad[..., None], out=f_pad[..., None])
        else:
            np.matmul(g_lin, x_pad[..., None], out=f_pad[..., None])
            if gmin > 0.0:
                f_pad[..., :self.n_nodes] += gmin * x_pad[..., :self.n_nodes]
        self._add_sources(state, t, f_pad, source_scale, sources)
        gflat = g_pad.reshape(batch + (-1,)) if jacobian else None
        if self.mosfets:
            self._add_mosfets(state, x_pad, f_pad, jacobian,
                              gflat, self._mos_gflat, batch, scratch)
        if self.nl_vccs:
            self._add_nl_vccs(state, x_pad, t, f_pad, jacobian,
                              gflat, self._nlv_plan.g_idx, batch)
        f_pad[..., self._ground] = 0.0

    def _add_sources(self, state: ParamState, t: float, f_pad: np.ndarray,
                     source_scale: float = 1.0,
                     vec: "np.ndarray | None" = None) -> None:
        """Add the (cached) combined source vector - no per-element loop;
        see :class:`~repro.analysis.stamps.SourcePlan`.  A given *vec*
        (a source-table row) is used as is."""
        if self._src_plan.empty:
            return
        if vec is None:
            vec = self._src_plan.combined(state, t)
        if source_scale == 1.0:
            f_pad += vec
        else:
            f_pad += source_scale * vec

    def source_table(self, state: ParamState, t_grid: np.ndarray
                     ) -> SourceTable:
        """Source vectors of *state* tabulated over a fixed time grid
        (:class:`~repro.analysis.stamps.SourceTable`); pass its rows to
        :meth:`assemble` as *sources*."""
        return SourceTable(self._src_plan, state, t_grid)

    def scratch(self, batch_shape: tuple[int, ...] = ()
                ) -> "AssemblyScratch":
        """Fresh device-stamp buffers for batchless assembly at
        *batch_shape* (:class:`AssemblyScratch`)."""
        return AssemblyScratch(len(self.mosfets), batch_shape)

    def _mos_fused(self, state: ParamState, x_pad: np.ndarray,
                   w: EkvWork, derivatives: bool) -> np.ndarray:
        """Fused EKV evaluation of a batchless state over all devices,
        into *w*: returns ``ids``; with *derivatives* the terminal
        derivatives land in ``w.g``.  One gather of all four
        terminals, whatever the batch of *x_pad* (a block of orbit
        samples is one call)."""
        np.multiply(x_pad.take(self._mos_tidx, axis=-1), self._mos_tsign,
                    out=w.v)
        return ekv_ids_fused(w, state.mos["vt0"], state.mos_constants(),
                             derivatives)

    def _mos_eval(self, state: ParamState, x_pad: np.ndarray,
                  derivatives: bool = True) -> MosEval:
        """Vectorised EKV evaluation over all devices (and batch).

        Batched states keep the reference :func:`~repro.circuit.mosfet.
        ekv_ids` (Monte-Carlo samples are bit-pinned to it); batchless
        states take the fused kernel, within 1e-14 of it, into fresh
        buffers; the results are copied out, so the buffers go as soon
        as the call returns (a whole orbit is one call here).
        """
        if state.batched:
            # one gather of all four terminals: (..., 4, ndev)
            v = self._mos_sign * x_pad[..., self._mos_idx.T]
            return ekv_ids(v[..., 0, :], v[..., 1, :], v[..., 2, :],
                           v[..., 3, :], state.mos["vt0"],
                           state.mos["beta"], self._mos_n, self._mos_lam,
                           derivatives=derivatives)
        w = EkvWork(x_pad.shape[:-1] + (len(self.mosfets),))
        ids = self._mos_fused(state, x_pad, w, derivatives).copy()
        if not derivatives:
            return MosEval(ids=ids, g_d=None, g_g=None, g_s=None, g_b=None)
        g = w.g.copy()
        return MosEval(ids=ids, g_d=g[..., 0, :], g_g=g[..., 1, :],
                       g_s=g[..., 2, :], g_b=g[..., 3, :])

    def _add_mosfets(self, state: ParamState, x_pad: np.ndarray,
                     f_pad: np.ndarray, jacobian: bool,
                     gflat: "np.ndarray | None", gidx: np.ndarray,
                     batch: tuple[int, ...],
                     scratch: "AssemblyScratch | None" = None) -> None:
        """Scatter all MOSFET stamps at once.

        *gflat* is the flat Jacobian target: the reshaped dense padded
        buffer (with *gidx* the precomputed flat positions) or a CSR
        data array (with *gidx* the plan-mapped slots).  A batchless
        state evaluates into *scratch* (fresh buffers when ``None``)
        and writes the ``+-ids`` and ``+-g`` stamp values straight into
        it; batched states build them from the reference kernel.
        """
        if state.batched:
            ev = self._mos_eval(state, x_pad, derivatives=jacobian)
            ids_phys = self._mos_sign * ev.ids
            # every model output has the full (*batch, ndev) shape
            fvals = np.concatenate((ids_phys, -ids_phys), axis=-1)
            self._scatter(f_pad, self._mos_frows, fvals, batch, "mos_f")
            if jacobian:
                g4 = np.concatenate((ev.g_d, ev.g_g, ev.g_s, ev.g_b),
                                    axis=-1)
                gvals = np.concatenate((g4, -g4), axis=-1)
                self._scatter(gflat, gidx, gvals, batch, "mos_g")
            return

        scr = scratch if scratch is not None else self.scratch(batch)
        ids = self._mos_fused(state, x_pad, scr.ekv, jacobian)
        np.multiply(ids, self._mos_sign, out=scr.f_pos)
        np.negative(scr.f_pos, out=scr.f_neg)
        self._scatter(f_pad, self._mos_frows, scr.f_flat, batch, "mos_f")
        if not jacobian:
            return
        np.negative(scr.g_pos, out=scr.g_neg)
        self._scatter(gflat, gidx, scr.g_flat, batch, "mos_g")

    def _add_nl_vccs(self, state: ParamState, x_pad: np.ndarray, t: float,
                     f_pad: np.ndarray, jacobian: bool,
                     gflat: "np.ndarray | None", gidx: np.ndarray,
                     batch: tuple[int, ...]) -> None:
        """Scatter all behavioral-VCCS stamps at once (see
        :class:`~repro.analysis.stamps.NlVccsPlan` for the vectorised
        gate/limiter evaluation); *gflat*/*gidx* as in
        :meth:`_add_mosfets`."""
        plan = self._nlv_plan
        vc = x_pad[..., plan.cp] - x_pad[..., plan.cn]
        phi, dphi = plan.phi(vc)
        gg = plan.gate_values(t) * state.vccs_gm
        cur = gg * phi
        fvals = np.concatenate(np.broadcast_arrays(cur, -cur), axis=-1)
        self._scatter(f_pad, plan.f_idx, fvals, batch, "nlv_f")
        if not jacobian:
            return
        gd = gg * dphi
        gvals = np.concatenate(
            np.broadcast_arrays(gd, -gd, -gd, gd), axis=-1)
        self._scatter(gflat, gidx, gvals, batch, "nlv_g")

    # ------------------------------------------------------------------
    # operating-point quantities and injections
    # ------------------------------------------------------------------
    def mosfet_op(self, state: ParamState, x_pad: np.ndarray
                  ) -> dict[str, np.ndarray]:
        """Per-device operating-point arrays along an orbit.

        ``x_pad`` may be ``(N, n+1)`` (orbit) or ``(n+1,)``; returns
        ``ids`` (signed physical drain current) and ``gm`` with matching
        leading shape x device axis.
        """
        if not self.mosfets:
            return {"ids": np.zeros(0), "gm": np.zeros(0)}
        ev = self._mos_eval(state, x_pad)
        return {"ids": self._mos_sign * ev.ids, "gm": ev.gm,
                "ids_frame": ev.ids}

    def mismatch_injections(self, state: ParamState, x_orbit: np.ndarray,
                            decls: Sequence[MismatchDecl] | None = None
                            ) -> list[Injection]:
        """Build the pseudo-noise injection of every mismatch parameter.

        Parameters
        ----------
        x_orbit:
            Unpadded orbit samples, shape ``(N, n)`` (one row also works
            for DC analyses: pass shape ``(1, n)``).
        decls:
            Restrict to these declarations (default: all in the circuit).

        Returns
        -------
        list of :class:`Injection` in declaration order.
        """
        x_orbit = np.atleast_2d(np.asarray(x_orbit, dtype=float))
        n_t = x_orbit.shape[0]
        x_pad = np.concatenate(
            [x_orbit, np.zeros((n_t, 1))], axis=-1)
        if decls is None:
            decls = self.circuit.mismatch_decls()

        mos_by_name = {e.name: i for i, e in enumerate(self.mosfets)}
        mos_op = self.mosfet_op(state, x_pad) if self.mosfets else None

        out: list[Injection] = []
        for decl in decls:
            ename, pname = decl.key
            el = self.circuit[ename]
            di = np.zeros((n_t, self.n))
            dq = None
            if isinstance(el, Mosfet):
                k = mos_by_name[ename]
                d, s = self.idx(el.d), self.idx(el.s)
                if pname == "vt0":
                    coeff = -el.sign * mos_op["gm"][:, k]
                elif pname == "beta_rel":
                    coeff = mos_op["ids"][:, k]
                else:
                    raise NetlistError(
                        f"unknown mosfet mismatch param '{pname}'")
                self._accum(di, d, coeff)
                self._accum(di, s, -coeff)
            elif isinstance(el, Resistor) and pname == "r":
                p, q = self.idx(el.pos), self.idx(el.neg)
                v_pn = self._v_of(x_pad, p) - self._v_of(x_pad, q)
                coeff = -v_pn / (el.r * el.r)
                self._accum(di, p, coeff)
                self._accum(di, q, -coeff)
            elif isinstance(el, Capacitor) and pname == "c":
                p, q = self.idx(el.pos), self.idx(el.neg)
                v_pn = self._v_of(x_pad, p) - self._v_of(x_pad, q)
                dq = np.zeros((n_t, self.n))
                self._accum(dq, p, v_pn)
                self._accum(dq, q, -v_pn)
            elif isinstance(el, Inductor) and pname == "l":
                br = self.branch(ename)
                dq = np.zeros((n_t, self.n))
                dq[:, br] = x_orbit[:, br]
            else:
                raise NetlistError(
                    f"no pseudo-noise mapping for {decl.key}")
            out.append(Injection(decl=decl, di_dp=di, dq_dp=dq))
        return out

    def noise_injections(self, state: ParamState, x_orbit: np.ndarray
                         ) -> list[NoiseInjection]:
        """Physical (thermal/flicker) noise injections along an orbit."""
        x_orbit = np.atleast_2d(np.asarray(x_orbit, dtype=float))
        n_t = x_orbit.shape[0]
        x_pad = np.concatenate([x_orbit, np.zeros((n_t, 1))], axis=-1)
        mos_by_name = {e.name: i for i, e in enumerate(self.mosfets)}
        mos_op = self.mosfet_op(state, x_pad) if self.mosfets else None

        out: list[NoiseInjection] = []
        for decl in self.circuit.noise_decls():
            ename, sname = decl.key
            el = self.circuit[ename]
            b = np.zeros((n_t, self.n))
            if isinstance(el, Resistor) and sname == "thermal":
                p, q = self.idx(el.pos), self.idx(el.neg)
                self._accum(b, p, np.ones(n_t))
                self._accum(b, q, -np.ones(n_t))
                psd0 = 4.0 * BOLTZMANN * T_NOMINAL / el.r
            elif isinstance(el, Mosfet):
                k = mos_by_name[ename]
                gm = np.maximum(mos_op["gm"][:, k], 0.0)
                d, s = self.idx(el.d), self.idx(el.s)
                if sname == "thermal":
                    mod = np.sqrt(gm)
                    psd0 = el.thermal_psd_coeff
                elif sname == "flicker":
                    mod = gm
                    psd0 = el.flicker_coeff
                else:
                    raise NetlistError(f"unknown noise source {decl.key}")
                self._accum(b, d, mod)
                self._accum(b, s, -mod)
            else:
                raise NetlistError(f"unknown noise source {decl.key}")
            out.append(NoiseInjection(decl=decl, b=b, psd0=psd0))
        return out

    def _v_of(self, x_pad: np.ndarray, idx: int) -> np.ndarray:
        return x_pad[..., idx]

    def _accum(self, arr: np.ndarray, idx: int, vals: np.ndarray) -> None:
        if idx != self._ground:
            arr[:, idx] += vals

    def theta_rows(self, state: ParamState, method: str) -> np.ndarray:
        """Per-equation implicitness ``theta`` for the one-step scheme.

        Trapezoidal averaging of equations that carry no real dynamics
        creates parasitic alternating error modes (one-period multiplier
        ``(-1)^N``), which make the shooting matrix ``M - I`` exactly
        singular for even step counts and pollute branch currents with
        +/- zigzag.  Those equations are therefore *collocated*
        (``theta = 1``, i.e. enforced at the step endpoint):

        * rows with no physical charge term (voltage-source/VCVS
          constraint rows and KCL of purely resistive nodes) - these are
          instantaneous constraints, so collocation is exact, and
        * KCL rows that contain an *algebraic branch current* (the
          current through a voltage source or VCVS has no defining
          charge equation of its own; collocating the KCL that computes
          it removes its zigzag mode without touching any differential
          variable).

        The artificial ``cmin`` node capacitors are excluded from the
        "physical charge" test - they exist for DAE-index safety, not as
        dynamics worth trapezoidal treatment.
        """
        n = self.n
        if method == "be":
            return np.ones(n)
        # sparse-native: the row/column occupancy tests run over the
        # O(nnz) template values on the pattern - no densified matrix
        plan = state.plan
        nnz = plan.nnz
        c_data = state.c_data
        if c_data.ndim > 1:
            c_data = c_data[(0,) * (c_data.ndim - 1)]
        c_vals = c_data[:nnz]
        if self.cmin > 0.0:
            c_vals = c_vals.copy()
            c_vals[plan.diag_pos[:self.n_nodes]] -= self.cmin
        c_nz = np.abs(c_vals) > 1e-30
        differential_row = np.zeros(n, dtype=bool)
        differential_row[plan.rows[c_nz]] = True
        charge_col = np.zeros(n, dtype=bool)
        charge_col[plan.cols[c_nz]] = True
        branch_cols = np.arange(self.n_nodes, n)
        bad_branch = branch_cols[~charge_col[branch_cols]]
        g_data = state.g_data
        if g_data.ndim > 1:
            g_data = g_data[(0,) * (g_data.ndim - 1)]
        touches_bad = np.zeros(n, dtype=bool)
        if bad_branch.size:
            is_bad_col = np.zeros(n, dtype=bool)
            is_bad_col[bad_branch] = True
            g_nz = (np.abs(g_data[:nnz]) > 0.0) & is_bad_col[plan.cols]
            touches_bad[plan.rows[g_nz]] = True
        collocate = (~differential_row) | touches_bad
        return np.where(collocate, 1.0, 0.5)

    # ------------------------------------------------------------------
    # native CSR assembly
    # ------------------------------------------------------------------
    @property
    def csr_plan(self) -> CsrPlan:
        """Fixed sparsity pattern of this circuit's MNA system.

        Built lazily on first use - every :meth:`make_state` needs it
        (sparse-native templates live on this pattern) - from the
        union of every stamp-plan COO entry - linear G and C stamps,
        MOSFET Jacobian stamps, behavioral-VCCS Jacobian stamps - plus
        the full main diagonal (gmin stepping, pivot safety).
        """
        if self._csr_plan is None:
            g_idx, c_idx = self._lin_plan.coo_indices()
            entries = [g_idx, c_idx]
            if self.mosfets:
                entries.append(self._mos_gflat)
            if self.nl_vccs:
                entries.append(self._nlv_plan.g_idx)
            plan = CsrPlan(self.n, self.n + 1, np.concatenate(entries))
            self._csr_plan = plan
            if self.mosfets:
                self._mos_gpos = plan.pos_of(self._mos_gflat)
            if self.nl_vccs:
                self._nlv_gpos = plan.pos_of(self._nlv_plan.g_idx)
        return self._csr_plan

    def csr_assembler(self, state: ParamState) -> "CsrAssembler":
        """Native-CSR assembly workspace for a batchless run on
        *state* (see :class:`CsrAssembler`)."""
        return CsrAssembler(self, state)

    def orbit_csr_jacobians(self, state: ParamState, x_orbit: np.ndarray,
                            t_orbit: np.ndarray) -> np.ndarray:
        """Jacobian value arrays ``G(t_k)`` along an orbit, on the plan.

        Returns ``(N, nnz)`` - one CSR value row per orbit sample, the
        sparse-native equivalent of the dense ``(N, n, n)`` stack the
        periodic engines used to build.  This is the O(n_steps * nnz)
        storage of the orbit linearisation
        (:class:`~repro.analysis.orbit.OrbitLinearization`); nothing of
        shape ``(n, n)`` is materialised.

        ``x_orbit`` is unpadded ``(N, n)``; ``t_orbit`` the matching
        absolute times (time-dependent elements must be evaluated at
        the same source phase the orbit was computed with).
        """
        x_orbit = np.asarray(x_orbit, dtype=float)
        asm = self.csr_assembler(state)
        nnz = asm.plan.nnz
        out = np.empty((x_orbit.shape[0], nnz))
        f_pad = np.zeros(self.n + 1)
        x_pad = np.zeros(self.n + 1)
        sources = self.source_table(state, t_orbit)
        for k in range(x_orbit.shape[0]):
            x_pad[:self.n] = x_orbit[k]
            asm.assemble(x_pad, float(t_orbit[k]), f_pad,
                         sources=sources.row(k))
            out[k] = asm.g_data[:nnz]
        return out

    # ------------------------------------------------------------------
    # buffers
    # ------------------------------------------------------------------
    def buffers(self, batch_shape: tuple[int, ...] = ()
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Allocate padded ``(x_pad, g_pad, f_pad)`` work buffers."""
        n1 = self.n + 1
        x_pad = np.zeros(batch_shape + (n1,))
        g_pad = np.zeros(batch_shape + (n1, n1))
        f_pad = np.zeros(batch_shape + (n1,))
        return x_pad, g_pad, f_pad

    def pad(self, x: np.ndarray) -> np.ndarray:
        """Append the ground slot to an unpadded vector."""
        x = np.asarray(x, dtype=float)
        return np.concatenate([x, np.zeros(x.shape[:-1] + (1,))], axis=-1)

    def initial_padded(self, batch_shape: tuple[int, ...] = ()
                       ) -> np.ndarray:
        """Padded start vector honouring the circuit's ``ic`` entries."""
        x_pad = np.zeros(batch_shape + (self.n + 1,))
        for node, v in self.circuit.ic.items():
            i = self.idx(node)
            if i != self._ground:
                x_pad[..., i] = v
        return x_pad

    def __repr__(self) -> str:
        return (f"CompiledCircuit({self.circuit.name!r}, n={self.n}, "
                f"nodes={self.n_nodes}, mosfets={len(self.mosfets)})")


class AssemblyScratch:
    """Device-stamp buffers of batchless assembly at one batch shape.

    Holds the gathered terminal voltages, the fused kernel's work
    buffers (:class:`~repro.circuit.mosfet.EkvWork`) and the ``+-ids``
    / ``+-g`` stamp values, each laid out per sample in the stamp order
    of the scatter.  A Newton loop owns one for its run - the transient
    step solver, a DC solve, the dense PSS integrator, each
    :class:`CsrAssembler` - never a compiled circuit or a parameter
    state, which session caches share across threads.
    """

    def __init__(self, ndev: int, batch_shape: tuple[int, ...] = ()):
        batch = tuple(batch_shape)
        fvals = np.empty(batch + (2, ndev))
        gvals = np.empty(batch + (8, ndev))
        #: rows (+ids, -ids) and (+g, -g): the stamp order of
        #: ``_mos_frows`` / ``_mos_gflat``, per sample
        self.f_pos, self.f_neg = fvals[..., 0, :], fvals[..., 1, :]
        self.g_pos, self.g_neg = gvals[..., :4, :], gvals[..., 4:, :]
        #: the kernel writes its derivative rows straight into g_pos
        self.ekv = EkvWork(batch + (ndev,), g_out=self.g_pos)
        #: the stamp values as the scatter takes them, ``(*batch, k)``
        self.f_flat = fvals.reshape(batch + (-1,))
        self.g_flat = gvals.reshape(batch + (-1,))


class CsrAssembler:
    """Native-CSR assembly workspace for one batchless run.

    Parameter states are sparse-native, so the per-state linear G/C
    templates *are already* value arrays over the circuit's
    :class:`~repro.linalg.sparsity.CsrPlan` - the assembler consumes
    :attr:`ParamState.g_data`/:attr:`~ParamState.c_data` directly
    (read-only), every residual is a CSR mat-vec and every Jacobian a
    device-value scatter over the fixed pattern.  No dense ``(n+1)^2``
    buffer exists anywhere between ``make_state`` and ``splu``.

    Used by the transient integrator and the DC Newton solver whenever
    the circuit's backend sets
    :attr:`~repro.linalg.LinearSolverBackend.wants_csr` and the run is
    batchless; batched Monte-Carlo stacks keep the dense batched path
    (densified once per chunk through :meth:`ParamState.to_dense`).
    """

    def __init__(self, compiled: CompiledCircuit, state: ParamState):
        if state.batched:
            raise ValueError("native CSR assembly requires a batchless "
                             "parameter state")
        self.compiled = compiled
        self.state = state
        self.plan = compiled.csr_plan
        if not state.plan.same_pattern(self.plan):
            raise ValueError(
                "parameter state was built for a different circuit")
        #: Linear-template value arrays over the pattern (+ trash
        #: slot), shared read-only with the state.
        self.g_lin_data = state.g_data
        self.c_lin_data = state.c_data
        #: Scratch for the assembled Jacobian values.
        self.g_data = self.g_lin_data.copy()
        #: Device-stamp buffers of this run.
        self.scratch = compiled.scratch()
        # keyed by id(theta) *and* holding the key array alive, so a
        # freed theta whose address is reused can never alias a stale
        # entry
        self._theta_cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def assemble(self, x_pad: np.ndarray, t: float, f_pad: np.ndarray,
                 source_scale: float = 1.0, gmin: float = 0.0,
                 jacobian: bool = True,
                 sources: "np.ndarray | None" = None) -> None:
        """CSR-native equivalent of :meth:`CompiledCircuit.assemble`.

        Fills ``f_pad`` with the static residual; with *jacobian* the
        current ``G`` values are left in :attr:`g_data` (retrieve an
        operand via :meth:`jac_matrix` / :meth:`step_matrix`).
        """
        c = self.compiled
        n = c.n
        self.plan.matvec(self.g_lin_data, x_pad[:n], f_pad[:n])
        if gmin > 0.0:
            f_pad[:c.n_nodes] += gmin * x_pad[:c.n_nodes]
        f_pad[n] = 0.0
        c._add_sources(self.state, t, f_pad, source_scale, sources)
        if jacobian:
            np.copyto(self.g_data, self.g_lin_data)
            if gmin > 0.0:
                self.g_data[self.plan.diag_pos[:c.n_nodes]] += gmin
        gflat = self.g_data if jacobian else None
        if c.mosfets:
            c._add_mosfets(self.state, x_pad, f_pad, jacobian,
                           gflat, c._mos_gpos, (), self.scratch)
        if c.nl_vccs:
            c._add_nl_vccs(self.state, x_pad, t, f_pad, jacobian,
                           gflat, c._nlv_gpos, ())
        f_pad[n] = 0.0

    def jac_matrix(self):
        """Factorable CSC matrix of the assembled ``G`` (DC Newton)."""
        return self.plan.csc_matrix(self.g_data)

    def c_over_h_data(self, h: float,
                      out: "np.ndarray | None" = None) -> np.ndarray:
        """``C / h`` value array over the plan (+ trash slot).

        The capacitance template never changes during a run, so a step
        size change on the CSR path costs exactly this O(nnz) vector
        rescale - the cheap per-step hook adaptive time stepping relies
        on (the factorization cache re-keys on ``(theta, h)`` and
        re-factors, but nothing is re-gathered or densified).
        """
        if out is None:
            out = np.empty_like(self.c_lin_data)
        np.multiply(self.c_lin_data, 1.0 / h, out=out)
        return out

    def theta_data(self, theta: np.ndarray) -> np.ndarray:
        """Per-data-slot row implicitness, cached per theta vector."""
        hit = self._theta_cache.get(id(theta))
        if hit is not None and hit[0] is theta:
            return hit[1]
        td = np.ascontiguousarray(theta[self.plan.rows])
        self._theta_cache[id(theta)] = (theta, td)
        return td

    def step_matrix(self, theta: np.ndarray, coh_data: np.ndarray):
        """Factorable CSC of ``diag(theta) @ G + C/h`` over the plan."""
        nnz = self.plan.nnz
        jd = self.theta_data(theta) * self.g_data[:nnz] + coh_data[:nnz]
        return self.plan.csc_matrix(jd)


def compile_circuit(circuit: Circuit, cmin: float = CMIN_DEFAULT,
                    backend: "str | LinearSolverBackend | None" = None
                    ) -> CompiledCircuit:
    """Compile *circuit* into a :class:`CompiledCircuit`.

    *backend* selects the linear-solver backend (``"dense"``,
    ``"cached"``, ``"sparse"`` or an instance); the default ``"auto"``
    picks by circuit size - see :mod:`repro.linalg`.
    """
    return CompiledCircuit(circuit, cmin=cmin, backend=backend)
