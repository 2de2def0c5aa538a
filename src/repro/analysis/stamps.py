"""Compile-time stamp plans: COO lowering of the MNA assembly.

The seed assembler walked a Python loop over every resistor, source and
behavioral transconductor on *every Newton iteration*.  This module
lowers each element family once, at :class:`~repro.analysis.mna.
CompiledCircuit` construction, into flat COO index/value arrays so that
the hot paths become a handful of vectorized gathers and
``np.add.at`` scatters:

:class:`LinearStampPlan`
    All linear elements (R, C, L, independent/controlled sources,
    MOSFET capacitors, ``cmin``).  Template construction for a
    parameter set - the per-``make_state`` cost of a Monte-Carlo chunk -
    is a handful of O(nnz) value scatters onto the circuit's
    :class:`~repro.linalg.sparsity.CsrPlan` pattern (one constant
    block, one delta-dependent block per element family) instead of a
    per-element loop; no dense ``(n+1)^2`` template is materialised
    (states densify lazily through
    :meth:`~repro.analysis.mna.ParamState.to_dense`).
:class:`SourcePlan`
    Independent sources split into a *static* part (DC waves, including
    per-state overrides) evaluated once per parameter state, and a
    *time-varying* part re-evaluated once per distinct time point.  The
    combined padded source vector is cached per ``(state, t)``, so a
    Newton iteration at a fixed time step adds one precomputed vector.
:class:`SourceTable`
    The same combined vectors for any state whose static sources have
    no lane axis, evaluated once over a whole fixed time grid
    (vectorized over time) by the loop that owns the grid and indexed
    by step.
:class:`NlVccsPlan`
    Behavioral transconductors (``tanh`` limiters, clock gates)
    evaluated for all devices at once; gate waveforms are cached per
    time point (they do not depend on the state or the batch).

All index arrays address the *padded* system (one discard slot for
ground at index ``n``), flattened row-major over ``(n+1, n+1)`` for
matrix stamps, matching the layout
:meth:`~repro.analysis.mna.CompiledCircuit.assemble` scatters into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..circuit.controlled import Vccs
from ..circuit.elements import ParamKey
from ..circuit.sources import Dc, smoothstep
from ..errors import NetlistError

Deltas = "dict[ParamKey, float | np.ndarray]"


def scatter_add(flat: np.ndarray, idx: np.ndarray, vals: np.ndarray,
                bidx: np.ndarray | None = None) -> None:
    """``flat[..., idx] += vals`` with duplicate indices accumulated.

    *flat* is ``(*batch, m)``; *bidx* is the cached flattened-batch
    index column (``(*batch, 1)``) required whenever *flat* is batched.
    """
    if flat.ndim == 1:
        np.add.at(flat, idx, vals)
    else:
        np.add.at(flat, (bidx, idx), vals)


def _device_values(nominal: np.ndarray, keys: tuple[ParamKey, ...],
                   deltas, batch: tuple[int, ...]) -> np.ndarray:
    """Effective per-device parameter values (nominal + deltas).

    Returns ``(ndev,)`` when no delta is batched (it broadcasts over
    any batch in the scatter), else ``(*batch, ndev)``.
    """
    if not deltas:
        return nominal
    dv = [deltas.get(k, 0.0) for k in keys]
    if not any(np.ndim(d) > 0 for d in dv):
        return nominal + np.asarray(dv, dtype=float)
    out = np.broadcast_to(nominal, batch + nominal.shape).copy()
    for i, d in enumerate(dv):
        out[..., i] = nominal[i] + np.asarray(d, dtype=float)
    return out


@dataclass(frozen=True)
class ConstBlock:
    """Stamps whose values never change: ``flat[idx] += val``."""

    idx: np.ndarray
    val: np.ndarray


@dataclass(frozen=True)
class DeviceBlock:
    """Stamps driven by one per-device parameter.

    Slot values are ``sign * f(param)[gather]`` where ``f`` is the
    identity (capacitors, inductors) or the reciprocal (resistors:
    conductance from resistance).
    """

    idx: np.ndarray                    # (k,) flat stamp positions
    sign: np.ndarray                   # (k,) +/-1 per stamp slot
    gather: np.ndarray                 # (k,) device index per slot
    nominal: np.ndarray                # (ndev,) nominal parameter
    keys: tuple[ParamKey, ...]         # (ndev,) delta lookup keys
    reciprocal: bool = False

    def slot_values(self, deltas, batch: tuple[int, ...]) -> np.ndarray:
        dev = _device_values(self.nominal, self.keys, deltas, batch)
        if self.reciprocal:
            dev = 1.0 / dev
        return self.sign * dev[..., self.gather]


def _four_point(p: np.ndarray, q: np.ndarray, n1: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Standard two-terminal stamp: +(p,p) +(q,q) -(p,q) -(q,p)."""
    idx = np.concatenate([p * n1 + p, q * n1 + q, p * n1 + q, q * n1 + p])
    k = p.size
    sign = np.concatenate([np.ones(2 * k), -np.ones(2 * k)])
    return idx, sign


class LinearStampPlan:
    """COO lowering of every linear element of one compiled circuit."""

    def __init__(self, compiled):
        n1 = compiled.n + 1
        self.n1 = n1
        self.ground = compiled.n

        def pairs(elements):
            p = np.array([compiled.idx(e.pos) for e in elements], dtype=int)
            q = np.array([compiled.idx(e.neg) for e in elements], dtype=int)
            return p, q

        # --- delta-dependent blocks (kept in seed stamping order) ----
        res = compiled.resistors
        p, q = pairs(res)
        idx, sign = _four_point(p, q, n1)
        self.res = DeviceBlock(
            idx=idx, sign=sign, gather=np.tile(np.arange(len(res)), 4),
            nominal=np.array([e.r for e in res], dtype=float),
            keys=tuple((e.name, "r") for e in res), reciprocal=True)

        cap = compiled.capacitors
        p, q = pairs(cap)
        idx, sign = _four_point(p, q, n1)
        self.cap = DeviceBlock(
            idx=idx, sign=sign, gather=np.tile(np.arange(len(cap)), 4),
            nominal=np.array([e.c for e in cap], dtype=float),
            keys=tuple((e.name, "c") for e in cap))

        ind = compiled.inductors
        br = np.array([compiled.branch(e.name) for e in ind], dtype=int)
        self.ind = DeviceBlock(
            idx=br * n1 + br, sign=np.ones(len(ind)),
            gather=np.arange(len(ind)),
            nominal=np.array([e.l for e in ind], dtype=float),
            keys=tuple((e.name, "l") for e in ind))

        # --- constant blocks ----------------------------------------
        g_idx: list[int] = []
        g_val: list[float] = []

        def stamp_g(row, col, val):
            g_idx.append(row * n1 + col)
            g_val.append(val)

        for e in ind:
            p, q = compiled.idx(e.pos), compiled.idx(e.neg)
            b = compiled.branch(e.name)
            stamp_g(p, b, 1.0), stamp_g(q, b, -1.0)
            stamp_g(b, p, -1.0), stamp_g(b, q, 1.0)
        for e in compiled.vsources:
            p, q = compiled.idx(e.pos), compiled.idx(e.neg)
            b = compiled.branch(e.name)
            stamp_g(p, b, 1.0), stamp_g(q, b, -1.0)
            stamp_g(b, p, 1.0), stamp_g(b, q, -1.0)
        for e in compiled.vcvs:
            p, q = compiled.idx(e.pos), compiled.idx(e.neg)
            cp, cn = compiled.idx(e.ctrl_pos), compiled.idx(e.ctrl_neg)
            b = compiled.branch(e.name)
            stamp_g(p, b, 1.0), stamp_g(q, b, -1.0)
            stamp_g(b, p, 1.0), stamp_g(b, q, -1.0)
            stamp_g(b, cp, -e.gain), stamp_g(b, cn, e.gain)
        for e in compiled.linear_vccs:
            p, q = compiled.idx(e.pos), compiled.idx(e.neg)
            cp, cn = compiled.idx(e.ctrl_pos), compiled.idx(e.ctrl_neg)
            stamp_g(p, cp, e.gm), stamp_g(p, cn, -e.gm)
            stamp_g(q, cp, -e.gm), stamp_g(q, cn, e.gm)
        self.g_const = ConstBlock(np.asarray(g_idx, dtype=int),
                                  np.asarray(g_val, dtype=float))

        c_idx: list[int] = []
        c_val: list[float] = []
        for e in compiled.mosfets:
            d, g, s, b = (compiled.idx(e.d), compiled.idx(e.g),
                          compiled.idx(e.s), compiled.idx(e.b))
            for (a, c, val) in ((g, s, e.c_gs), (g, d, e.c_gd),
                                (d, b, e.c_db), (s, b, e.c_sb)):
                if val > 0.0:
                    c_idx += [a * n1 + a, c * n1 + c]
                    c_val += [val, val]
                    c_idx += [a * n1 + c, c * n1 + a]
                    c_val += [-val, -val]
        if compiled.cmin > 0.0:
            for i in range(compiled.n_nodes):
                c_idx.append(i * n1 + i)
                c_val.append(compiled.cmin)
        self.c_const = ConstBlock(np.asarray(c_idx, dtype=int),
                                  np.asarray(c_val, dtype=float))

    def coo_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat padded indices of every potential G / C entry."""
        g = np.concatenate([self.res.idx, self.g_const.idx])
        c = np.concatenate([self.cap.idx, self.ind.idx, self.c_const.idx])
        return g.astype(int), c.astype(int)

    def _slot_positions(self, plan) -> None:
        """Map every stamp block's padded flat indices to data slots of
        *plan* (ground stamps land on the trash slot).  Computed once -
        the plan is a per-circuit constant."""
        if getattr(self, "_pos_plan", None) is plan:
            return
        self._res_pos = plan.pos_of(self.res.idx)
        self._gconst_pos = plan.pos_of(self.g_const.idx)
        self._cap_pos = plan.pos_of(self.cap.idx)
        self._ind_pos = plan.pos_of(self.ind.idx)
        self._cconst_pos = plan.pos_of(self.c_const.idx)
        self._pos_plan = plan

    def build_data(self, deltas, batch: tuple[int, ...],
                   bidx: np.ndarray | None, plan
                   ) -> tuple[np.ndarray, np.ndarray]:
        """Sparse-native templates ``(g_data, c_data)`` for a parameter
        set: value arrays of length ``nnz + 1`` over *plan* (the extra
        trash slot absorbs ground stamps and is scrubbed to zero).

        The scatter order matches the historical dense build block for
        block, so a lazily densified template
        (:meth:`~repro.analysis.mna.ParamState.to_dense`) is
        bit-identical to what the dense builder produced.

        *batch* is the template batch shape (empty unless some linear
        delta is batched); *bidx* the cached flat batch index column.
        """
        self._slot_positions(plan)
        g = np.zeros(batch + (plan.nnz + 1,))
        c = np.zeros(batch + (plan.nnz + 1,))
        if self.res.idx.size:
            scatter_add(g, self._res_pos,
                        self.res.slot_values(deltas, batch), bidx)
        if self.g_const.idx.size:
            scatter_add(g, self._gconst_pos, self.g_const.val, bidx)
        if self.cap.idx.size:
            scatter_add(c, self._cap_pos,
                        self.cap.slot_values(deltas, batch), bidx)
        if self.ind.idx.size:
            scatter_add(c, self._ind_pos,
                        self.ind.slot_values(deltas, batch), bidx)
        if self.c_const.idx.size:
            scatter_add(c, self._cconst_pos, self.c_const.val, bidx)
        g[..., plan.nnz] = 0.0
        c[..., plan.nnz] = 0.0
        return g, c


class SourcePlan:
    """Independent sources lowered to a cached padded vector.

    The vector obeys the MNA sign conventions of the seed assembler:
    a voltage source subtracts its value from its branch equation, a
    current source adds at ``pos`` and subtracts at ``neg`` (ground
    accumulations land on the discard slot and are scrubbed by
    ``assemble``).
    """

    def __init__(self, compiled):
        self.n1 = compiled.n + 1
        static_names: list[str] = []
        static_slots: list[list[tuple[int, float]]] = []
        tv_idx: list[int] = []
        tv_sign: list[float] = []
        tv_gather: list[int] = []
        tv_waves: list = []
        tv_names: list[str] = []

        def add(el, slots):
            if isinstance(el.wave, Dc):
                static_names.append(el.name)
                static_slots.append(slots)
            else:
                j = len(tv_waves)
                tv_waves.append(el.wave)
                tv_names.append(el.name)
                for i, s in slots:
                    tv_idx.append(i)
                    tv_sign.append(s)
                    tv_gather.append(j)

        for e in compiled.vsources:
            add(e, [(compiled.branch(e.name), -1.0)])
        for e in compiled.isources:
            add(e, [(compiled.idx(e.pos), 1.0),
                    (compiled.idx(e.neg), -1.0)])
        self.static_names = static_names
        self.static_slots = static_slots
        self.tv_idx = np.asarray(tv_idx, dtype=int)
        self.tv_sign = np.asarray(tv_sign, dtype=float)
        self.tv_gather = np.asarray(tv_gather, dtype=int)
        self.tv_waves = tv_waves
        self.tv_names = set(tv_names)
        # nominal DC values, looked up once
        by_name = {e.name: e for e in compiled.vsources + compiled.isources}
        self.static_nominal = [by_name[n].wave.value for n in static_names]
        self.empty = not (static_names or tv_waves)

    def static_vector(self, state) -> np.ndarray:
        """Padded source vector of all DC sources (honouring overrides).

        Cached on *state* - ``state.source_values`` is consumed here on
        the first assembly and must not be mutated afterwards (build a
        new state per override set instead).  May carry a batch axis
        when any DC value or override is batched.
        """
        if state.src_static is not None:
            return state.src_static
        for name in state.source_values:
            if name in self.tv_names:
                raise NetlistError(
                    f"source override on non-DC source '{name}'")
        vals = [state.source_values.get(name, nom)
                for name, nom in zip(self.static_names, self.static_nominal)]
        batch: tuple[int, ...] = ()
        for v in vals:
            if np.ndim(v) > 0:
                batch = np.shape(v)
        vec = np.zeros(batch + (self.n1,))
        for slots, v in zip(self.static_slots, vals):
            for i, s in slots:
                vec[..., i] += s * np.asarray(v, dtype=float)
        state.src_static = vec
        return vec

    def combined(self, state, t: float) -> np.ndarray:
        """Padded source vector at time *t* (static + time-varying).

        Cached per ``(state, t)``: Newton iterations at a fixed time
        step pay a single vector add, and the time-varying waves are
        re-evaluated only when *t* changes.
        """
        cache = state.src_cache
        if cache is not None and cache[0] == t:
            return cache[1]
        vec = self.static_vector(state)
        if self.tv_waves:
            vals = [w(t) for w in self.tv_waves]
            if any(np.ndim(v) > 0 for v in vals):
                # unusual: a time function returning batched values
                vec = vec + np.zeros(np.broadcast_shapes(
                    *(np.shape(v) for v in vals)) + (self.n1,))
                for i, s, j in zip(self.tv_idx, self.tv_sign,
                                   self.tv_gather):
                    vec[..., i] += s * np.asarray(vals[j], dtype=float)
            else:
                vec = vec.copy()
                tvv = np.asarray(vals, dtype=float)
                np.add.at(vec, self.tv_idx,
                          self.tv_sign * tvv[self.tv_gather])
        state.src_cache = (t, vec)
        return vec


class SourceTable:
    """:meth:`SourcePlan.combined` tabulated over one fixed time grid.

    Every time-varying wave is evaluated once, vectorized over the
    grid, instead of once per distinct time point; :meth:`row` returns
    the padded source vector at grid index ``k``, exactly equal to
    ``plan.combined(state, t_grid[k])`` (same operands, same
    accumulation order).  Only the columns the time-varying sources
    touch are stored - ``(n_points, n_touched)`` - so the table stays
    small on large circuits; :meth:`row` writes them into one scratch
    copy of the static vector.

    Every state whose static source vector has no lane axis is
    tabulated - batch-of-one runs and the batched Monte-Carlo lanes of
    a mismatch run alike, since all lanes then share one source vector
    per time point.  A state whose ``source_values`` vary by lane (the
    comparator bisection lanes) and a DC-only circuit are not: there
    :meth:`row` returns ``None``, which makes
    :meth:`~repro.analysis.mna.CompiledCircuit.assemble` keep the
    per-point path.  A table belongs to the loop that built it and is
    indexed by step; nothing is cached on the parameter state.
    """

    def __init__(self, plan: SourcePlan, state, t_grid: np.ndarray):
        self._tab = None
        self._vec = plan.static_vector(state)
        if not plan.tv_waves or self._vec.ndim > 1:
            return
        t_grid = np.asarray(t_grid, dtype=float)
        cols, slot_col = np.unique(plan.tv_idx, return_inverse=True)
        self._vec = self._vec.copy()
        self._cols = cols
        vals = [np.broadcast_to(np.asarray(w(t_grid), dtype=float),
                                t_grid.shape) for w in plan.tv_waves]
        tab = np.tile(self._vec[cols], (t_grid.size, 1))
        for j, s, g in zip(slot_col, plan.tv_sign, plan.tv_gather):
            tab[:, j] += s * vals[g]
        self._tab = tab

    def row(self, k: int) -> "np.ndarray | None":
        """Padded source vector at grid index *k* (a scratch buffer,
        overwritten by the next call), or ``None`` when untabulated."""
        if self._tab is None:
            return None
        self._vec[self._cols] = self._tab[k]
        return self._vec

    def rows(self, k0: int, k1: int) -> "np.ndarray | None":
        """Padded source vectors at grid indices ``k0 .. k1 - 1``, one
        per row of a fresh ``(k1 - k0, n + 1)`` array, each equal to
        ``plan.combined(state, t_grid[k])``.  A DC-only circuit gives
        its static vector, which broadcasts over the rows; ``None``
        when the static vector has a lane axis."""
        if self._tab is None:
            return self._vec if self._vec.ndim == 1 else None
        out = np.tile(self._vec, (k1 - k0, 1))
        out[:, self._cols] = self._tab[k0:k1]
        return out


class NlVccsPlan:
    """Vectorized evaluation of all nonlinear transconductors."""

    def __init__(self, compiled, nl_vccs: list[Vccs]):
        n1 = compiled.n + 1
        self.n = len(nl_vccs)
        idx = np.array(
            [[compiled.idx(e.pos), compiled.idx(e.neg),
              compiled.idx(e.ctrl_pos), compiled.idx(e.ctrl_neg)]
             for e in nl_vccs], dtype=int).reshape(self.n, 4)
        p, q, cp, cn = (idx[:, k] for k in range(4))
        self.cp, self.cn = cp, cn
        #: residual scatter: +i at pos, -i at neg
        self.f_idx = np.concatenate([p, q])
        #: Jacobian scatter: +(p,cp) -(p,cn) -(q,cp) +(q,cn)
        self.g_idx = np.concatenate(
            [p * n1 + cp, p * n1 + cn, q * n1 + cp, q * n1 + cn])

        vlim = np.array([e.vlimit if e.vlimit is not None else 1.0
                         for e in nl_vccs], dtype=float)
        self.has_limit = np.array([e.vlimit is not None for e in nl_vccs])
        self.vlim = vlim
        self.any_limit = bool(self.has_limit.any())

        self.has_gate = np.array([e.gate is not None for e in nl_vccs])
        self.any_gate = bool(self.has_gate.any())
        self.gate_t_on = np.array(
            [e.gate.t_on if e.gate else 0.0 for e in nl_vccs])
        self.gate_t_off = np.array(
            [e.gate.t_off if e.gate else 1.0 for e in nl_vccs])
        self.gate_period = np.array(
            [e.gate.period if e.gate else 1.0 for e in nl_vccs])
        self.gate_tau = np.array(
            [e.gate.tau if e.gate else 1.0 for e in nl_vccs])
        self._ones = np.ones(self.n)
        self._gate_cache: tuple[float, np.ndarray] | None = None

    def clear_cache(self) -> None:
        """Drop the cached per-time-point gate values (invoked by
        :meth:`~repro.analysis.mna.CompiledCircuit.clear_caches`)."""
        self._gate_cache = None

    def gate_values(self, t: "float | np.ndarray") -> np.ndarray:
        """Per-device gate at *t* (cached: gates depend on time only).

        An array *t* of per-row times (a block of orbit samples) gives
        one row of gates per time, uncached, each row equal to the
        scalar evaluation at its time.
        """
        if np.ndim(t):
            return self._gates(np.asarray(t, dtype=float)[..., None])
        cache = self._gate_cache
        if cache is not None and cache[0] == t:
            return cache[1]
        g = self._gates(float(t))
        self._gate_cache = (t, g)
        return g

    def _gates(self, t: "float | np.ndarray") -> np.ndarray:
        if not self.any_gate:
            return self._ones
        ph = np.mod(t, self.gate_period)
        g = (smoothstep((ph - self.gate_t_on) / self.gate_tau)
             - smoothstep((ph - self.gate_t_off) / self.gate_tau))
        return np.where(self.has_gate, g, 1.0)

    def phi(self, vc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Control law and derivative for every device at once."""
        if not self.any_limit:
            return vc, np.ones_like(vc)
        th = np.tanh(vc / self.vlim)
        phi = np.where(self.has_limit, self.vlim * th, vc)
        dphi = np.where(self.has_limit, 1.0 - th * th, 1.0)
        return phi, dphi
