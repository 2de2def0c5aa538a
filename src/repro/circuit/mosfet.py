"""EKV-style MOSFET compact model with Pelgrom mismatch.

The paper's benchmarks used foundry BSIM models; those are proprietary, so
this module implements a smooth, symmetric, all-region compact model in the
EKV spirit:

.. math::

    I_D = 2 n \\beta \\phi_t^2 \\left[ F\\!\\left(\\frac{V_P - V_{SB}}
          {\\phi_t}\\right) - F\\!\\left(\\frac{V_P - V_{DB}}{\\phi_t}\\right)
          \\right] \\cdot M(V_{DS}),
    \\qquad F(u) = \\ln^2(1 + e^{u/2})

with pinch-off voltage ``V_P = (V_{GB} - V_{T0})/n`` and a smooth
channel-length-modulation factor ``M = 1 + lambda_eff * abs_s(V_DS)``
(``abs_s`` is an infinitely differentiable absolute value).  The model is

* continuous through weak/moderate/strong inversion (softplus-squared
  interpolation),
* symmetric in drain/source (forward minus reverse current), which matters
  for pass devices and the comparator's cross-coupled pairs,
* analytically differentiable - Newton, sensitivity and noise analyses all
  consume exact derivatives, never finite differences.

Mismatch follows the Pelgrom model the paper uses (Eqs. 4-5): threshold
sigma ``AVT/sqrt(WL)`` and relative current-factor sigma
``Abeta/sqrt(WL)``.  The equivalent pseudo-noise modulations of Fig. 4 are
``-gm(t)`` (threshold) and ``I_DS(t)`` (relative beta); both come out of
the exact parameter derivatives implemented here.

All model math is vectorised: every argument may carry arbitrary leading
batch/device axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..constants import BOLTZMANN, PHI_T, T_NOMINAL
from .elements import Element, MismatchDecl, NoiseDecl, PsdShape
from .technology import MosParams, Technology

_LN2 = math.log(2.0)


def _logistic(x: np.ndarray) -> np.ndarray:
    """Overflow-safe ``1 / (1 + e^-x)``, without boolean masking.

    With ``e = exp(-|x|)`` this is ``1 / (1 + e)`` for ``x >= 0`` and
    ``e / (1 + e)`` otherwise: the two-branch overflow-safe form,
    evaluated over the whole array in one pass.
    """
    e = np.exp(-np.abs(x))
    out = np.where(x >= 0, 1.0, e)
    out /= 1.0 + e
    return out


@dataclass(frozen=True)
class MosEval:
    """Result of one vectorised model evaluation (all NMOS-frame).

    ``ids`` is the drain-to-source channel current; the ``g*`` entries are
    its partial derivatives with respect to the *primed* (NMOS-frame)
    terminal voltages (``None`` for current-only evaluations, see
    :func:`ekv_ids`).  ``gm`` additionally serves as the threshold
    pseudo-noise modulation (``dIds/dVT0 = -gm``) and ``ids`` as the
    relative-beta modulation (paper Fig. 4).
    """

    ids: np.ndarray
    g_d: np.ndarray | None
    g_g: np.ndarray | None
    g_s: np.ndarray | None
    g_b: np.ndarray | None

    @property
    def gm(self) -> np.ndarray:
        return self.g_g


def ekv_ids(vd, vg, vs, vb, vt0, beta, n, lam_eff,
            phi_t: float = PHI_T, derivatives: bool = True) -> MosEval:
    """Evaluate the EKV-style drain current and its terminal derivatives.

    All voltage arguments are NMOS-frame node voltages (PMOS callers negate
    voltages first and the sign of the current afterwards).  Parameters
    broadcast against the voltages.  With ``derivatives=False`` only
    ``ids`` is computed (the ``g*`` fields are ``None``) - used by
    residual-only assemblies when a Newton loop reuses a cached Jacobian
    factorization.

    Kernel contract: this is the reference evaluation, and batched
    (Monte-Carlo) parameter states always use it, so their samples are
    bit-pinned to it.  The three softplus arguments (forward and
    reverse interpolation ``u/2``, and ``-|v_DS|/phi_t``) are stacked
    into one ``np.logaddexp`` dispatch.  The smooth ``|v_DS|`` needs no
    fourth row: ``softplus(z) + softplus(-z)`` is exactly
    ``(|z| + L) + L`` with ``L = softplus(-|z|)``, the operands
    ``np.logaddexp`` itself forms, so every bit of the textbook
    four-softplus form is kept.  Batchless states use
    :func:`ekv_ids_fused`, which agrees with it to 1e-14 relative.
    """
    vd, vg, vs, vb = (np.asarray(a, dtype=float) for a in (vd, vg, vs, vb))
    vp = (vg - vb - vt0) / n
    vds = vd - vs
    az = np.abs(vds / phi_t)
    # rows 0/1: forward/reverse interpolation argument u/2; row 2: -|z|
    # (``x[k, ...]`` stays a writable view for scalar inputs too)
    x = np.empty((3,) + np.broadcast_shapes(vp.shape, vs.shape, vb.shape,
                                            vd.shape))
    np.subtract(vs, vb, out=x[0, ...])
    np.subtract(vd, vb, out=x[1, ...])
    np.subtract(vp, x[:2], out=x[:2])
    x[:2] /= phi_t
    x[:2] *= 0.5
    np.negative(az, out=x[2, ...])
    sp = np.logaddexp(0.0, x)
    f = sp[:2] * sp[:2]             # F(u) = softplus(u/2)^2

    i_core = 2.0 * n * beta * phi_t * phi_t * (f[0] - f[1])
    sabs = phi_t * ((az + sp[2]) + sp[2] - 2.0 * _LN2)
    m = 1.0 + lam_eff * sabs

    ids = i_core * m
    if not derivatives:
        return MosEval(ids=ids, g_d=None, g_g=None, g_s=None, g_b=None)
    df = sp[:2] * _logistic(x[:2])  # dF/du
    df_f, df_r = df[0], df[1]
    dm = lam_eff * np.tanh(0.5 * vds / phi_t)
    gm = 2.0 * beta * phi_t * (df_f - df_r) * m
    g_d = 2.0 * n * beta * phi_t * df_r * m + i_core * dm
    g_s = -2.0 * n * beta * phi_t * df_f * m - i_core * dm
    g_b = (n - 1.0) * gm
    return MosEval(ids=ids, g_d=g_d, g_g=gm, g_s=g_s, g_b=g_b)


_TWO_LN2 = 2.0 * _LN2


@dataclass(frozen=True)
class MosConstants:
    """Per-device constant factors of :func:`ekv_ids_fused` for one
    batchless parameter state (read-only arrays).

    Each is the exact left-to-right prefix of the kernel expression it
    replaces, so taking it from here changes no bit:
    ``k = 2 n beta phi_t`` (the ``dF/du`` scale), ``k_phi = k phi_t``
    (the ``I_D`` scale), ``lam_phi = lambda_eff phi_t``,
    ``n_minus_1 = n - 1`` and the scalar ``half_over_phi = 0.5 /
    phi_t``.  :meth:`~repro.analysis.mna.ParamState.mos_constants`
    builds them once per state.
    """

    n: np.ndarray
    lam: np.ndarray
    k: np.ndarray
    k_phi: np.ndarray
    lam_phi: np.ndarray
    n_minus_1: np.ndarray
    phi_t: float
    half_over_phi: float

    @classmethod
    def of(cls, beta, n, lam_eff, phi_t: float = PHI_T) -> "MosConstants":
        n = np.array(n, dtype=float)
        lam = np.array(lam_eff, dtype=float)
        k = 2.0 * n * np.asarray(beta, dtype=float) * phi_t
        arrays = dict(n=n, lam=lam, k=k, k_phi=k * phi_t,
                      lam_phi=lam * phi_t, n_minus_1=n - 1.0)
        for a in arrays.values():
            a.flags.writeable = False
        return cls(phi_t=float(phi_t), half_over_phi=0.5 / phi_t,
                   **arrays)


class EkvWork:
    """Work buffers of :func:`ekv_ids_fused` for one operand shape
    ``(*batch, ndev)``.

    The caller gathers the terminal voltages into :attr:`v`; the
    kernel leaves ``ids`` in :attr:`ids` and the derivatives in the
    rows ``(g_d, g_g, g_s, g_b)`` of :attr:`g` - *g_out* when given (a
    caller's stamp buffer), fresh otherwise.  Every buffer is a
    C-contiguous array of its own, so each ufunc runs the same inner
    loop, and gives the same bits, as on a freshly allocated
    temporary.  The row views the kernel works on are taken here,
    once: on the ~20-element arrays of a batch-of-one step, building a
    view costs about half as much as the ufunc that uses it.  A value
    that is dead before another is formed shares its buffer, so a
    whole-orbit evaluation needs no more memory than the temporaries
    it replaces.  A workspace belongs to one thread: callers that keep
    one across calls own it per run, never per circuit or per state.
    """

    def __init__(self, shape: tuple[int, ...],
                 g_out: "np.ndarray | None" = None):
        self.shape = tuple(shape)
        batch, ndev = self.shape[:-1], self.shape[-1]

        def rows(r: int) -> np.ndarray:
            return np.empty(batch + ((r, ndev) if r > 1 else (ndev,)))

        self.v, self.x, self.a, self.e, self.lg = (rows(6), rows(3),
                                                   rows(3), rows(3),
                                                   rows(3))
        self.sp, self.sq = rows(2), rows(2)
        self.ic, self.m, self.ids, self.i_dm = (rows(1), rows(1), rows(1),
                                                rows(1))
        # shared buffers, each taken over once its first value is dead:
        # the bulk-referred differences d by |x|, vp (read only to form
        # x) by I_core, sp^2 (read only to form I_core) by dF/du, and
        # exp(-|x|) of rows 0/1 by 1 + exp(-|x|) in place
        self.d, self.vp, self.df = self.a, self.ic, self.sq
        self.t2 = self.e[..., :2, :]
        self.mask = np.empty(batch + (2, ndev), dtype=bool)
        self.g = (np.empty(batch + (4, ndev)) if g_out is None
                  else g_out)

        def rows_of(a: np.ndarray, *keys):
            return [a[..., k, :] for k in keys]

        v, x, df, g = self.v, self.x, self.df, self.g
        #: terminal voltages, NMOS frame: rows (s, d, g, b, b, b)
        self.v_sdg, self.v_bbb = v[..., :3, :], v[..., 3:, :]
        self.v_s, self.v_d = rows_of(v, 0, 1)
        self.d0, self.d1, self.d2 = rows_of(self.d, 0, 1, 2)
        self.x01 = x[..., :2, :]
        self.x0, self.x1, self.x2 = rows_of(x, 0, 1, 2)
        self.a2, = rows_of(self.a, 2)
        self.e01 = self.e[..., :2, :]
        self.lg01 = self.lg[..., :2, :]
        self.lg2, = rows_of(self.lg, 2)
        self.sq0, self.sq1 = rows_of(self.sq, 0, 1)
        self.df0, self.df1 = rows_of(df, 0, 1)
        self.g_d, self.g_g, self.g_s, self.g_b = rows_of(g, 0, 1, 2, 3)


def ekv_ids_fused(work: EkvWork, vt0, consts: MosConstants,
                  derivatives: bool = True) -> np.ndarray:
    """:func:`ekv_ids` for a batchless parameter state, evaluated in
    place in *work* (:class:`EkvWork`).

    The caller has written the NMOS-frame terminal voltages into
    ``work.v`` as rows ``(s, d, g, b, b, b)`` (bulk three times, so the
    three bulk-referred differences are one same-shape dispatch);
    *consts* are the state's per-device constants
    (:class:`MosConstants`).  Returns ``work.ids``, which the next call
    overwrites.  With *derivatives* the terminal derivatives land in
    the rows of ``work.g``; without, only ``ids`` is computed -
    residual-only assemblies when a Newton loop reuses a cached
    Jacobian factorization.

    The forward, reverse and ``V_DS`` softplus arguments are stacked
    into one array, and the three softplus evaluations (forward and
    reverse interpolation, the smooth absolute value) share one
    ``exp(-|x|)``, which also yields the logistic derivative without
    boolean masking: ``softplus(x) = max(x, 0) + log1p(e)`` and
    ``logistic(x) = (1 if x >= 0 else e) / (1 + e)`` with
    ``e = exp(-|x|)``.  Per call this is about half the ufunc
    dispatches of :func:`ekv_ids`, and none of them allocates or
    broadcasts, which is what matters on the small arrays of a
    batch-of-one Newton step.

    Kernel contract: used for batchless parameter states only - one
    Newton iterate, or a block of orbit samples assembled at once (the
    evaluation is elementwise, so a block gives each sample's bits) -
    and within 1e-14 relative of :func:`ekv_ids` (the results differ in
    the last bits: ``np.exp`` and ``np.logaddexp`` round differently,
    and the constant factors are grouped differently).  The constant
    factors come from the state (:class:`MosConstants`, computed once
    as the exact prefixes of the expressions they stand for), and every
    operation keeps its operands and its order, so the bits are those
    of evaluating the whole expression on every call.  Batched
    Monte-Carlo lanes stay on :func:`ekv_ids`, whose samples are
    bit-pinned.
    """
    w = work
    # d: s - b, d - b, g - b
    np.subtract(w.v_sdg, w.v_bbb, out=w.d)
    np.subtract(w.d2, vt0, out=w.vp)
    np.divide(w.vp, consts.n, out=w.vp)
    # rows 0/1: forward/reverse interpolation argument u/2; row 2:
    # vds/phi_t
    np.subtract(w.vp, w.d0, out=w.x0)
    np.subtract(w.vp, w.d1, out=w.x1)
    np.multiply(w.x01, consts.half_over_phi, out=w.x01)
    np.subtract(w.v_d, w.v_s, out=w.x2)
    np.divide(w.x2, consts.phi_t, out=w.x2)
    np.abs(w.x, out=w.a)
    np.negative(w.a, out=w.e)
    np.exp(w.e, out=w.e)
    np.log1p(w.e, out=w.lg)
    np.maximum(w.x01, 0.0, out=w.sp)
    np.add(w.sp, w.lg01, out=w.sp)

    np.multiply(w.sp, w.sp, out=w.sq)
    np.subtract(w.sq0, w.sq1, out=w.ic)
    np.multiply(consts.k_phi, w.ic, out=w.ic)           # I_core
    # M = 1 + lambda phi_t (|w| + 2 log1p(exp(-|w|)) - 2 ln 2), from
    # softplus(w) + softplus(-w) = |w| + 2 log1p(exp(-|w|))
    np.multiply(w.lg2, 2.0, out=w.m)
    np.add(w.a2, w.m, out=w.m)
    np.subtract(w.m, _TWO_LN2, out=w.m)
    np.multiply(consts.lam_phi, w.m, out=w.m)
    np.add(w.m, 1.0, out=w.m)
    np.multiply(w.ic, w.m, out=w.ids)
    if not derivatives:
        return w.ids
    df = w.df
    np.greater_equal(w.x01, 0.0, out=w.mask)
    np.copyto(df, w.e01)
    np.copyto(df, 1.0, where=w.mask)
    np.add(w.e01, 1.0, out=w.t2)
    np.divide(df, w.t2, out=df)
    np.multiply(df, w.sp, out=df)
    for row in (w.df0, w.df1):    # k dF/du * M, forward and reverse
        np.multiply(row, w.m, out=row)
        np.multiply(row, consts.k, out=row)
    np.multiply(w.x2, 0.5, out=w.i_dm)
    np.tanh(w.i_dm, out=w.i_dm)
    np.multiply(consts.lam, w.i_dm, out=w.i_dm)
    np.multiply(w.ic, w.i_dm, out=w.i_dm)            # I_core dM/dvds
    np.subtract(w.df0, w.df1, out=w.g_g)
    np.divide(w.g_g, consts.n, out=w.g_g)
    np.add(w.df1, w.i_dm, out=w.g_d)
    np.negative(w.df0, out=w.g_s)
    np.subtract(w.g_s, w.i_dm, out=w.g_s)
    np.multiply(consts.n_minus_1, w.g_g, out=w.g_b)
    return w.ids


@dataclass
class Mosfet(Element):
    """Four-terminal MOSFET.

    Attributes
    ----------
    d, g, s, b:
        Drain, gate, source, bulk node names.
    w, l:
        Drawn width/length [m].
    polarity:
        ``"n"`` or ``"p"``.
    params:
        Compact-model parameters (usually from a :class:`Technology`).
    sigma_vt, sigma_beta_rel:
        Pelgrom mismatch sigmas.  When constructed through
        :meth:`from_tech` they default to ``AVT/sqrt(WL)`` and
        ``Abeta/sqrt(WL)`` (paper Eqs. 4-5); explicit values override.
    m:
        Parallel-device multiplier: multiplies current and capacitance,
        divides mismatch sigmas by ``sqrt(m)``.
    noisy:
        Include thermal/flicker noise in physical-noise analyses.
    """

    d: str = "0"
    g: str = "0"
    s: str = "0"
    b: str = "0"
    w: float = 1e-6
    l: float = 0.13e-6
    polarity: str = "n"
    params: MosParams | None = None
    sigma_vt: float = 0.0
    sigma_beta_rel: float = 0.0
    m: float = 1.0
    noisy: bool = True
    temperature: float = field(default=T_NOMINAL, repr=False)

    def __post_init__(self):
        if self.polarity not in ("n", "p"):
            raise ValueError(f"mosfet {self.name}: polarity must be n or p")
        if self.params is None:
            raise ValueError(f"mosfet {self.name}: params are required")
        if self.w <= 0 or self.l <= 0 or self.m <= 0:
            raise ValueError(f"mosfet {self.name}: W, L, m must be positive")

    @classmethod
    def from_tech(cls, name: str, d: str, g: str, s: str, b: str,
                  w: float, l: float, tech: Technology,
                  polarity: str = "n", m: float = 1.0,
                  noisy: bool = True) -> "Mosfet":
        """Build a device with Pelgrom sigmas derived from *tech*."""
        params = tech.nmos if polarity == "n" else tech.pmos
        return cls(
            name=name, d=d, g=g, s=s, b=b, w=w, l=l, polarity=polarity,
            params=params, m=m, noisy=noisy,
            sigma_vt=tech.sigma_vt(w, l) / math.sqrt(m),
            sigma_beta_rel=tech.sigma_beta_rel(w, l) / math.sqrt(m),
        )

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def sign(self) -> float:
        """+1 for NMOS, -1 for PMOS (node-voltage frame mapping)."""
        return 1.0 if self.polarity == "n" else -1.0

    @property
    def beta(self) -> float:
        """Current factor ``m * KP * W / L`` [A/V^2]."""
        return self.m * self.params.kp * self.w / self.l

    @property
    def lam_eff(self) -> float:
        """Length-scaled channel-length-modulation coefficient [1/V]."""
        return self.params.lam * self.params.l_ref / self.l

    @property
    def c_gs(self) -> float:
        return self.m * (0.5 * self.params.cox * self.w * self.l
                         + self.params.c_overlap * self.w)

    @property
    def c_gd(self) -> float:
        return self.c_gs

    @property
    def c_db(self) -> float:
        return self.m * self.params.c_junction * self.w * self.params.l_diff

    @property
    def c_sb(self) -> float:
        return self.c_db

    @property
    def thermal_psd_coeff(self) -> float:
        """``4 k T gamma``; multiply by ``gm(t)`` for the drain-current PSD."""
        return 4.0 * BOLTZMANN * self.temperature * self.params.gamma_noise

    @property
    def flicker_coeff(self) -> float:
        """``KF / (Cox W L)``; gate-referred 1/f PSD is this over ``f``."""
        return self.params.kf / (self.params.cox * self.w * self.l * self.m)

    def nodes(self):
        return (self.d, self.g, self.s, self.b)

    def mismatch_decls(self):
        decls = []
        if self.sigma_vt > 0.0:
            decls.append(MismatchDecl((self.name, "vt0"), self.sigma_vt))
        if self.sigma_beta_rel > 0.0:
            decls.append(MismatchDecl((self.name, "beta_rel"),
                                      self.sigma_beta_rel))
        return decls

    def noise_decls(self):
        if not self.noisy:
            return []
        return [NoiseDecl((self.name, "thermal"), PsdShape.WHITE),
                NoiseDecl((self.name, "flicker"), PsdShape.FLICKER)]
