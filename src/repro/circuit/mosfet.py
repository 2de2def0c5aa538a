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


def ekv_ids_fused(vd, vg, vs, vb, vt0, beta, n, lam_eff,
                  phi_t: float = PHI_T, derivatives: bool = True
                  ) -> MosEval:
    """:func:`ekv_ids` with the forward, reverse and ``V_DS`` softplus
    arguments stacked into one array.

    The softplus evaluations (forward and reverse interpolation, the
    smooth absolute value) share one ``exp(-|x|)``, which also yields
    the logistic derivative without boolean masking:
    ``softplus(x) = max(x, 0) + log1p(e)`` and
    ``logistic(x) = (1 if x >= 0 else e) / (1 + e)`` with
    ``e = exp(-|x|)``.  Per call this is about half the ufunc
    dispatches of :func:`ekv_ids`, which is what matters on the small
    arrays of a batch-of-one Newton step.

    Kernel contract: used for batchless parameter states only - one
    Newton iterate, or a block of orbit samples assembled at once (the
    evaluation is elementwise, so a block gives each sample's bits) -
    and within 1e-14 relative of :func:`ekv_ids` (the results differ in
    the last bits: ``np.exp`` and ``np.logaddexp`` round differently,
    and the constant factors are grouped differently).  Batched
    Monte-Carlo lanes stay on :func:`ekv_ids`, whose samples are
    bit-pinned.
    """
    vp = np.asarray((vg - vb - vt0) / n)
    vds = np.asarray(vd - vs)
    shape = (vp.shape if vp.shape == vds.shape
             else np.broadcast_shapes(vp.shape, vds.shape))
    # rows 0/1: forward/reverse interpolation argument u/2; row 2: vds/phi_t
    x = np.empty((3,) + shape)
    np.subtract(vs, vb, out=x[0])
    np.subtract(vd, vb, out=x[1])
    np.subtract(vp, x[:2], out=x[:2])
    x[:2] *= 0.5 / phi_t
    np.divide(vds, phi_t, out=x[2])
    a = np.abs(x)
    e = np.exp(-a)
    lg = np.log1p(e)
    sp = np.maximum(x[:2], 0.0)
    sp += lg[:2]

    k = 2.0 * n * beta * phi_t
    sq = sp * sp
    i_core = k * phi_t * (sq[0] - sq[1])
    # softplus(w) + softplus(-w) = |w| + 2 log1p(exp(-|w|))
    m = 1.0 + (lam_eff * phi_t) * (a[2] + 2.0 * lg[2] - 2.0 * _LN2)
    ids = i_core * m
    if not derivatives:
        return MosEval(ids=ids, g_d=None, g_g=None, g_s=None, g_b=None)
    ef = e[:2]
    df = np.where(x[:2] >= 0.0, 1.0, ef)
    df /= 1.0 + ef
    df *= sp
    df *= m
    df *= k                       # k dF/du * M, forward and reverse
    i_dm = i_core * (lam_eff * np.tanh(0.5 * x[2]))
    gm = (df[0] - df[1]) / n
    g_d = df[1] + i_dm
    g_s = -df[0] - i_dm
    g_b = (n - 1.0) * gm
    return MosEval(ids=ids, g_d=g_d, g_g=gm, g_s=g_s, g_b=g_b)


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
