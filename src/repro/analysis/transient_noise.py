"""Time-domain (transient) noise analysis - the paper's Fig. 5(a).

The paper contrasts two ways of simulating noise/pseudo-noise effects on
a transient response: brute-force *transient noise* integration [18],
which spends most of its effort on the settling phase, and the LPTV
analysis on the periodic steady state (Fig. 5(b)), which this package
implements as the primary engine.  This module provides the former, so
the cost/accuracy comparison can be reproduced
(``benchmarks/bench_ablation_engines.py``) and so physical-noise
ensembles can be sanity-checked (the kT/C test).

Method: every (white) noise source is sampled per time step as a
Gaussian current with variance ``S0 / (2 dt)`` (single-sided PSD folded
to the Nyquist band of the step), flicker sources are synthesised by
FFT spectral shaping, and the stochastic currents ride on a batched
transient - each ensemble member is one batch lane, so an M-run ensemble
costs one stacked integration.  The run is the transient's own
fixed-grid loop (backend, per-run buffers, predictor and all) with
each step's injected currents added to its residual.

Scope note: source modulations are evaluated on the *nominal* (noise-
free) trajectory, i.e. the analysis is exact for noise that is small
relative to the bias trajectory - the same small-signal regime the LPTV
analysis assumes.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..circuit.elements import PsdShape
from .dcop import dc_operating_point
from .mna import CompiledCircuit, NoiseInjection, ParamState
from .transient import TransientOptions, _integrate


@dataclass
class TransientNoiseResult:
    """Ensemble of noisy transients.

    ``signals[name]`` has shape ``(K+1, n_runs)``; :meth:`sigma_t` gives
    the ensemble standard deviation at every time point.
    """

    t: np.ndarray
    signals: dict[str, np.ndarray]
    n_runs: int

    def sigma_t(self, name: str) -> np.ndarray:
        return self.signals[name].std(axis=1, ddof=1)

    def mean_t(self, name: str) -> np.ndarray:
        return self.signals[name].mean(axis=1)

    def stationary_sigma(self, name: str,
                         settle_fraction: float = 0.5) -> float:
        """RMS of the ensemble deviation over the settled tail."""
        data = self.signals[name]
        k0 = int(settle_fraction * data.shape[0])
        dev = data[k0:] - data[k0:].mean(axis=1, keepdims=True)
        return float(np.sqrt(np.mean(dev ** 2)))


def _flicker_series(rng: np.random.Generator, n_steps: int, dt: float,
                    psd0: float, shape: tuple[int, ...]) -> np.ndarray:
    """Sample paths with single-sided PSD ``psd0 / f`` via FFT shaping."""
    freqs = np.fft.rfftfreq(n_steps, dt)
    mag = np.zeros_like(freqs)
    mag[1:] = np.sqrt(psd0 / freqs[1:] / (2.0 * dt * n_steps)) * n_steps
    phases = np.exp(2j * np.pi * rng.random((len(freqs),) + shape))
    spec = mag.reshape((-1,) + (1,) * len(shape)) * phases
    spec[0] = 0.0
    return np.fft.irfft(spec, n=n_steps, axis=0) * np.sqrt(2.0)


def transient_noise_analysis(compiled: CompiledCircuit, t_stop: float,
                             dt: float, n_runs: int,
                             record: list[str],
                             state: ParamState | None = None,
                             seed: int = 0,
                             injections: list[NoiseInjection] | None = None,
                             method: str = "trap"
                             ) -> TransientNoiseResult:
    """Monte-Carlo transient noise (paper Fig. 5(a), after [18]).

    Parameters
    ----------
    n_runs:
        Ensemble size; all runs integrate as one batched system.
    injections:
        Noise sources (default: the circuit's physical noise
        declarations, with modulations evaluated at the DC operating
        point).

    Returns
    -------
    TransientNoiseResult

    Raises
    ------
    ValueError
        When ``dt <= 0``, ``n_runs < 1`` or ``round(t_stop / dt) < 1``.
    ConvergenceError
        When a step's Newton iteration does not converge (the step runs
        on the transient integrator's Newton step, see
        :func:`~repro.analysis.transient.transient`).

    Warns
    -----
    UserWarning
        When the run ends at ``round(t_stop / dt) * dt``, not *t_stop*.
    """
    state = state or compiled.nominal
    if state.batched:
        raise AnalysisError("transient noise builds its own batch")
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if n_runs < 1:
        raise ValueError(f"n_runs must be >= 1, got {n_runs!r}")
    ratio = t_stop / dt
    n_steps = int(round(ratio)) if np.isfinite(ratio) else 0
    if n_steps < 1:
        raise ValueError(f"t_stop={t_stop!r} holds no step of dt={dt!r}")
    if abs(ratio - n_steps) > 1e-9 * ratio:     # the transient's rule
        warnings.warn(
            f"t_stop={t_stop:.6e} s is not a whole number of dt="
            f"{dt:.6e} s steps; the run ends at {n_steps * dt:.6e} s",
            UserWarning, stacklevel=2)
    rng = np.random.default_rng(seed)

    # one DC solve serves the default injections and the start point
    dc = (None if injections is not None and compiled.circuit.ic
          else dc_operating_point(compiled, state))
    if injections is None:
        injections = compiled.noise_injections(state, dc.x[None, :])
    if not injections:
        raise AnalysisError("no noise sources to inject")

    # pre-sample the stochastic amplitude of every source at every step
    amp = np.zeros((n_steps + 1, len(injections), n_runs))
    for j, src in enumerate(injections):
        if src.shape is PsdShape.WHITE:
            sigma = np.sqrt(src.psd0 / (2.0 * dt))
            amp[:, j, :] = rng.normal(0.0, sigma, (n_steps + 1, n_runs))
        else:
            amp[1:, j, :] = _flicker_series(rng, n_steps, dt, src.psd0,
                                            (n_runs,))

    # incidence vectors (constant direction x DC modulation)
    b = np.stack([src.b[0] for src in injections], axis=0)   # (m, n)

    n = compiled.n
    x0 = (compiled.initial_padded(()) if compiled.circuit.ic
          else compiled.pad(dc.x))
    nk = np.zeros((n_runs, n + 1))      # n_k, sign like f

    def inject(k: int) -> np.ndarray:
        nk[..., :n] = np.einsum("mr,mn->rn", amp[k], b)
        return nk

    # the ordinary fixed-grid transient, one lane per run, carrying the
    # injected currents on its residuals
    res = _integrate(compiled, state,
                     TransientOptions(method=method, record=record), x0,
                     0.0, n_steps * dt, dt, (n_runs,), inject=inject)
    return TransientNoiseResult(t=res.t, signals=res.signals, n_runs=n_runs)
