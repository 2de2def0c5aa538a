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
costs one stacked integration.  Each step is the transient integrator's
own Newton step (backend, per-run buffers and all) with the injected
currents added to its residual.

Scope note: source modulations are evaluated on the *nominal* (noise-
free) trajectory, i.e. the analysis is exact for noise that is small
relative to the bias trajectory - the same small-signal regime the LPTV
analysis assumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AnalysisError
from ..circuit.elements import PsdShape
from .dcop import dc_operating_point
from .mna import CompiledCircuit, NoiseInjection, ParamState
from .transient import TransientOptions, _StepSolver


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
    ConvergenceError
        When a step's Newton iteration does not converge (the step runs
        on the transient integrator's Newton step, see
        :func:`~repro.analysis.transient.transient`).
    """
    state = state or compiled.nominal
    if state.batched:
        raise AnalysisError("transient noise builds its own batch")
    n_steps = int(round(t_stop / dt))
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
    batch = (n_runs,)
    x0 = (compiled.initial_padded(()) if compiled.circuit.ic
          else compiled.pad(dc.x))
    x_pad = np.broadcast_to(x0, batch + (n + 1,)).copy()

    # the ordinary transient step; the injected currents n_k ride on
    # its residual as the offset theta * n_k, and on the next step's
    # previous residual as f + n_k
    theta = np.append(compiled.theta_rows(state, method), 1.0)
    solver = _StepSolver(compiled, state, TransientOptions(method=method),
                         batch, theta, theta)
    solver.set_step(False, dt)
    rec_idx = {name: compiled.node_index[name] for name in record}
    store = {name: np.empty((n_steps + 1, n_runs)) for name in record}

    nk = np.zeros(batch + (n + 1,))     # n_k, (n_runs, n+1), sign like f
    offset = np.empty(batch + (n,))
    solver.residual_only(x_pad, 0.0)
    f_prev = solver.f_pad.copy()
    x_prev = x_pad.copy()
    for k in range(n_steps + 1):
        nk[..., :n] = np.einsum("mr,mn->rn", amp[k], b)
        if k:
            np.multiply(theta[:n], nk[..., :n], out=offset)
            solver.step(x_pad, x_prev, f_prev, k * dt, None, offset=offset)
            np.copyto(f_prev, solver.f_pad)
            np.copyto(x_prev, x_pad)
        f_prev += nk
        for name, idx in rec_idx.items():
            store[name][k] = x_pad[..., idx]

    return TransientNoiseResult(t=dt * np.arange(n_steps + 1),
                                signals=store, n_runs=n_runs)
