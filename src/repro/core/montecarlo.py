"""Monte-Carlo mismatch analysis - the baseline of the paper's Table II.

Mismatch parameters are sampled from their Gaussian distributions, the
circuit is re-simulated per sample, and statistics are collected from the
measured performances.  Two implementation notes:

* **Batched lanes.** All samples integrate simultaneously as one stacked
  system (see :mod:`repro.analysis.mna`), so the baseline is as fast as
  dense ``numpy`` allows rather than being handicapped by Python-level
  looping.  Reported speedups of the sensitivity method are therefore
  conservative relative to the paper's (which compared against serial
  SPICE runs).  Parameter states are sparse-native (O(nnz) per chunk
  to construct); the dense stacks a batched solve needs are densified
  from the sparse template exactly once per chunk through the
  :meth:`~repro.analysis.mna.ParamState.to_dense` escape hatch, and
  die with the chunk.  Lanes that share their sources read them from
  one grid table (:class:`~repro.analysis.stamps.SourceTable`); the
  device stamps scatter through cached flat indices, and the EKV
  model stays the reference :func:`~repro.circuit.mosfet.ekv_ids`,
  so every sample keeps its bits whatever the speed-ups around it.
* **Identical measurement path.** The same :class:`~repro.core.measures`
  objects extract metrics from MC waveforms and from the PSS orbit, so
  method-vs-MC deltas reflect the linear-model error only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..analysis.mna import CompiledCircuit
from ..analysis.transient import TransientOptions, transient
from ..circuit.elements import ParamKey
from ..errors import MeasurementError
from ..stats import SampleStats, summarize_samples
from ..waveform import WaveformSet
from .analysis import _as_compiled, check_uniform_keywords
from .measures import Measure
from .workers import shard_runner


@dataclass
class MonteCarloResult:
    """Samples and summary statistics of one MC run."""

    n: int
    samples: dict[str, np.ndarray]
    stats: dict[str, SampleStats]
    deltas: dict[ParamKey, np.ndarray]
    runtime_seconds: float = 0.0
    #: Number of *distinct* lanes with at least one failed measure
    #: (per-metric failure counts live in ``failed_metrics``).  Under a
    #: retry policy this includes every lane of a degraded shard.
    n_failed: int = 0
    failed_metrics: dict[str, int] = field(default_factory=dict)
    #: Structured :class:`~repro.errors.FailureRecord` values for spans
    #: the retry policy degraded (empty unless ``retry.degrade``).
    failures: list = field(default_factory=list)

    def sigma(self, metric: str) -> float:
        return self.stats[metric].std

    def mean(self, metric: str) -> float:
        return self.stats[metric].mean

    def correlation(self, metric_a: str, metric_b: str) -> float:
        a, b = self.samples[metric_a], self.samples[metric_b]
        ok = np.isfinite(a) & np.isfinite(b)
        return float(np.corrcoef(a[ok], b[ok])[0, 1])

    def report(self) -> str:
        lines = [f"Monte-Carlo, n = {self.n} "
                 f"({self.runtime_seconds:.2f} s)"]
        for name, st in self.stats.items():
            lines.append(
                f"  {name}: mean {st.mean:.6g}  sigma {st.std:.6g} "
                f"(95% CI [{st.std_ci_low:.6g}, {st.std_ci_high:.6g}])  "
                f"skew {st.skewness:+.3f}")
        return "\n".join(lines)


def sample_mismatch(compiled: CompiledCircuit, n: int,
                    rng: np.random.Generator,
                    sigma_scale: float = 1.0,
                    keys: list[ParamKey] | None = None,
                    param_covariance: np.ndarray | None = None
                    ) -> dict[ParamKey, np.ndarray]:
    """Draw *n* joint samples of the circuit's mismatch parameters.

    With *param_covariance* given (paper Eq. 6: ``C = A A^T``), samples
    are drawn from the full joint Gaussian; otherwise parameters are
    independent with their declared sigmas.  *sigma_scale* scales all
    deviations (the paper's Fig. 11 sweep).
    """
    decls = compiled.circuit.mismatch_decls()
    if keys is not None:
        by_key = {d.key: d for d in decls}
        decls = [by_key[k] for k in keys]
    m = len(decls)
    if m == 0:
        raise MeasurementError("circuit declares no mismatch parameters")
    if param_covariance is not None:
        cov = np.asarray(param_covariance, dtype=float)
        if cov.shape != (m, m):
            raise ValueError("covariance shape does not match parameters")
        # eigen-factorisation instead of Cholesky: rank-deficient
        # covariances (C = A A^T with fewer sources than parameters,
        # paper Eq. 6) are perfectly legitimate here
        eigvals, eigvecs = np.linalg.eigh(cov)
        eigvals = np.clip(eigvals, 0.0, None)
        factor = eigvecs * np.sqrt(eigvals)
        z = rng.standard_normal((n, m))
        draws = sigma_scale * (z @ factor.T)
    else:
        sig = np.array([d.sigma for d in decls])
        draws = sigma_scale * sig * rng.standard_normal((n, m))
    return {d.key: draws[:, j] for j, d in enumerate(decls)}


def _resolve_variations(compiled, param_covariance, variations):
    """Lower a live :class:`~repro.variation.VariationSpec` onto the
    compiled circuit's declaration order.  The spec is lowered *once*
    here, so the shard planner and every worker see the identical
    covariance matrix and the bit-identical-merge contract is
    untouched."""
    if variations is None:
        return param_covariance
    check_uniform_keywords(param_covariance=param_covariance,
                           variations=variations)
    return variations.covariance(compiled)


def measurement_window_mask(t: np.ndarray, window: tuple[float, float],
                            dt: float | None = None) -> np.ndarray:
    """Samples of grid *t* inside *window*, with half-a-step tolerance.

    The tolerance must scale with the grid: a fixed absolute epsilon
    (the old ``1e-15``) silently dropped grid-edge samples as soon as
    ``t_stop`` reached the seconds range, because ``k * dt`` accumulates
    rounding of order ``t * eps`` - far above any fixed epsilon while
    always far below half a step.

    And it must scale with the *local* grid: adaptive transients return
    non-uniform time axes, where a single global ``dt / 2`` (the nominal
    step) is wrong in both directions - orders of magnitude too wide
    where the controller refined (selecting samples far outside the
    window) and too narrow where it coarsened (dropping the edge sample
    again).  Each sample therefore gets half its *smaller adjacent
    spacing* as tolerance, which reduces exactly to ``dt / 2`` on a
    uniform grid.  Pass *dt* to force the uniform-grid scalar tolerance
    (legacy call sites on known-uniform grids).
    """
    t = np.asarray(t, dtype=float)
    if dt is not None:
        tol: "float | np.ndarray" = 0.5 * dt
    elif t.size >= 2:
        gaps = np.diff(t)
        tol = 0.5 * np.minimum(np.concatenate(([gaps[0]], gaps)),
                               np.concatenate((gaps, [gaps[-1]])))
    else:
        tol = 0.0
    return (t >= window[0] - tol) & (t <= window[1] + tol)


def measure_lanes(t: np.ndarray, signals: dict[str, np.ndarray],
                  measures: list[Measure],
                  out: dict[str, np.ndarray], offset: int) -> int:
    """Apply *measures* to every lane of a batched recording.

    Measurements that fail (a missing crossing because the sample pushed
    the circuit out of its operating regime, or a non-finite result from
    a lane the transient froze) record NaN.  The return value counts
    *distinct failed lanes*, not failed measures - a lane failing two
    measures is still one failed sample of the Monte-Carlo run.
    """
    n_lanes = next(iter(signals.values())).shape[1]
    failed_lanes = 0
    for b in range(n_lanes):
        ws = WaveformSet(t, {k: v[:, b] for k, v in signals.items()})
        lane_failed = False
        for meas in measures:
            try:
                val = meas.measure_waveset(ws)
            except MeasurementError:
                val = np.nan
            out[meas.name][offset + b] = val
            if not np.isfinite(val):
                lane_failed = True
        failed_lanes += lane_failed
    return failed_lanes


def _transient_chunk(circuit, measures: list[Measure],
                     options: TransientOptions, t_stop: float, dt: float,
                     window: tuple[float, float] | None,
                     deltas: dict[ParamKey, np.ndarray], n_lanes: int
                     ) -> tuple[dict[str, np.ndarray], int]:
    """Simulate and measure one chunk of Monte-Carlo lanes.

    Module-level so that :class:`~concurrent.futures.
    ProcessPoolExecutor` workers can run it; both the serial loop and
    the workers receive the already-compiled circuit (workers get it
    pickled), so every chunk runs the identical compiled object.
    Results depend only on the chunk's deltas, so a shard executed in a
    worker process is bit-for-bit identical to the same chunk executed
    serially - on the adaptive grid too: the lanes of a chunk share one
    LTE-controlled step sequence, and that sequence is a pure function
    of the chunk's deltas.
    """
    compiled = _as_compiled(circuit)
    state = compiled.make_state(deltas=deltas)
    res = transient(compiled, t_stop=t_stop, dt=dt, state=state,
                    options=options)
    t = res.t
    sig = res.signals
    if window is not None:
        # tolerance from the local grid spacing: correct on both the
        # uniform and the adaptive (non-uniform) time axis
        mask = measurement_window_mask(t, window)
        t = t[mask]
        sig = {k: v[mask] for k, v in sig.items()}
    vals = {m.name: np.empty(n_lanes) for m in measures}
    failures = measure_lanes(t, sig, measures, vals, 0)
    return vals, failures


def monte_carlo_transient(circuit, measures: list[Measure], n: int,
                          t_stop: float, dt: float,
                          window: tuple[float, float] | None = None,
                          seed: int = 0, sigma_scale: float = 1.0,
                          param_covariance: np.ndarray | None = None,
                          chunk_size: int = 250,
                          method: str = "trap",
                          extra_record: list[str] | None = None,
                          backend: str | None = None,
                          n_workers: int | None = None,
                          adaptive: bool = False,
                          rtol: float = 1e-3, atol: float = 1e-6,
                          dt_min: float | None = None,
                          dt_max: float | None = None,
                          retry=None,
                          variations=None) -> MonteCarloResult:
    """Monte-Carlo over batched transients.

    Lanes whose Newton iteration diverges or whose Jacobian goes
    singular are isolated and frozen (NaN) instead of aborting the run;
    they are reported through ``n_failed`` / ``failed_metrics``.

    Parameters
    ----------
    t_stop, dt:
        Transient span and fixed step for every lane (a ceiling on the
        initial step when *adaptive* is set).
    window:
        Measurement window ``(t0, t1)``; metrics are extracted from this
        slice only (defaults to the full span).  Use the last period of a
        settled response, mirroring how the PSS measures.  On the
        adaptive grid the stepper lands exactly on both window edges.
    chunk_size:
        Lanes per stacked solve - bounds peak memory and sets the shard
        granularity for parallel runs.
    backend:
        Linear-solver backend override (see :mod:`repro.linalg`).
    n_workers:
        Fan the (independent) chunks out over this many worker
        *processes*.  All deltas are drawn up front from the single
        seeded generator and sliced per chunk, and results are merged
        in chunk order, so ``samples``/``n_failed`` are bit-for-bit
        identical to the serial run at the same *chunk_size* - with and
        without *adaptive* (each chunk's step sequence depends only on
        that chunk's lanes).  ``None``/1 runs the chunks in this
        process.  Measures travel by pickle, so a custom measure
        works on every placement.
    adaptive, rtol, atol, dt_min, dt_max:
        LTE-controlled adaptive stepping per chunk (see
        :class:`~repro.analysis.transient.TransientOptions`).  The
        lanes of one chunk share a single step sequence (the controller
        takes the worst lane), so a chunk remains one stacked solve.
    retry:
        The :class:`~repro.service.jobs.RetryPolicy` of every shard
        (``None``: one attempt, the first failure raises).  Retryable
        failures - worker crashes included - retry with backoff (plus
        deadlines on parallel runs), and with ``degrade`` a shard that
        exhausts its attempts merges NaN-frozen with its lanes counted
        in ``n_failed`` and a :class:`~repro.errors.FailureRecord`
        appended to ``failures``, instead of aborting the run.
        Unaffected shards stay bit-identical to a fault-free run.
    variations:
        A live :class:`~repro.variation.VariationSpec` as an
        alternative to *param_covariance* (mutually exclusive); lowered
        onto the circuit's declaration order up front, so samples are
        bit-identical to the equivalent hand-built matrix.

    Returns
    -------
    MonteCarloResult
    """
    from ..service.shards import mc_transient_shards, merge_shard_results
    compiled = _as_compiled(circuit, backend=backend)
    param_covariance = _resolve_variations(compiled, param_covariance,
                                           variations)
    rng = np.random.default_rng(seed)
    # the full joint draw, kept on the result; each shard redraws the
    # identical set from the seed and slices its own span
    all_deltas = sample_mismatch(compiled, n, rng, sigma_scale,
                                 param_covariance=param_covariance)
    t_begin = time.perf_counter()

    specs = mc_transient_shards(
        compiled, measures, n, t_stop, dt, chunk_size=chunk_size,
        window=window, seed=seed, sigma_scale=sigma_scale,
        param_covariance=param_covariance, method=method,
        extra_record=extra_record, backend=backend, adaptive=adaptive,
        rtol=rtol, atol=atol, dt_min=dt_min, dt_max=dt_max)

    results = _run_specs(specs, compiled, n_workers, retry)
    merged = merge_shard_results(results)

    stats, failed_metrics = summarize_samples(merged.samples)

    return MonteCarloResult(
        n=n, samples=merged.samples, stats=stats, deltas=all_deltas,
        runtime_seconds=time.perf_counter() - t_begin,
        n_failed=merged.n_failed, failed_metrics=failed_metrics,
        failures=list(merged.failures))


def _run_specs(specs, compiled, n_workers: int | None, retry) -> list:
    """Execute shard *specs* with *compiled* under *retry* - by the
    context's :data:`~repro.core.workers.shard_runner` when one is
    set, else by :func:`~repro.service.jobs.run_shards` - returning
    results in spec (= merge) order."""
    runner = shard_runner.get()
    if runner is not None:
        return runner(specs, compiled, retry)
    from ..service.jobs import run_shards
    return run_shards(specs, compiled, n_workers, retry)


def _dc_chunk(circuit, outputs: dict[str, "str | tuple[str, str]"],
              deltas: dict[ParamKey, np.ndarray]
              ) -> dict[str, np.ndarray]:
    """One batched DC operating-point chunk (worker-safe)."""
    from ..analysis.dcop import dc_operating_point
    compiled = _as_compiled(circuit)
    state = compiled.make_state(deltas=deltas)
    dc = dc_operating_point(compiled, state)
    samples = {}
    for name, spec in outputs.items():
        pos, neg = (spec if isinstance(spec, tuple) else (spec, "0"))
        samples[name] = np.asarray(dc.voltage(pos, neg))
    return samples


def monte_carlo_dc(circuit, outputs: dict[str, str | tuple[str, str]],
                   n: int, seed: int = 0, sigma_scale: float = 1.0,
                   param_covariance: np.ndarray | None = None,
                   backend: str | None = None,
                   chunk_size: int | None = None,
                   n_workers: int | None = None,
                   retry=None, variations=None) -> MonteCarloResult:
    """Monte-Carlo over batched DC operating points (dcmatch baseline).

    *chunk_size* splits the batch into independent stacked solves
    (default: one batch with all *n* lanes, the historical behaviour);
    *n_workers* fans the chunks out over worker processes.  Because the
    batched Newton loop iterates until the *worst* lane of a chunk
    converges, results are bit-for-bit reproducible only across runs
    with the same chunk boundaries - so when ``n_workers > 1`` and no
    *chunk_size* is given, chunking defaults to an even
    ``ceil(n / n_workers)`` split, and a serial run with that same
    *chunk_size* reproduces the parallel samples exactly.

    *n_workers* and *retry* run the shards exactly as in
    :func:`monte_carlo_transient` (``retry=None``: one attempt):
    degraded spans merge as NaN, are counted in ``n_failed`` and
    reported through ``failures``, and the statistics are taken over
    the surviving finite lanes.  *variations* (a live
    :class:`~repro.variation.VariationSpec`, mutually exclusive with
    *param_covariance*) lowers to the equivalent covariance up front.
    """
    from ..service.shards import mc_dc_shards, merge_shard_results
    compiled = _as_compiled(circuit, backend=backend)
    param_covariance = _resolve_variations(compiled, param_covariance,
                                           variations)
    rng = np.random.default_rng(seed)
    deltas = sample_mismatch(compiled, n, rng, sigma_scale,
                             param_covariance=param_covariance)
    t_begin = time.perf_counter()
    parallel = n_workers is not None and n_workers > 1
    if chunk_size is None:
        chunk_size = -(-n // n_workers) if parallel else n

    specs = mc_dc_shards(compiled, outputs, n, chunk_size, seed=seed,
                         sigma_scale=sigma_scale,
                         param_covariance=param_covariance,
                         backend=backend)
    results = _run_specs(specs, compiled, n_workers, retry)
    merged = merge_shard_results(results)
    stats, failed_metrics = summarize_samples(merged.samples)
    return MonteCarloResult(
        n=n, samples=merged.samples, stats=stats, deltas=deltas,
        runtime_seconds=time.perf_counter() - t_begin,
        n_failed=merged.n_failed, failed_metrics=failed_metrics,
        failures=list(merged.failures))
