"""Sample statistics used by both the Monte-Carlo baseline and the paper's
accuracy discussion.

The paper leans on three statistical facts (Sections VI and VIII):

* the 95 % confidence interval of a standard-deviation estimate from ``n``
  Gaussian samples is roughly ``+/- 1.96 / sqrt(2 n)`` relative
  (+/-14 % at n=100, +/-4.5 % at n=1000, +/-1.4 % at n=10000);
* the *normalised skewness* ``mu_3^{1/3} / mu`` (their definition) measures
  departure from Gaussianity of the simulated performance distribution;
* a linear perturbation model maps Gaussian mismatch to an exactly Gaussian
  performance distribution.

This module provides those quantities plus standard helpers.

It deliberately does not import :mod:`scipy.stats`: loading that package
(and the scipy.optimize / spatial / ndimage modules it drags in) costs
more than half a second, more than the paper's whole PSS+LPTV call on a
cold process.  The three values taken from it are computed with the
:mod:`scipy.special` ufuncs scipy.stats itself calls, so every result is
bit-identical to the scipy.stats formula:

* ``chi2.ppf(q, df)`` is ``2 * gammaincinv(df / 2, q)``;
* ``norm.ppf(p)`` is ``ndtri(p)``;
* ``skew(x, bias=False)`` repeats scipy's central-moment steps in the
  same order (see :func:`_skewness`).

The ``no-scipy-stats`` rule of ``tools/check_import_layering.py`` keeps
it that way.  :mod:`scipy.special` itself loads in the two quantile
helpers that call it, on the first confidence interval, so importing
this module (and :mod:`repro.api`) loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MeasurementError


@dataclass(frozen=True)
class SampleStats:
    """Summary statistics of one scalar sample set."""

    n: int
    mean: float
    std: float
    skewness: float
    normalized_skewness: float
    std_ci_low: float
    std_ci_high: float

    @property
    def std_ci_relative(self) -> float:
        """Half-width of the 95 % CI on sigma, relative to sigma."""
        if self.std == 0.0:
            return 0.0
        return 0.5 * (self.std_ci_high - self.std_ci_low) / self.std


def describe(samples: np.ndarray, confidence: float = 0.95) -> SampleStats:
    """Return :class:`SampleStats` for *samples* (1-D array-like)."""
    x = np.asarray(samples, dtype=float).ravel()
    if x.size < 2:
        raise ValueError("need at least two samples")
    n = x.size
    mean = float(x.mean())
    std = float(x.std(ddof=1))
    skew = _skewness(x) if n > 2 else 0.0
    lo, hi = sigma_confidence_interval(std, n, confidence)
    return SampleStats(
        n=n,
        mean=mean,
        std=std,
        skewness=skew,
        normalized_skewness=normalized_skewness(x),
        std_ci_low=lo,
        std_ci_high=hi,
    )


def summarize_samples(samples: dict[str, np.ndarray]
                      ) -> tuple[dict[str, SampleStats], dict[str, int]]:
    """Monte-Carlo summary: :func:`describe` over each metric's finite
    samples.

    Returns ``(stats, failed_metrics)``, the latter counting the
    non-finite (failed) lanes of each metric.  Raises
    :class:`~repro.errors.MeasurementError` when fewer than two lanes of
    a metric survive.
    """
    stats = {}
    failed_metrics = {}
    for name, vals in samples.items():
        good = vals[np.isfinite(vals)]
        failed_metrics[name] = int(vals.size - good.size)
        if good.size < 2:
            raise MeasurementError(
                f"Monte-Carlo metric '{name}' failed on almost all lanes")
        stats[name] = describe(good)
    return stats, failed_metrics


def _skewness(x: np.ndarray) -> float:
    """Bias-corrected sample skewness of a 1-D float array (``n > 2``).

    The operations of ``scipy.stats.skew(x, bias=False)`` in the same
    order, so the result is bit-identical: central moments ``m2`` and
    ``m3`` about the mean, NaN when ``m2`` is at the rounding level of
    the mean (constant samples), then the ``sqrt(n (n-1)) / (n-2)``
    correction of ``m3 / m2**1.5``.
    """
    n = x.size
    mean = np.mean(x, axis=0, keepdims=True)
    d = x - mean
    m2 = np.mean(d ** 2, axis=0)
    m3 = np.mean(d ** 2 * d, axis=0)
    if m2 <= (np.finfo(m2.dtype).eps * mean[0]) ** 2:
        return float("nan")
    return float(((n - 1.0) * n) ** 0.5 / (n - 2.0) * m3 / m2 ** 1.5)


def sigma_confidence_interval(std: float, n: int,
                              confidence: float = 0.95
                              ) -> tuple[float, float]:
    """Confidence interval for the population sigma given a sample sigma.

    Uses the exact chi-square interval for Gaussian samples,
    ``sigma in [s*sqrt((n-1)/chi2_hi), s*sqrt((n-1)/chi2_lo)]``.
    """
    if n < 2:
        raise ValueError("need at least two samples")
    alpha = 1.0 - confidence
    chi2_lo = _chi2_ppf(alpha / 2.0, n - 1)
    chi2_hi = _chi2_ppf(1.0 - alpha / 2.0, n - 1)
    return (std * np.sqrt((n - 1) / chi2_hi),
            std * np.sqrt((n - 1) / chi2_lo))


def _chi2_ppf(q: float, df: int) -> np.float64:
    """Chi-square quantile, exactly as ``scipy.stats.chi2.ppf``."""
    from scipy import special
    return 2 * special.gammaincinv(df / 2, q)


def sigma_relative_ci_halfwidth(n: int, confidence: float = 0.95) -> float:
    """Approximate relative 95 % CI half-width of a sigma estimate.

    ``1.96/sqrt(2 n)`` for the default confidence: the numbers the paper
    quotes (+/-14 %, +/-4.5 %, +/-1.4 % for n = 100, 1000, 10000).
    """
    from scipy import special
    z = special.ndtri(0.5 + confidence / 2.0)
    return float(z / np.sqrt(2.0 * n))


def normalized_skewness(samples: np.ndarray) -> float:
    """The paper's skewness measure ``mu_3^{1/3} / mu`` (Section VIII).

    ``mu_3`` is the third central moment ``E[(X - mu)^3]`` and ``mu`` the
    mean.  The cube root preserves sign.
    """
    x = np.asarray(samples, dtype=float).ravel()
    mu = x.mean()
    if mu == 0.0:
        return float("nan")
    mu3 = np.mean((x - mu) ** 3)
    return float(np.sign(mu3) * np.abs(mu3) ** (1.0 / 3.0) / mu)


def gaussian_pdf(x: np.ndarray, mean: float, std: float) -> np.ndarray:
    """Gaussian PDF, the shape the linear perturbation model predicts."""
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * ((x - mean) / std) ** 2) / (std * np.sqrt(2 * np.pi))


def histogram_against_gaussian(samples: np.ndarray, mean: float, std: float,
                               bins: int = 30
                               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Histogram of *samples* (density) plus the Gaussian PDF on bin centres.

    Returns ``(centres, density, pdf)`` - the data behind the paper's
    Figs. 9 and 12.
    """
    x = np.asarray(samples, dtype=float).ravel()
    density, edges = np.histogram(x, bins=bins, density=True)
    centres = 0.5 * (edges[:-1] + edges[1:])
    return centres, density, gaussian_pdf(centres, mean, std)


def ascii_histogram(samples: np.ndarray, mean: float, std: float,
                    bins: int = 25, width: int = 50,
                    label: str = "value") -> str:
    """Text rendering of a histogram with the Gaussian-PDF prediction.

    ``#`` bars show the Monte-Carlo density; ``*`` marks the PDF value
    predicted by the sensitivity-based analysis on each bin row.  A zero
    *std* (a measure with no mismatch sensitivity) has no finite PDF, so
    its rows carry the bars only.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        centres, density, pdf = histogram_against_gaussian(
            samples, mean, std, bins)
    finite = np.isfinite(pdf)
    top = max(density.max(), pdf[finite].max(initial=0.0), 1e-300)
    lines = [f"{'':>12s}  histogram (#) vs linear-model PDF (*) of {label}"]
    for c, d, p, ok in zip(centres, density, pdf, finite):
        bar = int(round(d / top * width))
        row = list("#" * bar + " " * (width - bar + 1))
        if ok:
            row[min(int(round(p / top * width)), width)] = "*"
        lines.append(f"{c:12.4e}  |{''.join(row)}")
    return "\n".join(lines)
