"""Batch statistics, observable time series, and blow-up detection."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import oracle
from .core import EnsembleResult
from .representations import OBSERVABLE_NAMES, observable_estimate_complex

__all__ = [
    "ObservableSeries",
    "observable_series",
    "correlation_series",
    "detect_blowup",
]


@dataclass
class ObservableSeries:
    """One observable's estimate against time, with batch standard errors.

    ``exact`` carries the closed-form curve of the run's physics, which
    every coupling schedule has.
    ``n_batches_used`` counts the batches contributing at each sample;
    it drops below the configured count when batches die out or, for the
    correlation, when a batch's variance estimate is not positive.
    """

    name: str
    method: str
    times: np.ndarray
    mean: np.ndarray
    stderr: np.ndarray
    live_fraction: np.ndarray
    n_batches_used: np.ndarray
    exact: np.ndarray

    @property
    def stderr_reliable(self) -> np.ndarray:
        """False from the first sample where any trajectory has died.

        Batch spread only measures sampling error while every trajectory
        still contributes; after the first loss the estimate is biased by
        survivorship, so it is flagged from that sample onward.
        """
        lost = np.asarray(self.live_fraction, dtype=float) < 1.0
        return ~np.maximum.accumulate(lost)


def observable_series(result: EnsembleResult, name: str) -> ObservableSeries:
    """Estimate one observable at every sample time of an ensemble run.

    The ordering corrections are those of ``result.method``: the method
    that produced the moments fixes each mode's ordering.
    Per-batch estimates are formed from each batch's live moment means;
    the series is their mean and ddof=1 standard error over the batches
    with a finite estimate (a single such batch gives a mean and no
    error).  Dead batches are dropped; for the correlation coefficient,
    batches whose variance product is not positive are dropped too (with
    a warning).  A warning is also emitted when the imaginary residual of
    the estimate is statistically inconsistent with zero, which signals a
    sampling or dynamics inconsistency.
    """
    if name not in OBSERVABLE_NAMES:
        raise ValueError(f"unknown observable {name!r}")

    n_samples = result.n_samples
    mean = np.full(n_samples, np.nan)
    stderr = np.full(n_samples, np.nan)
    worst_im = 0.0

    vals = np.asarray(observable_estimate_complex(
        name, result.moment_means(), result.method), dtype=complex)
    if name == "C_Na_Yb" and result.config.N_a0 == 0:
        # V(N_a) = N_a0 = 0 is conserved, so the correlation is undefined
        # even where a batch's sampled variance comes out positive.
        vals[:] = np.nan
    finite = np.isfinite(vals)
    alive = result.live_counts > 0
    dropped_alive = int(np.count_nonzero(alive & ~finite))
    used = np.count_nonzero(finite, axis=1)

    # Rows with k finite batches form one group: their finite values, in
    # batch order, make a (rows, k) array reduced along axis 1, which adds
    # each row in the same order as a 1-D reduction of that row.
    for k in np.unique(used[used > 0]):
        rows = used == k
        re = vals.real[rows][finite[rows]].reshape(-1, k)
        mean[rows] = re.mean(axis=1)
        if k < 2:
            continue
        im = vals.imag[rows][finite[rows]].reshape(-1, k)
        root = math.sqrt(k)
        stderr[rows] = re.std(axis=1, ddof=1) / root
        cap = 10.0 * (im.std(axis=1, ddof=1) / root)
        floor = 1e-8 * (1.0 + np.abs(mean[rows]))
        # np.where, not np.maximum: the larger of the two, but cap whenever
        # either is NaN.
        excess = np.abs(im.mean(axis=1)) - np.where(floor > cap, floor, cap)
        excess = excess[~np.isnan(excess)]
        if excess.size:
            worst_im = max(worst_im, float(excess.max()))

    if dropped_alive:
        warnings.warn(
            f"{name}: dropped {dropped_alive} live batch estimates with no "
            "finite value (non-positive variance product)", stacklevel=2)
    if worst_im > 0:
        warnings.warn(
            f"{name}: imaginary residual inconsistent with zero "
            f"(excess {worst_im:.3g}); check sampling or dynamics",
            stacklevel=2)

    physics = oracle.OracleParams.of(result.params, result.config)
    return ObservableSeries(
        name=name,
        method=result.method.method,
        times=np.asarray(result.times, dtype=float),
        mean=mean,
        stderr=stderr,
        live_fraction=np.asarray(result.live_fraction, dtype=float),
        n_batches_used=used,
        exact=np.asarray(oracle.exact_series(name, result.times, physics),
                         dtype=float),
    )


def correlation_series(result: EnsembleResult) -> ObservableSeries:
    """The number-quadrature correlation coefficient against time."""
    return observable_series(result, "C_Na_Yb")


BLOWUP_WINDOW = 20
BLOWUP_FACTOR = 10.0


def detect_blowup(series: ObservableSeries) -> float | None:
    """Earliest sampling-breakdown time of a series, or None.

    Breakdown is flagged at the earlier of (a) the live fraction dipping
    below 0.999 and (b) the standard error exceeding
    ``BLOWUP_FACTOR`` times the median standard error over the preceding
    ``BLOWUP_WINDOW`` samples.  The error rule needs at least three finite
    preceding values and a positive median, so a quiet start can never
    trigger it.
    """
    candidates = []
    lf = np.asarray(series.live_fraction, dtype=float)
    below = np.nonzero(lf < 0.999)[0]
    if below.size:
        candidates.append(float(series.times[below[0]]))

    se = np.asarray(series.stderr, dtype=float)
    if se.size:
        # Row i holds se[i - BLOWUP_WINDOW:i], NaN-padded before the start,
        # with non-finite values as NaN.
        prev = np.concatenate([np.full(BLOWUP_WINDOW, np.nan),
                               np.where(np.isfinite(se), se, np.nan)])
        rows = np.sort(sliding_window_view(prev[:-1], BLOWUP_WINDOW), axis=1)
        k = np.count_nonzero(~np.isnan(rows), axis=1)
        # The median of a row's k finite values, which sort first: its middle
        # two summed and halved, as np.nanmedian does for either parity.
        i = np.arange(se.size)
        med = (rows[i, (k - 1) // 2] + rows[i, k // 2]) / 2
        hits = np.nonzero((k >= 3) & (med > 0.0) & np.isfinite(se)
                          & (se > BLOWUP_FACTOR * med))[0]
        if hits.size:
            candidates.append(float(series.times[hits[0]]))

    return min(candidates) if candidates else None
