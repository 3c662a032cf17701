"""CUSUM changepoint statistics over queue-length time series.

The detector answers one question about a sampled series: *did the
mean level shift somewhere, and if so, where?*  The statistic is the
classical standardized CUSUM (Horvath & Trapani, arXiv:2104.13440):

.. math::

    T_k = \\frac{|S_k - (k/n) S_n|}{\\hat\\sigma \\sqrt{n}},
    \\qquad S_k = \\sum_{i \\le k} x_i,

with the noise scale :math:`\\hat\\sigma` estimated from first
differences (robust to the very mean shifts being tested).  The max
over ``k`` locates the most likely changepoint; whether that max is
*significant* is calibrated per series by a circular block permutation
null (:func:`permutation_threshold`): shuffling fixed-length blocks of
the observed series preserves its short-range autocorrelation while
destroying the placement of any trend, which is exactly the
distribution-free null the queue traces need — they are strongly
persistent, so an i.i.d. null would wildly over-detect.

Multiple changepoints come from penalized binary segmentation
(:func:`detect_changepoints`): recursively split at the best CUSUM
point while the segment statistic clears ``penalty x`` its own
permutation threshold and both children stay viable.

Aggregation across seeds uses the distribution-free order-statistic
confidence interval for the median onset (:func:`onset_interval`),
after Hore & Ramdas (arXiv:2602.06267): no normality assumption, exact
coverage from the binomial sign-test inversion.

Everything is deterministic: permutations draw from
``numpy.random.default_rng`` seeded by the caller (per-segment seeds
are derived from the segment bounds), and no wall-clock enters any
code path — identical inputs give byte-identical verdicts on any host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.util.series import TimeSeries

__all__ = [
    "Changepoint",
    "CusumScan",
    "cusum_scan",
    "detect_changepoint",
    "detect_changepoints",
    "estimate_sigma",
    "onset_interval",
    "permutation_threshold",
]

#: Fewest samples a series needs before the statistic means anything.
MIN_POINTS = 20

SeriesLike = Union[TimeSeries, Sequence[float], np.ndarray]


def _as_values(series: SeriesLike) -> np.ndarray:
    """Coerce a series-like input to a float array of sample values."""
    if isinstance(series, TimeSeries):
        return np.asarray(series.values, dtype=float)
    return np.asarray(series, dtype=float)


def _times_of(series: SeriesLike, n: int) -> np.ndarray:
    """Sample times for ``series`` (sample indices when none exist)."""
    if isinstance(series, TimeSeries):
        return np.asarray(series.times, dtype=float)
    return np.arange(n, dtype=float)


def estimate_sigma(values: np.ndarray) -> float:
    """Noise scale from first differences: ``sqrt(mean(diff^2) / 2)``.

    Differencing removes any (piecewise-)constant mean, so the
    estimate is not inflated by the level shift under test — the
    standard trick for CUSUM standardization on shifted series.
    Returns 0.0 for constant or too-short series.
    """
    if len(values) < 2:
        return 0.0
    d = np.diff(values)
    return float(np.sqrt(np.mean(d * d) / 2.0))


@dataclass(frozen=True)
class CusumScan:
    """The standardized CUSUM scan of one series."""

    #: ``max_k T_k`` — the evidence for a mean shift.
    statistic: float
    #: The arg-max sample index (last index *before* the shift).
    index: int
    #: The first-difference noise scale used to standardize.
    sigma: float

    @property
    def degenerate(self) -> bool:
        """True when the series carried no usable variation."""
        return self.sigma <= 0.0


def cusum_scan(series: SeriesLike) -> CusumScan:
    """Scan a series for its best mean-shift candidate.

    Returns the maximum standardized CUSUM statistic and the index it
    occurs at (the proposed last pre-shift sample).  A constant (or
    near-constant) series has ``sigma == 0`` and scans to a degenerate
    zero-statistic result rather than raising.
    """
    values = _as_values(series)
    n = len(values)
    if n < 2:
        return CusumScan(statistic=0.0, index=0, sigma=0.0)
    sigma = estimate_sigma(values)
    if sigma <= 0.0:
        return CusumScan(statistic=0.0, index=0, sigma=0.0)
    partial = np.cumsum(values)
    k = np.arange(1, n + 1, dtype=float)
    curve = np.abs(partial - (k / n) * partial[-1]) / (sigma * math.sqrt(n))
    # k == n is identically zero and k cannot split the series there;
    # restrict the arg max to proper split points.
    index = int(np.argmax(curve[:-1]))
    return CusumScan(statistic=float(curve[index]), index=index, sigma=sigma)


def permutation_threshold(
    series: SeriesLike,
    n_permutations: int = 199,
    quantile: float = 0.95,
    block_length: int = 12,
    seed: int = 0,
) -> float:
    """Calibrate the CUSUM detection threshold by block permutation.

    Draws ``n_permutations`` circular block resamples of the observed
    values (blocks of ``block_length`` consecutive samples, wrapped
    around), scans each, and returns the requested ``quantile`` of the
    null statistics.  Block resampling keeps the series' short-range
    autocorrelation in the null — a plain value shuffle would make the
    persistent queue traces look significant everywhere — while
    destroying any global trend, which is the alternative under test.

    Fully deterministic for a given ``seed`` (``numpy``'s
    ``default_rng``; no global RNG state is touched).
    """
    values = _as_values(series)
    n = len(values)
    if n < 2:
        return float("inf")
    if n_permutations < 1:
        raise ValueError(
            f"n_permutations must be >= 1, got {n_permutations}"
        )
    if not 0.0 < quantile < 1.0:
        raise ValueError(f"quantile must be in (0, 1), got {quantile}")
    block = max(1, min(int(block_length), n))
    rng = np.random.default_rng(seed)
    n_blocks = int(math.ceil(n / block))
    offsets = np.arange(block)
    stats = np.empty(n_permutations, dtype=float)
    for p in range(n_permutations):
        starts = rng.integers(0, n, size=n_blocks)
        idx = (starts[:, None] + offsets[None, :]).ravel()[:n] % n
        stats[p] = cusum_scan(values[idx]).statistic
    return float(np.quantile(stats, quantile))


@dataclass(frozen=True)
class Changepoint:
    """One detected mean shift in a series."""

    #: Last sample index before the shift.
    index: int
    #: Sample time of :attr:`index` (the onset estimate).
    time: float
    #: The standardized CUSUM statistic at the split.
    statistic: float
    #: The calibrated threshold the statistic cleared.
    threshold: float
    #: Mean of the samples up to and including :attr:`index`.
    mean_before: float
    #: Mean of the samples after :attr:`index`.
    mean_after: float

    @property
    def shift(self) -> float:
        """Signed mean shift (positive = the level went up)."""
        return self.mean_after - self.mean_before


def _changepoint_at(
    values: np.ndarray,
    times: np.ndarray,
    index: int,
    statistic: float,
    threshold: float,
) -> Changepoint:
    before = values[: index + 1]
    after = values[index + 1 :]
    return Changepoint(
        index=index,
        time=float(times[index]),
        statistic=statistic,
        threshold=threshold,
        mean_before=float(before.mean()),
        mean_after=float(after.mean()),
    )


def detect_changepoint(
    series: SeriesLike,
    min_points: int = MIN_POINTS,
    n_permutations: int = 199,
    quantile: float = 0.95,
    block_length: int = 12,
    seed: int = 0,
) -> Optional[Changepoint]:
    """Detect the single most likely mean shift, or ``None``.

    ``None`` means "no significant shift": the series is shorter than
    ``min_points``, constant, or its CUSUM maximum does not clear the
    block-permutation threshold.  The caller decides what that means
    (for stability analysis: the run looks stable or carries too
    little data).
    """
    values = _as_values(series)
    n = len(values)
    if n < max(min_points, 2):
        return None
    scan = cusum_scan(values)
    if scan.degenerate:
        return None
    threshold = permutation_threshold(
        values,
        n_permutations=n_permutations,
        quantile=quantile,
        block_length=block_length,
        seed=seed,
    )
    if scan.statistic < threshold:
        return None
    times = _times_of(series, n)
    return _changepoint_at(
        values, times, scan.index, scan.statistic, threshold
    )


def detect_changepoints(
    series: SeriesLike,
    max_changepoints: int = 5,
    min_segment: int = MIN_POINTS,
    penalty: float = 1.0,
    n_permutations: int = 199,
    quantile: float = 0.95,
    block_length: int = 12,
    seed: int = 0,
) -> List[Changepoint]:
    """Locate multiple mean shifts by penalized binary segmentation.

    Recursively splits the series at its strongest CUSUM point while
    the segment statistic clears ``penalty x`` the segment's own
    permutation threshold and both children keep at least
    ``min_segment`` samples.  ``penalty > 1`` demands proportionally
    stronger evidence per extra changepoint — the knob trading
    sensitivity for parsimony.  Results are sorted by index.

    Per-segment permutation seeds are derived from ``(seed, lo, hi)``,
    so the full segmentation is deterministic regardless of recursion
    order.
    """
    if penalty <= 0.0:
        raise ValueError(f"penalty must be > 0, got {penalty}")
    if min_segment < 2:
        raise ValueError(f"min_segment must be >= 2, got {min_segment}")
    values = _as_values(series)
    times = _times_of(series, len(values))
    found: List[Changepoint] = []

    def split(lo: int, hi: int) -> None:
        """Recurse on ``values[lo:hi]``, appending accepted splits."""
        if len(found) >= max_changepoints:
            return
        segment = values[lo:hi]
        if len(segment) < 2 * min_segment:
            return
        scan = cusum_scan(segment)
        if scan.degenerate:
            return
        threshold = penalty * permutation_threshold(
            segment,
            n_permutations=n_permutations,
            quantile=quantile,
            block_length=block_length,
            seed=(seed, lo, hi),
        )
        if scan.statistic < threshold:
            return
        index = lo + scan.index
        if index + 1 - lo < min_segment or hi - (index + 1) < min_segment:
            return
        found.append(
            _changepoint_at(
                values[lo:hi],
                times[lo:hi],
                scan.index,
                scan.statistic,
                threshold,
            )
        )
        # Re-anchor the recorded changepoint to absolute coordinates.
        local = found[-1]
        found[-1] = Changepoint(
            index=index,
            time=float(times[index]),
            statistic=local.statistic,
            threshold=local.threshold,
            mean_before=local.mean_before,
            mean_after=local.mean_after,
        )
        split(lo, index + 1)
        split(index + 1, hi)

    split(0, len(values))
    return sorted(found, key=lambda cp: cp.index)


def onset_interval(
    onsets: Sequence[float], confidence: float = 0.95
) -> Optional[Tuple[float, float]]:
    """Distribution-free confidence interval for the median onset.

    Given per-seed onset times, inverts the binomial sign test: the
    interval ``[x_(k), x_(n+1-k)]`` (1-based order statistics) covers
    the true median with probability ``1 - 2 P(Bin(n, 1/2) <= k - 1)``,
    and ``k`` is the largest index keeping that one-sided tail within
    ``(1 - confidence) / 2``.  No distributional assumption on the
    onsets.  The ``confidence`` guarantee needs ``n >= 6`` at the
    default 0.95; for smaller ``n`` no order statistic can be dropped
    and the full range, with coverage ``1 - 2**(1 - n)``, is the best
    possible interval.  Returns ``None`` for an empty input.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    n = len(onsets)
    if n == 0:
        return None
    ordered = sorted(float(t) for t in onsets)
    alpha = (1.0 - confidence) / 2.0
    tail = 0.0
    depth = 0
    for i in range(n):
        tail += math.comb(n, i) * 0.5**n
        if tail <= alpha:
            depth = i + 1
        else:
            break
    # depth < n/2 always, so both indices stay in range; depth 0 means
    # no order statistic can be dropped and the full range is returned.
    k = max(depth, 1)
    return ordered[k - 1], ordered[n - k]
