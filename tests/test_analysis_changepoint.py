"""CUSUM changepoint detection: statistics, calibration, localization."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.analysis.changepoint import (
    MIN_POINTS,
    Changepoint,
    CusumScan,
    cusum_scan,
    detect_changepoint,
    detect_changepoints,
    estimate_sigma,
    onset_interval,
    permutation_threshold,
)
from repro.util.series import TimeSeries


def noisy_series(n, rng, shift_at=None, magnitude=6.0):
    """White noise around 0, optionally shifted up from ``shift_at``."""
    values = rng.normal(0.0, 1.0, size=n)
    if shift_at is not None:
        values[shift_at:] += magnitude
    return values


def random_coefficient_ar(n, rng):
    """x_k = (0.5 + b_k) x_(k-1) + e_k with b_k ~ N(0, 0.3^2), e_k ~ N(0, 1):
    a stationary null with randomly varying persistence."""
    values = np.zeros(n)
    for k in range(1, n):
        values[k] = (0.5 + rng.normal(0.0, 0.3)) * values[k - 1] + rng.normal()
    return values


class TestEstimateSigma:
    def test_constant_series_is_zero(self):
        assert estimate_sigma(np.zeros(50)) == 0.0
        assert estimate_sigma(np.full(50, 7.5)) == 0.0

    def test_too_short_is_zero(self):
        assert estimate_sigma(np.array([3.0])) == 0.0
        assert estimate_sigma(np.array([])) == 0.0

    def test_alternating_series_has_known_scale(self):
        # diff of [0, 2, 0, 2, ...] is +-2 everywhere: sqrt(4/2).
        values = np.array([0.0, 2.0] * 30)
        assert estimate_sigma(values) == pytest.approx(np.sqrt(2.0))

    def test_not_inflated_by_a_level_shift(self):
        flat = np.concatenate([np.zeros(50), np.zeros(50)])
        shifted = np.concatenate([np.zeros(50), np.full(50, 100.0)])
        # One jump among 99 diffs barely moves the estimate; the naive
        # std of the shifted series would be ~50.
        assert estimate_sigma(shifted) < estimate_sigma(flat) + 8.0
        assert np.std(shifted) > 40.0


class TestCusumScan:
    def test_locates_a_clean_shift(self):
        rng = np.random.default_rng(3)
        scan = cusum_scan(noisy_series(200, rng, shift_at=100))
        assert not scan.degenerate
        assert 90 <= scan.index <= 110
        assert scan.statistic > 1.0

    def test_constant_series_is_degenerate(self):
        scan = cusum_scan(np.full(100, 4.0))
        assert scan == CusumScan(statistic=0.0, index=0, sigma=0.0)
        assert scan.degenerate

    def test_short_series_is_degenerate(self):
        assert cusum_scan(np.array([1.0])).degenerate
        assert cusum_scan(np.array([])).degenerate

    def test_accepts_time_series_objects(self):
        series = TimeSeries("queue")
        rng = np.random.default_rng(5)
        for i, v in enumerate(noisy_series(80, rng, shift_at=40)):
            series.append(float(i) * 5.0, float(v))
        scan = cusum_scan(series)
        assert 30 <= scan.index <= 50


class TestPermutationThreshold:
    def test_deterministic_for_a_seed(self):
        rng = np.random.default_rng(11)
        values = noisy_series(120, rng)
        a = permutation_threshold(values, seed=42)
        b = permutation_threshold(values, seed=42)
        assert a == b

    def test_seed_changes_the_draws(self):
        rng = np.random.default_rng(11)
        values = noisy_series(120, rng)
        assert permutation_threshold(values, seed=0) != permutation_threshold(
            values, seed=1
        )

    def test_short_series_is_never_significant(self):
        assert permutation_threshold(np.array([1.0])) == float("inf")

    def test_validates_arguments(self):
        values = np.arange(30, dtype=float)
        with pytest.raises(ValueError, match="n_permutations"):
            permutation_threshold(values, n_permutations=0)
        with pytest.raises(ValueError, match="quantile"):
            permutation_threshold(values, quantile=1.5)


class TestDetectChangepoint:
    def test_finds_an_injected_shift(self):
        rng = np.random.default_rng(7)
        cp = detect_changepoint(noisy_series(200, rng, shift_at=120))
        assert cp is not None
        assert 110 <= cp.index <= 130
        assert cp.shift == pytest.approx(6.0, abs=1.0)
        assert cp.statistic >= cp.threshold

    def test_time_series_onset_is_in_time_units(self):
        series = TimeSeries("queue")
        rng = np.random.default_rng(9)
        for i, v in enumerate(noisy_series(200, rng, shift_at=120)):
            series.append(float(i) * 5.0, float(v))
        cp = detect_changepoint(series)
        assert cp is not None
        assert cp.time == pytest.approx(cp.index * 5.0)
        assert 550.0 <= cp.time <= 650.0

    def test_pure_noise_is_not_flagged(self):
        rng = np.random.default_rng(13)
        assert detect_changepoint(noisy_series(200, rng)) is None

    @pytest.mark.parametrize(
        "null", (noisy_series, random_coefficient_ar), ids=("iid", "rc-ar")
    )
    def test_null_false_positive_rate(self, null):
        # Default calibration on shift-free series: at most 10 of 100
        # length-200 series may be flagged.
        rng = np.random.default_rng(2104)
        flagged = sum(
            detect_changepoint(null(200, rng)) is not None for _ in range(100)
        )
        assert flagged <= 10

    def test_constant_and_short_series_return_none(self):
        assert detect_changepoint(np.full(100, 2.0)) is None
        assert detect_changepoint(np.arange(MIN_POINTS - 1.0)) is None
        assert detect_changepoint(np.array([])) is None

    def test_byte_deterministic(self):
        rng = np.random.default_rng(17)
        values = noisy_series(150, rng, shift_at=75)
        assert detect_changepoint(values) == detect_changepoint(values)


class TestDetectChangepoints:
    def test_covers_both_shifts_sorted(self):
        rng = np.random.default_rng(21)
        values = noisy_series(300, rng)
        values[100:] += 8.0
        values[200:] += 8.0
        found = detect_changepoints(values, min_segment=30)
        # Binary segmentation may add a mid-staircase split, but both
        # true shifts must be localized and the output index-sorted.
        assert len(found) >= 2
        indices = [cp.index for cp in found]
        assert indices == sorted(indices)
        assert any(85 <= i <= 115 for i in indices)
        assert any(185 <= i <= 215 for i in indices)
        assert all(isinstance(cp, Changepoint) for cp in found)

    def test_single_shift_yields_one(self):
        rng = np.random.default_rng(23)
        values = noisy_series(200, rng, shift_at=100, magnitude=8.0)
        found = detect_changepoints(values, min_segment=30)
        assert len(found) == 1

    def test_noise_yields_none(self):
        rng = np.random.default_rng(29)
        assert detect_changepoints(noisy_series(200, rng)) == []

    def test_validates_arguments(self):
        with pytest.raises(ValueError, match="penalty"):
            detect_changepoints(np.zeros(100), penalty=0.0)
        with pytest.raises(ValueError, match="min_segment"):
            detect_changepoints(np.zeros(100), min_segment=1)

    def test_deterministic_regardless_of_repeats(self):
        rng = np.random.default_rng(31)
        values = noisy_series(300, rng)
        values[150:] += 8.0
        assert detect_changepoints(values) == detect_changepoints(values)


class TestOnsetInterval:
    def test_empty_is_none(self):
        assert onset_interval([]) is None

    def test_single_onset_collapses(self):
        assert onset_interval([512.0]) == (512.0, 512.0)

    def test_small_n_gives_full_range(self):
        # n=2: no order statistic can be discarded at 95%.
        assert onset_interval([460.0, 565.0]) == (460.0, 565.0)
        assert onset_interval([5.0, 1.0, 3.0, 2.0, 4.0]) == (1.0, 5.0)

    def test_interval_brackets_the_median(self):
        onsets = [float(t) for t in range(100, 1100, 100)]
        lo, hi = onset_interval(onsets)
        median = (onsets[4] + onsets[5]) / 2.0
        assert lo <= median <= hi
        assert lo >= onsets[0] and hi <= onsets[-1]

    @pytest.mark.parametrize("n", (6, 9, 15, 31))
    def test_covers_the_median_at_the_stated_confidence(self, n):
        # Skewed onsets: Exponential(1), true median ln 2.
        draws = np.random.default_rng(n).exponential(1.0, size=(2000, n))
        covered = sum(
            lo <= math.log(2.0) <= hi for lo, hi in map(onset_interval, draws)
        )
        assert covered / len(draws) >= 0.93

    def test_large_n_tightens(self):
        wide = onset_interval([float(t) for t in range(10)])
        tight = onset_interval([float(t % 10) for t in range(50)])
        assert tight[1] - tight[0] < wide[1] - wide[0]

    def test_validates_confidence(self):
        with pytest.raises(ValueError, match="confidence"):
            onset_interval([1.0], confidence=1.0)
