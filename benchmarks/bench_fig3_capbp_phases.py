"""Fig. 3 — applied phases under fixed-length CAP-BP (top-right node).

Shape assertion: CAP-BP's control-phase applications are rigid — every
green interval is (a multiple of) the fixed period, so the *variance*
of phase lengths is small and the mean tracks the configured period.
"""

import pytest

from repro.experiments.fig34 import FIG34
from repro.results import run_experiment
from repro.util.series import render_series

DURATION = 800.0
PERIOD = 18.0


def _run():
    return run_experiment(
        FIG34, engine="meso", duration=DURATION, cap_bp_period=PERIOD
    )


def test_fig3_capbp_fixed_length_phases(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    trace = result.cap_bp_trace
    print()
    print(
        render_series(
            [trace.as_series(DURATION)],
            height=8,
            title=f"Fig. 3 — CAP-BP (period {PERIOD:.0f}s) phases, J02, Pattern I",
        )
    )
    intervals = trace.intervals(DURATION)
    # The final interval is truncated by the horizon; drop it.
    greens = [
        end - start
        for start, end, phase in intervals[:-1]
        if phase != 0
    ]
    assert greens, "CAP-BP never showed a control phase"
    # Every application lasts at least one period (extensions are
    # multiples when the same phase is re-selected).
    assert min(greens) >= PERIOD - 1e-6
    mean = sum(greens) / len(greens)
    assert mean == pytest.approx(PERIOD, rel=0.8)
    # All four phases appear over the horizon.
    applied = {
        phase for _, _, phase in trace.intervals(DURATION) if phase != 0
    }
    assert applied == {1, 2, 3, 4}
