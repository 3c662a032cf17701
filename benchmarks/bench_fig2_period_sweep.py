"""Fig. 2 — average queuing time vs CAP-BP control period (mixed pattern).

CI-scale regeneration: 10-80 s sweep at reduced segment length on the
mesoscopic engine.  Shape assertions: the sweep has an interior-ish
optimum (short periods pay amber, long periods pay responsiveness) and
UTIL-BP beats every swept period — the figure's message.
"""

from repro.experiments.fig2 import FIG2
from repro.results import run_experiment

PERIODS = (10, 20, 30, 40, 60, 80)


def _run():
    return run_experiment(
        FIG2,
        periods=PERIODS,
        engine="meso",
        segment_duration=450.0,  # 4 x 450 s = 30 min mixed horizon
    )


def test_fig2_shape(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(FIG2.render(result))
    times = result.cap_bp_queuing_times
    # Long periods are clearly worse than the best (right branch rises).
    assert times[-1] > result.best_queuing_time * 1.3
    # The optimum is not at the longest period.
    assert result.best_period != PERIODS[-1]
    # UTIL-BP beats the entire sweep (the figure's headline).
    assert result.util_beats_best
    assert result.util_bp_queuing_time < min(times)
