"""Fig. 4 — applied phases under UTIL-BP (top-right node, Pattern I).

Shape assertions matching the paper's reading of the figure:

* phase lengths *vary* (the adaptive mechanism at work), unlike the
  fixed-length CAP-BP slots of Fig. 3;
* with heavy north/south traffic, the north/south phases (c1 straight+
  left, c2 right) together receive more green time than the east/west
  phases (c3, c4).
"""

from repro.experiments.fig34 import FIG34
from repro.results import run_experiment
from repro.util.series import render_series

DURATION = 800.0


def _run():
    return run_experiment(FIG34, engine="meso", duration=DURATION)


def test_fig4_utilbp_adaptive_phases(benchmark):
    result = benchmark.pedantic(_run, rounds=1, iterations=1)
    trace = result.util_bp_trace
    print()
    print(
        render_series(
            [trace.as_series(DURATION)],
            height=8,
            title="Fig. 4 — UTIL-BP phases, J02, Pattern I",
        )
    )
    greens = [
        end - start
        for start, end, phase in trace.intervals(DURATION)
        if phase != 0
    ]
    assert len(greens) >= 5
    # Varying-length phases: not all applications are (near) equal.
    assert max(greens) > 2.0 * min(greens)
    durations = trace.phase_durations(DURATION)
    north_south = durations.get(1, 0.0) + durations.get(2, 0.0)
    east_west = durations.get(3, 0.0) + durations.get(4, 0.0)
    # Pattern I is north-heavy: N/S phases dominate (paper's reading).
    assert north_south > east_west
