"""Stability-region bench (Sec. IV-Q1).

Sweeps the demand scale under uniform traffic and checks:

* both controllers are stable at nominal demand (scale 1.0);
* UTIL-BP's maximum stable scale is at least CAP-BP's — giving up the
  idealized maximum-stability guarantee does not cost stability in
  practice at the paper's operating point;
* both destabilize somewhere in the sweep (the capacity region is
  finite).
"""

from repro.experiments.stability import STABILITY, max_stable_scale
from repro.results import run_experiment

SCALES = (1.0, 1.6, 2.2, 2.8)


def _run():
    return run_experiment(STABILITY, scales=SCALES, duration=1200.0)


def test_stability_region(benchmark):
    points = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(STABILITY.render(points))
    util_max = max_stable_scale(points, "util-bp")
    cap_max = max_stable_scale(points, "cap-bp")
    print(f"max stable scale: util-bp {util_max}, cap-bp {cap_max}")
    assert util_max >= 1.0, "UTIL-BP must be stable at nominal demand"
    assert util_max >= cap_max
    # The sweep must actually reach instability for both controllers.
    assert util_max < SCALES[-1] or cap_max < SCALES[-1]
