"""Fig. 5 — queue length at the east incoming road of the top-right node.

Shape assertion: UTIL-BP keeps the queue shorter than CAP-BP *in
general* (the paper's wording).  A single-road queue trace is a noisy
statistic of one Poisson sample path, so the comparison averages over
three seeds and requires the seed-averaged mean queue to be lower.
"""

from repro.experiments.fig5 import FIG5
from repro.results import run_experiment

DURATION = 800.0
SEEDS = (1, 2, 3)


def _run():
    return [
        run_experiment(
            FIG5, engine="meso", duration=DURATION, cap_bp_period=18.0, seed=seed
        )
        for seed in SEEDS
    ]


def test_fig5_util_bp_shorter_queue(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    print()
    print(FIG5.render(results[0]))
    cap_mean = sum(r.cap_bp_trace.mean() for r in results) / len(results)
    util_mean = sum(r.util_bp_trace.mean() for r in results) / len(results)
    print(
        f"seed-averaged mean queue over {len(SEEDS)} seeds: "
        f"CAP-BP {cap_mean:.2f}, UTIL-BP {util_mean:.2f}"
    )
    for result in results:
        assert len(result.cap_bp_trace.series) == len(
            result.util_bp_trace.series
        )
    assert util_mean < cap_mean, (
        f"UTIL-BP seed-averaged mean queue {util_mean:.2f} not below "
        f"CAP-BP {cap_mean:.2f}"
    )
