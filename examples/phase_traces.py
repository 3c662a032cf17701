"""Figures 3-5: phase and queue traces at the top-right intersection.

Reruns Pattern I for 2000 s under CAP-BP (optimal period) and UTIL-BP,
then renders the applied-phase staircases (Figs. 3-4) and the east-
approach queue trace (Fig. 5) as ASCII charts.

Run:  python examples/phase_traces.py --engine micro
"""

import argparse

from repro.experiments.fig34 import FIG34
from repro.experiments.fig5 import FIG5
from repro.results import run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--engine", choices=("meso", "micro"), default="micro")
    parser.add_argument("--duration", type=float, default=2000.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    result34 = run_experiment(
        FIG34, engine=args.engine, duration=args.duration, seed=args.seed
    )
    print(FIG34.render(result34))
    print()
    result5 = run_experiment(
        FIG5, engine=args.engine, duration=args.duration, seed=args.seed
    )
    print(FIG5.render(result5))


if __name__ == "__main__":
    main()
