"""The paper's full evaluation protocol (Sec. V) in one script.

Reproduces Table III and Figure 2 on the chosen engine.  The full
paper horizons (1 h per pattern, 4 h mixed) on the microscopic engine
take a while; ``--scale 0.25`` runs quarter horizons.

Run:  python examples/paper_evaluation.py --engine meso --scale 0.5
"""

import argparse

from repro.experiments.fig2 import FIG2
from repro.experiments.table3 import TABLE3
from repro.results import run_experiment


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--engine",
        choices=("meso", "micro"),
        default="meso",
        help="simulation engine (micro = paper-faithful, meso = fast)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="fraction of the paper's horizons to simulate",
    )
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    print(f"engine={args.engine}, horizon scale={args.scale}\n")

    rows = run_experiment(
        TABLE3,
        engine=args.engine,
        seed=args.seed,
        duration_scale=args.scale,
    )
    print(TABLE3.render(rows))
    mean = sum(r.improvement_percent for r in rows) / len(rows)
    print(f"mean improvement: {mean:.1f}% (paper: ~13%)\n")

    fig2 = run_experiment(
        FIG2,
        engine=args.engine,
        seed=args.seed,
        segment_duration=3600.0 * args.scale,
    )
    print(FIG2.render(fig2))


if __name__ == "__main__":
    main()
