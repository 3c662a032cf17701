"""Collect the reproduction numbers recorded in EXPERIMENTS.md.

Runs every table/figure driver and prints a consolidated report:

* Table III + Fig. 2 at the paper's full horizons on the mesoscopic
  engine;
* Table III (patterns I and IV) and Figs. 3-5 at reduced horizons on
  the microscopic engine (the SUMO substitute);
* all ablation studies.

Every driver is an :class:`repro.results.ExperimentDefinition` whose
cells go through one shared :class:`repro.orchestration.ExperimentPool`
— so ``--workers N`` runs the independent cells N-wide, and
``--store FILE`` backs the pool with one shared
:class:`repro.results.ResultStore`: an interrupted collection
resumes by computing only the missing cells, and cells common to
several drivers are simulated exactly once.

Usage: python scripts/collect_results.py [--workers N] [--store FILE]
"""

import argparse
import time

from repro.experiments.ablations import ABLATION_EXPERIMENT, ABLATIONS
from repro.experiments.fig2 import FIG2
from repro.experiments.fig34 import FIG34
from repro.experiments.fig5 import FIG5
from repro.experiments.table3 import TABLE3
from repro.orchestration import ExperimentPool
from repro.results import run_experiment


def banner(title: str) -> None:
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the sweep pool (1 = serial)",
    )
    parser.add_argument(
        "--store", default=None, metavar="FILE",
        help=(
            "SQLite result store shared by every driver; completed "
            "cells are never re-simulated"
        ),
    )
    args = parser.parse_args()
    pool = ExperimentPool(workers=args.workers, store=args.store)

    start = time.time()

    banner("Table III — meso engine, full paper horizons (1 h / 4 h mixed)")
    rows = run_experiment(TABLE3, pool=pool, engine="meso")
    print(TABLE3.render(rows))
    mean = sum(r.improvement_percent for r in rows) / len(rows)
    print(f"mean improvement: {mean:.1f}% (paper: ~13%)")

    banner("Fig. 2 — meso engine, full mixed horizon (4 h), 10-80 s sweep")
    print(FIG2.render(run_experiment(FIG2, pool=pool, engine="meso")))

    banner("Table III — micro engine, patterns I/IV, 30 min horizons")
    rows_micro = run_experiment(
        TABLE3,
        pool=pool,
        patterns=("I", "IV"),
        engine="micro",
        periods=(14.0, 18.0, 22.0),
        duration_scale=0.5,
    )
    print(TABLE3.render(rows_micro))

    banner("Figs. 3-4 — micro engine, Pattern I, 2000 s")
    print(FIG34.render(run_experiment(FIG34, pool=pool, engine="micro")))

    banner("Fig. 5 — micro engine, Pattern I, 2000 s")
    print(FIG5.render(run_experiment(FIG5, pool=pool, engine="micro")))

    banner("Ablations — meso engine, Pattern I, 1800 s")
    for study in ABLATIONS:
        points = run_experiment(ABLATION_EXPERIMENT, pool=pool, study=study)
        print(ABLATION_EXPERIMENT.render(points))
        print()

    print(
        f"\ntotal wall time: {time.time() - start:.0f} s  "
        f"(cells executed: {pool.stats.executed}, "
        f"cache hits: {pool.stats.cache_hits}, workers: {pool.workers})"
    )


if __name__ == "__main__":
    main()
