"""The benchmark's workloads: sweep grids whose cell seeds derive from one seed.

Load is a closed loop from one process, the way a serial sweep runs:
each workload is cut into rounds of cells, and a round goes to a
serial ``ExperimentPool`` only after the previous one has finished.  The
program receives nothing but the ``RunSpec`` s these grids expand to.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.orchestration.spec import RunSpec, SweepGrid

#: Seed used when ``--seed`` is not given; reference digests are for it.
DEFAULT_SEED = 1

#: Simulated horizon of every cell, seconds.
HORIZON = 600.0

#: The paper's traffic patterns (Table III).
PAPER_PATTERNS = ("I", "II", "III", "IV", "mixed")

#: Period of the fixed-slot controllers in ``paper-mix``.
FIXED_SLOT_PERIOD = 18


@dataclass(frozen=True)
class Workload:
    """A named workload: the grids of each round, given its cell seeds."""

    name: str
    why: str
    seeds_per_round: int
    #: ``grids(round_index, seeds)``: the grids of one round.
    grids: Callable[[int, Tuple[int, ...]], Tuple[SweepGrid, ...]]
    #: Rounds every pass runs, traced or not: fixed work, so that every
    #: run measures the same cells and per-layer totals compare.
    rounds: int


def _serial_utilbp(index: int, seeds: Tuple[int, ...]) -> Tuple[SweepGrid, ...]:
    return (
        SweepGrid(
            scenarios=("steady-3x3", "surge-4x4", "incident-3x3", "tidal-3x3"),
            controllers=("util-bp",),
            seeds=seeds,
            engines=("meso-counts",),
            durations=(HORIZON,),
        ),
    )


def _batched_vec(index: int, seeds: Tuple[int, ...]) -> Tuple[SweepGrid, ...]:
    return (
        SweepGrid(
            scenarios=(
                ("steady-10x10", {"load": 0.1}),
                ("steady-10x10", {"load": 1.0}),
            ),
            controllers=("util-bp",),
            seeds=seeds,
            engines=("meso-vec",),
            durations=(HORIZON,),
        ),
    )


def _paper_mix(index: int, seeds: Tuple[int, ...]) -> Tuple[SweepGrid, ...]:
    # One pattern per round, so a round's export digest covers one pattern.
    pattern = (PAPER_PATTERNS[index % len(PAPER_PATTERNS)],)
    period = {"period": FIXED_SLOT_PERIOD}
    return (
        SweepGrid(
            patterns=pattern,
            controllers=(
                "util-bp",
                ("cap-bp", period),
                ("original-bp", period),
                ("fixed-time", period),
            ),
            seeds=seeds,
            engines=("meso",),
            durations=(HORIZON,),
            record_entry_queues=-1,
        ),
        SweepGrid(
            patterns=pattern,
            controllers=("util-bp", ("cap-bp", period)),
            seeds=seeds,
            engines=("micro",),
            durations=(HORIZON,),
            record_entry_queues=-1,
        ),
    )


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="serial-utilbp",
            why=(
                "scalar UTIL-BP on meso-counts over four small catalog grids: "
                "the controller dominates a cell and no batch kernel runs"
            ),
            seeds_per_round=1,
            grids=_serial_utilbp,
            rounds=40,
        ),
        Workload(
            name="batched-vec",
            why=(
                "B=16 meso-vec batches of steady-10x10 at load 0.1 and 1.0: "
                "batch kernel, cohort transit and grid rebuilds; no scalar controller"
            ),
            seeds_per_round=16,
            grids=_batched_vec,
            rounds=3,
        ),
        Workload(
            name="paper-mix",
            why=(
                "the paper's patterns under four controllers on meso and two on "
                "micro, with entry-queue traces: per-vehicle engines, store, analysis"
            ),
            # Two seeds give 20 micro cells among 60, so the tail (10 cells
            # beyond it) falls inside the micro cells, not on the slowest
            # meso cell.
            seeds_per_round=2,
            grids=_paper_mix,
            rounds=len(PAPER_PATTERNS),
        ),
    )
}


class CellSource:
    """The rounds of cells a workload runs for one benchmark seed.

    Cell seeds are drawn from a generator seeded by the workload name
    and the benchmark seed, and never repeat within a source, so every
    cell of a run is distinct and a fresh store never serves a hit
    during the execute phase.
    """

    def __init__(self, workload: Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self._rng = random.Random(f"perfbench:{workload.name}:{seed}")
        self._seen: set = set()
        self._rounds: List[Tuple[int, ...]] = []

    def seeds(self, index: int) -> Tuple[int, ...]:
        """The cell seeds of round ``index``."""
        while len(self._rounds) <= index:
            drawn: List[int] = []
            while len(drawn) < self.workload.seeds_per_round:
                seed = self._rng.randrange(1, 2**31)
                if seed not in self._seen:
                    self._seen.add(seed)
                    drawn.append(seed)
            self._rounds.append(tuple(drawn))
        return self._rounds[index]

    def specs(self, index: int) -> Tuple[RunSpec, ...]:
        """The expanded cells of round ``index``, in grid order."""
        return tuple(
            spec
            for grid in self.workload.grids(index, self.seeds(index))
            for spec in grid.specs()
        )
