"""One pass of a workload against a fresh store, in three phases.

* **execute** — each of the workload's rounds of cells goes to one
  serial ``ExperimentPool``.  A cell's latency runs from the start of
  the work unit that produced it to its ``on_cell`` callback.
* **resume** — a new pool re-issues every executed cell against the
  now-warm store; each one must be a hit.
* **analyze** — ``analyze_store`` runs over the store
  :data:`ANALYZE_REPEATS` times; its verdicts must not change.

Every pass of a workload runs the same fixed rounds.  The untraced pass
gives the end-to-end metrics; a traced pass gives the per-layer ones.
"""

from __future__ import annotations

import shutil
import statistics
import sqlite3
import sys
import tempfile
import time
import traceback
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis import stability
from repro.orchestration.pool import ExperimentPool
from repro.orchestration.spec import BatchRunSpec, RunSpec
from repro.results.store import ResultStore

from perfbench import layers
from perfbench.checks import conservation_error, round_digests, shape_error
from perfbench.stats import Tally
from perfbench.tracing import Tracer, patch
from perfbench.workloads import CellSource


#: End-to-end metrics in report order: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "cell_s_p50": "s",
    "cell_s_tail": "s",
    "peak_rss_mb": "MB",
    "store_kb_per_cell": "KB",
}

#: ``analyze_store`` calls per pass; each must return the first's verdicts.
ANALYZE_REPEATS = 2


@dataclass
class PassResult:
    """What one pass measured."""

    #: Per round: its cells and the seconds ``pool.run`` took on them.
    rounds: List[Tuple[Tuple[RunSpec, ...], float]] = field(default_factory=list)
    cells: int = 0
    latencies: List[float] = field(default_factory=list)
    store_bytes: int = 0
    payload: Dict[str, float] = field(default_factory=dict)
    digests: List[str] = field(default_factory=list)
    pool_counts: Dict[str, int] = field(
        default_factory=lambda: {"executed": 0, "store_hits": 0}
    )
    wall_s: float = 0.0

    @property
    def execute_s(self) -> float:
        """Seconds spent inside ``pool.run`` during the execute phase."""
        return sum(seconds for _, seconds in self.rounds)


class _UnitClock:
    """Notes when each work unit starts; tells a tracer the unit's id."""

    def __init__(self, tracer: Optional[Tracer]):
        self.tracer = tracer
        self.start = 0.0
        self.count = 0

    def __call__(self, execute: Callable) -> Callable:
        def timed(*args: Any, **kwargs: Any) -> Any:
            self.count += 1
            if self.tracer is not None:
                self.tracer.unit = self.count
            self.start = time.perf_counter()
            try:
                return execute(*args, **kwargs)
            finally:
                if self.tracer is not None:
                    self.tracer.unit = -1

        return timed


def _checked_scenarios(tally: Tally) -> Callable[[Callable], Callable]:
    """Wrap ``RunSpec.make_scenario`` to check every network built."""

    def make(build: Callable) -> Callable:
        def checked(spec: RunSpec) -> Any:
            scenario = build(spec)
            error = shape_error(spec, scenario)
            if error is not None:
                _fail(tally, spec, error)
            return scenario

        return checked

    return make


def _fail(tally: Tally, spec: RunSpec, reason: str) -> None:
    """Count ``spec`` as failed, keyed by its hash and shown by its label."""
    tally.fail(spec.spec_hash(), reason, spec.label())


def _store_bytes(path: Path) -> int:
    """Main file plus write-ahead log: what the store occupies on disk."""
    wal = path.with_name(path.name + "-wal")
    return path.stat().st_size + (wal.stat().st_size if wal.exists() else 0)


def _store_payload(path: Path) -> Dict[str, float]:
    """Mean result payload (KB) and total row bytes written to the store."""
    with closing(sqlite3.connect(f"file:{path}?mode=ro", uri=True)) as conn:
        cells, result_bytes, row_bytes = conn.execute(
            "SELECT COUNT(*), SUM(LENGTH(result_json)), "
            "SUM(LENGTH(result_json) + LENGTH(spec_json)) FROM results"
        ).fetchone()
    return {
        "payload_kb": (result_bytes or 0) / 1024 / cells if cells else 0.0,
        "bytes": float(row_bytes or 0),
    }


def run_pass(
    source: CellSource, out_dir: Path, tally: Tally, tracer: Optional[Tracer] = None
) -> PassResult:
    """Run the workload's rounds, then its resume and analyze phases."""
    workload = source.workload
    result = PassResult()
    clock = _UnitClock(tracer)
    undo = layers.install(tracer) if tracer is not None else []
    undo += [
        patch(RunSpec, "execute", clock),
        patch(BatchRunSpec, "execute", clock),
        patch(RunSpec, "make_scenario", _checked_scenarios(tally)),
    ]
    store_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=out_dir))
    path = store_dir / "results.sqlite"
    try:
        started = time.perf_counter()
        executed: List[RunSpec] = []
        with ResultStore(path) as store:
            pool = ExperimentPool(workers=1, store=store)
            for index in range(workload.rounds):
                specs = source.specs(index)
                executed.extend(_execute_round(pool, specs, tally, result, clock))
            result.pool_counts["executed"] += pool.stats.executed
            result.pool_counts["store_hits"] += pool.stats.cache_hits
        _resume(path, executed, tally, result)
        _analyze(path, tally)
        result.wall_s = time.perf_counter() - started
        for restore in reversed(undo):
            restore()
        undo = []
        result.store_bytes = _store_bytes(path)
        result.payload = _store_payload(path)
        with ResultStore(path, read_only=True) as store:
            export = store.export_rows()
        result.digests = round_digests(export, [specs for specs, _ in result.rounds])
    finally:
        for restore in reversed(undo):
            restore()
        shutil.rmtree(store_dir, ignore_errors=True)
    return result


def _execute_round(
    pool: ExperimentPool,
    specs: Tuple[RunSpec, ...],
    tally: Tally,
    result: PassResult,
    clock: _UnitClock,
) -> List[RunSpec]:
    """Run one round of fresh cells; returns the cells that completed."""
    tally.attempt(len(specs))
    satisfied: List[RunSpec] = []

    def on_cell(spec: RunSpec, cell: Any, origin: str) -> None:
        result.latencies.append(time.perf_counter() - clock.start)
        satisfied.append(spec)
        error = conservation_error(cell)
        if error is not None:
            _fail(tally, spec, error)

    began = time.perf_counter()
    try:
        pool.run(specs, on_cell=on_cell)
    except Exception:  # noqa: BLE001 - counted and reported per cell
        reason = traceback.format_exc().strip().splitlines()[-1]
        print(traceback.format_exc(), file=sys.stderr)
        for spec in set(specs) - set(satisfied):
            _fail(tally, spec, f"raised: {reason}")
    result.rounds.append((specs, time.perf_counter() - began))
    result.cells += len(satisfied)
    return satisfied


def _resume(
    path: Path, specs: Sequence[RunSpec], tally: Tally, result: PassResult
) -> None:
    """Re-issue every cell from a new pool; each must be a store hit."""
    with ResultStore(path) as store:
        pool = ExperimentPool(workers=1, store=store)
        served: set = set()
        pool.run(specs, on_cell=lambda spec, cell, origin: served.add((spec, origin)))
    for spec in specs:
        if (spec, "store") not in served:
            _fail(tally, spec, "resume: not served from the warm store")
    result.pool_counts["executed"] += pool.stats.executed
    result.pool_counts["store_hits"] += pool.stats.cache_hits


def _analyze(path: Path, tally: Tally) -> None:
    """Analyze the store repeatedly; every call must give the same verdicts."""
    first = None
    for _ in range(ANALYZE_REPEATS):
        rows = stability.verdict_rows(stability.analyze_store(str(path)))
        if first is None:
            first = rows
        elif rows != first:
            tally.fail("analysis", "analyze_store verdicts differ between repetitions")


def end_to_end(
    untraced: PassResult, setups: Sequence[float], peak_rss_mb: float, cell_tail: float
) -> Dict[str, float]:
    """Every :data:`END_TO_END` metric of an untraced pass."""
    return {
        "setup_s": statistics.median(setups),
        "cells_per_s": untraced.cells / untraced.execute_s,
        "cell_s_p50": statistics.median(untraced.latencies),
        "cell_s_tail": cell_tail,
        "peak_rss_mb": peak_rss_mb,
        "store_kb_per_cell": untraced.store_bytes / 1024 / untraced.cells,
    }


def traced_layers(
    source: CellSource, out_dir: Path, tally: Tally, untraced: PassResult
) -> Dict[str, float]:
    """Run the traced pass; its per-layer metrics.

    Each round's export must match the untraced pass's.  The spans are
    written to ``out_dir/spans-<workload>-seed<seed>.json``.
    """
    tracer = Tracer()
    traced = run_pass(source, out_dir, tally, tracer=tracer)
    for (specs, _), ours, theirs in zip(traced.rounds, traced.digests, untraced.digests):
        if ours != theirs:
            for spec in specs:
                _fail(tally, spec, "traced and untraced exports differ")
    tracer.write(out_dir / f"spans-{source.workload.name}-seed{source.seed}.json")
    return layers.layer_metrics(
        tracer,
        traced.wall_s,
        traced.execute_s / untraced.execute_s - 1.0,
        traced.pool_counts,
        traced.payload,
    )
