"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serial-utilbp --seed 1 --seconds 30 --trace 0

Every pass runs the workload's fixed rounds, sized to about 30 seconds
of cells on a 2-vCPU host; ``--seconds`` is accepted for the common
benchmark interface and does not change the work.  ``--trace 0`` prints
the end-to-end metrics of an untraced pass; ``--trace 1`` adds a traced
pass over the same rounds and prints the per-layer metrics instead,
writing its spans to
``perfbench/.out/spans-<workload>-seed<seed>.json``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is 0 only when every cell
passed its checks; see ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / ".out"
REFERENCE = ROOT / "perfbench" / "reference.json"

#: Fresh interpreters timed for ``setup_s``; the median is reported.
SETUP_PROBES = 5

def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_seconds(workload: str, seed: int) -> List[float]:
    """``setup_s`` of :data:`SETUP_PROBES` fresh interpreters."""
    probe = ROOT / "perfbench" / "setup_probe.py"
    seconds = []
    with tempfile.TemporaryDirectory(prefix="setup-", dir=OUT_DIR) as scratch:
        for index in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(probe), workload, str(seed),
                 str(Path(scratch) / f"probe-{index}.sqlite")],
                capture_output=True, text=True, timeout=120, check=True,
            )
            seconds.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return seconds


def _check_reference(untraced, name: str, tally) -> None:
    """Round 0 at the default seed must export the recorded digest."""
    expected = json.loads(REFERENCE.read_text())[name]
    if untraced.digests[0] != expected:
        for spec in untraced.rounds[0][0]:
            tally.fail(spec.spec_hash(), f"round 0 export digest {untraced.digests[0]} "
                       f"!= reference {expected}", spec.label())


def main(argv: Optional[List[str]] = None) -> int:
    """Run the workload; 0 if every check passed, 1 if not, 2 on bad input."""
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import layers
    from perfbench.bench import END_TO_END, end_to_end, run_pass, traced_layers
    from perfbench.stats import Tail, Tally, tail
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, CellSource

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    source = CellSource(workload, seed)
    # A traced run reports no set-up time, so it does not probe it.
    setups = [] if args.trace else _setup_seconds(workload.name, seed)
    untraced = run_pass(source, OUT_DIR, tally)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if seed == DEFAULT_SEED:
        _check_reference(untraced, workload.name, tally)

    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "trace": args.trace,
        "rounds": len(untraced.rounds),
        "cells": untraced.cells,
        "digests": untraced.digests,
    }
    if args.trace:
        values = traced_layers(CellSource(workload, seed), OUT_DIR, tally, untraced)
        units = layers.PER_LAYER
    else:
        try:
            cell_tail = tail(untraced.latencies)
        except ValueError as error:
            tally.fail(workload.name, f"cell_s_tail: {error}")
            cell_tail = Tail(max(untraced.latencies), 100.0, len(untraced.latencies))
        report.update(setup_probes_s=setups, tail_percentile=cell_tail.percentile,
                      latency_samples=cell_tail.samples)
        values = end_to_end(untraced, setups, peak_rss_mb, cell_tail.value)
        units = END_TO_END
    # A spec-keyed failure shows the cell's label and the head of its hash.
    failures = {
        tally.labels[cell] if tally.labels[cell] == cell
        else f"{tally.labels[cell]} [{cell[:12]}]": reasons
        for cell, reasons in tally.failures.items()
    }
    report.update(failed_share=tally.failed_share, failures=failures, metrics=values)
    (OUT_DIR / f"report-{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True)
    )

    print(f"workload {workload.name}  seed {seed}  rounds {len(untraced.rounds)}  "
          f"cells {untraced.cells}  failed_share {tally.failed_share:.4f}")
    # In a traced run, each layer's self time also as a share of all of it.
    layer_s = sum(v for n, v in values.items() if n.endswith("_s") and n[:6] != "trace.")
    for name, unit in units.items():
        share = ""
        if args.trace and unit == "s" and name[:6] != "trace." and layer_s:
            share = f"  {values[name] / layer_s:6.1%}"
        print(f"  {name:<28} {values[name]:>14.6g} {unit}{share}")
    if not args.trace:
        print(f"cell_s_tail is p{cell_tail.percentile:.1f} of "
              f"{cell_tail.samples} cell latencies")
    for cell, reasons in sorted(failures.items()):
        print(f"FAILED {cell}: {'; '.join(reasons)}", file=sys.stderr)
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
