"""Time the benchmark's set-up once, in a fresh interpreter.

Set-up is what a sweep pays before its first cell: ``import repro``,
expanding the workload's first round with spec hashing, and opening a
new store.  Prints ``{"setup_s": ...}``.  Run by ``run.py``::

    python3 perfbench/setup_probe.py WORKLOAD SEED STORE_PATH
"""

import time

_STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]


def main() -> None:
    """Set up once and print the elapsed seconds."""
    workload, seed, store_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import repro  # noqa: F401
    from repro.orchestration.pool import ExperimentPool
    from repro.results.store import ResultStore

    from perfbench.workloads import WORKLOADS, CellSource

    for spec in CellSource(WORKLOADS[workload], seed).specs(0):
        spec.spec_hash()
    store = ResultStore(store_path)
    ExperimentPool(workers=1, store=store)
    elapsed = time.perf_counter() - _STARTED
    store.close()
    print(json.dumps({"setup_s": elapsed}))


if __name__ == "__main__":
    main()
