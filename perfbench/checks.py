"""Correctness checks run on every cell and on every store a pass writes."""

from __future__ import annotations

import hashlib
import json
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.scenarios.patterns import PATTERN_NAMES

#: The paper evaluates its patterns on a 3x3 grid.
PAPER_GRID = (3, 3)

_GRID_SUFFIX = re.compile(r"-(\d+)x(\d+)$")


def conservation_error(result: Any) -> Optional[str]:
    """Why a result breaks vehicle conservation, or ``None``.

    Every vehicle that entered has left, is still in the network, or
    waits in the backlog outside a full entry road.
    """
    summary = result.summary
    accounted = summary.vehicles_left + result.vehicles_in_network + result.backlog
    if summary.vehicles_entered == accounted:
        return None
    return (
        f"conservation: entered {summary.vehicles_entered} != left "
        f"{summary.vehicles_left} + in network {result.vehicles_in_network} "
        f"+ backlog {result.backlog}"
    )


def expected_shape(spec: Any) -> Tuple[int, int]:
    """Rows and columns the spec's network must have.

    Taken from the spec alone: the paper's grid for its patterns, the
    ``-RxC`` suffix of a catalog name, and any ``rows``/``cols``
    scenario parameter on top.
    """
    if spec.pattern in PATTERN_NAMES:
        rows, cols = PAPER_GRID
    else:
        match = _GRID_SUFFIX.search(spec.pattern)
        if match is None:
            raise ValueError(f"no grid size in scenario name {spec.pattern!r}")
        rows, cols = int(match.group(1)), int(match.group(2))
    params = dict(spec.scenario_params)
    return int(params.get("rows", rows)), int(params.get("cols", cols))


def shape_error(spec: Any, scenario: Any) -> Optional[str]:
    """Why the built network has the wrong size, or ``None``."""
    rows, cols = expected_shape(spec)
    built = len(scenario.network.intersections)
    if built == rows * cols:
        return None
    return f"network shape: {built} intersections built for a {rows}x{cols} grid"


def rows_digest(rows: Iterable[Dict[str, Any]]) -> str:
    """sha256 of export rows as canonical JSON."""
    text = json.dumps(list(rows), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def round_digests(
    export: Sequence[Dict[str, Any]], rounds: Sequence[Sequence[Any]]
) -> List[str]:
    """One digest per round over the store's export rows of its cells.

    ``export`` is ``ResultStore.export_rows()``, which orders rows by
    spec hash, so a round's digest does not depend on the order its
    cells finished in nor on the other rounds in the store.
    """
    by_hash = {row["spec_hash"]: row for row in export}
    digests = []
    for specs in rounds:
        hashes = sorted({spec.spec_hash() for spec in specs})
        digests.append(rows_digest(by_hash.get(h, {"missing": h}) for h in hashes))
    return digests
