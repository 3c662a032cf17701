"""Order statistics and failure counting for the benchmark's reports."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

#: A tail percentile must leave at least this many samples beyond it.
TAIL_BEYOND = 10


@dataclass(frozen=True)
class Tail:
    """The highest percentile with :data:`TAIL_BEYOND` samples beyond it."""

    value: float
    percentile: float
    samples: int


def tail(samples: Sequence[float]) -> Tail:
    """The sample with exactly :data:`TAIL_BEYOND` samples ranked above it.

    By nearest rank, that sample is the ``(n - TAIL_BEYOND) / n``
    percentile, the highest one that still has ``TAIL_BEYOND`` samples
    past it.  Raises ``ValueError`` when there are too few samples for
    any such percentile.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    return Tail(
        value=sorted(samples)[n - TAIL_BEYOND - 1],
        percentile=100.0 * (n - TAIL_BEYOND) / n,
        samples=n,
    )


@dataclass
class Tally:
    """Cells attempted and the reasons any of them failed.

    Failures are keyed by a cell's identity (its spec hash), so two
    cells that share a display label still count apart.  A cell counts
    as failed once, however many of its checks fail; the reasons are
    kept per cell for the report.
    """

    attempted: int = 0
    failures: Dict[str, List[str]] = field(default_factory=dict)
    #: Display label of each failed cell, by its key.
    labels: Dict[str, str] = field(default_factory=dict)

    def attempt(self, count: int = 1) -> None:
        """Count ``count`` more cells as attempted."""
        self.attempted += count

    def fail(self, cell: str, reason: str, label: str = "") -> None:
        """Record that the cell keyed ``cell`` failed, and why."""
        self.failures.setdefault(cell, []).append(reason)
        self.labels.setdefault(cell, label or cell)

    @property
    def failed(self) -> int:
        """Distinct cells that failed."""
        return len(self.failures)

    @property
    def failed_share(self) -> float:
        """Failed cells over attempted cells (0 when none attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0
