"""Trace recorders for the paper's figures.

* :class:`PhaseTrace` records the phase applied at an intersection over
  time (Figs. 3-4: "applied control phases on the top-right
  intersection").
* :class:`QueueTrace` records the queue length of a road (or movement)
  over time (Fig. 5: "queue lengths at the incoming road from the
  east").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.util.series import TimeSeries

__all__ = ["PhaseTrace", "QueueTrace", "next_grid_sample"]


def next_grid_sample(now: float, interval: float) -> float:
    """The first instant of the fixed grid ``0, T, 2T, ...`` after ``now``.

    Trace sampling snaps to this grid rather than anchoring on the
    time a sample happened to be taken: anchoring on ``now`` would
    drift whenever the stepping cadence (a mini-slot that does not
    divide the interval) is not commensurate with ``interval``.  Every
    sampler, serial and batch, uses this helper so they land on
    identical sample instants.
    """
    return (math.floor(now / interval) + 1) * interval


@dataclass
class PhaseTrace:
    """Step-wise record of the phase index applied at one intersection."""

    node_id: str
    times: List[float] = field(default_factory=list)
    phases: List[int] = field(default_factory=list)

    def record(self, time: float, phase_index: int) -> None:
        """Record the phase applied from ``time`` onwards.

        Consecutive identical phases are coalesced, so the trace holds
        one entry per phase *switch* — directly yielding the phase
        intervals plotted in Figs. 3-4.
        """
        if self.times and time < self.times[-1]:
            raise ValueError(
                f"phase trace time went backwards: {time} < {self.times[-1]}"
            )
        if self.phases and self.phases[-1] == phase_index:
            return
        self.times.append(float(time))
        self.phases.append(int(phase_index))

    def intervals(self, end_time: float) -> List[Tuple[float, float, int]]:
        """Return ``(start, end, phase)`` intervals up to ``end_time``."""
        out: List[Tuple[float, float, int]] = []
        for idx, (start, phase) in enumerate(zip(self.times, self.phases)):
            end = self.times[idx + 1] if idx + 1 < len(self.times) else end_time
            if end > start:
                out.append((start, min(end, end_time), phase))
        return out

    def phase_durations(self, end_time: float) -> Dict[int, float]:
        """Total seconds each phase (incl. 0 = amber) was applied."""
        totals: Dict[int, float] = {}
        for start, end, phase in self.intervals(end_time):
            totals[phase] = totals.get(phase, 0.0) + (end - start)
        return totals

    def switch_count(self) -> int:
        """Number of phase switches recorded (excluding the first set)."""
        return max(0, len(self.phases) - 1)

    def mean_control_phase_length(self, end_time: float) -> float:
        """Average duration of non-transition phase applications."""
        lengths = [
            end - start
            for start, end, phase in self.intervals(end_time)
            if phase != 0
        ]
        return sum(lengths) / len(lengths) if lengths else 0.0

    def as_series(self, end_time: float) -> TimeSeries:
        """A staircase series suitable for ASCII plotting."""
        series = TimeSeries(f"phase@{self.node_id}")
        for start, end, phase in self.intervals(end_time):
            series.append(start, float(phase))
            series.append(max(start, end - 1e-9), float(phase))
        return series

    def to_dict(self) -> dict:
        """A JSON-serializable view of the trace."""
        return {
            "node_id": self.node_id,
            "times": list(self.times),
            "phases": list(self.phases),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PhaseTrace":
        """Rebuild a trace serialized with :meth:`to_dict`."""
        return cls(
            node_id=payload["node_id"],
            times=[float(t) for t in payload["times"]],
            phases=[int(p) for p in payload["phases"]],
        )


@dataclass
class QueueTrace:
    """Sampled queue length of one road (optionally one movement)."""

    road_id: str
    movement: Optional[Tuple[str, str]] = None
    series: TimeSeries = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.series is None:
            label = self.road_id if self.movement is None else (
                f"{self.movement[0]}->{self.movement[1]}"
            )
            self.series = TimeSeries(label)

    def sample(self, time: float, queue_length: int) -> None:
        """Record the queue length observed at ``time``."""
        if queue_length < 0:
            raise ValueError(f"queue length must be >= 0, got {queue_length}")
        self.series.append(time, float(queue_length))

    def __len__(self) -> int:
        """Number of samples recorded so far.

        The changepoint analyzer uses this to decide whether a trace
        carries enough post-warm-up samples to be worth scanning.
        """
        return len(self.series)

    def mean(self) -> float:
        """Time-average of the sampled queue length."""
        return self.series.mean()

    def max(self) -> float:
        """Maximum sampled queue length."""
        return self.series.max()

    def to_dict(self) -> dict:
        """A JSON-serializable view of the trace."""
        return {
            "road_id": self.road_id,
            "movement": list(self.movement) if self.movement else None,
            "series": self.series.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueueTrace":
        """Rebuild a trace serialized with :meth:`to_dict`."""
        movement = payload.get("movement")
        return cls(
            road_id=payload["road_id"],
            movement=tuple(movement) if movement else None,
            series=TimeSeries.from_dict(payload["series"]),
        )
