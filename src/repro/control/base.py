"""Controller interfaces.

Every controller is *decentralized*: it controls exactly one
intersection and sees only that intersection's queue observation —
never its neighbours' state or any global demand information.  This
mirrors the paper's emphasis that back-pressure control needs no prior
traffic information and is locally implementable.

Two layers are defined:

* :class:`IntersectionController` — the protocol: ``decide(obs)``
  returns the phase index to show for the next mini-slot (0 is the
  transition/amber phase).
* :class:`FixedSlotController` — the driver used by all *conventional*
  (fixed-length slot) baselines: it re-selects a phase only at slot
  boundaries and inserts a transition phase whenever the selection
  changes.  Subclasses provide only the per-slot selection rule.

:class:`NetworkController` simply fans a network-wide observation out
to the per-intersection controllers.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Dict, Mapping, Optional

from repro.model.intersection import Intersection
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.model.queues import QueueObservation
from repro.util.validation import check_positive

__all__ = [
    "TRANSITION",
    "IntersectionController",
    "FixedSlotController",
    "NetworkController",
]

#: Alias for the transition-phase index (amber), ``c_0``.
TRANSITION = TRANSITION_PHASE_INDEX


class IntersectionController(ABC):
    """State-feedback signal controller for a single intersection."""

    def __init__(self, intersection: Intersection):
        if not intersection.phases:
            raise ValueError(
                f"intersection {intersection.node_id} has no control phases"
            )
        self.intersection = intersection
        #: Every index :meth:`_record` accepts: the transition phase and
        #: the intersection's control phases.
        self._valid_indices = frozenset(
            [TRANSITION, *(phase.index for phase in intersection.phases)]
        )
        self._current: int = TRANSITION

    @property
    def current_phase(self) -> int:
        """The phase index most recently returned by :meth:`decide`."""
        return self._current

    @abstractmethod
    def decide(self, obs: QueueObservation) -> int:
        """Return the phase index to apply for the next mini-slot.

        Called once per mini-slot with the current observation
        ``Q(k)``; must return ``TRANSITION`` (0) or the index of one of
        the intersection's control phases.
        """

    def reset(self) -> None:
        """Forget all internal state (e.g. between experiment runs)."""
        self._current = TRANSITION

    def _record(self, phase_index: int) -> int:
        """Validate and remember a decision; returns it for chaining."""
        if phase_index not in self._valid_indices:
            raise KeyError(
                f"no phase c{phase_index} at {self.intersection.node_id}"
            )
        self._current = phase_index
        return phase_index


class FixedSlotController(IntersectionController):
    """Driver for conventional fixed-length-slot controllers.

    The phase is re-selected every ``period`` seconds.  If the
    selection differs from the running phase, a transition (amber)
    phase of ``transition_duration`` seconds is inserted first and the
    new phase's slot starts after it.  If the selection equals the
    running phase, the slot is extended seamlessly (a signal that does
    not change needs no amber).

    Subclasses implement :meth:`select_phase`.
    """

    def __init__(
        self,
        intersection: Intersection,
        period: float,
        transition_duration: float = 4.0,
    ):
        super().__init__(intersection)
        check_positive("period", period)
        check_positive("transition_duration", transition_duration)
        self.period = float(period)
        self.transition_duration = float(transition_duration)
        self._slot_end = -math.inf
        self._transition_until = -math.inf
        self._pending: Optional[int] = None

    @abstractmethod
    def select_phase(self, obs: QueueObservation) -> int:
        """Pick the control phase for the slot starting at ``obs.time``."""

    def reset(self) -> None:
        """Restart the slot and transition timers for a fresh run."""
        super().reset()
        self._slot_end = -math.inf
        self._transition_until = -math.inf
        self._pending = None

    def decide(self, obs: QueueObservation) -> int:
        """Advance the fixed-slot machinery and return the applied phase."""
        now = obs.time
        if self._pending is not None:
            if now < self._transition_until:
                return self._record(TRANSITION)
            # Amber over: the pending phase's slot starts now.
            pending = self._pending
            self._pending = None
            self._slot_end = now + self.period
            return self._record(pending)
        if now < self._slot_end:
            return self._record(self._current)
        selection = self.select_phase(obs)
        if selection == TRANSITION:
            raise ValueError(
                f"{type(self).__name__}.select_phase returned the transition "
                f"phase; it must pick a control phase"
            )
        if selection == self._current:
            self._slot_end = now + self.period
            return self._record(selection)
        if self._current == TRANSITION and self._slot_end == -math.inf:
            # Very first decision: no signal is running yet, start directly.
            self._slot_end = now + self.period
            return self._record(selection)
        self._pending = selection
        self._transition_until = now + self.transition_duration
        return self._record(TRANSITION)


class NetworkController:
    """Fans network observations out to per-intersection controllers."""

    def __init__(self, controllers: Mapping[str, IntersectionController]):
        if not controllers:
            raise ValueError("need at least one intersection controller")
        self.controllers: Dict[str, IntersectionController] = dict(controllers)

    def decide(self, observations: Mapping[str, QueueObservation]) -> Dict[str, int]:
        """Return ``{node_id: phase_index}`` for every observed intersection."""
        decisions: Dict[str, int] = {}
        for node_id, obs in observations.items():
            controller = self.controllers.get(node_id)
            if controller is None:
                raise KeyError(f"no controller registered for {node_id!r}")
            decisions[node_id] = controller.decide(obs)
        return decisions

    def reset(self) -> None:
        """Reset every per-intersection controller."""
        for controller in self.controllers.values():
            controller.reset()
