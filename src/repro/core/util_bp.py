"""The utilization-aware adaptive back-pressure controller (Algorithm 1).

This is the paper's main contribution.  The controller is invoked at
*every* mini-slot (enabling varying-length control phases) and decides
between three cases:

* **Case 1** (lines 1-2): a transition phase is running and its period
  ``Delta_k`` has not expired — keep it.
* **Case 2** (lines 3-4): a control phase is running and its best
  constituent link gain ``g_max(c(k-1), k)`` still exceeds the
  non-negative threshold ``g*(k)`` (Eq. 12) — keep it.  This is the
  mechanism that limits the number of transition phases.
* **Case 3** (lines 5-17): select a new phase ``c'``:

  - if some phase can guarantee junction utilization in the next
    mini-slot (``max_j g_max(c_j, k) > alpha``), restrict to those
    phases and pick the one with the highest *total* gain — the best
    effort against instability (lines 6-8);
  - otherwise utilization will be low whatever is chosen; pick the
    phase with the highest single link gain (lines 9-10);
  - if ``c'`` is already running, or a transition phase just expired,
    apply ``c'`` directly (lines 12-13); otherwise start a transition
    phase and arm its expiry timer ``t_{Delta k} = t_k + Delta_k``
    (lines 14-16).

All inputs — ``Q(k)``, ``C``, ``c(k-1)``, ``t_k`` — are local to the
intersection, preserving back-pressure's decentralized character.

The controller runs at every mini-slot of every intersection, so
:meth:`UtilBpController.decide` does Algorithm 1's work in a single
pass.  The phase tables — each phase's index and its
``((in_road, out_road), out_road, service_rate)`` links in declaration
order — are built once at construction.  Each call computes ``W*``
once per observation and evaluates each link's Eq. 8 gain at most
once, memoized for the call: Case 2, the Case 3 ``g_max`` ranking and
the Case 3 total-gain sums all read the same gains.  The floating-point
expressions and their evaluation order are exactly those of the
:mod:`repro.core.pressure` functions, which the tests use as the
readable reference, so decisions are bit-identical to Algorithm 1
written on Eqs. 8-12.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.control.base import IntersectionController, TRANSITION
from repro.core.config import UtilBpConfig
from repro.model.intersection import Intersection
from repro.model.queues import QueueObservation

__all__ = ["UtilBpController"]

#: One link ``L_i^{i'}`` of a phase: ``((in_road, out_road), out_road, mu)``.
_Link = Tuple[Tuple[str, str], str, float]


class UtilBpController(IntersectionController):
    """Utilization-aware adaptive back-pressure (UTIL-BP), Algorithm 1.

    Parameters
    ----------
    intersection:
        The controlled intersection.
    config:
        Controller parameters; defaults are the paper's evaluation
        values (``Delta_k = 4 s``, ``alpha = -1``, ``beta = -2``).
    """

    def __init__(
        self,
        intersection: Intersection,
        config: Optional[UtilBpConfig] = None,
    ):
        super().__init__(intersection)
        self.config = config or UtilBpConfig()
        # UtilBpConfig guarantees alpha, beta < 0 (Eq. 8's premise).
        self._alpha = self.config.alpha
        self._beta = self.config.beta
        self._keep_margin = self.config.keep_margin
        #: ``(index, links)`` per control phase, in declaration order.
        self._phases: Tuple[Tuple[int, Tuple[_Link, ...]], ...] = tuple(
            (
                phase.index,
                tuple(
                    (m.key, m.out_road, m.service_rate)
                    for m in phase.movements
                ),
            )
            for phase in intersection.phases
        )
        self._links_of: Dict[int, Tuple[_Link, ...]] = dict(self._phases)
        #: Global variable ``t_{Delta k}`` of Algorithm 1 — the expiry
        #: time of the running transition phase.
        self._transition_until = -math.inf

    def reset(self) -> None:
        """Clear the per-intersection controller state."""
        super().reset()
        self._transition_until = -math.inf

    # -- Algorithm 1 -------------------------------------------------------

    def decide(self, obs: QueueObservation) -> int:
        """Apply Algorithm 1: keep, hold through amber, or select anew."""
        t_k = obs.time
        previous = self._current  # c(k-1)

        # Case 1 (lines 1-2): transition phase still running.
        if previous == TRANSITION and t_k < self._transition_until:
            return TRANSITION

        w_star = float(obs.max_capacity())  # W*, Eq. 7
        memo: Dict[Tuple[str, str], float] = {}

        # Case 2 (lines 3-4): keep the current control phase while its
        # best link g_max (Eq. 11) stays above the threshold g*(k)
        # (Eq. 12, relaxed by keep_margin).
        if previous != TRANSITION:
            links = self._links_of[previous]
            gains = self._gains(links, obs, w_star, memo)
            g_max = max(gains)  # first maximum = declaration-order arg-max
            rate = links[gains.index(g_max)][2]
            threshold = w_star * rate
            threshold -= self._keep_margin * rate
            if g_max > threshold:
                return previous

        # Case 3 (lines 5-17): select a new control phase.
        selected = self._select_phase(obs, w_star, memo, previous)
        if selected == previous or previous == TRANSITION:
            # Lines 12-13: same phase, or an expired transition phase.
            self._current = selected
            return selected
        # Lines 14-16: different phase — clear the junction first.
        self._transition_until = t_k + self.config.transition_duration
        self._current = TRANSITION
        return TRANSITION

    def _select_phase(
        self,
        obs: QueueObservation,
        w_star: float,
        memo: Dict[Tuple[str, str], float],
        previous: int,
    ) -> int:
        """Lines 6-11: pick ``c'`` by utilization-aware gain ranking."""
        alpha = self._alpha
        ranked: List[Tuple[int, List[float], float]] = []
        best_overall = -math.inf
        for index, links in self._phases:
            gains = self._gains(links, obs, w_star, memo)
            g_max = max(gains)
            ranked.append((index, gains, g_max))
            best_overall = max(best_overall, g_max)

        if best_overall > alpha:
            # Lines 7-8: among phases guaranteeing some utilization,
            # take the highest *total* gain (Eq. 10; best effort for
            # stability).
            scores = [
                (index, sum(gains))
                for index, gains, g_max in ranked
                if g_max > alpha
            ]
        else:
            # Line 10: utilization will be low regardless; fall back to
            # the best single link gain.
            scores = [(index, g_max) for index, _, g_max in ranked]
        # Deterministic tie-break: on equal scores prefer the running
        # phase (a pointless switch would only buy an amber), then the
        # lowest phase index.
        selected, _ = min(
            scores, key=lambda item: (-item[1], item[0] != previous, item[0])
        )
        return selected

    def _gains(
        self,
        links: Tuple[_Link, ...],
        obs: QueueObservation,
        w_star: float,
        memo: Dict[Tuple[str, str], float],
    ) -> List[float]:
        """Eq. 8 for each of ``links``, each evaluated at most once per call.

        ``beta`` if the outgoing road is full, else ``alpha`` if the
        movement queue is empty, else ``(b_i^{i'} - b_{i'} + W*) mu``
        with the identity pressure of Eq. 4.
        """
        movement_queues = obs.movement_queues
        out_queues = obs.out_queues
        capacities = obs.out_capacities
        gains = []
        for key, out_road, rate in links:
            gain = memo.get(key)
            if gain is None:
                try:
                    q_out = int(out_queues[out_road])
                except KeyError:
                    raise KeyError(
                        f"no outgoing queue recorded for road {out_road!r}"
                    ) from None
                try:
                    capacity = int(capacities[out_road])
                except KeyError:
                    raise KeyError(
                        f"no capacity recorded for road {out_road!r}"
                    ) from None
                if q_out >= capacity:
                    gain = self._beta
                else:
                    q_move = int(movement_queues.get(key, 0))
                    if q_move == 0:
                        gain = self._alpha
                    elif q_move < 0 or q_out < 0:
                        bad = q_move if q_move < 0 else q_out
                        raise ValueError(
                            f"queue length must be >= 0, got {bad}"
                        )
                    else:
                        gain = (float(q_move) - float(q_out) + w_star) * rate
                memo[key] = gain
            gains.append(gain)
        return gains

    # -- introspection helpers (used by tests and examples) ----------------

    def transition_remaining(self, now: float) -> float:
        """Seconds of transition phase left at time ``now`` (0 if none)."""
        if self._current != TRANSITION:
            return 0.0
        return max(0.0, self._transition_until - now)
