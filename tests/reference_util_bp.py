"""Reference UTIL-BP: Algorithm 1 written on the scalar Eq. 8-12 functions.

:func:`link_gain`, :func:`phase_gain`, :func:`max_link_gain` and
:func:`keep_threshold` evaluate Eqs. 8-12 on one movement or phase of
one :class:`~repro.model.queues.QueueObservation`.  They are the
readable reference the ``*_array`` kernels of
:mod:`repro.core.pressure` are checked against, cell by cell.

:class:`ReferenceUtilBpController` is the straightforward transcription
of Algorithm 1 on these functions: every case re-evaluates the link
gains it reads.  The single-pass
:class:`~repro.core.util_bp.UtilBpController` must return the same
decision and the same transition timer on every observation; the tests
hold it to this oracle.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.control.base import TRANSITION, IntersectionController
from repro.core.config import UtilBpConfig
from repro.core.pressure import pressure
from repro.model.intersection import Intersection
from repro.model.movements import Movement
from repro.model.phases import Phase
from repro.model.queues import QueueObservation


def link_gain(
    movement: Movement,
    obs: QueueObservation,
    alpha: float,
    beta: float,
) -> float:
    """The paper's modified link gain, Eq. 8.

    ::

        g(L, k) = beta                              if q_{i'} = W_{i'}
                = alpha                             if q_{i'} < W_{i'} and q_i^{i'} = 0
                = (b_i^{i'} - b_{i'} + W*) mu       otherwise

    with ``W* = max W_{i'}`` (Eq. 7).  In the general case the gain is
    non-negative because ``b_i^{i'} >= 0`` and ``b_{i'} <= W*``, so any
    servable link outranks the two special cases (``alpha, beta < 0``).
    """
    if alpha >= 0 or beta >= 0:
        raise ValueError(
            f"alpha and beta must be negative, got alpha={alpha}, beta={beta}"
        )
    q_out = obs.out_queue(movement.out_road)
    capacity = obs.capacity(movement.out_road)
    if q_out >= capacity:
        return beta
    q_move = obs.movement_queue(movement.in_road, movement.out_road)
    if q_move == 0:
        return alpha
    w_star = float(obs.max_capacity())
    b_in = pressure(q_move)
    b_out = pressure(q_out)
    return (b_in - b_out + w_star) * movement.service_rate


def phase_gain(
    phase: Phase, obs: QueueObservation, alpha: float, beta: float
) -> float:
    """Total gain of a phase, ``g(c_j, k)`` (Eq. 10)."""
    return sum(link_gain(m, obs, alpha, beta) for m in phase.movements)


def max_link_gain(
    phase: Phase, obs: QueueObservation, alpha: float, beta: float
) -> Tuple[float, Movement]:
    """``g_max(c_j, k)`` and its arg-max link ``L_max(c_j, k)`` (Eq. 11).

    Ties are broken by the first movement in the phase's declaration
    order, which is deterministic.
    """
    best_gain: Optional[float] = None
    best_movement: Optional[Movement] = None
    for movement in phase.movements:
        gain = link_gain(movement, obs, alpha, beta)
        if best_gain is None or gain > best_gain:
            best_gain = gain
            best_movement = movement
    assert best_gain is not None and best_movement is not None
    return best_gain, best_movement


def keep_threshold(obs: QueueObservation, movement: Movement) -> float:
    """The keep-phase threshold ``g*(k)`` of Eq. 12.

    With ``L_max(c(k-1), k) = L_i^{i'}``, the paper sets
    ``g*(k) = W* mu_i^{i'}``: the current phase is kept exactly while
    its best link still has a *positive* pressure difference
    (``g > g*  <=>  b_i^{i'} - b_{i'} > 0`` in the general case of
    Eq. 8).
    """
    return float(obs.max_capacity()) * movement.service_rate


class ReferenceUtilBpController(IntersectionController):
    """Algorithm 1, one equation function per line of the paper."""

    def __init__(
        self,
        intersection: Intersection,
        config: Optional[UtilBpConfig] = None,
    ):
        super().__init__(intersection)
        self.config = config or UtilBpConfig()
        self._transition_until = -math.inf

    def reset(self) -> None:
        super().reset()
        self._transition_until = -math.inf

    def decide(self, obs: QueueObservation) -> int:
        t_k = obs.time
        previous = self._current  # c(k-1)

        # Case 1 (lines 1-2): transition phase still running.
        if previous == TRANSITION and t_k < self._transition_until:
            return self._record(TRANSITION)

        # Case 2 (lines 3-4): keep the current control phase while its
        # best link stays above the threshold g*(k).
        if previous != TRANSITION:
            current_phase = self.intersection.phase_by_index(previous)
            g_max, l_max = max_link_gain(
                current_phase, obs, self.config.alpha, self.config.beta
            )
            threshold = keep_threshold(obs, l_max)
            threshold -= self.config.keep_margin * l_max.service_rate
            if g_max > threshold:
                return self._record(previous)

        # Case 3 (lines 5-17): select a new control phase.
        selected = self._select_phase(obs)
        if selected == previous or previous == TRANSITION:
            # Lines 12-13: same phase, or an expired transition phase.
            return self._record(selected)
        # Lines 14-16: different phase — clear the junction first.
        self._transition_until = t_k + self.config.transition_duration
        return self._record(TRANSITION)

    def _select_phase(self, obs: QueueObservation) -> int:
        """Lines 6-11: pick ``c'`` by utilization-aware gain ranking."""
        alpha, beta = self.config.alpha, self.config.beta
        ranked: List[Tuple[Phase, float]] = []
        best_overall = -math.inf
        for phase in self.intersection.phases:
            g_max, _ = max_link_gain(phase, obs, alpha, beta)
            ranked.append((phase, g_max))
            best_overall = max(best_overall, g_max)

        if best_overall > alpha:
            # Lines 7-8: among phases guaranteeing some utilization,
            # take the highest *total* gain (best effort for stability).
            candidates = [phase for phase, g_max in ranked if g_max > alpha]
            scores = [
                (phase_gain(phase, obs, alpha, beta), phase)
                for phase in candidates
            ]
        else:
            # Line 10: utilization will be low regardless; fall back to
            # the best single link gain.
            scores = [(g_max, phase) for phase, g_max in ranked]

        # Deterministic tie-break: on equal scores prefer the running
        # phase, then the lowest phase index.
        def rank(item: Tuple[float, Phase]) -> Tuple[float, int, int]:
            score, phase = item
            return (-score, 0 if phase.index == self._current else 1, phase.index)

        scores.sort(key=rank)
        return scores[0][1].index

    def transition_remaining(self, now: float) -> float:
        """Seconds of transition phase left at time ``now`` (0 if none)."""
        if self._current != TRANSITION:
            return 0.0
        return max(0.0, self._transition_until - now)
