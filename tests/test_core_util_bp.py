"""Tests for repro.core.util_bp — Algorithm 1, case by case."""

import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.base import TRANSITION
from repro.core.config import UtilBpConfig
from repro.core.util_bp import UtilBpController
from repro.model.grid import build_grid_network
from repro.model.phases import Phase
from repro.model.queues import QueueObservation
from tests.conftest import make_observation
from tests.reference_util_bp import ReferenceUtilBpController


@pytest.fixture
def controller(intersection):
    return UtilBpController(intersection, UtilBpConfig())


def phase_movements(intersection, index):
    return intersection.phase_by_index(index).movements


class TestInitialDecision:
    def test_first_decision_applies_directly(self, intersection, controller):
        """From the initial (expired-transition) state, c' applies at once."""
        m = phase_movements(intersection, 3)[0]
        obs = make_observation(intersection, movement_queues={m.key: 5})
        assert controller.decide(obs) == 3

    def test_all_empty_picks_lowest_index(self, intersection, controller):
        obs = make_observation(intersection)
        assert controller.decide(obs) == 1


class TestCase1TransitionRunning:
    def test_transition_held_until_expiry(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        # Start phase 1, then create overwhelming demand for phase 3.
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        obs = make_observation(
            intersection, time=1.0, movement_queues={m3.key: 50}
        )
        assert controller.decide(obs) == TRANSITION  # switch -> amber
        for t in (2.0, 3.0, 4.0):
            obs = make_observation(
                intersection, time=t, movement_queues={m3.key: 50}
            )
            decision = controller.decide(obs)
            if t < 5.0:
                assert decision == TRANSITION

    def test_transition_expires_into_selected_phase(
        self, intersection, controller
    ):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        controller.decide(
            make_observation(
                intersection, time=1.0, movement_queues={m3.key: 50}
            )
        )
        # Amber lasts 4 s (t=1..5); at t=5 the new phase starts.
        obs = make_observation(
            intersection, time=5.0, movement_queues={m3.key: 50}
        )
        assert controller.decide(obs) == 3

    def test_transition_remaining(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        controller.decide(
            make_observation(
                intersection, time=1.0, movement_queues={m3.key: 50}
            )
        )
        assert controller.transition_remaining(2.0) == pytest.approx(3.0)


class TestCase2KeepPhase:
    def test_kept_while_pressure_difference_positive(
        self, intersection, controller
    ):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 10})
        )
        # Phase 3 has more total demand, but phase 1's best link still
        # has a positive pressure difference -> keep (limits ambers).
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 2, m3.key: 80},
        )
        assert controller.decide(obs) == 1

    def test_released_when_difference_hits_zero(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 10})
        )
        # Pressure difference now zero (q_move == q_out): keep fails,
        # and phase 3's demand wins the selection -> amber.
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 2, m3.key: 80},
            out_queues={m1.out_road: 2},
        )
        assert controller.decide(obs) == TRANSITION

    def test_keep_margin_extends_phase(self, intersection):
        controller = UtilBpController(
            intersection, UtilBpConfig(keep_margin=5.0)
        )
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 10})
        )
        # Difference is -3: within the margin of 5 -> still kept.
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 2, m3.key: 80},
            out_queues={m1.out_road: 5},
        )
        assert controller.decide(obs) == 1

    def test_not_kept_when_empty(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        m3 = phase_movements(intersection, 3)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 1})
        )
        obs = make_observation(
            intersection, time=1.0, movement_queues={m3.key: 4}
        )
        assert controller.decide(obs) == TRANSITION


class TestCase3Selection:
    def test_highest_total_gain_among_servable(self, intersection, controller):
        # Phase 1 has one big queue; phase 3 has two smaller queues whose
        # total (incl. the W* shift per non-empty link) is larger.
        m1 = phase_movements(intersection, 1)[0]
        m3a, m3b = phase_movements(intersection, 3)[:2]
        obs = make_observation(
            intersection,
            movement_queues={m1.key: 30, m3a.key: 10, m3b.key: 10},
        )
        # totals: c1 = 150 + 3*alpha, c3 = 130 + 130 + 2*alpha.
        assert controller.decide(obs) == 3

    def test_full_roads_fall_back_to_gmax(self, intersection, controller):
        # Every outgoing road full: all gains beta except empty lanes
        # (alpha).  Selection falls back to argmax g_max (line 10).
        movements = list(intersection.movements.values())
        obs = make_observation(
            intersection,
            movement_queues={m.key: 10 for m in movements},
            out_queues={road: 120 for road in intersection.out_roads},
        )
        decision = controller.decide(obs)
        assert decision in (1, 2, 3, 4)

    def test_empty_lane_with_space_prefers_servable(self, intersection, controller):
        # Phase 1 empty (alpha); phase 3 has one vehicle -> servable wins.
        m3 = phase_movements(intersection, 3)[0]
        obs = make_observation(intersection, movement_queues={m3.key: 1})
        assert controller.decide(obs) == 3

    def test_reselecting_same_phase_needs_no_amber(
        self, intersection, controller
    ):
        m1 = phase_movements(intersection, 1)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 3})
        )
        # Keep condition fails (difference 0), but phase 1 still wins
        # the selection -> stays green without a transition.
        obs = make_observation(
            intersection,
            time=1.0,
            movement_queues={m1.key: 3},
            out_queues={m1.out_road: 3},
        )
        assert controller.decide(obs) == 1


class TestReset:
    def test_reset_clears_state(self, intersection, controller):
        m1 = phase_movements(intersection, 1)[0]
        controller.decide(
            make_observation(intersection, movement_queues={m1.key: 5})
        )
        controller.reset()
        assert controller.current_phase == TRANSITION
        assert controller.transition_remaining(0.0) == 0.0


class TestWorkConservation:
    def test_serves_whenever_something_is_servable(self, intersection, controller):
        """Sec. IV-Q2: a phase with servable vehicles is always selected
        over phases that cannot serve (mini-slot work conservation)."""

        movements = list(intersection.movements.values())
        for servable in movements:
            controller.reset()
            obs = make_observation(
                intersection, movement_queues={servable.key: 1}
            )
            decision = controller.decide(obs)
            assert decision != TRANSITION
            phase = intersection.phase_by_index(decision)
            assert phase.serves(servable.in_road, servable.out_road)


# -- the single-pass decide against the Eq. 4-12 reference -------------------

#: Queue values small enough that equal gains (and equal phase totals)
#: are common; zeros are weighted up so the alpha case shows often.
_QUEUES = st.sampled_from([0, 0, 0, 1, 2, 3, 5])
#: Outgoing capacities and queues: with W in {3, 5, 120}, the out-queue
#: draws below include full (q = W), over-full and free roads.
_CAPACITIES = st.sampled_from([3, 5, 120])
_OUT_QUEUES = st.sampled_from([0, 0, 1, 2, 3, 5, 120])
#: Time increments: mini-slots of 1 s plus steps that land exactly on,
#: just before and past a transition timer's expiry.
_STEPS = st.sampled_from([0.5, 1.0, 1.0, 2.0, 3.0, 4.0])

_CONFIGS = st.builds(
    lambda gains, keep_margin, transition_duration: UtilBpConfig(
        transition_duration=transition_duration,
        alpha=gains[0],
        beta=gains[1],
        keep_margin=keep_margin,
    ),
    # (alpha, beta): the paper's beta < alpha, the reverse, and equal.
    gains=st.sampled_from([(-1.0, -2.0), (-2.0, -1.0), (-1.0, -1.0)]),
    keep_margin=st.sampled_from([0.0, 0.0, 1.0, 2.5]),
    transition_duration=st.sampled_from([1.0, 4.0]),
)


@st.composite
def _observation_sequences(draw, intersection):
    """Observations of ``intersection`` at strictly increasing times."""
    capacities = {road: draw(_CAPACITIES) for road in intersection.out_roads}
    sequence = []
    time = 0.0
    for _ in range(draw(st.integers(min_value=1, max_value=25))):
        sequence.append(
            QueueObservation(
                time=time,
                movement_queues={
                    key: draw(_QUEUES) for key in intersection.movements
                },
                out_queues={
                    road: draw(_OUT_QUEUES) for road in intersection.out_roads
                },
                out_capacities=capacities,
            )
        )
        time += draw(_STEPS)
    return sequence


def _overlapping_variant(intersection):
    """The Fig. 1 intersection with mixed service rates and a phase c5
    sharing links with c1 and c2, declared out of index order."""
    rates = (0.5, 1.0, 1.5, 2.0)
    movements = {
        key: replace(movement, service_rate=rates[n % len(rates)])
        for n, (key, movement) in enumerate(intersection.movements.items())
    }
    phases = {
        phase.index: Phase(
            phase.index, tuple(movements[m.key] for m in phase.movements)
        )
        for phase in intersection.phases
    }
    shared = Phase(5, phases[1].movements[:2] + phases[2].movements[:1])
    return replace(
        intersection,
        movements=movements,
        phases=[shared, phases[4], phases[1], phases[3], phases[2]],
    )


class TestMatchesReference:
    """``decide`` is bit-identical to Algorithm 1 on Eqs. 8-12."""

    @pytest.fixture(scope="class")
    def intersections(self):
        standard = build_grid_network(1, 1).intersections["J00"]
        return (standard, _overlapping_variant(standard))

    @given(data=st.data(), config=_CONFIGS, variant=st.sampled_from([0, 1]))
    @settings(max_examples=300, deadline=None)
    def test_same_decisions_and_timers(self, intersections, data, config, variant):
        intersection = intersections[variant]
        fast = UtilBpController(intersection, config)
        reference = ReferenceUtilBpController(intersection, config)
        for obs in data.draw(_observation_sequences(intersection)):
            assert fast.decide(obs) == reference.decide(obs)
            assert fast.current_phase == reference.current_phase
            assert fast.transition_remaining(obs.time) == (
                reference.transition_remaining(obs.time)
            )


class TestBadObservations:
    """Malformed ``Q(k)`` fails loudly, as the Eq. 4-12 functions do."""

    def _trusted(self, intersection, **overrides):
        fields = {
            "time": 0.0,
            "movement_queues": {key: 0 for key in intersection.movements},
            "out_queues": {road: 0 for road in intersection.out_roads},
            "out_capacities": {
                road_id: road.capacity
                for road_id, road in intersection.out_roads.items()
            },
        }
        fields.update(overrides)
        return QueueObservation.trusted(**fields)

    def test_negative_movement_queue(self, intersection, controller):
        m = phase_movements(intersection, 1)[0]
        queues = {key: 0 for key in intersection.movements}
        queues[m.key] = -1
        obs = self._trusted(intersection, movement_queues=queues)
        with pytest.raises(ValueError, match="must be >= 0"):
            controller.decide(obs)

    def test_missing_out_queue_names_road(self, intersection, controller):
        road = phase_movements(intersection, 1)[0].out_road
        outs = {r: 0 for r in intersection.out_roads if r != road}
        obs = self._trusted(intersection, out_queues=outs)
        with pytest.raises(KeyError, match=re.escape(road)):
            controller.decide(obs)

    def test_missing_capacity_names_road(self, intersection, controller):
        road = phase_movements(intersection, 1)[0].out_road
        capacities = {
            r: x.capacity for r, x in intersection.out_roads.items() if r != road
        }
        obs = self._trusted(intersection, out_capacities=capacities)
        with pytest.raises(KeyError, match=re.escape(road)):
            controller.decide(obs)

    def test_no_capacities(self, intersection, controller):
        obs = self._trusted(intersection, out_capacities={})
        with pytest.raises(ValueError, match="no outgoing capacities"):
            controller.decide(obs)
