"""Tests for repro.traci.session — the TraCI-style facade."""

import pytest

from repro.scenarios.core import build_scenario
from repro.traci.session import TraciSession


@pytest.fixture
def session():
    return TraciSession(
        build_scenario("II", seed=3, rows=1, cols=1), engine="meso"
    )


class TestTraciSession:
    def test_step_advances_time(self, session):
        assert session.getTime() == 0.0
        session.simulationStep()
        assert session.getTime() == 1.0

    def test_set_and_get_phase(self, session):
        session.setPhase("J00", 2)
        assert session.getPhase("J00") == 2

    def test_phase_zero_is_transition(self, session):
        session.setPhase("J00", 0)
        assert session.getPhase("J00") == 0

    def test_unknown_light_rejected(self, session):
        with pytest.raises(KeyError):
            session.setPhase("J99", 1)
        with pytest.raises(KeyError):
            session.getPhase("J99")

    def test_unknown_phase_rejected(self, session):
        with pytest.raises(KeyError):
            session.setPhase("J00", 17)

    def test_phase_count(self, session):
        assert session.getPhaseCount("J00") == 4

    def test_batch_engine_rejected_at_construction(self):
        """A session steps one replication; meso-vec only runs batched."""
        with pytest.raises(ValueError, match="batch engine"):
            TraciSession(
                build_scenario("II", seed=3, rows=1, cols=1), engine="meso-vec"
            )

    def test_removed_event_engine_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown engine"):
            TraciSession(
                build_scenario("II", seed=3, rows=1, cols=1),
                engine="meso-events",
            )

    def test_queue_observation(self, session):
        for _ in range(30):
            session.simulationStep()
        obs = session.getQueueObservation("J00")
        assert len(obs.movement_queues) == 12

    def test_lane_area_detector(self, session):
        for _ in range(30):
            session.simulationStep()  # amber: queues build
        total = sum(
            session.getLaneAreaJamVehicles(in_road, out_road)
            for (in_road, out_road) in session.scenario.network.intersections[
                "J00"
            ].movements
        )
        assert total > 0

    def test_halting_number(self, session):
        for _ in range(30):
            session.simulationStep()
        halting = sum(
            session.getLastStepHaltingNumber(road)
            for road in session.scenario.network.intersections["J00"].in_roads
        )
        assert halting >= 0

    def test_min_expected_number(self, session):
        for _ in range(30):
            session.simulationStep()
        assert session.getMinExpectedNumber() > 0

    def test_subscriptions(self, session):
        session.subscribeJunction("J00")
        session.simulationStep()
        results = session.getSubscriptionResults()
        assert set(results) == {"J00"}

    def test_subscribe_unknown_rejected(self, session):
        with pytest.raises(KeyError):
            session.subscribeJunction("J99")

    def test_close_returns_summary_and_blocks_stepping(self, session):
        for _ in range(10):
            session.simulationStep()
        summary = session.close()
        assert summary.duration == pytest.approx(10.0)
        with pytest.raises(RuntimeError):
            session.simulationStep()

    def test_close_idempotent(self, session):
        session.simulationStep()
        first = session.close()
        second = session.close()
        assert first.vehicles_entered == second.vehicles_entered

    def test_micro_engine_session(self):
        session = TraciSession(
            build_scenario("II", seed=3, rows=1, cols=1), engine="micro"
        )
        session.setPhase("J00", 1)
        for _ in range(5):
            session.simulationStep()
        assert session.getTime() == pytest.approx(5.0)


class TestClosedLoopViaTraci:
    def test_manual_controller_loop(self):
        """A full closed loop written the way a TraCI client would."""
        from repro.core.util_bp import UtilBpController

        scenario = build_scenario("I", seed=5, rows=1, cols=1)
        session = TraciSession(scenario, engine="meso")
        controller = UtilBpController(
            scenario.network.intersections["J00"]
        )
        for _ in range(200):
            obs = session.getQueueObservation("J00")
            session.setPhase("J00", controller.decide(obs))
            session.simulationStep()
        summary = session.close()
        assert summary.vehicles_left > 0
