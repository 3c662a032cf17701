"""Engine-contract conformance suite (repro.core.engine).

One parametrized set of checks run against every registered backend:
the protocol surface, observation shape, determinism under a fixed
seed, and finalize idempotence.  A new engine passes this suite or it
is not an engine.  The batch engine (``meso-vec``) runs the same checks
as a batch of one, reading replication 0 of its per-replication
surfaces.
"""

import pytest

from repro.core.engine import (
    ENGINE_NAMES,
    ENGINES as ENGINE_REGISTRY,
    BatchEngine,
    SimulationEngine,
    build_batch_engine,
    build_engine,
    engine_names,
    provider_module,
    register_engine,
)
from repro.experiments.runner import run_scenario
from repro.scenarios import build_named_scenario
from repro.scenarios.core import build_scenario
from repro.model.phases import TRANSITION_PHASE_INDEX

ENGINES = ("meso", "meso-counts", "meso-vec", "micro")

#: Short horizons keep the micro engine affordable in CI.
HORIZON = {
    "meso": 90.0,
    "meso-counts": 90.0,
    "meso-vec": 90.0,
    "micro": 30.0,
}


def _make(engine: str):
    scenario = build_scenario("I", seed=7)
    if engine == "meso-vec":
        return build_batch_engine([scenario], engine)
    return build_engine(scenario, engine)


def _batched(sim) -> bool:
    return isinstance(sim, BatchEngine)


def _step(sim, decisions) -> None:
    sim.step(1.0, [decisions] if _batched(sim) else decisions)


def _drive(sim, steps: int, phase: int = 1) -> None:
    decisions = {node_id: phase for node_id in sim.network.intersections}
    for _ in range(steps):
        _step(sim, decisions)


def _summary(sim, horizon: float):
    if _batched(sim):
        return sim.summaries(horizon)[0]
    return sim.collector.summary(horizon)


def _row0(sim, value):
    """Replication 0 of a batch engine's per-replication value."""
    return value[0] if _batched(sim) else value


class TestRegistry:
    def test_builtin_names_exposed(self):
        assert ENGINE_NAMES == (
            "meso",
            "meso-counts",
            "meso-vec",
            "micro",
        )
        for name in ENGINE_NAMES:
            assert name in engine_names()

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError, match="unknown engine"):
            build_engine(build_scenario("I"), "warp-drive")

    def test_removed_event_engine_is_unknown(self):
        """``meso-events`` was deleted: a new spec naming it fails at
        construction (stored rows stay readable, see the store tests)."""
        from repro.orchestration import RunSpec

        assert "meso-events" not in engine_names()
        with pytest.raises(ValueError, match="unknown engine"):
            RunSpec(pattern="I", engine="meso-events")

    def test_provider_module(self):
        assert provider_module("meso") == "repro.meso.simulator"
        assert provider_module("meso-counts") == "repro.meso.counts"
        assert provider_module("meso-vec") == "repro.meso.vectorized"
        assert provider_module("micro") == "repro.micro.simulator"
        assert provider_module("nonexistent") is None

        def builder(scenario):  # registered from this test module
            return build_engine(scenario, "meso")

        register_engine("test-provider", builder)
        try:
            assert provider_module("test-provider") == builder.__module__
        finally:
            ENGINE_REGISTRY.builders.pop("test-provider", None)

    def test_custom_registration(self):
        calls = []

        def builder(scenario):
            calls.append(scenario.name)
            return build_engine(scenario, "meso")

        register_engine("test-custom", builder)
        try:
            sim = build_engine(build_scenario("I", seed=3), "test-custom")
            assert calls and isinstance(sim, SimulationEngine)
            assert "test-custom" in engine_names()
        finally:
            ENGINE_REGISTRY.builders.pop("test-custom", None)

    def test_batch_engine_is_not_a_single_engine(self):
        """meso-vec is selectable by name but only runs as a batch."""
        assert "meso-vec" in engine_names()
        with pytest.raises(ValueError, match="build_batch_engine"):
            build_engine(build_scenario("I"), "meso-vec")


class TestBatchRegistry:
    def test_batch_engine_registered(self):
        from repro.core.engine import (
            BatchEngine,
            batch_engine_names,
            build_batch_engine,
            has_batch_engine,
        )

        assert has_batch_engine("meso-vec")
        assert not has_batch_engine("meso")
        assert "meso-vec" in batch_engine_names()
        assert provider_module("meso-vec") == "repro.meso.vectorized"
        scenarios = [build_scenario("I", seed=s) for s in (1, 2, 3)]
        sim = build_batch_engine(scenarios, "meso-vec")
        assert isinstance(sim, BatchEngine)
        assert sim.batch_size == 3
        assert sim.seeds == (1, 2, 3)

    def test_unknown_batch_engine_raises(self):
        from repro.core.engine import build_batch_engine

        with pytest.raises(ValueError, match="unknown batch engine"):
            build_batch_engine([build_scenario("I")], "meso")

    def test_empty_batch_rejected(self):
        from repro.core.engine import build_batch_engine

        with pytest.raises(ValueError, match="at least one"):
            build_batch_engine([], "meso-vec")


@pytest.mark.parametrize("engine", ENGINES)
class TestEngineContract:
    def test_satisfies_protocol(self, engine):
        sim = _make(engine)
        protocol = BatchEngine if engine == "meso-vec" else SimulationEngine
        assert isinstance(sim, protocol)
        assert sim.time == 0.0
        assert _row0(sim, sim.vehicles_in_network()) == 0
        assert _row0(sim, sim.backlog_size()) == 0

    def test_observation_shape(self, engine):
        sim = _make(engine)
        _drive(sim, 5)
        observations = _row0(sim, sim.observations())
        network = sim.network
        assert set(observations) == set(network.intersections)
        for node_id, observation in observations.items():
            intersection = network.intersections[node_id]
            assert observation.time == sim.time
            assert set(observation.movement_queues) == set(
                intersection.movements
            )
            assert set(observation.out_queues) == set(intersection.out_roads)
            assert set(observation.out_capacities) == set(
                intersection.out_roads
            )
            assert all(q >= 0 for q in observation.movement_queues.values())

    def test_determinism_under_fixed_seed(self, engine):
        results = [
            run_scenario(
                build_scenario("I", seed=11),
                controller="util-bp",
                duration=HORIZON[engine],
                engine=engine,
                record_phases=("J00",),
                record_queues=(("J00", "IN:N@J00"),),
            )
            for _ in range(2)
        ]
        assert results[0].summary == results[1].summary
        assert results[0].phase_traces == results[1].phase_traces
        assert results[0].queue_traces == results[1].queue_traces
        assert results[0].utilization == results[1].utilization
        assert (
            results[0].vehicles_in_network == results[1].vehicles_in_network
        )

    def test_finalize_idempotent(self, engine):
        sim = _make(engine)
        _drive(sim, int(HORIZON[engine]))
        sim.finalize()
        first = _summary(sim, HORIZON[engine])
        sim.finalize()  # must be a no-op
        assert _summary(sim, HORIZON[engine]) == first

    def test_step_after_finalize_rejected(self, engine):
        sim = _make(engine)
        _drive(sim, 3)
        sim.finalize()
        with pytest.raises(RuntimeError, match="finalized"):
            _step(sim, {})

    def test_amber_serves_nothing(self, engine):
        sim = _make(engine)
        decisions = {
            node_id: TRANSITION_PHASE_INDEX
            for node_id in sim.network.intersections
        }
        for _ in range(20):
            _step(sim, decisions)
        summary = _summary(sim, 20.0)
        assert summary.vehicles_left == 0
        utilization = (
            sim.utilization_of(0) if _batched(sim) else sim.utilization
        )
        assert all(
            tracker.green_time == 0.0 for tracker in utilization.values()
        )


@pytest.mark.parametrize("size", [11, 12])
@pytest.mark.parametrize("engine", ENGINES)
def test_grids_beyond_ten_keep_every_intersection(engine, size):
    """Ids past row/column 9 stay unique: no intersection is merged away."""
    scenario = build_named_scenario(f"steady-{size}x{size}", seed=3)
    result = run_scenario(scenario, duration=10.0, engine=engine)
    assert len(result.utilization) == size * size
    last = size - 1
    assert {f"J1_{last}", f"J{last}_1"} <= set(result.utilization)
