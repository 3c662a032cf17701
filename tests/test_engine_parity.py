"""Equivalence suite: ``meso-counts`` against the reference ``meso``,
and ``meso-vec`` against ``meso-counts``.

The counts-based engine claims *step-for-step identical* Eq.-2
dynamics under a shared seed, not statistical similarity.  This suite
drives both engines in lockstep over steady/tidal/surge catalog
scenarios and asserts, at every mini-slot:

* identical queue observations (per-movement queues, outgoing queues,
  capacities) — the controller-visible state ``Q(k)``;
* identical occupancy introspection (vehicles in network, backlog,
  per-road stop-line totals);

and, at the end of the run:

* identical utilization books per intersection;
* identical entered/left counts and total queuing time (the counts
  engine's waiting-time integral must equal the per-vehicle sum);
* a flagged aggregate summary (``delay_mode``) whose exact fields
  match the reference.

Both closed-loop (util-bp, each engine fed its own observations) and
open-loop (fixed phase schedule) drives are covered: closed-loop
proves the engines are interchangeable inside the real control loop,
open-loop proves the parity does not depend on the controller masking
differences.
``TestMiniSlotParity`` repeats the closed-loop chain at mini-slots
other than 1 s.

The ``meso-vec`` batch engine extends the chain: at ``B=1`` it must be
*exactly* equal to ``meso-counts`` under the same seed (same lockstep
checks), and every replication's results must be independent of the
batch size — together those two pin each replication of any batch to
the serial trajectory of its seed.
"""

import pytest

from repro.control.factory import make_network_controller
from repro.core.engine import (
    build_batch_controller,
    build_batch_engine,
    build_engine,
    has_batch_engine,
)
from repro.scenarios import build_named_scenario

#: The catalog entries the parity claim is asserted on (the demand
#: shapes differ: constant, piecewise tidal swap, load spike).
SCENARIOS = ("steady-3x3", "tidal-3x3", "surge-4x4")

STEPS = 300


def _build(name, engine):
    """A single engine, or a batch engine as a batch of one."""
    scenario = build_named_scenario(name, seed=11)
    if has_batch_engine(engine):
        return build_batch_engine([scenario], engine)
    return build_engine(scenario, engine)


class _Row0:
    """Replication 0 of a batch of one, read through the lockstep's calls."""

    def __init__(self, batch):
        self.batch = batch

    def observations(self):
        return self.batch.observations()[0]

    def vehicles_in_network(self):
        return int(self.batch.vehicles_in_network()[0])

    def backlog_size(self):
        return int(self.batch.backlog_size()[0])

    def incoming_queue_total(self, road):
        return int(self.batch.incoming_queue_total(road)[0])

    def step(self, dt, phases):
        self.batch.step(dt, [phases])


def _lockstep(
    name,
    decide_a,
    decide_b,
    steps=STEPS,
    engines=("meso", "meso-counts"),
    dt=1.0,
):
    """Drive two engines in lockstep; assert per-step equivalence.

    Every step lasts ``dt`` seconds.  Returns the two engines; a batch
    engine (``meso-vec``) runs as a batch of one and is compared
    through replication 0.
    """
    reference, counts = (_build(name, engine) for engine in engines)
    views = [
        _Row0(sim) if has_batch_engine(engine) else sim
        for sim, engine in zip((reference, counts), engines)
    ]
    roads = list(reference.network.roads)
    for step in range(steps):
        obs_ref = views[0].observations()
        obs_cnt = views[1].observations()
        assert set(obs_ref) == set(obs_cnt)
        for node_id in obs_ref:
            a, b = obs_ref[node_id], obs_cnt[node_id]
            assert a.movement_queues == b.movement_queues, (name, step, node_id)
            assert a.out_queues == b.out_queues, (name, step, node_id)
            assert a.out_capacities == b.out_capacities, (name, step, node_id)
        assert views[0].vehicles_in_network() == views[1].vehicles_in_network()
        assert views[0].backlog_size() == views[1].backlog_size()
        if step % 25 == 0:  # spot-check the per-road introspection
            for road in roads:
                assert views[0].incoming_queue_total(
                    road
                ) == views[1].incoming_queue_total(road), (name, step, road)
        phases_ref = decide_a(obs_ref, step)
        phases_cnt = decide_b(obs_cnt, step)
        assert phases_ref == phases_cnt, (name, step)
        views[0].step(dt, phases_ref)
        views[1].step(dt, phases_cnt)
    reference.finalize()
    counts.finalize()
    return reference, counts


def _assert_books_match(reference, counts, horizon=float(STEPS)):
    ref_util = {n: t.to_dict() for n, t in reference.utilization.items()}
    cnt_util = {n: t.to_dict() for n, t in counts.utilization.items()}
    assert ref_util == cnt_util
    ref = reference.collector.summary(horizon)
    cnt = counts.collector.summary(horizon)
    assert ref.delay_mode == "per-vehicle"
    assert cnt.delay_mode == "aggregate"
    assert cnt.vehicles_entered == ref.vehicles_entered
    assert cnt.vehicles_left == ref.vehicles_left
    # The waiting-count integral equals the per-vehicle waiting sum
    # exactly — joins and services land on mini-slot boundaries.
    assert cnt.total_queuing_time == ref.total_queuing_time
    assert cnt.average_queuing_time == pytest.approx(ref.average_queuing_time)
    assert cnt.throughput_per_hour == pytest.approx(ref.throughput_per_hour)


@pytest.mark.parametrize("name", SCENARIOS)
class TestTrajectoryParity:
    def test_closed_loop_util_bp(self, name):
        scenario = build_named_scenario(name, seed=11)
        controllers = [
            make_network_controller("util-bp", scenario.network)
            for _ in range(2)
        ]
        reference, counts = _lockstep(
            name,
            lambda obs, step: controllers[0].decide(obs),
            lambda obs, step: controllers[1].decide(obs),
        )
        _assert_books_match(reference, counts)

    def test_open_loop_fixed_phases(self, name):
        scenario = build_named_scenario(name, seed=11)
        nodes = list(scenario.network.intersections)

        def fixed(obs, step):
            # 12 s green dwells cycling all four phases, with an amber
            # step at every switch (phase 0), like a real signal plan.
            slot, offset = divmod(step, 13)
            phase = 0 if offset == 12 else 1 + slot % 4
            return {node: phase for node in nodes}

        reference, counts = _lockstep(name, fixed, fixed)
        _assert_books_match(reference, counts)


@pytest.mark.parametrize("name", SCENARIOS)
class TestVectorizedTrajectoryParity:
    """``meso-vec`` at B=1 against ``meso-counts``: exact, per step.

    The batch engine is built with ``build_batch_engine([scenario])``
    and every comparison reads its replication 0.
    """

    ENGINES = ("meso-counts", "meso-vec")

    def _assert_aggregate_books_match(self, counts, vectorized):
        horizon = float(STEPS)
        cnt_util = {n: t.to_dict() for n, t in counts.utilization.items()}
        vec_util = {
            n: t.to_dict() for n, t in vectorized.utilization_of(0).items()
        }
        assert cnt_util == vec_util
        # Both report aggregate books, so the whole summary — travel
        # time estimate included — must be bit-for-bit equal.
        cnt = counts.collector.summary(horizon)
        vec = vectorized.summaries(horizon)[0]
        assert cnt.delay_mode == vec.delay_mode == "aggregate"
        assert cnt == vec

    def test_closed_loop_util_bp(self, name):
        scenario = build_named_scenario(name, seed=11)
        controllers = [
            make_network_controller("util-bp", scenario.network)
            for _ in range(2)
        ]
        counts, vectorized = _lockstep(
            name,
            lambda obs, step: controllers[0].decide(obs),
            lambda obs, step: controllers[1].decide(obs),
            engines=self.ENGINES,
        )
        self._assert_aggregate_books_match(counts, vectorized)

    def test_open_loop_fixed_phases(self, name):
        scenario = build_named_scenario(name, seed=11)
        nodes = list(scenario.network.intersections)

        def fixed(obs, step):
            slot, offset = divmod(step, 13)
            phase = 0 if offset == 12 else 1 + slot % 4
            return {node: phase for node in nodes}

        counts, vectorized = _lockstep(
            name, fixed, fixed, engines=self.ENGINES
        )
        self._assert_aggregate_books_match(counts, vectorized)


@pytest.mark.parametrize("name", SCENARIOS)
class TestMiniSlotParity:
    """The parity chain at mini-slots other than 1 s.

    ``RunConfig.mini_slot`` sets the step length of every engine.  At a
    dyadic length every join and service time is exact, so ``meso``
    and ``meso-counts`` still agree bit for bit (at 0.7 s the
    per-vehicle waiting sum and the counts integral differ in the last
    ulp, so that pair is held to dyadic lengths).  ``meso-counts`` and
    ``meso-vec`` evaluate the same float operations, so they agree at
    any length.
    """

    STEPS = 200

    def _controllers(self, name):
        network = build_named_scenario(name, seed=11).network
        return [make_network_controller("util-bp", network) for _ in range(2)]

    @pytest.mark.parametrize("dt", (0.5, 2.0))
    def test_counts_equals_reference(self, name, dt):
        controllers = self._controllers(name)
        reference, counts = _lockstep(
            name,
            lambda obs, step: controllers[0].decide(obs),
            lambda obs, step: controllers[1].decide(obs),
            steps=self.STEPS,
            dt=dt,
        )
        _assert_books_match(reference, counts, horizon=self.STEPS * dt)

    @pytest.mark.parametrize("dt", (0.5, 0.7, 2.0))
    def test_vectorized_equals_counts(self, name, dt):
        controllers = self._controllers(name)
        counts, vectorized = _lockstep(
            name,
            lambda obs, step: controllers[0].decide(obs),
            lambda obs, step: controllers[1].decide(obs),
            steps=self.STEPS,
            engines=("meso-counts", "meso-vec"),
            dt=dt,
        )
        horizon = self.STEPS * dt
        assert {n: t.to_dict() for n, t in counts.utilization.items()} == {
            n: t.to_dict() for n, t in vectorized.utilization_of(0).items()
        }
        assert counts.collector.summary(horizon) == (
            vectorized.summaries(horizon)[0]
        )


class TestBatchIndependence:
    """Replication results must not depend on the batch size."""

    STEPS = 200
    NAME = "surge-4x4"  # congested: exercises the staged serve path

    def _run(self, seeds):
        scenarios = [build_named_scenario(self.NAME, seed=s) for s in seeds]
        sim = build_batch_engine(scenarios, "meso-vec")
        controllers = [
            make_network_controller("util-bp", scenarios[0].network)
            for _ in seeds
        ]
        for _ in range(self.STEPS):
            observations = sim.observations()
            sim.step(
                1.0,
                [
                    controller.decide(obs)
                    for controller, obs in zip(controllers, observations)
                ],
            )
        sim.finalize()
        return {
            seed: (
                sim.collector.summary_of(b, float(self.STEPS)),
                {n: t.to_dict() for n, t in sim.utilization_of(b).items()},
            )
            for b, seed in enumerate(seeds)
        }

    def test_b16_b4_b1_agree(self):
        seeds = tuple(range(21, 37))
        b16 = self._run(seeds)
        b4 = self._run(seeds[:4])
        b1 = self._run(seeds[:1])
        for seed in seeds[:4]:
            assert b16[seed] == b4[seed], seed
        assert b16[seeds[0]] == b1[seeds[0]]

    def test_batch_replication_equals_serial_counts_engine(self):
        """Any batch member equals the serial meso-counts run of its seed."""
        seeds = (21, 22, 23, 24)
        batch = self._run(seeds)
        scenario = build_named_scenario(self.NAME, seed=22)
        sim = build_engine(scenario, "meso-counts")
        controller = make_network_controller("util-bp", scenario.network)
        for _ in range(self.STEPS):
            sim.step(1.0, controller.decide(sim.observations()))
        sim.finalize()
        summary, util = batch[22]
        assert summary == sim.collector.summary(float(self.STEPS))
        assert util == {n: t.to_dict() for n, t in sim.utilization.items()}


class TestBatchedControllerParity:
    """The batched closed loop against the serial one: exact parity.

    The serial side is a meso-counts engine fed to a per-replication
    ``util-bp`` controller through ``QueueObservation`` dicts; the
    batched side is a meso-vec engine whose internal arrays feed the
    vectorized util-bp kernel (``decide_batch``).  Beyond the steady
    family the loop is pinned on the incident (capacity drop mid-run)
    and asymmetric (direction-skewed demand) families — the shapes
    where spillback/beta and empty-movement/alpha branches actually
    fire.
    """

    SCENARIOS = ("steady-3x3", "incident-3x3", "asymmetric-3x3")
    STEPS = 250

    @pytest.mark.parametrize("name", SCENARIOS)
    def test_b1_lockstep_equals_serial(self, name):
        """Decision-for-decision identity at B=1, every mini-slot."""
        scenario = build_named_scenario(name, seed=11)
        serial = build_engine(
            build_named_scenario(name, seed=11), "meso-counts"
        )
        controller = make_network_controller("util-bp", scenario.network)
        batch = build_batch_engine(
            [build_named_scenario(name, seed=11)], "meso-vec"
        )
        batched = build_batch_controller("util-bp", scenario.network, 1)
        node_ids = batched.node_ids
        for step in range(self.STEPS):
            serial_decisions = controller.decide(serial.observations())
            array = batched.decide_batch(batch.controller_arrays())
            batched_decisions = {
                node: int(array[0, i]) for i, node in enumerate(node_ids)
            }
            assert serial_decisions == batched_decisions, (name, step)
            serial.step(1.0, serial_decisions)
            batch.step(1.0, array)
        serial.finalize()
        batch.finalize()
        horizon = float(self.STEPS)
        assert (
            batch.collector.summary_of(0, horizon)
            == serial.collector.summary(horizon)
        )
        assert {
            n: t.to_dict() for n, t in batch.utilization_of(0).items()
        } == {n: t.to_dict() for n, t in serial.utilization.items()}

    def _run_batched(self, name, seeds):
        scenarios = [build_named_scenario(name, seed=s) for s in seeds]
        sim = build_batch_engine(scenarios, "meso-vec")
        controller = build_batch_controller(
            "util-bp", scenarios[0].network, len(seeds)
        )
        for _ in range(self.STEPS):
            sim.step(
                1.0, controller.decide_batch(sim.controller_arrays())
            )
        sim.finalize()
        return {
            seed: (
                sim.collector.summary_of(b, float(self.STEPS)),
                {n: t.to_dict() for n, t in sim.utilization_of(b).items()},
            )
            for b, seed in enumerate(seeds)
        }

    @pytest.mark.parametrize("name", ("incident-3x3", "asymmetric-3x3"))
    def test_batched_controller_is_batch_width_independent(self, name):
        """B in {1, 4, 16}: each seed's results never depend on B."""
        seeds = tuple(range(41, 57))
        b16 = self._run_batched(name, seeds)
        b4 = self._run_batched(name, seeds[:4])
        b1 = self._run_batched(name, seeds[:1])
        for seed in seeds[:4]:
            assert b16[seed] == b4[seed], (name, seed)
        assert b16[seeds[0]] == b1[seeds[0]], name


class TestBatchRunner:
    def test_batch_results_equal_single_runs(self):
        """run_scenario_batch fans out to exactly the single-run results."""
        from repro.experiments.runner import run_scenario, run_scenario_batch

        record = dict(
            record_phases=("J00",), record_queues=(("J00", "IN:N@J00"),)
        )
        scenarios = [
            build_named_scenario("steady-3x3", seed=s) for s in (5, 6, 7)
        ]
        batch = run_scenario_batch(
            scenarios, controller="util-bp", duration=150.0, **record
        )
        for scenario, result in zip(scenarios, batch):
            single = run_scenario(
                build_named_scenario("steady-3x3", seed=scenario.seed),
                controller="util-bp",
                duration=150.0,
                engine="meso-vec",
                **record,
            )
            assert result == single

    def test_constant_mini_slot_contract(self):
        from repro.meso.vectorized import BatchCountsSimulator

        scenario = build_named_scenario("steady-3x3", seed=1)
        sim = BatchCountsSimulator(
            network=scenario.network,
            demand=scenario.demand,
            turning=scenario.turning,
            seeds=(1, 2),
        )
        sim.step(1.0, [{}, {}])
        with pytest.raises(ValueError, match="constant mini-slot"):
            sim.step(0.5, [{}, {}])


class TestAggregateSummary:
    def test_travel_time_is_littles_law_estimate(self):
        """The flagged field differs from per-vehicle (it is an estimate)."""
        scenario = build_named_scenario("steady-3x3", seed=11)
        controllers = [
            make_network_controller("util-bp", scenario.network)
            for _ in range(2)
        ]
        reference, counts = _lockstep(
            "steady-3x3",
            lambda obs, step: controllers[0].decide(obs),
            lambda obs, step: controllers[1].decide(obs),
        )
        ref = reference.collector.summary(float(STEPS))
        cnt = counts.collector.summary(float(STEPS))
        # Little's law bounds sanity: positive whenever trips completed,
        # and within the same order of magnitude as the exact average.
        assert cnt.average_travel_time > 0
        assert cnt.average_travel_time == pytest.approx(
            ref.average_travel_time, rel=1.0
        )
        # Unavailable per-vehicle extreme is reported as 0 and the mode
        # flag warns the consumer.
        assert cnt.max_queuing_time == 0.0
        assert "Little's-law" in str(cnt)