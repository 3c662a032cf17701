"""Decision-level contract of the batched controllers.

:mod:`repro.control.batch` promises that ``decide_batch`` is
decision-for-decision identical to the serial controller of the same
name and parameters — same comparisons, same float evaluation order,
same tie-breaks.  This suite pins that contract directly at the
controller layer:

* lockstep parity — a B=1 meso-vec engine is stepped for hundreds of
  mini-slots while a serial controller (fed ``QueueObservation`` maps)
  and the batched controller (fed the engine's arrays) must emit the
  same phase for every node at every step, for all four controllers;
* batch-width independence of the *decisions* themselves (not just of
  the end-of-run books, which the engine parity suite covers);
* the registry, the protocol, ``reset``, and the constructor/shape
  validation;
* the runner: a single ``meso-vec`` run (a batch of one, decided by the
  batched kernel) equals the ``meso-counts`` run under the scalar
  controller — summary, utilization, phase and queue traces.
"""

import pytest

from repro.control.batch import (
    BatchCapBpController,
    BatchFixedTimeController,
    BatchNetworkController,
    BatchOriginalBpController,
    BatchUtilBpController,
)
from repro.control.factory import CONTROLLER_NAMES, make_network_controller
from repro.core.engine import (
    BATCH_CONTROLLERS,
    build_batch_controller,
    build_batch_engine,
)
from repro.model.grid import build_grid_network
from repro.scenarios import build_named_scenario

#: (controller name, parameters) of every built-in controller.
CONTROLLERS = (
    ("util-bp", {}),
    ("cap-bp", {"period": 16.0}),
    ("original-bp", {"period": 16.0}),
    ("fixed-time", {"period": 16.0}),
)

#: Congested and direction-skewed shapes: the beta (spillback) and
#: alpha (empty movement) branches both fire within the horizon.
SCENARIOS = ("surge-4x4", "asymmetric-3x3")

STEPS = 250


def _as_map(array, node_ids, b=0):
    return {node: int(array[b, i]) for i, node in enumerate(node_ids)}


class TestLockstepParity:
    @pytest.mark.parametrize("scenario_name", SCENARIOS)
    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    def test_batched_equals_serial_every_step(
        self, scenario_name, controller, params
    ):
        """One engine, two controllers: identical decisions, every slot."""
        scenario = build_named_scenario(scenario_name, seed=7)
        sim = build_batch_engine([scenario], "meso-vec")
        serial = make_network_controller(
            controller, scenario.network, **params
        )
        batched = build_batch_controller(
            controller, scenario.network, 1, **params
        )
        node_ids = batched.node_ids
        for step in range(STEPS):
            serial_decisions = serial.decide(sim.observations()[0])
            array = batched.decide_batch(sim.controller_arrays())
            assert _as_map(array, node_ids) == serial_decisions, (
                scenario_name,
                controller,
                step,
            )
            sim.step(1.0, array)


class TestDecisionBatchIndependence:
    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    def test_first_column_matches_b1(self, controller, params):
        """Replication 0 decides identically whether B is 1 or 4."""
        seeds = (7, 8, 9, 10)
        scenarios = [
            build_named_scenario("surge-4x4", seed=s) for s in seeds
        ]
        wide = build_batch_engine(scenarios, "meso-vec")
        narrow = build_batch_engine(scenarios[:1], "meso-vec")
        network = scenarios[0].network
        ctrl_wide = build_batch_controller(
            controller, network, len(seeds), **params
        )
        ctrl_narrow = build_batch_controller(controller, network, 1, **params)
        for step in range(150):
            a_wide = ctrl_wide.decide_batch(wide.controller_arrays())
            a_narrow = ctrl_narrow.decide_batch(narrow.controller_arrays())
            assert (a_wide[0] == a_narrow[0]).all(), (controller, step)
            wide.step(1.0, a_wide)
            narrow.step(1.0, a_narrow)


class TestControllerPlumbing:
    def test_registry_names(self):
        assert set(BATCH_CONTROLLERS.names()) >= set(CONTROLLER_NAMES)

    def test_unknown_name_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(ValueError, match="unknown batch controller"):
            build_batch_controller("no-such-controller", network, 1)

    def test_protocol_conformance(self):
        network = build_grid_network(2, 2)
        for cls, kwargs in (
            (BatchUtilBpController, {}),
            (BatchCapBpController, {"period": 16.0}),
            (BatchOriginalBpController, {"period": 16.0}),
            (BatchFixedTimeController, {"period": 16.0}),
        ):
            controller = cls(network, 3, **kwargs)
            assert isinstance(controller, BatchNetworkController)
            assert controller.batch_size == 3
            assert len(controller.node_ids) == 4

    def test_reset_restores_initial_decisions(self):
        scenario = build_named_scenario("steady-3x3", seed=5)
        controller = build_batch_controller("util-bp", scenario.network, 1)

        def first_decisions():
            sim = build_batch_engine(
                [build_named_scenario("steady-3x3", seed=5)], "meso-vec"
            )
            trace = []
            for _ in range(60):
                array = controller.decide_batch(sim.controller_arrays())
                trace.append(array.copy())
                sim.step(1.0, array)
            return trace

        before = first_decisions()
        controller.reset()
        after = first_decisions()
        assert all((a == b).all() for a, b in zip(before, after))

    def test_shape_mismatch_rejected(self):
        scenario = build_named_scenario("steady-3x3", seed=5)
        controller = build_batch_controller("util-bp", scenario.network, 4)
        sim = build_batch_engine(
            [build_named_scenario("steady-3x3", seed=5)], "meso-vec"
        )
        with pytest.raises(ValueError, match="does not match"):
            controller.decide_batch(sim.controller_arrays())

    def test_invalid_batch_size_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(ValueError, match="batch_size"):
            BatchUtilBpController(network, 0)

    def test_unknown_util_bp_parameter_rejected(self):
        network = build_grid_network(1, 1)
        with pytest.raises(TypeError, match="unknown util-bp"):
            build_batch_controller("util-bp", network, 1, period=16.0)

    def test_fixed_slot_requires_period(self):
        network = build_grid_network(1, 1)
        with pytest.raises(TypeError, match="period"):
            build_batch_controller("cap-bp", network, 1)


class TestRunnerIntegration:
    def test_batched_path_emits_no_fallback_notice(self, capsys):
        from repro.experiments.runner import run_scenario_batch

        scenarios = [
            build_named_scenario("steady-3x3", seed=s) for s in (5, 6)
        ]
        run_scenario_batch(scenarios, controller="util-bp", duration=60.0)
        assert "falling back" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "controller,params", CONTROLLERS, ids=[c for c, _ in CONTROLLERS]
    )
    def test_single_vec_run_equals_counts_run(self, controller, params):
        """A batch of one under the kernel equals the scalar closed loop."""
        from repro.experiments.runner import run_scenario

        knobs = dict(
            controller=controller,
            controller_params=params,
            duration=240.0,
            record_phases=("J00", "J12"),
            record_queues=(("J00", "IN:N@J00"), ("J12", "J11->J12")),
        )
        vec = run_scenario(
            build_named_scenario("surge-4x4", seed=7), engine="meso-vec", **knobs
        )
        counts = run_scenario(
            build_named_scenario("surge-4x4", seed=7),
            engine="meso-counts",
            **knobs,
        )
        assert vec.summary == counts.summary
        assert vec.utilization == counts.utilization
        assert vec.phase_traces == counts.phase_traces
        assert vec.queue_traces == counts.queue_traces
        assert vec == counts
