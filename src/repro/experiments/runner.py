"""The closed control loop: scenario + controller + engine -> results.

This is the only place where the cyber part (controllers) and the
physical part (simulators) touch: every mini-slot the runner reads the
queue observations ``Q(k)``, asks the controller for each
intersection's phase, and applies the decisions to the engine.  One
loop serves both runners — :func:`run_scenario` is a batch of one —
and it pairs each engine kind with its controller kind:

* a single engine (``meso``, ``meso-counts``, ``micro``) is driven by
  the scalar :class:`~repro.control.base.NetworkController` on its
  per-intersection observations;
* a batch engine (``meso-vec``) is driven, at any batch size including
  one, by the :class:`~repro.control.batch.BatchNetworkController` of
  the same name on the engine's ``controller_arrays()``.

The engine contracts and the name-based registries live in
:mod:`repro.core.engine`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import (
    batch_engine_names,
    build_batch_controller,
    build_batch_engine,
    build_engine,
    has_batch_engine,
)
from repro.control.factory import make_network_controller
from repro.scenarios.core import Scenario
from repro.metrics.collector import Summary
from repro.metrics.traces import PhaseTrace, QueueTrace, next_grid_sample
from repro.metrics.utilization import UtilizationTracker
from repro.model.phases import TRANSITION_PHASE_INDEX
from repro.util.validation import check_positive

__all__ = [
    "RunConfig",
    "RunResult",
    "run_scenario",
    "run_scenario_batch",
]


@dataclass(frozen=True)
class RunConfig:
    """The run knobs shared by :func:`run_scenario` and
    :func:`run_scenario_batch`.

    Both runners accept exactly these fields, keyword-only (the two
    signatures had drifted apart; this is now the single source of
    truth).  Unknown knobs and invalid values are rejected here,
    *before* any engine is built — mirroring the eager scenario-param
    validation — so a typo fails in milliseconds instead of after an
    expensive batch-engine construction.

    The only asymmetry between the runners is the default ``engine``:
    ``"meso"`` for single runs, ``"meso-vec"`` for batches.
    """

    controller: str = "util-bp"
    controller_params: Optional[Dict[str, Any]] = None
    duration: Optional[float] = None
    engine: str = "meso"
    mini_slot: float = 1.0
    record_phases: Sequence[str] = ()
    record_queues: Sequence[Tuple[str, str]] = ()
    queue_sample_interval: float = 5.0

    def __post_init__(self) -> None:
        check_positive("mini_slot", self.mini_slot)
        check_positive("queue_sample_interval", self.queue_sample_interval)
        if self.duration is not None:
            check_positive("duration", float(self.duration))

    @classmethod
    def resolve(cls, default_engine: str, knobs: Dict[str, Any]) -> "RunConfig":
        """Build a config from a runner's ``**knobs``, eagerly validated.

        ``config=<RunConfig>`` passes a ready-made config through (the
        orchestration layer's path — :meth:`RunSpec.run_config`); it
        cannot be combined with loose knobs, so a call site is always
        unambiguously on one surface or the other.
        """
        config = knobs.pop("config", None)
        if config is not None:
            if not isinstance(config, cls):
                raise TypeError(
                    f"config must be a {cls.__name__}, got {type(config).__name__}"
                )
            if knobs:
                raise TypeError(
                    f"config= cannot be combined with loose run knob(s) "
                    f"{sorted(knobs)}"
                )
            return config
        valid = {f.name for f in fields(cls)}
        unknown = sorted(set(knobs) - valid)
        if unknown:
            raise TypeError(
                f"unknown run knob(s) {unknown}; valid knobs: {sorted(valid)}"
            )
        knobs.setdefault("engine", default_engine)
        return cls(**knobs)

    def horizon(self, scenario: Scenario) -> float:
        """The simulation horizon: explicit ``duration`` or the scenario's."""
        if self.duration is None:
            return scenario.default_duration
        return float(self.duration)


@dataclass
class RunResult:
    """Everything measured during one closed-loop run."""

    scenario_name: str
    controller_name: str
    duration: float
    summary: Summary
    phase_traces: Dict[str, PhaseTrace] = field(default_factory=dict)
    queue_traces: Dict[Tuple[str, ...], QueueTrace] = field(default_factory=dict)
    utilization: Dict[str, UtilizationTracker] = field(default_factory=dict)
    vehicles_in_network: int = 0
    backlog: int = 0

    @property
    def average_queuing_time(self) -> float:
        """The paper's headline metric for this run."""
        return self.summary.average_queuing_time

    def network_utilization(self) -> UtilizationTracker:
        """All intersections' utilization trackers merged."""
        trackers = list(self.utilization.values())
        if not trackers:
            return UtilizationTracker(node_id="none")
        merged = trackers[0]
        for tracker in trackers[1:]:
            merged = merged.merged(tracker)
        return merged

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable view (crosses process/disk boundaries)."""
        return {
            "scenario_name": self.scenario_name,
            "controller_name": self.controller_name,
            "duration": self.duration,
            "summary": self.summary.to_dict(),
            "phase_traces": {
                node_id: trace.to_dict()
                for node_id, trace in self.phase_traces.items()
            },
            # JSON keys must be strings; the (node, road) key is kept
            # inside each entry instead.
            "queue_traces": [
                {"node_id": node_id, "road_id": road_id, "trace": trace.to_dict()}
                for (node_id, road_id), trace in self.queue_traces.items()
            ],
            "utilization": {
                node_id: tracker.to_dict()
                for node_id, tracker in self.utilization.items()
            },
            "vehicles_in_network": self.vehicles_in_network,
            "backlog": self.backlog,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RunResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        return cls(
            scenario_name=payload["scenario_name"],
            controller_name=payload["controller_name"],
            duration=float(payload["duration"]),
            summary=Summary.from_dict(payload["summary"]),
            phase_traces={
                node_id: PhaseTrace.from_dict(data)
                for node_id, data in payload.get("phase_traces", {}).items()
            },
            queue_traces={
                (entry["node_id"], entry["road_id"]): QueueTrace.from_dict(
                    entry["trace"]
                )
                for entry in payload.get("queue_traces", [])
            },
            utilization={
                node_id: UtilizationTracker.from_dict(data)
                for node_id, data in payload.get("utilization", {}).items()
            },
            vehicles_in_network=int(payload.get("vehicles_in_network", 0)),
            backlog=int(payload.get("backlog", 0)),
        )


def run_scenario(scenario: Scenario, **knobs: Any) -> RunResult:
    """Run a scenario under a controller and collect the results.

    All knobs are keyword-only and shared with
    :func:`run_scenario_batch` — see :class:`RunConfig` for the full
    set, defaults and validation.  The ones used most:

    Parameters
    ----------
    scenario:
        The scenario to simulate (the only positional argument).
    controller:
        Controller name (see :data:`repro.control.factory.CONTROLLER_NAMES`).
    controller_params:
        Keyword parameters for the controller (e.g. ``period=16`` for
        the fixed-slot baselines).
    duration:
        Simulation horizon in seconds; defaults to the scenario's.
    engine:
        An engine name from :func:`repro.core.engine.engine_names`
        (default ``"meso"``).  A batch engine runs as a batch of one.
    mini_slot:
        The control mini-slot ``Delta_t`` (s); controllers are invoked
        once per mini-slot.
    record_phases:
        Node ids whose applied-phase traces should be recorded
        (Figs. 3-4).
    record_queues:
        ``(node_id, in_road)`` pairs whose total stop-line queue should
        be sampled every ``queue_sample_interval`` seconds (Fig. 5).
    """
    return _closed_loop([scenario], RunConfig.resolve("meso", knobs))[0]


def run_scenario_batch(scenarios: Sequence[Scenario], **knobs: Any) -> list:
    """Run many replications of one scenario shape in a single batch engine.

    All knobs are keyword-only and identical to :func:`run_scenario`'s
    (see :class:`RunConfig`); only the default ``engine`` differs
    (``"meso-vec"``, which must name a batch engine when there is more
    than one scenario).  Unknown knobs and bad controller specs are
    rejected before the batch engine is built.

    ``scenarios`` share the workload shape (same network, demand and
    turning model — typically one :class:`Scenario` per seed).  Every
    mini-slot one :class:`~repro.control.batch.BatchNetworkController`
    decides all replications on the engine's arrays.  Returns one
    :class:`RunResult` per scenario, in order; by the batch engines'
    and batched controllers' parity contracts each equals the single
    run of that scenario on ``meso-counts``.
    """
    config = RunConfig.resolve("meso-vec", knobs)
    if not scenarios:
        return []
    return _closed_loop(scenarios, config)


class _SinglePlant:
    """A single engine under the scalar :class:`NetworkController`."""

    def __init__(self, scenarios: Sequence[Scenario], config: RunConfig):
        if len(scenarios) != 1:
            raise ValueError(
                f"engine {config.engine!r} steps one replication at a time; "
                f"batches need a batch engine: {list(batch_engine_names())}"
            )
        (scenario,) = scenarios
        self.controller = make_network_controller(
            config.controller,
            scenario.network,
            **(config.controller_params or {}),
        )
        self.sim = build_engine(scenario, config.engine)

    def decide(self) -> Dict[str, int]:
        """Every intersection's phase for the next mini-slot."""
        return self.controller.decide(self.sim.observations())

    @staticmethod
    def phase(decisions: Dict[str, int], b: int, node_id: str) -> int:
        """The decision for one node (absent: amber, as the engine reads it)."""
        return decisions.get(node_id, TRANSITION_PHASE_INDEX)

    def queue_totals(self, road_id: str) -> Sequence[int]:
        """One road's stop-line queue, per replication."""
        return (self.sim.incoming_queue_total(road_id),)

    def outcomes(self, horizon: float) -> List[Dict[str, Any]]:
        """Finalize; the engine-side :class:`RunResult` fields, per replication."""
        sim = self.sim
        sim.finalize()
        return [dict(
            summary=sim.collector.summary(horizon),
            utilization=dict(sim.utilization),
            vehicles_in_network=sim.vehicles_in_network(),
            backlog=sim.backlog_size(),
        )]


class _BatchPlant:
    """A batch engine under its :class:`BatchNetworkController`, any B."""

    def __init__(self, scenarios: Sequence[Scenario], config: RunConfig):
        self.controller = build_batch_controller(
            config.controller,
            scenarios[0].network,
            len(scenarios),
            **(config.controller_params or {}),
        )
        self.sim = build_batch_engine(scenarios, config.engine)
        layout = (self.controller.node_ids, self.controller.movement_keys)
        if self.sim.movement_layout != layout:
            raise ValueError(
                f"batch engine {config.engine!r} and batch controller "
                f"{config.controller!r} disagree on the movement layout"
            )
        self._column = {
            node_id: i for i, node_id in enumerate(self.controller.node_ids)
        }

    def decide(self) -> np.ndarray:
        """The ``(B, n_nodes)`` phase decisions for the next mini-slot."""
        return self.controller.decide_batch(self.sim.controller_arrays())

    def phase(self, decisions: np.ndarray, b: int, node_id: str) -> int:
        """Replication ``b``'s decision for one node (absent: amber)."""
        column = self._column.get(node_id)
        if column is None:
            return TRANSITION_PHASE_INDEX
        return int(decisions[b, column])

    def queue_totals(self, road_id: str) -> Sequence[int]:
        """One road's stop-line queue, per replication."""
        return self.sim.incoming_queue_total(road_id)

    def outcomes(self, horizon: float) -> List[Dict[str, Any]]:
        """Finalize; the engine-side :class:`RunResult` fields, per replication."""
        sim = self.sim
        sim.finalize()
        in_network = sim.vehicles_in_network()
        backlog = sim.backlog_size()
        return [
            dict(
                summary=summary,
                utilization=sim.utilization_of(b),
                vehicles_in_network=int(in_network[b]),
                backlog=int(backlog[b]),
            )
            for b, summary in enumerate(sim.summaries(horizon))
        ]


def _closed_loop(
    scenarios: Sequence[Scenario], config: RunConfig
) -> List[RunResult]:
    """The per-mini-slot loop behind both runners, one result per scenario.

    The engine kind picks the plant: a batch engine with its batched
    controller, anything else a single engine with the scalar one.  The
    controller is built first — its factory validates the name and
    parameters, so a bad spec fails before the engine is built.
    """
    horizon = config.horizon(scenarios[0])
    check_positive("duration", horizon)
    plant_type = _BatchPlant if has_batch_engine(config.engine) else _SinglePlant
    plant = plant_type(scenarios, config)
    sim = plant.sim

    mini_slot = config.mini_slot
    record_phases = config.record_phases
    record_queues = config.record_queues
    queue_roads = {road for _, road in record_queues}
    phase_traces = [
        {node_id: PhaseTrace(node_id) for node_id in record_phases}
        for _ in scenarios
    ]
    queue_traces = [
        {
            (node_id, road): QueueTrace(road_id=road)
            for node_id, road in record_queues
        }
        for _ in scenarios
    ]
    next_queue_sample = 0.0

    steps = int(round(horizon / mini_slot))
    for _ in range(steps):
        now = sim.time
        decisions = plant.decide()
        if record_phases:
            for b, traces in enumerate(phase_traces):
                for node_id, trace in traces.items():
                    trace.record(now, plant.phase(decisions, b, node_id))
        if record_queues and now >= next_queue_sample:
            totals = {road: plant.queue_totals(road) for road in queue_roads}
            for b, traces in enumerate(queue_traces):
                for (_, road), trace in traces.items():
                    trace.sample(now, int(totals[road][b]))
            next_queue_sample = next_grid_sample(
                now, config.queue_sample_interval
            )
        sim.step(mini_slot, decisions)

    return [
        RunResult(
            scenario_name=scenario.name,
            controller_name=config.controller,
            duration=horizon,
            phase_traces=phases,
            queue_traces=queues,
            **outcome,
        )
        for scenario, phases, queues, outcome in zip(
            scenarios, phase_traces, queue_traces, plant.outcomes(horizon)
        )
    ]
