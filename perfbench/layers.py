"""Where the traced pass wraps ``repro``, and the per-layer metrics it yields.

Layers are named after the program's modules.  Each entry of
:data:`SPANS` names one public function or method, the module that
looks it up, and the span its calls record.  Spans nest: a layer's self
time is its spans' duration minus what their child spans cover.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.tracing import Tracer, calls_by_name, patch, root_time, self_time_by_name


def _engine_layer(args: tuple) -> str:
    """``build_engine(scenario, engine)`` spans go to the engine's module."""
    engine = args[1] if len(args) > 1 else "meso"
    return "micro.build" if engine == "micro" else "meso.build"


#: Engine classes the workloads step, with the layer they belong to.
ENGINES = (
    ("repro.meso.simulator", "MesoSimulator", "meso"),
    ("repro.meso.counts", "CountsSimulator", "meso"),
    ("repro.meso.vectorized", "BatchCountsSimulator", "meso"),
    ("repro.micro.simulator", "MicroSimulator", "micro"),
)

#: ``(module, class or None, attribute, span name)``; the module is where
#: the caller looks the name up.
SPANS: Tuple[Tuple[str, Optional[str], str, Any], ...] = (
    ("repro.orchestration.pool", "ExperimentPool", "run", "orchestration.pool_run"),
    ("repro.orchestration.spec", "SweepGrid", "specs", "orchestration.expand"),
    ("repro.orchestration.spec", "RunSpec", "spec_hash", "orchestration.hash"),
    ("repro.orchestration.spec", "RunSpec", "execute", "orchestration.execute"),
    ("repro.orchestration.spec", "BatchRunSpec", "execute", "orchestration.execute"),
    ("repro.orchestration.spec", "RunSpec", "make_scenario", "scenarios.build"),
    ("repro.orchestration.spec", None, "run_scenario", "experiments.run"),
    ("repro.orchestration.spec", None, "run_scenario_batch", "experiments.run"),
    ("repro.experiments.runner", "RunResult", "to_dict", "experiments.encode"),
    ("repro.experiments.runner", "RunResult", "from_dict", "experiments.decode"),
    ("repro.experiments.runner", None, "make_network_controller", "control.build"),
    ("repro.experiments.runner", None, "build_batch_controller", "control.build"),
    ("repro.experiments.runner", None, "build_engine", _engine_layer),
    ("repro.experiments.runner", None, "build_batch_engine", "meso.build"),
    ("repro.control.base", "NetworkController", "decide", "control.decide"),
    ("repro.control.batch", "BatchUtilBpController", "decide_batch", "control.decide_batch"),
    ("repro.control.batch", "_BatchFixedSlotController", "decide_batch", "control.decide_batch"),
    *(
        (module, cls, method, f"{layer}.{span}")
        for module, cls, layer in ENGINES
        for method, span in (
            ("observations", "observe"),
            ("step", "step"),
            ("finalize", "finalize"),
        )
    ),
    ("repro.meso.vectorized", "BatchCountsSimulator", "controller_arrays", "meso.arrays"),
    ("repro.metrics.collector", "MetricsCollector", "summary", "metrics.summary"),
    ("repro.metrics.aggregate", "AggregateMetricsCollector", "summary", "metrics.summary"),
    ("repro.metrics.aggregate", "BatchAggregateMetricsCollector", "summaries", "metrics.summary"),
    ("repro.results.store", "ResultStore", "put", "results.put"),
    ("repro.results.store", "ResultStore", "get", "results.get"),
    ("repro.results.store", "ResultStore", "query", "results.query"),
    ("repro.analysis.stability", None, "analyze_records", "analysis.records"),
    # The stability analyzer runs the detector through these three names
    # (it does not call ``detect_changepoint``).
    ("repro.analysis.stability", None, "cusum_scan", "analysis.detect_scan"),
    ("repro.analysis.stability", None, "permutation_threshold", "analysis.detect"),
    ("repro.analysis.stability", None, "onset_interval", "analysis.detect"),
)


def _counter(tracer: Tracer, span: Any) -> Optional[Callable[[tuple, Any], None]]:
    """The count hook a span needs, if any."""
    if span in ("meso.step", "micro.step"):
        layer = span.split(".")[0]

        def steps(args: tuple, result: Any) -> None:
            tracer.add(f"{layer}.rep_steps", getattr(args[0], "batch_size", 1))

        return steps
    if span == "control.decide":
        return lambda args, result: tracer.add("control.rep_decisions")
    if span == "control.decide_batch":

        def batch(args: tuple, result: Any) -> None:
            tracer.add("control.rep_decisions", args[0].batch_size)
            tracer.add("control.batched_decisions", args[0].batch_size)

        return batch
    if span == "results.get":

        def hits(args: tuple, result: Any) -> None:
            if result is not None:
                tracer.add("results.get_hits")

        return hits
    return None


def install(tracer: Tracer) -> List[Callable[[], None]]:
    """Wrap every :data:`SPANS` entry; returns the undo functions."""
    undo = []
    for module_name, class_name, attribute, span in SPANS:
        owner: Any = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        undo.append(patch(owner, attribute, tracer.wrapper(span, _counter(tracer, span))))
    return undo


#: Per-layer metrics in report order: name -> unit.
PER_LAYER: Dict[str, str] = {
    "control.decide_s": "s",
    "control.decide_calls": "count",
    "control.decide_batch_s": "s",
    "control.build_s": "s",
    "control.batched_share": "ratio",
    **{
        f"{layer}.{metric}": unit
        for layer in ("meso", "micro")
        for metric, unit in (
            ("build_s", "s"),
            ("observe_s", "s"),
            *((("arrays_s", "s"),) if layer == "meso" else ()),
            ("step_s", "s"),
            ("finalize_s", "s"),
            ("steps", "count"),
            ("rep_steps", "count"),
        )
    },
    "scenarios.build_s": "s",
    "scenarios.build_calls": "count",
    "metrics.summary_s": "s",
    "experiments.self_s": "s",
    "experiments.encode_s": "s",
    "experiments.decode_s": "s",
    "experiments.payload_kb": "KB",
    "orchestration.expand_s": "s",
    "orchestration.hash_s": "s",
    "orchestration.hash_calls": "count",
    "orchestration.self_s": "s",
    "orchestration.executed": "count",
    "orchestration.store_hits": "count",
    "results.put_s": "s",
    "results.get_s": "s",
    "results.query_s": "s",
    "results.hit_ratio": "ratio",
    "results.bytes": "B",
    "analysis.detect_s": "s",
    "analysis.detect_calls": "count",
    "analysis.self_s": "s",
    "trace.overhead": "ratio",
    "trace.uncovered_s": "s",
    "trace.spans": "count",
}

#: Self-time metrics made of more than the one span named like them.
_SELF_SPANS = {
    "orchestration.self_s": ("orchestration.pool_run", "orchestration.execute"),
    "experiments.self_s": ("experiments.run",),
    "analysis.self_s": ("analysis.records",),
    "analysis.detect_s": ("analysis.detect_scan", "analysis.detect"),
}

#: Call-count metrics: metric -> span whose calls it counts.
_CALL_SPANS = {
    "control.decide_calls": "control.decide",
    "meso.steps": "meso.step",
    "micro.steps": "micro.step",
    "scenarios.build_calls": "scenarios.build",
    "orchestration.hash_calls": "orchestration.hash",
    "analysis.detect_calls": "analysis.detect_scan",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    wall_s: float,
    overhead: float,
    pool_counts: Dict[str, int],
    store_payload: Dict[str, float],
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass.

    ``wall_s`` is the traced pass's duration, ``overhead`` its execute
    time over the untraced pass's on the same rounds, minus one;
    ``pool_counts`` holds ``executed`` and ``store_hits`` summed over the
    pass's pools, and ``store_payload`` the store's ``payload_kb`` and
    ``bytes``.
    """
    own = self_time_by_name(tracer)
    calls = calls_by_name(tracer)
    counts = tracer.counts
    values: Dict[str, float] = {}
    for metric in PER_LAYER:
        if metric.endswith("_s") and not metric.startswith("trace."):
            spans = _SELF_SPANS.get(metric, (metric[: -len("_s")],))
            values[metric] = sum(own.get(span, 0.0) for span in spans)
    for metric, span in _CALL_SPANS.items():
        values[metric] = calls.get(span, 0)
    values.update(
        {
            "control.batched_share": _ratio(
                counts.get("control.batched_decisions", 0),
                counts.get("control.rep_decisions", 0),
            ),
            "meso.rep_steps": counts.get("meso.rep_steps", 0),
            "micro.rep_steps": counts.get("micro.rep_steps", 0),
            "experiments.payload_kb": store_payload["payload_kb"],
            "orchestration.executed": pool_counts["executed"],
            "orchestration.store_hits": pool_counts["store_hits"],
            "results.hit_ratio": _ratio(
                counts.get("results.get_hits", 0), calls.get("results.get", 0)
            ),
            "results.bytes": store_payload["bytes"],
            "trace.overhead": overhead,
            "trace.uncovered_s": wall_s - root_time(tracer),
            "trace.spans": len(tracer),
        }
    )
    return {metric: values[metric] for metric in PER_LAYER}
