"""Tests for the benchmark's own helpers (not for the program it measures)."""

from __future__ import annotations

import json
import types
from pathlib import Path

import pytest

from perfbench import layers
from perfbench import bench
from perfbench.bench import END_TO_END
from perfbench.checks import conservation_error, expected_shape, round_digests, shape_error
from perfbench.stats import Tally, tail
from perfbench.tracing import Tracer, calls_by_name, patch, root_time, self_time_by_name, self_times
from perfbench.workloads import WORKLOADS, CellSource

ROOT = Path(__file__).resolve().parent.parent


class TestSelfTimes:
    def test_nested_and_sibling_spans(self):
        # a [0, 100] holds siblings b [10, 30] and c [40, 70]; c holds d [50, 60].
        starts = [0, 10, 40, 50]
        ends = [100, 30, 70, 60]
        parents = [-1, 0, 0, 2]
        assert self_times(starts, ends, parents) == [50, 20, 20, 10]

    def test_overlapping_children_count_once(self):
        starts = [0, 10, 20]
        ends = [100, 30, 40]
        parents = [-1, 0, 0]
        assert self_times(starts, ends, parents) == [70, 20, 20]

    def test_child_outside_parent_counts_inside_only(self):
        assert self_times([0, 90], [100, 120], [-1, 0]) == [90, 30]

    def test_tracer_records_parents_and_self_time(self):
        ticks = iter(range(0, 1000, 10))
        tracer = Tracer(clock=lambda: next(ticks))
        module = types.ModuleType("fake")
        module.inner = lambda: None

        def outer():
            module.inner()
            module.inner()

        module.outer = outer
        undo = [
            patch(module, "inner", tracer.wrapper("layer.inner")),
            patch(module, "outer", tracer.wrapper("layer.outer")),
        ]
        module.outer()
        for restore in reversed(undo):
            restore()
        assert module.outer is outer
        # outer [0, 50]; inner [10, 20] and [30, 40].
        assert list(tracer.parents) == [-1, 0, 0]
        assert calls_by_name(tracer) == {"layer.inner": 2, "layer.outer": 1}
        assert self_time_by_name(tracer) == {"layer.inner": 20e-9, "layer.outer": 30e-9}
        assert root_time(tracer) == 50e-9

    def test_patch_keeps_classmethods(self):
        class Owner:
            @classmethod
            def build(cls, value):
                return (cls, value)

        tracer = Tracer()
        restore = patch(Owner, "build", tracer.wrapper("x.build"))
        assert Owner.build(3) == (Owner, 3)
        restore()
        assert len(tracer) == 1
        assert isinstance(Owner.__dict__["build"], classmethod)


class TestTail:
    def test_leaves_ten_samples_beyond(self):
        result = tail([float(v) for v in range(100, 0, -1)])
        assert result.value == 90.0
        assert result.percentile == 90.0
        assert result.samples == 100

    def test_smallest_sample_set(self):
        result = tail([5.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0])
        assert (result.value, result.samples) == (1.0, 11)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            tail([1.0] * 10)


class TestTally:
    def test_counts_each_failed_cell_once(self):
        tally = Tally()
        tally.attempt(4)
        tally.attempt()
        tally.fail("cell-a", "conservation")
        tally.fail("cell-a", "network shape")
        tally.fail("cell-b", "raised")
        assert (tally.attempted, tally.failed) == (5, 2)
        assert tally.failed_share == pytest.approx(0.4)
        assert tally.failures["cell-a"] == ["conservation", "network shape"]

    def test_nothing_attempted(self):
        assert Tally().failed_share == 0.0

    def test_cells_sharing_a_label_count_apart(self):
        # Load 0.1 and load 1.0 cells of one seed differ only in scenario_params.
        specs = CellSource(WORKLOADS["batched-vec"], 1).specs(0)
        light = specs[0]
        full = next(s for s in specs if s.seed == light.seed and s is not light)
        assert light.label() == full.label()
        assert light.scenario_params != full.scenario_params
        tally = Tally()
        tally.attempt(2)
        for spec in (light, full):
            tally.fail(spec.spec_hash(), "conservation", spec.label())
        assert tally.failed == 2
        assert tally.failed_share == 1.0
        assert tally.failures[light.spec_hash()] == ["conservation"]
        assert tally.labels[full.spec_hash()] == full.label()


class TestChecks:
    def test_conservation(self):
        summary = types.SimpleNamespace(vehicles_entered=10, vehicles_left=6)
        good = types.SimpleNamespace(summary=summary, vehicles_in_network=3, backlog=1)
        bad = types.SimpleNamespace(summary=summary, vehicles_in_network=3, backlog=0)
        assert conservation_error(good) is None
        assert "conservation" in conservation_error(bad)

    def test_expected_shape(self):
        spec = types.SimpleNamespace(pattern="steady-10x10", scenario_params=(("load", 0.1),))
        assert expected_shape(spec) == (10, 10)
        spec = types.SimpleNamespace(pattern="IV", scenario_params=(("cols", 4),))
        assert expected_shape(spec) == (3, 4)

    def test_shape_check_catches_colliding_node_ids(self):
        # A 12x12 grid whose J{r}{c} ids collide keeps only 142 distinct nodes.
        spec = types.SimpleNamespace(pattern="steady-12x12", scenario_params=())

        def scenario(count):
            nodes = {f"n{i}": None for i in range(count)}
            return types.SimpleNamespace(network=types.SimpleNamespace(intersections=nodes))

        assert shape_error(spec, scenario(144)) is None
        assert "142 intersections" in shape_error(spec, scenario(142))

    def test_round_digests_ignore_other_rounds_and_order(self):
        source = CellSource(WORKLOADS["serial-utilbp"], 3)
        first, second = source.specs(0), source.specs(1)
        rows = [{"spec_hash": s.spec_hash(), "seed": s.seed} for s in first + second]
        alone = round_digests(rows[: len(first)], [first])
        together = round_digests(list(reversed(rows)), [first, second])
        assert together[0] == alone[0]
        assert together[0] != together[1]

    @pytest.mark.parametrize("verdicts, failed", [(["a", "a"], 0), (["a", "b"], 1)])
    def test_analysis_must_repeat_its_verdicts(self, monkeypatch, verdicts, failed):
        calls = iter(verdicts)
        monkeypatch.setattr(bench.stability, "analyze_store", lambda path: next(calls))
        monkeypatch.setattr(bench.stability, "verdict_rows", lambda found: [found])
        tally = Tally()
        bench._analyze(Path("store.sqlite"), tally)
        assert tally.failed == failed


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_same_seed_same_cells(self, name):
        first, second = CellSource(WORKLOADS[name], 7), CellSource(WORKLOADS[name], 7)
        assert [first.specs(i) for i in range(3)] == [second.specs(i) for i in range(3)]

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_other_seed_other_cell_seeds(self, name):
        seeds = {spec.seed for spec in CellSource(WORKLOADS[name], 7).specs(0)}
        other = {spec.seed for spec in CellSource(WORKLOADS[name], 8).specs(0)}
        assert seeds and not seeds & other

    def test_rounds_never_repeat_a_cell(self):
        source = CellSource(WORKLOADS["serial-utilbp"], 1)
        cells = [spec for i in range(50) for spec in source.specs(i)]
        assert len(set(cells)) == len(cells) == 200


class TestBenchmarkFile:
    def test_matches_the_code(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        assert {w["name"]: w["why"] for w in spec["workloads"]} == {
            name: workload.why for name, workload in WORKLOADS.items()
        }
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER

    def test_reference_digests_cover_every_workload(self):
        reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
        assert set(reference) == set(WORKLOADS)
