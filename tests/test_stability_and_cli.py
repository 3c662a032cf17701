"""Tests for the stability study and the CLI."""

import pytest

from repro.cli import build_parser, main
from repro.experiments.ablations import ABLATIONS
from repro.experiments.stability import (
    StabilityPoint,
    max_stable_scale,
    render_stability,
)
from repro.results import get_experiment, run_experiment


class TestStability:
    def test_small_sweep_runs(self):
        points = run_experiment(
            "stability",
            scales=(0.5, 1.0),
            controllers=(("util-bp", None),),
            duration=200.0,
        )
        assert len(points) == 2
        assert all(p.controller == "util-bp" for p in points)

    def test_light_demand_stable(self):
        points = run_experiment(
            "stability",
            scales=(0.5,),
            controllers=(("util-bp", None),),
            duration=400.0,
        )
        assert points[0].stable

    def test_stable_property(self):
        point = StabilityPoint(
            controller="x",
            demand_scale=1.0,
            average_queuing_time=10.0,
            vehicles_in_network=100,
            backlog=0,
            network_capacity=1000,
        )
        assert point.stable
        saturated = StabilityPoint(
            controller="x",
            demand_scale=2.0,
            average_queuing_time=500.0,
            vehicles_in_network=900,
            backlog=300,
            network_capacity=1000,
        )
        assert not saturated.stable

    def test_max_stable_scale(self):
        def point(scale, stable_count):
            return StabilityPoint(
                "c", scale, 1.0, 0 if stable_count else 10**6, 0, 10
            )

        points = [point(0.5, True), point(1.0, True), point(1.5, False)]
        assert max_stable_scale(points, "c") == 1.0
        assert max_stable_scale(points, "other") == 0.0

    def test_render(self):
        points = run_experiment(
            "stability",
            scales=(0.5,),
            controllers=(("util-bp", None),),
            duration=100.0,
        )
        assert "Stability sweep" in render_stability(points)

    def test_empty_scales_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("stability", scales=())


class TestCli:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_command(self, capsys):
        code = main(
            [
                "run",
                "--pattern",
                "II",
                "--controller",
                "fixed-time",
                "--period",
                "15",
                "--duration",
                "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "average queuing time" in out

    def test_run_util_bp_default(self, capsys):
        assert main(["run", "--duration", "60"]) == 0
        assert "Summary" in capsys.readouterr().out

    def test_ablations_single_study(self, capsys):
        code = main(["ablations", "alpha-beta-order", "--duration", "60"])
        assert code == 0
        assert "alpha-beta-order" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, name, params",
        (
            # table3 and fig2 default to meso on the CLI, micro in the
            # definitions.
            (["table3", "--scale", "0.01", "--seed", "2"], "table3",
             dict(engine="meso", duration_scale=0.01, seed=2)),
            (["fig2", "--segment", "20", "--seed", "2"], "fig2",
             dict(engine="meso", segment_duration=20.0, seed=2)),
            (["fig34", "--engine", "meso", "--duration", "60", "--seed", "2"],
             "fig34", dict(engine="meso", duration=60.0, seed=2)),
            (["fig5", "--engine", "meso", "--duration", "60", "--seed", "2"],
             "fig5", dict(engine="meso", duration=60.0, seed=2)),
            (["stability", "--duration", "40"], "stability",
             dict(duration=40.0)),
        ),
        ids=("table3", "fig2", "fig34", "fig5", "stability"),
    )
    def test_experiment_command_prints_the_definition(
        self, argv, name, params, capsys
    ):
        definition = get_experiment(name)
        expected = definition.render(run_experiment(name, **params))
        assert main(argv) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_ablations_command_prints_every_study(self, capsys):
        definition = get_experiment("ablations")
        expected = "".join(
            definition.render(
                run_experiment(definition, study=study, duration=20.0)
            )
            + "\n\n"
            for study in ABLATIONS
        )
        assert main(["ablations", "--duration", "20"]) == 0
        assert capsys.readouterr().out == expected

    def test_unknown_controller_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--controller", "magic"])

    def test_fig2_flags_parse(self):
        args = build_parser().parse_args(
            ["fig2", "--engine", "meso", "--segment", "100"]
        )
        assert args.segment == 100.0

    def test_stability_flags_parse(self):
        args = build_parser().parse_args(["stability", "--duration", "300"])
        assert args.duration == 300.0

    def test_sweep_flags_parse(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--patterns", "I", "mixed",
                "--controllers", "util-bp", "cap-bp:period=18",
                "--workers", "4",
            ]
        )
        assert args.patterns == ["I", "mixed"]
        assert args.controllers == [
            ("util-bp", {}),
            ("cap-bp", {"period": 18.0}),
        ]
        assert args.workers == 4

    def test_sweep_rejects_unknown_pattern(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--patterns", "V"])

    def test_sweep_rejects_unknown_controller(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--controllers", "magic"])


class TestScenariosCli:
    def test_list_shows_catalog(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("surge-4x4", "tidal-3x3", "incident-3x3"):
            assert name in out

    def test_list_shows_at_least_eight(self, capsys):
        from repro.scenarios import scenario_names

        main(["scenarios", "list"])
        out = capsys.readouterr().out
        listed = [n for n in scenario_names() if n in out]
        assert len(listed) >= 8

    def test_show_builds_the_scenario(self, capsys):
        assert main(["scenarios", "show", "incident-4x4"]) == 0
        out = capsys.readouterr().out
        assert "16 intersections" in out
        assert "road capacities" in out

    def test_show_accepts_dynamic_names(self, capsys):
        assert main(["scenarios", "show", "steady-2x2"]) == 0
        assert "4 intersections" in capsys.readouterr().out

    def test_sweep_scenario_flag_parses(self):
        args = build_parser().parse_args(
            ["sweep", "--scenario", "surge-4x4", "--load", "1.2"]
        )
        assert args.scenarios == ["surge-4x4"]
        assert args.load == 1.2
        assert args.patterns is None

    def test_sweep_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--scenario", "magic-grid"])

    def test_sweep_load_without_scenario_errors(self, capsys):
        code = main(["sweep", "--patterns", "I", "--load", "1.4"])
        assert code == 2
        assert "--load" in capsys.readouterr().err

    def test_sweep_runs_scenario_end_to_end(self, capsys):
        code = main(
            ["sweep", "--scenario", "surge-3x3", "--duration", "60"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "surge-3x3" in out
        assert "executed 1" in out

    def test_sweep_command_runs(self, capsys):
        code = main(
            [
                "sweep",
                "--patterns", "I",
                "--controllers", "util-bp",
                "--duration", "120",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Sweep — 1 cells" in out
        assert "executed 1" in out


class TestCliStoreOptions:
    """--store names the SQLite result store a sweep resumes from."""

    def _sweep(self, *extra):
        return [
            "sweep", "--patterns", "I", "--controllers", "util-bp",
            "--duration", "60", *extra,
        ]

    def test_store_flag_is_canonical(self, tmp_path, capsys):
        import warnings

        store = tmp_path / "cells.sqlite"
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            assert main(self._sweep("--store", str(store))) == 0
        assert store.is_file()
        capsys.readouterr()
        assert main(self._sweep("--store", str(store))) == 0
        assert "cache hits 1" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "command",
        ("sweep", "table3", "fig2", "fig34", "fig5", "ablations", "stability"),
    )
    def test_pool_options_on_every_sweep_command(
        self, command, tmp_path, capsys
    ):
        """--workers/--store/--batch-size reach the pool of every
        sweep-shaped command; the removed --cache-dir is a usage error."""
        from repro.cli import _make_pool

        parser = build_parser()
        store = tmp_path / "cells.sqlite"
        args = parser.parse_args(
            [command, "--workers", "2", "--store", str(store),
             "--batch-size", "4"]
        )
        pool = _make_pool(args)
        assert (pool.workers, pool.batch_size) == (2, 4)
        assert store.is_file()
        pool.store.close()
        with pytest.raises(SystemExit) as exit_info:
            parser.parse_args([command, "--cache-dir", str(tmp_path)])
        assert exit_info.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_removed_event_engine_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--engine", "meso-events"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'meso-events'" in capsys.readouterr().err

    def test_shard_and_fleet_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args(["sweep", "--shard", "2/4"])
        assert args.shard == "2/4"
        args = parser.parse_args(["sweep", "--fleet", "3"])
        assert args.fleet == 3
        args = parser.parse_args(
            ["submit", "--scenario", "steady-4x4", "--shard", "0/2"]
        )
        assert args.shard == "0/2"
        for bad in (["--shard", "4/4"], ["--shard", "nope"]):
            with pytest.raises(SystemExit):
                parser.parse_args(["sweep", *bad])
        with pytest.raises(SystemExit):  # mutually exclusive
            parser.parse_args(["sweep", "--shard", "0/2", "--fleet", "2"])

    def test_fleet_requires_store(self, capsys):
        code = main(
            ["sweep", "--patterns", "I", "--duration", "60", "--fleet", "2"]
        )
        assert code == 2
        assert "--store" in capsys.readouterr().err

    def _shard_sweep(self, seeds, *extra):
        return [
            "sweep", "--patterns", "I", "--controllers", "util-bp",
            "--duration", "60", "--seeds", *map(str, seeds), *extra,
        ]

    def test_sharded_sweeps_merge_to_complete_store(self, tmp_path, capsys):
        seeds = [1, 2, 3, 4]
        for index in range(2):
            shard_store = tmp_path / f"shard-{index}.sqlite"
            code = main(
                self._shard_sweep(
                    seeds, "--shard", f"{index}/2",
                    "--store", str(shard_store),
                )
            )
            assert code == 0
            assert f"shard {index}/2" in capsys.readouterr().out
        merged = tmp_path / "merged.sqlite"
        code = main(
            [
                "results", "merge", str(merged),
                str(tmp_path / "shard-0.sqlite"),
                str(tmp_path / "shard-1.sqlite"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "4 inserted" in out or "rows total" in out
        # Resume against the merged store: nothing left to compute.
        code = main(self._shard_sweep(seeds, "--store", str(merged)))
        assert code == 0
        out = capsys.readouterr().out
        assert "executed 0" in out
        assert "cache hits 4" in out

    def test_results_merge_reports_bad_source(self, tmp_path, capsys):
        code = main(
            [
                "results", "merge", str(tmp_path / "out.sqlite"),
                str(tmp_path / "missing.sqlite"),
            ]
        )
        assert code == 2
        assert "no result store" in capsys.readouterr().err

    def test_fleet_sweep_end_to_end(self, tmp_path, capsys):
        store = tmp_path / "fleet.sqlite"
        code = main(
            self._shard_sweep([1, 2], "--fleet", "2", "--store", str(store))
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fleet: 2 shards" in out
        # The table pass after the merge is pure cache hits.
        assert "executed 0" in out
        assert "cache hits 2" in out
        assert store.is_file()

    def test_serve_and_submit_commands_parse(self):
        parser = build_parser()
        args = parser.parse_args(
            ["serve", "--store", "s.sqlite", "--port", "0"]
        )
        assert args.command == "serve"
        assert args.port == 0
        args = parser.parse_args(
            [
                "submit", "--url", "http://127.0.0.1:9", "--scenario",
                "steady-4x4", "--wait", "5",
            ]
        )
        assert args.command == "submit"
        assert args.wait == 5.0
        args = parser.parse_args(["jobs", "job-000001", "--events"])
        assert args.command == "jobs"
        assert args.events

    def test_submit_unreachable_service_fails_cleanly(self, capsys):
        code = main(
            [
                "submit", "--url", "http://127.0.0.1:9",
                "--scenario", "steady-4x4",
            ]
        )
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err

    def test_jobs_unreachable_service_fails_cleanly(self, capsys):
        code = main(["jobs", "--url", "http://127.0.0.1:9"])
        assert code == 2
        assert "cannot reach" in capsys.readouterr().err
