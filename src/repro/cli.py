"""Command-line interface: ``python -m repro <command>``.

Commands
--------
run        one scenario under one controller, print the summary
sweep      run a (workload x controller x seed) grid on the worker pool
           (--shard i/N runs one deterministic grid shard; --fleet N
           runs all N shards as subprocesses with per-shard stores and
           merges them into --store)
results    inspect a result store (list / show / export / merge)
analyze    regime-shift analytics over a store (changepoint verdicts)
scenarios  list/inspect the scenario catalog (repro.scenarios)
serve      run the simulation service (HTTP submission/query server)
submit     submit specs/grids to a running service
jobs       list or inspect jobs on a running service
table3     reproduce Table III
fig2       reproduce Fig. 2 (period sweep)
fig34      reproduce Figs. 3-4 (phase traces)
fig5       reproduce Fig. 5 (queue trace)
ablations  run a named ablation study
stability  demand-scale stability sweep

Every sweep-shaped command accepts ``--workers N`` (process-parallel
execution) and ``--store FILE``, naming the SQLite result store;
completed cells are committed incrementally and a re-invoked sweep
resumes by computing only the missing cells.
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List, Optional

from repro.control.factory import CONTROLLER_NAMES
from repro.core.engine import ENGINE_NAMES

__all__ = ["build_parser", "main"]


class _VersionAction(argparse.Action):
    """``--version`` printing both package and API versions.

    Custom (instead of ``action="version"``) so :mod:`repro.api` is
    imported only when the flag is actually used — parser construction
    stays cheap for every other invocation.
    """

    def __init__(self, option_strings, dest, **kwargs):
        """Configure as a zero-argument, exiting flag."""
        kwargs.setdefault("nargs", 0)
        kwargs.setdefault("help", "print package and API versions, then exit")
        super().__init__(option_strings, dest, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        """Print ``repro <pkg-version> (api <API_VERSION>)`` and exit."""
        from repro.api import API_VERSION, package_version

        print(f"repro {package_version()} (api {API_VERSION})")
        parser.exit(0)


def _add_pool_options(parser: argparse.ArgumentParser) -> None:
    """Worker-pool options shared by every sweep-shaped command."""
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes (1 = serial in-process)",
    )
    parser.add_argument(
        "--store", default=None, metavar="FILE",
        help=(
            "SQLite result store; completed cells are committed "
            "incrementally and never re-simulated"
        ),
    )
    parser.add_argument(
        "--batch-size", type=int, default=16,
        help=(
            "maximum seed-batch width: same-cell/different-seed specs on "
            "a batch-capable engine (meso-vec) are stepped as one batched "
            "simulation (1 disables grouping; default 16)"
        ),
    )


def _make_pool(args: argparse.Namespace):
    from repro.orchestration import ExperimentPool

    return ExperimentPool(
        workers=args.workers,
        store=getattr(args, "store", None),
        batch_size=getattr(args, "batch_size", 16),
    )


def _parse_pattern_token(token: str) -> str:
    """Validate a --patterns entry eagerly (before any cell runs)."""
    from repro.scenarios.patterns import PATTERN_NAMES

    if token not in PATTERN_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown pattern {token!r}; known: {list(PATTERN_NAMES)}"
        )
    return token


def _parse_scenario_token(token: str) -> str:
    """Validate a --scenario entry against the catalog (incl. dynamic)."""
    from repro.scenarios import is_scenario_name, scenario_names

    if not is_scenario_name(token):
        raise argparse.ArgumentTypeError(
            f"unknown scenario {token!r}; known: {list(scenario_names())} "
            f"(or <family>-<R>x<C>)"
        )
    return token


def _parse_shard_token(token: str) -> str:
    """Validate an INDEX/COUNT shard designator (kept as its text form)."""
    from repro.orchestration.spec import parse_shard

    try:
        parse_shard(token)
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error))
    return token


def _parse_controller_token(token: str) -> tuple:
    """Parse ``name`` or ``name:key=val,key=val`` into ``(name, params)``."""
    name, _, params_text = token.partition(":")
    if name not in CONTROLLER_NAMES:
        raise argparse.ArgumentTypeError(
            f"unknown controller {name!r}; known: {list(CONTROLLER_NAMES)}"
        )
    params: Dict[str, Any] = {}
    if params_text:
        for item in params_text.split(","):
            key, sep, value = item.partition("=")
            if not sep:
                raise argparse.ArgumentTypeError(
                    f"malformed controller parameter {item!r} "
                    f"(expected key=value)"
                )
            try:
                params[key] = float(value)
            except ValueError:
                params[key] = value
    return name, params


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'CPS-oriented Modeling and Control of Traffic "
            "Signals Using Adaptive Back Pressure' (DATE 2020)"
        ),
    )
    parser.add_argument("--version", action=_VersionAction)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one scenario/controller")
    run.add_argument("--pattern", default="I")
    run.add_argument("--controller", choices=CONTROLLER_NAMES, default="util-bp")
    run.add_argument("--period", type=float, default=None,
                     help="control period for fixed-slot controllers")
    run.add_argument("--engine", choices=ENGINE_NAMES, default="meso")
    run.add_argument("--duration", type=float, default=1800.0)
    run.add_argument("--seed", type=int, default=1)

    sweep = sub.add_parser(
        "sweep",
        help="run a (pattern x controller x seed) grid on the worker pool",
    )
    sweep.add_argument(
        "--patterns", nargs="+", type=_parse_pattern_token, default=None,
        help="traffic patterns (I II III IV mixed)",
    )
    sweep.add_argument(
        "--scenario", "--scenarios", dest="scenarios", nargs="+",
        type=_parse_scenario_token, default=None, metavar="NAME",
        help=(
            "catalog scenarios (see 'repro scenarios list'), e.g. "
            "surge-4x4 tidal-6x6; combined with --patterns"
        ),
    )
    sweep.add_argument(
        "--load", type=float, default=None,
        help="demand load level forwarded to catalog scenarios",
    )
    sweep.add_argument(
        "--controllers", nargs="+", type=_parse_controller_token,
        default=[("util-bp", {})], metavar="NAME[:key=val,...]",
        help="controllers, e.g. util-bp cap-bp:period=18",
    )
    sweep.add_argument("--seeds", nargs="+", type=int, default=[1])
    sweep.add_argument(
        "--engine", "--engines", dest="engine", nargs="+",
        choices=ENGINE_NAMES, default=["meso"], metavar="ENGINE",
        help=(
            "engines axis of the grid; several names sweep every "
            f"workload on each of them (known: {', '.join(ENGINE_NAMES)})"
        ),
    )
    sweep.add_argument("--duration", type=float, default=1800.0)
    sweep.add_argument(
        "--record-entry-queues", type=int, default=0, metavar="N",
        help=(
            "record queue traces at each workload's entry roads "
            "(0 = off, -1 = all entries, n = the first n) — the input "
            "'repro analyze changepoints' needs"
        ),
    )
    scale_out = sweep.add_mutually_exclusive_group()
    scale_out.add_argument(
        "--shard", type=_parse_shard_token, default=None, metavar="I/N",
        help=(
            "run only the I-th of N deterministic grid shards "
            "(zero-based, e.g. 0/4): the spec-content-hash partition is "
            "identical on every host, so N hosts running 0/N..N-1/N "
            "against their own stores cover the grid exactly once; "
            "merge the stores with 'repro results merge'"
        ),
    )
    scale_out.add_argument(
        "--fleet", type=int, default=None, metavar="N",
        help=(
            "local fleet execution: split the grid into N shards, run "
            "each in its own subprocess against its own store file "
            "(--workers processes per shard), then merge everything "
            "into --store (required) and print the table from it"
        ),
    )
    sweep.add_argument(
        "--aggregate", nargs="?", const="pattern,controller,engine",
        default=None, metavar="AXES",
        help=(
            "also print mean/std/ci95 across the cells of each group, "
            "grouped by the comma-separated spec axes (default group: "
            "pattern,controller,engine — i.e. aggregate across seeds)"
        ),
    )
    _add_pool_options(sweep)

    results = sub.add_parser(
        "results", help="inspect a result store (list/show/export)"
    )
    results_sub = results.add_subparsers(
        dest="results_command", required=True
    )

    def _add_store_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--store", default="results.sqlite", metavar="FILE",
            help="the SQLite result store to read (default: results.sqlite)",
        )

    rlist = results_sub.add_parser(
        "list", help="roll up the store per (pattern, controller, engine)"
    )
    _add_store_argument(rlist)
    show = results_sub.add_parser(
        "show", help="print one stored cell (spec + summary) by hash prefix"
    )
    show.add_argument("hash_prefix", help="spec-hash prefix (repro results list/export shows hashes)")
    _add_store_argument(show)
    merge = results_sub.add_parser(
        "merge",
        help=(
            "merge shard stores into OUT by spec hash (idempotent; "
            "divergent payloads error unless --prefer says otherwise)"
        ),
    )
    merge.add_argument(
        "output", metavar="OUT",
        help="destination store file (created if missing)",
    )
    merge.add_argument(
        "inputs", nargs="+", metavar="IN",
        help="source store files (e.g. per-shard stores of a fleet run)",
    )
    merge.add_argument(
        "--prefer", choices=("ours", "theirs"), default=None,
        help=(
            "conflict policy for hashes whose payloads diverge: keep "
            "the destination row (ours) or take the source row "
            "(theirs); without this flag a divergent payload aborts "
            "the merge"
        ),
    )
    export = results_sub.add_parser(
        "export", help="dump tidy per-cell rows as CSV or JSON"
    )
    _add_store_argument(export)
    export.add_argument(
        "--format", choices=("csv", "json"), default="csv",
        help="output format (default csv)",
    )
    export.add_argument(
        "--output", default=None, metavar="FILE",
        help="write to FILE instead of stdout",
    )

    scenarios = sub.add_parser(
        "scenarios", help="inspect the scenario catalog"
    )
    scenarios_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )
    scenarios_sub.add_parser("list", help="list all catalog scenarios")
    show = scenarios_sub.add_parser(
        "show", help="build one scenario and print its shape"
    )
    show.add_argument("name", type=_parse_scenario_token)
    show.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (HTTP submission/query server)",
    )
    serve.add_argument(
        "--store", default="results.sqlite", metavar="FILE",
        help="SQLite result store backing the service (created if missing)",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8000,
        help="listening port (0 = pick an ephemeral port)",
    )
    serve.add_argument(
        "--workers", type=int, default=1,
        help="worker processes per job (1 = serial in-process)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=16,
        help="seed-batch width forwarded to the job pool",
    )

    def _add_url_argument(parser: argparse.ArgumentParser) -> None:
        parser.add_argument(
            "--url", default="http://127.0.0.1:8000", metavar="URL",
            help="base URL of a running 'repro serve' instance",
        )

    submit = sub.add_parser(
        "submit", help="submit a spec/grid to a running service"
    )
    _add_url_argument(submit)
    submit.add_argument(
        "--json", dest="json_file", default=None, metavar="FILE",
        help=(
            "submission body file ('-' = stdin) carrying {'spec': ...}, "
            "{'specs': [...]} or {'grid': ...}; overrides the grid flags"
        ),
    )
    submit.add_argument(
        "--patterns", nargs="+", type=_parse_pattern_token, default=None,
        help="traffic patterns (I II III IV mixed)",
    )
    submit.add_argument(
        "--scenario", "--scenarios", dest="scenarios", nargs="+",
        type=_parse_scenario_token, default=None, metavar="NAME",
        help="catalog scenarios, e.g. steady-4x4 surge-3x3",
    )
    submit.add_argument(
        "--controllers", nargs="+", type=_parse_controller_token,
        default=[("util-bp", {})], metavar="NAME[:key=val,...]",
    )
    submit.add_argument("--seeds", nargs="+", type=int, default=[1])
    submit.add_argument(
        "--engine", "--engines", dest="engine", nargs="+",
        choices=ENGINE_NAMES, default=["meso"], metavar="ENGINE",
    )
    submit.add_argument("--duration", type=float, default=1800.0)
    submit.add_argument(
        "--shard", type=_parse_shard_token, default=None, metavar="I/N",
        help=(
            "submit only the I-th of N deterministic grid shards "
            "(zero-based); the service expands the same spec-hash "
            "partition 'repro sweep --shard' uses"
        ),
    )
    submit.add_argument(
        "--wait", type=float, default=None, metavar="SECONDS",
        help="block until the job is terminal (polling the service)",
    )

    jobs = sub.add_parser(
        "jobs", help="list or inspect jobs on a running service"
    )
    _add_url_argument(jobs)
    jobs.add_argument(
        "job_id", nargs="?", default=None,
        help="job to describe (omit to list all jobs)",
    )
    jobs.add_argument(
        "--events", action="store_true",
        help="print the job's recorded events (requires a job id)",
    )

    table3 = sub.add_parser("table3", help="reproduce Table III")
    table3.add_argument("--engine", choices=ENGINE_NAMES, default="meso")
    table3.add_argument("--scale", type=float, default=1.0)
    table3.add_argument("--seed", type=int, default=1)
    _add_pool_options(table3)

    fig2 = sub.add_parser("fig2", help="reproduce Fig. 2")
    fig2.add_argument("--engine", choices=ENGINE_NAMES, default="meso")
    fig2.add_argument("--segment", type=float, default=3600.0)
    fig2.add_argument("--seed", type=int, default=1)
    _add_pool_options(fig2)

    fig34 = sub.add_parser("fig34", help="reproduce Figs. 3-4")
    fig34.add_argument("--engine", choices=ENGINE_NAMES, default="micro")
    fig34.add_argument("--duration", type=float, default=2000.0)
    fig34.add_argument("--seed", type=int, default=1)
    _add_pool_options(fig34)

    fig5 = sub.add_parser("fig5", help="reproduce Fig. 5")
    fig5.add_argument("--engine", choices=ENGINE_NAMES, default="micro")
    fig5.add_argument("--duration", type=float, default=2000.0)
    fig5.add_argument("--seed", type=int, default=1)
    _add_pool_options(fig5)

    ablations = sub.add_parser("ablations", help="run an ablation study")
    ablations.add_argument("study", nargs="?", default=None,
                           help="study name (default: all)")
    ablations.add_argument("--duration", type=float, default=1800.0)
    _add_pool_options(ablations)

    stability = sub.add_parser("stability", help="demand-scale sweep")
    stability.add_argument("--duration", type=float, default=1200.0)
    _add_pool_options(stability)

    analyze = sub.add_parser(
        "analyze",
        help="regime-shift analytics over a result store (repro.analysis)",
    )
    analyze_sub = analyze.add_subparsers(
        dest="analyze_command", required=True
    )
    changepoints = analyze_sub.add_parser(
        "changepoints",
        help=(
            "CUSUM stability verdicts per (workload, controller, load) "
            "cell: stable | breakdown@t* [CI] | insufficient-data"
        ),
    )
    changepoints.add_argument(
        "--store", default="results.sqlite", metavar="FILE",
        help="the SQLite result store to analyze (default: results.sqlite)",
    )
    changepoints.add_argument(
        "--pattern", default=None, help="restrict to one workload")
    changepoints.add_argument(
        "--controller", default=None, help="restrict to one controller")
    changepoints.add_argument(
        "--engine", default=None, help="restrict to one engine")
    changepoints.add_argument(
        "--seed", type=int, default=None, help="restrict to one seed")
    changepoints.add_argument(
        "--delay-mode", default=None, dest="delay_mode",
        help="restrict to one delay mode (per-vehicle / aggregate)",
    )
    changepoints.add_argument(
        "--warmup-fraction", type=float, default=0.25,
        help="leading fraction of each series discarded (default 0.25)",
    )
    changepoints.add_argument(
        "--min-points", type=int, default=20,
        help="fewest post-warm-up samples a run needs (default 20)",
    )
    changepoints.add_argument(
        "--min-shift", type=float, default=2.0, dest="min_shift",
        help=(
            "breakdown effect-size floor in vehicles per recorded "
            "series (default 2.0)"
        ),
    )
    changepoints.add_argument(
        "--quantile", type=float, default=0.95,
        help="permutation-null detection quantile (default 0.95)",
    )
    changepoints.add_argument(
        "--permutations", type=int, default=199,
        help="permutation draws per series (default 199)",
    )
    changepoints.add_argument(
        "--block", type=int, default=12,
        help="circular block length of the permutation null (default 12)",
    )
    changepoints.add_argument(
        "--perm-seed", type=int, default=0, dest="perm_seed",
        help="permutation RNG seed (default 0; fixed = deterministic)",
    )
    changepoints.add_argument(
        "--confidence", type=float, default=0.95,
        help="onset confidence-interval coverage (default 0.95)",
    )
    changepoints.add_argument(
        "--format", choices=("csv", "json"), default=None,
        help="export tidy verdict rows instead of the table",
    )
    changepoints.add_argument(
        "--output", default=None, metavar="FILE",
        help="write the export to FILE instead of stdout",
    )
    return parser


def _run_sweep(args: argparse.Namespace) -> int:
    from repro.orchestration import SweepGrid
    from repro.util.tables import render_table

    scenario_names = tuple(args.scenarios or ())
    if args.load is not None and not scenario_names:
        print(
            "repro sweep: --load applies to catalog scenarios; pass "
            "--scenario NAME (paper patterns take "
            "--patterns with scenario_params via the API)",
            file=sys.stderr,
        )
        return 2
    entry_params = {"load": args.load} if args.load is not None else {}
    grid = SweepGrid(
        patterns=None if args.patterns is None else tuple(args.patterns),
        scenarios=tuple(
            (name, entry_params) for name in scenario_names
        ),
        controllers=tuple(args.controllers),
        seeds=tuple(args.seeds),
        engines=tuple(args.engine),
        durations=(args.duration,),
        record_entry_queues=args.record_entry_queues,
    )

    fleet_report = None
    if args.fleet is not None:
        if args.fleet < 1:
            print(
                f"repro sweep: --fleet must be >= 1, got {args.fleet}",
                file=sys.stderr,
            )
            return 2
        if args.store is None:
            print(
                "repro sweep: --fleet needs --store FILE (the canonical "
                "store the shard stores are merged into)",
                file=sys.stderr,
            )
            return 2
        from repro.orchestration import run_fleet

        fleet_report = run_fleet(
            grid,
            args.fleet,
            args.store,
            workers_per_shard=args.workers,
            batch_size=args.batch_size,
        )
        # Fall through to the ordinary pool path below: every cell is
        # now in the merged store, so the table prints from pure cache
        # hits — which doubles as an end-to-end completeness check.

    shard_suffix = ""
    if args.shard is not None:
        from repro.orchestration.spec import parse_shard

        index, count = parse_shard(args.shard)
        specs = grid.shard(index, count)
        shard_suffix = f" (shard {index}/{count} of {len(grid)} cells)"
        if not specs:
            print(
                f"shard {index}/{count} of this {len(grid)}-cell grid is "
                f"empty; nothing to run"
            )
            return 0
    else:
        specs = grid.specs()
    pool = _make_pool(args)
    results = pool.run(specs)
    rows = [
        (
            spec.pattern,
            spec.controller,
            ",".join(f"{k}={v}" for k, v in spec.controller_params) or "-",
            spec.engine,
            spec.seed,
            f"{result.average_queuing_time:.2f}",
            f"{result.summary.throughput_per_hour:.0f}",
            f"{result.network_utilization().amber_share:.3f}",
        )
        for spec, result in zip(specs, results)
    ]
    print(
        render_table(
            (
                "pattern",
                "controller",
                "params",
                "engine",
                "seed",
                "avg queuing [s]",
                "thru [veh/h]",
                "amber",
            ),
            rows,
            title=(
                f"Sweep — {len(specs)} cells{shard_suffix}, engines "
                f"{','.join(args.engine)}, duration {args.duration:.0f} s"
            ),
        )
    )
    if args.aggregate is not None:
        from repro.results import aggregate, tidy_table

        axes = tuple(
            axis.strip() for axis in args.aggregate.split(",") if axis.strip()
        )
        try:
            agg_rows = aggregate(
                zip(specs, results), by=axes, on_mixed_delay_mode="split"
            )
        except ValueError as error:
            print(f"repro sweep: --aggregate: {error}", file=sys.stderr)
            return 2
        headers, body = tidy_table(agg_rows)
        print()
        print(
            render_table(
                headers, body,
                title=f"Aggregated over {', '.join(axes)} (across the rest)",
            )
        )
    print(
        f"executed {pool.stats.executed}, "
        f"cache hits {pool.stats.cache_hits}, workers {pool.workers}"
    )
    if fleet_report is not None:
        for shard in fleet_report.shards:
            print(
                f"  shard {shard.index}/{fleet_report.shard_count}: "
                f"{shard.cells} cells, {shard.executed} executed, "
                f"{shard.cache_hits} from store, {shard.duration_s:.1f} s"
            )
        print(
            f"fleet: {fleet_report.shard_count} shards, "
            f"{fleet_report.executed} executed, "
            f"{fleet_report.merged_rows} rows merged into "
            f"{fleet_report.store}, wall {fleet_report.wall_time_s:.1f} s"
        )
    return 0


def _open_store(path: str):
    """Open an existing store for inspection, or None + message."""
    from pathlib import Path

    from repro.results import ResultStore

    if not Path(path).exists():
        print(
            f"repro results: no store at {path!r} (run a sweep with "
            f"--store first, or pass --store)",
            file=sys.stderr,
        )
        return None
    return ResultStore(path)


def _run_results(args: argparse.Namespace) -> int:
    from repro.util.tables import render_table

    if args.results_command == "merge":
        import sqlite3

        from repro.results import MergeError, MergeStats, ResultStore

        totals = MergeStats()
        try:
            with ResultStore(args.output) as destination:
                for source in args.inputs:
                    stats = destination.merge_from(
                        source, prefer=args.prefer
                    )
                    totals.merge(stats)
                    print(
                        f"{source}: {stats.inserted} inserted, "
                        f"{stats.identical} identical, "
                        f"{stats.conflicts} conflicts"
                    )
                rows = len(destination)
        except (MergeError, ValueError, sqlite3.DatabaseError) as error:
            print(f"repro results merge: {error}", file=sys.stderr)
            return 2
        print(
            f"merged {len(args.inputs)} store(s) into {args.output}: "
            f"{totals.inserted} inserted, {totals.identical} identical, "
            f"{totals.conflicts} conflicts — {rows} rows total"
        )
        return 0

    store = _open_store(args.store)
    if store is None:
        return 2

    if args.results_command == "list":
        rows = [
            (
                entry["pattern"],
                entry["controller"],
                entry["engine"],
                entry["cells"],
                entry["seeds"],
                entry["delay_mode"],
                f"{entry['mean_avg_queuing_time']:.2f}"
                if entry["mean_avg_queuing_time"] is not None
                else "-",
            )
            for entry in store.overview()
        ]
        print(
            render_table(
                (
                    "pattern",
                    "controller",
                    "engine",
                    "cells",
                    "seeds",
                    "delay mode",
                    "mean avg queuing [s]",
                ),
                rows,
                title=f"Result store {args.store} — {len(store)} cells",
            )
        )
        return 0

    if args.results_command == "show":
        import json as _json

        matches = store.find(args.hash_prefix)
        if not matches:
            print(
                f"repro results show: no cell with hash prefix "
                f"{args.hash_prefix!r}",
                file=sys.stderr,
            )
            return 2
        if len(matches) > 1:
            print(
                f"repro results show: prefix {args.hash_prefix!r} is "
                f"ambiguous ({len(matches)} cells):",
                file=sys.stderr,
            )
            for record in matches:
                print(
                    f"  {record.spec_hash[:16]}  {record.spec.label()}",
                    file=sys.stderr,
                )
            return 2
        record = matches[0]
        print(f"cell {record.spec_hash}")
        print(f"  label: {record.spec.label()}")
        print("  spec:")
        print(
            "\n".join(
                f"    {line}"
                for line in _json.dumps(
                    record.spec.to_dict(), indent=2
                ).splitlines()
            )
        )
        print(f"  summary: {record.summary}")
        print(
            f"  avg queuing {record.summary.average_queuing_time:.2f} s, "
            f"delay mode {record.summary.delay_mode}"
        )
        return 0

    assert args.results_command == "export"
    rows = store.export_rows()
    if args.format == "json":
        import json as _json

        text = _json.dumps(rows, indent=2) + "\n"
    else:
        import csv
        import io

        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buffer.getvalue()
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _run_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.analysis import (
        AnalysisOptions,
        analyze_store,
        render_verdicts,
        verdict_rows,
    )

    if not Path(args.store).exists():
        print(
            f"repro analyze: no store at {args.store!r} (run a sweep "
            f"with --store and --record-entry-queues first)",
            file=sys.stderr,
        )
        return 2
    try:
        options = AnalysisOptions(
            warmup_fraction=args.warmup_fraction,
            min_points=args.min_points,
            min_shift_per_series=args.min_shift,
            quantile=args.quantile,
            n_permutations=args.permutations,
            block_length=args.block,
            seed=args.perm_seed,
            confidence=args.confidence,
        )
    except ValueError as error:
        print(f"repro analyze: {error}", file=sys.stderr)
        return 2
    filters = {
        key: getattr(args, key)
        for key in ("pattern", "controller", "engine", "seed", "delay_mode")
        if getattr(args, key) is not None
    }
    verdicts = analyze_store(args.store, options=options, **filters)
    if args.format is None:
        print(render_verdicts(verdicts))
        return 0
    rows = verdict_rows(verdicts)
    if args.format == "json":
        import json as _json

        text = _json.dumps(rows, indent=2) + "\n"
    else:
        import csv
        import io

        buffer = io.StringIO()
        if rows:
            writer = csv.DictWriter(buffer, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        text = buffer.getvalue()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text)
    return 0


def _run_scenarios(args: argparse.Namespace) -> int:
    from repro.scenarios import build_named_scenario, catalog_entries
    from repro.util.tables import render_table

    if args.scenarios_command == "list":
        rows = [
            (entry.name, entry.grid, entry.family.name, entry.description)
            for entry in catalog_entries()
        ]
        print(
            render_table(
                ("name", "grid", "family", "description"),
                rows,
                title=(
                    f"Scenario catalog — {len(rows)} entries "
                    f"(any <family>-<R>x<C> also resolves)"
                ),
            )
        )
        return 0

    scenario = build_named_scenario(args.name, seed=args.seed)
    network = scenario.network
    horizon = scenario.default_duration
    expected = sum(
        schedule.expected_count(0.0, horizon)
        for schedule in scenario.demand.values()
    )
    print(f"scenario {scenario.name} (seed {scenario.seed})")
    print(
        f"  network: {len(network.intersections)} intersections, "
        f"{len(network.roads)} roads, {len(network.entry_roads())} entries"
    )
    print(f"  default horizon: {horizon:.0f} s")
    print(f"  expected arrivals over horizon: {expected:.0f} vehicles")
    capacities = sorted(
        {road.capacity for road in network.roads.values()}
    )
    print(f"  road capacities: {capacities}")
    return 0


def _run_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceClient, ServiceError

    client = ServiceClient(args.url)
    if args.json_file is not None:
        if args.json_file == "-":
            body = _json.load(sys.stdin)
        else:
            with open(args.json_file, "r", encoding="utf-8") as handle:
                body = _json.load(handle)
    else:
        from repro.orchestration import SweepGrid

        grid = SweepGrid(
            patterns=(
                None if args.patterns is None else tuple(args.patterns)
            ),
            scenarios=tuple(args.scenarios or ()),
            controllers=tuple(args.controllers),
            seeds=tuple(args.seeds),
            engines=tuple(args.engine),
            durations=(args.duration,),
        )
        body = {"grid": grid.to_dict()}
    if args.shard is not None:
        body["shard"] = args.shard
    try:
        view = client.submit(body)
        job = view["job"]
        print(
            f"submitted {job['job_id']}: {job['counts']['total']} cells "
            f"({job['counts']['shared']} shared with earlier jobs)"
        )
        if args.wait is not None:
            view = client.job(job["job_id"], wait=args.wait)
            job = view["job"]
        counts = job["counts"]
        print(
            f"{job['job_id']}: {job['state']} — "
            f"{counts['done']}/{counts['total']} done "
            f"({counts['from_store']} from store, "
            f"{counts['executed']} executed, {counts['failed']} failed)"
        )
        return 0 if job["state"] != "failed" else 1
    except ServiceError as error:
        print(f"repro submit: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(
            f"repro submit: cannot reach {args.url}: {error}",
            file=sys.stderr,
        )
        return 2


def _run_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.service.client import ServiceClient, ServiceError
    from repro.util.tables import render_table

    client = ServiceClient(args.url)
    try:
        if args.job_id is None:
            jobs = client.jobs()["jobs"]
            rows = [
                (
                    job["job_id"],
                    job["state"],
                    job["counts"]["total"],
                    job["counts"]["done"],
                    job["counts"]["failed"],
                    job["counts"]["from_store"],
                    job["counts"]["executed"],
                )
                for job in jobs
            ]
            print(
                render_table(
                    (
                        "job", "state", "cells", "done", "failed",
                        "from store", "executed",
                    ),
                    rows,
                    title=f"Jobs at {args.url} — {len(rows)}",
                )
            )
            return 0
        if args.events:
            for event in client.iter_events(args.job_id, follow=False):
                print(_json.dumps(event))
            return 0
        view = client.job(args.job_id)
        print(_json.dumps(view["job"], indent=2, sort_keys=True))
        return 0
    except ServiceError as error:
        print(f"repro jobs: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(
            f"repro jobs: cannot reach {args.url}: {error}", file=sys.stderr
        )
        return 2


#: Commands that run a registered experiment definition of the same name.
_EXPERIMENT_COMMANDS = ("table3", "fig2", "fig34", "fig5", "ablations", "stability")

#: Experiment-command flag -> the definition parameter it sets.
_FLAG_PARAMS = {
    "engine": "engine",
    "seed": "seed",
    "duration": "duration",
    "scale": "duration_scale",
    "segment": "segment_duration",
}


def _run_experiment_command(args: argparse.Namespace) -> int:
    """Run the experiment named by the command with its flags as
    parameters and print the definition's rendering."""
    from repro.results.experiment import get_experiment, run_experiment

    definition = get_experiment(args.command)
    params = {
        _FLAG_PARAMS[flag]: value
        for flag, value in vars(args).items()
        if flag in _FLAG_PARAMS
    }
    pool = _make_pool(args)
    if args.command != "ablations":
        print(definition.render(run_experiment(definition, pool=pool, **params)))
        return 0

    from repro.experiments.ablations import ABLATIONS

    for study in [args.study] if args.study else list(ABLATIONS):
        print(
            definition.render(
                run_experiment(definition, pool=pool, study=study, **params)
            )
        )
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "run":
        from repro.experiments import RunConfig, build_scenario, run_scenario

        params = {}
        if args.period is not None:
            params["period"] = args.period
        result = run_scenario(
            build_scenario(args.pattern, seed=args.seed),
            config=RunConfig(
                controller=args.controller,
                controller_params=params,
                duration=args.duration,
                engine=args.engine,
            ),
        )
        print(result.summary)
        print(
            f"average queuing time: {result.average_queuing_time:.2f} s, "
            f"amber share: {result.network_utilization().amber_share:.3f}"
        )
        return 0

    if args.command == "sweep":
        return _run_sweep(args)

    if args.command == "results":
        return _run_results(args)

    if args.command == "scenarios":
        return _run_scenarios(args)

    if args.command == "analyze":
        return _run_analyze(args)

    if args.command == "serve":
        from repro.service import serve as run_service

        run_service(
            store=args.store,
            host=args.host,
            port=args.port,
            workers=args.workers,
            batch_size=args.batch_size,
        )
        return 0

    if args.command == "submit":
        return _run_submit(args)

    if args.command == "jobs":
        return _run_jobs(args)

    if args.command in _EXPERIMENT_COMMANDS:
        return _run_experiment_command(args)

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    raise SystemExit(main())
