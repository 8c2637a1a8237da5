"""The ``python -m repro`` command line.

Six verbs drive campaigns headless:

* ``repro run`` -- one experiment, optionally recorded in a store;
* ``repro sweep`` -- a design-space campaign against a resumable
  store, with deterministic ``--shard K/N`` fan-out;
* ``repro optimize`` -- width/session co-optimisation of one
  workload, printing the Pareto front and optionally persisting every
  front point into a store;
* ``repro diagnose`` -- a seeded defect-scenario sweep: inject, screen,
  adaptively reconfigure, rank candidates; prints a
  localisation-accuracy and diagnosis-cycles table and resumes from a
  store like ``sweep`` does;
* ``repro report`` -- tabulate one or more stores (run records and
  diagnosis records each get their own table); ``--workload`` /
  ``--architecture`` / ``--scheduler`` filter through the store's
  indexes, and ``--summary`` prints the per-bucket aggregate counts
  without loading a single record;
* ``repro merge`` -- combine shard stores into one canonical store;
* ``repro migrate`` -- copy a store into another backend (JSONL <->
  SQLite), losslessly and in full append order;
* ``repro verify`` -- statically audit stores against the
  :mod:`repro.verify` rule set, printing a diagnostics table and
  exiting non-zero when any record violates its serialization
  contract;
* ``repro profile`` -- run any other verb under the
  :mod:`repro.obs` tracer and print where the time went.

Observability: ``--trace out.jsonl`` on run/sweep/diagnose/optimize
streams every :mod:`repro.obs` span to a JSONL trace (spans observe
runs, they are not part of them -- results and config hashes are
byte-identical with tracing on or off), and ``repro sweep
--dashboard`` renders live progress with rate and ETA.  All human
output flows through :class:`repro.obs.Console`, so ``--quiet`` /
``--verbose`` mean the same thing everywhere and ``--json`` keeps
stdout machine-parseable.

Plus ``repro list`` to discover registered architectures, schedulers
and workloads (``--architectures``/``--schedulers``/``--workloads``
print name, aliases and a one-line description).  Tables print sorted
by config hash, so the report of merged shard stores is byte-identical
to the report of the equivalent unsharded run -- and identical across
store backends (JSONL or SQLite, picked per path by
:func:`repro.campaign.store.open_store`; ``repro sweep
--store-format sqlite`` selects the indexed backend for named
stores).  CI asserts exactly that, on both backends.

Seeded workloads: ``--seed N`` with the pseudo-workloads
``random-soc`` / ``random-cores`` builds
:func:`repro.soc.itc02.random_soc` /
:func:`~repro.soc.itc02.random_test_params` reproducibly from the
command line; the seed shapes the workload's structural identity, so
it lands in every campaign config hash.
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import ConfigurationError, ReproError
from repro.analysis.tables import format_table
from repro.api.experiment import Experiment
from repro.obs import (
    Console,
    JsonlSink,
    SweepDashboard,
    format_profile,
)
from repro.obs import spans as obs_spans
from repro.obs.timing import stopwatch
from repro.api.registry import (
    ARCHITECTURES,
    SCHEDULERS,
    list_architectures,
    list_schedulers,
)
from repro.api.results import RESULT_HEADERS, RunConfig
from repro.api.workloads import WORKLOADS, get_workload, list_workloads
from repro.campaign.campaign import Campaign
from repro.campaign.hashing import parse_shard
from repro.campaign.store import as_store, merge_stores, migrate_store

#: Leading hash characters shown in tables.
HASH_PREFIX = 10


def _split_csv(text: str) -> "list[str]":
    return [token.strip() for token in text.split(",") if token.strip()]


def _bounded_int(text: str, least: int) -> int:
    """``text`` as an int no smaller than ``least`` (argparse type)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None
    if value < least:
        raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
    return value


def _positive_int(text: str) -> int:
    return _bounded_int(text, 1)


def _non_negative_int(text: str) -> int:
    return _bounded_int(text, 0)


def _positive_int_csv(text: str) -> "list[int]":
    """``"8,16"`` -> ``[8, 16]``; every entry a positive int."""
    values = [_positive_int(token) for token in _split_csv(text)]
    if not values:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return values


#: Pseudo-workload names that require ``--seed``.
SEEDED_WORKLOADS = ("random-soc", "random-cores")


def _resolve_workload(name: str, seed: "int | None"):
    """Workload-like for a CLI name, honouring ``--seed``.

    Registered names pass through untouched.  The seeded
    pseudo-workloads build their generator with the seed; the seed
    shapes the generated core names and structure, so it participates
    in every config hash without special-casing the hashing layer.
    """
    key = name.lower().replace("_", "-")
    if key in SEEDED_WORKLOADS:
        if seed is None:
            raise ConfigurationError(f"workload {name!r} is seeded; pass --seed N")
        from repro.soc.itc02 import random_soc, random_test_params

        if key == "random-soc":
            return random_soc(seed)
        return random_test_params(seed)
    if seed is not None:
        raise ConfigurationError(
            f"--seed applies to the seeded workloads "
            f"({', '.join(SEEDED_WORKLOADS)}), not {name!r}"
        )
    return name


def _parse_widths(text: str) -> "list[int | None]":
    """``"8,16,native"`` -> ``[8, 16, None]``."""
    widths: "list[int | None]" = []
    for token in _split_csv(text):
        if token.lower() in ("native", "none", "-"):
            widths.append(None)
        else:
            widths.append(int(token))
    return widths


def _hash_table(pairs) -> str:
    """An aligned table of ``(config_hash, RunResult)`` pairs.

    Rows sort by config hash: the order is a pure function of run
    identity, never of execution or shard order.
    """
    headers = ["config", *RESULT_HEADERS]
    rows = []
    for config_hash, result in sorted(pairs, key=lambda pair: pair[0]):
        metrics = result.metrics()
        row = [config_hash[:HASH_PREFIX]]
        row.extend(metrics[key] for key in RESULT_HEADERS)
        rows.append(row)
    return format_table(headers, rows)


def _progress_printer(args, console: Console):
    if not getattr(args, "verbose", False):
        return None

    def echo(experiment, result, *, cached, elapsed):
        state = "cached  " if cached else f"{elapsed:8.3f}s"
        console.detail(
            f"  {experiment.config_hash()[:HASH_PREFIX]}  {state}  "
            f"{result.workload} / {result.architecture}"
        )

    return echo


def _compose_progress(*callbacks):
    """One ``on_result`` fanning out to every non-``None`` callback."""
    active = [callback for callback in callbacks if callback is not None]
    if not active:
        return None
    if len(active) == 1:
        return active[0]

    def fanout(experiment, result, *, cached, elapsed):
        for callback in active:
            callback(experiment, result, cached=cached, elapsed=elapsed)

    return fanout


# -- verbs -----------------------------------------------------------------


def cmd_run(args) -> int:
    console = Console.from_args(args)
    config = RunConfig(
        architecture=args.architecture,
        scheduler=args.scheduler,
        bus_width=args.bus_width,
        cas_policy=args.policy,
        simulate=False if args.model_only else None,
        backend=args.backend,
        verify=not args.no_verify,
        label=args.label,
    )
    experiment = Experiment(_resolve_workload(args.workload, args.seed), config)
    if args.store is None:
        result = experiment.run()
        cached = False
    else:
        from repro.api.runner import run_many

        outcome = {}

        def note(_experiment, run_result, *, cached, elapsed):
            outcome["cached"] = cached

        store = as_store(args.store)
        result = run_many(
            [experiment],
            parallel=False,
            store=store,
            rerun=args.rerun,
            on_result=note,
        )[0]
        cached = outcome.get("cached", False)
    if args.json:
        payload = dict(result.to_dict(), hash=experiment.config_hash())
        console.json(payload)
    else:
        console.result(_hash_table([(experiment.config_hash(), result)]))
        if cached:
            console.info("(cached result; pass --rerun to execute again)")
    return 0


def cmd_sweep(args) -> int:
    console = Console.from_args(args)
    store = as_store(args.store) if args.store else None
    campaign = Campaign.sweep(
        args.campaign,
        [_resolve_workload(name, args.seed) for name in args.workloads],
        architectures=_split_csv(args.architectures),
        bus_widths=_parse_widths(args.bus_widths),
        schedulers=_split_csv(args.schedulers),
        base_config=RunConfig(backend=args.backend, verify=not args.no_verify),
        store=store,
        store_dir=args.store_dir,
        backend=args.store_format,
    )
    shard = parse_shard(args.shard) if args.shard else None
    dashboard = None
    dashboard_progress = None
    if args.dashboard:
        dashboard = SweepDashboard(len(campaign.selected_hashes(shard)))

        def dashboard_progress(experiment, result, *, cached, elapsed):
            dashboard.update(
                executed=0 if cached else 1, cached=1 if cached else 0
            )

    try:
        report = campaign.run(
            shard=shard,
            parallel=not args.serial,
            max_workers=args.max_workers,
            rerun=args.rerun,
            on_result=_compose_progress(
                dashboard_progress, _progress_printer(args, console)
            ),
        )
    finally:
        if dashboard is not None:
            dashboard.finish()
    console.result(report.summary())
    if not args.quiet:
        pairs = zip(campaign.selected_hashes(shard), report.results)
        console.result(_hash_table(list(pairs)))
    return 0


#: Column order of the ``repro diagnose`` / diagnosis-report table.
DIAGNOSIS_HEADERS = (
    "config",
    "workload",
    "scenario",
    "failing",
    "localized",
    "rank",
    "screen cyc",
    "diag cyc",
    "full cyc",
)


def _diagnosis_row(config_hash: str, result) -> "list[object]":
    scenario = result.scenario
    rank = result.scenario_rank()
    return [
        config_hash[:HASH_PREFIX],
        result.workload,
        scenario.describe() if scenario else "(none)",
        len(result.failing_cores),
        result.localized_core or "-",
        "-" if rank is None else rank,
        result.screening_cycles,
        result.diagnosis_cycles,
        result.full_retest_cycles,
    ]


def _diagnosis_table(pairs) -> str:
    rows = [
        _diagnosis_row(config_hash, result)
        for config_hash, result in sorted(pairs, key=lambda p: p[0])
    ]
    return format_table(DIAGNOSIS_HEADERS, rows)


#: Column order of the ``repro report --summary`` aggregate table.
SUMMARY_HEADERS = ("kind", "workload", "architecture", "scheduler", "runs")


def _report_summary(stores, console: Console) -> int:
    """The aggregate table: no record is loaded, let alone parsed.

    On the SQLite backend this reads the transactionally maintained
    ``aggregates`` table -- O(buckets) however many records the
    campaign holds; on JSONL it falls back to the one scan the format
    always costs.
    """
    totals: "dict[tuple, int]" = {}
    for store in stores:
        for bucket, count in store.aggregate_counts().items():
            totals[bucket] = totals.get(bucket, 0) + count
    rows = [
        [part if part is not None else "-" for part in bucket]
        + [totals[bucket]]
        for bucket in sorted(
            totals, key=lambda key: tuple(part or "" for part in key)
        )
    ]
    console.result(format_table(SUMMARY_HEADERS, rows))
    console.result(
        f"{sum(totals.values())} record(s) from {len(stores)} store(s)"
    )
    return 0


def cmd_report(args) -> int:
    from repro.diagnose.records import is_diagnosis_record

    console = Console.from_args(args)
    stores = [as_store(source) for source in args.stores]
    if args.summary:
        return _report_summary(stores, console)
    filtered = any(
        value is not None
        for value in (args.workload, args.architecture, args.scheduler)
    )
    # One load per store, shared by every rendering below (the JSON
    # dump, the run table, the diagnosis table and the trailing
    # counts): records are read and parsed exactly once per report.
    merged = {}
    skipped = 0
    for store in stores:
        before = len(merged)
        watch = stopwatch()
        if filtered:
            for record in store.iter_latest(
                workload=args.workload,
                architecture=args.architecture,
                scheduler=args.scheduler,
            ):
                merged[record["hash"]] = record
        else:
            merged.update(store.latest())
        # Long scans on large stores used to be silent; --verbose now
        # narrates each store as it is read.
        console.detail(
            f"  {store.path}: {len(merged) - before} new record(s) "
            f"in {watch.elapsed:.3f}s"
        )
        skipped += store.skipped_lines
    if skipped:
        console.warn(f"warning: skipped {skipped} malformed line(s)")
    if args.json:
        records = [merged[h] for h in sorted(merged)]
        console.json(records)
        return 0
    from repro.api.results import RunResult
    from repro.diagnose.records import result_from_record

    run_pairs = []
    diagnosis_pairs = []
    for config_hash, record in merged.items():
        if is_diagnosis_record(record):
            diagnosis_pairs.append((config_hash, result_from_record(record)))
        else:
            run_pairs.append((config_hash, RunResult.from_dict(record["result"])))
    if run_pairs or not diagnosis_pairs:
        console.result(_hash_table(run_pairs))
    if diagnosis_pairs:
        if run_pairs:
            console.result()
        console.result(_diagnosis_table(diagnosis_pairs))
    console.result(
        f"{len(run_pairs)} run(s), {len(diagnosis_pairs)} diagnosis "
        f"record(s) from {len(args.stores)} store(s)"
    )
    return 0


def cmd_diagnose(args) -> int:
    from repro.diagnose.inject import random_scenario
    from repro.diagnose.records import (
        diagnosis_hash,
        is_diagnosis_record,
        make_diagnosis_record,
        result_from_record,
    )

    console = Console.from_args(args)
    config = RunConfig(
        cas_policy=args.policy,
        backend=args.backend,
        label=args.label,
    )
    experiment = Experiment(_resolve_workload(args.workload, args.seed), config)
    soc = experiment.workload.soc
    if soc is None:
        raise ConfigurationError(
            f"workload {experiment.workload.name!r} is abstract core "
            f"parameters; diagnosis needs a simulatable SocSpec "
            f"(try the itc02-*-soc variants)"
        )
    try:
        seeds = [int(token) for token in _split_csv(args.scenarios)]
    except ValueError:
        raise ConfigurationError(
            f"--scenarios wants a comma list of integer seeds, "
            f"got {args.scenarios!r}"
        ) from None
    if not seeds:
        raise ConfigurationError("--scenarios selected no seeds")
    store = as_store(args.store) if args.store else None
    scenarios = [
        (random_scenario(soc, scenario_seed), scenario_seed)
        for scenario_seed in seeds
    ]
    hashes = [
        diagnosis_hash(experiment, scenario) for scenario, _ in scenarios
    ]
    # Ask the store only about this sweep's own hashes: an indexed
    # lookup on SQLite, one scan on JSONL -- never a full latest().
    stored = store.lookup(hashes) if store else {}
    pairs = []
    localized = 0
    in_top5 = 0
    diagnosis_total = 0
    full_total = 0
    for (scenario, scenario_seed), record_hash in zip(scenarios, hashes):
        record = stored.get(record_hash)
        if record is not None and is_diagnosis_record(record) and not args.rerun:
            result = result_from_record(record)
            console.detail(f"  {record_hash[:HASH_PREFIX]}  cached")
        else:
            with obs_spans.span("diagnose.scenario", seed=scenario_seed):
                with stopwatch() as watch:
                    result = experiment.diagnose(scenario)
            elapsed = watch.seconds
            console.detail(
                f"  {record_hash[:HASH_PREFIX]}  {elapsed:8.3f}s  "
                f"seed {scenario_seed}"
            )
            if store is not None:
                with obs_spans.span(
                    "store.append", config_hash=record_hash[:HASH_PREFIX]
                ):
                    store.append(
                        make_diagnosis_record(
                            experiment,
                            scenario,
                            result,
                            elapsed_s=elapsed,
                            config_hash=record_hash,
                        ),
                        replace=args.rerun,
                    )
        pairs.append((record_hash, result))
        rank = result.scenario_rank()
        if result.localized_core == scenario.core and rank is not None:
            localized += 1
        if rank is not None and rank <= 5:
            in_top5 += 1
        diagnosis_total += result.diagnosis_cycles
        full_total += result.full_retest_cycles
    if args.json:
        payload = [
            dict(result.to_dict(), hash=record_hash)
            for record_hash, result in pairs
        ]
        console.json(payload)
        return 0
    console.result(_diagnosis_table(pairs))
    count = len(pairs)
    mean_diag = diagnosis_total / count
    mean_full = full_total / count
    console.result(
        f"localisation accuracy {localized}/{count}, "
        f"true fault in top-5 {in_top5}/{count}"
    )
    console.result(
        f"mean diagnosis cycles {mean_diag:.0f} vs full re-test "
        f"{mean_full:.0f} ({mean_diag / mean_full:.1%})"
    )
    return 0


def cmd_verify(args) -> int:
    from repro.verify import VerifyReport, verify_store

    console = Console.from_args(args)
    report = VerifyReport()
    for source in args.stores:
        verify_store(as_store(source), report=report)
    failed = bool(report.errors) or (args.strict and bool(report.warnings))
    if args.json:
        payload = {
            "checked": report.checked,
            "ok": not failed,
            "diagnostics": [d.to_dict() for d in report.diagnostics],
        }
        console.json(payload)
        return 1 if failed else 0
    if report.diagnostics:
        console.result(report.table())
    console.result(report.summary())
    return 1 if failed else 0


def cmd_merge(args) -> int:
    console = Console.from_args(args)
    target = merge_stores(args.stores, args.out)
    count = len(target)
    console.result(
        f"merged {len(args.stores)} store(s) -> {target.path} ({count} runs)"
    )
    return 0


def cmd_migrate(args) -> int:
    console = Console.from_args(args)
    target = migrate_store(args.store, args.out)
    console.result(
        f"migrated {args.store} -> {target.path} "
        f"({len(target)} runs, {target.format})"
    )
    return 0


#: Column order of the ``repro optimize`` Pareto table.
PARETO_HEADERS = (
    "N",
    "config bits",
    "sessions",
    "test cycles",
    "config cycles",
    "total cycles",
    "",
)


def _pareto_row(point, bus_width) -> "list[object]":
    return [
        point.bus_width,
        point.config_bits,
        point.sessions,
        point.test_cycles,
        point.config_cycles,
        point.total_cycles,
        "*" if point.bus_width == bus_width else "",
    ]


def cmd_optimize(args) -> int:
    from repro.api.runner import run_many
    from repro.schedule.optimize import BNB_MAX_CORES, co_optimize

    console = Console.from_args(args)
    workload = get_workload(args.workload)
    width = (
        args.bus_width if args.bus_width is not None else workload.bus_width
    )
    if width is None:
        message = (
            f"workload {workload.name!r} has no intrinsic bus width; "
            f"pass --bus-width"
        )
        raise ConfigurationError(message)
    method = args.method
    if method == "auto":
        if args.portfolio is not None or args.jobs > 1:
            method = "portfolio"
        elif len(workload.cores) <= BNB_MAX_CORES:
            method = "bnb"
        else:
            method = "anneal"
    progress = None
    if args.verbose and method == "portfolio":

        def progress(event):
            console.detail(
                "  round {round}  N={width:>3}  {strategy}[{variant}]  "
                "total={total}  best={best}".format(**event)
            )

    outcome = co_optimize(
        workload.cores,
        width,
        method=method,
        widths=args.widths,
        cas_policy=args.policy,
        seed=args.seed,
        restarts=args.restarts,
        portfolio=args.portfolio,
        jobs=args.jobs,
        budget=args.budget,
        progress=progress,
    )
    if args.json:
        # Deliberately excludes --jobs: the payload is a pure function
        # of the search inputs, so CI can diff --jobs 1 vs --jobs 4.
        payload = {
            "workload": workload.name,
            "method": outcome.method,
            "bus_width": width,
            "evaluations": outcome.evaluations,
            "lower_bound": outcome.lower_bound,
            "gap": outcome.gap,
            "cache_stats": outcome.cache_stats,
            "pareto": [point.to_dict() for point in outcome.pareto],
        }
        console.json(payload)
    else:
        console.result(
            f"{workload.name}: {outcome.method} on N={width} -> "
            f"{outcome.total_cycles} total cycles "
            f"({outcome.evaluations} session evaluations)"
        )
        console.result(
            f"certified floor: {outcome.lower_bound} cycles "
            f"(gap {100 * outcome.gap:.2f}%)"
        )
        model_stats = outcome.cache_stats.get("cost_model")
        if model_stats:
            console.result(
                "cost table: {misses} rows built, {hits} row reads "
                "served ({entries} cells)".format(**model_stats)
            )
        rows = [_pareto_row(point, width) for point in outcome.pareto]
        title = "Pareto front (bus width / config bits / total cycles)"
        console.result(format_table(PARETO_HEADERS, rows, title=title))
        if not args.quiet:
            console.result(outcome.schedule.describe())
    if args.store is None:
        return 0
    # Persist one experiment per front point through the standard
    # store-aware runner: records land under the same config hashes a
    # sweep with this scheduler would produce, so campaigns resume
    # over them.  Each point deliberately re-executes its experiment
    # (seconds at worst) instead of serialising the outcome above --
    # a stored record must be exactly what re-running its config
    # yields, or resume semantics break.
    experiments = [
        Experiment(
            workload,
            RunConfig(
                architecture="casbus",
                scheduler=outcome.method,
                bus_width=point.bus_width,
                cas_policy=args.policy,
                label=args.label,
            ),
        )
        for point in outcome.pareto
    ]
    run_many(
        experiments,
        parallel=False,
        store=as_store(args.store),
        rerun=args.rerun,
    )
    console.result(
        f"persisted {len(experiments)} Pareto point(s) -> {args.store}"
    )
    return 0


def _detail_table(registry) -> str:
    rows = [
        [entry.name, ", ".join(entry.aliases) or "-", entry.description]
        for entry in registry.entries()
    ]
    return format_table(("name", "aliases", "description"), rows)


def cmd_list(args) -> int:
    # Importing repro.api.workloads (above) transitively loads the
    # architecture and scheduler modules, so all three registries are
    # populated by the time any listing runs.
    console = Console.from_args(args)
    detail = (
        ("architectures", ARCHITECTURES, args.architectures),
        ("schedulers", SCHEDULERS, args.schedulers),
        ("workloads", WORKLOADS, args.workloads),
    )
    if any(selected for _, _, selected in detail):
        first = True
        for title, registry, selected in detail:
            if not selected:
                continue
            if not first:
                console.result()
            first = False
            console.result(f"{title}:")
            console.result(_detail_table(registry))
        return 0
    sections = (
        ("architectures", list_architectures()),
        ("schedulers", list_schedulers()),
        ("workloads", list_workloads()),
    )
    for title, names in sections:
        console.result(f"{title}:")
        for name in names:
            console.result(f"  {name}")
    return 0


def cmd_profile(args) -> int:
    """Run any other verb under the tracer, then print the profile."""
    console = Console.from_args(args)
    cmdline = list(args.cmdline)
    if cmdline and cmdline[0] == "--":
        cmdline = cmdline[1:]
    if not cmdline:
        raise ConfigurationError(
            "profile needs a command to run, e.g. "
            "`repro profile sweep itc02-d695 --serial`"
        )
    if cmdline[0] == "profile":
        raise ConfigurationError("profile cannot profile itself")
    with obs_spans.capture() as collector:
        code = main(cmdline)
    console.result("")
    console.result(
        format_profile(collector.spans(), collector.metrics.snapshot())
    )
    return code


# -- parser ----------------------------------------------------------------


def _add_trace_flag(sub) -> None:
    sub.add_argument(
        "--trace",
        default=None,
        metavar="OUT.JSONL",
        help="stream obs spans/metrics to this JSONL trace file",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CAS-BUS experiment campaigns, headless.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="run one experiment")
    run.add_argument("workload", help="registered workload name")
    run.add_argument("-a", "--architecture", default="casbus")
    run.add_argument("-s", "--scheduler", default="greedy")
    run.add_argument("-w", "--bus-width", type=int, default=None)
    run.add_argument("--policy", default=None, help="CAS enumeration policy")
    run.add_argument("--backend", default="auto")
    run.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (random-soc / random-cores)",
    )
    run.add_argument("--label", default="")
    run.add_argument(
        "--model-only",
        action="store_true",
        help="forbid cycle-accurate simulation",
    )
    run.add_argument("--store", default=None, help="record into this store")
    run.add_argument("--rerun", action="store_true")
    run.add_argument(
        "--no-verify",
        action="store_true",
        help="skip static verification at the fail-fast boundaries",
    )
    run.add_argument("--json", action="store_true")
    run.add_argument("--quiet", action="store_true")
    run.add_argument("--verbose", action="store_true")
    _add_trace_flag(run)
    run.set_defaults(func=cmd_run)

    sweep = commands.add_parser(
        "sweep",
        help="run a resumable design-space campaign",
    )
    sweep.add_argument("workloads", nargs="+", help="workload name(s)")
    sweep.add_argument("--campaign", default="sweep", help="campaign name")
    sweep.add_argument("--architectures", default="casbus")
    sweep.add_argument("--schedulers", default="greedy")
    sweep.add_argument(
        "--bus-widths",
        default="native",
        help="comma list of widths; 'native' keeps the workload's own",
    )
    sweep.add_argument("--backend", default="auto")
    sweep.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (random-soc / random-cores)",
    )
    sweep.add_argument(
        "--store",
        default=None,
        help="store path (default <store-dir>/<campaign>.jsonl)",
    )
    sweep.add_argument(
        "--store-dir",
        default=None,
        help="directory for named stores (default artifacts/campaigns)",
    )
    sweep.add_argument(
        "--store-format",
        choices=("jsonl", "sqlite"),
        default="jsonl",
        help="backend for the default named store (ignored with --store, "
        "where the path's suffix decides)",
    )
    sweep.add_argument("--shard", default=None, metavar="K/N")
    sweep.add_argument("--serial", action="store_true")
    sweep.add_argument("--max-workers", type=int, default=None)
    sweep.add_argument("--rerun", action="store_true")
    sweep.add_argument(
        "--no-verify",
        action="store_true",
        help="skip static verification at the fail-fast boundaries",
    )
    sweep.add_argument("--quiet", action="store_true")
    sweep.add_argument("--verbose", action="store_true")
    sweep.add_argument(
        "--dashboard",
        action="store_true",
        help="live progress bar with rate and ETA (stderr)",
    )
    _add_trace_flag(sweep)
    sweep.set_defaults(func=cmd_sweep)

    optimize = commands.add_parser(
        "optimize",
        help="co-optimise TAM width and sessions, report the Pareto front",
    )
    optimize.add_argument("workload", help="registered workload name")
    optimize.add_argument(
        "-w",
        "--bus-width",
        type=_positive_int,
        default=None,
        help="pin budget N (default: the workload's own width)",
    )
    optimize.add_argument(
        "--widths",
        type=_positive_int_csv,
        default=None,
        help="comma list of candidate widths (default: powers of two up "
        "to N)",
    )
    optimize.add_argument(
        "--method",
        choices=("auto", "bnb", "anneal", "portfolio"),
        default="auto",
        help="search engine: exact branch-and-bound, simulated "
        "annealing, or the multi-start portfolio (auto picks by core "
        "count, or portfolio when --jobs/--portfolio are given)",
    )
    optimize.add_argument(
        "--seed",
        type=int,
        default=0,
        help="root seed of the stochastic engines (results are a pure "
        "function of it, never of --jobs)",
    )
    optimize.add_argument(
        "--restarts",
        type=_positive_int,
        default=1,
        help="independent anneal restarts per width (anneal method)",
    )
    optimize.add_argument(
        "--jobs",
        type=_positive_int,
        default=1,
        help="worker processes for the portfolio; changes wall-clock "
        "only, never the result",
    )
    optimize.add_argument(
        "--budget",
        type=_non_negative_int,
        default=None,
        help="total per-width move budget for the portfolio, split "
        "across its units and rounds",
    )
    optimize.add_argument(
        "--portfolio",
        default=None,
        help="portfolio strategy mix, e.g. 'anneal,genetic,lns' "
        "(implies --method portfolio)",
    )
    optimize.add_argument(
        "--verbose",
        action="store_true",
        help="print one progress line per completed portfolio unit",
    )
    optimize.add_argument("--policy", default=None, help="CAS policy")
    optimize.add_argument("--label", default="")
    optimize.add_argument(
        "--store",
        default=None,
        help="persist every Pareto point into this campaign store",
    )
    optimize.add_argument("--rerun", action="store_true")
    optimize.add_argument("--json", action="store_true")
    optimize.add_argument(
        "--quiet",
        action="store_true",
        help="omit the per-session schedule dump",
    )
    _add_trace_flag(optimize)
    optimize.set_defaults(func=cmd_optimize)

    diagnose = commands.add_parser(
        "diagnose",
        help="inject seeded defects, adaptively localise them",
    )
    diagnose.add_argument("workload", help="simulatable workload name")
    diagnose.add_argument(
        "--scenarios",
        default="0",
        help="comma list of defect-scenario seeds (default: 0)",
    )
    diagnose.add_argument(
        "--seed",
        type=int,
        default=None,
        help="workload seed (random-soc)",
    )
    diagnose.add_argument("--policy", default=None, help="CAS policy")
    diagnose.add_argument("--backend", default="auto")
    diagnose.add_argument("--label", default="")
    diagnose.add_argument(
        "--store",
        default=None,
        help="record/resume diagnosis runs in this store",
    )
    diagnose.add_argument("--rerun", action="store_true")
    diagnose.add_argument("--json", action="store_true")
    diagnose.add_argument("--quiet", action="store_true")
    diagnose.add_argument("--verbose", action="store_true")
    _add_trace_flag(diagnose)
    diagnose.set_defaults(func=cmd_diagnose)

    report = commands.add_parser("report", help="tabulate stores")
    report.add_argument("stores", nargs="+")
    report.add_argument(
        "--workload",
        default=None,
        help="only records for this workload (indexed on sqlite stores)",
    )
    report.add_argument(
        "--architecture",
        default=None,
        help="only records for this architecture",
    )
    report.add_argument(
        "--scheduler",
        default=None,
        help="only records for this scheduler",
    )
    report.add_argument(
        "--summary",
        action="store_true",
        help="per-bucket aggregate counts only, no record loading",
    )
    report.add_argument("--json", action="store_true")
    report.add_argument("--quiet", action="store_true")
    report.add_argument(
        "--verbose",
        action="store_true",
        help="narrate per-store row counts and elapsed read time",
    )
    report.set_defaults(func=cmd_report)

    merge = commands.add_parser("merge", help="merge shard stores")
    merge.add_argument("stores", nargs="+")
    merge.add_argument("-o", "--out", required=True)
    merge.set_defaults(func=cmd_merge)

    migrate = commands.add_parser(
        "migrate",
        help="copy a store into another backend (suffix of -o decides)",
    )
    migrate.add_argument("store", help="source store path")
    migrate.add_argument(
        "-o",
        "--out",
        required=True,
        help="destination path (.jsonl or .sqlite/.sqlite3/.db)",
    )
    migrate.set_defaults(func=cmd_migrate)

    verify = commands.add_parser(
        "verify",
        help="statically audit campaign stores (exit 1 on violations)",
    )
    verify.add_argument("stores", nargs="+")
    verify.add_argument(
        "--strict",
        action="store_true",
        help="fail on warnings too, not only errors",
    )
    verify.add_argument("--json", action="store_true")
    verify.set_defaults(func=cmd_verify)

    listing = commands.add_parser("list", help="list registered components")
    listing.add_argument(
        "--architectures",
        action="store_true",
        help="detail table: architecture name, aliases, description",
    )
    listing.add_argument(
        "--schedulers",
        action="store_true",
        help="detail table: scheduler name, aliases, description",
    )
    listing.add_argument(
        "--workloads",
        action="store_true",
        help="detail table: workload name, aliases, description",
    )
    listing.set_defaults(func=cmd_list)

    profile = commands.add_parser(
        "profile",
        help="run another verb under the obs tracer, print the profile",
    )
    profile.add_argument(
        "cmdline",
        nargs=argparse.REMAINDER,
        help="the repro command line to profile",
    )
    profile.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    traced = False
    trace = getattr(args, "trace", None)
    if trace:
        if obs_spans.enabled():
            # `repro profile <cmd> --trace ...`: one collector at a
            # time; the outer one wins.
            Console.from_args(args).warn(
                "warning: tracing already active; --trace ignored"
            )
        else:
            obs_spans.configure(sinks=[JsonlSink(trace)])
            traced = True
    try:
        return args.func(args)
    except ReproError as error:
        Console.from_args(args).warn(f"error: {error}")
        return 2
    except BrokenPipeError:
        # Output piped into a closed reader (e.g. `repro list | head`).
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    finally:
        if traced:
            obs_spans.shutdown()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
