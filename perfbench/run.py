"""End-to-end benchmark of the repro commands, with a traced profile.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Runs one workload (see ``workloads.py``) in this single-threaded
process against the program in ``src/`` of the checkout this file sits
in.  With ``--trace 0`` it sets up, measures rounds for ``--seconds``
seconds, checks every output and prints the end-to-end metrics; with
``--trace 1`` it runs the same rounds untraced and then traced (the
layer tracer of ``tracer.py`` plus an ``obs.capture()`` collector) and
prints the per-layer metrics.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Scratch files (stores, homes, traces) live under ``.perfbench_work/``
in the checkout and are removed on exit.

Host times are the fastest samples of the run: the host is a shared
VM whose neighbours slow it by 10-40% for seconds at a time, and that
contention only ever adds time.  ``wall_s``/``repeat_s`` are the fastest
round, ``throughput_per_s`` the fastest round's rate, and the latency
quantiles are taken over each operation's fastest execution.
``setup_s`` is the median of several set-ups.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from interpreter start-up

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# One process per workload, one thread per process: numpy must not
# start a BLAS pool on a two-core machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
GOLDEN = HERE / "golden.json"

#: Seed whose outputs are pinned by digest in ``golden.json``.
GOLDEN_SEED = 0

clock = time.perf_counter

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "repeat_s": "s",
    "throughput_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "test_cycles": "cycles",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Per-layer metrics: name -> unit, in report order."""
    from tracer import LAYERS, OBS_COUNTERS

    units = {}
    for layer in LAYERS:
        units[f"{layer}_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({
        "core.generate_cas.distinct": "count",
        "core.generate_cas.total_s": "s",
        "campaign.hashing.identity_per_experiment": "calls/exp",
        "schedule.strategy_per_experiment": "calls/exp",
        "sim.cycles": "cycles",
        "sim.cycles_per_s": "cycles/s",
        "schedule.evaluations": "count",
        "schedule.cost_model.hits": "count",
        "schedule.cost_model.misses": "count",
    })
    for name in OBS_COUNTERS + ("batch.dispatches",):
        units[name] = "count"
    units.update({
        "trace.wall_s": "s",
        "unattributed_s": "s",
        "trace.overhead_frac": "ratio",
    })
    return units


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def best_per_op(rounds) -> "tuple[list[float], int]":
    """Each operation's fastest execution across the rounds, in ms, and
    how many executions there were in all."""
    best: dict = {}
    executions = 0
    for item in rounds:
        for key, ms in item.ops:
            best[key] = min(ms, best.get(key, ms))
            executions += 1
    return list(best.values()), executions


def timed_rounds(workload, seconds: float, count=None, tracer=None):
    """Rounds until ``seconds`` of them elapsed (at least one), or
    exactly ``count``; returns ``(rounds, seconds per round)``.  Each
    round's outputs are settled off the clock and off the trace."""
    rounds, durations = [], []
    while (len(rounds) < count if count is not None
           else not rounds or sum(durations) < seconds):
        began = clock()
        rounds.append(workload.round(tracer=tracer))
        durations.append(clock() - began)
        if tracer is not None:
            tracer.active = False
        try:
            workload.settle()
        except Exception as error:  # noqa: BLE001 - a crashed check fails
            workload.fail(f"checking a round's outputs raised {error!r}")
        finally:
            if tracer is not None:
                tracer.active = True
    return rounds, durations


def probe_setup(args) -> "float | None":
    """One set-up in a fresh process; its seconds, or None on failure."""
    argv = [sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(args.seed),
            "--scale", args.scale, "--setup-only"]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0 or not proc.stdout.strip():
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def check_outputs(workload, args) -> None:
    """Workload self-checks, then the golden digest at the golden seed."""
    from workloads import digest

    try:
        workload.check()
    except Exception as error:  # noqa: BLE001 - a crashed check fails
        workload.fail(f"checking outputs raised {error!r}")
        return
    if args.seed != GOLDEN_SEED:
        return
    try:
        actual = digest(workload.outputs())
    except Exception as error:  # noqa: BLE001 - missing outputs fail
        workload.fail(f"digesting outputs raised {error!r}")
        return
    golden_path = Path(args.golden)
    golden = json.loads(golden_path.read_text()) if golden_path.exists() else {}
    key = f"{args.scale}/{workload.name}"
    if args.record_golden:
        golden[key] = actual
        golden_path.write_text(json.dumps(golden, indent=2, sort_keys=True)
                               + "\n")
        return
    workload.attempted += 1
    if golden.get(key) != actual:
        workload.fail(f"outputs digest {actual[:12]} does not match the "
                      f"golden {str(golden.get(key))[:12]} for {key}")


def end_to_end(workload, args, setup_s: float) -> dict:
    setups = [setup_s]
    for _ in range(workload.setup_samples - 1):
        workload.attempted += 1
        sample = probe_setup(args)
        if sample is None:
            workload.fail("a set-up probe process failed")
        else:
            setups.append(sample)
    rounds, _ = timed_rounds(workload, args.seconds)
    check_outputs(workload, args)
    ops, executions = best_per_op(rounds)
    try:
        test_cycles = workload.test_cycles
    except Exception as error:  # noqa: BLE001 - missing outputs fail
        workload.fail(f"counting test cycles raised {error!r}")
        test_cycles = 0
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "wall_s": f"fastest of {len(rounds)} rounds",
        "repeat_s": f"fastest of {len(rounds)} repeats",
        "throughput_per_s": f"{workload.throughput_unit} per second, "
                            f"fastest sample",
        "op_p50_ms": f"n={len(ops)} x {workload.op_unit}, fastest of "
                     f"{executions / max(len(ops), 1):.3g} each",
        "op_p90_ms": f"n={len(ops)} x {workload.op_unit}, fastest of "
                     f"{executions / max(len(ops), 1):.3g} each",
    }
    metrics = {
        "setup_s": median(setups),
        "wall_s": min(item.wall_s for item in rounds),
        "repeat_s": min(item.repeat_s for item in rounds),
        "throughput_per_s": max(
            rate for item in rounds for rate in item.throughput
        ),
        "op_p50_ms": median(ops),
        "op_p90_ms": p90(ops),
        "test_cycles": test_cycles,
        "peak_rss_mb": workload.peak_rss_kb() / 1024,
    }
    return {name: (value, END_TO_END[name], notes.get(name, ""))
            for name, value in metrics.items()}


def per_layer(workload, args) -> dict:
    from tracer import Tracer, harvest, merge_payloads
    from repro import obs

    workload.profile_only()
    _, untraced = timed_rounds(workload, args.seconds / 2)
    count = len(untraced)
    tracer = Tracer()
    with obs.capture() as collector:
        tracer.install()
        try:
            rounds, traced = timed_rounds(workload, 0, count=count,
                                          tracer=tracer)
        finally:
            tracer.uninstall()
    check_outputs(workload, args)
    payload = tracer.payload()
    payload["counters"].update(harvest(collector))
    merged = merge_payloads(
        [payload] + [child for item in rounds for child in item.trace_payloads]
    )
    units = per_layer_units()
    metrics = dict.fromkeys(units, 0.0)
    layers, counters = merged["layers"], merged["counters"]
    attributed = 0.0
    for layer, (self_s, _total, calls) in layers.items():
        metrics[f"{layer}_s"] = self_s / count
        metrics[f"{layer}.calls"] = calls / count
        attributed += self_s
    for name, value in counters.items():
        metrics[name] = value / count
    metrics["core.generate_cas.distinct"] = merged["distinct"].get(
        "core.generate_cas", 0)
    # Inclusive: CAS generation with the minimiser it calls.
    metrics["core.generate_cas.total_s"] = (
        layers["core.generate_cas"][1] / count)
    experiments = workload.experiments * count
    if experiments:
        metrics["campaign.hashing.identity_per_experiment"] = (
            layers["campaign.hashing.identity"][2] / experiments)
        metrics["schedule.strategy_per_experiment"] = (
            layers["schedule.strategy"][2] / experiments)
    sim_s = layers["sim.run_plan"][1] + layers["sim.run_batch"][1]
    if sim_s:
        metrics["sim.cycles_per_s"] = counters.get("sim.cycles", 0) / sim_s
    wall = sum(traced)
    metrics["trace.wall_s"] = wall / count
    metrics["unattributed_s"] = (wall - attributed) / count
    metrics["trace.overhead_frac"] = wall / sum(untraced) - 1
    return {name: (metrics[name], units[name], "") for name in units}


def report(workload, args, rows: dict) -> None:
    mode = "per-layer (traced)" if args.trace else "end-to-end"
    print(f"== {workload.name}  seed {args.seed}  scale {args.scale}  "
          f"{mode}")
    print(f"   {workload.why}")
    for name, (value, unit, note) in rows.items():
        if not args.trace or value:
            print(f"   {name:<44} {value:>16.6g} {unit:<9} {note}")
    for line in workload.extra_report():
        print(f"   {line}")
    rate = workload.failed / max(workload.attempted, 1)
    print(f"   error_rate {rate:.4f} ({workload.failed} failed of "
          f"{workload.attempted} operations and checks)")
    for message in workload.errors[:10]:
        print(f"   ! {message}")


def run_workload(args) -> int:
    from workloads import WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, args.scale, workdir)
        workload.setup()
        setup_s = clock() - T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        # Move the set-up heap (inputs, warmed caches) out of the
        # collector's reach: full collections during the timed phase
        # then scan what the timed work allocates, not the benchmark's
        # own inputs, whose size would otherwise set the pause times.
        gc.collect()
        gc.freeze()
        if args.trace:
            rows = per_layer(workload, args)
        else:
            rows = end_to_end(workload, args, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another workload's scratch is still in use
    report(workload, args, rows)
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": max(workload.attempted, 1),
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in rows.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined summary line."""
    from workloads import WORKLOADS

    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--scale", args.scale, "--golden", args.golden]
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(summary))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="cli-cold, fault-campaign, model-campaign, "
                        "optimize, or all")
    parser.add_argument("--seed", type=int, default=GOLDEN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for the benchmark's tests")
    parser.add_argument("--golden", default=str(GOLDEN),
                        help="digest file checked at the golden seed")
    parser.add_argument("--record-golden", action="store_true",
                        help="write the golden digest instead of checking")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
