"""The benchmark's four workloads.

Each workload is a closed loop with one client: the next operation
starts only after the previous one returned.  ``setup`` builds the
inputs from the seed and warms the caches a long-lived user process
would have warm.  ``round`` runs the timed operation and then issues
it again unchanged (the *repeat*).  ``settle`` runs between rounds,
off the clock: it validates the round's outputs against the first
round's and drops them, so memory stays flat however many rounds run.
``check`` makes the final checks once measuring is over.  Every
mismatch is counted through :meth:`Workload.fail`.

Program entry points are called through their module attributes
(``runner.run_many``, ``optimize.co_optimize``) so that the layer
tracer sees every call the benchmark makes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

clock = time.perf_counter

HERE = Path(__file__).resolve().parent


def digest(payload) -> str:
    """SHA-256 of the canonical JSON text of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Round:
    """Timings of one round: the operation and its repeat.

    ``ops`` holds one ``(key, ms)`` pair per timed operation; the key
    names the operation (a scenario, an experiment, a search seed), so
    the same operation can be matched across rounds.
    """

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.repeat_s = 0.0
        self.ops: list[tuple] = []
        self.throughput: list[float] = []
        self.trace_payloads: list[dict] = []  # cli-cold children only


class Workload:
    name = ""
    why = ""
    #: Domain units of ``throughput_per_s`` and of one ``op_*_ms`` sample.
    throughput_unit = ""
    op_unit = ""
    #: Set-ups per run whose median is ``setup_s`` (this process plus
    #: fresh probe processes); more where one set-up is short.
    setup_samples = 3

    def __init__(self, seed: int, scale: str, workdir: Path) -> None:
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        #: Experiments handled per round (per-experiment layer ratios).
        self.experiments = 0
        self._reference: str | None = None

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)

    def agree(self, payload, what: str) -> bool:
        """Count one comparison of ``payload`` against the first one
        seen; returns True for the first (the reference)."""
        text = digest(payload)
        if self._reference is None:
            self._reference = text
            return True
        self.attempted += 1
        if text != self._reference:
            self.fail(f"{what} differs from the first one")
        return False

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, tracer=None) -> Round:
        raise NotImplementedError

    def settle(self) -> None:
        raise NotImplementedError

    def check(self) -> None:
        """Final checks after the last round (none by default)."""

    def profile_only(self) -> None:
        """Restrict rounds to what the traced run profiles (all of a
        round by default)."""

    def outputs(self):
        """The first round's outputs, digested at the golden seed."""
        raise NotImplementedError

    @property
    def test_cycles(self) -> int:
        raise NotImplementedError

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def extra_report(self) -> list[str]:
        return []


# -- cli-cold -------------------------------------------------------------


class CliCold(Workload):
    name = "cli-cold"
    why = ("fresh `python -m repro` processes in a fresh scratch home, run "
           "twice: import, cold CAS generation, cold ATPG and dictionaries")
    throughput_unit = "commands"
    op_unit = "command process"
    setup_samples = 7

    def setup(self) -> None:
        scenarios = [str(self.rng.randrange(10_000)) for _ in range(4)]
        if self.scale == "smoke":
            self.commands = [
                ["run", "fig1", "--json"],
                ["diagnose", "itc02-d695-soc", "--scenarios", scenarios[0],
                 "--json"],
            ]
        else:
            self.commands = [
                ["run", "fig1", "--json"],
                ["run", "itc02-d695-soc", "--json"],
                ["run", "itc02-p93791-soc", "--json"],
                ["diagnose", "itc02-d695-soc", "--scenarios",
                 ",".join(scenarios), "--json"],
            ]
        self.passes = 2  # cold, then the repeat
        self.first: list | None = None
        self.latest: list[list] = []
        self.rounds = 0
        self.experiments = len(self.commands)
        # Compile and page in the whole package once from a fresh
        # process, as an installed package would be: the cold state the
        # passes measure is the program's own, not the file system's.
        self.attempted += 1
        proc = self._child(
            [sys.executable, "-c",
             "import pkgutil, importlib, repro\n"
             "for m in pkgutil.walk_packages(repro.__path__, 'repro.'):\n"
             "    importlib.import_module(m.name)"],
            self.workdir,
            dict(os.environ),
        )
        if proc.returncode != 0:
            self.fail(f"importing the package failed: {proc.stderr[-300:]}")

    def profile_only(self) -> None:
        self.passes = 1  # the traced run profiles the cold pass

    def _child(self, argv, cwd, env) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=cwd, env=env, capture_output=True,
                              text=True, timeout=170)

    def _pass(self, home: Path, env, payloads, timings: list) -> list:
        outputs = []
        for index, command in enumerate(self.commands):
            argv = [sys.executable, "-m", "repro", *command]
            trace_out = None
            if payloads is not None:
                trace_out = home / f"trace-{index}.json"
                argv = [sys.executable, str(HERE / "launch.py"),
                        "--trace-out", str(trace_out), *command]
            self.attempted += 1
            start = clock()
            proc = self._child(argv, home, env)
            timings.append(clock() - start)
            if proc.returncode != 0:
                self.fail(f"`repro {' '.join(command)}` exited "
                          f"{proc.returncode}: {proc.stderr.strip()[-300:]}")
                outputs.append(None)
                continue
            try:
                outputs.append(json.loads(proc.stdout))
            except ValueError:
                self.fail(f"`repro {' '.join(command)}` printed no JSON")
                outputs.append(None)
            if trace_out is not None:
                payloads.append(json.loads(trace_out.read_text()))
        return outputs

    def round(self, tracer=None) -> Round:
        result = Round()
        home = self.workdir / f"home-{self.rounds}"
        self.rounds += 1
        (home / "cache").mkdir(parents=True)
        env = dict(os.environ, HOME=str(home),
                   XDG_CACHE_HOME=str(home / "cache"))
        payloads = result.trace_payloads if tracer is not None else None
        timings: list[float] = []
        self.latest.append(self._pass(home, env, payloads, timings))
        result.wall_s = sum(timings)
        result.throughput.append(len(self.commands) / result.wall_s)
        if self.passes > 1:
            again: list[float] = []
            self.latest.append(self._pass(home, env, None, again))
            result.repeat_s = sum(again)
            timings.extend(again)
        result.ops = [(index, seconds * 1e3)
                      for index, seconds in enumerate(timings)]
        return result

    def settle(self) -> None:
        for outputs in self.latest:
            if None in outputs:
                continue  # already counted as a failed command
            if self.agree(outputs, "a repeated command's output"):
                self.first = outputs
                for command, output in zip(self.commands, outputs):
                    self.attempted += 1
                    if command[0] == "run" and output["passed"] is not True:
                        self.fail(f"fault-free `repro run {command[1]}` "
                                  f"did not pass")
        self.latest.clear()

    def outputs(self):
        return self.first

    @property
    def test_cycles(self) -> int:
        """Modelled cycles of the ``run`` commands (the diagnosis
        cycles depend on the seeded scenarios, and are digested)."""
        return sum(
            output["test_cycles"] + output["config_cycles"]
            for command, output in zip(self.commands, self.first)
            if command[0] == "run"
        )

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


# -- fault-campaign -------------------------------------------------------


def sweep_scenarios(soc, count, base):
    """A stuck-at Monte-Carlo sweep: clean plus seeded scan faults
    (the generator of ``benchmarks/bench_batch.py``, offset by
    ``base`` so every benchmark seed draws other faults)."""
    from repro.bist.engine import random_detectable_fault

    victims = [core for core in soc.cores if core.method.value == "scan"]
    scenarios = [None]
    for index in range(count - 1):
        victim = victims[index % len(victims)]
        fault = random_detectable_fault(
            victim.build_scannable(), seed=base + index
        )
        scenarios.append({victim.name: fault})
    return scenarios


class FaultCampaign(Workload):
    name = "fault-campaign"
    why = ("yield study: thousands of stuck-at scenarios screened in one "
           "batch dispatch, then adaptive diagnosis on d695/p93791 SoCs")
    throughput_unit = "scenarios screened"
    op_unit = "diagnosed scenario"
    setup_samples = 2  # each set-up generates 2048 scenarios (~7 s)

    SIZES = {
        # scale: (screened scenarios, d695 diagnoses, p93791 diagnoses);
        # two d695 per p93791, so the median latency sits inside the
        # d695 population and p90 inside the p93791 one.
        "full": (2048, 70, 35),
        "smoke": (32, 4, 2),
    }

    def setup(self) -> None:
        from repro.api import runner
        from repro.api.experiment import Experiment
        from repro.diagnose.inject import random_scenario
        from repro.soc.library import fig1_soc

        self.runner = runner
        count, d695, p93791 = self.SIZES[self.scale]
        soc = fig1_soc()
        self.screen = [
            Experiment(soc).with_faults(scenario)
            for scenario in sweep_scenarios(soc, count, self.seed * count)
        ]
        self.diagnoses = []
        for workload, number in (("itc02-d695-soc", d695),
                                 ("itc02-p93791-soc", p93791)):
            experiment = Experiment(workload)
            for _ in range(number):
                scenario = random_scenario(
                    experiment.workload.soc, self.rng.randrange(1 << 30)
                )
                self.diagnoses.append((experiment, scenario))
        self.experiments = len(self.screen) + len(self.diagnoses)
        self.first: tuple[list, list] | None = None
        self.latest: list[tuple[list, list]] = []
        self._operate()  # warm: ATPG, compiled programs, dictionaries
        self.settle()  # ...and the reference every round must match

    def _operate(self) -> tuple[float, float, list[float]]:
        self.attempted += 1
        start = clock()
        try:
            screened = self.runner.run_many(self.screen, parallel=False)
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"screening raised {error!r}")
            screened = []
        screen_s = clock() - start
        diagnosed, latencies = [], []
        for experiment, scenario in self.diagnoses:
            self.attempted += 1
            began = clock()
            try:
                diagnosed.append(experiment.diagnose(scenario))
            except Exception as error:  # noqa: BLE001 - counted, reported
                self.fail(f"diagnosis of {scenario} raised {error!r}")
                diagnosed.append(None)
            latencies.append((clock() - began) * 1e3)
        self.latest.append((screened, diagnosed))
        return screen_s, clock() - start, latencies

    def round(self, tracer=None) -> Round:
        result = Round()
        for repeat in (False, True):
            screen_s, wall_s, latencies = self._operate()
            if repeat:
                result.repeat_s = wall_s
            else:
                result.wall_s = wall_s
            result.throughput.append(len(self.screen) / screen_s)
            result.ops.extend(enumerate(latencies))
        return result

    @staticmethod
    def _payload(screened, diagnosed):
        return {
            "screened": [r.to_dict() for r in screened],
            "diagnosed": [d.to_dict() if d else None for d in diagnosed],
        }

    def settle(self) -> None:
        for screened, diagnosed in self.latest:
            payload = self._payload(screened, diagnosed)
            if self.agree(payload, "a repeated campaign's result"):
                self.first = (screened, diagnosed)
        self.latest.clear()

    def check(self) -> None:
        # Spot-check the batch dispatch against single scalar runs.
        screened = self.first[0]
        picks = {0, *self.rng.sample(range(len(self.screen)), 3)}
        for index in sorted(picks):
            self.attempted += 1
            if self.screen[index].run() != screened[index]:
                self.fail(f"batched scenario {index} differs from its "
                          f"single run")

    def outputs(self):
        return self._payload(*self.first)

    @property
    def localized_frac(self) -> float:
        diagnosed = self.first[1]
        hits = sum(
            1 for (_, scenario), result in zip(self.diagnoses, diagnosed)
            if result is not None and result.localized_core == scenario.core
        )
        return hits / len(diagnosed)

    @property
    def test_cycles(self) -> int:
        screened, diagnosed = self.first
        return (sum(r.test_cycles + r.config_cycles for r in screened)
                + sum(d.diagnosis_cycles for d in diagnosed if d))

    def extra_report(self) -> list[str]:
        return [f"localized_frac {self.localized_frac:.4f} "
                f"(share of diagnosed scenarios localised to the injected "
                f"core, n={len(self.diagnoses)})"]


# -- model-campaign -------------------------------------------------------


class ModelCampaign(Workload):
    name = "model-campaign"
    why = ("store-backed design-space sweep of the abstract ITC'02 tables: "
           "scheduling, verification, hashing, JSONL store append/lookup")
    throughput_unit = "experiments written"
    op_unit = "experiment written"

    GRIDS = {
        "full": (("d695", "g1023", "p22810", "h953", "t512505", "p93791"),
                 None, (8, 12, 16, 24, 32, 48, 64),
                 ("greedy", "balanced-lpt", "preemptive", "reconfig")),
        "smoke": (("d695", "h953"), ("casbus", "daisy-chain"), (8, 16),
                  ("greedy", "reconfig")),
    }

    def setup(self) -> None:
        from repro.api import runner
        from repro.api.registry import list_architectures
        from repro.campaign import store

        self.runner = runner
        self.open_store = store.open_store
        tables, architectures, widths, schedulers = self.GRIDS[self.scale]
        self.axes = (architectures or list_architectures(), widths,
                     schedulers)
        self.tables = tables
        self.order = list(range(len(self._sweep())))
        self.rng.shuffle(self.order)
        grid = self._grid()
        self.report_workload = f"itc02-{self.rng.choice(tables)}"
        self.report_rows = sum(
            1 for item in grid if item.workload.name == self.report_workload
        )
        self.experiments = len(grid)
        self.rounds = 0
        self.first: list | None = None
        self.latest = None
        # Warm pass without a store: cold CAS-area generation and the
        # scheduling caches land here, in set-up.
        runner.run_many(grid, parallel=False)
        self.grids = (self._grid(), self._grid())

    def _sweep(self) -> list:
        architectures, widths, schedulers = self.axes
        grid = []
        for table in self.tables:
            grid += self.runner.sweep_experiments(
                f"itc02-{table}", architectures=architectures,
                bus_widths=widths, schedulers=schedulers,
            )
        return grid

    def _grid(self) -> list:
        """The sweep as fresh experiments, in the seeded order.  Every
        pass gets new objects, as a re-run command would: experiments
        memoise their config hash, so reused ones would skip hashing."""
        grid = self._sweep()
        return [grid[index] for index in self.order]

    def round(self, tracer=None) -> Round:
        result = Round()
        # JSONL, not SQLite: one fsync per append.  SQLite's journal
        # adds file-system barriers whose stalls can cost seconds per
        # round and would drown every other layer of the sweep.
        store = self.open_store(self.workdir / f"sweep-{self.rounds}.jsonl")
        self.rounds += 1
        stamps = []

        def stamp(*_args, **_kwargs):
            stamps.append(clock())

        write, resume = self.grids
        self.attempted += len(write) + len(resume) + 1
        start = clock()
        try:
            written = self.runner.run_many(
                write, parallel=False, store=store, on_result=stamp
            )
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"write pass raised {error!r}")
            written = None
        write_s = clock() - start
        try:
            resumed = self.runner.run_many(resume, parallel=False,
                                           store=store)
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"resume pass raised {error!r}")
            resumed = None
        resume_s = clock() - start - write_s
        report_start = clock()
        rows = sum(1 for _ in store.iter_latest(workload=self.report_workload))
        report_s = clock() - report_start
        result.wall_s = write_s + report_s
        result.repeat_s = resume_s + report_s
        result.throughput.append(len(write) / write_s)
        previous = start
        for index, moment in enumerate(stamps):
            result.ops.append((index, (moment - previous) * 1e3))
            previous = moment
        self.latest = (written, resumed, rows, store)
        return result

    def settle(self) -> None:
        from repro.verify import verify_record

        written, resumed, rows, store = self.latest
        self.latest = None
        self.attempted += 3
        if written is not None:
            payload = [r.to_dict() for r in written]
            if self.agree(payload, "a write pass's result"):
                self.first = written
        if resumed != written:
            self.fail("the resume pass disagrees with the write pass")
        if rows != self.report_rows:
            self.fail(f"report found {rows} rows, expected "
                      f"{self.report_rows}")
        records = store.records()
        self.attempted += 1 + len(records)
        if len(records) != self.experiments:
            self.fail(f"store holds {len(records)} records for "
                      f"{self.experiments} experiments")
        for record in records:
            report = verify_record(record)
            if report.errors:
                self.fail(f"stored record failed verification: "
                          f"{report.summary()}")
        store.path.unlink()
        self.grids = (self._grid(), self._grid())

    def outputs(self):
        from repro.campaign.hashing import config_hash

        hashes = [config_hash(item) for item in self._grid()]
        return sorted([h, r.to_dict()] for h, r in zip(hashes, self.first))

    @property
    def test_cycles(self) -> int:
        return sum(r.test_cycles + r.config_cycles for r in self.first)


# -- optimize -------------------------------------------------------------


class Optimize(Workload):
    name = "optimize"
    why = ("`repro optimize itc02-p93791 -w 32`: TAM width/session "
           "co-optimisation, the schedule search and CostModel memo")
    throughput_unit = "session evaluations"
    op_unit = "co_optimize call"
    setup_samples = 5

    SIZES = {
        # scale: (workload, bus width)
        "full": ("itc02-p93791", 32),
        "smoke": ("itc02-d695", 16),
    }

    def setup(self) -> None:
        from repro.api.workloads import get_workload
        from repro.schedule import optimize

        self.optimize = optimize
        name, self.width = self.SIZES[self.scale]
        self.workload = get_workload(name)
        self.first = None
        self.latest: list = []
        self.rounds = 0
        # Warm the lazily imported search code on a tiny width.
        optimize.co_optimize(self.workload.cores, 4, widths=[4],
                             cas_policy=None, seed=self.seed)

    def _call(self, seed: int) -> float:
        # The arguments `repro optimize --seed SEED` passes by default.
        method = ("bnb" if len(self.workload.cores)
                  <= self.optimize.BNB_MAX_CORES else "anneal")
        self.attempted += 1
        start = clock()
        try:
            outcome = self.optimize.co_optimize(
                self.workload.cores, self.width, method=method, widths=None,
                cas_policy=None, seed=seed, restarts=1, portfolio=None,
                jobs=1, budget=None, progress=None,
            )
        except Exception as error:  # noqa: BLE001 - counted, reported
            self.fail(f"co_optimize raised {error!r}")
            outcome = None
        elapsed = clock() - start
        self.latest.append(outcome)
        return elapsed

    def round(self, tracer=None) -> Round:
        # Each round searches from its own seed, so a run's latencies
        # span search trajectories; the repeat reuses the seed.
        seed = self.seed * 1000 + self.rounds
        self.rounds += 1
        result = Round()
        result.wall_s = self._call(seed)
        result.repeat_s = self._call(seed)
        for seconds, outcome in zip((result.wall_s, result.repeat_s),
                                    self.latest[-2:]):
            result.ops.append((seed, seconds * 1e3))
            if outcome is not None:
                result.throughput.append(outcome.evaluations / seconds)
        return result

    @staticmethod
    def _payload(outcome):
        return {
            "method": outcome.method,
            "total_cycles": outcome.total_cycles,
            "evaluations": outcome.evaluations,
            "pareto": [point.to_dict() for point in outcome.pareto],
        }

    def settle(self) -> None:
        from repro.api.schedulers import ScheduleOutcome
        from repro.verify import verify_outcome

        first, again = self.latest
        self.latest.clear()
        if first is None or again is None:
            return  # already counted as a failed call
        self.attempted += 1
        if digest(self._payload(again)) != digest(self._payload(first)):
            self.fail("a repeated co_optimize gave another result")
        if self.first is None:
            self.first = first
        for outcome in (first, again):
            self.attempted += 1
            wrapped = ScheduleOutcome(
                strategy=f"optimize-{outcome.method}",
                bus_width=self.width,
                test_cycles=outcome.test_cycles,
                config_cycles=outcome.config_cycles,
                detail=outcome,
            )
            report = verify_outcome(wrapped, outcome.problem)
            if report.errors:
                self.fail(f"optimised schedule failed verification: "
                          f"{report.summary()}")

    def outputs(self):
        return self._payload(self.first)

    @property
    def test_cycles(self) -> int:
        return self.first.total_cycles


WORKLOADS = {
    workload.name: workload
    for workload in (CliCold, FaultCampaign, ModelCampaign, Optimize)
}
