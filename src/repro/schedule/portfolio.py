"""Parallel multi-start optimizer portfolio over a shared cost cache.

:func:`~repro.schedule.optimize.optimize_anneal` is a single-start
local search: good on ITC'02-scale tables, but one trajectory through
an exponential partition space.  This module runs a *portfolio* of
seeded search units -- anneal restarts on a ladder of temperature
schedules, a genetic/crossover search over session partitions, and a
large-neighbourhood destroy-and-repair strategy -- and fans them over
a process pool, all sharing one memoised evaluation cache:

* the driver keeps a per-width ``group -> optimal-session-makespan``
  cache in a :class:`repro.sim.cache.BoundedCache`;
* at each round it ships a warm snapshot to every worker (so no worker
  re-evaluates what any earlier unit already priced);
* workers accumulate only their *new* entries
  (:attr:`~repro.schedule.optimize._PartitionSearch.delta`) and the
  driver merges the deltas back between rounds, in sorted unit order.

Determinism is the design invariant, not an afterthought: every unit
draws its generator from fixed :class:`~repro.schedule.seeds.SeedStream`
coordinates ``(strategy, width, variant, round)``, units are merged at
a round barrier in a fixed order, and ``jobs=1`` runs the *identical*
:func:`_run_unit` code path -- so the
:class:`~repro.schedule.optimize.OptimizeOutcome` is a pure function
of ``(problem, spec, seed, budget)``, byte-identical for any ``jobs``.
The cache only ever changes how fast an answer arrives, never which
answer arrives (group makespans are pure functions of the group).

Small problems stay *certified*: when the core count is within
:attr:`PortfolioSpec.exact_limit`, the spec automatically adds one
exact branch-and-bound unit per width, so the portfolio provably
matches :func:`~repro.schedule.optimize.optimize_bnb` there.  Every
stochastic unit starts from (or continues) a never-worse-than-greedy
partition, so the portfolio inherits the greedy floor everywhere.
"""

from __future__ import annotations

import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import ScheduleError
from repro.obs.metrics import gauge as obs_gauge
from repro.obs.metrics import histogram as obs_histogram
from repro.obs.spans import span as obs_span
from repro.sim.cache import BoundedCache
from repro.soc.core import CoreTestParams
from repro.schedule.model import CostModel, Schedule, TamProblem
from repro.schedule.optimize import (
    OptimizeOutcome,
    ParetoPoint,
    _PartitionSearch,
    _anneal_from,
    _bnb_session_search,
    _greedy_groups,
    candidate_widths,
    default_anneal_budget,
    pareto_front,
)
from repro.schedule.seeds import SeedStream, as_seed_stream

#: Strategy names a :class:`PortfolioSpec` accepts.
STRATEGY_NAMES = ("anneal", "genetic", "lns")

#: Temperature scales cycled over anneal variants: unit 0 polishes at
#: the stock schedule, later variants roam hotter or quench colder.
_TEMPERATURE_LADDER = (1.0, 0.3, 2.5, 5.0, 0.6, 1.5)

#: Reserved strategy key of the auto-added exact unit (not user-
#: selectable; present only when the problem is within exact reach).
_EXACT = "bnb"


@dataclass(frozen=True)
class PortfolioSpec:
    """Shape of one portfolio run (what searches, how many, how long).

    Attributes:
        strategies: stochastic strategy mix, drawn from
            :data:`STRATEGY_NAMES`.
        starts: independent variants per strategy per width (variant
            ``v`` seeds at coordinate ``v`` and, for anneal, picks its
            temperature scale from the ladder).
        rounds: synchronisation rounds; each round restarts every unit
            from the portfolio-wide best partition found so far, with
            the merged evaluation cache shipped warm.
        exact_limit: largest core count at which one exact
            branch-and-bound unit per width is added automatically,
            certifying optimality.
        iterations: per-unit move budget override (``None`` scales
            with the core count via
            :func:`~repro.schedule.optimize.default_anneal_budget`).
        cache_entries: capacity of each per-width shared evaluation
            cache (an LRU bound, purely a memory cap -- eviction can
            never change results, only recomputation cost).
    """

    strategies: tuple = STRATEGY_NAMES
    starts: int = 2
    rounds: int = 2
    exact_limit: int = 10
    iterations: "int | None" = None
    cache_entries: int = 65536

    def __post_init__(self) -> None:
        object.__setattr__(self, "strategies", tuple(self.strategies))
        unknown = [
            name for name in self.strategies if name not in STRATEGY_NAMES
        ]
        if unknown or not self.strategies:
            raise ScheduleError(
                f"unknown portfolio strategies {unknown!r}; "
                f"known: {', '.join(STRATEGY_NAMES)}"
            )
        if self.starts < 1:
            raise ScheduleError(f"starts must be >= 1, got {self.starts}")
        if self.rounds < 1:
            raise ScheduleError(f"rounds must be >= 1, got {self.rounds}")
        if self.iterations is not None and self.iterations < 1:
            raise ScheduleError(
                f"iterations must be >= 1, got {self.iterations}"
            )

    @classmethod
    def of(cls, value: object) -> "PortfolioSpec":
        """Normalise a spec-ish value: a spec passes through, a string
        or sequence of strategy names selects that mix."""
        if isinstance(value, PortfolioSpec):
            return value
        if isinstance(value, str):
            names = tuple(
                part.strip() for part in value.split(",") if part.strip()
            )
            return cls(strategies=names)
        if isinstance(value, (list, tuple)):
            return cls(strategies=tuple(value))
        raise ScheduleError(
            f"cannot build a PortfolioSpec from {value!r}; pass a "
            f"PortfolioSpec, a strategy name string, or a sequence"
        )

    def units(self, num_cores: int) -> "list[tuple[str, int]]":
        """The per-width unit grid as ``(strategy, variant)`` pairs.

        The exact unit, when the problem is within reach, leads the
        list so its certificate is merged first every round.
        """
        if num_cores < 1:
            return []  # nothing to search
        grid: "list[tuple[str, int]]" = []
        if num_cores <= self.exact_limit:
            grid.append((_EXACT, 0))
        for strategy in self.strategies:
            for variant in range(self.starts):
                grid.append((strategy, variant))
        return grid


# -- partition utilities shared by the stochastic strategies ------------------


def _canon(groups: Sequence[Sequence[int]]) -> "tuple[tuple[int, ...], ...]":
    """Canonical (order-free, hashable, picklable) partition form."""
    return tuple(sorted(tuple(sorted(group)) for group in groups))


def _schedule_groups(
    search: _PartitionSearch, schedule: Schedule
) -> "tuple[tuple[int, ...], ...]":
    """A schedule's session partition as canonical core-index groups."""
    index_of = {id(core): i for i, core in enumerate(search.cores)}
    return _canon([
        [index_of[id(entry.params)] for entry in session.entries]
        for session in schedule.sessions
    ])


def _repair(
    search: _PartitionSearch,
    groups: "list[list[int]]",
    leftovers: Sequence[int],
) -> "list[list[int]]":
    """Greedy best-insertion repair: place each leftover core where it
    raises the partition total least (or open a new session)."""
    model = search.model
    charge = search.charge_config

    def config(size: int) -> int:
        return model.session_config_cycles(size) if charge else 0

    for core in leftovers:
        best_delta = search.group_cycles((core,)) + config(1)
        best_index = -1
        for index, group in enumerate(groups):
            if len(group) >= search.width:
                continue
            key = tuple(sorted(group))
            before = search.group_cycles(key) + config(len(group))
            grown = tuple(sorted(group + [core]))
            after = search.group_cycles(grown) + config(len(grown))
            if after - before < best_delta:
                best_delta = after - before
                best_index = index
        if best_index < 0:
            groups.append([core])
        else:
            groups[best_index].append(core)
    return groups


def _mutate(
    search: _PartitionSearch,
    rng: random.Random,
    groups: "list[list[int]]",
) -> "list[list[int]]":
    """One random partition move: relocate a core (or isolate it)."""
    if not groups or (len(groups) == 1 and len(groups[0]) == 1):
        return groups
    source = rng.randrange(len(groups))
    item = rng.randrange(len(groups[source]))
    core = groups[source].pop(item)
    if not groups[source]:
        del groups[source]
    targets = [
        index for index, group in enumerate(groups)
        if len(group) < search.width
    ]
    if targets and rng.random() < 0.75:
        groups[rng.choice(targets)].append(core)
    else:
        groups.append([core])
    return groups


# -- the stochastic strategies ------------------------------------------------


def _strategy_anneal(
    search: _PartitionSearch,
    rng: random.Random,
    budget: int,
    start_groups: "list[list[int]]",
    variant: int,
) -> "tuple[int, tuple[tuple[int, ...], ...]]":
    """Anneal restart at this variant's rung of the temperature ladder."""
    scale = _TEMPERATURE_LADDER[variant % len(_TEMPERATURE_LADDER)]
    total, groups = _anneal_from(
        search, rng, budget, start_groups, temperature_scale=scale
    )
    return total, _canon(groups)


def _strategy_genetic(
    search: _PartitionSearch,
    rng: random.Random,
    budget: int,
    start_groups: "list[list[int]]",
    variant: int,
) -> "tuple[int, tuple[tuple[int, ...], ...]]":
    """Steady-state genetic search over session partitions.

    Individuals are canonical partitions; crossover keeps intact,
    non-overlapping sessions from both parents and greedily repairs
    the rest, so children inherit whole co-scheduling decisions rather
    than scrambled assignments.
    """
    base = _canon(start_groups)
    population: "list[tuple[int, tuple[tuple[int, ...], ...]]]" = [
        (search.partition_total(base), base)
    ]
    pop_size = 6
    for _ in range(pop_size - 1):
        mutant = _canon(_mutate(
            search, rng, [list(group) for group in base]
        ))
        population.append((search.partition_total(mutant), mutant))
    best = min(population)
    sessions = max(1, len(base))
    children = max(8, budget // sessions)
    for _ in range(children):
        if len(population) >= 2:
            first, second = rng.sample(range(len(population)), 2)
        else:
            first = second = 0
        pool = (
            [list(group) for group in population[first][1]]
            + [list(group) for group in population[second][1]]
        )
        rng.shuffle(pool)
        taken: "set[int]" = set()
        child: "list[list[int]]" = []
        for group in pool:
            if len(group) <= search.width and taken.isdisjoint(group):
                child.append(list(group))
                taken.update(group)
        leftovers = [
            index for index in range(len(search.cores))
            if index not in taken
        ]
        rng.shuffle(leftovers)
        child = _repair(search, child, leftovers)
        if rng.random() < 0.5:
            child = _mutate(search, rng, child)
        entry = (search.partition_total(_canon(child)), _canon(child))
        worst = max(range(len(population)),
                    key=lambda i: population[i][0])
        if entry[0] < population[worst][0]:
            population[worst] = entry
        if entry < best:
            best = entry
    return best


def _strategy_lns(
    search: _PartitionSearch,
    rng: random.Random,
    budget: int,
    start_groups: "list[list[int]]",
    variant: int,
) -> "tuple[int, tuple[tuple[int, ...], ...]]":
    """Large-neighbourhood search: destroy a random core subset, repair
    by greedy best-insertion (tallest victims first), accept sideways
    moves, occasionally accept uphill to escape basins."""
    num_cores = len(search.cores)
    current = [list(group) for group in start_groups]
    current_total = search.partition_total(_canon(current))
    best = (current_total, _canon(current))
    destroy = max(2, min(8, num_cores // 4 + variant))
    destroy = min(destroy, num_cores)
    rounds = max(4, budget // max(1, 3 * destroy))
    for _ in range(rounds):
        victims = rng.sample(range(num_cores), destroy)
        victim_set = set(victims)
        stripped = []
        for group in current:
            kept = [core for core in group if core not in victim_set]
            if kept:
                stripped.append(kept)
        victims.sort(key=lambda index: -search.model.min_area(index))
        candidate = _repair(search, stripped, victims)
        total = search.partition_total(_canon(candidate))
        if total <= current_total or rng.random() < 0.1:
            current = candidate
            current_total = total
            entry = (total, _canon(candidate))
            if entry < best:
                best = entry
    return best


_STRATEGIES: "dict[str, Callable]" = {
    "anneal": _strategy_anneal,
    "genetic": _strategy_genetic,
    "lns": _strategy_lns,
}


# -- the worker ---------------------------------------------------------------


def _run_unit(payload: dict) -> dict:
    """Run one search unit (module-level so process pools can pickle).

    The payload is self-contained -- cores, width, warm cache
    snapshot, seed token, start partition, budget -- so the unit
    computes the same answer in-process (``jobs=1``) or in a forked
    worker, first or last, on any machine.
    """
    problem = TamProblem.of(
        payload["cores"], payload["width"], payload["cas_policy"]
    )
    model = CostModel(problem)
    search = _PartitionSearch(
        model, payload["charge_config"], warm=payload["warm"]
    )
    start = payload["start"]
    start_groups = (
        _greedy_groups(search) if start is None
        else [list(group) for group in start]
    )
    strategy = payload["strategy"]
    if strategy == _EXACT:
        groups = _schedule_groups(search, _bnb_session_search(search))
        result = (search.partition_total(groups), groups)
    else:
        rng = SeedStream(payload["seed_token"]).rng(payload["round"])
        result = _STRATEGIES[strategy](
            search, rng, payload["budget"], start_groups,
            payload["variant"],
        )
        baseline = (search.partition_total(_canon(start_groups)),
                    _canon(start_groups))
        if baseline < result:  # floor: never worse than the start
            result = baseline
    return {
        "total": result[0],
        "groups": result[1],
        "delta": search.delta,
        "hits": search.hits,
        "misses": search.evaluations,
        "model_stats": model.stats(),
    }


# -- the driver ---------------------------------------------------------------


def optimize_portfolio(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    widths: "Sequence[int] | None" = None,
    charge_config: bool = True,
    cas_policy: "str | None" = "all",
    seed: int = 0,
    seeds: "SeedStream | None" = None,
    spec: "PortfolioSpec | None" = None,
    jobs: int = 1,
    budget: "int | None" = None,
    progress: "Callable | None" = None,
) -> OptimizeOutcome:
    """Multi-start portfolio co-optimisation (the parallel engine).

    Runs :meth:`PortfolioSpec.units` seeded search units per candidate
    width for :attr:`PortfolioSpec.rounds` rounds, fanning each
    round's units over ``jobs`` worker processes and merging their
    evaluation-cache deltas at the round barrier.  ``budget`` caps the
    *total* per-width move budget (split evenly across stochastic
    units and rounds); ``progress`` receives one JSON-ready dict per
    completed unit, in deterministic order.

    The outcome is a pure function of
    ``(cores, widths, spec, seed, budget)`` -- ``jobs`` only changes
    wall-clock time, never the result (see the module docstring for
    why), which is what lets CI diff ``--jobs 1`` against
    ``--jobs 4`` byte for byte.
    """
    if jobs < 1:
        raise ScheduleError(f"jobs must be >= 1, got {jobs}")
    if budget is not None and budget < 1:
        raise ScheduleError(f"budget must be >= 1, got {budget}")
    spec = spec if spec is not None else PortfolioSpec()
    problem = TamProblem.of(cores, bus_width, cas_policy)
    cores = problem.cores
    sweep = set(widths) if widths else set(candidate_widths(bus_width))
    sweep.add(bus_width)
    for width in sweep:
        if width < 1:
            raise ScheduleError(f"bus width must be >= 1, got {width}")
    sweep = sorted(sweep)
    stream = (seeds if seeds is not None
              else as_seed_stream(seed)).child("portfolio")
    grid = spec.units(len(cores))
    stochastic = sum(1 for strategy, _ in grid if strategy != _EXACT)
    per_unit = (spec.iterations if spec.iterations is not None
                else default_anneal_budget(len(cores)))
    if budget is not None:
        per_unit = max(1, budget // max(1, stochastic * spec.rounds))
    caches: "dict[int, BoundedCache]" = {
        width: BoundedCache(spec.cache_entries, name=f"portfolio_w{width}")
        for width in sweep
    }
    best: "dict[int, tuple[int, tuple[tuple[int, ...], ...]]]" = {}
    shipped = merged = hits = misses = 0
    model_stats = {"hits": 0, "misses": 0, "entries": 0}
    rounds = spec.rounds if cores else 0
    for round_index in range(rounds):
        payloads = []
        for width in sweep:
            warm = dict(caches[width].items())
            start = best[width][1] if width in best else None
            for strategy, variant in grid:
                if strategy == _EXACT and round_index > 0:
                    continue  # the certificate does not improve
                payloads.append({
                    "cores": cores,
                    "width": width,
                    "cas_policy": cas_policy,
                    "charge_config": charge_config,
                    "warm": warm,
                    "start": start,
                    "strategy": strategy,
                    "variant": variant,
                    "round": round_index,
                    "budget": per_unit,
                    "seed_token": stream.token(strategy, width, variant),
                })
        shipped += sum(len(payload["warm"]) for payload in payloads)
        with obs_span(
            "portfolio.round",
            round=round_index,
            units=len(payloads),
            workers=min(jobs, max(len(payloads), 1)),
        ) as round_span:
            if jobs == 1 or len(payloads) == 1:
                results = [_run_unit(payload) for payload in payloads]
            else:
                workers = min(jobs, len(payloads))
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_run_unit, payloads))
            # Round barrier: merge every unit's news in payload order
            # (fixed, jobs-independent), then update the incumbents.
            with obs_span("portfolio.merge") as merge_span:
                round_merged = 0
                for payload, result in zip(payloads, results):
                    width = payload["width"]
                    cache = caches[width]
                    for key in sorted(result["delta"]):
                        if key not in cache:
                            merged += 1
                            round_merged += 1
                        cache.put(key, result["delta"][key])
                    hits += result["hits"]
                    misses += result["misses"]
                    for name, value in result["model_stats"].items():
                        model_stats[name] = model_stats.get(name, 0) + value
                    obs_histogram("portfolio.unit_evaluations").observe(
                        result["misses"]
                    )
                    candidate = (result["total"], result["groups"])
                    if width not in best or candidate < best[width]:
                        best[width] = candidate
                    if progress is not None:
                        progress({
                            "round": round_index,
                            "width": width,
                            "strategy": payload["strategy"],
                            "variant": payload["variant"],
                            "total": result["total"],
                            "best": best[width][0],
                            "evaluations": result["misses"],
                        })
                merge_span.set(entries=round_merged)
            round_span.set(shipped=shipped, merged=merged)
            for width in sweep:
                if width in best:
                    obs_gauge(f"portfolio.best_w{width}").set(
                        best[width][0]
                    )
    points: "list[ParetoPoint]" = []
    schedules: "dict[int, Schedule]" = {}
    floor = 0
    for width in sweep:
        model = CostModel(problem.with_width(width))
        if cores:
            search = _PartitionSearch(
                model, charge_config, warm=dict(caches[width].items())
            )
            schedule = search.build_schedule(best[width][1])
            if width == bus_width:
                floor = search.floor_total()
        else:
            schedule = Schedule(bus_width=width)
        schedules[width] = schedule
        points.append(ParetoPoint(
            bus_width=width,
            config_bits=model.config_bits,
            test_cycles=schedule.test_cycles,
            config_cycles=schedule.config_cycles_total,
            sessions=len(schedule.sessions),
        ))
    certified = (
        list(sweep) if cores and len(cores) <= spec.exact_limit else []
    )
    return OptimizeOutcome(
        method="optimize-portfolio",
        problem=problem,
        schedule=schedules[bus_width],
        pareto=pareto_front(points),
        evaluations=misses,
        schedules=schedules,
        cache_stats={
            "cost_model": model_stats,
            "evaluations": {"hits": hits, "misses": misses},
            "shared_cache": {"shipped": shipped, "merged": merged},
            "certified_widths": certified,
        },
        lower_bound=floor,
    )
