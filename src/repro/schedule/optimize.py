"""Width/session co-optimisation over the CAS-BUS cost model.

The paper's central design argument is that a configurable CAS-BUS
lets the integrator *trade* test time against bus width and DfT area.
This module turns the repro from a calculator into a design-space
explorer: given a workload, it searches for good session partitions at
each candidate bus width and reports the Pareto front of
``(bus width, config bits, total cycles)`` points, so the integrator
reads off exactly what one more wire (and its instruction-register
bits) buys.

Two search engines share the :class:`~repro.schedule.model.CostModel`:

* :func:`optimize_bnb` -- exact branch and bound over session
  partitions, seeded by :func:`~repro.schedule.scheduler.lower_bound`
  and the greedy incumbent.  Provably matches
  :func:`~repro.schedule.scheduler.schedule_exhaustive` total cycles;
  for small SoCs (the partition space is Bell(n)).
* :func:`optimize_anneal` -- simulated annealing over partitions for
  ITC'02-scale workloads, starting from the greedy schedule (so it
  never returns anything worse) and exploring move/swap/merge
  neighbourhoods with exact intra-session wire splits.

Both return an :class:`OptimizeOutcome`: the best
:class:`~repro.schedule.model.Schedule` at the requested width plus
the Pareto front across all candidate widths.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ScheduleError
from repro.soc.core import CoreTestParams
from repro.schedule.model import CostModel, Schedule, TamProblem
from repro.schedule.scheduler import schedule_greedy
from repro.schedule.seeds import SeedStream, as_seed_stream

#: Largest core count the exact branch-and-bound search accepts.  The
#: min-area packing bound plus the config-marginal bound (see
#: :func:`_bnb_session_search`) keep the search tractable well past
#: the old 10-core limit; g1023-class 14-core tables certify in
#: seconds.
BNB_MAX_CORES = 14


@dataclass(frozen=True)
class ParetoPoint:
    """One non-dominated design point of the co-optimisation.

    Attributes:
        bus_width: pin budget N of this design.
        config_bits: CAS instruction-register bits the design carries
            (the DfT configuration footprint).
        test_cycles: test application time of the best schedule found.
        config_cycles: configuration overhead of that schedule.
        sessions: session count of that schedule.
    """

    bus_width: int
    config_bits: int
    test_cycles: int
    config_cycles: int
    sessions: int

    @property
    def total_cycles(self) -> int:
        return self.test_cycles + self.config_cycles

    def to_dict(self) -> dict:
        """JSON-ready mapping (CLI output, campaign notes)."""
        return {
            "bus_width": self.bus_width,
            "config_bits": self.config_bits,
            "test_cycles": self.test_cycles,
            "config_cycles": self.config_cycles,
            "total_cycles": self.total_cycles,
            "sessions": self.sessions,
        }

    @classmethod
    def from_dict(cls, data) -> "ParetoPoint":
        """Rebuild a point serialized by :meth:`to_dict`.

        The derived ``total_cycles`` key is ignored (it re-derives
        from the stored test and config cycles).
        """
        return cls(
            bus_width=data["bus_width"],
            config_bits=data["config_bits"],
            test_cycles=data["test_cycles"],
            config_cycles=data["config_cycles"],
            sessions=data["sessions"],
        )


@dataclass
class OptimizeOutcome:
    """Result of one width/session co-optimisation run."""

    method: str
    problem: TamProblem
    schedule: Schedule
    pareto: tuple[ParetoPoint, ...]
    evaluations: int = 0
    #: Best schedule found at every candidate width (width -> Schedule).
    schedules: dict = field(default_factory=dict)
    #: Cache-effectiveness counters: ``cost_model`` aggregates
    #: :meth:`repro.schedule.model.CostModel.stats` over the width
    #: sweep (cost-table rows built, row reads served, resident
    #: cells); ``evaluations`` counts session-evaluation cache hits and
    #: misses (portfolio runs add the shared-cache ``shipped``/
    #: ``merged`` entry counts).  Purely observational -- identical for
    #: identical searches, whatever the worker count.
    cache_stats: dict = field(default_factory=dict)
    #: Certified floor at the requested width: no schedule of this
    #: problem totals fewer cycles (see
    #: :meth:`_PartitionSearch.floor_total`).
    lower_bound: int = 0

    @property
    def gap(self) -> float:
        """How far the best total sits above the certified floor
        (``total / lower_bound - 1``; 0.0 proves optimality)."""
        if not self.lower_bound:
            return 0.0
        return self.total_cycles / self.lower_bound - 1

    @property
    def test_cycles(self) -> int:
        return self.schedule.test_cycles

    @property
    def config_cycles(self) -> int:
        return self.schedule.config_cycles_total

    @property
    def total_cycles(self) -> int:
        return self.schedule.total_cycles

    def describe(self) -> str:
        lines = [
            f"{self.method} on N={self.problem.bus_width}: "
            f"{self.total_cycles} total cycles "
            f"({self.evaluations} session evaluations), "
            f"{len(self.pareto)}-point Pareto front",
            f"  lower bound {self.lower_bound} cycles, "
            f"gap {100 * self.gap:.2f}%",
        ]
        for point in self.pareto:
            marker = " *" if point.bus_width == self.problem.bus_width \
                else ""
            lines.append(
                f"  N={point.bus_width:>3}  config_bits="
                f"{point.config_bits:>4}  total={point.total_cycles:>8}"
                f"  ({point.sessions} sessions){marker}"
            )
        lines.append(self.schedule.describe())
        return "\n".join(lines)


def candidate_widths(bus_width: int) -> tuple[int, ...]:
    """Default width sweep: powers of two up to and including N."""
    if bus_width < 1:
        raise ScheduleError(f"bus width must be >= 1, got {bus_width}")
    widths = {bus_width}
    width = 1
    while width < bus_width:
        widths.add(width)
        width *= 2
    return tuple(sorted(widths))


def pareto_front(points: Sequence[ParetoPoint]) -> tuple[ParetoPoint, ...]:
    """The non-dominated subset, sorted by bus width.

    A point dominates another when it is no worse on every axis
    (bus width, config bits, total cycles) and strictly better on at
    least one.
    """

    def dominates(a: ParetoPoint, b: ParetoPoint) -> bool:
        no_worse = (a.bus_width <= b.bus_width
                    and a.config_bits <= b.config_bits
                    and a.total_cycles <= b.total_cycles)
        better = (a.bus_width < b.bus_width
                  or a.config_bits < b.config_bits
                  or a.total_cycles < b.total_cycles)
        return no_worse and better

    front = [
        point for point in points
        if not any(dominates(other, point) for other in points)
    ]
    # Duplicate-coordinate survivors collapse to one representative.
    seen: set[tuple[int, int, int]] = set()
    unique = []
    for point in sorted(front, key=lambda p: (p.bus_width, p.total_cycles)):
        key = (point.bus_width, point.config_bits, point.total_cycles)
        if key not in seen:
            seen.add(key)
            unique.append(point)
    return tuple(unique)


# -- shared search plumbing ---------------------------------------------------


class _PartitionSearch:
    """Session-partition search state shared by every engine.

    Holds the memoised group -> optimal-session cache; groups are
    tuples of sorted core indices.  ``warm`` pre-seeds the cache from
    a snapshot (the portfolio ships the driver's merged cache to its
    workers at fork); entries computed locally accumulate in
    ``delta`` so workers can send just their news back.
    """

    def __init__(self, model: CostModel, charge_config: bool,
                 warm: "dict | None" = None) -> None:
        self.model = model
        self.charge_config = charge_config
        self.cores = model.problem.cores
        self.width = model.problem.bus_width
        self.evaluations = 0
        self.hits = 0
        self._session_cycles: dict[tuple[int, ...], int] = (
            dict(warm) if warm else {}
        )
        self.delta: dict[tuple[int, ...], int] = {}
        self._floor: int | None = None

    def group_cycles(self, key: tuple[int, ...]) -> int:
        """Makespan of one group under its optimal wire split."""
        cached = self._session_cycles.get(key)
        if cached is None:
            cached = self.model.group_makespan(key)
            assert cached is not None  # callers keep |group| <= width
            self._session_cycles[key] = cached
            self.delta[key] = cached
            self.evaluations += 1
        else:
            self.hits += 1
        return cached

    def snapshot(self) -> "dict[tuple[int, ...], int]":
        """A picklable copy of the evaluation cache (warm start)."""
        return dict(self._session_cycles)

    def config_of(self, group_sizes) -> int:
        if not self.charge_config:
            return 0
        return sum(
            self.model.session_config_cycles(size) for size in group_sizes
        )

    def partition_total(self, groups: Sequence[tuple[int, ...]]) -> int:
        test = sum(self.group_cycles(group) for group in groups)
        return test + self.config_of(len(group) for group in groups)

    def build_schedule(
        self, groups: Sequence[tuple[int, ...]]
    ) -> Schedule:
        schedule = self.model.schedule_from_groups(
            ([self.cores[index] for index in group] for group in groups),
            charge_config=self.charge_config,
        )
        assert schedule is not None
        return schedule

    def floor_total(self) -> int:
        """Admissible all-in lower bound (early exit, reported gap).

        Computed once per search: every engine and restart at this
        width shares it.
        """
        if self._floor is None:
            floor = self.model.lower_bound()
            if self.charge_config and self.cores:
                # At least one session configures every tested core once.
                floor += self.model.session_config_cycles(len(self.cores))
            self._floor = floor
        return self._floor


# -- exact search -------------------------------------------------------------


#: Core count above which the exact search tightens its incumbent
#: with a short deterministic anneal before descending (pruning aid
#: only -- the optimum is unaffected).
_BNB_ANNEAL_INCUMBENT_ABOVE = 10


def _bnb_session_search(search: _PartitionSearch) -> Schedule:
    """Best-partition branch and bound at one width.

    Cores are assigned in descending single-wire-time order; each core
    either joins an existing group (canonical partition enumeration,
    no symmetric duplicates) or opens a new one.  A node is cut when
    no completion can beat the incumbent under two admissible bounds:

    * the **min-area packing bound**: the committed session makespans
      only grow, and whatever area of the remaining cores does not fit
      into the committed sessions' slack (``width x makespan`` minus
      the area already packed there) must be paid across the N wires;
      a remaining core taller than every committed session stretches
      the test time by at least the difference, whichever session it
      lands in;
    * the **config-marginal bound**: every unassigned core splices at
      least the cheapest stage-B increment into some session's
      configuration pass (opening a new session costs strictly more).

    The incumbent starts at greedy; above
    :data:`_BNB_ANNEAL_INCUMBENT_ABOVE` cores a short fixed-seed
    anneal tightens it first, which prunes most of the exponential
    tail on g1023-class tables.  Together these push exact reach from
    ~10 to ~14-16 cores.
    """
    model = search.model
    cores = search.cores
    width = search.width
    if not cores:
        return Schedule(bus_width=width)
    incumbent = schedule_greedy(
        cores, width,
        charge_config=search.charge_config,
        cas_policy=model.problem.cas_policy,
    )
    best_total = incumbent.total_cycles
    best_groups: list[tuple[int, ...]] | None = None
    if len(cores) > _BNB_ANNEAL_INCUMBENT_ABOVE:
        rng = SeedStream("bnb-incumbent").rng(width)
        annealed_total, annealed_groups = _anneal_from(
            search, rng, 400 + 80 * len(cores), _greedy_groups(search)
        )
        if annealed_total < best_total:
            best_total = annealed_total
            best_groups = list(annealed_groups)
    floor = search.floor_total()
    if best_total <= floor:
        if best_groups is None:
            return incumbent  # greedy already meets the lower bound
        return search.build_schedule(best_groups)
    order = sorted(
        range(len(cores)), key=lambda i: -model.row(i)[0]
    )
    count = len(order)
    # Suffix sums/maxima over the not-yet-assigned tail, by position.
    remaining_area = [0] * (count + 1)
    tallest_remaining = [0] * (count + 1)
    for position in range(count - 1, -1, -1):
        index = order[position]
        remaining_area[position] = (
            remaining_area[position + 1] + model.min_area(index)
        )
        tallest_remaining[position] = max(
            tallest_remaining[position + 1], model.row(index)[-1]
        )
    if search.charge_config:
        scc = model.session_config_cycles
        config_marginal = min(
            [scc(1)]
            + [scc(size + 1) - scc(size) for size in range(1, count)]
        )
        config_marginal = max(0, config_marginal)
    else:
        config_marginal = 0
    groups: list[list[int]] = []

    def descend(position: int, partial_test: int,
                assigned_area: int, tallest: int) -> None:
        nonlocal best_total, best_groups
        config_now = search.config_of(len(group) for group in groups)
        if position == count:
            total = partial_test + config_now
            if total < best_total:
                best_total = total
                best_groups = [tuple(sorted(group)) for group in groups]
            return
        # Admissible completion bound (see docstring).
        slack = width * partial_test - assigned_area
        overflow = remaining_area[position] - slack
        packed = partial_test + (
            -(-overflow // width) if overflow > 0 else 0
        )
        stretch = partial_test + max(
            0, tallest_remaining[position] - tallest
        )
        bound = max(packed, stretch) + config_now \
            + (count - position) * config_marginal
        if bound >= best_total:
            return
        core = order[position]
        area = model.min_area(core)
        for group in groups:
            if len(group) >= width:
                continue
            before = search.group_cycles(tuple(sorted(group)))
            group.append(core)
            after = search.group_cycles(tuple(sorted(group)))
            descend(
                position + 1,
                partial_test - before + after,
                assigned_area + area,
                max(tallest, after),
            )
            group.pop()
        groups.append([core])
        solo = search.group_cycles((core,))
        descend(
            position + 1,
            partial_test + solo,
            assigned_area + area,
            max(tallest, solo),
        )
        groups.pop()

    descend(0, 0, 0, 0)
    if best_groups is None:
        return incumbent  # greedy was already optimal
    return search.build_schedule(best_groups)


def optimize_bnb(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    widths: "Sequence[int] | None" = None,
    charge_config: bool = True,
    cas_policy: str | None = "all",
    max_cores: int = BNB_MAX_CORES,
) -> OptimizeOutcome:
    """Exact width/session co-optimisation (small SoCs).

    Runs the branch-and-bound session search at every candidate width
    and assembles the Pareto front.  Raises
    :class:`~repro.errors.ScheduleError` beyond ``max_cores`` -- use
    :func:`optimize_anneal` there.
    """
    if len(cores) > max_cores:
        raise ScheduleError(
            f"{len(cores)} cores exceed the branch-and-bound limit "
            f"{max_cores}; use optimize-anneal for large SoCs"
        )
    return _co_optimize(
        "optimize-bnb",
        cores,
        bus_width,
        widths=widths,
        charge_config=charge_config,
        cas_policy=cas_policy,
        engine=_bnb_session_search,
    )


# -- annealed search ----------------------------------------------------------


def _greedy_groups(search: _PartitionSearch) -> list[list[int]]:
    """The greedy schedule's session partition as core-index groups.

    The common start of every local search: beginning from greedy (and
    only ever keeping the best partition seen) makes every engine
    never-worse-than-greedy by construction.
    """
    cores = search.cores
    greedy = schedule_greedy(
        cores, search.width,
        charge_config=search.charge_config,
        cas_policy=search.model.problem.cas_policy,
    )
    index_of = {id(core): index for index, core in enumerate(cores)}
    return [
        [index_of[id(entry.params)] for entry in session.entries]
        for session in greedy.sessions
    ]


def _anneal_from(
    search: _PartitionSearch,
    rng: random.Random,
    iterations: int,
    start_groups: Sequence[Sequence[int]],
    *,
    temperature_scale: float = 1.0,
) -> "tuple[int, list[tuple[int, ...]]]":
    """Simulated annealing over session partitions at one width.

    Starts from ``start_groups`` (the greedy partition for plain
    restarts, a previous round's best for portfolio continuations) and
    explores move/swap neighbourhoods with Metropolis acceptance,
    returning ``(best_total, best_groups)`` -- never worse than the
    start.  ``temperature_scale`` diversifies portfolio restarts: hot
    schedules roam, cold ones polish.
    """
    model = search.model
    width = search.width
    groups: list[list[int]] = [list(group) for group in start_groups]
    current = search.partition_total(
        [tuple(sorted(group)) for group in groups]
    )
    best_total = current
    best_groups = [tuple(sorted(group)) for group in groups]
    floor = search.floor_total()
    if best_total <= floor or width == 1:
        # On one wire every session is a singleton: there is no other
        # partition to move to.
        return best_total, best_groups
    temperature = max(1.0, 0.05 * current * temperature_scale)
    cooling = (0.01 / temperature) ** (1.0 / max(1, iterations)) \
        if temperature > 0.01 else 1.0

    def group_total(group: list[int]) -> int:
        key = tuple(sorted(group))
        total = search.group_cycles(key)
        if search.charge_config:
            total += model.session_config_cycles(len(key))
        return total

    for _ in range(iterations):
        temperature *= cooling
        if len(groups) == 1 and len(groups[0]) == 1:
            break  # nothing left to move
        move_swap = rng.random() < 0.3 and len(groups) >= 2
        if move_swap:
            a, b = rng.sample(range(len(groups)), 2)
            ia = rng.randrange(len(groups[a]))
            ib = rng.randrange(len(groups[b]))
            before = group_total(groups[a]) + group_total(groups[b])
            groups[a][ia], groups[b][ib] = groups[b][ib], groups[a][ia]
            after = group_total(groups[a]) + group_total(groups[b])
            delta = after - before
            if delta > 0 and (temperature <= 0
                              or rng.random() >= math.exp(
                                  -delta / temperature)):
                groups[a][ia], groups[b][ib] = (
                    groups[b][ib], groups[a][ia]
                )  # revert
                continue
            current += delta
        else:
            source = rng.randrange(len(groups))
            item = rng.randrange(len(groups[source]))
            # Target: another group with a free wire, or a new session.
            open_targets = [
                index for index, group in enumerate(groups)
                if index != source and len(group) < width
            ]
            new_session = (not open_targets) or rng.random() < 0.25
            before = group_total(groups[source])
            core = groups[source].pop(item)
            emptied = not groups[source]
            if new_session:
                after = (0 if emptied else group_total(groups[source])) \
                    + group_total([core])
                delta = after - before
                accept = delta <= 0 or (
                    temperature > 0
                    and rng.random() < math.exp(-delta / temperature)
                )
                if not accept:
                    groups[source].insert(item, core)
                    continue
                if emptied:
                    del groups[source]
                groups.append([core])
                current += delta
            else:
                target = rng.choice(open_targets)
                before += group_total(groups[target])
                groups[target].append(core)
                after = (0 if emptied else group_total(groups[source])) \
                    + group_total(groups[target])
                delta = after - before
                accept = delta <= 0 or (
                    temperature > 0
                    and rng.random() < math.exp(-delta / temperature)
                )
                if not accept:
                    groups[target].pop()
                    groups[source].insert(item, core)
                    continue
                if emptied:
                    del groups[source]
                current += delta
        if current < best_total:
            best_total = current
            best_groups = [tuple(sorted(group)) for group in groups]
            if best_total <= floor:
                break
    return best_total, best_groups


def default_anneal_budget(num_cores: int) -> int:
    """The per-width move budget one anneal start gets by default."""
    return 600 + 200 * num_cores


def optimize_anneal(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    widths: "Sequence[int] | None" = None,
    charge_config: bool = True,
    cas_policy: str | None = "all",
    seed: int = 0,
    iterations: "int | None" = None,
    restarts: int = 1,
    seeds: "SeedStream | None" = None,
) -> OptimizeOutcome:
    """Annealed width/session co-optimisation (ITC'02 scale).

    Every random choice flows from an explicit
    :class:`~repro.schedule.seeds.SeedStream` (``seeds``, defaulting
    to ``SeedStream(seed)``): restart ``r`` at width ``w`` draws its
    generator at the fixed coordinates ``("anneal", w, r)``, so the
    result is a pure function of ``(seed, restarts)`` -- identical
    however the restarts are distributed over workers, which is what
    makes portfolio runs reproducible across ``--jobs`` values.
    ``restarts`` keeps the best of that many independent anneals per
    width; ``iterations=None`` scales each restart's move budget with
    the core count.
    """
    if restarts < 1:
        raise ScheduleError(f"restarts must be >= 1, got {restarts}")
    budget = iterations if iterations is not None \
        else default_anneal_budget(len(cores))
    stream = seeds if seeds is not None else as_seed_stream(seed)

    def engine(search: _PartitionSearch) -> Schedule:
        if not search.cores:
            return Schedule(bus_width=search.width)
        start = _greedy_groups(search)
        best: "tuple[int, list[tuple[int, ...]]] | None" = None
        for restart in range(restarts):
            rng = stream.rng("anneal", search.width, restart)
            result = _anneal_from(search, rng, budget, start)
            if best is None or result[0] < best[0]:
                best = result
        assert best is not None
        return search.build_schedule(best[1])

    return _co_optimize(
        "optimize-anneal",
        cores,
        bus_width,
        widths=widths,
        charge_config=charge_config,
        cas_policy=cas_policy,
        engine=engine,
    )


def co_optimize(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    method: str = "auto",
    widths: "Sequence[int] | None" = None,
    charge_config: bool = True,
    cas_policy: str | None = "all",
    seed: int = 0,
    iterations: "int | None" = None,
    restarts: int = 1,
    seeds: "SeedStream | None" = None,
    portfolio: object = None,
    jobs: int = 1,
    budget: "int | None" = None,
    progress: "Callable | None" = None,
) -> OptimizeOutcome:
    """Dispatch to the right engine: exact when feasible, annealed
    beyond :data:`BNB_MAX_CORES` (``method="auto"``), or the parallel
    multi-start portfolio (``method="portfolio"``, or any ``portfolio``
    spec / ``jobs > 1``).

    ``portfolio`` accepts a
    :class:`~repro.schedule.portfolio.PortfolioSpec`, a sequence of
    strategy names, or ``True`` for the default spec; ``jobs`` fans
    the portfolio's search units over that many worker processes
    (never changing the result), and ``budget`` caps its total
    per-width move budget.
    """
    if method == "auto":
        if portfolio is not None or jobs > 1:
            method = "portfolio"
        else:
            method = "bnb" if len(cores) <= BNB_MAX_CORES else "anneal"
    if method in ("bnb", "optimize-bnb"):
        return optimize_bnb(
            cores, bus_width, widths=widths,
            charge_config=charge_config, cas_policy=cas_policy,
        )
    if method in ("anneal", "optimize-anneal"):
        return optimize_anneal(
            cores, bus_width, widths=widths,
            charge_config=charge_config, cas_policy=cas_policy,
            seed=seed, iterations=iterations,
            restarts=restarts, seeds=seeds,
        )
    if method in ("portfolio", "optimize-portfolio"):
        from repro.schedule.portfolio import (
            PortfolioSpec,
            optimize_portfolio,
        )

        spec = portfolio
        if spec is None or spec is True:
            spec = PortfolioSpec()
        elif not isinstance(spec, PortfolioSpec):
            spec = PortfolioSpec.of(spec)
        return optimize_portfolio(
            cores, bus_width, widths=widths,
            charge_config=charge_config, cas_policy=cas_policy,
            seed=seed, seeds=seeds, spec=spec,
            jobs=jobs, budget=budget, progress=progress,
        )
    raise ScheduleError(
        f"unknown optimisation method {method!r}; "
        f"known: auto, bnb, anneal, portfolio"
    )


def _co_optimize(
    method: str,
    cores: Sequence[CoreTestParams],
    bus_width: int,
    *,
    widths: "Sequence[int] | None",
    charge_config: bool,
    cas_policy: str | None,
    engine: Callable[[_PartitionSearch], Schedule],
) -> OptimizeOutcome:
    """Run ``engine`` at every candidate width, assemble the front."""
    problem = TamProblem.of(cores, bus_width, cas_policy)
    sweep = set(widths) if widths else set(candidate_widths(bus_width))
    sweep.add(bus_width)
    for width in sweep:
        if width < 1:
            raise ScheduleError(f"bus width must be >= 1, got {width}")
    points: list[ParetoPoint] = []
    schedules: dict[int, Schedule] = {}
    evaluations = 0
    model_stats = {"hits": 0, "misses": 0, "entries": 0}
    search_stats = {"hits": 0, "misses": 0}
    floor = 0
    for width in sorted(sweep):
        model = CostModel(problem.with_width(width))
        search = _PartitionSearch(model, charge_config)
        schedule = engine(search)
        if width == bus_width:
            floor = search.floor_total()
        evaluations += search.evaluations
        search_stats["hits"] += search.hits
        search_stats["misses"] += search.evaluations
        for key, value in model.stats().items():
            model_stats[key] = model_stats.get(key, 0) + value
        schedules[width] = schedule
        points.append(ParetoPoint(
            bus_width=width,
            config_bits=model.config_bits,
            test_cycles=schedule.test_cycles,
            config_cycles=schedule.config_cycles_total,
            sessions=len(schedule.sessions),
        ))
    return OptimizeOutcome(
        method=method,
        problem=problem,
        schedule=schedules[bus_width],
        pareto=pareto_front(points),
        evaluations=evaluations,
        schedules=schedules,
        cache_stats={
            "cost_model": model_stats,
            "evaluations": search_stats,
        },
        lower_bound=floor,
    )
