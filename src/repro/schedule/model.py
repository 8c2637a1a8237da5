"""The scheduling problem IR and the one cost model.

Every scheduling policy in :mod:`repro.schedule` answers the same
question -- how long does it take to test these cores through an
N-wire CAS-BUS, reconfiguration included -- but historically each
algorithm kept its own copy of the cycle bookkeeping (wire
normalisation in the greedy packer, configuration-pass maths in the
preemptive scheduler, another copy in the reconfiguration study).
This module is the single source of truth they all migrated onto:

* :class:`TamProblem` -- the immutable problem statement: the cores,
  the pin budget N, and the CAS instruction-sizing policy;
* :class:`CostModel` -- test- and config-cycle accounting for one
  problem over a dense per-core width->cycles table, so optimisers can
  evaluate thousands of candidate schedules cheaply;
* the schedule IR (:class:`ScheduledEntry`, :class:`ScheduledSession`,
  :class:`Schedule`) every session-based policy emits.

The raw closed-form timing primitives stay in
:mod:`repro.schedule.timing`; this layer owns everything built from
them (session costs, schedule costs, bounds, optimal wire splits), so
the formula for, say, a two-stage configuration pass exists exactly
once.
"""

from __future__ import annotations

import math
from itertools import chain
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.errors import ScheduleError
from repro.obs.metrics import Counter
from repro.soc.core import CoreTestParams
from repro.schedule.timing import (
    cas_config_bits,
    config_cycles,
    core_test_cycles,
)

#: Wrapper instruction register width spliced per tested core (stage B).
WIR_WIDTH = 3


# -- schedule IR --------------------------------------------------------------


@dataclass(frozen=True)
class ScheduledEntry:
    """One core inside one session."""

    params: CoreTestParams
    wires: int

    @property
    def cycles(self) -> int:
        return core_test_cycles(self.params, self.wires)


@dataclass(frozen=True)
class ScheduledSession:
    """A group of cores tested concurrently."""

    entries: tuple[ScheduledEntry, ...]

    @property
    def wires_used(self) -> int:
        return sum(entry.wires for entry in self.entries)

    @property
    def cycles(self) -> int:
        return max((entry.cycles for entry in self.entries), default=0)

    def names(self) -> list[str]:
        return [entry.params.name for entry in self.entries]


@dataclass
class Schedule:
    """A complete test program in the abstract timing model."""

    bus_width: int
    sessions: list[ScheduledSession] = field(default_factory=list)
    config_cycles_total: int = 0

    @property
    def test_cycles(self) -> int:
        return sum(session.cycles for session in self.sessions)

    @property
    def total_cycles(self) -> int:
        return self.test_cycles + self.config_cycles_total

    def describe(self) -> str:
        lines = [
            f"schedule on N={self.bus_width}: {len(self.sessions)} sessions, "
            f"{self.test_cycles} test + {self.config_cycles_total} config "
            f"cycles"
        ]
        for index, session in enumerate(self.sessions):
            entries = ", ".join(
                f"{e.params.name}(w={e.wires},t={e.cycles})"
                for e in session.entries
            )
            lines.append(
                f"  s{index}: [{entries}] -> {session.cycles} cycles"
            )
        return "\n".join(lines)


# -- configuration-pass primitive ---------------------------------------------


def two_stage_config_cycles(
    cas_bits: int,
    num_wir_changes: int,
    *,
    wir_width: int = WIR_WIDTH,
    wir_bits: int | None = None,
    stage_a_always: bool = True,
) -> int:
    """Cycle cost of the executor's two-stage session configuration.

    Stage A (splice) is one chain pass over all CAS registers; stage B
    is another pass with ``num_wir_changes`` WIR registers spliced in
    (``wir_width`` bits each, or exactly ``wir_bits`` total when the
    caller knows the real register widths).  The abstract schedulers
    charge stage A unconditionally (every session re-splices); the
    behavioural executor skips it when no wrapper instruction changes
    -- ``stage_a_always=False`` models that.  This is the one copy of
    the formula; schedulers, the reconfiguration study and the
    simulator-side predictor all call it.
    """
    if wir_bits is None:
        wir_bits = num_wir_changes * wir_width
    total = 0
    if stage_a_always or num_wir_changes:
        total += config_cycles(cas_bits)
    total += config_cycles(cas_bits + wir_bits)
    return total


# -- problem IR ---------------------------------------------------------------


@dataclass(frozen=True)
class TamProblem:
    """One TAM scheduling problem: cores on an N-wire bus under a policy.

    Attributes:
        cores: the abstract core test parameters.
        bus_width: pin budget N.
        cas_policy: instruction-register sizing rule charged per CAS
            (``None`` = the designer rule of
            :func:`repro.core.instruction.practical_policy`).
    """

    cores: tuple[CoreTestParams, ...]
    bus_width: int
    cas_policy: str | None = "all"

    def __post_init__(self) -> None:
        if self.bus_width < 1:
            raise ScheduleError(
                f"bus width must be >= 1, got {self.bus_width}"
            )

    @classmethod
    def of(
        cls,
        cores: Sequence[CoreTestParams],
        bus_width: int,
        cas_policy: str | None = "all",
    ) -> "TamProblem":
        """Normalise any core sequence into a problem."""
        return cls(cores=tuple(cores), bus_width=bus_width,
                   cas_policy=cas_policy)

    def with_width(self, bus_width: int) -> "TamProblem":
        """The same cores and policy on a different pin budget."""
        return TamProblem(cores=self.cores, bus_width=bus_width,
                          cas_policy=self.cas_policy)


class CostModel:
    """Test- and config-cycle accounting for one :class:`TamProblem`.

    The optimisers' hot path reads a dense, immutable per-core table:
    :meth:`row` ``(i)[w - 1]`` is the test cycles of core ``i`` (by
    position in :attr:`TamProblem.cores`) on ``w`` wires, for
    ``w = 1 .. port width``.  Each row is a tuple built the first time
    its core is read, so models that touch a few cores (the greedy and
    LPT schedulers, the verifier) never pay for the whole table.  The
    per-session configuration cost and the CAS register-bit total are
    memoised too, so thousands of candidate sessions price cheaply.
    """

    def __init__(self, problem: TamProblem) -> None:
        self.problem = problem
        count = len(problem.cores)
        self._rows: list[tuple[int, ...] | None] = [None] * count
        self._min_areas: list[int | None] = [None] * count
        self._positions: dict[CoreTestParams, int] | None = None
        self._session_config: dict[int, int] = {}
        self._cas_bits: int | None = None
        # Instance-scoped obs counters, deliberately NOT registry-
        # routed: the reported stats must be a pure function of the
        # work *this* model did (the portfolio CI gate diffs them
        # across --jobs 1 vs --jobs 4), never of global obs state.
        self._hits = Counter()
        self._misses = Counter()
        self._cells = 0

    # -- width normalisation (the one copy) --------------------------------

    @staticmethod
    def useful_wires(params: CoreTestParams, available: int) -> int:
        """Widest allocation that still helps (capped by the core's P)."""
        return max(1, min(available, params.max_wires))

    @staticmethod
    def effective_wires(params: CoreTestParams, wires: int) -> int:
        """The wires a core actually exploits from an allocation."""
        return max(1, min(wires, params.max_wires))

    def port_width(self, params: CoreTestParams) -> int:
        """The P of the core's CAS on this bus (never exceeds N)."""
        return min(params.max_wires, self.problem.bus_width)

    # -- test-cycle accounting ---------------------------------------------

    def core_cycles(self, params: CoreTestParams, wires: int) -> int:
        """:func:`repro.schedule.timing.core_test_cycles` at the
        effective width (the closed form; the table is :meth:`row`)."""
        return core_test_cycles(params, self.effective_wires(params, wires))

    def row(self, index: int) -> tuple[int, ...]:
        """Cycles of core ``index`` on ``1 .. port width`` wires.

        Nonincreasing in the width; built on first read and immutable.
        """
        row = self._rows[index]
        if row is None:
            return self._build_row(index)
        self._hits.inc()
        return row

    def _build_row(self, index: int) -> tuple[int, ...]:
        core = self.problem.cores[index]
        row = tuple(
            core_test_cycles(core, wires)
            for wires in range(1, self.port_width(core) + 1)
        )
        self._rows[index] = row
        self._misses.inc()
        self._cells += len(row)
        return row

    def min_area(self, index: int) -> int:
        """Smallest wires-times-time area of core ``index``.

        The admissible per-core work term of every packing bound: no
        legal allocation tests the core in less bus area.
        """
        area = self._min_areas[index]
        if area is None:
            area = min(
                wires * cycles
                for wires, cycles in enumerate(self.row(index), 1)
            )
            self._min_areas[index] = area
        return area

    def stats(self) -> dict:
        """Cost-table effectiveness counters (JSON-ready).

        A view over the model's :class:`repro.obs.metrics.Counter`
        instances: ``misses`` counts rows built, ``hits`` counts row
        reads served by an already-built row, and ``entries`` is the
        number of resident table cells.  Surfaced by
        ``repro optimize --json`` so table sharing is observable rather
        than assumed.
        """
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "entries": self._cells,
        }

    # -- config-cycle accounting -------------------------------------------

    @property
    def cas_bits(self) -> int:
        """Total CAS instruction-register bits on the configuration
        chain (one CAS per core at its port width), computed once."""
        if self._cas_bits is None:
            self._cas_bits = sum(
                cas_config_bits(self.problem.bus_width,
                                self.port_width(core),
                                self.problem.cas_policy)
                for core in self.problem.cores
            )
        return self._cas_bits

    @property
    def config_bits(self) -> int:
        """The DfT configuration footprint (Pareto axis): CAS bits."""
        return self.cas_bits

    def session_config_cycles(self, num_tested: int) -> int:
        """Config cost of one session: stage A + stage B with
        ``num_tested`` wrapper instruction registers spliced
        (memoised per session size)."""
        cycles = self._session_config.get(num_tested)
        if cycles is None:
            cycles = two_stage_config_cycles(self.cas_bits, num_tested)
            self._session_config[num_tested] = cycles
        return cycles

    def boundary_config_cycles(self) -> int:
        """Per-boundary cost of a preemptive reconfiguration (at least
        the started/stopped core's wrapper is spliced)."""
        return self.session_config_cycles(1)

    def schedule_config_cycles(self, sessions) -> int:
        """Total config cost of a session list (charged per session)."""
        return sum(
            self.session_config_cycles(len(session.entries))
            for session in sessions
        )

    def charge(self, schedule: Schedule,
               charge_config: bool = True) -> Schedule:
        """Stamp the schedule's config total from this model."""
        schedule.config_cycles_total = (
            self.schedule_config_cycles(schedule.sessions)
            if charge_config else 0
        )
        return schedule

    # -- bounds -------------------------------------------------------------

    def lower_bound(self) -> int:
        """Test-cycle lower bound: work conservation vs widest core.

        The work term credits each core its *minimum* wires-times-time
        area over every legal allocation.  (Crediting full-width time
        times full width -- the seed formula -- over-counts the
        per-pattern capture cycle, which does not shrink with width:
        narrow allocations then legitimately beat the "bound".  The
        exact optimisers find exactly those allocations, so the bound
        must be sound.)
        """
        indices = range(len(self.problem.cores))
        widest = max((self.row(i)[-1] for i in indices), default=0)
        work = sum(self.min_area(i) for i in indices)
        return max(widest, math.ceil(work / self.problem.bus_width))

    # -- optimal wire split of one concurrent group ------------------------

    def _position(self, params: CoreTestParams) -> int:
        """Row index of a problem core (equal cores share a row)."""
        if self._positions is None:
            self._positions = {}
            for index, core in enumerate(self.problem.cores):
                self._positions.setdefault(core, index)
        try:
            return self._positions[params]
        except KeyError:
            raise ScheduleError(
                f"core {params.name!r} is not part of the problem"
            ) from None

    def group_makespan(self, indices: Sequence[int]) -> int | None:
        """Minimum makespan of the cores at ``indices`` sharing the bus.

        The index API of :meth:`optimal_session`: the same search, but
        no session objects -- the optimisers' hot path.  ``None`` when
        the group is empty or wider than the bus.
        """
        if not indices or len(indices) > self.problem.bus_width:
            return None
        return _least_makespan(
            [self.row(index) for index in indices], self.problem.bus_width
        )

    def optimal_session(
        self, group: Sequence[CoreTestParams]
    ) -> ScheduledSession | None:
        """Minimum-makespan wire split for one group, or ``None``.

        Each core takes the narrowest allocation that meets the least
        feasible makespan (see :func:`_least_makespan`).  ``None`` when
        the group is empty or wider than the bus (every core needs at
        least one wire).
        """
        if not group or len(group) > self.problem.bus_width:
            return None
        rows = [self.row(self._position(core)) for core in group]
        target = _least_makespan(rows, self.problem.bus_width)
        return ScheduledSession(entries=tuple(
            ScheduledEntry(params=core, wires=_narrowest(row, target))
            for core, row in zip(group, rows)
        ))

    def schedule_from_groups(
        self,
        groups: Iterable[Sequence[CoreTestParams]],
        *,
        charge_config: bool = True,
    ) -> Schedule | None:
        """Build a schedule from a session partition (optimal splits).

        Returns ``None`` when any group cannot fit on the bus.
        """
        sessions = []
        for group in groups:
            session = self.optimal_session(group)
            if session is None:
                return None
            sessions.append(session)
        schedule = Schedule(bus_width=self.problem.bus_width,
                            sessions=sessions)
        return self.charge(schedule, charge_config)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"CostModel(N={self.problem.bus_width}, "
                f"{len(self.problem.cores)} cores, "
                f"policy={self.problem.cas_policy!r})")


def _narrowest(row: Sequence[int], target: int) -> int:
    """Fewest wires at which a nonincreasing cost row meets
    ``target`` (callers guarantee ``row[-1] <= target``)."""
    return next(
        wires for wires, cycles in enumerate(row, 1) if cycles <= target
    )


def _least_makespan(rows: Sequence[Sequence[int]], width: int) -> int:
    """Least makespan the cores behind ``rows`` reach within ``width``
    wires (callers guarantee ``len(rows) <= width``: one wire each).

    Parametric search in closed form.  A core meets a target ``t`` no
    lower than its floor ``row[-1]`` on one wire plus one per row value
    above ``t`` (rows are nonincreasing), so a split meeting ``t``
    needs ``len(rows)`` wires plus the count of *all* row values above
    ``t``.  That fits ``width`` exactly when ``t`` is at least the
    ``(width - len(rows) + 1)``-th largest row value; and no split
    beats the highest floor.  The least feasible target -- which is the
    makespan of the split it induces, since that split meets its own
    maximum -- is therefore the larger of the two, found with one sort
    instead of enumerating wire splits.
    """
    lowest = max(row[-1] for row in rows)
    spare = width - len(rows)
    values = sorted(chain.from_iterable(rows), reverse=True)
    if spare >= len(values):
        return lowest
    return max(lowest, values[spare])


def cost_model(
    cores: Sequence[CoreTestParams],
    bus_width: int,
    cas_policy: str | None = "all",
) -> CostModel:
    """Convenience: a :class:`CostModel` straight from the arguments."""
    return CostModel(TamProblem.of(cores, bus_width, cas_policy))
