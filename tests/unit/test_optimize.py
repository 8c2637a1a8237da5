"""The width/session co-optimisers, plus registry-wide scheduler
properties (every strategy respects the lower bound and the wire
budget; the exact optimiser matches exhaustive enumeration)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ScheduleError
from repro.api import get_scheduler, list_schedulers
from repro.soc.itc02 import d695_like, g1023_like, random_test_params
from repro.schedule.model import Schedule
from repro.schedule.optimize import (
    BNB_MAX_CORES,
    OptimizeOutcome,
    ParetoPoint,
    candidate_widths,
    co_optimize,
    optimize_anneal,
    optimize_bnb,
    pareto_front,
)
from repro.schedule.preemptive import PreemptiveSchedule
from repro.schedule.reconfig import ReconfigComparison, StaticPlan
from repro.schedule.scheduler import (
    lower_bound,
    schedule_exhaustive,
    schedule_greedy,
)

#: Per-strategy keyword options keeping the property tests fast (the
#: optimisers skip the full width sweep; annealing shrinks its budget).
_FAST_OPTIONS = {
    "optimize-bnb": lambda n: {"widths": (n,)},
    "optimize-anneal": lambda n: {"widths": (n,), "iterations": 250},
    "optimize-portfolio": lambda n: {"widths": (n,), "budget": 300},
}


def _sessions_of(detail):
    """Every (wires_used, n-constrained) session-like row of a detail."""
    if isinstance(detail, OptimizeOutcome):
        detail = detail.schedule
    if isinstance(detail, Schedule):
        return [session.wires_used for session in detail.sessions]
    if isinstance(detail, PreemptiveSchedule):
        return [
            sum(wires for _, wires in segment.allocations)
            for segment in detail.segments
        ]
    if isinstance(detail, StaticPlan):
        return [sum(detail.wires_per_group)]
    if isinstance(detail, ReconfigComparison):
        return (_sessions_of(detail.reconfigured)
                + _sessions_of(detail.preemptive))
    raise AssertionError(f"unknown detail type {type(detail).__name__}")


class TestSchedulerWideProperties:
    """Satellite invariants over *every* registered strategy."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 6), st.integers(1, 8))
    def test_respects_lower_bound_and_wire_budget(
            self, seed, num_cores, width):
        cores = random_test_params(seed, num_cores=num_cores)
        bound = lower_bound(cores, width)
        for name in list_schedulers():
            options = _FAST_OPTIONS.get(name, lambda n: {})(width)
            outcome = get_scheduler(name).schedule(
                cores, width, **options
            )
            assert outcome.test_cycles >= bound, name
            for wires_used in _sessions_of(outcome.detail):
                assert wires_used <= width, name

    def test_wire_budget_on_itc02(self):
        cores = d695_like()
        for name in list_schedulers():
            if name == "exhaustive":
                continue  # ten cores exceed the enumeration guard
            options = _FAST_OPTIONS.get(name, lambda n: {})(16)
            outcome = get_scheduler(name).schedule(cores, 16, **options)
            assert outcome.test_cycles >= lower_bound(cores, 16), name
            for wires_used in _sessions_of(outcome.detail):
                assert wires_used <= 16, name


class TestBnb:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 8),
           st.booleans())
    def test_matches_exhaustive_on_small_socs(
            self, seed, num_cores, width, charge):
        """The acceptance criterion: provable optimality."""
        cores = random_test_params(seed, num_cores=num_cores)
        exact = schedule_exhaustive(cores, width, charge_config=charge)
        outcome = optimize_bnb(cores, width, widths=(width,),
                               charge_config=charge)
        assert outcome.schedule.total_cycles == exact.total_cycles

    def test_core_count_guard(self):
        with pytest.raises(ScheduleError, match="optimize-anneal"):
            optimize_bnb(random_test_params(1, num_cores=BNB_MAX_CORES + 1),
                         8)

    def test_pareto_front_spans_widths(self):
        outcome = optimize_bnb(d695_like()[:6], 16)
        assert outcome.method == "optimize-bnb"
        widths = [point.bus_width for point in outcome.pareto]
        assert widths == sorted(widths)
        assert outcome.schedule.bus_width == 16
        # Wider never slower on the front (total cycles fall as N grows).
        totals = [point.total_cycles for point in outcome.pareto]
        assert totals == sorted(totals, reverse=True)


class TestAnneal:
    def test_never_worse_than_greedy(self):
        for cores, width in ((d695_like(), 16), (g1023_like(), 8)):
            greedy = schedule_greedy(cores, width)
            outcome = optimize_anneal(cores, width, widths=(width,))
            assert outcome.total_cycles <= greedy.total_cycles

    def test_deterministic_for_a_seed(self):
        cores = g1023_like()
        first = optimize_anneal(cores, 16, widths=(16,), seed=7)
        second = optimize_anneal(cores, 16, widths=(16,), seed=7)
        assert first.total_cycles == second.total_cycles
        assert [p.to_dict() for p in first.pareto] == \
            [p.to_dict() for p in second.pareto]

    def test_matches_bnb_on_small_instances(self):
        cores = random_test_params(42, num_cores=5)
        exact = optimize_bnb(cores, 6, widths=(6,))
        annealed = optimize_anneal(cores, 6, widths=(6,))
        assert annealed.total_cycles >= exact.total_cycles
        assert annealed.total_cycles <= 1.2 * exact.total_cycles

    def test_restarts_never_hurt_and_stay_deterministic(self):
        cores = g1023_like()
        single = optimize_anneal(cores, 16, widths=(16,), seed=3,
                                 iterations=300)
        multi = optimize_anneal(cores, 16, widths=(16,), seed=3,
                                iterations=300, restarts=3)
        again = optimize_anneal(cores, 16, widths=(16,), seed=3,
                                iterations=300, restarts=3)
        # Restart r draws at fixed coordinates ("anneal", width, r), so
        # restarts=3 *contains* restart 0: best-of-3 <= best-of-1.
        assert multi.total_cycles <= single.total_cycles
        assert multi.total_cycles == again.total_cycles

    def test_explicit_seed_stream_equals_seed(self):
        from repro.schedule.seeds import SeedStream

        cores = random_test_params(9, num_cores=12)
        by_seed = optimize_anneal(cores, 8, widths=(8,), seed=5,
                                  iterations=200)
        by_stream = optimize_anneal(cores, 8, widths=(8,),
                                    seeds=SeedStream(5), iterations=200)
        assert by_seed.total_cycles == by_stream.total_cycles

    def test_restarts_must_be_positive(self):
        with pytest.raises(ScheduleError, match="restarts"):
            optimize_anneal(d695_like(), 8, restarts=0)


class TestBnbReach:
    def test_exact_at_fourteen_cores(self):
        """The tightened bounds certify g1023-class tables: the exact
        engine at 14 cores beats-or-matches a well-budgeted anneal."""
        cores = g1023_like()
        assert len(cores) == BNB_MAX_CORES
        exact = optimize_bnb(cores, 16, widths=(16,))
        annealed = optimize_anneal(cores, 16, widths=(16,), restarts=3)
        assert exact.total_cycles <= annealed.total_cycles

    def test_incumbent_anneal_does_not_change_optimality(self, monkeypatch):
        """Above the incumbent threshold the anneal only prunes: the
        same instance solved with the incumbent anneal disabled must
        return the identical total."""
        from repro.schedule import optimize as optimize_module

        cores = random_test_params(17, num_cores=11)
        with_anneal = optimize_bnb(cores, 6, widths=(6,))
        monkeypatch.setattr(
            optimize_module, "_BNB_ANNEAL_INCUMBENT_ABOVE", 99
        )
        without_anneal = optimize_bnb(cores, 6, widths=(6,))
        assert (with_anneal.schedule.total_cycles
                == without_anneal.schedule.total_cycles)


class TestCacheStats:
    def test_outcomes_carry_cache_stats(self):
        outcome = optimize_bnb(d695_like()[:5], 8)
        stats = outcome.cache_stats
        assert stats["cost_model"]["misses"] > 0
        assert stats["evaluations"]["misses"] == outcome.evaluations
        assert stats["cost_model"]["hits"] >= 0

    def test_model_stats_counters(self):
        """Rows built count as misses, row reads of a built row as
        hits; ``entries`` counts the resident table cells."""
        from repro.schedule.model import CostModel, TamProblem

        model = CostModel(TamProblem.of(d695_like()[:3], 8))
        assert model.stats() == {"hits": 0, "misses": 0, "entries": 0}
        row = model.row(0)
        assert model.row(0) is row
        width = model.port_width(model.problem.cores[0])
        assert len(row) == width
        assert model.stats() == {"hits": 1, "misses": 1, "entries": width}
        # The index makespan reads one row per core: one new, one built.
        model.group_makespan((0, 1))
        assert model.stats()["misses"] == 2
        assert model.stats()["hits"] == 2

    def test_closed_form_reads_build_no_rows(self):
        """The params API (greedy, verify) leaves the table cold."""
        from repro.schedule.model import CostModel, TamProblem

        model = CostModel(TamProblem.of(d695_like()[:3], 8))
        model.core_cycles(model.problem.cores[0], 4)
        assert model.stats() == {"hits": 0, "misses": 0, "entries": 0}


#: ``co_optimize`` outcomes at seed 0 with the CLI's ``cas_policy=None``,
#: recorded before the optimiser moved onto dense cost rows: total
#: cycles, session evaluations, and the Pareto front as
#: ``(bus_width, config_bits, test_cycles, config_cycles, sessions)``.
_PINNED_OUTCOMES = {
    ("itc02-d695", 16, "bnb"): (82781, 819, [
        (1, 20, 1283038, 450, 10),
        (2, 20, 642216, 450, 10),
        (4, 48, 321833, 1010, 10),
        (8, 32, 162454, 492, 7),
        (16, 37, 82447, 334, 4),
    ]),
    ("itc02-p22810", 32, "anneal"): (107018, 13458, [
        (1, 56, 3111136, 3276, 28),
        (2, 56, 1558454, 2820, 24),
        (4, 123, 781973, 5540, 22),
        (8, 107, 396584, 3108, 14),
        (16, 119, 204588, 2244, 9),
        (32, 150, 105424, 1594, 5),
    ]),
    ("itc02-p93791", 32, "anneal"): (406815, 90395, [
        (1, 220, 11820503, 48950, 110),
        (2, 220, 5925013, 33922, 76),
        (4, 469, 2978124, 47330, 50),
        (8, 459, 1503384, 34370, 37),
        (16, 518, 770167, 22128, 21),
        (32, 598, 392109, 14706, 12),
    ]),
}


class TestPinnedOutcomes:
    """Cost-table changes must only change speed, never schedules."""

    @pytest.mark.parametrize(
        "workload, width, method", sorted(_PINNED_OUTCOMES),
        ids=lambda value: str(value),
    )
    def test_outcome_unchanged(self, workload, width, method):
        from repro.api.workloads import get_workload

        total, evaluations, pareto = _PINNED_OUTCOMES[
            (workload, width, method)
        ]
        outcome = co_optimize(
            get_workload(workload).cores, width, method=method,
            cas_policy=None, seed=0,
        )
        assert outcome.total_cycles == total
        assert outcome.evaluations == evaluations
        assert [
            (point.bus_width, point.config_bits, point.test_cycles,
             point.config_cycles, point.sessions)
            for point in outcome.pareto
        ] == pareto


class TestCertifiedFloor:
    def test_outcome_reports_floor_and_gap(self):
        outcome = optimize_anneal(g1023_like(), 16, iterations=300)
        assert 0 < outcome.lower_bound <= outcome.total_cycles
        assert outcome.gap == pytest.approx(
            outcome.total_cycles / outcome.lower_bound - 1
        )
        assert "lower bound" in outcome.describe()

    def test_empty_problem_has_zero_gap(self):
        outcome = optimize_bnb([], 4)
        assert outcome.lower_bound == 0
        assert outcome.gap == 0.0

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_cores=st.integers(1, 7),
        width=st.integers(1, 8),
        charge_config=st.booleans(),
    )
    def test_no_engine_beats_the_floor(self, seed, num_cores, width,
                                       charge_config):
        cores = random_test_params(seed, num_cores=num_cores)
        for method, options in (
            ("bnb", {}),
            ("anneal", {"iterations": 150}),
            ("portfolio", {"budget": 150}),
        ):
            outcome = co_optimize(
                cores, width, method=method, widths=(width,),
                charge_config=charge_config, **options,
            )
            assert outcome.lower_bound <= outcome.total_cycles, method


class TestCoOptimize:
    def test_auto_dispatch_by_core_count(self):
        small = co_optimize(d695_like()[:4], 8, widths=(8,))
        assert small.method == "optimize-bnb"
        large = co_optimize(
            random_test_params(3, num_cores=BNB_MAX_CORES + 1),
            8, widths=(8,), iterations=200,
        )
        assert large.method == "optimize-anneal"

    def test_unknown_method_rejected(self):
        with pytest.raises(ScheduleError, match="unknown"):
            co_optimize(d695_like()[:3], 4, method="gradient-descent")

    def test_portfolio_dispatch(self):
        cores = d695_like()[:5]
        explicit = co_optimize(cores, 8, widths=(8,),
                               method="portfolio", budget=200)
        assert explicit.method == "optimize-portfolio"
        # jobs > 1 or a portfolio spec implies the portfolio engine.
        implied = co_optimize(cores, 8, widths=(8,), jobs=2, budget=200)
        assert implied.method == "optimize-portfolio"
        by_spec = co_optimize(cores, 8, widths=(8,),
                              portfolio="anneal,lns", budget=200)
        assert by_spec.method == "optimize-portfolio"


class TestParetoFront:
    def test_candidate_widths(self):
        assert candidate_widths(16) == (1, 2, 4, 8, 16)
        assert candidate_widths(12) == (1, 2, 4, 8, 12)
        assert candidate_widths(1) == (1,)
        with pytest.raises(ScheduleError):
            candidate_widths(0)

    def test_dominated_points_dropped(self):
        good = ParetoPoint(bus_width=4, config_bits=10, test_cycles=100,
                           config_cycles=10, sessions=2)
        bad = ParetoPoint(bus_width=8, config_bits=20, test_cycles=150,
                          config_cycles=10, sessions=2)
        incomparable = ParetoPoint(bus_width=8, config_bits=20,
                                   test_cycles=50, config_cycles=10,
                                   sessions=1)
        front = pareto_front([good, bad, incomparable])
        assert good in front and incomparable in front
        assert bad not in front

    def test_no_front_point_dominates_another(self):
        outcome = optimize_anneal(g1023_like(), 16, iterations=300)
        front = outcome.pareto
        assert front == pareto_front(front)
        assert len(front) >= 2  # a real trade-off curve, not one point

    def test_describe_mentions_front(self):
        outcome = optimize_bnb(d695_like()[:4], 8)
        text = outcome.describe()
        assert "Pareto" in text and "optimize-bnb" in text


class TestParetoPointSerialization:
    def test_round_trips_through_dict(self):
        point = ParetoPoint(bus_width=8, config_bits=20, test_cycles=100,
                            config_cycles=10, sessions=2)
        assert ParetoPoint.from_dict(point.to_dict()) == point

    def test_derived_total_cycles_key_is_ignored(self):
        point = ParetoPoint(bus_width=8, config_bits=20, test_cycles=100,
                            config_cycles=10, sessions=2)
        data = point.to_dict()
        data["total_cycles"] = 999  # stale derived value must not win
        rebuilt = ParetoPoint.from_dict(data)
        assert rebuilt.total_cycles == 110
