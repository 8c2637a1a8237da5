"""Layer tracer: self time and call counts at the program's public
entry points, installed from the benchmark's own files.

Each target is replaced *at every name a caller resolves*: the
defining module's attribute, every other loaded module that bound the
same function object with ``from x import y``, and the class attribute
for methods.  Modules imported after installation bind the wrapped
function through the patched defining module.

Self time is a span's duration minus the time its traced children
took, so over one traced interval the layers' self times plus the
time outside every layer (``unattributed_s``) sum to the interval's
wall exactly.  A re-entrant call into a layer already on the stack
adds its self time but not a second call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

#: ``(layer, module, qualified attribute)``.  A layer may list several
#: entry points (e.g. both store backends); their numbers add up.
TARGETS = (
    ("core.for_soc", "repro.core.tam", "CasBusTamDesign.for_soc"),
    ("core.generate_cas", "repro.core.generator", "generate_cas"),
    ("logic.minimize", "repro.logic.minimize", "minimize"),
    ("campaign.hashing.identity", "repro.campaign.hashing", "config_hash"),
    ("campaign.hashing.identity", "repro.campaign.hashing",
     "experiment_identity"),
    ("sim.build_system", "repro.sim.system", "build_system"),
    ("sim.run_plan", "repro.sim.session", "SessionExecutor.run_plan"),
    ("sim.run_batch", "repro.sim.batch", "BatchExecutor.run_batch"),
    ("scan.test_set_for", "repro.sim.testsets", "test_set_for"),
    ("diagnose.fault_dictionary", "repro.diagnose.engine",
     "fault_dictionary"),
    ("diagnose.run", "repro.diagnose.engine", "DiagnosisEngine.run"),
    ("schedule.strategy", "repro.api.schedulers", "StrategyAdapter.schedule"),
    ("schedule.co_optimize", "repro.schedule.optimize", "co_optimize"),
    ("verify.outcome", "repro.verify.schedules", "verify_outcome"),
    ("verify.record", "repro.verify.records", "verify_record"),
    ("verify.system", "repro.verify.designs", "verify_system"),
    ("verify.programs", "repro.verify.programs", "verify_session_programs"),
    ("store.append", "repro.campaign.sqlite", "SqliteStore.append"),
    ("store.append", "repro.campaign.store", "CampaignStore.append"),
    ("store.lookup", "repro.campaign.backend", "StoreBackend.lookup"),
    ("store.lookup", "repro.campaign.sqlite", "SqliteStore.lookup"),
    ("store.iter_latest", "repro.campaign.backend", "StoreBackend.iter_latest"),
    ("store.iter_latest", "repro.campaign.sqlite", "SqliteStore.iter_latest"),
)

#: Layers whose self time and calls are reported; the two ``cli``
#: layers are timed by the launcher of the ``cli-cold`` children.
LAYERS = ("cli.import", "cli.main") + tuple(
    dict.fromkeys(layer for layer, _, _ in TARGETS)
)

#: ``repro.obs`` counters harvested from a traced interval.
OBS_COUNTERS = (
    "cache.scan_programs.hits",
    "cache.scan_programs.misses",
    "cache.testsets.hits",
    "cache.testsets.misses",
    "cache.batch_programs.hits",
    "cache.batch_programs.misses",
    "cache.fault_dictionaries.hits",
    "cache.fault_dictionaries.misses",
    "batch.fallback_scenarios",
)


def harvest(collector) -> dict:
    """The :data:`OBS_COUNTERS` of an ``obs.capture()`` collector, plus
    ``batch.dispatches``: one per ``batch.run`` span."""
    counters = collector.metrics.snapshot()["counters"]
    harvested = {name: counters.get(name, 0) for name in OBS_COUNTERS}
    harvested["batch.dispatches"] = sum(
        1 for record in collector.spans() if record.name == "batch.run"
    )
    return harvested


class LayerStats:
    __slots__ = ("self_s", "total_s", "calls", "depth")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0
        self.depth = 0


class Tracer:
    """Self-time accounting over wrapped callables (single thread)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        #: False while the harness validates outputs between rounds:
        #: wrapped calls then run untimed.
        self.active = True
        self.stats = {layer: LayerStats() for layer in LAYERS}
        self.counters: dict[str, float] = {}
        self.distinct: dict[str, set] = {}
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------

    def _enter(self, layer: str) -> tuple[LayerStats, float]:
        stats = self.stats.setdefault(layer, LayerStats())
        if stats.depth == 0:
            stats.calls += 1
        stats.depth += 1
        self._stack.append(0.0)
        return stats, self.clock()

    def _exit(self, stats: LayerStats, start: float) -> None:
        elapsed = self.clock() - start
        child = self._stack.pop()
        stats.self_s += elapsed - child
        stats.depth -= 1
        if stats.depth == 0:
            stats.total_s += elapsed
        if self._stack:
            self._stack[-1] += elapsed

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, layer: str, fn, on_result=None):
        """``fn`` timed as ``layer``; ``on_result(args, kwargs, result)``
        runs after the clock stops, so hooks cost no layer time."""
        tracer = self
        generator = inspect.isgeneratorfunction(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stats, start = tracer._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(stats, start)
            if generator:
                return tracer._timed_iter(layer, result)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return wrapper

    def _timed_iter(self, layer: str, iterator):
        """Charge each ``next()`` of a generator to ``layer`` (the work
        of a generator function happens while it is iterated)."""
        stats = self.stats.setdefault(layer, LayerStats())
        while True:
            stats.depth += 1  # resumptions are not new calls
            self._stack.append(0.0)
            start = self.clock()
            try:
                item = next(iterator)
            except StopIteration:
                return
            finally:
                self._exit(stats, start)
            yield item

    # -- installation --------------------------------------------------

    def install(self, targets=TARGETS) -> "Tracer":
        hooks = _hooks(self)
        for layer, module_name, attribute in targets:
            module = importlib.import_module(module_name)
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                raw = owner.__dict__[name]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self.wrap(
                        layer, raw.__func__, hooks.get(layer)))
                else:
                    wrapped = self.wrap(layer, raw, hooks.get(layer))
                self._patch(owner, name, wrapped)
                continue
            original = getattr(module, name)
            wrapped = self.wrap(layer, original, hooks.get(layer))
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not namespace or not _is_program_module(loaded):
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(loaded, key, wrapped)
        return self

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- export --------------------------------------------------------

    def payload(self) -> dict:
        """JSON-ready totals (a child process ships this home)."""
        return {
            "layers": {
                layer: [stats.self_s, stats.total_s, stats.calls]
                for layer, stats in self.stats.items()
            },
            "counters": dict(self.counters),
            "distinct": {key: len(keys) for key, keys in self.distinct.items()},
        }


def _is_program_module(module) -> bool:
    name = getattr(module, "__name__", "") or ""
    return name == "repro" or name.startswith("repro.") or name == "__main__"


def _hooks(tracer: Tracer) -> dict:
    """Per-layer result hooks: domain counts read off return values."""

    def generate_cas(args, kwargs, _result):
        key = (args, tuple(sorted(kwargs.items())))
        tracer.distinct.setdefault("core.generate_cas", set()).add(repr(key))

    def run_plan(_args, _kwargs, program):
        tracer.count("sim.cycles", program.total_cycles)

    def run_batch(_args, _kwargs, programs):
        tracer.count("sim.cycles", sum(p.total_cycles for p in programs))

    def co_optimize(_args, _kwargs, outcome):
        tracer.count("schedule.evaluations", outcome.evaluations)
        model = outcome.cache_stats.get("cost_model", {})
        tracer.count("schedule.cost_model.hits", model.get("hits", 0))
        tracer.count("schedule.cost_model.misses", model.get("misses", 0))

    return {
        "core.generate_cas": generate_cas,
        "sim.run_plan": run_plan,
        "sim.run_batch": run_batch,
        "schedule.co_optimize": co_optimize,
    }


def merge_payloads(payloads) -> dict:
    """Sum several :meth:`Tracer.payload` documents."""
    merged = {"layers": {}, "counters": {}, "distinct": {}}
    for payload in payloads:
        for layer, (self_s, total_s, calls) in payload["layers"].items():
            row = merged["layers"].setdefault(layer, [0.0, 0.0, 0])
            row[0] += self_s
            row[1] += total_s
            row[2] += calls
        for key, value in payload["counters"].items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in payload["distinct"].items():
            # Distinct keys per process; a fresh process regenerates.
            merged["distinct"][key] = merged["distinct"].get(key, 0) + value
    return merged
