"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Every workload runs at smoke size in a subprocess, exactly as the
benchmark is driven, plus unit tests of the layer tracer.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [item["name"] for item in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def smoke(workload: str, trace: int, golden: str = "") -> dict:
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0.5", "--trace", str(trace),
            "--scale", "smoke"]
    if golden:
        argv += ["--golden", golden]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    result = smoke(workload, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {metric["name"] for metric in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layers_sum_to_traced_wall(workload):
    metrics = smoke(workload, 1)["metrics"]
    layers = sum(metrics[f"{layer}_s"]["value"] for layer in LAYERS)
    wall = metrics["trace.wall_s"]["value"]
    assert wall > 0
    assert layers + metrics["unattributed_s"]["value"] == pytest.approx(wall)
    assert all(metrics[f"{layer}_s"]["value"] >= 0 for layer in LAYERS)


def test_cli_cold_profile_sees_the_child_processes():
    metrics = smoke("cli-cold", 1)["metrics"]
    for name in ("cli.import_s", "cli.main_s", "core.generate_cas_s",
                 "logic.minimize_s", "sim.run_plan_s", "diagnose.run_s"):
        assert metrics[name]["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_perturbed_digest_raises_error_rate(workload, tmp_path):
    golden = json.loads((BENCH / "golden.json").read_text())
    key = f"smoke/{workload}"
    golden[key] = golden[key][::-1]
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden))
    result = smoke(workload, 0, str(path))
    assert result["failed"] > 0
    assert result["correct"] is False
    assert result["failed"] / result["attempted"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for source in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / source.name).write_text(source.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "optimize",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- the tracer -------------------------------------------------------------


def ticking_clock():
    ticks = iter(range(10_000))
    return lambda: next(ticks)


def test_self_time_excludes_traced_children():
    tracer = Tracer(clock=ticking_clock())
    inner = tracer.wrap("sim.run_plan", lambda: None)

    def body():
        inner()
        inner()

    outer = tracer.wrap("core.for_soc", body)
    outer()
    # enter 0, inner 1-2, inner 3-4, exit 5
    assert tracer.stats["core.for_soc"].self_s == 3
    assert tracer.stats["core.for_soc"].total_s == 5
    assert tracer.stats["sim.run_plan"].self_s == 2
    assert tracer.stats["sim.run_plan"].calls == 2
    assert sum(s.self_s for s in tracer.stats.values()) == 5


def test_reentrant_calls_count_once_and_keep_self_time():
    tracer = Tracer(clock=ticking_clock())

    def recurse(depth):
        if depth:
            wrapped(depth - 1)

    wrapped = tracer.wrap("logic.minimize", recurse)
    wrapped(2)
    stats = tracer.stats["logic.minimize"]
    assert stats.calls == 1
    assert stats.self_s == stats.total_s == 5


def test_generators_are_timed_while_iterated():
    tracer = Tracer(clock=ticking_clock())

    def rows():
        yield 1
        yield 2

    assert list(tracer.wrap("store.iter_latest", rows)()) == [1, 2]
    stats = tracer.stats["store.iter_latest"]
    assert stats.calls == 1
    assert stats.self_s == 1 + 3  # the call, then three next() steps


def test_paused_tracer_times_nothing():
    tracer = Tracer(clock=ticking_clock())
    wrapped = tracer.wrap("verify.record", lambda: 7)
    tracer.active = False
    assert wrapped() == 7
    assert tracer.stats["verify.record"].calls == 0


def test_install_patches_every_name_callers_resolve():
    import repro.core.generator as generator
    import repro.core.tam as tam
    import repro.verify as verify_package
    import repro.verify.schedules as schedules

    original = generator.generate_cas
    tracer = Tracer().install()
    try:
        assert generator.generate_cas is not original
        assert tam.generate_cas is generator.generate_cas
        assert verify_package.verify_outcome is schedules.verify_outcome
        assert verify_package.verify_outcome.__wrapped__ is not None
        tam.CasBusTamDesign.for_soc(__import__(
            "repro.soc.library", fromlist=["fig1_soc"]).fig1_soc())
        assert tracer.stats["core.for_soc"].calls == 1
        assert tracer.stats["core.generate_cas"].calls >= 1
    finally:
        tracer.uninstall()
    assert generator.generate_cas is original
    assert tam.generate_cas is original
