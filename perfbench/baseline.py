"""Run the benchmark over several seeds and summarise its spread.

    python3 perfbench/baseline.py --runs 10 [--workloads a,b] [--write]

Each workload runs ``--runs`` times, once per seed 1..runs, with the
run length from ``BENCHMARK.json``.  For every end-to-end metric it
prints the median, the quartiles (``statistics.quantiles(n=4)``) and
the spread -- the interquartile distance as a share of the median --
beside the metric's bound.  ``--write`` records the summary, with the
machine it ran on, in ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["elapsed_s"] = time.perf_counter() - start
    return result


def summarise(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {
        "median": middle,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / middle if middle else 0.0,
        "values": values,
    }


def environment() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(
        item["name"] for item in spec["workloads"]))
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    bounds = {item["name"]: item for item in spec["end_to_end"]}
    summary = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, spec["run_seconds"])
                for seed in range(1, args.runs + 1)]
        bad = [run for run in runs if not run["correct"]]
        print(f"== {workload}: {len(runs)} runs, {len(bad)} incorrect, "
              f"{statistics.mean(r['elapsed_s'] for r in runs):.1f} s "
              f"per run")
        rows = {}
        for name, metric in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            row = summarise(values)
            row.update(unit=metric["unit"], better=metric["better"],
                       bound=metric["bound"])
            rows[name] = row
            flag = "" if row["spread"] < metric["bound"] / 3 else "  <-- wide"
            print(f"   {name:<18} median {row['median']:>14.6g} "
                  f"{metric['unit']:<7} q1 {row['q1']:>12.6g} "
                  f"q3 {row['q3']:>12.6g} spread {row['spread']:.4f} "
                  f"(bound {metric['bound']}){flag}")
        why = next(item["why"] for item in spec["workloads"]
                   if item["name"] == workload)
        summary[workload] = {"why": why, "metrics": rows}
    if args.write:
        # Keep the keys written by hand (which program was measured).
        path = HERE / "baseline.json"
        document = json.loads(path.read_text()) if path.exists() else {}
        document.update({
            "environment": environment(),
            "run_seconds": spec["run_seconds"],
            "seeds": [1, args.runs],
            "workloads": summary,
        })
        path.write_text(json.dumps(document, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
