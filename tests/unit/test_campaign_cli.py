"""The ``python -m repro`` command line, end to end.

Most tests drive ``main(argv)`` in-process; one subprocess test pins
the ``python -m repro`` wiring itself.  The central assertion mirrors
the CI campaign job: shard 1/2 + shard 2/2 + merge reports exactly
the unsharded table.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.campaign.cli import main

SWEEP_ARGS = [
    "--architectures", "casbus,mux-bus",
    "--bus-widths", "8,16",
    "--schedulers", "greedy",
    "--serial",
]


def _sweep(store, *extra) -> int:
    return main([
        "sweep", "itc02-d695", "itc02-g1023",
        "--campaign", "cli", "--store", str(store),
        *SWEEP_ARGS, "--quiet", *extra,
    ])


class TestShardMergeEquivalence:
    def test_sharded_merge_reproduces_unsharded_table(
            self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        assert _sweep(full) == 0
        shards = []
        for index in (1, 2):
            shard_store = tmp_path / f"shard{index}.jsonl"
            assert _sweep(shard_store, "--shard", f"{index}/2") == 0
            shards.append(str(shard_store))
        merged = tmp_path / "merged.jsonl"
        assert main(["merge", *shards, "-o", str(merged)]) == 0
        capsys.readouterr()

        assert main(["report", str(full)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", str(merged)]) == 0
        assert capsys.readouterr().out == expected

    def test_shards_partition_the_grid(self, tmp_path, capsys):
        full = tmp_path / "full.jsonl"
        _sweep(full)
        counts = []
        for index in (1, 2):
            shard_store = tmp_path / f"s{index}.jsonl"
            _sweep(shard_store, "--shard", f"{index}/2")
            counts.append(len(shard_store.read_text().splitlines()))
        assert sum(counts) == len(full.read_text().splitlines())


class TestSweep:
    def test_sweep_resumes(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        _sweep(store)
        first = capsys.readouterr().out
        assert "8 executed, 0 cached" in first
        _sweep(store)
        second = capsys.readouterr().out
        assert "0 executed, 8 cached" in second

    def test_sweep_table_sorted_by_hash(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        main([
            "sweep", "itc02-d695", "--campaign", "cli",
            "--store", str(store), *SWEEP_ARGS,
        ])
        out = capsys.readouterr().out
        # summary, header, separator, then one row per run
        table = [line for line in out.splitlines() if line][3:]
        hashes = [line.split()[0] for line in table]
        assert len(hashes) == 4 and hashes == sorted(hashes)

    def test_bad_shard_spec_errors(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        code = _sweep(store, "--shard", "3/2")
        assert code == 2
        assert "shard" in capsys.readouterr().err


class TestRunAndReport:
    def test_run_records_and_caches(self, tmp_path, capsys):
        store = tmp_path / "one.jsonl"
        args = [
            "run", "itc02-d695", "-a", "mux-bus", "-w", "8",
            "--store", str(store),
        ]
        assert main(args) == 0
        assert "cached" not in capsys.readouterr().out
        assert main(args) == 0
        assert "cached" in capsys.readouterr().out
        assert len(store.read_text().splitlines()) == 1

    def test_run_json_payload(self, capsys):
        code = main([
            "run", "itc02-d695", "-a", "mux-bus", "-w", "8", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["architecture"] == "mux-bus"
        assert payload["bus_width"] == 8
        assert len(payload["hash"]) == 64

    def test_report_json(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        _sweep(store)
        capsys.readouterr()
        assert main(["report", str(store), "--json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 8
        assert all(record["schema"] == 1 for record in records)

    def test_unknown_workload_errors(self, capsys):
        code = main(["run", "no-such-workload"])
        assert code == 2
        assert "unknown workload" in capsys.readouterr().err

    def test_merge_onto_source_errors(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        _sweep(store)
        capsys.readouterr()
        code = main(["merge", str(store), "-o", str(store)])
        assert code == 2
        assert "source" in capsys.readouterr().err

    def test_list_names_components(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "casbus" in out and "greedy" in out and "itc02-d695" in out


class TestListDetail:
    def test_scheduler_detail_table(self, capsys):
        assert main(["list", "--schedulers"]) == 0
        out = capsys.readouterr().out
        assert "optimize-anneal" in out
        assert "aliases" in out and "description" in out
        assert "bnb, branch-and-bound" in out
        assert "architectures" not in out  # only the asked section

    def test_architecture_detail_table(self, capsys):
        assert main(["list", "--architectures"]) == 0
        out = capsys.readouterr().out
        assert "casbus" in out and "cas-bus" in out
        assert "CAS-BUS" in out  # the one-line description

    def test_combined_detail_sections(self, capsys):
        assert main(["list", "--schedulers", "--workloads"]) == 0
        out = capsys.readouterr().out
        assert "schedulers:" in out and "workloads:" in out


class TestOptimize:
    def test_pareto_table_and_store(self, tmp_path, capsys):
        store = tmp_path / "pareto.jsonl"
        args = [
            "optimize", "itc02-d695", "-w", "8", "--widths", "4,8",
            "--quiet", "--store", str(store),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        assert "persisted" in out
        first = store.read_text().splitlines()
        assert len(first) >= 1
        # Re-running resumes from the store: no duplicate records.
        assert main(args) == 0
        assert store.read_text().splitlines() == first
        # The persisted points tabulate like any campaign store.
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        assert "optimize-bnb" in capsys.readouterr().out

    def test_json_payload(self, capsys):
        code = main(["optimize", "small", "--method", "bnb", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "optimize-bnb"
        assert payload["pareto"]
        point = payload["pareto"][-1]
        assert point["total_cycles"] == (point["test_cycles"]
                                         + point["config_cycles"])

    def test_missing_width_errors(self, capsys):
        code = main(["optimize", "itc02-d695"])
        assert code == 2
        assert "bus width" in capsys.readouterr().err

    def test_json_carries_cache_stats(self, capsys):
        code = main(["optimize", "small", "--method", "bnb", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        stats = payload["cache_stats"]
        model = stats["cost_model"]
        # Rows are built at most once per core (two) and swept width,
        # then read many times; every row holds at least one cell.
        from repro.schedule.optimize import candidate_widths

        widths = len(candidate_widths(payload["bus_width"]))
        assert 0 < model["misses"] <= 2 * widths
        assert model["hits"] > model["misses"]
        assert model["entries"] >= model["misses"]
        assert stats["evaluations"]["misses"] == payload["evaluations"]

    def test_json_and_text_report_the_floor(self, capsys):
        code = main(["optimize", "small", "--method", "bnb", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        total = payload["pareto"][-1]["total_cycles"]
        assert 0 < payload["lower_bound"] <= total
        assert payload["gap"] == total / payload["lower_bound"] - 1
        assert main(["optimize", "small", "--method", "bnb", "--quiet"]) == 0
        assert "certified floor" in capsys.readouterr().out

    @pytest.mark.parametrize("bad", [
        ["-w", "0"],
        ["-w", "x"],
        ["--jobs", "0"],
        ["--jobs", "-2"],
        ["--restarts", "0"],
        ["--budget", "-1"],
        ["--budget", "lots"],
        ["--widths", "x"],
        ["--widths", "8,0"],
        ["--widths", ","],
    ])
    def test_bad_arguments_exit_2_with_one_error_line(self, capsys, bad):
        with pytest.raises(SystemExit) as exit_info:
            main(["optimize", "itc02-d695", "-w", "8", *bad])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines()
                  if "error:" in line]
        assert len(errors) == 1
        assert "Traceback" not in captured.err

    def test_zero_budget_parses(self, capsys):
        """``--budget 0`` is a well-formed count; the anneal ignores it."""
        code = main([
            "optimize", "itc02-d695", "-w", "4", "--widths", "4",
            "--method", "anneal", "--budget", "0", "--quiet",
        ])
        assert code == 0

    def test_portfolio_json_identical_across_jobs(self, capsys):
        payloads = []
        for jobs in ("1", "2"):
            code = main([
                "optimize", "itc02-d695", "-w", "8", "--widths", "8",
                "--method", "portfolio", "--budget", "400",
                "--jobs", jobs, "--json",
            ])
            assert code == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]
        assert payloads[0]["method"] == "optimize-portfolio"
        assert "shared_cache" in payloads[0]["cache_stats"]

    def test_portfolio_flag_implies_method_and_persists(
            self, tmp_path, capsys):
        store = tmp_path / "portfolio.jsonl"
        code = main([
            "optimize", "itc02-d695", "-w", "8", "--widths", "8",
            "--portfolio", "anneal,lns", "--budget", "300",
            "--quiet", "--store", str(store),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "optimize-portfolio" in out
        assert "persisted" in out
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        assert "optimize-portfolio" in capsys.readouterr().out

    def test_portfolio_verbose_progress(self, capsys):
        code = main([
            "optimize", "itc02-d695", "-w", "8", "--widths", "8",
            "--method", "portfolio", "--budget", "300", "--quiet",
            "--verbose",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "anneal[0]" in out and "round 0" in out


class TestSeededWorkloads:
    def test_seed_builds_reproducible_random_soc(self, capsys):
        payloads = []
        for _ in range(2):
            assert main([
                "run", "random-soc", "--seed", "5", "--model-only",
                "--json",
            ]) == 0
            payloads.append(json.loads(capsys.readouterr().out))
        assert payloads[0] == payloads[1]

    def test_seed_lands_in_the_config_hash(self, capsys):
        hashes = []
        for seed in ("5", "6"):
            assert main([
                "run", "random-soc", "--seed", seed, "--model-only",
                "--json",
            ]) == 0
            hashes.append(json.loads(capsys.readouterr().out)["hash"])
        assert hashes[0] != hashes[1]

    def test_random_cores_need_a_width(self, capsys):
        assert main([
            "run", "random-cores", "--seed", "3", "-w", "8",
            "--model-only", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bus_width"] == 8

    def test_seed_on_registered_workload_errors(self, capsys):
        code = main(["run", "itc02-d695", "--seed", "1"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_seeded_workload_without_seed_errors(self, capsys):
        code = main(["run", "random-soc"])
        assert code == 2
        assert "--seed" in capsys.readouterr().err

    def test_sweep_accepts_seeded_workloads(self, tmp_path, capsys):
        store = tmp_path / "seeded.jsonl"
        assert main([
            "sweep", "random-soc", "--seed", "4",
            "--campaign", "seeded", "--store", str(store),
            "--architectures", "mux-bus", "--bus-widths", "8",
            "--serial", "--quiet",
        ]) == 0
        assert "1 runs" in capsys.readouterr().out


class TestDiagnose:
    def test_diagnose_table_and_store_resume(self, tmp_path, capsys):
        store = tmp_path / "diag.jsonl"
        args = [
            "diagnose", "small", "--scenarios", "0,1",
            "--store", str(store),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "localisation accuracy 2/2" in first
        assert len(store.read_text().splitlines()) == 2
        # Second invocation resumes from the store: no new records.
        assert main(args) == 0
        assert capsys.readouterr().out == first
        assert len(store.read_text().splitlines()) == 2

    def test_diagnose_json(self, capsys):
        assert main([
            "diagnose", "small", "--scenarios", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 1
        record = payload[0]
        assert record["workload"] == "small"
        assert record["scenario"]["kind"] == "stuck-at"
        assert record["screen_passed"] is False
        assert len(record["hash"]) == 64

    def test_report_splits_runs_and_diagnoses(self, tmp_path, capsys):
        store = tmp_path / "mixed.jsonl"
        assert main([
            "run", "itc02-d695", "-a", "mux-bus", "-w", "8",
            "--store", str(store),
        ]) == 0
        assert main([
            "diagnose", "small", "--scenarios", "0",
            "--store", str(store),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(store)]) == 0
        out = capsys.readouterr().out
        assert "mux-bus" in out
        assert "stuck-at" in out or "SA" in out
        assert "1 run(s), 1 diagnosis record(s)" in out

    def test_abstract_workload_errors(self, capsys):
        code = main(["diagnose", "itc02-d695"])
        assert code == 2
        assert "simulatable" in capsys.readouterr().err

    def test_bad_scenarios_error(self, capsys):
        code = main(["diagnose", "small", "--scenarios", "a,b"])
        assert code == 2
        assert "--scenarios" in capsys.readouterr().err


class TestStoreBackendsOnCli:
    def test_sweep_store_format_sqlite(self, tmp_path, capsys):
        assert main([
            "sweep", "itc02-d695", "--campaign", "sq",
            "--store-dir", str(tmp_path), "--store-format", "sqlite",
            *SWEEP_ARGS, "--quiet",
        ]) == 0
        assert "4 executed, 0 cached" in capsys.readouterr().out
        assert (tmp_path / "sq.sqlite").exists()
        # Resumes against the indexed store exactly like JSONL.
        assert main([
            "sweep", "itc02-d695", "--campaign", "sq",
            "--store-dir", str(tmp_path), "--store-format", "sqlite",
            *SWEEP_ARGS, "--quiet",
        ]) == 0
        assert "0 executed, 4 cached" in capsys.readouterr().out

    def test_report_identical_across_backends(self, tmp_path, capsys):
        jsonl = tmp_path / "s.jsonl"
        _sweep(jsonl)
        capsys.readouterr()
        assert main([
            "migrate", str(jsonl), "-o", str(tmp_path / "s.sqlite"),
        ]) == 0
        capsys.readouterr()
        assert main(["report", str(jsonl)]) == 0
        expected = capsys.readouterr().out
        assert main(["report", str(tmp_path / "s.sqlite")]) == 0
        assert capsys.readouterr().out == expected

    def test_migrate_round_trip_verifies(self, tmp_path, capsys):
        jsonl = tmp_path / "s.jsonl"
        _sweep(jsonl)
        capsys.readouterr()
        sqlite_path = tmp_path / "m.sqlite"
        assert main(["migrate", str(jsonl), "-o", str(sqlite_path)]) == 0
        assert "8 runs" in capsys.readouterr().out
        assert main(["verify", "--strict", str(sqlite_path)]) == 0
        capsys.readouterr()
        back = tmp_path / "back.jsonl"
        assert main(["migrate", str(sqlite_path), "-o", str(back)]) == 0
        assert back.read_bytes() == jsonl.read_bytes()

    def test_migrate_onto_source_errors(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        _sweep(store)
        capsys.readouterr()
        assert main(["migrate", str(store), "-o", str(store)]) == 2
        assert "source" in capsys.readouterr().err

    def test_report_filters(self, tmp_path, capsys):
        for suffix in (".jsonl", ".sqlite"):
            store = tmp_path / f"f{suffix}"
            _sweep(store)
            capsys.readouterr()
            assert main([
                "report", str(store), "--architecture", "mux-bus",
            ]) == 0
            out = capsys.readouterr().out
            assert "mux-bus" in out and "4 run(s)" in out
            assert " casbus " not in out
            assert main([
                "report", str(store), "--workload", "no-such",
            ]) == 0
            assert "0 run(s)" in capsys.readouterr().out

    def test_report_summary(self, tmp_path, capsys):
        outputs = []
        for suffix in (".jsonl", ".sqlite"):
            store = tmp_path / f"sum{suffix}"
            _sweep(store)
            capsys.readouterr()
            assert main(["report", str(store), "--summary"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        out = outputs[0]
        assert "runs" in out and "itc02-d695" in out
        assert "8 record(s) from 1 store(s)" in out

    def test_diagnose_resumes_on_sqlite(self, tmp_path, capsys):
        store = tmp_path / "diag.sqlite"
        args = [
            "diagnose", "small", "--scenarios", "0,1",
            "--store", str(store),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "localisation accuracy 2/2" in first
        assert main(args) == 0
        assert capsys.readouterr().out == first


class TestModuleEntrypoint:
    def test_python_dash_m_repro(self, tmp_path):
        """`python -m repro` resolves to the campaign CLI."""
        src = os.path.abspath(
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
        )
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [
                sys.executable, "-m", "repro",
                "run", "itc02-d695", "-a", "mux-bus", "-w", "8",
                "--store", str(tmp_path / "m.jsonl"),
            ],
            capture_output=True, text=True, env=env, cwd=str(tmp_path),
        )
        assert proc.returncode == 0, proc.stderr
        assert "mux-bus" in proc.stdout
        assert (tmp_path / "m.jsonl").exists()
