"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_cut_arguments(self):
        args = build_parser().parse_args(
            ["cut", "--benchmark", "bv", "--qubits", "6", "--device-size", "5"]
        )
        assert args.command == "cut"
        assert args.benchmark == "bv"
        assert args.qubits == 6

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["cut", "--benchmark", "shor", "--qubits", "6",
                 "--device-size", "5"]
            )

    def test_execution_flags(self):
        args = build_parser().parse_args(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--pool-workers", "3",
             "--strategy", "tensor_network", "--pool", "bogota:2"]
        )
        assert args.pool_workers == 3
        assert args.strategy == "tensor_network"
        assert args.pool == "bogota:2"
        dd_args = build_parser().parse_args(
            ["dd", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--pool-workers", "2", "--strategy", "auto"]
        )
        assert dd_args.pool_workers == 2
        assert dd_args.strategy == "auto"

    @pytest.mark.parametrize("command", ["run", "dd"])
    def test_workers_flag_is_gone(self, command, capsys):
        # Process parallelism is --pool-workers; there is no second knob.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--benchmark", "bv", "--qubits", "6",
                 "--device-size", "5", "--workers", "2"]
            )
        assert "--workers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "dd", "submit"])
    @pytest.mark.parametrize("flag", [["--sim-batch", "8"], ["--no-sim-batch"]])
    def test_sim_batch_flags_are_gone(self, command, flag, capsys):
        # Every evaluation is a body-key group of fixed-size init batches.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--benchmark", "bv", "--qubits", "6",
                 "--device-size", "5", *flag]
            )
        assert flag[0] in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "dd", "submit"])
    def test_fusion_width_flag_is_gone(self, command, capsys):
        # Bodies fuse at one fixed width; no command picks another.
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [command, "--benchmark", "bv", "--qubits", "6",
                 "--device-size", "5", "--fusion-width", "4"]
            )
        assert "--fusion-width" in capsys.readouterr().err

    def test_unknown_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--benchmark", "bv", "--qubits", "6",
                 "--device-size", "5", "--strategy", "magic"]
            )


class TestCommands:
    def test_cut_prints_plan(self, capsys):
        code = main(
            ["cut", "--benchmark", "bv", "--qubits", "6", "--device-size", "5"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "subcircuits" in out
        assert "cut positions" in out

    def test_run_prints_top_states(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--top", "3", "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "|111111>" in out  # BV all-ones solution (incl. ancilla)
        assert "chi^2" in out

    def test_run_on_virtual_device(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--device", "bogota", "--shots", "1024"]
        )
        assert code == 0
        assert "top" in capsys.readouterr().out

    def test_run_device_smaller_than_budget_errors(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "8",
             "--device-size", "6", "--device", "bogota"]
        )
        assert code == 2
        assert "5 qubits" in capsys.readouterr().err

    def test_dd_locates_solution(self, capsys):
        code = main(
            ["dd", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--active", "2", "--recursions", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "recursion 1" in out
        assert "|111111>" in out

    def test_devices_listing(self, capsys):
        code = main(["devices"])
        out = capsys.readouterr().out
        assert code == 0
        assert "virtual-bogota" in out
        assert "virtual-johannesburg" in out

    def test_infeasible_cut_exit_code(self, capsys):
        code = main(
            ["cut", "--benchmark", "grover", "--qubits", "5",
             "--device-size", "4", "--max-cuts", "2"]
        )
        assert code == 1
        # 36 vertices: only heuristics ran, so this is a give-up, not a proof.
        err = capsys.readouterr().err
        assert "cut search failed (not proved infeasible)" in err
        assert "gave up" in err

    def test_proved_infeasible_cut_says_so(self, capsys):
        code = main(
            ["cut", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "3", "--max-cuts", "1"]
        )
        assert code == 1
        assert "cut search failed (proved infeasible)" in capsys.readouterr().err

    def test_run_tensor_network_strategy(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--strategy", "tensor_network",
             "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FD query [tensor_network]" in out
        assert "|111111>" in out

    def test_run_reports_dedup(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--pool-workers", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "unique circuits" in out
        assert "dedup" in out

    def test_run_on_pool(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--pool", "bogota:2", "--shots", "2048"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "quantum makespan" in out

    def test_pool_and_device_conflict(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--pool", "bogota",
             "--device", "bogota"]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_dd_with_workers_and_strategy(self, capsys):
        code = main(
            ["dd", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--active", "2", "--recursions", "4",
             "--pool-workers", "2", "--strategy", "auto"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "|111111>" in out

    def test_heuristic_method_flag(self, capsys):
        code = main(
            ["cut", "--benchmark", "bv", "--qubits", "10",
             "--device-size", "6", "--method", "heuristic"]
        )
        assert code == 0
        assert "heuristic" in capsys.readouterr().out


class TestStreamingRun:
    def test_stream_shards_prints_top_states(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--stream-shards", "2", "--top", "3",
             "--verify"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "FD stream: 2^2 shards" in out
        assert "|111111>" in out
        assert "max |shard - truth| error" in out

    def test_stream_shards_out_of_range(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--stream-shards", "9"]
        )
        assert code == 2
        assert "--stream-shards" in capsys.readouterr().err

    def test_zoom_width_validated(self, capsys):
        code = main(
            ["dd", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--zoom-width", "0"]
        )
        assert code == 2
        assert "--zoom-width" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, says",
        [(["--benchmark", "bv", "--qubits", "6", "--device-size", "1"],
          "max_subcircuit_qubits"),
         (["--benchmark", "supremacy", "--qubits", "10",
           "--device-size", "5"], "grid")],
    )
    @pytest.mark.parametrize("command", ["cut", "run", "dd"])
    def test_bad_input_exits_2_not_a_traceback(
        self, command, argv, says, capsys
    ):
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and says in err


class TestJsonOutput:
    def test_run_json(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--top", "2", "--verify", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "run"
        assert document["result"]["mode"] == "fd"
        assert "workers" not in document["result"]
        assert document["execution"]["num_variants"] > 0
        assert document["result"]["top_states"][0]["state"] == "111111"
        assert document["verify_chi2"] == pytest.approx(0.0, abs=1e-9)

    def test_run_stream_json(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--stream-shards", "2", "--top", "2",
             "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["result"]["mode"] == "top_k"
        assert document["result"]["stream"]["num_shards_emitted"] == 4
        assert document["result"]["stream"]["peak_shard_bytes"] == (1 << 4) * 8
        assert document["result"]["top_states"][0]["state"] == "111111"

    def test_run_json_parallel_keys(self, capsys):
        code = main(
            ["run", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--pool-workers", "1", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert list(document["parallel"]) == [
            "workers", "started", "tasks_completed", "tasks_failed",
            "busy_seconds", "wall_seconds", "utilization",
            "bytes_published", "shm_segments", "worker_respawns",
            "task_retries", "tasks_quarantined", "broken", "tasks_by_kind",
            "busy_seconds_by_kind", "busy_by_worker",
        ]

    def test_dd_json(self, capsys):
        code = main(
            ["dd", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--active", "2", "--recursions", "4",
             "--zoom-width", "2", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "dd"
        result = document["result"]
        assert result["stats"]["zoom_width"] == 2
        assert result["stats"]["cache_hits"] + result["stats"][
            "cache_misses"
        ] > 0
        assert result["solution_states"][0]["state"] == "111111"
        assert len(result["recursions"]) >= 1

    def test_dd_human_output_reports_cache(self, capsys):
        code = main(
            ["dd", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--active", "2", "--recursions", "4"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "collapse-cache hit rate" in out

    def test_cut_json(self, capsys):
        code = main(
            ["cut", "--benchmark", "bv", "--qubits", "6",
             "--device-size", "5", "--json"]
        )
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["command"] == "cut"
        assert document["num_subcircuits"] == len(document["subcircuits"])
        assert all(
            sub["width"] <= 5 for sub in document["subcircuits"]
        )
        assert document["cut_positions"]
        assert document["search_method"] in ("mip", "heuristic")
        assert document["objective"] >= 0.0

    def test_devices_json(self, capsys):
        code = main(["devices", "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        presets = {entry["preset"]: entry for entry in document["presets"]}
        assert "bogota" in presets
        assert presets["bogota"]["num_qubits"] == 5
        assert presets["bogota"]["coupling_map"]


_BV6 = ["--benchmark", "bv", "--qubits", "6", "--device-size", "5"]


class TestLocalJob:
    """``run`` and ``dd`` are local jobs: one document, the service's result."""

    @pytest.mark.parametrize(
        "argv, fields",
        [(["run", "--top", "3"], dict(query="fd", top=3)),
         (["run", "--top", "3", "--stream-shards", "2"],
          dict(query="top_k", top=3, shard_qubits=2)),
         (["dd", "--active", "2", "--recursions", "4", "--zoom-width", "2"],
          dict(query="dd", active=2, recursions=4, zoom_width=2))],
        ids=["fd", "top_k", "dd"],
    )
    def test_result_is_the_services(self, argv, fields, tmp_path, capsys):
        from repro.service import ArtifactStore, JobScheduler, JobSpec

        assert main([*argv, *_BV6, "--json"]) == 0
        local = json.loads(capsys.readouterr().out)["result"]
        scheduler = JobScheduler(
            ArtifactStore(tmp_path / "store"), workers=1, journal=False
        )
        try:
            spec = JobSpec(device_size=5, benchmark="bv", qubits=6, **fields)
            record = scheduler.wait(scheduler.submit(spec), timeout=60)
        finally:
            scheduler.shutdown()
        assert record.state == "done", record.error
        timings = ("elapsed_seconds", "stats", "stream")

        def untimed(result):
            return {k: v for k, v in result.items() if k not in timings}

        assert untimed(local) == untimed(record.result)
        assert set(local) == set(record.result)

    @pytest.mark.parametrize(
        "argv, extra",
        [(["run"], set()),
         (["run", "--verify"], {"verify_chi2"}),
         (["run", "--stream-shards", "2", "--verify"],
          {"verify_max_abs_error"}),
         (["run", "--pool-workers", "1"], {"parallel"}),
         (["dd", "--recursions", "4"], set())],
    )
    def test_document_keys(self, argv, extra, capsys):
        assert main([*argv, *_BV6, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert set(document) == {"command", "execution", "result"} | extra

    @pytest.mark.parametrize("extra", [[], ["--stream-shards", "2"]])
    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_2(self, top, extra, capsys):
        assert main(["run", *_BV6, "--top", top, *extra]) == 2
        captured = capsys.readouterr()
        assert "--top" in captured.err and captured.out == ""

    def test_run_and_dd_leave_the_service_unimported(self):
        code = (
            "import sys\n"
            "from repro.cli import main\n"
            f"assert main(['run', *{_BV6!r}, '--stream-shards', '2']) == 0\n"
            f"assert main(['dd', *{_BV6!r}, '--recursions', '2']) == 0\n"
            "print(sorted(m for m in sys.modules if m.startswith("
            "'repro.service')))\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src), timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"
