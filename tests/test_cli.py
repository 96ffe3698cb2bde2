"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCli:
    def test_single_prints_metrics(self, capsys):
        code, out = run_cli(capsys, "single", "--nodes", "3", "--count", "30",
                            "--size", "1024")
        assert code == 0
        assert "throughput (GB/s)" in out
        assert "RDMA writes" in out

    def test_single_baseline_config(self, capsys):
        code, out = run_cli(capsys, "single", "--nodes", "2", "--count", "20",
                            "--config", "baseline", "--size", "512")
        assert code == 0
        assert "mean batches s/r/d" in out

    def test_multi_subgroups(self, capsys):
        code, out = run_cli(capsys, "multi", "--nodes", "3",
                            "--subgroups", "3", "--count", "20",
                            "--size", "512")
        assert code == 0
        assert "throughput (GB/s)" in out

    def test_delayed_reports_interdelivery(self, capsys):
        code, out = run_cli(capsys, "delayed", "--nodes", "4",
                            "--delayed", "1", "--delay-us", "50",
                            "--count", "40", "--size", "1024",
                            "--config", "nulls")
        assert code == 0
        assert "interdelivery" in out

    def test_rdmc_lists_all_schemes(self, capsys):
        code, out = run_cli(capsys, "rdmc", "--nodes", "4",
                            "--size", str(1 << 20))
        assert code == 0
        for scheme in ("sequential", "binomial", "binomial_pipeline"):
            assert scheme in out

    def test_compare_lists_all_configs(self, capsys):
        code, out = run_cli(capsys, "compare", "--nodes", "2",
                            "--count", "30", "--size", "512")
        assert code == 0
        for config in ("baseline", "batching", "nulls", "optimized"):
            assert config in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_config(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["single", "--config", "warp-speed"])


class TestChaosCli:
    def test_list_names_every_scenario(self, capsys):
        from repro.faults.scenarios import SCENARIOS

        code, out = run_cli(capsys, "chaos", "--list")
        assert code == 0
        for name in SCENARIOS:
            assert name in out

    def test_scenario_run_prints_status(self, capsys):
        from repro.sim import probe

        before = list(probe.subscribers)
        code, out = run_cli(capsys, "chaos", "--scenario", "jitter-storm",
                            "--seed", "3")
        assert code == 0
        assert "jitter-storm" in out
        assert "ok" in out
        # Checked by a sanitizer scoped to the run: none is left behind.
        assert "sanitizer: " in out and "0 violation(s)" in out
        assert probe.subscribers == before

    def test_repeat_checks_replay(self, capsys):
        code, out = run_cli(capsys, "chaos", "--scenario", "sender-stall",
                            "--seed", "5", "--repeat", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_json_output_is_parseable(self, capsys):
        import json

        code, out = run_cli(capsys, "chaos", "--scenario", "leader-crash",
                            "--seed", "2", "--json")
        assert code == 0
        payload = json.loads(out.strip())
        assert payload["ok"] is True
        assert payload["replay_ok"] is True
        assert payload["schedule_json"]

    def test_unknown_scenario_exits_2(self, capsys):
        code, _ = run_cli(capsys, "chaos", "--scenario", "black-swan")
        assert code == 2

    def test_no_selection_exits_2(self, capsys):
        code, _ = run_cli(capsys, "chaos")
        assert code == 2

    def test_failure_writes_artifact_and_exits_1(self, capsys, tmp_path,
                                                 monkeypatch):
        import json
        from dataclasses import replace

        from repro.faults.scenarios import SCENARIOS

        def broken(run, problems, notes):
            problems.append("node 1 delivered 0/10")

        # A real spec whose own expectation fails: the artifact is what
        # an actual failing run writes, schedule included.
        monkeypatch.setitem(SCENARIOS, "broken", replace(
            SCENARIOS["jitter-storm"], name="broken", expect=broken))
        code, _ = run_cli(capsys, "chaos", "--scenario", "broken",
                          "--seed", "9", "--artifact-dir", str(tmp_path))
        assert code == 1
        artifact = tmp_path / "chaos-broken-seed9.json"
        assert artifact.exists()
        data = json.loads(artifact.read_text())
        assert data["problems"] == ["node 1 delivered 0/10"]
        assert (data["name"], data["seed"], data["ok"]) == ("broken", 9, False)
        schedule = json.loads(data["schedule_json"])
        assert schedule["seed"] == 9
        assert [e["kind"] for e in schedule["events"]] == ["jitter"]
        assert "spindle-repro chaos --scenario broken --seed 9" in \
            data["replay_cmd"]

    def test_recover_json_reports_the_rejoin(self, capsys):
        """``recover`` is crash-restart-rejoin with its flags mapped onto
        the spec: same JSON keys, exit 0 on a clean rejoin, 2 on a bad
        node."""
        import json

        code, out = run_cli(capsys, "recover", "--drop-chunk", "0", "--json")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"report", "vsync", "trim_ledger",
                                "final_view"}
        assert payload["report"]["state"] == "done"
        assert payload["report"]["transfers"]["0"]["injected_timeouts"] == 1
        assert payload["vsync"]["ok"] is True
        assert payload["final_view"]["members"] == [0, 1, 2, 3]
        code, _ = run_cli(capsys, "recover", "--crash-node", "9")
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--chunk-size", "0"),
        ("--chunk-size", "-5"),
        ("--chunk-timeout-us", "0"),
    ])
    def test_recover_rejects_bad_chunk_settings(self, capsys, flag, value):
        """A chunk size below one byte or a timeout that is not positive
        is a usage error, not a crash inside the transfer."""
        assert main(["recover", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("recover: ") and "must be" in err

    def test_sweep_runs_multiple_seeds(self, capsys):
        code, out = run_cli(capsys, "chaos", "--scenario", "crash-restart",
                            "--seed", "1", "--sweep", "2")
        assert code == 0
        lines = [ln for ln in out.splitlines() if "crash-restart" in ln]
        # Two per-seed rows plus the aggregated per-scenario summary row.
        assert len(lines) == 3
        assert "2/2" in lines[-1]
