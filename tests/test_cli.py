"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _build_parser, main
from repro.sweep import BACKENDS, SweepRunner, set_default_service

#: Every experiment priced by the analytic model through a sweep (fig14
#: and table1 execute SSB queries instead).
ANALYTIC_EXPERIMENTS = (
    "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10",
    "fig11", "fig12", "fig13", "daxmode", "bestpractices",
)


def _without_stats_line(out: str) -> str:
    """``repro run`` output minus its ``evaluation cache:`` stats line."""
    return "".join(
        line for line in out.splitlines(keepends=True)
        if not line.startswith("evaluation cache:")
    )


class TestList:
    def test_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in ("fig3", "fig14", "table1", "bestpractices"):
            assert exp_id in out


class TestRun:
    def test_runs_experiment(self, capsys):
        assert main(["run", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out
        assert "paper" in out

    def test_unknown_experiment_raises(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            main(["run", "fig99"])


class TestBandwidth:
    def test_default_read(self, capsys):
        assert main(["bandwidth"]) == 0
        out = capsys.readouterr().out
        assert "GB/s" in out
        assert "read" in out

    def test_write_with_options(self, capsys):
        assert main(
            ["bandwidth", "--op", "write", "--threads", "4", "--size", "4096"]
        ) == 0
        value = float(capsys.readouterr().out.split(":")[-1].split()[0])
        assert value == pytest.approx(12.6, rel=0.05)

    def test_far_cold_read(self, capsys):
        assert main(["bandwidth", "--far", "--cold", "--threads", "4"]) == 0
        value = float(capsys.readouterr().out.split(":")[-1].split()[0])
        assert value == pytest.approx(8.0, rel=0.1)

    def test_random_read(self, capsys):
        assert main(
            ["bandwidth", "--pattern", "random", "--size", "256", "--threads", "36"]
        ) == 0
        out = capsys.readouterr().out
        assert "random" in out
        # The random path takes no layout, pinning or locality.
        assert "(pmem)" in out

    @pytest.mark.parametrize("argv", [
        ["--pattern", "random", "--far"],
        ["--op", "write", "--far", "--cold"],
        ["--cold"],
    ], ids=["random-far", "write-cold", "near-cold"])
    def test_meaningless_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bandwidth", *argv])
        assert excinfo.value.code == 2
        assert "applies to" in capsys.readouterr().err

    def test_dram_grouped(self, capsys):
        assert main(
            ["bandwidth", "--media", "dram", "--layout", "grouped", "--threads", "18"]
        ) == 0
        value = float(capsys.readouterr().out.split(":")[-1].split()[0])
        assert value > 90


class TestVerify:
    def test_all_hold(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert "all 12 insights and 7 best practices hold" in out


class TestAdvise:
    def test_scan_heavy(self, capsys):
        assert main(["advise", "--profile", "scan_heavy"]) == 0
        out = capsys.readouterr().out
        assert "Recommended PMEM configuration" in out
        assert "BP2" in out

    def test_constrained(self, capsys):
        assert main(
            ["advise", "--profile", "mixed", "--threads", "8",
             "--no-system-control", "--needs-filesystem"]
        ) == 0
        out = capsys.readouterr().out
        assert "fsdax" in out
        assert "numa_region" in out


class TestSsb:
    def test_ssb_runs(self, capsys):
        assert main(["ssb", "--sf", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Figure 14b" in out
        assert "Table 1" in out
        assert "SSD" in out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fly"])

    @pytest.mark.parametrize(
        "argv, complaint",
        [
            (["run", "fig3", "--jobs", "2"], "unrecognized arguments"),
            (["bench", "--backend", "serial"], "unrecognized arguments"),
            (["run", "fig3", "--backend", "cluster"], "invalid choice"),
            (["run", "fig3", "--workers", "2"], "unrecognized arguments"),
            (["run", "fig3", "--connect", "h:1"], "unrecognized arguments"),
            (["worker"], "invalid choice"),
        ],
        ids=["run-jobs", "bench-backend", "run-backend-cluster",
             "run-workers", "run-connect", "worker"],
    )
    def test_removed_options_are_usage_errors(self, argv, complaint, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert complaint in capsys.readouterr().err


class TestBackendChoices:
    def test_choices_match_the_library(self):
        commands = next(
            action for action in _build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        backend = next(
            action for action in commands.choices["run"]._actions
            if action.dest == "backend"
        )
        assert tuple(backend.choices) == BACKENDS
        assert backend.default == SweepRunner().backend

    def test_unknown_backend_rejected_naming_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig4", "--backend", "greenlet"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "greenlet" in err
        assert "serial" in err and "vector" in err  # the valid set

    @pytest.mark.parametrize("exp_id", ANALYTIC_EXPERIMENTS)
    def test_serial_output_matches_default(self, exp_id, capsys):
        """``--backend serial`` prints the same tables as the default.

        Each run gets a fresh default service, so neither reads the
        other's cached results; only the cache-stats line may differ.
        """
        outputs = []
        for backend_args in (["--backend", "serial"], []):
            previous = set_default_service(None)
            try:
                assert main(["run", exp_id, *backend_args]) == 0
            finally:
                set_default_service(previous)
            outputs.append(_without_stats_line(capsys.readouterr().out))
        serial, default = outputs
        assert exp_id in default
        assert serial == default


class TestHybrid:
    def test_hybrid_plan(self, capsys):
        assert main(["hybrid", "--sf", "0.02", "--dram-budget-gib", "8"]) == 0
        out = capsys.readouterr().out
        assert "hybrid plan" in out
        assert "PMEM-only" in out and "DRAM-only" in out


@pytest.fixture
def fresh_default_service():
    """Isolate the process-wide evaluation service: earlier tests may
    have warmed its memo cache, which would turn every evaluation into
    a cache hit and suppress the memsim.* counters asserted below."""
    from repro.sweep import set_default_service

    previous = set_default_service(None)
    yield
    set_default_service(previous)


class TestRunMetrics:
    def test_metrics_prints_counter_report(self, fresh_default_service, capsys):
        assert main(["run", "fig5", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "memsim.app.read_bytes" in out
        assert "sweep.cache.misses_count" in out

    def test_metrics_snapshot_written_as_canonical_json(self, tmp_path, capsys):
        import json

        from repro.obs.golden import canonical_json

        target = tmp_path / "metrics.json"
        assert main(["run", "fig5", "--metrics", "-o", str(target)]) == 0
        snapshot = json.loads(target.read_text(encoding="utf-8"))
        assert set(snapshot) == {"counters", "histograms", "events", "spans"}
        assert target.read_text(encoding="utf-8") == canonical_json(snapshot)

    def test_without_metrics_no_counter_report(self, capsys):
        assert main(["run", "fig5"]) == 0
        assert "counters:" not in capsys.readouterr().out


class TestTrace:
    def test_trace_to_stdout_is_valid_jsonl(self, capsys):
        import json

        assert main(["trace", "fig5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        records = [json.loads(line) for line in lines]
        assert records[0]["type"] == "span_begin"
        assert records[0]["fields"] == {"exp_id": "fig5"}
        assert records[-1]["type"] == "span_end"
        assert [r["seq"] for r in records] == list(range(len(records)))
        # Deterministic by default: no wall-clock fields.
        assert all("t" not in r for r in records)

    def test_trace_to_file(self, tmp_path, capsys):
        import json

        target = tmp_path / "trace.jsonl"
        assert main(["trace", "fig5", "-o", str(target)]) == 0
        assert "trace records" in capsys.readouterr().out
        records = [
            json.loads(line)
            for line in target.read_text(encoding="utf-8").splitlines()
        ]
        assert any(r["type"] == "counter" for r in records)

    def test_trace_timestamps_flag_adds_t(self, tmp_path):
        import json

        target = tmp_path / "trace.jsonl"
        assert main(["trace", "fig5", "-o", str(target), "--timestamps"]) == 0
        first = json.loads(target.read_text(encoding="utf-8").splitlines()[0])
        assert "t" in first


class TestLint:
    def test_lint_json_smoke(self, capsys):
        # The tree must be clean, so the subcommand exits 0 and emits a
        # JSON report over the configured paths.
        import json

        assert main(["lint", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"] == []
        assert payload["files"] > 0

    def test_lint_reports_findings_on_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1.0 == 1.0\n")
        assert main(["lint", str(bad)]) == 1
        assert "SIM107" in capsys.readouterr().out

    def test_lint_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "unit-literal" in capsys.readouterr().out
