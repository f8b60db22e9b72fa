"""Bench harness: selection, schema validation, and the smoke run."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import (
    SCHEMA,
    SMOKE_BENCHES,
    bench_dir,
    resolve_selection,
    validate_payload,
    write_payload,
)
from repro.errors import BenchError


def minimal_payload() -> dict:
    return {
        "schema": SCHEMA,
        "created": "20260807T000000Z",
        "config": {"smoke": True, "warmup": False, "rounds": 1},
        "cache_stats": {"hits": 0, "misses": 3, "disk_hits": 0},
        "benchmarks": [
            {
                "name": "test_sweep_cold",
                "file": "bench_sweep_service.py",
                "mean_seconds": 0.01,
                "min_seconds": 0.009,
                "max_seconds": 0.012,
                "stddev_seconds": 0.001,
                "rounds": 3,
                "extra": {},
            }
        ],
    }


class TestSelection:
    def test_smoke_set_resolves(self):
        selected = resolve_selection(None, smoke=True)
        assert [path.name for path in selected] == list(SMOKE_BENCHES)

    def test_substring_and_stem_match_same_file(self):
        by_sub = resolve_selection(["serving"])
        by_stem = resolve_selection(["bench_serving"])
        by_name = resolve_selection(["bench_serving.py"])
        assert by_sub == by_stem == by_name
        assert [path.name for path in by_sub] == ["bench_serving.py"]

    def test_no_names_selects_whole_suite(self):
        everything = resolve_selection(None)
        assert len(everything) == len(list(bench_dir().glob("bench_*.py")))

    def test_unknown_name_lists_available(self):
        with pytest.raises(BenchError, match="no benchmark matches 'nope'"):
            resolve_selection(["nope"])


class TestSchema:
    def test_minimal_payload_is_valid(self):
        validate_payload(minimal_payload())

    @pytest.mark.parametrize(
        "mutate, match",
        [
            (lambda p: p.pop("schema"), "schema is None"),
            (lambda p: p.update(schema="repro.bench/0"), "schema is"),
            (lambda p: p.update(created=123), "'created'"),
            (lambda p: p["config"].pop("smoke"), "config\\['smoke'\\]"),
            (lambda p: p["config"].update(rounds="three"), "config\\['rounds'\\]"),
            (lambda p: p["cache_stats"].pop("disk_hits"), "disk_hits"),
            (lambda p: p.update(benchmarks=[]), "non-empty"),
            (lambda p: p["benchmarks"][0].pop("mean_seconds"), "mean_seconds"),
            (lambda p: p["benchmarks"][0].update(rounds=0), ">= 1"),
            (lambda p: p["benchmarks"][0].update(min_seconds=-1.0), "non-negative"),
        ],
    )
    def test_broken_payloads_rejected(self, mutate, match):
        payload = minimal_payload()
        mutate(payload)
        with pytest.raises(BenchError, match=match):
            validate_payload(payload)

    def test_write_payload_uses_canonical_name(self, tmp_path):
        payload = minimal_payload()
        path = write_payload(payload, tmp_path)
        assert path.name == "BENCH_20260807T000000Z.json"
        assert json.loads(path.read_text()) == payload


def _passed_count(stdout: str) -> int:
    """The ``N passed`` tally from a pytest summary line."""
    match = re.search(r"(\d+) passed", stdout)
    assert match is not None, stdout
    return int(match.group(1))


def _run_bench_disabled(name: str) -> str:
    """Run one bench file once under ``--benchmark-disable``; its stdout."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(root / "benchmarks" / name),
         "--benchmark-disable", "-p", "no:cacheprovider",
         "--override-ini", "addopts=", "-q"],
        capture_output=True, text=True, timeout=300, env=env, cwd=root,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


class TestBenchAssertsInTier1:
    """Bench asserts hold in one-shot mode.

    ``--benchmark-disable`` runs each benchmarked callable exactly once,
    so an assertion that depends on the round count fails here.
    """

    def test_sweep_service_bench_passes_with_benchmarks_disabled(self):
        """The bench's identity and hit-rate asserts hold in one-shot mode."""
        assert "2 passed" in _run_bench_disabled("bench_sweep_service.py")

    @pytest.mark.parametrize("name,passed", [
        ("bench_ablation_warm_directory.py", 1),
        ("bench_ablation_prefetcher.py", 1),
        ("bench_ablation_write_combining.py", 1),
        ("bench_memory_mode_and_wear.py", 2),
    ])
    def test_model_bench_passes_with_benchmarks_disabled(self, name, passed):
        """Benches built on ``BandwidthModel`` run in tier-1 too."""
        assert f"{passed} passed" in _run_bench_disabled(name)

    @pytest.mark.parametrize("name,at_least", [
        ("bench_vector_kernels.py", 4),
        ("bench_vector_families.py", 5),
        ("bench_columnar_results.py", 2),
    ])
    def test_kernel_bench_passes_with_benchmarks_disabled(self, name, at_least):
        """The kernel benches' identity asserts hold in one-shot mode.

        Their speedup gates skip on hosts with fewer than 4 cores and
        run elsewhere, so the pass count is a floor, not an exact tally;
        any failure already fails :func:`_run_bench_disabled`.
        """
        assert _passed_count(_run_bench_disabled(name)) >= at_least


class TestSmokeRun:
    def test_repro_bench_smoke_emits_valid_snapshot(self, tmp_path):
        """End-to-end: ``repro bench --smoke`` writes a schema-valid file."""
        out = tmp_path / "snap.json"
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "bench", "--smoke", "-o", str(out)],
            capture_output=True, text=True, timeout=570, env=env,
            cwd=Path(__file__).resolve().parents[1],
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        payload = json.loads(out.read_text(encoding="utf-8"))
        validate_payload(payload)
        assert payload["config"]["smoke"] is True
        assert payload["config"]["rounds"] == 1
        files = {bench["file"] for bench in payload["benchmarks"]}
        assert files <= set(SMOKE_BENCHES)
        assert "bench_sweep_service.py" in files
