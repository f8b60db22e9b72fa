"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload figures-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the program
untouched. ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics instead: self time of each layer's spans,
the exact work counts, the share of wall time the spans cover, and the
tracing overhead. Every duration is reported at the nominal speed of a
fixed reference job timed all through every pass and set-up
(``refjob.py``), which takes the shared host's speed drift out of it;
the ``record`` line gives the raw median pass and set-up times beside
the host speed.
Metric names and units come from ``BENCHMARK.json``.
The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import sys
from statistics import median
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = {
    "figures-cold": "perfbench.figures_cold",
    "ssb-warm": "perfbench.ssb_warm",
    "serve-mixed": "perfbench.serve_mixed",
}

#: Count metrics whose value depends on request arrival timing (how many
#: requests one gather window catches), so they are not held exact.
TIMING_DEPENDENT_COUNTS = {"serve.batches"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_values(record, wall_s: float, extras: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric of one traced pass (or set-up)."""
    own, counts = record.self_s, record.counts
    experiments = {
        name.split(".", 1)[1]: seconds
        for name, seconds in record.incl_s.items()
        if name.startswith("experiments.")
    }
    insert_keys = counts["ssb.dash.insert_keys"]
    probe_keys = counts["ssb.dash.probe_keys"]
    lookups = counts["sweep.service.hits"] + counts["sweep.service.misses"]
    serving = "serve.batches" in extras
    values = {
        "experiments.fig14_s": experiments.get("fig14", 0.0),
        "experiments.table1_s": experiments.get("table1", 0.0),
        "experiments.analytic_s": sum(
            s for name, s in experiments.items() if name not in ("fig14", "table1")
        ),
        "experiments.self_s": sum(
            s for name, s in own.items() if name.startswith("experiments.")
        ),
        "experiments.paper_err": extras.get("experiments.paper_err", 0.0),
        "ssb.dbgen.generate_s": own["ssb.dbgen.generate"],
        "ssb.dash.bulk_insert_s": own["ssb.dash.bulk_insert"],
        "ssb.dash.insert_keys": insert_keys,
        "ssb.dash.us_per_insert_key": (
            own["ssb.dash.bulk_insert"] * 1e6 / insert_keys if insert_keys else 0.0
        ),
        "ssb.dash.bucket_writes": counts["ssb.dash.bucket_writes"],
        "ssb.dash.build_reads": counts["ssb.dash.build_reads"],
        "ssb.dash.bulk_probe_s": own["ssb.dash.bulk_probe"],
        "ssb.dash.probe_keys": probe_keys,
        "ssb.dash.us_per_probe_key": (
            own["ssb.dash.bulk_probe"] * 1e6 / probe_keys if probe_keys else 0.0
        ),
        "ssb.dash.bucket_reads": counts["ssb.dash.bucket_reads"],
        "ssb.chained.bulk_insert_s": own["ssb.chained.bulk_insert"],
        "ssb.chained.bulk_probe_s": own["ssb.chained.bulk_probe"],
        "ssb.chained.insert_keys": counts["ssb.chained.insert_keys"],
        "ssb.chained.probe_keys": counts["ssb.chained.probe_keys"],
        "ssb.engine.execute_self_s": own["ssb.engine.execute"],
        "ssb.engine.aggregate_s": own["ssb.engine.aggregate"],
        "ssb.engine.queries": counts["ssb.engine.queries"],
        "ssb.costmodel.price_s": own["ssb.costmodel.price"],
        "ssb.costmodel.prices": counts["ssb.costmodel.prices"],
        "sweep.service.grid_columns_s": own["sweep.service.grid_columns"],
        "sweep.service.evaluate_s": own["sweep.service.evaluate"],
        "sweep.service.hit_rate": (
            counts["sweep.service.hits"] / lookups if lookups else 0.0
        ),
        "sweep.service.misses": counts["sweep.service.misses"],
        "memsim.kernels.batch_s": own["memsim.kernels.batch"],
        "memsim.kernels.points": counts["memsim.kernels.points"],
        "memsim.evaluate_s": own["memsim.evaluate"],
        "serve.protocol.decode_s": own["serve.protocol.decode"],
        "serve.protocol.encode_s": own["serve.protocol.encode"],
        "serve.batches": extras.get("serve.batches", 0),
        "serve.batch_points_mean": extras.get("serve.batch_points_mean", 0.0),
        "serve.dedup_rate": extras.get("serve.dedup_rate", 0.0),
        "serve.server_p50_ms": extras.get("serve.server_p50_ms", 0.0),
        "serve.unattributed_s": (
            extras["serve.cpu_s"] - record.total_self_s() if serving else 0.0
        ),
        "serve.idle_s": wall_s - extras["serve.cpu_s"] if serving else 0.0,
        "trace.coverage_pct": 100.0 * record.total_self_s() / wall_s,
    }
    return values


#: Units of the per-layer metrics that are durations, scaled like every
#: other timing to the reference job's nominal speed.
TIME_UNITS = {"s", "ms", "us"}


def op_percentile(per_pass: list[list[float]], q: float) -> float:
    """The ``q``-quantile of the operation latencies of a run.

    When one pass alone has ten samples beyond it, this is the median
    over passes of each pass's quantile, so a pass the host slowed
    midway moves it no more than any other pass; otherwise it is the
    quantile of all passes' samples pooled.
    """
    from perfbench.common import percentile

    if min(len(latencies) for latencies in per_pass) * (1.0 - q) >= 10:
        return median(percentile(latencies, q) for latencies in per_pass)
    return percentile([s for latencies in per_pass for s in latencies], q)


def host_record(args: argparse.Namespace) -> dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "traced": bool(args.trace),
        "seconds": args.seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    # Import the checkout's program and this package; the script's own
    # directory would otherwise shadow top-level module names.
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.refjob import NOMINAL_S, HostSpeed
    from perfbench.tracing import Probes, Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    module = importlib.import_module(WORKLOADS[args.workload])
    workload = module.Workload(args.seed)
    # The high-water mark of the benchmark's own inputs and reference
    # answers, before the program's set-up; ``peak_rss_mb`` covers both.
    inputs_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracer = Tracer()
    probes = Probes(tracer)
    speed = HostSpeed()

    # Every timing is scaled to the reference job's nominal speed by the
    # job's samples just before, inside and just after it (refjob.py).
    # Traced set-ups and passes are sampled only before and after, so no
    # sample falls inside a layer's span.
    setup_s: list[float] = []
    setup_scales: list[float] = []
    setup_layers: list[tuple[dict[str, float], float]] = []
    for _ in range(module.SETUP_REPS):
        if args.trace:
            probes.install()
            tracer.reset()
        else:
            speed.hook(module.SAMPLE_HOOKS)
        speed.begin()
        sampled = speed.sampling_s
        start = perf_counter()
        workload.setup()
        elapsed = perf_counter() - start - (speed.sampling_s - sampled)
        scale = speed.end()
        speed.unhook()
        setup_s.append(elapsed * scale)
        setup_scales.append(scale)
        if args.trace:
            setup_layers.append((layer_values(tracer.reset(), elapsed, {}), scale))
            probes.uninstall()
    workload.prepare()

    passes = []
    deadline = perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            probes.install()
        else:
            speed.hook(module.SAMPLE_HOOKS)
        tracer.reset()
        speed.begin()
        result = workload.run_pass(tracer, speed)
        scale = speed.end()
        record = tracer.reset()
        speed.unhook()
        if traced:
            probes.uninstall()
        passes.append((result, traced, record, scale))
        if perf_counter() >= deadline and (not args.trace or len(passes) >= 2):
            break

    attempted = sum(r.attempted for r, _, _, _ in passes)
    failed = sum(r.failed for r, _, _, _ in passes)
    problems = [p for r, _, _, _ in passes for p in r.problems]
    untraced = [(r, scale) for r, traced, _, scale in passes if not traced]
    per_pass = [[s * scale for s in r.latencies_s] for r, scale in untraced]
    latencies = [s for pass_latencies in per_pass for s in pass_latencies]
    walls = [r.wall_s * scale for r, scale in untraced]

    if args.trace:
        wanted = spec["per_layer"]
        traced_layers = [
            (layer_values(record, r.wall_s, r.extras), scale)
            for r, traced, record, scale in passes if traced
        ]
        metrics = {}
        for entry in wanted:
            name = entry["name"]
            source = setup_layers if name in module.SETUP_METRICS else traced_layers
            if name == "trace.overhead_pct":
                traced_walls = [r.wall_s * scale for r, traced, _, scale in passes if traced]
                value = 100.0 * (median(traced_walls) - median(walls)) / median(walls)
            elif entry["unit"] == "count" and name not in TIMING_DEPENDENT_COUNTS:
                series = [values[name] for values, _ in source]
                value = series[0]
                if any(v != value for v in series):
                    failed += 1
                    problems.append(f"{name} differs between repeats: {series}")
            elif entry["unit"] in TIME_UNITS:
                value = median([values[name] * scale for values, scale in source])
            else:
                value = median([values[name] for values, _ in source])
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "pass_s": median(walls),
            "ops_per_s": median(len(ops) / wall for ops, wall in zip(per_pass, walls)),
            "op_p50_ms": op_percentile(per_pass, 0.5) * 1000.0,
            "op_tail_ms": op_percentile(per_pass, module.TAIL_PERCENTILE) * 1000.0,
            "setup_s": median(setup_s),
            "peak_rss_mb": rss_kib / 1024.0,
        }
        metrics = {
            entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
            for entry in spec["end_to_end"]
        }

    record = host_record(args)
    record.update(
        passes=len(passes),
        traced_passes=sum(1 for _, traced, _, _ in passes if traced),
        samples=len(latencies),
        tail_percentile=module.TAIL_PERCENTILE,
        setup_reps=module.SETUP_REPS,
        inputs_peak_rss_mb=inputs_rss_kib / 1024.0,
        error_rate=failed / attempted,
        raw_pass_s=median(r.wall_s for r, _ in untraced),
        pass_raw_s=[r.wall_s for r, _, _, _ in passes],
        pass_scales=[scale for _, _, _, scale in passes],
        raw_setup_s=median(s / scale for s, scale in zip(setup_s, setup_scales)),
        host_speed=median(NOMINAL_S / s for s in speed.samples),
        host_speed_samples=len(speed.samples),
    )
    print("record " + json.dumps(record, sort_keys=True))
    for problem in problems[:20]:
        print(f"problem {problem}")
    for name, metric in metrics.items():
        print(f"{name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
