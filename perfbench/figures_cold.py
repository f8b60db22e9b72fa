"""figures-cold: all 15 experiments from an empty evaluation cache.

This is what every ``repro run`` / ``repro report`` user pays. Each pass
resets the process-wide evaluation service and lets fig14 and table1
build fresh SSB runners, so every pass does the same work: dbgen, Dash
and chained index builds, probes, pricing, and the analytic sweeps. The
inputs are the paper's, so the seed is recorded but unused.
"""

from __future__ import annotations

import hashlib
import json
import math
from time import perf_counter

from perfbench.common import REFERENCE_DIR, PassResult, cold_start_seconds
from perfbench.refjob import SSB_HOOKS

#: One operation is a whole cold figure set, so a run holds only a few
#: samples and no percentile has ten beyond it: the tail is the median.
TAIL_PERCENTILE = 0.5
SETUP_REPS = 5
#: Per-layer metrics read from the set-up records instead of the passes.
SETUP_METRICS: tuple[str, ...] = ()
#: fig14 and table1 spend seconds in SSB; the host's speed is sampled there.
SAMPLE_HOOKS = SSB_HOOKS
REFERENCE = REFERENCE_DIR / "figures.json"

#: Set-up: a fresh interpreter importing every experiment driver.
COLD_START = "import repro.experiments.registry"


def result_payload(result) -> dict:
    """Every value an experiment reports, in a canonical JSON shape."""
    return {
        "exp_id": result.exp_id,
        "unit": result.unit,
        "series": result.series,
        "comparisons": [
            [c.metric, c.paper, c.measured, c.unit] for c in result.comparisons
        ],
        "notes": result.notes,
    }


def result_digest(result) -> str:
    blob = json.dumps(result_payload(result), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def paper_error(results) -> tuple[float, int]:
    """Mean |ln(measured/paper)| over every comparison row, and the row count."""
    errors = [abs(math.log(c.ratio)) for r in results for c in r.comparisons]
    return sum(errors) / len(errors), len(errors)


def run_all(tracer, speed=None):
    """Run the registry in order from a cold cache; returns results and latencies.

    ``speed``, the run's ``refjob.HostSpeed``, if given: time it spent
    sampling inside an experiment is left out of that experiment's latency.
    """
    from repro.experiments.registry import all_experiment_ids, get_experiment
    from repro.sweep.service import set_default_service

    set_default_service(None)
    results, latencies = [], []
    for exp_id in all_experiment_ids():
        runner = get_experiment(exp_id).runner
        sampled = speed.sampling_s if speed is not None else 0.0
        start = perf_counter()
        results.append(tracer.run(f"experiments.{exp_id}", runner))
        elapsed = perf_counter() - start
        if speed is not None:
            elapsed -= speed.sampling_s - sampled
        latencies.append(elapsed)
    return results, latencies


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = json.loads(REFERENCE.read_text())

    def setup(self) -> None:
        cold_start_seconds(COLD_START)

    def prepare(self) -> None:
        import repro.experiments.registry  # noqa: F401  (imported once, untimed)

    def run_pass(self, tracer, speed) -> PassResult:
        results, latencies = run_all(tracer, speed)
        wall = sum(latencies)

        problems = []
        expected = self.reference["digests"]
        for result in results:
            if result_digest(result) != expected.get(result.exp_id):
                problems.append(f"{result.exp_id}: output differs from the reference")
        err, _ = paper_error(results)
        return PassResult(
            wall_s=wall,
            latencies_s=[wall],
            attempted=len(results),
            failed=len(problems),
            extras={"experiments.paper_err": err},
            problems=problems,
        )
