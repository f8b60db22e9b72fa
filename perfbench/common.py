"""Shared pieces of the three workloads: pass results, percentiles, cold starts."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

#: The checkout the benchmark runs in (the parent of ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent
#: Reference outputs recorded from the commit that defined the benchmark.
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
#: Longest a cold start may take before the run fails.
COLD_START_TIMEOUT_S = 60.0


@dataclass
class PassResult:
    """One timed pass of a workload.

    ``latencies_s`` holds one sample per operation (a cold figure set, a
    query, a request); ``attempted``/``failed`` count the outputs checked
    (experiments, query answers, responses); ``extras`` carries per-layer
    values the workload reads from the program itself (e.g.
    ``ServeStats``), keyed by metric name. Timings exclude the time spent
    sampling the host's speed (``refjob.HostSpeed``).
    """

    wall_s: float
    latencies_s: list[float]
    attempted: int
    failed: int
    extras: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def percentile(values: list[float], q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) of ``values``, interpolated linearly.

    Interpolation, not nearest rank, so the median of an even number of
    samples (figures-cold has four or five passes a run) is the mean of
    the middle two, as ``statistics.median`` gives it.
    """
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def child_env() -> dict[str, str]:
    """Environment for a child interpreter importing the checkout's ``src``."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cold_start_seconds(code: str) -> float:
    """Wall time of a fresh interpreter running ``code`` to completion.

    This is what a user pays before the program can do any work: the
    interpreter, NumPy, and the program's own imports. The child is
    waited for; a failure raises ``subprocess.CalledProcessError``.
    """
    start = perf_counter()
    # stdout is a pipe so the wait ends on its EOF: waiting on the bare
    # process with a timeout polls in steps of up to 50 ms.
    subprocess.run(
        [sys.executable, "-c", code],
        check=True,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        timeout=COLD_START_TIMEOUT_S,
    )
    return perf_counter() - start
