"""A fixed reference job that measures how fast the host runs right now.

The benchmark's host is a shared VM whose speed drifts by up to half
over minutes. The CPU time of a fixed loop drifts with it, so no
estimator over one run's passes removes the drift. The runner therefore
times this job between operations, all through every pass, and reports
each timing at the job's nominal speed: each timed span is multiplied
by ``NOMINAL_S`` over the mean duration of the job just before and just
after it. A pass reads about the same whether the host was quiet or
busy, while a change to the program moves it as before.

The job imports nothing from ``src/``, so no change to the program can
move it, and its inputs are fixed. It mixes the instruction kinds the
three workloads spend their time in: a per-key loop of small NumPy calls
on bucket arrays (the Dash index build), a Python dict grouping loop
(aggregation and the service memo), a NumPy sort-merge join (the SSB
engine) and JSON encoding and decoding of small frames (the serve
protocol). The garbage collector is off while it runs, so the program's
heap does not change its duration.
"""

from __future__ import annotations

import functools
import gc
import importlib
import json
from statistics import fmean
from time import perf_counter

import numpy as np

#: About the job's median duration on a shared 2-core x86-64 VM (Python
#: 3.11.7, NumPy 2.4.6; 31.7 ms over 200 runs): the speed every scaled
#: timing is reported at.
NOMINAL_S = 0.030

_BUCKETS, _SLOTS = 64, 16
_INSERT_KEYS = 3_000
_GROUP_ROWS = 40_000
_FACT_ROWS, _DIM_ROWS = 60_000, 2_000
_FRAMES = 800


class ReferenceJob:
    """Fixed inputs, built once; :meth:`time` runs the job and returns seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(20210620)
        self.insert_keys = rng.integers(0, 1 << 40, _INSERT_KEYS).tolist()
        self.group_keys = rng.integers(0, 512, _GROUP_ROWS).tolist()
        self.fact_key = rng.integers(0, _DIM_ROWS, _FACT_ROWS)
        self.fact_value = rng.integers(1, 10_000, _FACT_ROWS)
        self.dim_key = rng.permutation(_DIM_ROWS)
        self.frames = [
            {"id": i, "kind": "evaluate", "streams": [
                {"pattern": "sequential", "op": "read", "threads": t, "size": s}
            ]}
            for i, (t, s) in enumerate(zip(rng.integers(1, 36, _FRAMES).tolist(),
                                           rng.integers(64, 65_536, _FRAMES).tolist()))
        ]
        self.expected = self._run()

    def _run(self) -> tuple[int, int, int, int]:
        return self._bucket_inserts(), self._grouping(), self._join(), self._frames()

    def _bucket_inserts(self) -> int:
        keys = np.full((_BUCKETS, _SLOTS), -1, dtype=np.int64)
        values = np.zeros((_BUCKETS, _SLOTS), dtype=np.int64)
        stored = 0
        for key in self.insert_keys:
            bucket = (key >> 8) % _BUCKETS
            free = np.nonzero(keys[bucket] == -1)[0]
            if free.size:
                keys[bucket, free[0]] = key
                values[bucket, free[0]] = key & 0xFF
                stored += 1
            else:
                keys[bucket] = -1
        return stored

    def _grouping(self) -> int:
        groups: dict[int, int] = {}
        for i, key in enumerate(self.group_keys):
            groups[key] = groups.get(key, 0) + (i ^ 0x55)
        return sum(groups.values())

    def _join(self) -> int:
        order = np.argsort(self.dim_key, kind="stable")
        mask = (self.fact_value & 3) != 0
        pos = np.searchsorted(self.dim_key[order], self.fact_key[mask])
        return int(order[pos].sum())

    def _frames(self) -> int:
        return sum(len(json.loads(json.dumps(frame))) for frame in self.frames)

    def time(self) -> float:
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            result = self._run()
            elapsed = perf_counter() - start
        finally:
            if enabled:
                gc.enable()
        if result != self.expected:
            raise RuntimeError("the reference job gave a different answer")
        return elapsed


#: Least program time between two samples inside a pass or set-up.
INTERVAL_S = 0.2

#: Program methods before whose calls a sample may be taken, so that a
#: long experiment (fig14 runs for seconds) is sampled all through:
#: ``(module, "Class.method")``. At most ``INTERVAL_S`` apart, the gaps
#: between their calls in fig14 are at most 0.8 s (the largest Dash builds).
SSB_HOOKS = (
    ("repro.ssb.engine.executor", "SsbExecutor.execute"),
    ("repro.ssb.hashindex.dash", "DashIndex.bulk_insert"),
    ("repro.ssb.hashindex.dash", "DashIndex.bulk_probe"),
)


class HostSpeed:
    """Reference-job samples of one run, and the scale they give each timing.

    Between :meth:`begin` and :meth:`end` (one pass or one set-up), the
    time outside samples is program time. Every :meth:`sample` closes a
    span of it, so each span has a sample just before and just after it.
    ``sampling_s`` adds up the time spent sampling, which a workload
    subtracts from any timing a sample fell inside.
    """

    def __init__(self) -> None:
        self.job = ReferenceJob()
        self.samples: list[float] = []
        self.spans: list[tuple[float, int]] = []
        self.sampling_s = 0.0
        self._opened: float | None = None
        self._saved: list[tuple[object, str, object]] = []

    def sample(self) -> None:
        start = perf_counter()
        if self._opened is not None:
            # The sample about to be taken, index len(samples), closes the span.
            self.spans.append((start - self._opened, len(self.samples)))
        self.samples.append(self.job.time())
        end = perf_counter()
        self.sampling_s += end - start
        if self._opened is not None:
            self._opened = end

    def maybe_sample(self) -> None:
        if self._opened is not None and perf_counter() - self._opened >= INTERVAL_S:
            self.sample()

    def begin(self) -> None:
        self.spans = []
        self.sample()
        self._opened = perf_counter()

    def end(self) -> float:
        """Close the window; returns its scale (see :meth:`scale`)."""
        self.sample()
        self._opened = None
        return self.scale(self.spans)

    def scale(self, spans: list[tuple[float, int]]) -> float:
        """The factor that brings ``spans`` to nominal speed, weighted by duration.

        Each ``(seconds, index)`` span is scaled by ``NOMINAL_S`` over the
        mean of samples ``index - 1`` and ``index``, the ones on its two sides.
        """
        total = sum(seconds for seconds, _ in spans)
        scaled = sum(
            seconds * NOMINAL_S / fmean(self.samples[index - 1:index + 1])
            for seconds, index in spans
        )
        return scaled / total

    def hook(self, targets) -> None:
        """Sample (at most every ``INTERVAL_S``) before each call of ``targets``."""
        for module_name, path in targets:
            owner = importlib.import_module(module_name)
            class_name, attr = path.split(".")
            owner = getattr(owner, class_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._sampling(original))

    def unhook(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _sampling(self, original):
        @functools.wraps(original)
        def sampling(*args, **kwargs):
            self.maybe_sample()
            return original(*args, **kwargs)

        return sampling
