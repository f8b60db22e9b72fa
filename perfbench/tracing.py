"""Nested spans around the program's public layer functions.

The benchmark measures every layer from outside: :class:`Probes` swaps
each public function listed in :func:`layer_targets` for a wrapper that
times it with ``perf_counter`` and keeps a stack of open spans, so a
span's *self* time is its duration minus the time its child spans
cover. Wrappers also read the exact work counts each layer exposes
(keys inserted, bucket lines touched, cache misses). Nothing under
``src/`` changes; :meth:`Probes.uninstall` restores every original, so
untraced passes run the unmodified program.

All wrapped functions are synchronous, so spans never interleave even
when the serve workload runs many requests on one event loop.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


class LayerRecord:
    """Self time, inclusive time and counts accumulated by spans."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


class Tracer:
    """A span stack writing into the current :class:`LayerRecord`."""

    def __init__(self) -> None:
        self.stack: list[list[float]] = []
        self.record = LayerRecord()

    def reset(self) -> LayerRecord:
        """Start a fresh record; returns the finished one."""
        finished, self.record = self.record, LayerRecord()
        return finished

    def enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self.stack.append(frame)
        return frame, perf_counter()

    def leave(self, name: str, frame: list[float], start: float) -> None:
        duration = perf_counter() - start
        self.stack.pop()
        if self.stack:
            self.stack[-1][0] += duration
        record = self.record
        record.self_s[name] += duration - frame[0]
        record.incl_s[name] += duration

    def run(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` (for root spans)."""
        frame, start = self.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.leave(name, frame, start)


def _wrap(tracer: Tracer, name: str, fn, before=None, after=None):
    """``fn`` inside a span; ``before``/``after`` read counts around it."""

    def traced(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        frame, start = tracer.enter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.leave(name, frame, start)
            if after is not None:
                after(tracer.record.counts, token, args, kwargs)

    return traced


# ----------------------------------------------------------------------
# count hooks: exact work done, read from the objects each layer exposes
# ----------------------------------------------------------------------


def _keys_arg(args, kwargs):
    return len(args[1]) if len(args) > 1 else len(kwargs["keys"])


def _dash_build_before(args, kwargs):
    stats = args[0].stats
    return stats.build_reads, stats.bucket_writes


def _dash_build_after(counts, token, args, kwargs):
    stats = args[0].stats
    counts["ssb.dash.insert_keys"] += _keys_arg(args, kwargs)
    counts["ssb.dash.build_reads"] += stats.build_reads - token[0]
    counts["ssb.dash.bucket_writes"] += stats.bucket_writes - token[1]


def _dash_probe_before(args, kwargs):
    stats = args[0].stats
    return stats.bucket_reads + stats.stash_reads


def _dash_probe_after(counts, token, args, kwargs):
    stats = args[0].stats
    counts["ssb.dash.probe_keys"] += _keys_arg(args, kwargs)
    counts["ssb.dash.bucket_reads"] += stats.bucket_reads + stats.stash_reads - token


def _chained_insert_after(counts, token, args, kwargs):
    counts["ssb.chained.insert_keys"] += _keys_arg(args, kwargs)


def _chained_probe_after(counts, token, args, kwargs):
    counts["ssb.chained.probe_keys"] += _keys_arg(args, kwargs)


def _execute_after(counts, token, args, kwargs):
    counts["ssb.engine.queries"] += 1


def _price_after(counts, token, args, kwargs):
    counts["ssb.costmodel.prices"] += 1


def _service_hooks():
    """Hit/miss deltas, taken at the outermost service call only.

    ``evaluate_grid_columns`` falls back to ``evaluate`` for points the
    kernel refuses; counting both would tally those points twice.
    """
    depth = [0]

    def before(args, kwargs):
        depth[0] += 1
        stats = args[0].stats
        return depth[0], stats.hits, stats.misses

    def after(counts, token, args, kwargs):
        depth[0] -= 1
        if token[0] != 1:
            return
        stats = args[0].stats
        counts["sweep.service.hits"] += stats.hits - token[1]
        counts["sweep.service.misses"] += stats.misses - token[2]

    return before, after


def _kernel_after(counts, token, args, kwargs):
    points = args[1] if len(args) > 1 else kwargs["points"]
    counts["memsim.kernels.points"] += len(points)


def layer_targets():
    """``(module, owner attribute path, span name, before, after)`` rows.

    The owner path names where callers look the function up: a class
    attribute, or the module attribute the calling module reads at call
    time. Functions imported *by name* into another module are patched
    there too (``repro.ssb.runner.generate``).
    """
    service_before, service_after = _service_hooks()
    return [
        ("repro.ssb.dbgen", "generate", "ssb.dbgen.generate", None, None),
        ("repro.ssb.runner", "generate", "ssb.dbgen.generate", None, None),
        ("repro.ssb.hashindex.dash", "DashIndex.bulk_insert", "ssb.dash.bulk_insert",
         _dash_build_before, _dash_build_after),
        ("repro.ssb.hashindex.dash", "DashIndex.bulk_probe", "ssb.dash.bulk_probe",
         _dash_probe_before, _dash_probe_after),
        ("repro.ssb.hashindex.chained", "ChainedIndex.bulk_insert",
         "ssb.chained.bulk_insert", None, _chained_insert_after),
        ("repro.ssb.hashindex.chained", "ChainedIndex.bulk_probe",
         "ssb.chained.bulk_probe", None, _chained_probe_after),
        ("repro.ssb.engine.executor", "SsbExecutor.execute", "ssb.engine.execute",
         None, _execute_after),
        ("repro.ssb.engine.operators", "group_aggregate", "ssb.engine.aggregate",
         None, None),
        ("repro.ssb.costmodel", "SsbCostModel.price", "ssb.costmodel.price",
         None, _price_after),
        ("repro.sweep.service", "EvaluationService.evaluate_grid_columns",
         "sweep.service.grid_columns", service_before, service_after),
        ("repro.sweep.service", "EvaluationService.evaluate", "sweep.service.evaluate",
         service_before, service_after),
        ("repro.memsim.kernels", "evaluate_points_columns", "memsim.kernels.batch",
         None, _kernel_after),
        ("repro.memsim.evaluation", "evaluate", "memsim.evaluate", None, None),
        ("repro.serve.protocol", "decode_request", "serve.protocol.decode", None, None),
        ("repro.serve.protocol", "encode_point", "serve.protocol.encode", None, None),
        ("repro.serve.protocol", "encode_result", "serve.protocol.encode", None, None),
        ("repro.serve.protocol", "dump_line", "serve.protocol.encode", None, None),
    ]


class Probes:
    """Installs and removes the layer wrappers around one :class:`Tracer`."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object | None]] = []

    def install(self) -> None:
        if self._saved:
            return
        for module_name, path, span, before, after in layer_targets():
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            # A lazily resolved module attribute (PEP 562) is not in
            # ``vars`` yet; it is deleted again on uninstall.
            self._saved.append((owner, attr, vars(owner).get(attr)))
            original = getattr(owner, attr)
            setattr(owner, attr, _wrap(self.tracer, span, original, before, after))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
