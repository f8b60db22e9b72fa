"""Zero-dependency observability layer: tracing, counters, profiling hooks.

Public surface:

* :class:`~repro.obs.recorder.Recorder` — the sink protocol, with
  :class:`~repro.obs.recorder.NullRecorder` (default; zero overhead),
  :class:`~repro.obs.recorder.CountersRecorder` (named counters +
  histograms), and :class:`~repro.obs.recorder.TraceRecorder`
  (span/event stream with a JSONL exporter);
* :func:`default_recorder` / :func:`set_default_recorder` /
  :func:`using_recorder` — the process-wide sink consumers fall back to
  when no explicit ``recorder=`` is passed (mirrors
  :func:`repro.sweep.default_service`);
* :mod:`~repro.obs.catalog` — the counter-name convention and registry;
* :mod:`~repro.obs.report` — the ``--metrics`` pretty-printer;
* :mod:`~repro.obs.golden` — canonical snapshots and exact diffing for
  the golden regression tests.

Recorders are write-only sinks: they never influence a result and are
excluded from every cache key, which preserves the purity contract of
:func:`repro.memsim.evaluation.evaluate`.
"""

from __future__ import annotations

import contextlib
from collections.abc import Iterator

from repro.obs.recorder import (
    NULL_RECORDER,
    CountersRecorder,
    HistogramSummary,
    NullRecorder,
    Recorder,
    TraceRecorder,
)

_DEFAULT_RECORDER: Recorder | None = None


def default_recorder() -> Recorder:
    """The process-wide sink (the shared :data:`NULL_RECORDER` by default)."""
    if _DEFAULT_RECORDER is None:
        return NULL_RECORDER
    return _DEFAULT_RECORDER


def set_default_recorder(recorder: Recorder | None) -> Recorder | None:
    """Replace the process-wide sink; returns the previous override.

    Pass ``None`` to reset to the null recorder. Used by the CLI
    (``repro run --metrics``, ``repro trace``) and by tests; library code
    should prefer the explicit ``recorder=`` parameters.
    """
    global _DEFAULT_RECORDER
    previous = _DEFAULT_RECORDER
    _DEFAULT_RECORDER = recorder
    return previous


@contextlib.contextmanager
def using_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """Install ``recorder`` as the process default for a ``with`` block."""
    previous = set_default_recorder(recorder)
    try:
        yield recorder
    finally:
        set_default_recorder(previous)


__all__ = [
    "NULL_RECORDER",
    "CountersRecorder",
    "HistogramSummary",
    "NullRecorder",
    "Recorder",
    "TraceRecorder",
    "default_recorder",
    "set_default_recorder",
    "using_recorder",
]
