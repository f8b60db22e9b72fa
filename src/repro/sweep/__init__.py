"""Sweep service: memoized, batched evaluation of the pure memsim core.

Layering (see DESIGN.md §4):

* :mod:`repro.memsim.evaluation` supplies the pure function
  ``evaluate(MachineConfig, streams, DirectoryState)``;
* :class:`EvaluationService` wraps it in a content-keyed memo cache and
  an optional on-disk cache (:class:`~repro.sweep.cache.DiskCache`);
* :class:`SweepRunner` evaluates whole grids — point-at-a-time
  (``serial``, the oracle), through the batched kernels (``vector``,
  the default), or across a worker cluster with a shared cache tier and
  work-stealing (:mod:`repro.sweep.cluster`) — with bit-identical
  results keyed by point label.

Everything above this package — experiments, the SSB cost model, the
core advisor/optimizer — evaluates bandwidth through here.
"""

from repro.sweep.cache import CacheStats, DiskCache, MemoCache
from repro.sweep.runner import BACKENDS, SweepRunner
from repro.sweep.service import (
    EvaluationService,
    GridPointError,
    default_service,
    request_key,
    set_default_service,
)

__all__ = [
    "BACKENDS",
    "CacheStats",
    "DiskCache",
    "EvaluationService",
    "GridPointError",
    "MemoCache",
    "SweepRunner",
    "default_service",
    "request_key",
    "set_default_service",
]
