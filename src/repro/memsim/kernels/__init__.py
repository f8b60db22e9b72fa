"""Vectorized evaluation kernels: batched sweeps over the pure core.

Two kernels, two contracts:

* :func:`evaluate_grid_columns` (:mod:`repro.memsim.kernels.analytic`)
  — a structure-of-arrays batched analytic evaluator producing a
  :class:`ResultColumns` batch natively. One
  :class:`~repro.memsim.context.EvalContext` is shared across a whole
  sweep axis and every float is produced by the *same IEEE-754 operation
  in the same order* as per-point
  :func:`repro.memsim.evaluation.evaluate`, so results are **bit
  identical** — the sweep service can mix cached per-point results with
  batched computes freely. :func:`evaluate_grid` / :func:`evaluate_batch`
  are the materializing wrappers (lazy views over the same columns).
* :func:`run_epochs` (:mod:`repro.memsim.kernels.epoch`) — an
  epoch-stepped fast path for the discrete-event engine. It trades the
  per-op ``heapq`` loop for batched array steps and is validated against
  the scalar engine within the crosscheck tolerance band; the scalar
  engine in :mod:`repro.memsim.engine.simulator` remains the oracle.

:class:`ResultColumns` itself is imported eagerly (it is pure stdlib);
the kernels are resolved lazily via :pep:`562` so that consumers which
only ship or store column blocks — the sweep cache, the cluster wire —
never pull NumPy onto their import path.
"""

from __future__ import annotations

from typing import Any

from repro.memsim.kernels.columns import COUNTER_COLUMNS, ResultColumns

__all__ = [
    "COUNTER_COLUMNS",
    "EpochEngine",
    "FALLBACK_REASONS",
    "ResultColumns",
    "classify_point",
    "evaluate_batch",
    "evaluate_batch_columns",
    "evaluate_batch_deferred",
    "evaluate_grid",
    "evaluate_grid_columns",
    "evaluate_points_columns",
    "run_epochs",
    "vector_eligible",
]

_ANALYTIC = frozenset({
    "FALLBACK_REASONS",
    "classify_point",
    "evaluate_batch",
    "evaluate_batch_columns",
    "evaluate_batch_deferred",
    "evaluate_grid",
    "evaluate_grid_columns",
    "evaluate_points_columns",
    "vector_eligible",
})
_EPOCH = frozenset({"EpochEngine", "run_epochs"})


def __getattr__(name: str) -> Any:
    if name in _ANALYTIC:
        from repro.memsim.kernels import analytic

        return getattr(analytic, name)
    if name in _EPOCH:
        from repro.memsim.kernels import epoch

        return getattr(epoch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
