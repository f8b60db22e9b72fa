"""Sweep execution with deterministic assembly.

A :class:`SweepRunner` evaluates every point of a
:class:`~repro.workloads.grids.SweepGrid` through an
:class:`~repro.sweep.EvaluationService`. Results are keyed and
assembled by point *label* in grid order, and every point is evaluated
against the same immutable inputs — so every backend is bit-identical
to serial.

Three backends:

* ``"serial"`` — evaluate point-at-a-time through
  :meth:`~repro.sweep.service.EvaluationService.evaluate`; the oracle
  the others are tested against.
* ``"vector"`` (default) — route the whole grid through
  :meth:`~repro.sweep.service.EvaluationService.evaluate_grid_columns`,
  which computes cache-missing eligible points in one batched NumPy
  pass (:mod:`repro.memsim.kernels`) and keeps results columnar. On the
  paper's grids (tens to hundreds of points) it is the fastest path;
  a thread pool (the GIL serialises the arithmetic) or a process pool
  (start-up and pickling) is slower than serial there.
* ``"cluster"`` — a :mod:`repro.sweep.cluster` coordinator/worker
  cluster: grid points are sharded by content hash across worker
  processes (spawned locally, or remote ``repro worker`` peers), with a
  content-addressed shared cache tier above each worker's local tiers,
  work-stealing for stragglers, and heartbeat-timeout requeueing for
  dead workers. The worker count comes from
  :class:`~repro.sweep.cluster.ClusterOptions`. Rows are assembled by
  global grid index.

An unknown ``backend`` name raises
:class:`~repro.errors.BackendError` naming the valid set. A point that
raises is re-raised as :class:`~repro.errors.SweepError` naming the grid
and the point label, with the original exception chained (the columnar
backends raise its :class:`~repro.errors.GridPointError` subclass,
which also carries the partial batch).
"""

from __future__ import annotations

import time

from repro.errors import BackendError, SweepError
from repro.memsim.config import DirectoryState, MachineConfig, paper_config
from repro.memsim.evaluation import BandwidthResult
from repro.memsim.kernels import ResultColumns
from repro.obs import Recorder, default_recorder
from repro.sweep.service import EvaluationService, default_service
from repro.workloads.grids import SweepGrid

#: Recognised ``SweepRunner`` backends, in documentation order.
BACKENDS = ("serial", "vector", "cluster")


class SweepRunner:
    """Evaluates sweep grids through a shared service.

    Parameters
    ----------
    service:
        Evaluation service to route points through; defaults to the
        process-wide shared service.
    backend:
        One of :data:`BACKENDS` (``"vector"`` is the default) — see the
        module docstring. Every backend produces bit-identical results;
        anything else raises :class:`~repro.errors.BackendError`.
    recorder:
        Observability sink for per-point counters and wall time;
        defaults to the process-wide :func:`repro.obs.default_recorder`.
    """

    def __init__(
        self,
        service: EvaluationService | None = None,
        *,
        backend: str = "vector",
        recorder: Recorder | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise BackendError(backend, BACKENDS)
        self._service = service
        self._recorder = recorder
        self.backend = backend

    @property
    def service(self) -> EvaluationService:
        return self._service if self._service is not None else default_service()

    def run(
        self,
        grid: SweepGrid,
        *,
        config: MachineConfig | None = None,
        directory: DirectoryState | None = None,
    ) -> dict[str, BandwidthResult]:
        """Evaluate every point; returns ``{label: BandwidthResult}``.

        Every point sees the same ``directory`` (default cold) — a sweep
        is a set of independent what-if evaluations, not a sequence, so
        no point's warm-up leaks into another. The result dict is in grid
        order. The columnar backends materialize results (as lazy views)
        only here at the API boundary; batch-native callers should use
        :meth:`run_columns` instead.
        """
        labels, out = self._execute(grid, config, directory)
        rows = out.views() if isinstance(out, ResultColumns) else out
        return dict(zip(labels, rows))

    def run_columns(
        self,
        grid: SweepGrid,
        *,
        config: MachineConfig | None = None,
        directory: DirectoryState | None = None,
    ) -> tuple[list[str], ResultColumns]:
        """Evaluate every point into one column batch, in grid order.

        The batch-native counterpart of :meth:`run`: with the
        ``"vector"`` and ``"cluster"`` backends no per-point result
        object is materialized anywhere — the kernel's columns flow
        through the service (and, on the cluster, across the wire as
        column blocks) straight to the caller. The serial backend
        columnarizes its results at the end, so every backend returns
        equal batches (bit-identical floats).

        On the columnar backends a failing point raises
        :class:`~repro.errors.GridPointError` naming the grid and point
        label and carrying the partial batch of every point completed
        before the failure.
        """
        labels, out = self._execute(grid, config, directory)
        if not isinstance(out, ResultColumns):
            out = ResultColumns.from_results(out)
        return labels, out

    def totals(
        self,
        grid: SweepGrid,
        *,
        config: MachineConfig | None = None,
        directory: DirectoryState | None = None,
    ) -> dict[str, float]:
        """Total bandwidth per point in decimal GB/s, ``{label: GB/s}``.

        On the columnar backends this reads the totals straight off the
        column batch — the common consumer path (experiments, the SSB
        cost model) never materializes a result object.
        """
        labels, out = self._execute(grid, config, directory)
        if isinstance(out, ResultColumns):
            return dict(zip(labels, out.total_gbps()))
        return {label: result.total_gbps for label, result in zip(labels, out)}

    def _execute(
        self,
        grid: SweepGrid,
        config: MachineConfig | None,
        directory: DirectoryState | None,
    ) -> tuple[list[str], ResultColumns | list[BandwidthResult]]:
        """The one backend dispatch behind :meth:`run`, :meth:`run_columns`
        and :meth:`totals`.

        Returns the grid's labels and its results in grid order: a
        column batch from the columnar backends, or the serial oracle's
        own scalar results (kept as objects, so the oracle shares no
        columnar code with the backends it checks).
        """
        cfg = config if config is not None else paper_config()
        state = directory if directory is not None else DirectoryState.cold()
        points = list(grid)
        labels = [point.label for point in points]
        rec = self._recorder if self._recorder is not None else default_recorder()
        observing = rec.enabled

        if self.backend == "cluster":
            # Imported lazily: only cluster runs pay for the
            # asyncio/multiprocessing machinery.
            from repro.sweep import cluster

            return cluster.run_grid_columns(
                grid,
                points,
                config=cfg,
                directory=state,
                service=self.service,
                recorder=rec,
            )

        if self.backend == "vector":
            # GridPointError propagates as raised by the service: its
            # message already names the grid and point label, and it
            # carries the partial batch.
            started = time.perf_counter() if observing else 0.0
            columns = self.service.evaluate_grid_columns(
                cfg,
                [point.streams for point in points],
                state,
                recorder=rec,
                labels=labels,
                grid_name=grid.name,
            )
            if observing and points:
                rec.incr("sweep.points_count", len(points))
                # Batched evaluation has no per-point wall time; spreading
                # the batch mean keeps the histogram monoid (count/total)
                # aligned with the serial backend.
                mean = (time.perf_counter() - started) / len(points)
                for _ in points:
                    rec.observe("sweep.point.wall_seconds", mean)
            return labels, columns

        results: list[BandwidthResult] = []
        for point in points:
            started = time.perf_counter() if observing else 0.0
            try:
                result = self.service.evaluate(cfg, point.streams, state, recorder=rec)
            except SweepError:
                raise
            except Exception as exc:
                raise SweepError(
                    f"sweep {grid.name!r} point {point.label!r} failed: {exc}"
                ) from exc
            if observing:
                # Wall time is inherently nondeterministic, hence a
                # histogram observation: CountersRecorder keeps only a
                # summary and TraceRecorder drops observations unless
                # asked to record them.
                rec.incr("sweep.points_count")
                rec.observe("sweep.point.wall_seconds", time.perf_counter() - started)
            results.append(result)
        return labels, results
