"""Exception hierarchy for the ``repro`` package.

All exceptions raised by this library derive from :class:`ReproError` so
that callers can catch everything library-specific with a single handler
while still being able to distinguish configuration problems from runtime
simulation or query-processing failures.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An object was constructed or configured with invalid parameters."""


class TopologyError(ConfigurationError):
    """A hardware topology description is inconsistent.

    Raised, for example, when a DIMM references a memory channel that does
    not exist, or when a NUMA node is assigned to the wrong socket.
    """


class CalibrationError(ConfigurationError):
    """A calibration profile contains physically impossible values."""


class WorkloadError(ConfigurationError):
    """A workload specification is invalid (e.g. zero threads)."""


class SimulationError(ReproError):
    """The simulator reached an inconsistent internal state."""


class SweepError(SimulationError):
    """A sweep point failed to evaluate.

    Wraps the underlying exception (available as ``__cause__``) and
    names the failing grid and point label — a worker's traceback alone
    would not say *which* of a few hundred points was poisoned.
    """


class BackendError(SweepError, ConfigurationError):
    """An unknown sweep backend name was requested.

    Inherits both :class:`SweepError` (it is a sweep-layer failure) and
    :class:`ConfigurationError` (it is a construction-time parameter
    problem), so callers catching either taxonomy branch see it. The
    message always names the valid backend set.
    """

    def __init__(self, backend: object, valid: "tuple[str, ...]") -> None:
        super().__init__(
            f"unknown sweep backend {backend!r}; expected one of "
            + ", ".join(repr(b) for b in valid)
        )
        #: The rejected backend value, verbatim.
        self.backend = backend
        #: The recognised backend names, in documentation order.
        self.valid = tuple(valid)


class GridPointError(SweepError):
    """One point of a batched grid evaluation failed.

    Batched evaluation (``EvaluationService.evaluate_grid_columns``)
    loses the caller's per-point framing, so the service reports *which*
    input index failed — and, when the sweep backends supply them, the
    point's label and the grid's name, so the message reads the same
    whether the failure surfaced inline or inside a worker process.

    ``partial`` preserves the ``ResultColumns`` batch of every point
    that completed before the failure (in ``points`` order), so callers
    paying for a long sweep keep what was already computed. It crosses
    the cluster wire (pickle) boundary with the exception.
    """

    def __init__(
        self,
        index: int,
        original: Exception,
        *,
        label: "str | None" = None,
        grid: "str | None" = None,
        partial: "object | None" = None,
    ) -> None:
        if grid is not None and label is not None:
            message = f"sweep {grid!r} point {label!r} failed: {original}"
        else:
            message = f"grid point {index} failed: {original}"
        super().__init__(message)
        #: Index into the ``points`` sequence passed to ``evaluate_grid``.
        self.index = index
        #: The exception the point's evaluation raised.
        self.original = original
        #: Label of the failing point, when the caller framed points.
        self.label = label
        #: Name of the grid being swept, when the caller framed it.
        self.grid = grid
        #: ``ResultColumns`` of the points completed before the failure.
        self.partial = partial

    def __reduce__(self):
        # The default exception reduce replays ``__init__(*args)`` with
        # the stored ``args`` — the formatted message string — which
        # does not match this signature. Rebuild from the real fields so
        # the error survives the cluster wire boundary intact.
        return (
            _rebuild_grid_point_error,
            (self.index, self.original, self.label, self.grid, self.partial),
        )


def _rebuild_grid_point_error(
    index: int,
    original: Exception,
    label: "str | None",
    grid: "str | None",
    partial: "object | None",
) -> GridPointError:
    """Unpickle helper for :class:`GridPointError` (see ``__reduce__``)."""
    return GridPointError(index, original, label=label, grid=grid, partial=partial)


class ServeError(ReproError):
    """A serving-layer request failed before, or instead of, evaluating.

    The asyncio front door (:mod:`repro.serve`) answers every failure
    with a typed error payload rather than a stack trace; ``code`` is the
    machine-readable reason that payload carries:

    ``bad_request``
        The request body could not be decoded into an evaluation.
    ``protocol``
        The connection violated framing (oversize frame, slow-loris
        timeout); the server drops the connection after answering.
    ``shed``
        Admission control rejected the request because the bounded queue
        was full. ``retry_after_seconds`` tells the client when the
        coalescer will plausibly have drained a window's worth of work.
    ``deadline``
        The request's deadline passed while it sat in the gather queue;
        it was dropped without being evaluated.
    ``evaluation``
        The evaluation itself raised; the message carries the
        :class:`GridPointError` attribution (grid and point label).
    ``shutdown``
        The server is closing and will not answer queued work.
    """

    def __init__(
        self,
        code: str,
        message: str,
        *,
        retry_after_seconds: "float | None" = None,
    ) -> None:
        super().__init__(message)
        #: Machine-readable failure class (see class docstring).
        self.code = code
        #: Seconds after which a ``shed`` request is worth retrying.
        self.retry_after_seconds = retry_after_seconds


class SchemaError(ReproError):
    """A structured payload violated its schema (bad column, wrong dtype).

    Raised for benchmark tables and for on-disk cache payloads whose
    declared schema or column shapes do not line up; the disk cache maps
    it to a miss rather than serving a half-valid result.
    """


class QueryError(ReproError):
    """A query plan could not be built or executed."""


class ExperimentError(ReproError):
    """An experiment definition is missing or produced malformed output."""


class BenchError(ReproError):
    """The benchmark harness failed: unknown selection, a failing bench,
    or a result payload that does not match the ``repro.bench/1`` schema.
    """


class AnalysisError(ReproError):
    """The static-analysis pass (``repro.analysis``) was misconfigured.

    Raised for malformed ``[tool.simlint]`` config, unknown rule names,
    or an unreadable/invalid baseline file — never for lint findings
    themselves, which are reported as data, not exceptions.
    """
