"""Configuration auto-tuner: search the access-parameter space.

Given an operation and a set of allowed knob values, the tuner sweeps the
bandwidth model and returns the best configuration — the programmatic
version of what the paper's best practices tell a human to do. Used by
the :mod:`repro.core.advisor` and by the ablation benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memsim import BandwidthModel, DirectoryState, Layout, PinningPolicy
from repro.memsim.spec import Op, Pattern, StreamSpec

DEFAULT_ACCESS_SIZES: tuple[int, ...] = (64, 256, 1024, 4096, 16384, 65536)
DEFAULT_THREAD_COUNTS: tuple[int, ...] = (1, 2, 4, 6, 8, 12, 16, 18, 24, 36)


@dataclass(frozen=True)
class TuningSpace:
    """The knob values the tuner may combine."""

    access_sizes: tuple[int, ...] = DEFAULT_ACCESS_SIZES
    thread_counts: tuple[int, ...] = DEFAULT_THREAD_COUNTS
    layouts: tuple[Layout, ...] = (Layout.GROUPED, Layout.INDIVIDUAL)
    pinnings: tuple[PinningPolicy, ...] = (
        PinningPolicy.CORES,
        PinningPolicy.NUMA_REGION,
    )

    def __post_init__(self) -> None:
        if not (self.access_sizes and self.thread_counts and self.layouts and self.pinnings):
            raise ConfigurationError("tuning space must not be empty on any axis")

    @property
    def size(self) -> int:
        return (
            len(self.access_sizes)
            * len(self.thread_counts)
            * len(self.layouts)
            * len(self.pinnings)
        )


@dataclass(frozen=True)
class TuningCandidate:
    """One evaluated configuration."""

    spec: StreamSpec
    gbps: float


@dataclass
class TuningResult:
    """Outcome of a tuning sweep, best-first."""

    op: Op
    best: TuningCandidate
    candidates: list[TuningCandidate] = field(default_factory=list)

    @property
    def best_gbps(self) -> float:
        """Bandwidth of the winning candidate in decimal GB/s."""
        return self.best.gbps

    def top(self, n: int = 5) -> list[TuningCandidate]:
        """The ``n`` best candidates, descending."""
        return sorted(self.candidates, key=lambda c: c.gbps, reverse=True)[:n]


def tune(
    op: Op,
    *,
    model: BandwidthModel | None = None,
    space: TuningSpace | None = None,
    pattern: Pattern = Pattern.SEQUENTIAL,
    **spec_overrides: object,
) -> TuningResult:
    """Exhaustively search ``space`` for the highest-bandwidth config.

    ``spec_overrides`` are fixed :class:`StreamSpec` fields (e.g. pin the
    media, the target socket, or the region size) applied to every
    candidate.
    """
    model = model if model is not None else BandwidthModel()
    space = space if space is not None else TuningSpace()
    # Every candidate is scored against the same steady-state directory
    # (memoized in the shared evaluation cache), so the sweep is pure and
    # its order is irrelevant.
    directory = DirectoryState.warm(model.config.topology)
    candidates: list[TuningCandidate] = []
    for threads in space.thread_counts:
        for size in space.access_sizes:
            for layout in space.layouts:
                for pinning in space.pinnings:
                    spec = StreamSpec(
                        op=op,
                        threads=threads,
                        access_size=size,
                        layout=layout,
                        pinning=pinning,
                        pattern=pattern,
                        **spec_overrides,  # type: ignore[arg-type]
                    )
                    gbps = model.evaluate((spec,), directory).total_gbps
                    candidates.append(TuningCandidate(spec=spec, gbps=gbps))
    top_gbps = max(c.gbps for c in candidates)
    # Among configurations within half a percent of the optimum, prefer
    # the one using the fewest threads (cheapest saturating config), then
    # the largest access size (fewest ops).
    near_optimal = [c for c in candidates if c.gbps >= 0.995 * top_gbps]
    best = min(near_optimal, key=lambda c: (c.spec.threads, -c.spec.access_size))
    return TuningResult(op=op, best=best, candidates=candidates)


def tuned_matches_best_practices(result: TuningResult) -> bool:
    """Sanity predicate: the tuner's optimum obeys the paper's practices.

    Reads: the optimum must actually saturate the device (practice 2's
    "scale up the number of threads when reading") with pinned threads.
    Writes: the optimum must use few threads (4-6 per socket) and a
    media-aligned access size. Used by tests to show the practices are
    *optimal* under the model, not merely adequate.
    """
    spec = result.best.spec
    if spec.pinning is PinningPolicy.NONE:
        return False
    if spec.op is Op.READ:
        return result.best_gbps >= 0.95 * 40.0 and spec.threads >= 8
    return spec.threads <= 8 and spec.access_size in (256, 1024, 2048, 4096)
