"""Convenience entry point over the pure evaluation core.

The model itself — issue rates, media ceilings, locality effects, and
cross-stream interactions — lives in :mod:`repro.memsim.evaluation` as a
pure function of ``(MachineConfig, streams, DirectoryState)``.
:class:`BandwidthModel` is a frozen ``(config, service)`` handle over
``evaluate(config, streams, DirectoryState)``: it names the common
single-stream queries (sequential, random, mixed) and routes every call
through an :class:`~repro.sweep.EvaluationService`, so its users share
the memo cache with service-native callers. It holds no directory state;
a far read is cold or warm because the call says so, and callers that
chain runs pass a result's ``directory_after`` back in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.memsim import mixed as mixed_model
from repro.memsim.address import DaxMode
from repro.memsim.config import DirectoryState, MachineConfig, paper_config
from repro.memsim.evaluation import BandwidthResult, StreamResult
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.spec import Layout, Op, Pattern, StreamSpec
from repro.memsim.topology import MediaKind
from repro.units import GIB

if TYPE_CHECKING:
    from repro.sweep.service import EvaluationService

__all__ = ["BandwidthModel", "BandwidthResult", "StreamResult"]


@dataclass(frozen=True)
class BandwidthModel:
    """Steady-state bandwidth calculator for a configured server.

    Parameters
    ----------
    config:
        The simulated server (topology, calibration, ablation toggles);
        defaults to the paper's dual-socket machine.
    service:
        Evaluation service to route calls through; ``None`` means the
        process-wide :func:`~repro.sweep.service.default_service` (and
        its shared memo cache), looked up on each call.
    """

    config: MachineConfig = field(default_factory=paper_config)
    service: EvaluationService | None = None

    def evaluate(
        self,
        streams: list[StreamSpec] | tuple[StreamSpec, ...],
        directory: DirectoryState | None = None,
    ) -> BandwidthResult:
        """Evaluate concurrent streams, resolving shared-resource effects.

        ``directory`` defaults to the cold state; see
        :func:`repro.memsim.evaluation.evaluate` for the interaction
        rules and for :attr:`~BandwidthResult.directory_after`, the state
        a chained second run starts from.
        """
        service = self.service
        if service is None:
            from repro.sweep.service import default_service

            service = default_service()
        return service.evaluate(self.config, tuple(streams), directory)

    # ------------------------------------------------------------------
    # convenience entry points (used by figures, examples, and the
    # insight checks)
    # ------------------------------------------------------------------

    def sequential_read(
        self,
        threads: int,
        access_size: int = 4096,
        *,
        layout: Layout = Layout.INDIVIDUAL,
        media: MediaKind = MediaKind.PMEM,
        pinning: PinningPolicy = PinningPolicy.CORES,
        far: bool = False,
        warm: bool = True,
        dax_mode: DaxMode = DaxMode.DEVDAX,
        prefaulted: bool = False,
    ) -> float:
        """Bandwidth of one sequential read stream, GB/s.

        A far read runs against a warm coherence directory by default
        (steady state, §3.4); ``warm=False`` runs it against the cold
        directory, the paper's first-run "Far" measurement. For the
        "2nd Far" run, chain :meth:`evaluate` through the first result's
        ``directory_after``.
        """
        target = 1 if far else 0
        spec = StreamSpec(
            op=Op.READ,
            threads=threads,
            access_size=access_size,
            media=media,
            layout=layout,
            pinning=pinning,
            issuing_socket=0,
            target_socket=target,
            dax_mode=dax_mode,
            prefaulted=prefaulted,
        )
        if far and warm:
            directory = DirectoryState.warm(self.config.topology)
        else:
            directory = DirectoryState.cold()
        return self.evaluate([spec], directory).total_gbps

    def sequential_write(
        self,
        threads: int,
        access_size: int = 4096,
        *,
        layout: Layout = Layout.INDIVIDUAL,
        media: MediaKind = MediaKind.PMEM,
        pinning: PinningPolicy = PinningPolicy.CORES,
        far: bool = False,
        dax_mode: DaxMode = DaxMode.DEVDAX,
        prefaulted: bool = False,
    ) -> float:
        """Bandwidth of one sequential write stream, GB/s."""
        spec = StreamSpec(
            op=Op.WRITE,
            threads=threads,
            access_size=access_size,
            media=media,
            layout=layout,
            pinning=pinning,
            issuing_socket=0,
            target_socket=1 if far else 0,
            dax_mode=dax_mode,
            prefaulted=prefaulted,
        )
        return self.evaluate([spec]).total_gbps

    def random_read(
        self,
        threads: int,
        access_size: int,
        *,
        media: MediaKind = MediaKind.PMEM,
        region_bytes: int = 2 * GIB,
    ) -> float:
        """Random read bandwidth on a region of ``region_bytes``, GB/s."""
        spec = StreamSpec(
            op=Op.READ,
            threads=threads,
            access_size=access_size,
            media=media,
            pattern=Pattern.RANDOM,
            region_bytes=region_bytes,
        )
        return self.evaluate([spec]).total_gbps

    def random_write(
        self,
        threads: int,
        access_size: int,
        *,
        media: MediaKind = MediaKind.PMEM,
        region_bytes: int = 2 * GIB,
    ) -> float:
        """Random write bandwidth on a region of ``region_bytes``, GB/s."""
        spec = StreamSpec(
            op=Op.WRITE,
            threads=threads,
            access_size=access_size,
            media=media,
            pattern=Pattern.RANDOM,
            region_bytes=region_bytes,
        )
        return self.evaluate([spec]).total_gbps

    def mixed(
        self,
        write_threads: int,
        read_threads: int,
        access_size: int = 4096,
        *,
        media: MediaKind = MediaKind.PMEM,
    ) -> mixed_model.MixedOutcome:
        """Concurrent read and write streams on one socket's DIMMs (§5.1).

        Matches the paper's mixed benchmark: individual 4 KB accesses to
        disjoint data on the *same* DIMMs, threads pinned to the NUMA
        region.
        """
        write = StreamSpec(
            op=Op.WRITE,
            threads=write_threads,
            access_size=access_size,
            media=media,
            pinning=PinningPolicy.NUMA_REGION,
        )
        read = StreamSpec(
            op=Op.READ,
            threads=read_threads,
            access_size=access_size,
            media=media,
            pinning=PinningPolicy.NUMA_REGION,
        )
        result = self.evaluate([write, read])
        read_alone = self.evaluate([read]).total_gbps
        write_alone = self.evaluate([write]).total_gbps
        return mixed_model.MixedOutcome(
            read_gbps=result.read_gbps,
            write_gbps=result.write_gbps,
            read_alone_gbps=read_alone,
            write_alone_gbps=write_alone,
        )
