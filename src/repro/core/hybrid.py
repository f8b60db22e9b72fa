"""Hybrid PMEM-DRAM placement planning (the paper's future work, §9).

The paper closes with "we plan to transfer our insights to hybrid
PMEM-DRAM setups" and motivates the split in §5.2: DRAM's random-access
bandwidth, at full channel use, is ~4x PMEM's, while sequential scans
lose only ~2-3x — so scarce DRAM should hold the *random-access*
structures (hash indexes, intermediates) and PMEM the *sequentially
scanned* base data.

This module turns that principle into a planner: given the structures of
a workload (size, traffic, access pattern) and a DRAM budget, it places
each structure to maximize the modeled time saved, via a greedy
benefit-density knapsack — and can emit the corresponding hybrid SSB
deployment profile.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.memsim import BandwidthModel, DirectoryState, MediaKind, Op, StreamSpec
from repro.memsim.spec import Pattern
from repro.units import GB


class StructureKind(enum.Enum):
    """Dominant access pattern of a placed structure."""

    SEQUENTIAL = "sequential"   # scanned base tables, logs
    RANDOM = "random"           # hash indexes, point-lookup structures


@dataclass(frozen=True)
class Structure:
    """One placeable piece of the workload's data."""

    name: str
    size_bytes: int
    #: Bytes the workload moves through this structure per query round.
    traffic_bytes: float
    kind: StructureKind
    #: Access granularity for random structures (bucket/node size).
    access_size: int = 256

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise ConfigurationError(f"{self.name}: size must be positive")
        if self.traffic_bytes < 0:
            raise ConfigurationError(f"{self.name}: traffic cannot be negative")


@dataclass
class Placement:
    """The planner's decision for one structure."""

    structure: Structure
    media: MediaKind
    seconds_saved: float


@dataclass
class HybridPlan:
    """Complete placement plan under a DRAM budget."""

    dram_budget: int
    placements: list[Placement] = field(default_factory=list)

    @property
    def dram_used(self) -> int:
        return sum(
            p.structure.size_bytes
            for p in self.placements
            if p.media is MediaKind.DRAM
        )

    @property
    def total_seconds_saved(self) -> float:
        """Total query seconds saved by the DRAM placements in this plan."""
        return sum(p.seconds_saved for p in self.placements if p.media is MediaKind.DRAM)

    def media_of(self, name: str) -> MediaKind:
        for placement in self.placements:
            if placement.structure.name == name:
                return placement.media
        raise ConfigurationError(f"no structure named {name!r} in the plan")

    def describe(self) -> str:
        lines = [
            f"hybrid plan (DRAM budget {self.dram_budget / GB:.1f} GB, "
            f"used {self.dram_used / GB:.1f} GB, "
            f"saves {self.total_seconds_saved:.2f}s per round):"
        ]
        for placement in self.placements:
            s = placement.structure
            lines.append(
                f"  {s.name:<24} {s.size_bytes / GB:7.2f} GB {s.kind.value:<10} "
                f"-> {placement.media.value.upper():<4} "
                f"(saves {placement.seconds_saved:.3f}s)"
            )
        return "\n".join(lines)


class HybridPlanner:
    """Places structures on PMEM or DRAM to maximize modeled time saved."""

    def __init__(self, model: BandwidthModel | None = None, threads: int = 18) -> None:
        if threads < 1:
            raise ConfigurationError("need at least one thread")
        self.model = model if model is not None else BandwidthModel()
        self.threads = threads
        # Placement decisions are steady-state comparisons, priced through
        # the (memoized) evaluation service with an explicit warm state.
        self._directory = DirectoryState.warm(self.model.config.topology)

    def _seconds(self, structure: Structure, media: MediaKind) -> float:
        """Time to move the structure's traffic on ``media``."""
        if structure.kind is StructureKind.SEQUENTIAL:
            spec = StreamSpec(
                op=Op.READ, threads=self.threads, access_size=4096, media=media
            )
        else:
            spec = StreamSpec(
                op=Op.READ,
                threads=self.threads,
                access_size=structure.access_size,
                media=media,
                pattern=Pattern.RANDOM,
                region_bytes=max(structure.size_bytes, structure.access_size),
            )
        gbps = self.model.evaluate((spec,), self._directory).total_gbps
        return structure.traffic_bytes / (gbps * GB)

    def benefit(self, structure: Structure) -> float:
        """Seconds saved per round by promoting the structure to DRAM."""
        return max(
            0.0,
            self._seconds(structure, MediaKind.PMEM)
            - self._seconds(structure, MediaKind.DRAM),
        )

    def plan(self, structures: list[Structure], dram_budget: int) -> HybridPlan:
        """Greedy benefit-density knapsack over the DRAM budget.

        Structures are promoted to DRAM in order of seconds-saved per
        byte until the budget is exhausted; everything else stays on
        PMEM (which always fits — that is PMEM's selling point).
        """
        if dram_budget < 0:
            raise ConfigurationError("DRAM budget cannot be negative")
        names = [s.name for s in structures]
        if len(set(names)) != len(names):
            raise ConfigurationError("structure names must be unique")
        plan = HybridPlan(dram_budget=dram_budget)
        scored = sorted(
            structures,
            key=lambda s: self.benefit(s) / s.size_bytes,
            reverse=True,
        )
        remaining = dram_budget
        for structure in scored:
            saving = self.benefit(structure)
            if saving > 0 and structure.size_bytes <= remaining:
                plan.placements.append(
                    Placement(structure=structure, media=MediaKind.DRAM,
                              seconds_saved=saving)
                )
                remaining -= structure.size_bytes
            else:
                plan.placements.append(
                    Placement(structure=structure, media=MediaKind.PMEM,
                              seconds_saved=saving)
                )
        return plan


def ssb_structures(runner, target_sf: float = 100.0) -> list[Structure]:
    """Derive the SSB's placeable structures from a runner's traffic.

    One structure per dimension index (random) plus the fact table
    (sequential), with traffic summed over all thirteen queries.
    """
    from repro.ssb.queries import ALL_QUERIES
    from repro.ssb.storage import HANDCRAFTED_PMEM

    ratio = target_sf / runner.measured_sf
    region_factors = runner._region_factors(target_sf)
    traffic = runner._traffic_for(HANDCRAFTED_PMEM, ALL_QUERIES)

    fact_traffic = 0.0
    fact_bytes = 0.0
    index_traffic: dict[str, float] = {}
    index_bytes: dict[str, float] = {}
    for query_traffic in traffic.values():
        scaled = query_traffic.scaled(ratio, region_factors)
        for op in scaled.operators:
            if op.name == "fact-scan":
                fact_traffic += op.seq_read_bytes
                fact_bytes = max(fact_bytes, op.seq_read_bytes)
            elif op.name.startswith("probe(") and op.region_table:
                index_traffic[op.region_table] = (
                    index_traffic.get(op.region_table, 0.0) + op.random_read_bytes
                )
                index_bytes[op.region_table] = max(
                    index_bytes.get(op.region_table, 0.0), op.random_region_bytes
                )
    structures = [
        Structure(
            name="lineorder (fact table)",
            size_bytes=int(fact_bytes),
            traffic_bytes=fact_traffic,
            kind=StructureKind.SEQUENTIAL,
        )
    ]
    for table in sorted(index_traffic):
        structures.append(
            Structure(
                name=f"{table} index",
                size_bytes=max(int(index_bytes[table]), 256),
                traffic_bytes=index_traffic[table],
                kind=StructureKind.RANDOM,
            )
        )
    return structures
