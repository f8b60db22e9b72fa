"""Caches for the evaluation service: in-memory memo and on-disk store.

Both caches key on the *content* of an evaluation request — the
:class:`~repro.memsim.config.MachineConfig`, the stream tuple, and the
(normalized) :class:`~repro.memsim.config.DirectoryState`. The memo
cache uses the values' own hashes; the disk cache serializes the request
to canonical JSON and keys by its SHA-256. Results round-trip the disk
format bit-identically: Python's JSON encoder emits ``repr(float)``
(shortest round-tripping form), so every ``float`` survives exactly.

**Schema v2 — content-addressed column blocks.** A whole batch of
results is stored as one :class:`~repro.memsim.kernels.ResultColumns`
block file, content-addressed by the SHA-256 of its member request
digests, plus small per-prefix index shards mapping each request digest
to ``(block, row)``. A grid of hundreds of points becomes one block
write instead of hundreds of entry writes — the access-granularity
lesson of the source paper applied to the cache's own I/O. Both caches
store *references* into shared column batches wherever a batch exists;
per-point :class:`BandwidthResult` objects are materialized lazily as
views on delivery. Entries of any other schema read as a miss.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

try:  # pragma: no cover - always present on POSIX
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.errors import ConfigurationError, SchemaError
from repro.memsim.address import DaxMode
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.evaluation import BandwidthResult
from repro.memsim.kernels import COUNTER_COLUMNS, ResultColumns
from repro.memsim.scheduler import PinningPolicy
from repro.memsim.spec import Layout, Op, Pattern, StreamSpec
from repro.memsim.topology import MediaKind

#: One evaluation request: (config, streams, normalized directory).
CacheKey = tuple[MachineConfig, tuple[StreamSpec, ...], DirectoryState]

#: A cached result: either a standalone object or a row reference into a
#: shared column batch (materialized lazily via ``columns.view(row)``).
CacheValue = BandwidthResult | tuple[ResultColumns, int]


@dataclass
class CacheStats:
    """Hit/miss counters of one :class:`~repro.sweep.EvaluationService`."""

    hits: int = 0
    misses: int = 0
    disk_hits: int = 0

    @property
    def lookups(self) -> int:
        """Total evaluation requests seen (count, not bytes)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from a cache, 0..1."""
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def describe(self) -> str:
        line = (
            f"evaluation cache: {self.hits} hits / {self.misses} misses "
            f"({self.hit_rate * 100.0:.1f}% hit rate)"
        )
        if self.disk_hits:
            line += f", {self.disk_hits} served from disk"
        return line


class MemoCache:
    """Thread-safe in-memory result store keyed by request content.

    Values are :data:`CacheValue`: a grid evaluation memoizes
    ``(columns, row)`` references into its shared batch so that priming
    a thousand-point sweep costs zero per-point object construction; the
    per-point path still stores plain results. The service materializes
    a reference to a view only when the entry is actually delivered.
    """

    def __init__(self) -> None:
        self._results: dict[CacheKey, CacheValue] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._results)

    def get(self, key: CacheKey) -> CacheValue | None:
        with self._lock:
            return self._results.get(key)

    def put(self, key: CacheKey, result: CacheValue) -> None:
        with self._lock:
            self._results[key] = result

    def clear(self) -> None:
        with self._lock:
            self._results.clear()


# ----------------------------------------------------------------------
# canonical JSON encoding (disk keys and payloads)
# ----------------------------------------------------------------------


def _jsonable(value: object) -> object:
    """Fallback encoder for the non-JSON types inside memsim dataclasses."""
    if isinstance(value, (Op, Pattern, Layout, PinningPolicy, MediaKind, DaxMode)):
        return value.value
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return list(value)
    raise ConfigurationError(f"cannot serialize {type(value).__name__} for the cache")


def _canonical(payload: object) -> str:
    return json.dumps(payload, sort_keys=True, default=_jsonable)


def request_digest(
    config: MachineConfig,
    streams: tuple[StreamSpec, ...],
    directory: DirectoryState,
) -> str:
    """SHA-256 hex digest of the canonical JSON form of a request."""
    payload = {
        "config": dataclasses.asdict(config),
        "streams": [dataclasses.asdict(s) for s in streams],
        "directory": sorted(directory.warm_pairs),
    }
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def _spec_from_payload(payload: dict[str, object]) -> StreamSpec:
    return StreamSpec(
        op=Op(payload["op"]),
        threads=int(payload["threads"]),  # type: ignore[arg-type]
        access_size=int(payload["access_size"]),  # type: ignore[arg-type]
        media=MediaKind(payload["media"]),
        pattern=Pattern(payload["pattern"]),
        layout=Layout(payload["layout"]),
        pinning=PinningPolicy(payload["pinning"]),
        issuing_socket=int(payload["issuing_socket"]),  # type: ignore[arg-type]
        target_socket=int(payload["target_socket"]),  # type: ignore[arg-type]
        region_bytes=int(payload["region_bytes"]),  # type: ignore[arg-type]
        total_bytes=int(payload["total_bytes"]),  # type: ignore[arg-type]
        dax_mode=DaxMode(payload["dax_mode"]),
        prefaulted=bool(payload["prefaulted"]),
    )


#: Disk schema identifier; bumping it orphans every existing entry.
CACHE_SCHEMA = "repro.sweep.cache/2"


def columns_to_payload(
    columns: ResultColumns,
    digests: Sequence[str] | None = None,
) -> dict[str, object]:
    """JSON-ready structure-of-arrays form of a column batch.

    Floats stay exact (``repr`` round-trip); ``digests``, when given,
    records which request digest each row answers — the load path
    cross-checks it so an index shard pointing at the wrong block (or a
    stale block) reads as a miss, never as a wrong result.
    """
    payload: dict[str, object] = {
        "schema": CACHE_SCHEMA,
        "offsets": list(columns.offsets),
        "streams": {
            "specs": [dataclasses.asdict(spec) for spec in columns.specs],
            "gbps": list(columns.gbps),
            "solo_gbps": list(columns.solo_gbps),
            "notes": [list(notes) for notes in columns.stream_notes],
        },
        "counters": {
            name: list(getattr(columns, name)) for name in COUNTER_COLUMNS
        },
        "counter_notes": [list(notes) for notes in columns.counter_notes],
        "directory_after": [
            None if state is None else sorted(state.warm_pairs)
            for state in columns.directory_after
        ],
    }
    if digests is not None:
        payload["digests"] = list(digests)
    return payload


def columns_from_payload(payload: dict[str, object]) -> ResultColumns:
    """Inverse of :func:`columns_to_payload`, validating the shape.

    Raises :class:`~repro.errors.SchemaError` (or ``KeyError``/
    ``TypeError``/``ValueError`` from the primitive conversions) on any
    structural inconsistency (wrong schema, ragged columns, non-monotonic offsets);
    the disk cache maps those to a miss.
    """
    if payload.get("schema") != CACHE_SCHEMA:
        raise SchemaError(f"unknown cache schema: {payload.get('schema')!r}")
    offsets = [int(value) for value in payload["offsets"]]
    if not offsets or offsets[0] != 0:
        raise SchemaError("offsets must start at 0")
    if any(b < a for a, b in zip(offsets, offsets[1:])):
        raise SchemaError("offsets must be non-decreasing")
    n = len(offsets) - 1
    total = offsets[-1]
    streams = payload["streams"]
    counters = payload["counters"]
    columns = ResultColumns()
    columns.offsets = offsets
    columns.specs = [_spec_from_payload(entry) for entry in streams["specs"]]
    columns.gbps = list(streams["gbps"])
    columns.solo_gbps = list(streams["solo_gbps"])
    columns.stream_notes = [tuple(notes) for notes in streams["notes"]]
    for name in ("specs", "gbps", "solo_gbps", "stream_notes"):
        if len(getattr(columns, name)) != total:
            raise SchemaError(f"stream column {name!r} does not match offsets")
    for name in COUNTER_COLUMNS:
        column = list(counters[name])
        if len(column) != n:
            raise SchemaError(f"counter column {name!r} does not match offsets")
        setattr(columns, name, column)
    columns.counter_notes = [tuple(notes) for notes in payload["counter_notes"]]
    columns.directory_after = [
        None
        if pairs is None
        else DirectoryState(frozenset((pair[0], pair[1]) for pair in pairs))
        for pairs in payload["directory_after"]
    ]
    if len(columns.counter_notes) != n or len(columns.directory_after) != n:
        raise SchemaError("per-point columns do not match offsets")
    columns._views = [None] * n
    return columns


def block_digest(digests: Iterable[str]) -> str:
    """Content address of a block: SHA-256 over its member digests.

    Deterministic in the digests alone, so re-computing the same batch
    rewrites the same block file (which is how a corrupted block heals).
    """
    return hashlib.sha256("\n".join(digests).encode("utf-8")).hexdigest()


class DiskCache:
    """On-disk columnar result store (schema v2).

    Layout::

        <root>/blocks/<bd[:2]>/<bd>.json   one ResultColumns batch,
                                           content-addressed by
                                           :func:`block_digest`
        <root>/index/<digest[:2]>.json     shard mapping request digest
                                           -> [block digest, row]

    Entries written by a previous process are picked up transparently,
    which is what makes ``repro run --cache-dir`` useful across
    invocations. Corrupt, truncated, or wrong-schema entries are
    treated as misses; recomputing rewrites them as column blocks.

    Loaded blocks are kept in memory so a sweep resolving hundreds of
    digests against one block parses it once.
    """

    SCHEMA = CACHE_SCHEMA

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cache directory {self.root} is not usable: {exc}"
            ) from exc
        #: block digest -> (columns, member request digests)
        self._blocks: dict[str, tuple[ResultColumns, list[str]]] = {}
        self._lock = threading.Lock()

    def _block_path(self, digest: str) -> Path:
        return self.root / "blocks" / digest[:2] / f"{digest}.json"

    def _index_path(self, digest: str) -> Path:
        return self.root / "index" / f"{digest[:2]}.json"

    @contextlib.contextmanager
    def _shard_lock(self, prefix: str) -> Iterator[None]:
        """Exclusive advisory lock for one index shard's read-merge-write.

        Shards are shared files: without the lock, two cluster workers
        merging the same shard concurrently would each read the old
        shard and the last writer would silently drop the other's new
        entries (a lost update, surfacing as warm-run cache misses).
        ``flock`` is per-open-file, so threads and processes both
        serialize here; on platforms without ``fcntl`` the merge runs
        unlocked, degrading to the racy-but-atomic behavior.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        path = self.root / "index" / f".{prefix}.lock"
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            handle = open(path, "w", encoding="utf-8")
        except OSError as exc:  # pragma: no cover - permissions only
            raise ConfigurationError(
                f"could not lock cache index shard {path}: {exc}"
            ) from exc
        try:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield
        finally:
            handle.close()  # closing releases the flock

    def _load_block(self, digest: str) -> tuple[ResultColumns, list[str]] | None:
        with self._lock:
            cached = self._blocks.get(digest)
        if cached is not None:
            return cached
        try:
            payload = json.loads(self._block_path(digest).read_text(encoding="utf-8"))
            columns = columns_from_payload(payload)
            members = [str(entry) for entry in payload["digests"]]
        except (OSError, KeyError, TypeError, ValueError, SchemaError):
            return None
        if len(members) != len(columns):
            return None
        loaded = (columns, members)
        with self._lock:
            self._blocks[digest] = loaded
        return loaded

    def get_ref(self, digest: str) -> tuple[ResultColumns, int] | None:
        """Resolve a request digest to ``(columns, row)``, or a miss.

        The row's recorded digest must match the request's: an index
        shard pointing into the wrong or stale block is a miss.
        """
        try:
            shard = json.loads(self._index_path(digest).read_text(encoding="utf-8"))
            if shard.get("schema") != CACHE_SCHEMA:
                return None
            entry = shard["entries"].get(digest)
        except (OSError, AttributeError, KeyError, TypeError, ValueError):
            return None
        if entry is None:
            return None
        try:
            block, row = str(entry[0]), int(entry[1])
        except (IndexError, TypeError, ValueError):
            return None
        loaded = self._load_block(block)
        if loaded is None:
            return None
        columns, members = loaded
        if not 0 <= row < len(columns) or members[row] != digest:
            return None
        return columns, row

    def get(self, digest: str) -> BandwidthResult | None:
        """Materialized view of the cached result, or ``None``.

        The returned object is a shared lazy view; callers that mutate
        results (the evaluation service annotates counters) must copy
        first — :meth:`EvaluationService._deliver` always does.
        """
        ref = self.get_ref(digest)
        if ref is None:
            return None
        columns, row = ref
        return columns.view(row)

    def put(self, digest: str, result: BandwidthResult) -> None:
        """Store one result (a single-row block)."""
        self.put_columns([digest], ResultColumns.from_results([result]))

    def put_columns(self, digests: Sequence[str], columns: ResultColumns) -> None:
        """Store a whole batch as one content-addressed block.

        One block write plus one index-shard rewrite per distinct digest
        prefix — for a dense sweep axis that is two or three files
        instead of hundreds. Writes are tmp-then-replace atomic, so
        concurrent readers (other worker processes) never see a torn
        entry; index shards merge read-modify-write under a per-shard
        advisory lock (:meth:`_shard_lock`), so concurrent writers
        union their entries instead of losing the race.
        """
        if not digests:
            return
        if len(digests) != len(columns):
            raise ConfigurationError(
                f"{len(digests)} digests for {len(columns)} column rows"
            )
        block = block_digest(digests)
        block_path = self._block_path(block)
        block_path.parent.mkdir(parents=True, exist_ok=True)
        # pid-unique tmp name: concurrent writers of the same block must
        # not interleave writes into one shared tmp file.
        tmp = block_path.with_suffix(f".{os.getpid()}.tmp")
        tmp.write_text(
            _canonical(columns_to_payload(columns, digests)), encoding="utf-8"
        )
        tmp.replace(block_path)
        with self._lock:
            self._blocks[block] = (columns, list(digests))
        by_shard: dict[str, dict[str, list[object]]] = {}
        for row, digest in enumerate(digests):
            by_shard.setdefault(digest[:2], {})[digest] = [block, row]
        for prefix, entries in by_shard.items():
            path = self.root / "index" / f"{prefix}.json"
            with self._shard_lock(prefix):
                merged: dict[str, object] = {}
                try:
                    shard = json.loads(path.read_text(encoding="utf-8"))
                    if shard.get("schema") == CACHE_SCHEMA:
                        merged = dict(shard["entries"])
                except (OSError, AttributeError, KeyError, TypeError, ValueError):
                    merged = {}
                merged.update(entries)
                path.parent.mkdir(parents=True, exist_ok=True)
                tmp = path.with_suffix(f".{os.getpid()}.tmp")
                tmp.write_text(
                    _canonical({"schema": CACHE_SCHEMA, "entries": merged}),
                    encoding="utf-8",
                )
                tmp.replace(path)
