"""Cluster sweep coordinator: shards, ships, steals, requeues, merges.

The coordinator owns the whole sweep: it computes every point's request
digest up front, shards the grid into chunks **by content hash** (so a
given point — and any duplicate of it — deterministically lands in the
same chunk regardless of worker count), ships one chunk at a time to
each joined worker, and assembles the returned column rows **by global
index in grid order**, which is what makes ``backend="cluster"``
bit-identical to serial no matter how chunks interleave, steal, or
requeue.

Straggler and fault handling:

* **Work-stealing** — a worker with nothing left to do and nothing
  pending triggers a steal against the victim with the most unfilled
  outstanding points; the victim's *reader* answers immediately (its
  compute may be busy), relinquishing about half of its queued points,
  which the coordinator re-ships to the idle worker as a fresh chunk.
  Revoked points move, they are never duplicated — per-point cache
  accounting stays exact.
* **Heartbeats** — any frame refreshes a worker's deadline; a worker
  silent past the timeout (or whose connection drops) is declared dead,
  its link is closed so late frames can never double-count, and its
  unfilled outstanding points are requeued for the survivors.

The shared cache tier lives here too: a content-addressed map from
request digest to ``(columns, row)``, backed by the parent service's
:class:`~repro.sweep.cache.DiskCache` when one is configured. A point
computed on any worker is published back (``cache_put``) and served to
every other worker (``cache_get``), with the same digests the local
tiers key by — which is why hit/miss accounting carries over unchanged
(see DESIGN.md §7).

Counters and cache statistics fold into the parent exactly as a local
sweep's would: per-item snapshots are buffered and merged **in grid
order** at the end (:func:`repro.obs.merge_snapshot`), stats deltas sum
as they arrive, and the coordinator emits the ``cluster.*`` counters for
its own mechanics.
"""

from __future__ import annotations

import asyncio
import pickle
import time
from collections import deque
from typing import Awaitable, Callable, Sequence

from repro.errors import GridPointError, SweepError
from repro.memsim.config import DirectoryState, MachineConfig
from repro.memsim.kernels import ResultColumns
from repro.obs import Recorder, merge_snapshot
from repro.sweep.cache import DiskCache, request_digest
from repro.sweep.cluster import protocol
from repro.sweep.cluster.config import CHUNKS_PER_WORKER, ClusterOptions
from repro.sweep.service import EvaluationService, request_key
from repro.workloads.grids import SweepPoint

__all__ = ["Coordinator", "SharedCache"]


class SharedCache:
    """Content-addressed shared tier: request digest -> ``(columns, row)``.

    In-memory for the duration of one sweep, optionally backed by the
    coordinator service's :class:`DiskCache` — the *same* content
    addressing the per-worker tiers use, so a digest means the same
    result everywhere. Disk corruption reads as a miss (``get_ref``'s
    contract) and the recompute's ``put`` rewrites the same
    content-addressed block, healing it.
    """

    def __init__(self, disk: DiskCache | None = None) -> None:
        self._memory: dict[str, tuple[ResultColumns, int]] = {}
        self._disk = disk

    def get(self, digest: str) -> tuple[ResultColumns, int] | None:
        found = self._memory.get(digest)
        if found is not None:
            return found
        if self._disk is not None:
            return self._disk.get_ref(digest)
        return None

    def put(self, digests: Sequence[str], columns: ResultColumns) -> None:
        for row, digest in enumerate(digests):
            self._memory.setdefault(digest, (columns, row))
        if self._disk is not None:
            self._disk.put_columns(list(digests), columns)


class _Link:
    """One connected worker."""

    def __init__(
        self,
        link_id: int,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        now: float,
    ) -> None:
        self.id = link_id
        self.reader = reader
        self.writer = writer
        #: chunk id -> set of global indices not yet answered.
        self.outstanding: dict[int, set[int]] = {}
        self.last_seen = now
        self.steal_pending = False
        self.alive = True
        self.task: asyncio.Task | None = None

    def unfilled(self) -> int:
        return sum(len(indices) for indices in self.outstanding.values())


class Coordinator:
    """Drives one grid sweep across connected workers.

    Use :meth:`start` (optionally :meth:`dial` for remote peers), then
    :meth:`finish` — or spawn local workers around it via
    :func:`repro.sweep.cluster.backend.run_grid_columns`. ``clock`` and
    ``sleep`` are injectable so the fault tests advance heartbeat
    timeouts on a fake clock in zero wall time.
    """

    def __init__(
        self,
        grid_name: str,
        points: Sequence[SweepPoint],
        *,
        config: MachineConfig,
        directory: DirectoryState,
        service: EvaluationService,
        recorder: Recorder,
        options: ClusterOptions | None = None,
        workers_hint: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
    ) -> None:
        self.options = options if options is not None else ClusterOptions()
        self._grid_name = grid_name
        self._points = list(points)
        self._config = config
        self._directory = directory
        self._service = service
        self._recorder = recorder
        self._observing = recorder.enabled
        self._clock = clock
        self._sleep = sleep
        self._digests = [
            request_digest(
                config, point.streams, request_key(config, point.streams, directory)[2]
            )
            for point in self._points
        ]
        self.shared = SharedCache(
            service.disk_cache if self.options.shared_cache else None
        )
        workers = workers_hint if workers_hint is not None else self.options.workers
        self._pending: deque[list[int]] = deque(self._shard(max(1, workers)))
        self._links: dict[int, _Link] = {}
        self._waiting: deque[_Link] = deque()
        self._filled: dict[int, tuple[ResultColumns, int]] = {}
        self._snapshots: list[tuple[int, dict]] = []
        self._failure: tuple[int, Exception, str | None, str | None] | None = None
        self._fatal: SweepError | None = None
        self._finished = asyncio.Event()
        self._next_chunk = 0
        self._next_link = 0
        self._server: asyncio.AbstractServer | None = None
        self._monitor_task: asyncio.Task | None = None
        self._started_at = 0.0
        self._joined = 0

    # ------------------------------------------------------------------
    # sharding
    # ------------------------------------------------------------------

    def _shard(self, workers: int) -> list[list[int]]:
        """Content-hash shards: same point content -> same chunk, always.

        The shard of a point is a pure function of its request digest,
        so duplicate-content points co-locate on one worker and the
        memo there serves them exactly as serial's would.
        """
        n_chunks = max(1, min(len(self._points), workers * CHUNKS_PER_WORKER))
        shards: list[list[int]] = [[] for _ in range(n_chunks)]
        for index, digest in enumerate(self._digests):
            shards[int(digest[:8], 16) % n_chunks].append(index)
        return [shard for shard in shards if shard]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0, sock=None
    ) -> tuple[str, int]:
        """Begin accepting workers; returns the bound address."""
        if sock is not None:
            self._server = await asyncio.start_server(
                self._on_connection, sock=sock, limit=protocol.MAX_FRAME_BYTES
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection, host, port, limit=protocol.MAX_FRAME_BYTES
            )
        self._started_at = self._clock()
        self._monitor_task = asyncio.ensure_future(self._monitor())
        bound = self._server.sockets[0].getsockname()
        return bound[0], bound[1]

    async def dial(self, host: str, port: int) -> None:
        """Connect out to a standing ``repro worker`` peer."""
        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_FRAME_BYTES
        )
        self._attach(reader, writer)

    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._attach(reader, writer)

    def _attach(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_link += 1
        link = _Link(self._next_link, reader, writer, self._clock())
        self._links[link.id] = link
        link.task = asyncio.ensure_future(self._serve_link(link))

    async def finish(self) -> tuple[list[str], ResultColumns]:
        """Wait for the sweep, tear down, and assemble in grid order."""
        if not self._points:
            self._finished.set()
        await self._finished.wait()
        if self._monitor_task is not None:
            self._monitor_task.cancel()
        for link in list(self._links.values()):
            link.alive = False
            try:
                await protocol.send_frame(link.writer, {"kind": "bye"})
            except (ConnectionError, OSError):  # simlint: ignore[silent-except] -- a worker that died after finishing cannot unfinish the sweep
                pass
            link.writer.close()
            if link.task is not None:
                link.task.cancel()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._fatal is not None:
            raise self._fatal  # simlint: ignore[foreign-raise] -- _fatal is only ever a SweepError
        # Counters merge in grid order, so the merged snapshot is
        # deterministic for a given partitioning.
        if self._observing:
            for _, snapshot in sorted(self._snapshots, key=lambda item: item[0]):
                merge_snapshot(self._recorder, snapshot)
        if self._failure is not None:
            index, original, label, grid = self._failure
            raise GridPointError(
                index, original, label=label, grid=grid,
                partial=self._prefix(stop=index),
            )
        out = ResultColumns()
        for index in range(len(self._points)):
            columns, row = self._filled[index]
            out.append_from(columns, row)
        return [point.label for point in self._points], out

    def _prefix(self, stop: int) -> ResultColumns:
        """The contiguous completed grid prefix, capped at ``stop``."""
        out = ResultColumns()
        for index in range(stop):
            ref = self._filled.get(index)
            if ref is None:
                break
            out.append_from(ref[0], ref[1])
        return out

    # ------------------------------------------------------------------
    # per-link protocol
    # ------------------------------------------------------------------

    async def _serve_link(self, link: _Link) -> None:
        try:
            join = await protocol.read_frame(link.reader)
            if join is None or join.get("kind") != "join":
                raise SweepError("cluster worker did not join")
            if join.get("protocol") != protocol.CLUSTER_PROTOCOL:
                raise SweepError(
                    f"cluster worker speaks {join.get('protocol')!r}, "
                    f"expected {protocol.CLUSTER_PROTOCOL!r}"
                )
            link.last_seen = self._clock()
            self._joined += 1
            if self._observing:
                self._recorder.incr("cluster.workers_count")
            await protocol.send_frame(link.writer, {
                "kind": "hello",
                "protocol": protocol.CLUSTER_PROTOCOL,
                "config": protocol.encode_blob(self._config),
                "directory": protocol.encode_blob(self._directory),
                "grid": self._grid_name,
                "observing": self._observing,
                "shared_cache": self.options.shared_cache,
                "points_per_item": self.options.points_per_item,
                "heartbeat_seconds": self.options.heartbeat_seconds,
            })
            await self._dispatch(link)
            while link.alive:
                frame = await protocol.read_frame(link.reader)
                if frame is None:
                    break
                link.last_seen = self._clock()
                await self._handle(link, frame)
        except (SweepError, ConnectionError, asyncio.IncompleteReadError):  # simlint: ignore[silent-except] -- a broken link is handled below as a dead worker, not an error
            pass
        except asyncio.CancelledError:
            return
        if link.alive and not self._finished.is_set():
            self._on_dead(link)

    async def _handle(self, link: _Link, frame: dict) -> None:
        kind = frame["kind"]
        if kind == "heartbeat":
            if self._observing:
                self._recorder.incr("cluster.heartbeats_count")
        elif kind == "result":
            self._merge_result(link, frame)
            if not link.outstanding:
                await self._dispatch(link)
        elif kind == "stolen":
            await self._on_stolen(link, frame)
        elif kind == "failed":
            self._on_failed(frame)
        elif kind == "cache_get":
            await self._answer_cache_get(link, frame)
        elif kind == "cache_put":
            self.shared.put(
                [str(d) for d in frame["digests"]],
                protocol.decode_blob(frame["columns"]),
            )
        else:
            raise SweepError(f"coordinator got unknown frame kind {kind!r}")

    def _merge_result(self, link: _Link, frame: dict) -> None:
        indices = [int(i) for i in frame["indices"]]
        columns = protocol.decode_blob(frame["columns"])
        for row, index in enumerate(indices):
            # First result wins: a requeue after a late-but-delivered
            # result must not overwrite bit-identical rows (they are
            # identical anyway; first-wins just makes that explicit).
            self._filled.setdefault(index, (columns, row))
        chunk = int(frame["chunk"])
        remaining = link.outstanding.get(chunk)
        if remaining is not None:
            remaining.difference_update(indices)
            if not remaining:
                del link.outstanding[chunk]
        snapshot = frame.get("snapshot")
        if snapshot is not None and indices:
            self._snapshots.append((min(indices), snapshot))
        hits, misses, disk_hits = (int(n) for n in frame["stats"])
        self._service.stats.hits += hits
        self._service.stats.misses += misses
        self._service.stats.disk_hits += disk_hits
        if self._observing:
            self._recorder.observe(
                "cluster.worker.wall_seconds", float(frame["wall"])
            )
        if len(self._filled) == len(self._points):
            self._finished.set()

    def _on_failed(self, frame: dict) -> None:
        partial = protocol.decode_blob(frame["partial"])
        partial_indices = [int(i) for i in frame["partial_indices"]]
        if isinstance(partial, ResultColumns):
            for row, index in enumerate(partial_indices):
                self._filled.setdefault(index, (partial, row))
        if self._failure is None:
            original = protocol.decode_blob(frame["error"])
            if not isinstance(original, Exception):  # defensive: blob abuse
                original = SweepError(str(original))
            label = frame.get("label")
            grid = frame.get("grid")
            self._failure = (
                int(frame["index"]),
                original,
                str(label) if label is not None else None,
                str(grid) if grid is not None else None,
            )
            self._finished.set()

    # ------------------------------------------------------------------
    # dispatch, stealing, requeue
    # ------------------------------------------------------------------

    async def _ship(self, link: _Link, indices: list[int]) -> None:
        try:
            points = protocol.encode_blob(tuple(self._points[i] for i in indices))
        except (pickle.PicklingError, AttributeError, TypeError) as exc:
            # A point that does not pickle can reach no worker: fail the
            # sweep now rather than leave its chunk in flight forever.
            fatal = SweepError(
                f"sweep {self._grid_name!r} failed: cannot ship points to "
                f"a cluster worker: {exc}"
            )
            fatal.__cause__ = exc
            self._fatal = fatal
            self._finished.set()
            return
        self._next_chunk += 1
        chunk = self._next_chunk
        link.outstanding[chunk] = set(indices)
        if self._observing:
            self._recorder.incr("cluster.chunks.shipped_count")
        await protocol.send_frame(link.writer, {
            "kind": "chunk",
            "chunk": chunk,
            "indices": indices,
            "digests": [self._digests[i] for i in indices],
            "points": points,
        })

    async def _dispatch(self, link: _Link) -> None:
        """Give an out-of-work worker its next chunk, or arrange a steal."""
        if self._finished.is_set() or self._failure is not None:
            return
        if self._pending:
            await self._ship(link, self._pending.popleft())
            return
        victim = self._steal_victim()
        if victim is not None:
            victim.steal_pending = True
            self._waiting.append(link)
            await protocol.send_frame(
                victim.writer, {"kind": "steal", "req": link.id}
            )
            return
        self._waiting.append(link)

    def _steal_victim(self) -> _Link | None:
        """The live worker with the most unfilled points worth splitting."""
        best: _Link | None = None
        for link in self._links.values():
            if not link.alive or link.steal_pending:
                continue
            # A victim must hold more than one in-flight item's worth —
            # the executing item cannot be revoked, so anything smaller
            # would answer with an empty steal.
            if link.unfilled() <= self.options.points_per_item:
                continue
            if best is None or link.unfilled() > best.unfilled():
                best = link
        return best

    async def _on_stolen(self, victim: _Link, frame: dict) -> None:
        victim.steal_pending = False
        indices = [int(i) for i in frame["indices"]]
        stolen = [i for i in indices if i not in self._filled]
        for remaining in victim.outstanding.values():
            remaining.difference_update(indices)
        victim.outstanding = {
            chunk: remaining
            for chunk, remaining in victim.outstanding.items()
            if remaining
        }
        if stolen:
            if self._observing:
                self._recorder.incr("cluster.chunks.stolen_count")
            thief = self._next_waiting()
            if thief is not None:
                await self._ship(thief, stolen)
            else:
                self._pending.append(stolen)
        elif self._waiting:
            # The victim drained first; retry dispatch for one waiter
            # (it may find another victim, or genuinely go idle).
            thief = self._next_waiting()
            if thief is not None:
                await self._dispatch(thief)

    def _next_waiting(self) -> _Link | None:
        while self._waiting:
            link = self._waiting.popleft()
            if link.alive and not link.outstanding:
                return link
        return None

    async def _answer_cache_get(self, link: _Link, frame: dict) -> None:
        digests = [str(d) for d in frame["digests"]]
        found: list[str] = []
        rows = ResultColumns()
        for digest in digests:
            ref = self.shared.get(digest)
            if ref is not None:
                found.append(digest)
                rows.append_from(ref[0], ref[1])
        await protocol.send_frame(link.writer, {
            "kind": "cache_found",
            "req": frame["req"],
            "digests": found,
            "columns": protocol.encode_blob(rows) if found else None,
        })

    # ------------------------------------------------------------------
    # death and requeue
    # ------------------------------------------------------------------

    def _on_dead(self, link: _Link) -> None:
        """Close a dead worker's link and requeue its unfilled points."""
        if not link.alive:
            return
        link.alive = False
        self._links.pop(link.id, None)
        link.writer.close()
        if link.task is not None and link.task is not asyncio.current_task():
            link.task.cancel()
        requeued = [
            [index for index in sorted(indices) if index not in self._filled]
            for indices in link.outstanding.values()
        ]
        requeued = [chunk for chunk in requeued if chunk]
        link.outstanding = {}
        if requeued:
            self._pending.extend(requeued)
            if self._observing:
                self._recorder.incr(
                    "cluster.chunks.requeued_count", len(requeued)
                )
        if not self._links and not self._finished.is_set():
            self._fatal = SweepError(
                f"sweep {self._grid_name!r} failed: every cluster worker died"
            )
            self._finished.set()
            return
        if self._pending:
            asyncio.ensure_future(self._feed_waiting())

    async def _feed_waiting(self) -> None:
        while self._pending:
            link = self._next_waiting()
            if link is None:
                return
            try:
                await self._ship(link, self._pending.popleft())
            except (ConnectionError, OSError):
                # _ship registered the chunk in link.outstanding before
                # writing, so declaring the link dead requeues it.
                self._on_dead(link)

    async def _monitor(self) -> None:
        """Declare silent workers dead once the heartbeat timeout lapses."""
        timeout = self.options.heartbeat_timeout_seconds
        interval = max(timeout / 4.0, self.options.heartbeat_seconds / 2.0)
        while not self._finished.is_set():
            await self._sleep(interval)
            now = self._clock()
            if (
                not self._links
                and self._joined == 0
                and now - self._started_at > self.options.join_timeout_seconds
            ):
                self._fatal = SweepError(
                    f"sweep {self._grid_name!r} failed: no cluster worker "
                    f"joined within {self.options.join_timeout_seconds:.0f}s"
                )
                self._finished.set()
                return
            for link in list(self._links.values()):
                if now - link.last_seen > timeout:
                    self._on_dead(link)
