"""serve-mixed: a closed loop of the figures' requests against a BandwidthServer.

One process drives the server over loopback TCP: 2 connections, each
keeping 16 requests outstanding and sending the next only when a reply
arrives. The requests are the paper's own: every outermost call the 13
analytic experiments make to the evaluation service, captured once per
run, becomes one frame. A grid call becomes a multi-point ``sweep``
frame and a single-point call an ``evaluate`` frame, with the call's
ablation toggles and warm socket pairs. A pass sends every call's frame
five times, in an order the seed draws afresh for each pass, so the
point families (sequential, random, far-socket, unpinned, DRAM, fsdax,
multi-stream) and the sweep frames keep the shares the figures give
them, and about 80% of lookups hit the memo. Each pass starts a fresh
server over a fresh ``EvaluationService``, so every pass does the same
evaluation work. No SSB runs here.

Every answer is checked against ``EvaluationService(memoize=False)
.evaluate`` of the same point, computed before timing starts.
"""

from __future__ import annotations

import asyncio
import json
import random
from time import perf_counter, process_time

from perfbench.common import PassResult, cold_start_seconds

CONNECTIONS = 2
OUTSTANDING = 16
#: Frames per pass of each of the pool's calls: after a call's first
#: frame its points hit the memo, so about four lookups in five do.
REPEATS = 5
WARMUP_FRAMES = 180
#: Highest percentile that repeated within about a tenth over five seeds.
#: p99 falls among the 65 sweep frames of a pass and spread twice as wide.
TAIL_PERCENTILE = 0.98
SETUP_REPS = 5
SETUP_METRICS: tuple[str, ...] = ()
#: No hooks: a sample inside the closed loop would stall every request in
#: flight, so the samples just before and after each pass bracket it.
SAMPLE_HOOKS = ()
RESPONSE_LIMIT = 1 << 20
#: The registry's experiments that execute SSB: their service calls
#: price SSB traffic rather than evaluate figure points.
SSB_EXPERIMENTS = ("fig14", "table1")

#: Set-up: a fresh interpreter importing the server and opening its port.
COLD_START = """
import asyncio
from repro.serve.server import BandwidthServer

async def main():
    server = BandwidthServer()
    await server.serve_tcp("127.0.0.1", 0)
    await server.close()

asyncio.run(main())
"""


def call_frame(method: str, config, points, directory) -> dict:
    """The wire frame asking the server for what one service call asked."""
    from repro.serve import protocol

    if method == "evaluate":
        frame: dict = {"kind": "evaluate", "streams": [protocol.encode_stream(s) for s in points]}
    else:
        frame = {
            "kind": "sweep",
            "points": [[protocol.encode_stream(s) for s in point] for point in points],
        }
    if not config.prefetcher_enabled:
        frame["prefetcher"] = False
    if not config.write_combining_enabled:
        frame["write_combining"] = False
    if directory is not None and directory.warm_pairs:
        frame["warm_pairs"] = sorted(list(pair) for pair in directory.warm_pairs)
    if protocol.decode_request(frame).config != config:
        raise ValueError(f"a {method} call uses a machine config no frame can name")
    return frame


def experiment_frames() -> list[dict]:
    """One frame per outermost service call of the analytic experiments."""
    from repro.experiments.registry import all_experiment_ids, get_experiment
    from repro.sweep.service import EvaluationService, set_default_service

    calls: list[tuple] = []
    depth = [0]
    originals = {
        name: getattr(EvaluationService, name) for name in ("evaluate", "evaluate_grid_columns")
    }

    def capture(name):
        original = originals[name]

        def recording(self, config, points, directory=None, **kwargs):
            # The grid path falls back to ``evaluate``; keep the outer call.
            if not depth[0]:
                calls.append((name, config, tuple(points), directory))
            depth[0] += 1
            try:
                return original(self, config, points, directory, **kwargs)
            finally:
                depth[0] -= 1

        return recording

    set_default_service(None)
    try:
        for name in originals:
            setattr(EvaluationService, name, capture(name))
        for exp_id in all_experiment_ids():
            if exp_id not in SSB_EXPERIMENTS:
                get_experiment(exp_id).runner()
    finally:
        for name, original in originals.items():
            setattr(EvaluationService, name, original)
        set_default_service(None)
    return [call_frame(*call) for call in calls]


def reference_answer(frame: dict) -> dict:
    """The result a correct server returns for ``frame``, computed directly."""
    from repro.serve import protocol
    from repro.sweep.service import EvaluationService

    request = protocol.decode_request(frame)
    service = EvaluationService(memoize=False)
    if request.kind == "evaluate":
        return protocol.encode_result(
            service.evaluate(request.config, request.streams, request.directory)
        )
    return {"points": [
        protocol.encode_result(service.evaluate(request.config, point, request.directory))
        for point in request.points
    ]}


def build_pool():
    """The figures' frames, each call's expected answer, and one pass's draws."""
    pool = experiment_frames()
    answers = [reference_answer(frame) for frame in pool]
    draws = [call for call in range(len(pool)) for _ in range(REPEATS)]
    return pool, answers, draws


async def _drive(reader, writer, frames, latencies, responses) -> None:
    """Closed loop on one connection: ``OUTSTANDING`` requests in flight."""
    sent_at: dict[int, float] = {}
    position = 0

    def send() -> None:
        nonlocal position
        index, line = frames[position]
        position += 1
        sent_at[index] = perf_counter()
        writer.write(line)

    for _ in range(min(OUTSTANDING, len(frames))):
        send()
    await writer.drain()
    for _ in range(len(frames)):
        line = await reader.readline()
        now = perf_counter()
        if not line:
            raise ConnectionError("server closed the connection mid-pass")
        response = json.loads(line)
        index = response["id"]
        latencies.append(now - sent_at.pop(index))
        responses[index] = response
        if position < len(frames):
            send()
            await writer.drain()


class Workload:
    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.pool, self.answers, self.draws = build_pool()
        self.evaluates = sum(1 for call in self.draws if self.pool[call]["kind"] == "evaluate")
        self.orders = random.Random(seed)

    def next_order(self) -> tuple[list[bytes], list[dict]]:
        """The next pass's frames in a fresh seeded order, and their answers.

        Every pass sends the same frames; only the order changes, so a
        run's latency percentiles cover many orders, not one shuffle.
        """
        draws = list(self.draws)
        self.orders.shuffle(draws)
        frames = [
            json.dumps({"id": i, **self.pool[call]}, separators=(",", ":")).encode("utf-8")
            + b"\n"
            for i, call in enumerate(draws)
        ]
        return frames, [self.answers[call] for call in draws]

    def setup(self) -> None:
        cold_start_seconds(COLD_START)

    def prepare(self) -> None:
        """One short untimed pass: imports and evaluation contexts warm up."""
        frames, _ = self.next_order()
        asyncio.run(self._pass(frames[:WARMUP_FRAMES]))

    async def _pass(self, frames: list[bytes]):
        from repro.serve.server import BandwidthServer
        from repro.sweep.service import EvaluationService

        server = BandwidthServer(EvaluationService())
        host, port = await server.serve_tcp("127.0.0.1", 0)
        links = [
            await asyncio.open_connection(host, port, limit=RESPONSE_LIMIT)
            for _ in range(CONNECTIONS)
        ]
        indexed = list(enumerate(frames))
        latencies: list[float] = []
        responses: dict[int, dict] = {}
        try:
            start, cpu_start = perf_counter(), process_time()
            await asyncio.gather(*(
                _drive(reader, writer, indexed[c::CONNECTIONS], latencies, responses)
                for c, (reader, writer) in enumerate(links)
            ))
            wall, cpu = perf_counter() - start, process_time() - cpu_start
        finally:
            for _, writer in links:
                writer.close()
                await writer.wait_closed()
            await server.close()
        return wall, cpu, latencies, responses, server.stats

    def run_pass(self, tracer, speed) -> PassResult:
        frames, answers = self.next_order()
        wall, cpu, latencies, responses, stats = asyncio.run(self._pass(frames))
        problems = []
        for index, expected in enumerate(answers):
            response = responses.get(index)
            if response is None or not response.get("ok"):
                problems.append(f"request {index}: {response and response.get('error')}")
            elif response["result"] != expected:
                problems.append(f"request {index}: answer differs from direct evaluation")
        leaders = self.evaluates - stats.deduped
        return PassResult(
            wall_s=wall,
            latencies_s=latencies,
            attempted=len(frames),
            failed=len(problems),
            extras={
                "serve.batches": stats.batches,
                "serve.batch_points_mean": leaders / stats.batches if stats.batches else 0.0,
                "serve.dedup_rate": stats.deduped / self.evaluates,
                "serve.server_p50_ms": stats.latency_percentile(0.5) * 1000.0,
                "serve.cpu_s": cpu,
            },
            problems=problems,
        )
