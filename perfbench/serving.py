"""Workload ``serve-mixed``: the res-5 national location table served over TCP.

A child process (:mod:`server_child`) builds the map, the 4.66M-row
location table and the serve index, and runs ``ServeServer``; set-up is the
wall from starting that process to its server accepting connections,
median of three. This process is the only load generator and opens
``nproc`` connections at most (two on the reference box).

Phase 1, closed loop: every connection keeps four 128-id ``point_id``
batches outstanding and sends the next as each reply arrives. Requests go
in blocks of a fixed size; the median block wall gives saturation
throughput.

Phase 2, open loop at a fixed rate well under saturation: ``point_id``
batches on one connection on a fixed schedule, whether or not earlier
replies have come back, and on the other connection a national ``tiles``
request and a ``set_params`` scenario change once a second each. Every
latency is timed from the request's due time, so a stall counts against
every request due while it lasts; how late the generator sent is reported.

Replies are parsed in full only for the sampled checks; every reply's
``ok``, ``epoch`` and ``scenario_id`` are read from its prefix.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import re
import time
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import List

import numpy as np

import layers
import server_child
from common import TOY_BBOX, Outcome, median, nearest_rank, nproc

BATCH = 128
ID_POOL = 256
SETUP_REPEATS = 3
BLOCK_REQUESTS = 400
DEPTH = 4
#: Point batches per second in the open loop; saturation on a 2-core box
#: is 1,000-2,300 batches/s.
OPEN_RATE = 200.0
HEAVY_PERIOD_S = 1.0
CLOSED_SHARE = 0.5
#: Every n-th point reply is parsed in full and checked; a prime, so the
#: samples rotate through the id pool.
SAMPLE_EVERY = 97
#: Covers a national tiles reply (about 442 KB) with room to spare.
READ_LIMIT = 16 * 1024 * 1024
READY_TIMEOUT_S = 120.0
#: (oversubscription, beamspread) of successive ``set_params`` calls.
SCENARIOS = ((15.0, 2.0), (25.0, 1.0), (20.0, 1.0))

_POINT = re.compile(rb'\{"ok": true, "epoch": (\d+), "scenario_id": "(\w+)"')
_TILES = re.compile(rb'\{"ok": true, "epoch": (\d+), "collection"')


@dataclass
class LoadState:
    """Requests, replies and timings of one load run (client side)."""

    pool: List[bytes]
    ids: np.ndarray
    sent: int = 0
    latencies: List[float] = field(default_factory=list)
    lateness: List[float] = field(default_factory=list)
    tiles_ms: List[float] = field(default_factory=list)
    update_ms: List[float] = field(default_factory=list)
    #: (batch index, epoch known when sent, reply epoch, reply scenario)
    points: List[tuple] = field(default_factory=list)
    samples: List[tuple] = field(default_factory=list)
    tiles: List[bytes] = field(default_factory=list)
    updates: List[tuple] = field(default_factory=list)
    bad: List[str] = field(default_factory=list)
    known_epoch: int = 0

    def take(self) -> int:
        index = self.sent
        self.sent += 1
        return index

    def point_reply(self, index: int, known: int, line: bytes) -> None:
        match = _POINT.match(line)
        if match is None:
            self.bad.append(f"point_id[{index}]: {line[:120]!r}")
            return
        self.points.append(
            (index, known, int(match[1]), match[2].decode())
        )
        if index % SAMPLE_EVERY == 0:
            self.samples.append((index, line))


class Connection:
    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", port, limit=READ_LIMIT
        )
        return cls(reader, writer)

    async def send(self, payload: bytes) -> None:
        self.writer.write(payload)
        await self.writer.drain()

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def closed_block(conns, state: LoadState, requests: int) -> float:
    """``requests`` batches split over the connections; returns the wall.

    Each connection keeps ``DEPTH`` requests outstanding and sends the next
    one as each reply arrives, so the server never waits on the client.
    """

    async def worker(conn: Connection, count: int) -> None:
        in_flight = deque()

        async def send() -> None:
            index = state.take()
            in_flight.append(index)
            await conn.send(state.pool[index % len(state.pool)])

        for _ in range(min(DEPTH, count)):
            await send()
        for done in range(count):
            line = await conn.reader.readline()
            state.point_reply(in_flight.popleft(), state.known_epoch, line)
            if done + len(in_flight) + 1 < count:
                await send()

    share = requests // len(conns)
    start = time.perf_counter()
    await asyncio.gather(*(worker(c, share) for c in conns))
    return time.perf_counter() - start


async def closed_phase(conns, state, seconds, min_blocks, block) -> List[float]:
    walls = []
    deadline = time.perf_counter() + seconds
    while len(walls) < min_blocks or time.perf_counter() < deadline:
        walls.append(await closed_block(conns, state, block))
    return walls


async def open_phase(points: Connection, heavy: Connection, state, seconds) -> None:
    """Fixed-rate point batches plus scheduled tiles and scenario changes."""
    count = max(1, int(seconds * OPEN_RATE))
    heavy_ops = max(1, int(seconds / HEAVY_PERIOD_S))
    in_flight = deque()
    t0 = time.perf_counter() + 0.05

    async def sender() -> None:
        for k in range(count):
            due = t0 + k / OPEN_RATE
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            index = state.take()
            state.lateness.append(time.perf_counter() - due)
            in_flight.append((due, index, state.known_epoch))
            await points.send(state.pool[index % len(state.pool)])

    async def receiver() -> None:
        for _ in range(count):
            line = await points.reader.readline()
            done = time.perf_counter()
            due, index, known = in_flight.popleft()
            state.latencies.append(done - due)
            state.point_reply(index, known, line)

    async def scheduled(due: float, payload: bytes) -> bytes:
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        await heavy.send(payload)
        return await heavy.reader.readline()

    async def heavy_ops_loop() -> None:
        for k in range(heavy_ops):
            due = t0 + (k + 0.25) * HEAVY_PERIOD_S
            line = await scheduled(due, b'{"op": "tiles"}\n')
            state.tiles_ms.append((time.perf_counter() - due) * 1e3)
            state.take()
            if _TILES.match(line) is None:
                state.bad.append(f"tiles: {line[:120]!r}")
            else:
                state.tiles.append(line)

            due = t0 + (k + 0.75) * HEAVY_PERIOD_S
            oversubscription, beamspread = SCENARIOS[k % len(SCENARIOS)]
            payload = json.dumps(
                {
                    "op": "set_params",
                    "oversubscription": oversubscription,
                    "beamspread": beamspread,
                }
            ).encode()
            line = await scheduled(due, payload + b"\n")
            state.update_ms.append((time.perf_counter() - due) * 1e3)
            state.take()
            reply = json.loads(line)
            if not reply.get("ok"):
                state.bad.append(f"set_params: {line[:120]!r}")
                continue
            state.updates.append(
                (k, reply["epoch"], reply["scenario_id"])
            )
            state.known_epoch = reply["epoch"]

    await asyncio.gather(sender(), receiver(), heavy_ops_loop())


class Expected:
    """Batch-path answers for the sampled checks, per scenario."""

    def __init__(self, dataset, table):
        from repro.core.affordability import AffordabilityAnalysis
        from repro.core.oversubscription import OversubscriptionAnalysis

        self.oversub = OversubscriptionAnalysis(dataset)
        self.afford = AffordabilityAnalysis(dataset)
        keys = np.array([c.cell.key for c in dataset.cells], dtype=np.uint64)
        order = np.argsort(keys)
        self.row_cell = order[np.searchsorted(keys[order], table.cell_key)]
        self.table = table
        self._cache = {}

    def scenario(self, params):
        from repro.serve import serve_plans

        key = params.scenario_id
        if key not in self._cache:
            plans = serve_plans()
            outcome = self.oversub.outcome_arrays(
                params.oversubscription, params.beamspread
            )
            matrix = self.afford.affordable_matrix(plans, params.income_share)
            names = [plan.name for plan in plans]
            self._cache[key] = (outcome, matrix, names)
        return self._cache[key]

    def point_ok(self, params, ids, reply) -> bool:
        outcome, matrix, names = self.scenario(params)
        rows = np.asarray(ids)
        cells = self.row_cell[rows]
        cap = int(outcome["per_cell_cap"][0])
        ranks = np.asarray(reply["rank_in_cell"])
        counts = outcome["counts"][cells]
        afford = [
            [names[j] for j in np.flatnonzero(matrix[c])] for c in cells
        ]
        return (
            reply["location_id"] == self.table.location_id[rows].tolist()
            and reply["cell"]
            == [f"{int(k):015x}" for k in self.table.cell_key[rows]]
            and reply["county_id"] == self.table.county_id[rows].tolist()
            and reply["cell_locations"] == counts.tolist()
            and reply["per_cell_cap"] == cap
            and reply["cell_fully_served"]
            == outcome["fully_served"][cells].tolist()
            and reply["required_oversubscription"]
            == outcome["required_oversubscription"][cells].tolist()
            and reply["affordable_plans"] == afford
            and bool(((ranks >= 0) & (ranks < counts)).all())
            and reply["served"] == (ranks < cap).tolist()
        )

    def tiles_ok(self, params, reply) -> bool:
        outcome = self.scenario(params)[0]
        features = reply["collection"]["features"]
        located = sum(f["properties"]["locations"] for f in features)
        served = sum(f["properties"]["locations_served"] for f in features)
        return (
            located == int(outcome["counts"].sum())
            and served == int(outcome["served_locations"].sum())
        )


def _scenario_of(epoch: int):
    from repro.serve import ScenarioParams

    if epoch == 0:
        return ScenarioParams()
    oversubscription, beamspread = SCENARIOS[(epoch - 1) % len(SCENARIOS)]
    return ScenarioParams(
        oversubscription=oversubscription, beamspread=beamspread
    )


def check_load(state: LoadState, expected: Expected, outcome: Outcome, inject: bool) -> None:
    """Count every request and reject any answer the checks disagree with."""
    outcome.attempted += state.sent
    outcome.failures.extend(state.bad)
    for k, epoch, scenario_id in state.updates:
        if epoch != k + 1 or scenario_id != _scenario_of(epoch).scenario_id:
            outcome.reject(f"set_params[{k}]: epoch {epoch} {scenario_id}")
    for index, known, epoch, scenario_id in state.points:
        if epoch < known or scenario_id != _scenario_of(epoch).scenario_id:
            outcome.reject(
                f"point_id[{index}]: epoch {epoch} {scenario_id} after "
                f"set_params acknowledged epoch {known}"
            )
    epochs = {index: epoch for index, _, epoch, _ in state.points}
    for n, (index, line) in enumerate(state.samples):
        reply = json.loads(line)
        if inject and n == 0:
            reply["served"][0] = not reply["served"][0]
        ids = state.ids[index % len(state.ids)]
        if not expected.point_ok(_scenario_of(epochs[index]), ids, reply):
            outcome.reject(f"point_id[{index}] != batch path")
    for line in state.tiles:
        reply = json.loads(line)
        if not expected.tiles_ok(_scenario_of(reply["epoch"]), reply):
            outcome.reject(f"tiles epoch {reply['epoch']} != batch path")
    outcome.notes["sampled_point_answers"] = len(state.samples)
    outcome.notes["checked_tiles_answers"] = len(state.tiles)


class Server:
    """One spawned serving process and its control pipe."""

    def __init__(self, args, traced: bool):
        context = multiprocessing.get_context("spawn")
        self.conn, child_conn = context.Pipe()
        started = time.perf_counter()
        self.process = context.Process(
            target=server_child.main,
            args=(child_conn, args.seed, args.toy, traced),
        )
        self.process.start()
        child_conn.close()
        try:
            if not self.conn.poll(READY_TIMEOUT_S):
                raise RuntimeError("serving process did not become ready")
            _, self.port, self.setup_spans = self.conn.recv()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - started

    def command(self, command: str):
        """Send a command; wait for the serving process to act on it."""
        self.conn.send(command)
        return self.conn.recv()

    def stop(self) -> None:
        try:
            self.conn.send("stop")
        except (BrokenPipeError, OSError):
            pass
        self.process.join(30)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(30)
        self.conn.close()


def _pool(seed: int, rows: int):
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, rows, size=(ID_POOL, BATCH))
    pool = [
        json.dumps({"op": "point_id", "location_ids": batch.tolist()}).encode()
        + b"\n"
        for batch in ids
    ]
    return ids, pool


def run(args, outcome: Outcome, tracer=None) -> None:
    from repro.demand import SyntheticMapConfig, generate_national_map
    from repro.demand.locations import explode_cells_table

    dataset = generate_national_map(SyntheticMapConfig(seed=args.seed))
    if args.toy:
        dataset = dataset.subset_bbox(*TOY_BBOX)
    table = explode_cells_table(dataset, seed=args.seed)
    expected = Expected(dataset, table)
    ids, pool = _pool(args.seed, len(table))
    state = LoadState(pool=pool, ids=ids)
    connections = min(2, nproc())
    block = 40 if args.toy else BLOCK_REQUESTS
    min_blocks = 1 if args.toy else 2
    # The closed-loop time is shared by all set-ups, so the blocks sample
    # the host's speed across the whole run, not one stretch of it.
    closed_s = args.seconds * CLOSED_SHARE / SETUP_REPEATS
    open_s = args.seconds * (1.0 - CLOSED_SHARE)

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    async def drive(server, last: bool):
        conns = [await Connection.open(server.port) for _ in range(connections)]
        try:
            if not last:
                return await closed_phase(conns, state, closed_s, min_blocks, block)
            cpu, wall = time.process_time(), time.perf_counter()
            with span("loadgen.closed") as closed:
                walls = await closed_phase(conns, state, closed_s, min_blocks, block)
            with span("loadgen.open") as opened:
                await open_phase(conns[0], conns[-1], state, open_s)
            cpu = time.process_time() - cpu
            wall = time.perf_counter() - wall
            if not tracer:
                return walls, cpu, wall, None
            # The same blocks again with the engine wrappers removed: the
            # tracing overhead, and the untraced round trip.
            tracer.end(root)
            server.command("untrace")
            untraced = [await closed_block(conns, state, block) for _ in walls]
            return walls, cpu, wall, (untraced, closed, opened)
        finally:
            for conn in conns:
                await conn.close()

    setups, walls = [], []
    for k in range(SETUP_REPEATS):
        last = k == SETUP_REPEATS - 1
        server = None
        try:
            if last and tracer:
                root = tracer.begin("bench.serve-mixed")
                with tracer.span("bench.serve.setup") as setup:
                    server = Server(args, traced=True)
                tracer.adopt(server.setup_spans, [setup.id])
                server.command("trace")
            else:
                server = Server(args, traced=False)
            setups.append(server.setup_s)
            if not last:
                walls += asyncio.run(drive(server, last))
                continue
            blocks, cpu, load_wall, traced = asyncio.run(drive(server, last))
            report = server.command("report")
        finally:
            if server is not None:
                server.stop()
    walls += traced[0] if traced else blocks

    check_load(state, expected, outcome, args.inject)
    block_queries = (block // connections) * connections * BATCH
    outcome.end_to_end["setup_s"] = median(setups)
    outcome.end_to_end["work_s"] = median(walls)
    outcome.end_to_end["peak_rss_mb"] = report["peak_rss_mb"]
    outcome.named["serve_qps"] = block_queries / median(walls)
    outcome.named["serve_p50_ms"] = median(state.latencies) * 1e3
    outcome.named["serve_p99_ms"] = nearest_rank(state.latencies, 0.99) * 1e3
    outcome.named["serve_tiles_ms"] = median(state.tiles_ms)
    outcome.named["serve_update_ms"] = median(state.update_ms)
    outcome.notes["open_loop_requests"] = len(state.latencies)
    outcome.notes["closed_block_walls_s"] = walls
    outcome.per_layer["serve.requests"] = state.sent
    outcome.per_layer["serve.failed"] = outcome.failed
    if traced:
        _serve_layers(outcome, tracer, root, report, traced, blocks, cpu, load_wall, state)


def _serve_layers(outcome, tracer, root, report, traced, walls, cpu, load_wall, state):
    untraced, closed, opened = traced
    tracer.adopt(report["spans"], [closed.id, opened.id])
    m = outcome.per_layer
    m["serve.shards_s"] = tracer.total("serve.shards")
    m["serve.index_s"] = tracer.total("serve.index")
    point_s = median(tracer.durations("serve.engine.point"))
    m["serve.engine.point_ms"] = point_s * 1e3
    m["serve.engine.tiles_ms"] = median(tracer.durations("serve.engine.tiles")) * 1e3
    m["serve.engine.update_ms"] = median(report["update_walls"]) * 1e3
    busy = sum(
        s.duration for s in tracer.spans if s.name.startswith("serve.engine.")
    )
    m["serve.engine.busy_frac"] = busy / load_wall
    m["serve.wire_ms"] = outcome.named["serve_p50_ms"] - point_s * 1e3
    m["loadgen.late_p99_ms"] = nearest_rank(state.lateness, 0.99) * 1e3
    m["loadgen.cpu_frac"] = cpu / load_wall
    layers.finish_trace(outcome, tracer, root, untraced_s=sum(untraced))
    # The traced wall also holds set-up and the open loop; the overhead
    # compares the closed-loop blocks, the part run both ways.
    m["trace.overhead_s"] = sum(walls) - sum(untraced)
    m["trace.overhead_frac"] = sum(walls) / sum(untraced) - 1.0
