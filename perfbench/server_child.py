"""The serving process of workload ``serve-mixed`` (started with ``spawn``).

It builds what a deployment builds -- the res-5 national map, the exploded
location table and the serve index -- starts ``ServeServer`` on an
ephemeral port, and reports ``("ready", port, spans)`` over its control
pipe. It then obeys commands from the pipe:

``"trace"``    wrap ``QueryEngine`` calls in spans (engine-side timings);
               replies ``"ok"`` once the wrappers are in place
``"untrace"``  remove those wrappers; replies ``"ok"``
``"report"``   reply with peak RSS, the spans recorded so far and the
               wall of every ``update_params`` call
``"stop"``     stop the server and exit
"""

from __future__ import annotations

import asyncio
import time
from contextlib import nullcontext

from common import TOY_BBOX, peak_rss_mb
from tracing import Tracer


def _instrument_engine(tracer: Tracer, update_walls) -> None:
    from repro.serve import QueryEngine, ServeIndex

    tracer.instrument(QueryEngine, "point_by_id", "serve.engine.point")
    tracer.instrument(QueryEngine, "tiles_geojson", "serve.engine.tiles")
    # update_params is a coroutine that yields between shards, so its wall
    # interleaves with other requests: time its synchronous pieces as
    # spans and its whole wall as a separate sample.
    tracer.instrument(ServeIndex, "scenario_slice", "serve.engine.update")
    tracer.instrument(ServeIndex, "with_scenario", "serve.engine.update")
    original = QueryEngine.__dict__["update_params"]

    async def update_params(self, params):
        start = time.perf_counter()
        try:
            return await original(self, params)
        finally:
            update_walls.append(time.perf_counter() - start)

    tracer.patch(QueryEngine, "update_params", update_params)


def main(conn, seed: int, toy: bool, traced: bool) -> None:
    from repro.demand import SyntheticMapConfig, generate_national_map
    from repro.demand.locations import explode_cells_table
    from repro.serve import QueryEngine, ShardStore, build_index

    tracer = Tracer("serve-child")
    span = tracer.span if traced else (lambda name: nullcontext())
    with span("demand.map"):
        dataset = generate_national_map(SyntheticMapConfig(seed=seed))
        if toy:
            dataset = dataset.subset_bbox(*TOY_BBOX)
    with span("demand.explode"):
        table = explode_cells_table(dataset, seed=seed)
    if traced:
        tracer.instrument(ShardStore, "from_table", "serve.shards")
    with span("serve.index"):
        index = build_index(table, dataset)
    tracer.restore()
    engine = QueryEngine(index)
    asyncio.run(_serve(engine, conn, tracer))


async def _serve(engine, conn, tracer: Tracer) -> None:
    from repro.serve import ServeServer

    server = await ServeServer(engine, port=0).start()
    setup_spans = tracer.export()
    tracer.spans.clear()
    conn.send(("ready", server.port, setup_spans))
    loop = asyncio.get_running_loop()
    update_walls = []
    try:
        while True:
            command = await loop.run_in_executor(None, conn.recv)
            if command == "trace":
                _instrument_engine(tracer, update_walls)
                conn.send("ok")
            elif command == "untrace":
                tracer.restore()
                conn.send("ok")
            elif command == "report":
                conn.send(
                    {
                        "peak_rss_mb": peak_rss_mb(),
                        "spans": tracer.export(),
                        "update_walls": list(update_walls),
                    }
                )
            elif command == "stop":
                break
    finally:
        await server.stop()
        conn.close()
