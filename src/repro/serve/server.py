"""JSON-lines TCP front end for the query engine (stdlib asyncio only).

One request per line, one response per line. Requests are JSON objects
with an ``op`` field; responses echo ``ok`` plus the engine's answer (and
the answer's ``epoch``/``scenario_id``, so clients can detect snapshot
swaps). Errors come back as ``{"ok": false, "error": ...}`` — a bad
request never kills the connection, with one exception: a request line
longer than :data:`REQUEST_FRAME_LIMIT` gets its error reply and then
the server ends the connection, since the rest of the line cannot be
told apart from the next request.

Ops:

``ping``                  liveness check
``stats``                 service-level summary
``point_id``              ``{"location_ids": [...]}`` — batch point query
``point_latlon``          ``{"lat": .., "lon": ..}``
``cell``                  ``{"token": "..."}``
``county``                ``{"county_id": ..}``
``tiles``                 ``{"resolution": ..}`` (optional)
``set_params``            scenario change; responds after the epoch swap
``metrics``               cumulative + rolling metrics snapshots

Every request is timed into ``serve.request.latency_s`` — both the
cumulative histogram and a rolling window, so the ``metrics`` op (and
the ``--metrics-port`` Prometheus endpoint) expose a last-minute p99
alongside the since-start totals.
"""

from __future__ import annotations

import asyncio
import json
import time
from typing import Dict, List, Optional

from repro import obs
from repro.errors import ReproError, ServeError
from repro.serve.engine import QueryEngine
from repro.serve.scenario import ScenarioParams

#: Longest request line the server reads, in bytes (asyncio's default,
#: stated explicitly). A 1,000-id ``point_id`` request is ~9 KB.
REQUEST_FRAME_LIMIT = 64 * 1024

#: Longest response line :class:`ServeClient` reads, in bytes. A national
#: ``tiles`` reply is ~442 KB; a 1,000-id ``point_id`` reply ~116 KB.
RESPONSE_FRAME_LIMIT = 16 * 1024 * 1024


class ServeServer:
    """An asyncio TCP server wrapping one :class:`QueryEngine`."""

    def __init__(
        self, engine: QueryEngine, host: str = "127.0.0.1", port: int = 0
    ):
        self.engine = engine
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        registry = obs.registry()
        self._request_latency = registry.histogram("serve.request.latency_s")
        self._rolling_latency = registry.rolling("serve.request.latency_s")

    async def start(self) -> "ServeServer":
        """Bind and start accepting connections (port 0 picks a free one)."""
        self._server = await asyncio.start_server(
            self._handle_client,
            self.host,
            self.port,
            limit=REQUEST_FRAME_LIMIT,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        obs.get_logger("serve").info(
            "serving on %s:%d epoch=%d",
            self.host,
            self.port,
            self.engine.epoch,
        )
        return self

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        obs.registry().counter("serve.connections").inc()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    await self._reject_oversized(reader, writer)
                    break
                if not line:
                    break
                started = time.perf_counter()
                response = await self._dispatch_line(line)
                elapsed = time.perf_counter() - started
                self._request_latency.observe(elapsed)
                self._rolling_latency.observe(elapsed)
                writer.write(json.dumps(response).encode() + b"\n")
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            # No wait_closed here: the handler task may be cancelled by
            # stop() mid-await, which asyncio.streams reports noisily.
            writer.close()

    @staticmethod
    async def _reject_oversized(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Answer an over-limit request line, then end the connection.

        The reply is followed by a half-close, and the rest of the
        client's input is read and dropped until it closes too: closing
        with unread input would reset the connection and could destroy
        the reply before the client reads it.
        """
        obs.registry().counter("serve.errors").inc()
        error = {
            "ok": False,
            "error": f"request line exceeds {REQUEST_FRAME_LIMIT} bytes",
        }
        writer.write(json.dumps(error).encode() + b"\n")
        writer.write_eof()
        await writer.drain()
        while await reader.read(REQUEST_FRAME_LIMIT):
            pass

    async def _dispatch_line(self, line: bytes) -> Dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ServeError("request must be a JSON object")
            answer = await self._dispatch(request)
            return {"ok": True, **answer}
        except ReproError as exc:
            obs.registry().counter("serve.errors").inc()
            return {"ok": False, "error": str(exc)}
        except (ValueError, KeyError, TypeError) as exc:
            obs.registry().counter("serve.errors").inc()
            return {"ok": False, "error": f"bad request: {exc}"}

    async def _dispatch(self, request: Dict) -> Dict:
        op = request.get("op")
        engine = self.engine
        if op == "ping":
            return {"pong": True, "epoch": engine.epoch}
        if op == "stats":
            return engine.stats()
        if op == "point_id":
            return engine.point_by_id(request["location_ids"])
        if op == "point_latlon":
            return engine.point_by_latlon(
                float(request["lat"]), float(request["lon"])
            )
        if op == "cell":
            return engine.cell_answer(str(request["token"]))
        if op == "county":
            return engine.county_answer(int(request["county_id"]))
        if op == "tiles":
            collection = engine.tiles_geojson(
                int(request.get("resolution", 3))
            )
            return {"epoch": engine.epoch, "collection": collection}
        if op == "metrics":
            registry = obs.registry()
            return {
                "epoch": engine.epoch,
                "metrics": registry.snapshot(),
                "rolling": registry.rolling_snapshot(),
            }
        if op == "set_params":
            params = ScenarioParams(
                oversubscription=float(
                    request.get(
                        "oversubscription",
                        engine.index.params.oversubscription,
                    )
                ),
                beamspread=float(
                    request.get("beamspread", engine.index.params.beamspread)
                ),
                income_share=float(
                    request.get(
                        "income_share", engine.index.params.income_share
                    )
                ),
            )
            return await engine.update_params(params)
        raise ServeError(f"unknown op: {op!r}")


class ServeClient:
    """Minimal asyncio JSON-lines client (tests and the load generator)."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "ServeClient":
        await self.connect()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.close()

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port, limit=RESPONSE_FRAME_LIMIT
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = None
            self._writer = None

    async def request(self, payload: Dict) -> Dict:
        """One round trip; raises :class:`ServeError` on ``ok: false``."""
        if self._reader is None or self._writer is None:
            raise ServeError("client is not connected")
        self._writer.write(json.dumps(payload).encode() + b"\n")
        await self._writer.drain()
        line = await self._reader.readline()
        if not line:
            raise ServeError("server closed the connection")
        response = json.loads(line)
        if not response.get("ok"):
            raise ServeError(response.get("error", "unknown server error"))
        return response

    async def point_by_id(self, location_ids: List[int]) -> Dict:
        return await self.request(
            {"op": "point_id", "location_ids": list(location_ids)}
        )
