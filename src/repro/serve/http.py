"""A network front end for the serving stack: HTTP/1.1 + JSON, stdlib only.

:class:`PredictionHttpServer` puts a small asyncio server in front of a
:class:`~repro.serve.registry.ModelRegistry`, so throughput predictions can
be consumed from any language with a socket.  The event loop runs on a
daemon thread; request admission goes through the registry's async
services, so all the existing machinery — bounded priority queues,
micro-batch coalescing, work-conserving dispatch, sharded worker pools —
sits unchanged behind the socket.

Routes
------

``GET /healthz``
    Liveness: uptime and request counters.  Never touches a model, never
    returns anything but 200 while the process serves at all.
``GET /readyz``
    Readiness: aggregates every loaded variant's resilience report
    (open circuit breakers, respawn backoff).  ``ready`` and ``degraded``
    answer 200; ``unready`` answers 503 with a ``Retry-After`` header so
    load balancers drain the instance instead of hammering it.
``GET /v1/models``
    The registry listing, filtered to the models the calling tenant may
    use.  Each entry is a serialized
    :class:`~repro.serve.registry.ModelInfo`.
``GET /v1/models/{model}/stats``
    A serialized :class:`~repro.serve.registry.ModelReport` — the typed
    stats schema of :mod:`repro.serve.stats`, verbatim.
``POST /v1/models/{model}/predict``
    Body: ``{"blocks": ["...asm..."], "priority": "interactive|normal|bulk",
    "deadline_ms": 50, "stream": false}`` (or a single ``"block"``).
    Unary mode answers one JSON object once every block is served.
    ``"stream": true`` switches to ``application/x-ndjson`` chunked
    transfer: the block list is split into micro-batch-sized chunks, each
    chunk is a separate queue request, and one JSON line is emitted per
    chunk *as its micro-batch flushes* — results arrive while later
    chunks are still queued — ending with a ``{"done": true}`` line.

A *record hook* (the ``recorder`` constructor argument, duck-typed to
:class:`repro.serve.replay.TraceRecorder`) observes every admitted predict
call — blocks, priority, deadline, arrival time — so live traffic can be
captured as a replayable trace for the tail-latency harness.

Authentication is an ``X-API-Key`` (or ``Authorization: Bearer``) header
resolved through a :class:`~repro.serve.auth.TenantDirectory`.  Outcomes
map to status codes purely via the reason codes of
:mod:`repro.serve.types` (:data:`STATUS_BY_REASON`): queue full -> 429,
deadline expired -> 408, closed -> 503, unknown model -> 404, missing or
bad key -> 401, model not on the tenant's allow-list -> 403, malformed
request -> 400.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import re
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.serve.auth import TenantDirectory
from repro.serve.queue import Priority
from repro.serve.registry import ModelRegistry
from repro.serve.types import (
    InvalidRequestError,
    PredictionRequest,
    ReasonCode,
    ServeError,
    ServiceClosedError,
)

__all__ = ["HttpServerConfig", "PredictionHttpServer", "STATUS_BY_REASON"]

#: The one place outcomes become status codes — keyed by reason code, so
#: transports never match on error strings.
STATUS_BY_REASON: Dict[ReasonCode, int] = {
    ReasonCode.QUEUE_FULL: 429,
    ReasonCode.DEADLINE_EXPIRED: 408,
    ReasonCode.SERVICE_CLOSED: 503,
    ReasonCode.UNKNOWN_MODEL: 404,
    ReasonCode.UNAUTHENTICATED: 401,
    ReasonCode.FORBIDDEN: 403,
    ReasonCode.INVALID_REQUEST: 400,
    ReasonCode.INTERNAL: 500,
}

_REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    408: "Request Timeout",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

_PRIORITY_NAMES = {
    "interactive": Priority.INTERACTIVE,
    "normal": Priority.NORMAL,
    "bulk": Priority.BULK,
}

_PREDICT_PATH = re.compile(r"^/v1/models/([A-Za-z0-9._-]+)/predict$")
_STATS_PATH = re.compile(r"^/v1/models/([A-Za-z0-9._-]+)/stats$")


def _jsonable(value: Any) -> Any:
    """JSON-safe view: arrays to lists, non-finite floats to ``null``."""
    if isinstance(value, dict):
        return {key: _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return _jsonable(value.item())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


@dataclass(frozen=True)
class HttpServerConfig:
    """Transport knobs of :class:`PredictionHttpServer`.

    Attributes:
        host: Bind address.
        port: Bind port; ``0`` picks an ephemeral port (read it back from
            :attr:`PredictionHttpServer.port` after ``start()``).
        max_body_bytes: Reject request bodies larger than this (the block
            list of a predict call is the only large payload).
        max_header_bytes: Stream buffer limit while reading the head.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 8 << 20
    max_header_bytes: int = 64 << 10

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.max_body_bytes < 1 or self.max_header_bytes < 1:
            raise ValueError("body/header limits must be positive")


@dataclass(frozen=True)
class _HttpRequest:
    """One parsed request (head + body) off a client connection."""

    method: str
    path: str
    headers: Dict[str, str]
    body: bytes


class PredictionHttpServer:
    """Serves a :class:`~repro.serve.registry.ModelRegistry` over HTTP.

    Args:
        registry: The models to serve.  The server does not own it unless
            ``own_registry`` — closing the server then closes the registry.
        config: Transport configuration (defaults bind ``127.0.0.1:0``).
        auth: Tenant directory; the default allows anonymous access.
        own_registry: Close the registry when the server closes.
        recorder: Optional record hook (anything with the
            ``record(block_texts, priority=..., deadline_ms=..., model=...,
            stream=...)`` signature of
            :class:`repro.serve.replay.TraceRecorder`).  Called on the loop
            thread for every predict call that passes authentication and
            parsing, so captured traces contain exactly the traffic the
            queue saw.  Must be cheap and non-blocking.

    The event loop lives on a daemon thread; ``start()`` returns once the
    socket is bound (or raises what the bind raised).  Blocking work —
    queue admission under the ``block`` back-pressure policy — runs on the
    loop's default executor so slow admission on one model never stalls
    the accept loop.  Usable as a context manager.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: Optional[HttpServerConfig] = None,
        auth: Optional[TenantDirectory] = None,
        own_registry: bool = False,
        recorder: Optional[Any] = None,
    ) -> None:
        self.registry = registry
        self.config = config or HttpServerConfig()
        self.auth = auth or TenantDirectory()
        self.recorder = recorder
        self._own_registry = own_registry
        self._lifecycle_lock = threading.Lock()
        self._closed = False  # guarded-by: _lifecycle_lock
        self._thread: Optional[threading.Thread] = None  # guarded-by: _lifecycle_lock
        # Written by the loop thread only (no lock): the ready handshake
        # orders them before any reader in start()/close().
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._bound_port: Optional[int] = None
        self._startup_error: Optional[BaseException] = None
        self._ready = threading.Event()
        self._started_at = time.monotonic()
        # Loop-thread-only state: live connection handlers and counters.
        self._client_tasks: set = set()
        self._requests_handled = 0
        self._protocol_errors = 0
        self._internal_errors = 0
        self._requests_recorded = 0
        self._stream_disconnects = 0
        self._stream_cancelled_chunks = 0

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def start(self) -> "PredictionHttpServer":
        """Binds the socket and starts serving; idempotent while running."""
        with self._lifecycle_lock:
            if self._closed:
                raise ServiceClosedError("http server is closed")
            if self._thread is not None:
                return self
            thread = threading.Thread(
                target=self._run_loop, name="repro-http-server", daemon=True
            )
            self._thread = thread
        self._started_at = time.monotonic()
        thread.start()
        self._ready.wait()
        error = self._startup_error
        if error is not None:
            thread.join()
            with self._lifecycle_lock:
                self._closed = True
                self._thread = None
            raise error
        return self

    def close(self) -> None:
        """Stops the server and joins its thread (idempotent).

        In-flight responses finish; the listening socket closes first, so
        no new connections are admitted while draining.
        """
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
            thread, self._thread = self._thread, None
        loop, stop = self._loop, self._stop_event
        if loop is not None and stop is not None and thread is not None:
            try:
                loop.call_soon_threadsafe(stop.set)
            except RuntimeError:
                # The loop already finished (e.g. startup failed after
                # binding); there is nothing left to signal.
                pass
        if thread is not None:
            thread.join()
        if self._own_registry:
            self.registry.close()

    def __enter__(self) -> "PredictionHttpServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral ``port=0`` default)."""
        port = self._bound_port
        if port is None:
            raise RuntimeError("server is not running; call start() first")
        return port

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._serve_forever())
        except BaseException as exc:  # noqa: B036 - reported to start()
            self._startup_error = exc
            self._internal_errors += 1
        finally:
            self._ready.set()

    async def _serve_forever(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await asyncio.start_server(
            self._handle_client,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_header_bytes,
        )
        self._bound_port = server.sockets[0].getsockname()[1]
        self._ready.set()
        try:
            async with server:
                await self._stop_event.wait()
        finally:
            # Retire idle keep-alive connections ourselves: cancelling and
            # gathering here lets every handler run its close path before
            # asyncio.run tears the loop down.
            for task in list(self._client_tasks):
                task.cancel()
            if self._client_tasks:
                await asyncio.gather(*self._client_tasks, return_exceptions=True)

    # ------------------------------------------------------------------ #
    # Connection handling.
    # ------------------------------------------------------------------ #
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._client_tasks.add(task)
        try:
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                keep_alive = await self._dispatch(request, reader, writer)
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            # Server shutdown retired this (typically idle keep-alive)
            # connection mid-read; fall through and close it quietly.
            pass
        except (
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
            ConnectionError,
            ValueError,
        ):
            # Malformed head, oversized head, or a peer that vanished:
            # count it and drop the connection — there is no usable
            # request to answer.
            self._protocol_errors += 1
        finally:
            if task is not None:
                self._client_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                # A cancelled task re-raises at the next await; the socket
                # is already closing either way.
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_HttpRequest]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean EOF between requests
            raise
        request_line, *header_lines = head.decode("latin-1").split("\r\n")
        method, _, rest = request_line.partition(" ")
        path, _, version = rest.rpartition(" ")
        if not method or not path.startswith("/") or not version.startswith("HTTP/"):
            raise ValueError(f"malformed request line: {request_line!r}")
        headers: Dict[str, str] = {}
        for line in header_lines:
            if not line:
                continue
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length < 0 or length > self.config.max_body_bytes:
            raise ValueError(f"content-length {length} out of bounds")
        body = await reader.readexactly(length) if length else b""
        return _HttpRequest(method=method, path=path, headers=headers, body=body)

    async def _dispatch(
        self,
        request: _HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> bool:
        self._requests_handled += 1
        keep_alive = request.headers.get("connection", "").lower() != "close"
        try:
            return await self._route(request, reader, writer, keep_alive)
        except ServeError as exc:
            status = STATUS_BY_REASON.get(exc.code, 500)
            await self._write_json(
                writer,
                status,
                {"error": {"code": exc.code.value, "message": str(exc)}},
                keep_alive,
                extra_headers={"Retry-After": "1"} if status == 503 else None,
            )
            return keep_alive
        except Exception as exc:  # noqa: BLE001 - counted and answered as 500
            self._internal_errors += 1
            await self._write_json(
                writer,
                500,
                {
                    "error": {
                        "code": ReasonCode.INTERNAL.value,
                        "message": f"{type(exc).__name__}: {exc}",
                    }
                },
                keep_alive=False,
            )
            return False

    async def _route(
        self,
        request: _HttpRequest,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        keep_alive: bool,
    ) -> bool:
        if request.method == "GET" and request.path == "/healthz":
            await self._write_json(
                writer,
                200,
                {
                    "status": "ok",
                    "uptime_s": time.monotonic() - self._started_at,
                    "requests_handled": self._requests_handled,
                    "protocol_errors": self._protocol_errors,
                    "internal_errors": self._internal_errors,
                    "requests_recorded": self._requests_recorded,
                    "stream_disconnects": self._stream_disconnects,
                    "stream_cancelled_chunks": self._stream_cancelled_chunks,
                },
                keep_alive,
            )
            return keep_alive
        if request.method == "GET" and request.path == "/readyz":
            # Keyless like /healthz (probes rarely carry credentials), but
            # off-loop: the report takes per-service locks.
            loop = asyncio.get_running_loop()
            report = await loop.run_in_executor(None, self.registry.readiness)
            unready = report.get("status") == "unready"
            await self._write_json(
                writer,
                503 if unready else 200,
                report,
                keep_alive,
                extra_headers={"Retry-After": "1"} if unready else None,
            )
            return keep_alive
        if request.method == "GET" and request.path == "/v1/models":
            tenant = self._authenticate(request)
            infos = [
                info.to_dict()
                for info in self.registry.describe()
                if tenant.may_use(info.name)
            ]
            await self._write_json(writer, 200, {"models": infos}, keep_alive)
            return keep_alive
        match = _STATS_PATH.match(request.path)
        if request.method == "GET" and match:
            tenant = self._authenticate(request)
            name = match.group(1)
            self.auth.authorize(tenant, name)
            report = self.registry.stats(name)
            await self._write_json(writer, 200, report.to_dict(), keep_alive)
            return keep_alive
        match = _PREDICT_PATH.match(request.path)
        if request.method == "POST" and match:
            tenant = self._authenticate(request)
            name = match.group(1)
            blocks, priority, deadline_ms, stream = self._parse_predict(request)
            if self.recorder is not None:
                # After parsing, before admission: the trace captures every
                # well-formed call the queue is offered, including those the
                # queue then rejects (a replay must reproduce that load).
                self.recorder.record(
                    blocks,
                    priority=priority,
                    deadline_ms=deadline_ms,
                    model=name,
                    stream=stream,
                )
                self._requests_recorded += 1
            if stream:
                return await self._predict_stream(
                    reader, writer, name, tenant, blocks, priority, deadline_ms,
                    keep_alive,
                )
            await self._predict_unary(
                writer, name, tenant, blocks, priority, deadline_ms, keep_alive
            )
            return keep_alive
        raise InvalidRequestError(
            f"no route for {request.method} {request.path}"
        )

    # ------------------------------------------------------------------ #
    # Route implementations.
    # ------------------------------------------------------------------ #
    def _authenticate(self, request: _HttpRequest):
        api_key = request.headers.get("x-api-key")
        if api_key is None:
            bearer = request.headers.get("authorization", "")
            if bearer.lower().startswith("bearer "):
                api_key = bearer[len("bearer ") :].strip()
        return self.auth.authenticate(api_key)

    def _parse_predict(
        self, request: _HttpRequest
    ) -> Tuple[List[str], int, Optional[float], bool]:
        try:
            payload = json.loads(request.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InvalidRequestError(f"body is not valid JSON: {exc}") from exc
        except RecursionError:
            raise InvalidRequestError("body nests JSON too deeply") from None
        if not isinstance(payload, dict):
            raise InvalidRequestError("body must be a JSON object")
        if "block" in payload and "blocks" in payload:
            raise InvalidRequestError("pass either 'block' or 'blocks', not both")
        blocks = [payload["block"]] if "block" in payload else payload.get("blocks")
        if (
            not isinstance(blocks, list)
            or not blocks
            or not all(isinstance(block, str) and block.strip() for block in blocks)
        ):
            raise InvalidRequestError(
                "'blocks' must be a non-empty list of non-empty strings "
                "(or pass a single 'block')"
            )
        raw_priority = payload.get("priority", "normal")
        if isinstance(raw_priority, str):
            try:
                priority = _PRIORITY_NAMES[raw_priority.lower()]
            except KeyError:
                raise InvalidRequestError(
                    f"unknown priority {raw_priority!r}; "
                    f"use {sorted(_PRIORITY_NAMES)} or an integer"
                ) from None
        elif isinstance(raw_priority, int) and not isinstance(raw_priority, bool):
            priority = raw_priority
        else:
            raise InvalidRequestError("'priority' must be a name or an integer")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None:
            # json.loads accepts NaN and Infinity, and NaN < 0 is False.
            if (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool)
                or not 0 <= deadline_ms <= sys.float_info.max
            ):
                raise InvalidRequestError(
                    "'deadline_ms' must be a finite number >= 0"
                )
            deadline_ms = float(deadline_ms)
        stream = payload.get("stream", False)
        if not isinstance(stream, bool):
            raise InvalidRequestError("'stream' must be a boolean")
        return list(blocks), priority, deadline_ms, stream

    async def _submit(
        self,
        name: str,
        tenant,
        blocks: List[str],
        priority: int,
        deadline_ms: Optional[float],
    ) -> "asyncio.Future":
        """Admits one request off-loop; returns an awaitable of its result.

        Admission may block (lazy model load, or queue space under the
        ``block`` policy), so it runs on the default executor; admission
        errors (unknown model, 429-reject, closed) surface right here.
        """
        loop = asyncio.get_running_loop()
        submit = functools.partial(
            self.registry.submit,
            name,
            PredictionRequest.of(blocks),
            tenant=tenant,
            priority=priority,
            deadline_ms=deadline_ms,
        )
        future = await loop.run_in_executor(None, submit)
        return asyncio.wrap_future(future)

    async def _predict_unary(
        self,
        writer: asyncio.StreamWriter,
        name: str,
        tenant,
        blocks: List[str],
        priority: int,
        deadline_ms: Optional[float],
        keep_alive: bool,
    ) -> None:
        response = await (
            await self._submit(name, tenant, blocks, priority, deadline_ms)
        )
        await self._write_json(
            writer,
            200,
            {
                "request_id": response.request_id,
                "model": name,
                "num_blocks": response.num_blocks,
                "seconds": response.seconds,
                "degraded": response.degraded,
                "predictions": response.predictions,
            },
            keep_alive,
        )

    async def _predict_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        name: str,
        tenant,
        blocks: List[str],
        priority: int,
        deadline_ms: Optional[float],
        keep_alive: bool,
    ) -> bool:
        """NDJSON streaming: one line per micro-batch-sized chunk.

        Every chunk is its own queue request, so lines appear as the
        dispatcher flushes each micro-batch — the client consumes early
        results while later chunks still queue.  All chunks are admitted
        *before* the response head is written: admission-time failures
        (unknown model, full queue) still map to proper status codes.
        Per-chunk failures after that (an expired deadline, a drained
        close) become ``"error"`` lines instead of poisoning the stream.

        A client that disconnects mid-stream is noticed within one poll
        interval (``reader.at_eof()`` flips as soon as the transport sees
        the FIN, whether or not anything is reading): every still-pending
        chunk future is cancelled, which propagates to the queue's eager
        cancel-discard and frees the abandoned blocks' capacity instead of
        predicting for nobody.  Returns whether the connection is reusable
        (always ``False`` after a disconnect).
        """
        chunk_size = self.registry.variant(name).config.max_batch_size
        pending: Dict["asyncio.Future", Tuple[int, int]] = {}
        for chunk_index, offset in enumerate(range(0, len(blocks), chunk_size)):
            chunk = blocks[offset : offset + chunk_size]
            awaitable = await self._submit(
                name, tenant, chunk, priority, deadline_ms
            )
            pending[awaitable] = (chunk_index, offset)
        total_chunks = len(pending)
        disconnected = False
        try:
            head = (
                "HTTP/1.1 200 OK\r\n"
                "Content-Type: application/x-ndjson\r\n"
                "Transfer-Encoding: chunked\r\n"
                f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
                "\r\n"
            )
            writer.write(head.encode("latin-1"))
            await writer.drain()
            while pending:
                if reader.at_eof() or reader.exception() is not None:
                    disconnected = True
                    break
                done, _ = await asyncio.wait(
                    pending.keys(),
                    timeout=0.05,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for finished in done:
                    chunk_index, offset = pending.pop(finished)
                    line: Dict[str, Any] = {"chunk": chunk_index, "offset": offset}
                    try:
                        response = finished.result()
                        line.update(
                            request_id=response.request_id,
                            num_blocks=response.num_blocks,
                            seconds=response.seconds,
                            degraded=response.degraded,
                            predictions=response.predictions,
                        )
                    except ServeError as exc:
                        line["error"] = {
                            "code": exc.code.value,
                            "message": str(exc),
                        }
                    await self._write_ndjson_line(writer, line)
            if not disconnected:
                await self._write_ndjson_line(
                    writer, {"done": True, "chunks": total_chunks}
                )
                writer.write(b"0\r\n\r\n")
                await writer.drain()
        except (ConnectionError, OSError):
            # The peer vanished between the at_eof poll and a write; same
            # cleanup as a detected disconnect.
            disconnected = True
        finally:
            if pending:
                # Cancelling the asyncio wrapper chains to the underlying
                # queue future; chunks still queued are dropped and their
                # blocks freed, chunks already mid-flush finish unobserved.
                self._stream_cancelled_chunks += sum(
                    1 for future in pending if future.cancel()
                )
            if disconnected:
                self._stream_disconnects += 1
        return keep_alive and not disconnected

    # ------------------------------------------------------------------ #
    # Wire helpers.
    # ------------------------------------------------------------------ #
    async def _write_json(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Dict[str, Any],
        keep_alive: bool,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = json.dumps(_jsonable(payload)).encode("utf-8")
        extras = "".join(
            f"{name}: {value}\r\n" for name, value in (extra_headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASON_PHRASES.get(status, 'Unknown')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"{extras}"
            "\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def _write_ndjson_line(
        self, writer: asyncio.StreamWriter, payload: Dict[str, Any]
    ) -> None:
        data = json.dumps(_jsonable(payload)).encode("utf-8") + b"\n"
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()
