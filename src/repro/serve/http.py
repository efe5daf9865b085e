"""A network front end for the serving stack: HTTP/1.1 + JSON, stdlib only.

:class:`PredictionHttpServer` serves a
:class:`~repro.serve.registry.ModelRegistry` from the standard library's
:class:`http.server.ThreadingHTTPServer`, so throughput predictions can be
consumed from any language with a socket.  An acceptor thread hands every
connection to a handler thread of its own, which parses each request with
:mod:`http.server`, admits it through the registry's async services and
blocks on the returned future.  All the existing machinery — bounded
priority queues, micro-batch coalescing, work-conserving dispatch, sharded
worker pools — sits unchanged behind the socket.

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
request -> 400.  A request the transport itself refuses — a malformed or
HTTP/0.9 request line, a head over 64 KiB, an unknown method, a bad
``Content-Length`` or a body over ``max_body_bytes`` — is a protocol
error: it is answered 400 ``invalid_request`` and the connection closes.
"""

from __future__ import annotations

import concurrent.futures
import functools
import http.client
import json
import math
import re
import socket
import threading
import time
from dataclasses import dataclass
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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
    json_field,
    load_json,
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

#: Bound on a request head (request line plus headers), in bytes.
_MAX_HEAD_BYTES = 64 << 10

#: How often the acceptor checks for ``close()``, which waits for it.
_ACCEPT_POLL_S = 0.05

#: How often a streaming response checks whether its client went away.
_STREAM_POLL_S = 0.05

#: The ``/healthz`` counters.
_COUNTERS = (
    "requests_handled",
    "protocol_errors",
    "internal_errors",
    "requests_recorded",
    "stream_disconnects",
    "stream_cancelled_chunks",
)

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


def _parse_predict(body: bytes) -> Tuple[List[str], int, Optional[float], bool]:
    """A predict body as ``(blocks, priority, deadline_ms, stream)``."""
    payload = json_field(load_json(body, "body"), dict, "body")
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
    priority = payload.get("priority", "normal")
    if not isinstance(priority, str):
        priority = json_field(priority, int, "'priority'")
    elif priority.lower() in _PRIORITY_NAMES:
        priority = _PRIORITY_NAMES[priority.lower()]
    else:
        names = sorted(_PRIORITY_NAMES)
        raise InvalidRequestError(f"unknown priority {priority!r}; use {names} or an integer")
    deadline_ms = payload.get("deadline_ms")
    if deadline_ms is not None:
        deadline_ms = float(json_field(deadline_ms, float, "'deadline_ms'"))
        if deadline_ms < 0:
            raise InvalidRequestError("'deadline_ms' must be >= 0")
    stream = json_field(payload.get("stream", False), bool, "'stream'")
    return list(blocks), priority, deadline_ms, stream


def _response_fields(response) -> Dict[str, Any]:
    """The wire fields of one served request (a unary reply, a stream line)."""
    return {
        "request_id": response.request_id,
        "num_blocks": response.num_blocks,
        "seconds": response.seconds,
        "degraded": response.degraded,
        "predictions": response.predictions,
    }


def _shut_read(connection: socket.socket) -> None:
    """Ends reading on ``connection``: a blocked read returns EOF, while a
    response still being written goes out."""
    try:
        connection.shutdown(socket.SHUT_RD)
    except OSError:
        pass  # the peer already closed it


@dataclass(frozen=True)
class HttpServerConfig:
    """Transport knobs of :class:`PredictionHttpServer`.

    Attributes:
        host: Bind address.
        port: Bind port; ``0`` picks an ephemeral port (read it back from
            :attr:`PredictionHttpServer.port` after ``start()``).
        max_body_bytes: Reject request bodies larger than this (the block
            list of a predict call is the only large payload).
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_body_bytes: int = 8 << 20

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError("port must be in [0, 65535]")
        if self.max_body_bytes < 1:
            raise ValueError("max_body_bytes must be positive")


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
            :class:`repro.serve.replay.TraceRecorder`).  Called on the
            connection's handler thread for every predict call that passes
            authentication and parsing, so captured traces contain exactly
            the traffic the queue saw.  Must be cheap and thread-safe.

    ``start()`` binds the socket (raising what the bind raised) and starts
    the acceptor thread.  Each connection is served by a thread of its
    own, so a predict blocked on admission or on its result — a lazy model
    load, a full queue under the ``block`` policy, a long flush — stalls
    only its own connection.  Connection threads are not daemons: close
    the server (it is a context manager) before the interpreter exits.
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
        self._lock = threading.Lock()
        self._closed = False  # guarded-by: _lock
        self._httpd: Optional[ThreadingHTTPServer] = None  # guarded-by: _lock
        self._acceptor: Optional[threading.Thread] = None  # guarded-by: _lock
        self._started_at = time.monotonic()  # guarded-by: _lock
        # Connections waiting for their next request; close() ends them.
        self._idle: set = set()  # guarded-by: _lock
        self._counters = dict.fromkeys(_COUNTERS, 0)  # guarded-by: _lock

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def start(self) -> "PredictionHttpServer":
        """Binds the socket and starts serving; idempotent while running."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("http server is closed")
            if self._httpd is None:
                address = (self.config.host, self.config.port)
                handler = functools.partial(_Handler, front=self)
                self._httpd = ThreadingHTTPServer(address, handler)
                # Only non-daemon connection threads are joined by close().
                self._httpd.daemon_threads = False
                self._started_at = time.monotonic()
                self._acceptor = threading.Thread(
                    target=self._httpd.serve_forever,
                    args=(_ACCEPT_POLL_S,),
                    name="repro-http-acceptor",
                    daemon=True,
                )
                self._acceptor.start()
        return self

    def close(self) -> None:
        """Stops the server (idempotent).

        Stops accepting, ends every idle keep-alive connection, lets every
        request whose head has arrived finish its response (its connection
        then closes), joins the acceptor and connection threads, and only
        then closes an owned registry.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for connection in self._idle:
                _shut_read(connection)
            httpd, acceptor = self._httpd, self._acceptor
        if httpd is not None and acceptor is not None:
            httpd.shutdown()
            # Closes the listening socket, then joins every connection thread.
            httpd.server_close()
            acceptor.join()
        if self._own_registry:
            self.registry.close()

    def __enter__(self) -> "PredictionHttpServer":
        return self.start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral ``port=0`` default)."""
        with self._lock:
            httpd = self._httpd
        if httpd is None:
            raise RuntimeError("server is not running; call start() first")
        return httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Connection bookkeeping and counters (called from connection threads).
    # ------------------------------------------------------------------ #
    def _set_idle(self, connection: socket.socket, idle: bool) -> bool:
        """Marks ``connection`` as waiting for a request or not (busy, or
        gone); returns False once ``close()`` has begun."""
        with self._lock:
            if idle:
                self._idle.add(connection)
            else:
                self._idle.discard(connection)
            return not self._closed

    def _count(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[counter] += amount

    def health(self) -> Dict[str, Any]:
        """The ``/healthz`` body: status, uptime and the request counters."""
        with self._lock:
            return {
                "status": "ok",
                "uptime_s": time.monotonic() - self._started_at,
                **self._counters,
            }


class _HeadReader:
    """The connection's ``rfile`` while the stdlib parses the headers:
    refuses a head that grows past its byte budget."""

    def __init__(self, rfile, budget: int) -> None:
        self._rfile = rfile
        self._budget = budget

    def readline(self, limit: int = -1) -> bytes:
        size = self._budget + 1 if limit < 0 else min(limit, self._budget + 1)
        line = self._rfile.readline(size)
        self._budget -= len(line)
        if self._budget < 0:
            raise http.client.LineTooLong(f"request head over {_MAX_HEAD_BYTES} bytes")
        return line


class _Handler(BaseHTTPRequestHandler):
    """One connection: parse, route, answer — until it closes."""

    protocol_version = "HTTP/1.1"
    # Each reply leaves in one write; without TCP_NODELAY a small reply can
    # still wait ~40 ms on Nagle's algorithm and the client's delayed ACK.
    disable_nagle_algorithm = True

    def __init__(self, *args: Any, front: PredictionHttpServer) -> None:
        self.front = front
        super().__init__(*args)  # serves the connection

    def setup(self) -> None:
        super().setup()
        threading.current_thread().name = "repro-http-connection"
        if not self.front._set_idle(self.connection, True):
            _shut_read(self.connection)  # accepted while close() ran

    def finish(self) -> None:
        self.front._set_idle(self.connection, False)
        super().finish()

    def handle(self) -> None:
        try:
            super().handle()
        except OSError:
            # The peer vanished mid-exchange: nothing left to answer.
            self.front._count("protocol_errors")

    def log_message(self, format: str, *args: Any) -> None:
        """No access log: ``/healthz`` counts requests instead."""

    def parse_request(self) -> bool:
        if len(self.raw_requestline.split()) != 3:
            # Also catches an HTTP/0.9 line, which the stdlib would accept.
            line = self.raw_requestline[:80]
            self.send_error(HTTPStatus.BAD_REQUEST, f"malformed request line: {line!r}")
            return False
        rfile = self.rfile
        self.rfile = _HeadReader(rfile, _MAX_HEAD_BYTES - len(self.raw_requestline))
        try:
            parsed = super().parse_request()
        finally:
            self.rfile = rfile
        if parsed:
            self.front._set_idle(self.connection, False)
        return parsed

    def send_error(self, code: int, message: Optional[str] = None, explain: Optional[str] = None):
        """Every protocol error ends here: a typed 400, then the connection
        closes (its unread bytes cannot be trusted to start a request)."""
        self.front._count("protocol_errors")
        if code == HTTPStatus.NOT_IMPLEMENTED:
            message, explain = f"no route for {self.command} {self.path}", None
        text = ": ".join(part for part in (message, explain) if part)
        self.close_connection = True
        self._reply_error(InvalidRequestError(text or HTTPStatus(code).phrase))

    def _read_body(self) -> Optional[bytes]:
        """The request body, or None after answering a protocol error."""
        raw = self.headers.get("Content-Length", "0")
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if not 0 <= length <= self.front.config.max_body_bytes:
            self.send_error(HTTPStatus.BAD_REQUEST, f"content-length {raw!r} out of bounds")
            return None
        body = self.rfile.read(length) if length else b""
        if len(body) < length:
            self.send_error(HTTPStatus.BAD_REQUEST, "body shorter than its content-length")
            return None
        return body

    def _serve(self) -> None:
        try:
            body = self._read_body()
            if body is None:
                return
            self.front._count("requests_handled")
            self._route(body)
        except ServeError as exc:
            self._reply_error(exc)
        except ConnectionError:
            raise  # the client left; handle() counts it
        except Exception as exc:  # noqa: BLE001 - counted and answered as 500
            self.front._count("internal_errors")
            self.close_connection = True
            self._reply_error(ServeError(f"{type(exc).__name__}: {exc}"))
        finally:
            if not self.front._set_idle(self.connection, True):
                self.close_connection = True  # close() has begun

    do_GET = do_POST = _serve

    def _route(self, body: bytes) -> None:
        method, path, front = self.command, self.path, self.front
        if method == "GET" and path == "/healthz":
            self._reply_json(200, front.health())
            return
        if method == "GET" and path == "/readyz":
            # Keyless like /healthz: probes rarely carry credentials.
            report = front.registry.readiness()
            if report.get("status") == "unready":
                self._reply_json(503, report, {"Retry-After": "1"})
            else:
                self._reply_json(200, report)
            return
        if method == "GET" and path == "/v1/models":
            tenant = self._authenticate()
            infos = front.registry.describe()
            models = [info.to_dict() for info in infos if tenant.may_use(info.name)]
            self._reply_json(200, {"models": models})
            return
        match = _STATS_PATH.match(path)
        if method == "GET" and match:
            tenant = self._authenticate()
            name = match.group(1)
            front.auth.authorize(tenant, name)
            self._reply_json(200, front.registry.stats(name).to_dict())
            return
        match = _PREDICT_PATH.match(path)
        if method == "POST" and match:
            tenant = self._authenticate()
            name = match.group(1)
            blocks, priority, deadline_ms, stream = _parse_predict(body)
            if front.recorder is not None:
                # After parsing, before admission: the trace captures every
                # well-formed call the queue is offered, including those the
                # queue then rejects (a replay must reproduce that load).
                front.recorder.record(
                    blocks, priority=priority, deadline_ms=deadline_ms, model=name, stream=stream
                )
                front._count("requests_recorded")

            def submit(texts: List[str]) -> concurrent.futures.Future:
                # Looked up per call: a tracer may wrap ``registry.submit``.
                return front.registry.submit(
                    name,
                    PredictionRequest.of(texts),
                    tenant=tenant,
                    priority=priority,
                    deadline_ms=deadline_ms,
                )

            if stream:
                self._predict_stream(name, blocks, submit)
            else:
                reply = _response_fields(submit(blocks).result())
                self._reply_json(200, {"model": name, **reply})
            return
        raise InvalidRequestError(f"no route for {method} {path}")

    def _authenticate(self):
        api_key = self.headers.get("X-API-Key")
        if api_key is None:
            bearer = self.headers.get("Authorization", "")
            if bearer.lower().startswith("bearer "):
                api_key = bearer[len("bearer ") :].strip()
        return self.front.auth.authenticate(api_key)

    def _predict_stream(self, name: str, blocks: List[str], submit) -> None:
        """NDJSON streaming: one line per micro-batch-sized chunk.

        Every chunk is its own queue request, so lines appear as the
        dispatcher flushes each micro-batch — the client consumes early
        results while later chunks still queue.  All chunks are admitted
        *before* the response head is written: admission-time failures
        (unknown model, full queue) still map to proper status codes, and
        a chunk refused admission cancels the chunks admitted before it,
        so a refused stream leaves nothing queued.
        Per-chunk failures after that (an expired deadline, a drained
        close) become ``"error"`` lines instead of poisoning the stream.

        A client that disconnects mid-stream is noticed within one poll
        interval (its socket reads EOF): every still-pending chunk future
        is cancelled, which propagates to the queue's eager cancel-discard
        and frees the abandoned blocks' capacity instead of predicting for
        nobody.  The connection then closes.
        """
        size = self.front.registry.variant(name).config.max_batch_size
        pending: Dict[concurrent.futures.Future, Tuple[int, int]] = {}
        try:
            for index, offset in enumerate(range(0, len(blocks), size)):
                pending[submit(blocks[offset : offset + size])] = (index, offset)
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        total_chunks = len(pending)
        disconnected = False
        try:
            chunked = {"Transfer-Encoding": "chunked"}
            self.wfile.write(self._head(200, "application/x-ndjson", chunked))
            while pending and not disconnected:
                done, _ = concurrent.futures.wait(
                    pending, _STREAM_POLL_S, concurrent.futures.FIRST_COMPLETED
                )
                for finished in done:
                    index, offset = pending.pop(finished)
                    line: Dict[str, Any] = {"chunk": index, "offset": offset}
                    try:
                        line.update(_response_fields(finished.result()))
                    except ServeError as exc:
                        line["error"] = {"code": exc.code.value, "message": str(exc)}
                    self._write_ndjson_line(line)
                disconnected = self._peer_gone()
            if not disconnected:
                self._write_ndjson_line({"done": True, "chunks": total_chunks})
                self.wfile.write(b"0\r\n\r\n")
        except OSError:
            # The peer vanished between the poll and a write; same cleanup
            # as a detected disconnect.
            disconnected = True
        finally:
            # Chunks still queued are dropped and their blocks freed; chunks
            # already mid-flush finish unobserved.
            cancelled = sum(1 for future in pending if future.cancel())
            self.front._count("stream_cancelled_chunks", cancelled)
            if disconnected:
                self.front._count("stream_disconnects")
                self.close_connection = True

    def _peer_gone(self) -> bool:
        """True once the client has closed (or reset) its end."""
        try:
            return not self.connection.recv(1, socket.MSG_PEEK | socket.MSG_DONTWAIT)
        except BlockingIOError:
            return False  # nothing to read: the client is still there
        except OSError:
            return True

    def _head(self, status: int, content_type: str, headers: Dict[str, str]) -> bytes:
        lines = [
            f"HTTP/1.1 {status} {HTTPStatus(status).phrase}",
            f"Content-Type: {content_type}",
            *(f"{name}: {value}" for name, value in headers.items()),
            f"Connection: {'close' if self.close_connection else 'keep-alive'}",
        ]
        return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")

    def _reply_json(
        self, status: int, payload: Dict[str, Any], headers: Optional[Dict[str, str]] = None
    ) -> None:
        body = json.dumps(_jsonable(payload)).encode("utf-8")
        headers = {"Content-Length": str(len(body)), **(headers or {})}
        # Head and body in one write: one segment for a small reply.
        self.wfile.write(self._head(status, "application/json", headers) + body)

    def _reply_error(self, exc: ServeError) -> None:
        status = STATUS_BY_REASON.get(exc.code, 500)
        error = {"error": {"code": exc.code.value, "message": str(exc)}}
        self._reply_json(status, error, {"Retry-After": "1"} if status == 503 else None)

    def _write_ndjson_line(self, payload: Dict[str, Any]) -> None:
        data = json.dumps(_jsonable(payload)).encode("utf-8") + b"\n"
        self.wfile.write(b"%x\r\n%s\r\n" % (len(data), data))
