"""End-to-end tests of the HTTP front end (repro.serve.http).

One server, several named model variants (different uarch heads and
dtypes), per-tenant API keys — every test talks to a real socket.
"""

import dataclasses
import json
import socket
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st
from json_fuzz import JSON_VALUES

from repro.models.config import default_inference_dtype
from repro.serve import (
    AsyncOptions,
    HttpServerConfig,
    ModelRegistry,
    ModelStats,
    ModelVariant,
    PredictionHttpServer,
    PredictionRequest,
    ReasonCode,
    STATUS_BY_REASON,
    ServiceConfig,
    ServiceSnapshot,
    Tenant,
    TenantDirectory,
)
from repro.serve.stats import FlushStats, QueueStats

ACME_KEY = "test-key-acme"
BLUE_KEY = "test-key-blue"


def http(
    port,
    method,
    path,
    payload=None,
    api_key=None,
    bearer=False,
    timeout=120.0,
    raw=None,
):
    """One raw HTTP/1.1 exchange; returns (status, parsed-or-raw body).

    ``raw`` sends those exact body bytes instead of JSON-encoding
    ``payload``.
    """
    if raw is not None:
        body = raw
    else:
        body = b"" if payload is None else json.dumps(payload).encode()
    head = (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
        f"Content-Length: {len(body)}\r\n"
    )
    if api_key is not None:
        head += (
            f"Authorization: Bearer {api_key}\r\n"
            if bearer
            else f"X-API-Key: {api_key}\r\n"
        )
    head += "Connection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(head.encode() + body)
        raw = b""
        while True:
            part = sock.recv(65536)
            if not part:
                break
            raw += part
    header_blob, _, rest = raw.partition(b"\r\n\r\n")
    status = int(header_blob.split(b" ")[1])
    if b"transfer-encoding: chunked" in header_blob.lower():
        chunks = []
        while rest:
            size_line, _, rest = rest.partition(b"\r\n")
            size = int(size_line, 16)
            if size == 0:
                break
            chunks.append(rest[:size])
            rest = rest[size + 2 :]
        lines = b"".join(chunks).decode().strip().split("\n")
        return status, [json.loads(line) for line in lines]
    return status, json.loads(rest) if rest else None


@pytest.fixture(scope="module")
def server():
    """One HTTP server over three variants and two tenants."""
    registry = ModelRegistry(
        (
            ModelVariant(
                "granite-haswell",
                ServiceConfig(tasks=("haswell",), max_batch_size=4),
                description="haswell head",
            ),
            ModelVariant(
                "granite-skylake-f32",
                ServiceConfig(
                    tasks=("skylake",),
                    max_batch_size=8,
                    inference_dtype="float32",
                ),
                description="mixed-precision skylake head",
            ),
            # Saturation target: a 2-block queue rejecting instead of
            # blocking.
            ModelVariant(
                "tiny-queue",
                ServiceConfig(
                    tasks=("haswell",),
                    max_batch_size=4,
                    async_options=AsyncOptions(
                        max_queue_blocks=2,
                        backpressure="reject",
                    ),
                ),
            ),
        )
    )
    auth = TenantDirectory(
        (
            Tenant(
                "acme",
                api_key=ACME_KEY,
                allowed_models=("granite-haswell", "tiny-queue"),
            ),
            Tenant("blue", api_key=BLUE_KEY),
        )
    )
    with PredictionHttpServer(
        registry, HttpServerConfig(), auth=auth, own_registry=True
    ) as running:
        yield running


class TestRoutingAndAuth:
    def test_healthz_needs_no_key(self, server):
        status, body = http(server.port, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_missing_and_unknown_keys_are_401(self, server):
        for api_key in (None, "wrong-key"):
            status, body = http(server.port, "GET", "/v1/models", api_key=api_key)
            assert status == 401
            assert body["error"]["code"] == "unauthenticated"

    def test_listing_is_filtered_per_tenant(self, server):
        status, body = http(server.port, "GET", "/v1/models", api_key=ACME_KEY)
        assert status == 200
        assert [model["name"] for model in body["models"]] == [
            "granite-haswell",
            "tiny-queue",
        ]
        status, body = http(
            server.port, "GET", "/v1/models", api_key=BLUE_KEY, bearer=True
        )
        assert status == 200
        assert len(body["models"]) == 3

    def test_model_off_allow_list_is_403(self, server):
        status, body = http(
            server.port,
            "POST",
            "/v1/models/granite-skylake-f32/predict",
            payload={"block": "mov rax, 1"},
            api_key=ACME_KEY,
        )
        assert status == 403
        assert body["error"]["code"] == "forbidden"

    def test_unknown_model_is_404(self, server):
        status, body = http(
            server.port,
            "POST",
            "/v1/models/ghost/predict",
            payload={"block": "mov rax, 1"},
            api_key=BLUE_KEY,
        )
        assert status == 404
        assert body["error"]["code"] == "unknown_model"

    def test_unknown_route_is_400(self, server):
        status, body = http(server.port, "GET", "/nope", api_key=BLUE_KEY)
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"blocks": []},
            {"blocks": ["  "]},
            {"blocks": [42]},
            {"block": "mov rax, 1", "blocks": ["mov rax, 1"]},
            {"blocks": ["mov rax, 1"], "priority": "urgent"},
            {"blocks": ["mov rax, 1"], "deadline_ms": -5},
            {"blocks": ["mov rax, 1"], "deadline_ms": float("nan")},
            {"blocks": ["mov rax, 1"], "deadline_ms": float("inf")},
            {"blocks": ["mov rax, 1"], "stream": "yes"},
        ],
    )
    def test_malformed_predict_bodies_are_400(self, server, payload):
        status, body = http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload=payload,
            api_key=ACME_KEY,
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_request"

    def test_status_map_covers_every_reason_code(self):
        assert set(STATUS_BY_REASON) == set(ReasonCode)


_BLOCK_TEXTS = st.sampled_from(["mov rax, 1", "add rax, rbx", "imul rcx, rdx"])
_PREDICT_PAYLOADS = st.fixed_dictionaries(
    {},
    optional={
        "blocks": st.lists(_BLOCK_TEXTS, min_size=1, max_size=3) | JSON_VALUES,
        "block": _BLOCK_TEXTS | JSON_VALUES,
        "priority": st.sampled_from(["interactive", "bulk", "urgent"]) | JSON_VALUES,
        "deadline_ms": JSON_VALUES,
        "stream": st.booleans() | JSON_VALUES,
    },
)


@st.composite
def _predict_bodies(draw):
    """Raw predict bodies: wrong JSON types, NaN, huge numbers, deep
    nesting, truncated documents and bytes that are not UTF-8."""
    encoded = json.dumps(draw(_PREDICT_PAYLOADS | JSON_VALUES)).encode()
    kind = draw(st.sampled_from(["json", "truncated", "nested", "not-utf8", "bytes"]))
    if kind == "truncated":
        return encoded[: draw(st.integers(0, max(len(encoded) - 1, 0)))]
    if kind == "nested":
        # Around and far past the JSON decoder's recursion limit.
        depth = draw(st.sampled_from([1, 100, 999, 1001, 5000, 100_000]))
        return ('{"blocks": ' + "[" * depth + "]" * depth + "}").encode()
    if kind == "not-utf8":
        position = draw(st.integers(0, len(encoded)))
        return encoded[:position] + b"\xff\xfe\xc3" + encoded[position:]
    if kind == "bytes":
        return draw(st.binary(max_size=64))
    return encoded


class TestPredictBodyFuzz:
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(body=_predict_bodies())
    def test_every_body_gets_a_typed_reply(self, server, body):
        status, reply = http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            api_key=ACME_KEY,
            timeout=30.0,
            raw=body,
        )
        if status != 200:
            assert 400 <= status < 500, (status, reply)
            assert reply["error"]["code"] in {code.value for code in ReasonCode}
        _, health = http(server.port, "GET", "/healthz", timeout=30.0)
        assert health["internal_errors"] == 0


class TestPredict:
    def test_unary_predict(self, server):
        status, body = http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload={
                "blocks": ["add rax, rbx\nsub rcx, 4", "mov rdx, 8"],
                "priority": "interactive",
            },
            api_key=ACME_KEY,
        )
        assert status == 200
        assert body["model"] == "granite-haswell"
        assert body["num_blocks"] == 2
        assert len(body["predictions"]["haswell"]) == 2
        assert all(value > 0 for value in body["predictions"]["haswell"])

    def test_two_variants_through_one_server(self, server):
        """Same socket, different uarch head AND different dtype."""
        blocks = ["add rax, rbx", "mov rcx, 4\nadd rcx, rdx"]
        results = {}
        for model in ("granite-haswell", "granite-skylake-f32"):
            status, body = http(
                server.port,
                "POST",
                f"/v1/models/{model}/predict",
                payload={"blocks": blocks},
                api_key=BLUE_KEY,
            )
            assert status == 200
            results[model] = body["predictions"]
        assert set(results["granite-haswell"]) == {"haswell"}
        assert set(results["granite-skylake-f32"]) == {"skylake"}
        # granite-haswell sets no explicit dtype, so it follows the
        # process-wide default (the INFERENCE_DTYPE CI matrix leg);
        # granite-skylake-f32 pins float32 regardless.
        for model, dtype in (
            ("granite-haswell", default_inference_dtype()),
            ("granite-skylake-f32", "float32"),
        ):
            status, report = http(
                server.port,
                "GET",
                f"/v1/models/{model}/stats",
                api_key=BLUE_KEY,
            )
            assert status == 200
            model_section = report["snapshot"]["model"]
            assert model_section["inference_dtype"] == dtype
            # Every block has one ring owner: no replication counters.
            assert not [
                key
                for key in model_section
                if key.startswith("hot_") or key == "replicated_routes"
            ]

    def test_concurrent_multi_model_traffic(self, server):
        """Parallel clients on both variants: isolated caches and answers."""
        outcomes = {}

        def client(tag, model, block):
            outcomes[tag] = http(
                server.port,
                "POST",
                f"/v1/models/{model}/predict",
                payload={"blocks": [block] * 3},
                api_key=BLUE_KEY,
            )

        threads = [
            threading.Thread(
                target=client,
                args=(
                    index,
                    ("granite-haswell", "granite-skylake-f32")[index % 2],
                    f"add rax, {index}\nmov rbx, {index}",
                ),
            )
            for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(outcomes) == 6
        for index, (status, body) in outcomes.items():
            assert status == 200
            expected = ("haswell", "skylake")[index % 2]
            assert set(body["predictions"]) == {expected}
            assert body["num_blocks"] == 3

    def test_streaming_emits_one_line_per_micro_batch(self, server):
        blocks = [f"add rax, {i}\nmov rbx, {i}" for i in range(10)]
        status, lines = http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload={"blocks": blocks, "stream": True},
            api_key=ACME_KEY,
        )
        assert status == 200
        # max_batch_size=4 over 10 blocks -> 3 chunks + the done line.
        assert lines[-1] == {"done": True, "chunks": 3}
        data_lines = lines[:-1]
        assert sorted(line["chunk"] for line in data_lines) == [0, 1, 2]
        assert sorted(line["offset"] for line in data_lines) == [0, 4, 8]
        assert sum(line["num_blocks"] for line in data_lines) == 10
        for line in data_lines:
            assert len(line["predictions"]["haswell"]) == line["num_blocks"]

    def test_zero_deadline_is_408(self, server):
        status, body = http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload={"block": "mov rax, 1", "deadline_ms": 0},
            api_key=ACME_KEY,
        )
        assert status == 408
        assert body["error"]["code"] == "deadline_expired"


class TestAdmission:
    def test_malformed_block_fails_only_its_own_request(self):
        """Two concurrent predicts: the bad block is refused at admission
        (400), so it never shares a flush with, or fails, the well-formed
        request (200)."""
        registry = ModelRegistry(
            (
                ModelVariant(
                    "batched",
                    ServiceConfig(tasks=("haswell",), max_batch_size=8),
                ),
            )
        )
        with PredictionHttpServer(
            registry, HttpServerConfig(), own_registry=True
        ) as running:
            results = {}

            def post(name, block):
                results[name] = http(
                    running.port,
                    "POST",
                    "/v1/models/batched/predict",
                    payload={"blocks": [block]},
                )

            threads = [
                threading.Thread(target=post, args=("good", "add rax, rbx")),
                threading.Thread(target=post, args=("bad", "mov rax, [rbx+")),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            _, health = http(running.port, "GET", "/healthz")
        good_status, good_body = results["good"]
        bad_status, bad_body = results["bad"]
        assert good_status == 200
        assert len(good_body["predictions"]["haswell"]) == 1
        assert bad_status == 400
        assert bad_body["error"]["code"] == "invalid_request"
        assert health["internal_errors"] == 0


def _loaded_service(registry, name):
    """The sync ``PredictionService`` behind loaded variant ``name``."""
    registry.load(name)
    return registry._services[name].service


class TestBackpressure:
    def test_forced_saturation_is_429(self, server, flush_gate):
        """Fill tiny-queue's 2-block reject queue, then get turned away."""
        # Hold the variant's dispatcher: the holder's flush parks in
        # the gate, so whatever is submitted next stays queued.
        gate = flush_gate(_loaded_service(server.registry, "tiny-queue"))
        holder = server.registry.submit(
            "tiny-queue", PredictionRequest.of(["mov rdx, 4"])
        )
        assert gate.entered.wait(30.0), "the holder never reached the slot"
        results = {}

        def filler():
            results["fill"] = http(
                server.port,
                "POST",
                "/v1/models/tiny-queue/predict",
                payload={
                    "blocks": ["mov rax, 1", "mov rbx, 2"],
                    "priority": "bulk",
                },
                api_key=ACME_KEY,
            )

        thread = threading.Thread(target=filler)
        thread.start()
        # Wait until the filler's two blocks are actually queued (the
        # gated flush keeps them there).
        deadline = time.monotonic() + 30.0
        depth = 0
        while time.monotonic() < deadline:
            _, report = http(
                server.port,
                "GET",
                "/v1/models/tiny-queue/stats",
                api_key=ACME_KEY,
            )
            snapshot = report.get("snapshot")
            depth = snapshot["queue"]["depth_blocks"] if snapshot else 0
            if depth == 2:
                break
            time.sleep(0.05)
        assert depth == 2, "saturation never established"
        status, body = http(
            server.port,
            "POST",
            "/v1/models/tiny-queue/predict",
            payload={"block": "mov rcx, 3"},
            api_key=ACME_KEY,
        )
        assert status == 429
        assert body["error"]["code"] == "queue_full"
        # Once the slot frees, the queued filler is flushed and answered.
        gate.release.set()
        assert holder.result(timeout=120.0).num_blocks == 1
        thread.join(timeout=120.0)
        assert not thread.is_alive()
        assert results["fill"][0] == 200, "queued work must still be answered"
        server.registry.unload("tiny-queue")


class TestRegistryLifecycleOverHttp:
    def test_lazy_load_visible_in_listing(self, server):
        registry = server.registry
        registry.register(
            ModelVariant("lazy-model", ServiceConfig(tasks=("ivy_bridge",)))
        )
        _, body = http(server.port, "GET", "/v1/models", api_key=BLUE_KEY)
        listed = {model["name"]: model for model in body["models"]}
        assert listed["lazy-model"]["loaded"] is False
        status, _ = http(
            server.port,
            "POST",
            "/v1/models/lazy-model/predict",
            payload={"block": "mov rax, 1"},
            api_key=BLUE_KEY,
        )
        assert status == 200
        _, body = http(server.port, "GET", "/v1/models", api_key=BLUE_KEY)
        listed = {model["name"]: model for model in body["models"]}
        assert listed["lazy-model"]["loaded"] is True
        assert registry.unload("lazy-model") is True
        _, report = http(
            server.port,
            "GET",
            "/v1/models/lazy-model/stats",
            api_key=BLUE_KEY,
        )
        assert report["info"]["loaded"] is False
        assert report["snapshot"] is None

    def test_closed_registry_is_503(self):
        registry = ModelRegistry(
            (ModelVariant("m", ServiceConfig(tasks=("haswell",))),)
        )
        with PredictionHttpServer(registry, HttpServerConfig()) as running:
            registry.close()
            status, body = http(
                running.port,
                "POST",
                "/v1/models/m/predict",
                payload={"block": "mov rax, 1"},
            )
            assert status == 503
            assert body["error"]["code"] == "service_closed"


class TestStatsSchema:
    def test_stats_json_conforms_to_typed_schema(self, server):
        http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload={"block": "mov rax, 1"},
            api_key=ACME_KEY,
        )
        status, report = http(
            server.port,
            "GET",
            "/v1/models/granite-haswell/stats",
            api_key=ACME_KEY,
        )
        assert status == 200
        snapshot = report["snapshot"]
        # The wire schema is exactly the dataclass schema.
        assert set(snapshot) == {
            spec.name for spec in dataclasses.fields(ServiceSnapshot)
        }
        assert set(snapshot["queue"]) == {
            spec.name for spec in dataclasses.fields(QueueStats)
        }
        assert set(snapshot["flush"]) == {
            spec.name for spec in dataclasses.fields(FlushStats)
        }
        assert set(snapshot["model"]) == {
            spec.name for spec in dataclasses.fields(ModelStats)
        }
        assert snapshot["queue"]["submitted_requests"] >= 1
        assert snapshot["model"]["model_name"] == "granite"

    def test_per_tenant_counters_in_stats(self, server):
        for _ in range(2):
            http(
                server.port,
                "POST",
                "/v1/models/granite-haswell/predict",
                payload={"block": "mov rax, 1"},
                api_key=ACME_KEY,
            )
        http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload={"block": "mov rax, 1"},
            api_key=BLUE_KEY,
        )
        _, report = http(
            server.port,
            "GET",
            "/v1/models/granite-haswell/stats",
            api_key=BLUE_KEY,
        )
        by_tenant = report["info"]["requests_by_tenant"]
        assert by_tenant["acme"] >= 2
        assert by_tenant["blue"] >= 1


class TestStreamDisconnect:
    @pytest.fixture()
    def slow_server(self):
        """A server with one single-slot variant for the tests to gate."""
        registry = ModelRegistry(
            (
                ModelVariant(
                    "slow",
                    ServiceConfig(tasks=("haswell",), max_batch_size=8),
                ),
            )
        )
        with PredictionHttpServer(
            registry, HttpServerConfig(), own_registry=True
        ) as running:
            yield running

    def test_disconnect_cancels_pending_chunks(self, slow_server, flush_gate):
        port = slow_server.port
        # Park a holder's flush in the variant's single slot, so the
        # streamed chunks stay queued until the client walks away.
        registry = slow_server.registry
        gate = flush_gate(_loaded_service(registry, "slow"))
        registry.submit("slow", PredictionRequest.of(["mov rdx, 4"]))
        assert gate.entered.wait(30.0), "the holder never reached the slot"
        payload = json.dumps(
            {"blocks": [f"mov rax, {i}" for i in range(6)], "stream": True}
        ).encode()
        head = (
            f"POST /v1/models/slow/predict HTTP/1.1\r\nHost: t\r\n"
            f"Content-Length: {len(payload)}\r\n\r\n"
        ).encode()
        with socket.create_connection(("127.0.0.1", port), timeout=30.0) as sock:
            sock.sendall(head + payload)
            # Wait for the response headers: the stream is now live and
            # its chunk futures are queued behind the gated flush.
            raw = b""
            while b"\r\n\r\n" not in raw:
                raw += sock.recv(4096)
            assert b"200" in raw.split(b"\r\n", 1)[0]
        # Socket closed mid-stream.  The server's poll loop must notice,
        # cancel the pending chunk futures and count the disconnect.
        deadline = time.monotonic() + 30.0
        body = {}
        while time.monotonic() < deadline:
            _, body = http(port, "GET", "/healthz")
            if body["stream_disconnects"] >= 1:
                break
            time.sleep(0.05)
        assert body["stream_disconnects"] == 1
        assert body["stream_cancelled_chunks"] >= 1

    def test_refused_chunk_cancels_the_chunks_admitted_before_it(self, flush_gate):
        """A 6-block stream into a 4-block reject queue, 2 blocks a chunk:
        the third chunk is refused, so the stream answers 429 and the two
        admitted chunks leave the queue without ever being computed."""
        registry = ModelRegistry(
            (
                ModelVariant(
                    "small",
                    ServiceConfig(
                        tasks=("haswell",),
                        max_batch_size=2,
                        async_options=AsyncOptions(
                            max_queue_blocks=4, backpressure="reject"
                        ),
                    ),
                ),
            )
        )
        with PredictionHttpServer(
            registry, HttpServerConfig(), own_registry=True
        ) as running:
            service = _loaded_service(registry, "small")
            seen = []
            submit = service.submit

            def recording(requests):
                seen.extend(
                    text for request in requests for text in request.block_texts
                )
                return submit(requests)

            service.submit = recording
            gate = flush_gate(service)
            holder = registry.submit("small", PredictionRequest.of(["mov rdx, 4"]))
            assert gate.entered.wait(30.0), "the holder never reached the slot"
            try:
                status, body = http(
                    running.port,
                    "POST",
                    "/v1/models/small/predict",
                    payload={
                        "blocks": [f"mov rax, {i}" for i in range(6)],
                        "stream": True,
                    },
                )
                # Read while the gate still holds the dispatcher, so only
                # the cancellation can have emptied the queue.
                queue = registry.stats("small").snapshot.queue
            finally:
                gate.release.set()
            holder.result(timeout=60.0)
        assert status == 429
        assert body["error"]["code"] == "queue_full"
        assert queue.depth_blocks == 0
        # Closing drained the queue: anything left in it was flushed.
        assert seen == ["mov rdx, 4"]

    def test_completed_stream_counts_no_disconnect(self, server):
        blocks = [f"add rax, {i}" for i in range(4)]
        status, lines = http(
            server.port,
            "POST",
            "/v1/models/granite-haswell/predict",
            payload={"blocks": blocks, "stream": True},
            api_key=ACME_KEY,
        )
        assert status == 200
        assert lines[-1]["done"] is True
        _, body = http(server.port, "GET", "/healthz")
        assert body["stream_disconnects"] == 0
        assert body["stream_cancelled_chunks"] == 0


class TestRecorderHook:
    def test_predicts_are_captured_as_a_trace(self):
        from repro.serve import TraceRecorder

        recorder = TraceRecorder()
        registry = ModelRegistry(
            (ModelVariant("rec", ServiceConfig(tasks=("haswell",))),)
        )
        with PredictionHttpServer(
            registry, HttpServerConfig(), own_registry=True, recorder=recorder
        ) as running:
            http(
                running.port,
                "POST",
                "/v1/models/rec/predict",
                payload={"blocks": ["mov rax, 1", "add rbx, 2"]},
            )
            http(
                running.port,
                "POST",
                "/v1/models/rec/predict",
                payload={"block": "sub rcx, 3", "priority": "bulk"},
            )
            # Rejected submissions are offered load too: a 404 model never
            # reaches a queue but still lands in the trace.
            http(
                running.port,
                "POST",
                "/v1/models/ghost/predict",
                payload={"block": "mov rdx, 4"},
            )
            _, body = http(running.port, "GET", "/healthz")
        assert body["requests_recorded"] == 3
        trace = recorder.trace()
        assert trace.num_requests == 3
        assert trace.requests[0].block_texts == ("mov rax, 1", "add rbx, 2")
        assert trace.requests[0].model == "rec"
        assert trace.requests[1].num_blocks == 1
        assert trace.requests[2].model == "ghost"
        offsets = [request.offset_s for request in trace.requests]
        assert offsets == sorted(offsets) and offsets[0] == 0.0


class TestServerLifecycle:
    def test_close_is_idempotent_and_start_after_close_fails(self):
        from repro.serve import ServiceClosedError

        running = PredictionHttpServer(
            ModelRegistry(), HttpServerConfig(), own_registry=True
        ).start()
        port = running.port
        assert http(port, "GET", "/healthz")[0] == 200
        running.close()
        running.close()
        with pytest.raises(ServiceClosedError):
            running.start()
        with pytest.raises(ConnectionError):
            socket.create_connection(("127.0.0.1", port), timeout=5)

    def test_port_conflict_surfaces_at_start(self):
        first = PredictionHttpServer(
            ModelRegistry(), HttpServerConfig(), own_registry=True
        ).start()
        second = PredictionHttpServer(
            ModelRegistry(),
            HttpServerConfig(port=first.port),
            own_registry=True,
        )
        try:
            with pytest.raises(OSError):
                second.start()
        finally:
            first.close()


def raw_exchange(port, data, timeout=30.0):
    """Sends raw bytes and reads until the server closes; returns the
    (status, parsed JSON body) of its one reply."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(data)
        raw = b""
        try:
            while True:
                part = sock.recv(65536)
                if not part:
                    break
                raw += part
        except ConnectionResetError:
            pass  # closed with part of a refused head unread
    head, _, body = raw.partition(b"\r\n\r\n")
    return int(head.split(b" ")[1]), json.loads(body)


def read_reply(sock):
    """One Content-Length framed reply off a kept-alive socket."""
    raw = b""
    while b"\r\n\r\n" not in raw:
        part = sock.recv(65536)
        assert part, "the server closed before replying"
        raw += part
    head, _, body = raw.partition(b"\r\n\r\n")
    length = int(head.lower().split(b"content-length:")[1].split(b"\r\n")[0])
    while len(body) < length:
        body += sock.recv(65536)
    return head, json.loads(body)


_OVERSIZED_HEAD = (
    b"GET /healthz HTTP/1.1\r\n"
    + b"".join(b"X-Pad-%d: %s\r\n" % (index, b"a" * 1000) for index in range(70))
    + b"\r\n"
)


class TestProtocolErrors:
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"GARBAGE\r\n\r\n", "malformed request line"),
            (b"GET /healthz HTTP/1.1 extra\r\n\r\n", "malformed request line"),
            (b"GET /healthz\r\n\r\n", "malformed request line"),  # HTTP/0.9
            (_OVERSIZED_HEAD, "request head over 65536 bytes"),
            (b"BREW /v1/models HTTP/1.1\r\nHost: t\r\n\r\n", "no route for BREW /v1/models"),
            (b"GET /healthz HTTP/3.0\r\n\r\n", "HTTP version"),
            (
                b"POST /v1/models/granite-haswell/predict HTTP/1.1\r\n"
                b"Content-Length: 99999999999\r\n\r\n",
                "content-length",
            ),
            (
                b"POST /v1/models/granite-haswell/predict HTTP/1.1\r\n"
                b"Content-Length: many\r\n\r\n",
                "content-length",
            ),
        ],
        ids=[
            "one-word", "four-words", "http-0.9", "head-over-64k", "unknown-method",
            "http-3", "body-over-bound", "bad-content-length",
        ],
    )
    def test_refused_request_gets_a_typed_400(self, server, data, message):
        _, before = http(server.port, "GET", "/healthz")
        status, body = raw_exchange(server.port, data)
        _, after = http(server.port, "GET", "/healthz")
        assert status == 400
        assert body["error"]["code"] == "invalid_request"
        assert message in body["error"]["message"]
        assert after["protocol_errors"] == before["protocol_errors"] + 1
        assert after["internal_errors"] == 0

    def test_head_just_under_the_bound_is_served(self, server):
        pad = 64 * 1024 - 200
        data = b"GET /healthz HTTP/1.1\r\nX-Pad: %s\r\nConnection: close\r\n\r\n" % (
            b"a" * pad
        )
        status, body = raw_exchange(server.port, data)
        assert status == 200
        assert body["status"] == "ok"


def _wait_refused(port, timeout=30.0):
    """Waits until ``port`` refuses connections; False on timeout."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=5).close()
        except (ConnectionRefusedError, ConnectionResetError):
            # A reset: the listening socket closed under the handshake.
            return True
        time.sleep(0.01)
    return False


class TestClose:
    def test_close_answers_a_predict_parked_in_a_gated_flush(self, flush_gate):
        registry = ModelRegistry(
            (ModelVariant("m", ServiceConfig(tasks=("haswell",))),)
        )
        running = PredictionHttpServer(
            registry, HttpServerConfig(), own_registry=True
        ).start()
        port = running.port
        gate = flush_gate(_loaded_service(registry, "m"))
        replies = []

        def post():
            try:
                replies.append(
                    http(port, "POST", "/v1/models/m/predict",
                         payload={"block": "mov rax, 1"}, timeout=60.0)
                )
            except (OSError, IndexError, ValueError) as exc:
                replies.append(exc)  # no reply: the connection was dropped

        client = threading.Thread(target=post)
        client.start()
        assert gate.entered.wait(30.0), "the predict never reached the flush"
        closer = threading.Thread(target=running.close)
        closer.start()
        # close() stops accepting before it waits for in-flight responses.
        assert _wait_refused(port), "close() never stopped accepting"
        gate.release.set()
        closer.join(60.0)
        client.join(60.0)
        assert not closer.is_alive() and not client.is_alive()
        (reply,) = replies
        assert not isinstance(reply, Exception), f"no reply: {reply!r}"
        status, body = reply
        assert status == 200
        assert body["num_blocks"] == 1

    def test_close_returns_with_an_idle_keep_alive_client(self):
        running = PredictionHttpServer(
            ModelRegistry(), HttpServerConfig(), own_registry=True
        ).start()
        with socket.create_connection(("127.0.0.1", running.port), timeout=30.0) as sock:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            head, body = read_reply(sock)
            assert b"Connection: keep-alive" in head
            assert body["status"] == "ok"
            closer = threading.Thread(target=running.close)
            closer.start()
            closer.join(5.0)
            assert not closer.is_alive(), "close() waited on an idle connection"
            # The server ended the idle connection.
            assert sock.recv(1) == b""


class TestCounters:
    def test_concurrent_requests_lose_no_count(self):
        """Connection threads share the /healthz counters: none is lost."""
        clients, requests_each = 8, 20
        running = PredictionHttpServer(
            ModelRegistry(), HttpServerConfig(), own_registry=True
        ).start()
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            statuses = []

            def client():
                for _ in range(requests_each):
                    statuses.append(http(running.port, "GET", "/healthz")[0])

            threads = [threading.Thread(target=client) for _ in range(clients)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
            _, body = http(running.port, "GET", "/healthz")
            running.close()
        assert statuses == [200] * clients * requests_each
        # The final read counts itself.
        assert body["requests_handled"] == clients * requests_each + 1
        assert running.health()["requests_handled"] == clients * requests_each + 1

