"""``online-zipf``: an open loop of HTTP predict requests.

Why this workload: it models a compiler or autotuner asking for predictions
as candidate blocks arrive.  Requests arrive as a Poisson process at a fixed
rate, whatever the server is doing; each is ``POST
/v1/models/{m}/predict`` with 1 to 8 blocks whose texts are drawn Zipf(1.1)
from a seeded ``BlockGenerator`` universe sized so that about a third of the
blocks are first seen.  ``serve`` (HTTP, registry, async queue and flush),
the prediction cache and, for the misses, the ``isa``/``graph``
front end do most of the work; the small model does little.  A ``serve`` or
cache change shows here; an ``nn`` change is predicted neutral.

The server is a separate process (``server.py``) that runs the model
itself (``num_workers=0``).  The client is this process: one asyncio loop
with at most two keep-alive connections.  Every request is timed from its *scheduled* send
time, so a stalled client or a busy connection counts against the server's
latency as it would against a real caller; how late the generator itself
ran is reported next to it.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.synthetic import BlockGenerator
from repro.isa.basic_block import BasicBlock
from repro.serve.workers import build_model

from common import (
    BENCH_DIR,
    OUT,
    BenchmarkError,
    WorkloadResult,
    instruction_count,
    latency_summary,
    median,
    quantile,
    relative_error,
    unique_block_texts,
)
from server import MODEL, service_config
from spans import trace_metrics

RATE_PER_S = 40.0
MAX_BLOCKS_PER_REQUEST = 8
ZIPF_EXPONENT = 1.1
FIRST_SEEN_TARGET = 1.0 / 3.0
LATENCY_LIMIT_MS = 100.0
WARMUP_S = 2.0
CONNECTIONS = min(2, os.cpu_count() or 1)
SETUP_REPEATS = 3
#: Every CHECK_EVERY-th request is compared against an in-process model.
CHECK_EVERY = 10
CHECK_TOLERANCE = 1e-9
OPERATION = "request"
PREDICT_PATH = f"/v1/models/{MODEL}/predict"
STATS_PATH = f"/v1/models/{MODEL}/stats"

#: Per-layer metrics this workload measures (the rest read 0 here).
PER_LAYER = (
    "serve.http_overhead_ms",
    "serve.flush_wait_p50_ms",
    "serve.flush_wait_p99_ms",
    "serve.blocks_per_flush",
    "serve.worker_rtt_ms",
    "models.prediction_hit_ratio",
    "models.encode_hit_ratio",
)


# ---------------------------------------------------------------------- #
# Inputs.
# ---------------------------------------------------------------------- #
def _first_seen_share(ranks: np.ndarray, measured_from: int) -> float:
    _, first = np.unique(ranks, return_index=True)
    return float(np.sum(first >= measured_from)) / (len(ranks) - measured_from)


def _zipf_ranks(seed: int, universe: int, count: int) -> np.ndarray:
    weights = np.arange(1, universe + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    rng = np.random.default_rng([seed, universe])
    return rng.choice(universe, size=count, p=weights / weights.sum())


def make_requests(seed: int, seconds: float) -> Tuple[List[Tuple[float, List[str]]], int]:
    """The seeded schedule: ``[(send time, block texts)]`` and warm-up count.

    Arrivals are Poisson at ``RATE_PER_S``; the universe size is searched so
    that about a third of the blocks sent after warm-up were never sent
    before.
    """
    rng = np.random.default_rng(seed)
    # A Poisson process conditioned on its count: arrival times are uniform
    # order statistics, so every seed offers the same number of requests
    # (and, with every size equally often, the same number of blocks).
    times, sizes = [], []
    for begin, length in ((0.0, WARMUP_S), (WARMUP_S, seconds)):
        count = int(round(RATE_PER_S * length))
        times.append(np.sort(rng.uniform(begin, begin + length, size=count)))
        sizes.append(rng.permutation(np.arange(count) % MAX_BLOCKS_PER_REQUEST + 1))
    warmup_requests = len(times[0])
    times, sizes = np.concatenate(times), np.concatenate(sizes)
    total = int(sizes.sum())
    measured_from = int(sizes[:warmup_requests].sum())
    low, high = 16, 1 << 22
    while high - low > 1:
        middle = (low + high) // 2
        share = _first_seen_share(_zipf_ranks(seed, middle, total), measured_from)
        low, high = (middle, high) if share < FIRST_SEEN_TARGET else (low, middle)
    ranks = _zipf_ranks(seed, high, total)
    distinct, inverse = np.unique(ranks, return_inverse=True)
    texts = unique_block_texts(BlockGenerator(seed=seed), len(distinct))
    requests = []
    offset = 0
    for time_s, size in zip(times, sizes):
        requests.append((float(time_s), [texts[i] for i in inverse[offset:offset + size]]))
        offset += size
    return requests, warmup_requests


# ---------------------------------------------------------------------- #
# The server process.
# ---------------------------------------------------------------------- #
class ServerProcess:
    """``server.py`` in its own session, so every process under it can be
    stopped and waited for."""

    def __init__(self, seed: int, trace: bool) -> None:
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "server.py"), "--seed", str(seed),
             "--trace", str(int(trace))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        self.port = self._read()["port"]
        self.setup_s = time.perf_counter() - self.started

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise BenchmarkError("the server process exited early")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._read()

    def stop(self) -> Optional[dict]:
        """Stops the server and every process it started; returns its report."""
        report = None
        if self.process.poll() is None:
            try:
                report = self.command("stop")
            except (BrokenPipeError, BenchmarkError, ValueError):
                report = None
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdin.close()
        self.process.stdout.close()
        # Then whatever the server left in its session (any process the
        # program started), politely first.
        for sig, grace_s in ((signal.SIGTERM, 10.0), (signal.SIGKILL, 5.0)):
            deadline = time.monotonic() + grace_s
            while time.monotonic() < deadline:
                try:
                    os.killpg(self.process.pid, sig)
                except ProcessLookupError:
                    return report
                time.sleep(0.05)
        return report


# ---------------------------------------------------------------------- #
# The client.
# ---------------------------------------------------------------------- #
class Connection:
    def __init__(self, reader, writer) -> None:
        self.reader, self.writer = reader, writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection("127.0.0.1", port))

    async def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
            .encode("latin-1") + body
        )
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        return status, await self.reader.readexactly(length)

    def close(self) -> None:
        self.writer.close()


async def _drive(port: int, requests: List[Tuple[float, List[str]]]) -> List[dict]:
    """Sends ``requests`` on schedule; one outcome dict per request."""
    loop = asyncio.get_running_loop()
    pool: asyncio.Queue = asyncio.Queue()
    for _ in range(CONNECTIONS):
        pool.put_nowait(await Connection.open(port))
    bodies = [json.dumps({"blocks": texts}).encode("utf-8") for _, texts in requests]
    outcomes: List[dict] = [{} for _ in requests]

    async def send(index: int, due: float) -> None:
        outcome = outcomes[index]
        connection = await pool.get()
        try:
            status, body = await connection.request("POST", PREDICT_PATH, bodies[index])
            outcome["status"] = status
            outcome["reply"] = json.loads(body) if status == 200 else None
        except (OSError, asyncio.IncompleteReadError, ValueError) as error:
            outcome["status"] = 0
            outcome["error"] = repr(error)
            connection.close()
            connection = await Connection.open(port)
        finally:
            pool.put_nowait(connection)
        outcome["latency_ms"] = (time.monotonic() - due) * 1e3
        outcome["due"] = due

    tasks = []
    start = time.monotonic() + 0.05
    for index, (offset, _) in enumerate(requests):
        due = start + offset
        delay = due - time.monotonic()
        if delay > 0:
            await asyncio.sleep(delay)
        outcomes[index]["lag_ms"] = (time.monotonic() - due) * 1e3
        tasks.append(loop.create_task(send(index, due)))
    await asyncio.gather(*tasks)
    while not pool.empty():
        pool.get_nowait().close()
    return outcomes


async def _stats(port: int) -> dict:
    connection = await Connection.open(port)
    try:
        status, body = await connection.request("GET", STATS_PATH)
    finally:
        connection.close()
    if status != 200:
        raise BenchmarkError(f"stats endpoint answered {status}")
    return json.loads(body)


def drive(port: int, requests) -> List[dict]:
    return asyncio.run(_drive(port, requests))


def stats(port: int) -> dict:
    return asyncio.run(_stats(port))


# ---------------------------------------------------------------------- #
# Checks and metrics.
# ---------------------------------------------------------------------- #
def reply_mismatches(model, texts: List[str], predictions: Dict[str, list]) -> int:
    """Blocks of one reply that disagree with the in-process reference."""
    reference = model.predict([BasicBlock.from_text(text) for text in texts])
    return sum(
        any(
            predictions[task][index] is None
            or relative_error(predictions[task][index], reference[task][index])
            > CHECK_TOLERANCE
            for task in model.tasks
        )
        for index in range(len(texts))
    )


def check(seed: int, requests, outcomes: List[dict]) -> Tuple[List[bool], object, list]:
    """Marks each outcome ok or not; returns the reference model and the
    blocks checked."""
    model = build_model(service_config(seed))
    checked = []
    ok = []
    for index, ((_, texts), outcome) in enumerate(zip(requests, outcomes)):
        good = outcome.get("status") == 200
        if good and index % CHECK_EVERY == 0:
            good = reply_mismatches(model, texts, outcome["reply"]["predictions"]) == 0
            checked.extend(texts)
        ok.append(good)
    return ok, model, checked


def stats_delta(before: dict, after: dict) -> Dict[str, float]:
    """Per-layer serving metrics over the span between two stats reads."""
    def cache_delta(key: str) -> float:
        # The in-process replica reports its caches in the snapshot.
        return (after["snapshot"]["model"]["cache"][key]
                - before["snapshot"]["model"]["cache"][key])

    flush_a, flush_b = after["snapshot"]["flush"], before["snapshot"]["flush"]
    model_a, model_b = after["snapshot"]["model"], before["snapshot"]["model"]
    prediction_hits = cache_delta("prediction_hits")
    encode_hits = cache_delta("encode_hits")
    return {
        "serve.flush_wait_p50_ms": flush_a["wait_p50_ms"],
        "serve.flush_wait_p99_ms": flush_a["wait_p99_ms"],
        "serve.blocks_per_flush": (flush_a["flushed_blocks"] - flush_b["flushed_blocks"])
        / (flush_a["flushes"] - flush_b["flushes"]),
        "serve.worker_rtt_ms": (model_a["seconds"] - model_b["seconds"]) * 1e3
        / (model_a["batches"] - model_b["batches"]),
        "serve.request_p50_ms": flush_a["request_p50_ms"],
        "models.prediction_hit_ratio":
            prediction_hits / (prediction_hits + cache_delta("prediction_misses")),
        "models.encode_hit_ratio":
            encode_hits / (encode_hits + cache_delta("encode_misses")),
    }


def properties(requests, warmup: int, model, checked: List[str],
               blocks_per_flush: float) -> Dict[str, float]:
    seen = {text for _, texts in requests[:warmup] for text in texts}
    first = 0
    total = 0
    for _, texts in requests[warmup:]:
        for text in texts:
            total += 1
            if text not in seen:
                first += 1
                seen.add(text)
    measured = requests[warmup:]
    graphs = model.encode_blocks([BasicBlock.from_text(text) for text in checked]).graphs
    return {
        "workload.first_seen_share": first / total,
        "workload.blocks_per_request": total / len(measured),
        "workload.instr_per_block": sum(
            instruction_count(text) for _, texts in measured for text in texts
        ) / total,
        "workload.nodes_per_batch": graphs.num_nodes / len(checked) * blocks_per_flush,
        "workload.edges_per_batch": graphs.num_edges / len(checked) * blocks_per_flush,
    }


def _rebased(requests):
    first = requests[0][0]
    return [(time_s - first, texts) for time_s, texts in requests]


def run(seed: int, seconds: float, trace: bool, short: bool = False) -> WorkloadResult:
    requests, warmup = make_requests(seed, seconds)
    setup_times = []
    for repeat in range(1 if trace or short else SETUP_REPEATS):
        server = ServerProcess(seed, trace)
        setup_times.append(server.setup_s)
        if repeat + 1 < SETUP_REPEATS and not (trace or short):
            server.stop()
    try:
        drive(server.port, requests[:warmup])
        before = stats(server.port)
        measured = _rebased(requests[warmup:])
        if trace:
            half = next(i for i, (t, _) in enumerate(measured) if t >= seconds / 2)
            untraced = drive(server.port, measured[:half])
            server.command("trace on")
            traced = drive(server.port, _rebased(measured[half:]))
            server.command("trace off")
            server_spans = OUT / f"online-zipf-seed{seed}-server-spans.jsonl"
            server.command(f"dump {server_spans}")
            outcomes = untraced + traced
        else:
            outcomes = drive(server.port, measured)
        after = stats(server.port)
    finally:
        report = server.stop()
    if report is None:
        raise BenchmarkError("the server process did not report")
    ok, model, checked = check(seed, requests[warmup:], outcomes)
    latencies = [outcome["latency_ms"] for outcome in outcomes]
    on_time = [
        good and outcome["latency_ms"] <= LATENCY_LIMIT_MS
        for good, outcome in zip(ok, outcomes)
    ]
    window_s = (max(o["due"] + o["latency_ms"] / 1e3 for o in outcomes)
                - min(o["due"] for o in outcomes))
    served = stats_delta(before, after)
    props = properties(requests, warmup, model, checked, served["serve.blocks_per_flush"])
    failed = len(ok) - sum(ok)
    lags = [outcome["lag_ms"] for outcome in outcomes]
    details = {
        "requests": len(outcomes),
        "generator_lag_p50_ms": median(lags),
        "generator_lag_p99_ms": quantile(lags, 0.99),
        "generator_lag_max_ms": max(lags),
        "server_request_p50_ms": served.pop("serve.request_p50_ms"),
        "errors": sorted({o["error"] for o in outcomes if "error" in o})[:5],
        **props,
    }
    if trace:
        return _traced_result(untraced, traced, server_spans, served, props, details,
                              failed)
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": report["peak_rss_mb"],
        "latency_p50_ms": median(latencies),
        "slo_ok_ratio": sum(on_time) / len(outcomes),
        "throughput_blocks_per_s": sum(
            len(texts) for (_, texts), good in zip(requests[warmup:], ok) if good
        ) / window_s,
    }
    details.update(served)
    details["latency"] = latency_summary(latencies)
    return WorkloadResult(len(outcomes), failed, metrics, details)


def _traced_result(untraced, traced, server_spans, served, props, details,
                   failed) -> WorkloadResult:
    """Per-request span trees: client → server request → flush.

    The client span runs from the scheduled send to the parsed reply; the
    server's spans join it by request id.  A flush serves several requests,
    so its span is copied under each of them.
    """
    with open(server_spans, encoding="utf-8") as handle:
        server = [json.loads(line) for line in handle]
    requests = {s["request_id"]: s for s in server if s["name"] == "serve.request"}
    flush_of = {}
    for span in server:
        if span["name"] == "serve.flush":
            for request_id in span["request_id"].split(","):
                flush_of[request_id] = span
    spans = []
    next_id = 0
    for outcome in traced:
        reply = outcome.get("reply")
        request_id = reply["request_id"] if reply else None
        start = outcome["due"]
        end = start + outcome["latency_ms"] / 1e3
        root = next_id = next_id + 1
        spans.append((root, None, "serve.http", start, end, request_id, "client"))
        request = requests.get(request_id)
        if request is not None:
            child = next_id = next_id + 1
            spans.append((child, root, "serve.queue", request["start"], request["end"],
                          request_id, "server"))
            flush = flush_of.get(request_id)
            if flush is not None:
                next_id += 1
                spans.append((next_id, child, "serve.flush", flush["start"],
                              flush["end"], request_id, "server"))
    metrics = trace_metrics(
        spans,
        [o["latency_ms"] / 1e3 for o in untraced],
        [o["latency_ms"] / 1e3 for o in traced],
    )
    client_p50 = median([o["latency_ms"] for o in untraced + traced])
    metrics.update(served)
    metrics["serve.http_overhead_ms"] = client_p50 - details["server_request_p50_ms"]
    metrics.update(props)
    return WorkloadResult(len(untraced) + len(traced), failed, metrics, details,
                          spans=spans, operations=len(traced))
