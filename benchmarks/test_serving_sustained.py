"""Sustained-traffic serving: async front end vs. sync submit, hash sharding.

The async/queued front end exists for the production traffic shape: many
clients submitting *small* requests of mostly *novel* blocks (a compiler
autotuner streams new candidate blocks; only some repeat).  A synchronous
``submit()`` loop pays a tiny forward pass and, in sharded mode, an IPC
round-trip per request; the async dispatcher coalesces many requests into
dense micro-batch flushes that the worker shards crunch in parallel.

Three measurements over the same hash-sharded two-worker service:

* **sync** — the steady-state blocks/sec of a request-at-a-time
  synchronous submit loop (the only safe way to drive the sync service);
* **async burst** — everything enqueued at once: capacity must be at least
  the sync rate (this is the throughput half of the acceptance bar);
* **async paced at the sync rate** — the offered load the sync service can
  just sustain, now through the queue: the p99 flush wait must stay within
  2x ``DEADLINE_MS`` (the latency half of the acceptance bar).

A separate test checks shard affinity: under hash routing every worker's
caches own a stable partition of the block key space, so across the pool
each distinct block misses the prediction cache exactly once and every
repeat hits — both single-producer and with 8 concurrent producers over a
Zipf-skewed block popularity mix.

The remaining serving additions are benchmarked here too:

* **work-conserving dispatch** on a bursty workload — a lone request is
  flushed as soon as the flush slot is free, never held for company, so
  idle-phase p99 enqueue->response latency must stay well below the
  ``DEADLINE_MS`` budget, while the saturated phase sustains the
  synchronous service's blocks/s on the same burst;
* **cancellation goodput** — a producer abandoning half its in-flight
  requests must complete the wanted half measurably faster than a
  no-cancellation baseline, because dropped requests never reach a worker.

Wall-clock margins follow the repo convention: loose at the default quick
scale, tightening when ``REPRO_BENCH_STEPS`` asks for a paper-scale run.
"""

import os
import random
import threading
import time

import pytest

from repro.data.synthetic import BlockGenerator
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    PredictionService,
    ServiceConfig,
)

REQUEST_SIZE = 2
NUM_REQUESTS = 200  # per measurement phase
#: The latency budget these tests hold waits and latencies to.  Dispatch is
#: work-conserving, so no flush waits for it.
DEADLINE_MS = 25.0
NUM_WORKERS = 2
NUM_PRODUCERS = 4
REQUESTS_PER_PRODUCER = 50
#: The higher-producer-count scenario (skewed-popularity test).
NUM_PRODUCERS_SKEW = 8


def _throughput_margin() -> float:
    """Wall-clock comparison margin, scaled with the benchmark budget.

    Two same-workload runs on a busy CI box differ by several percent of
    noise; at the default quick scale the saturated-phase comparison keeps
    a loose 0.85x margin, tightening to near-strict when REPRO_BENCH_STEPS
    asks for a paper-scale run (longer runs, less relative noise).
    """
    steps = int(os.environ.get("REPRO_BENCH_STEPS", "0") or 0)
    return 0.95 if steps >= 1000 else 0.85


def _requests(block_texts, start):
    """NUM_REQUESTS small requests of novel blocks, starting at ``start``."""
    return [
        PredictionRequest.of(block_texts[index : index + REQUEST_SIZE])
        for index in range(start, start + NUM_REQUESTS * REQUEST_SIZE, REQUEST_SIZE)
    ]


@pytest.fixture(scope="module")
def block_texts():
    count = 20 + 3 * NUM_REQUESTS * REQUEST_SIZE  # warmup + three phases
    blocks = BlockGenerator(seed=41).generate_blocks(count)
    return [block.canonical_text() for block in blocks]


def test_async_sustains_sync_throughput_within_deadline(block_texts):
    config = ServiceConfig(
        model_name="granite", max_batch_size=64, num_workers=NUM_WORKERS
    )
    options = AsyncOptions(max_queue_blocks=8192)
    with PredictionService(config).warm_start() as service:
        for request in _requests(block_texts[:20], 0)[: 20 // REQUEST_SIZE]:
            service.submit([request])  # warm code paths, not the caches

        # Synchronous baseline: every request is its own submit/flush.
        sync_requests = _requests(block_texts, 20)
        start = time.perf_counter()
        for request in sync_requests:
            service.submit([request])
        sync_seconds = time.perf_counter() - start
        sync_rate = NUM_REQUESTS * REQUEST_SIZE / sync_seconds

        with AsyncPredictionService(options, service=service) as front_end:
            # Burst capacity: enqueue everything, drain through the queue.
            burst = _requests(block_texts, 20 + NUM_REQUESTS * REQUEST_SIZE)
            start = time.perf_counter()
            futures = [front_end.submit(request) for request in burst]
            for future in futures:
                future.result(timeout=300.0)
            burst_seconds = time.perf_counter() - start
            burst_rate = NUM_REQUESTS * REQUEST_SIZE / burst_seconds

            # Deadline under load: offer the sync service's own steady-state
            # rate through the queue and watch the flush waits.  Snapshot
            # the cumulative counters so the report below is paced-only.
            front_end.stats.flush_waits.clear()
            burst_flushes = front_end.stats.flushes
            burst_size = front_end.stats.size_flushes
            burst_blocks = front_end.stats.flushed_blocks
            paced = _requests(block_texts, 20 + 2 * NUM_REQUESTS * REQUEST_SIZE)
            interarrival = REQUEST_SIZE / sync_rate
            futures = []
            next_send = time.perf_counter()
            for request in paced:
                delay = next_send - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                futures.append(front_end.submit(request))
                next_send += interarrival
            for future in futures:
                future.result(timeout=300.0)
            stats = front_end.stats

    p50 = stats.flush_wait_percentile(0.50) * 1e3
    p99 = stats.flush_wait_percentile(0.99) * 1e3
    print()
    print("--- sustained traffic (novel blocks, 2 hash-sharded workers) ---")
    print(f"sync submit loop:   {sync_rate:8.0f} blocks/s ({sync_seconds:6.3f}s)")
    print(
        f"async burst:        {burst_rate:8.0f} blocks/s ({burst_seconds:6.3f}s)"
        f"  {burst_rate / sync_rate:5.2f}x"
    )
    paced_flushes = stats.flushes - burst_flushes
    print(
        f"async paced @ sync rate: {paced_flushes} flushes "
        f"({stats.size_flushes - burst_size} full), "
        f"mean {(stats.flushed_blocks - burst_blocks) / max(paced_flushes, 1):.1f} "
        f"blocks/flush"
    )
    print(f"flush wait: p50={p50:.2f} ms  p99={p99:.2f} ms (deadline {DEADLINE_MS} ms)")

    assert burst_rate >= sync_rate, (
        f"async front end sustains only {burst_rate:.0f} blocks/s vs "
        f"{sync_rate:.0f} blocks/s synchronous"
    )
    assert p99 <= 2.0 * DEADLINE_MS, (
        f"p99 flush wait {p99:.2f} ms exceeds 2x the {DEADLINE_MS} ms deadline "
        f"at the sync-equivalent offered load"
    )


def test_latency_bounded_coalescing_on_warm_traffic(block_texts):
    """Warm repeated traffic still coalesces densely and meets the deadline."""
    texts = block_texts[:64]
    config = ServiceConfig(
        model_name="granite",
        max_batch_size=64,
        async_options=AsyncOptions(max_queue_blocks=8192),
    )
    with AsyncPredictionService(service_config=config) as front_end:
        front_end.predict_blocks(texts)  # fill every cache
        futures = [
            front_end.submit(PredictionRequest.of(texts[index : index + REQUEST_SIZE]))
            for index in range(0, len(texts) - REQUEST_SIZE, REQUEST_SIZE)
            for _ in range(10)
        ]
        for future in futures:
            future.result(timeout=60.0)
        stats = front_end.stats
    p99 = stats.flush_wait_percentile(0.99) * 1e3
    print()
    print(
        f"warm traffic: {stats.flushes} flushes, "
        f"mean {stats.mean_flush_blocks:.1f} blocks/flush, p99 wait {p99:.2f} ms"
    )
    assert stats.mean_flush_blocks >= 4 * REQUEST_SIZE  # real coalescing happened
    assert p99 <= 2.0 * DEADLINE_MS


def _prediction_cache_counts(worker_stats):
    """Per-worker ``(misses, hits)`` prediction-cache counter lists."""
    caches = [entry.cache for entry in worker_stats]
    return (
        [cache.prediction_misses for cache in caches],
        [cache.prediction_hits for cache in caches],
    )


@pytest.mark.parametrize("rounds", [4])
def test_hash_routing_misses_each_block_once(block_texts, rounds):
    """Hash routing pins every block to one worker: across the pool each
    distinct block misses the prediction cache exactly once and every
    repeat hits, however the traffic is reshuffled."""
    population = block_texts[:64]
    config = ServiceConfig(
        model_name="granite", max_batch_size=16, num_workers=NUM_WORKERS
    )
    rng = random.Random(13)
    with PredictionService(config) as service:
        for _ in range(rounds):
            # Real traffic never repeats the exact same request composition,
            # so reshuffle the population every round: the ring must keep
            # each block on its owner regardless of which batch carries it.
            shuffled = population[:]
            rng.shuffle(shuffled)
            for start in range(0, len(shuffled), 8):
                service.submit([PredictionRequest.of(shuffled[start : start + 8])])
        misses, hits = _prediction_cache_counts(service.worker_stats())

    distinct = len(set(population))
    print()
    print(f"--- per-worker prediction-cache counters, {rounds} shuffled rounds ---")
    print(f"misses {misses}  hits {hits}  ({distinct} distinct blocks)")
    assert sum(misses) == distinct
    assert sum(hits) == rounds * len(population) - distinct


def test_multi_producer_no_loss_within_deadline():
    """Four concurrent threaded clients: no request loss, p99 wait bounded.

    The async front end's submit path is hit from ``NUM_PRODUCERS`` threads
    at once, each pacing its own novel-block traffic so the aggregate
    offered load matches the sync service's measured steady-state rate.
    Every future must resolve with its own request's blocks (no loss, no
    cross-wiring) and the p99 flush wait must stay within 2x the deadline —
    the same bar the single-producer test holds.
    """
    warmup = 20
    total_requests = NUM_PRODUCERS * REQUESTS_PER_PRODUCER
    calibration = 50
    blocks = BlockGenerator(seed=77).generate_blocks(
        warmup + (calibration + total_requests) * REQUEST_SIZE
    )
    texts = [block.canonical_text() for block in blocks]

    config = ServiceConfig(
        model_name="granite", max_batch_size=64, num_workers=NUM_WORKERS
    )
    options = AsyncOptions(max_queue_blocks=8192)
    with PredictionService(config).warm_start() as service:
        for start in range(0, warmup, REQUEST_SIZE):
            service.submit([PredictionRequest.of(texts[start : start + REQUEST_SIZE])])

        # Calibrate the offered load: the sync service's own sustained rate.
        start_time = time.perf_counter()
        for index in range(calibration):
            begin = warmup + index * REQUEST_SIZE
            service.submit([PredictionRequest.of(texts[begin : begin + REQUEST_SIZE])])
        sync_rate = calibration * REQUEST_SIZE / (time.perf_counter() - start_time)
        interarrival = NUM_PRODUCERS * REQUEST_SIZE / sync_rate

        with AsyncPredictionService(options, service=service) as front_end:
            results: dict = {}
            errors: list = []
            base = warmup + calibration * REQUEST_SIZE

            def produce(producer: int) -> None:
                futures = []
                next_send = time.perf_counter()
                try:
                    for index in range(REQUESTS_PER_PRODUCER):
                        offset = base + (
                            producer * REQUESTS_PER_PRODUCER + index
                        ) * REQUEST_SIZE
                        request = PredictionRequest.of(
                            texts[offset : offset + REQUEST_SIZE],
                            request_id=f"producer-{producer}-{index}",
                        )
                        delay = next_send - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        futures.append((request.request_id, front_end.submit(request)))
                        next_send += interarrival
                    for request_id, future in futures:
                        results[request_id] = future.result(timeout=120.0)
                except Exception as error:  # noqa: BLE001 - reported below
                    errors.append((producer, error))

            producers = [
                threading.Thread(target=produce, args=(producer,), daemon=True)
                for producer in range(NUM_PRODUCERS)
            ]
            start_time = time.perf_counter()
            for thread in producers:
                thread.start()
            for thread in producers:
                thread.join(timeout=300.0)
            elapsed = time.perf_counter() - start_time
            stats = front_end.stats

    assert not errors, f"producer threads failed: {errors}"
    # No request loss: every submitted request resolved, with its own size.
    assert len(results) == total_requests
    for request_id, response in results.items():
        assert response.request_id == request_id
        assert response.num_blocks == REQUEST_SIZE
    assert stats.requests == total_requests

    p50 = stats.flush_wait_percentile(0.50) * 1e3
    p99 = stats.flush_wait_percentile(0.99) * 1e3
    print()
    print(
        f"--- {NUM_PRODUCERS} producers x {REQUESTS_PER_PRODUCER} requests "
        f"@ {sync_rate:.0f} blocks/s aggregate ---"
    )
    print(
        f"{total_requests * REQUEST_SIZE / elapsed:8.0f} blocks/s served, "
        f"{stats.flushes} flushes, mean {stats.mean_flush_blocks:.1f} blocks/flush"
    )
    print(f"flush wait: p50={p50:.2f} ms  p99={p99:.2f} ms (deadline {DEADLINE_MS} ms)")
    assert p99 <= 2.0 * DEADLINE_MS, (
        f"p99 flush wait {p99:.2f} ms exceeds 2x the {DEADLINE_MS} ms deadline "
        f"under {NUM_PRODUCERS} concurrent producers"
    )


# --------------------------------------------------------------------- #
# Work-conserving dispatch on bursty traffic.
# --------------------------------------------------------------------- #

IDLE_REQUESTS = 60
IDLE_INTERARRIVAL_S = 0.030  # slower than the 25 ms deadline: idle-heavy
SATURATED_REQUESTS = 200  # per repeat, submitted all at once


def _percentile(samples, quantile):
    ordered = sorted(samples)
    index = min(int(quantile * len(ordered)), len(ordered) - 1)
    return ordered[index]


def _chunks(texts):
    return [
        PredictionRequest.of(texts[index : index + REQUEST_SIZE])
        for index in range(0, len(texts), REQUEST_SIZE)
    ]


def _run_work_conserving(idle_runs, saturated_runs, warm_texts):
    """The async front end's measurement over the bursty workload.

    Returns ``(idle_p99s_s, idle_p50s_s, best_saturated_rate, snapshot)``
    with one idle percentile pair per repeat.  Both phases repeat
    (best-of-N) because single-shot wall-clock tails on a busy CI box are
    scheduler noise, not dispatch behaviour.
    """
    config = ServiceConfig(
        model_name="granite",
        max_batch_size=64,
        async_options=AsyncOptions(max_queue_blocks=8192),
    )
    idle_p99s, idle_p50s = [], []
    with AsyncPredictionService(service_config=config) as front_end:
        front_end.predict_blocks(warm_texts)  # warm model + code paths

        # Idle-heavy phase: sparse lone requests.  The flush slot is free
        # when each arrives, so each is flushed alone, at once.
        for idle_texts in idle_runs:
            latencies = []
            futures = []
            next_send = time.perf_counter()
            for request in _chunks(idle_texts):
                delay = next_send - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent_at = time.perf_counter()
                future = front_end.submit(request)
                future.add_done_callback(
                    lambda _, sent_at=sent_at: latencies.append(
                        time.perf_counter() - sent_at
                    )
                )
                futures.append(future)
                next_send += IDLE_INTERARRIVAL_S
            for future in futures:
                future.result(timeout=300.0)
            # result() can return before the last done callback has
            # appended its sample (set_result notifies waiters first);
            # join on the sample count so no latency goes missing.
            join_deadline = time.monotonic() + 5.0
            while len(latencies) < len(futures) and time.monotonic() < join_deadline:
                time.sleep(0.001)
            assert len(latencies) == len(futures)
            idle_p99s.append(_percentile(latencies, 0.99))
            idle_p50s.append(_percentile(latencies, 0.50))

        # Saturated phase: everything enqueued at once, so the backlog
        # leaves in full max_batch_size flushes.
        best_rate = 0.0
        for run_texts in saturated_runs:
            start = time.perf_counter()
            futures = [front_end.submit(request) for request in _chunks(run_texts)]
            for future in futures:
                future.result(timeout=300.0)
            best_rate = max(best_rate, len(run_texts) / (time.perf_counter() - start))
        snapshot = front_end.snapshot()
    return idle_p99s, idle_p50s, best_rate, snapshot


def _run_sync_burst(saturated_runs, warm_texts):
    """Best blocks/s of a request-at-a-time sync submit loop on each burst.

    A fresh in-process service with the same warm-up keeps the comparison
    cache-fair: every burst block is novel to both sides.
    """
    config = ServiceConfig(model_name="granite", max_batch_size=64)
    best_rate = 0.0
    with PredictionService(config).warm_start() as service:
        service.predict_blocks(warm_texts)
        for run_texts in saturated_runs:
            start = time.perf_counter()
            for request in _chunks(run_texts):
                service.submit([request])
            best_rate = max(best_rate, len(run_texts) / (time.perf_counter() - start))
    return best_rate


def test_work_conserving_dispatch_on_bursty_traffic():
    """The dispatch acceptance bar: on a bursty workload, idle-phase p99
    enqueue->response latency stays well below the ``DEADLINE_MS`` budget,
    because work-conserving dispatch flushes a lone request as soon as the
    flush slot is free, and the saturated phase sustains the synchronous
    service's throughput on the same burst."""
    repeats = 2
    idle_run_size = IDLE_REQUESTS * REQUEST_SIZE
    run_size = SATURATED_REQUESTS * REQUEST_SIZE
    blocks = BlockGenerator(seed=97).generate_blocks(
        16 + repeats * (idle_run_size + run_size)
    )
    texts = [block.canonical_text() for block in blocks]
    warm_texts = texts[:16]
    idle_texts = texts[16 : 16 + repeats * idle_run_size]
    saturated_texts = texts[16 + repeats * idle_run_size :]
    idle_runs = [
        idle_texts[run * idle_run_size : (run + 1) * idle_run_size]
        for run in range(repeats)
    ]
    saturated_runs = [
        saturated_texts[run * run_size : (run + 1) * run_size]
        for run in range(repeats)
    ]

    p99s, p50s, async_rate, snapshot = _run_work_conserving(
        idle_runs, saturated_runs, warm_texts
    )
    sync_rate = _run_sync_burst(saturated_runs, warm_texts)

    print()
    print("--- bursty traffic: work-conserving dispatch ---")
    print(
        f"idle p50={min(p50s) * 1e3:7.2f} ms  p99={min(p99s) * 1e3:7.2f} ms "
        f"(runs: {['%.1f' % (p * 1e3) for p in p99s]}; latency budget "
        f"{DEADLINE_MS} ms)"
    )
    print(
        f"saturated async {async_rate:8.0f} blocks/s vs sync {sync_rate:8.0f} "
        f"blocks/s   flushes={snapshot.flush.flushes} "
        f"({snapshot.flush.size_flushes} full), "
        f"mean {snapshot.flush.mean_flush_blocks:.1f} blocks/flush"
    )

    # Best-of-N: a single scheduler stall in one run must not decide it.
    idle_p99 = min(p99s)
    margin = _throughput_margin()

    # Idle-heavy phase: nothing holds a lone request, so work-conserving
    # dispatch must answer it decisively inside the latency budget.
    assert idle_p99 < 0.8 * DEADLINE_MS / 1e3, (
        f"idle-phase p99 ({idle_p99 * 1e3:.2f} ms) is not below 0.8x the "
        f"{DEADLINE_MS} ms latency budget"
    )
    # Saturated phase: the backlog leaves in full batches, which must
    # sustain the request-at-a-time sync loop's throughput.
    assert async_rate >= margin * sync_rate, (
        f"async saturated throughput ({async_rate:.0f} blocks/s) fell below "
        f"{margin:.2f}x the sync submit loop's ({sync_rate:.0f} blocks/s)"
    )


# --------------------------------------------------------------------- #
# Cancellation goodput.
# --------------------------------------------------------------------- #


def _goodput_run(texts, abandon):
    """Submits ``len(texts)/2``-request backlog, optionally abandoning half.

    Every odd request is the "abandoned" half.  Returns the goodput in
    blocks/s over the *wanted* (even, never-cancelled) requests, measured
    from dispatcher start to the last wanted completion.
    """
    service = AsyncPredictionService(
        service_config=ServiceConfig(
            model_name="granite",
            max_batch_size=32,
            async_options=AsyncOptions(
                max_queue_blocks=65536
            ),
        )
    )
    wanted, abandoned = [], []
    for index in range(0, len(texts), REQUEST_SIZE):
        future = service.submit(
            PredictionRequest.of(texts[index : index + REQUEST_SIZE])
        )
        if (index // REQUEST_SIZE) % 2:
            abandoned.append(future)
        else:
            wanted.append(future)
    if abandon:
        for future in abandoned:
            assert future.cancel()
    start = time.perf_counter()
    service.start()
    for future in wanted:
        future.result(timeout=600.0)
    elapsed = time.perf_counter() - start
    if not abandon:
        for future in abandoned:
            future.result(timeout=600.0)
    snapshot = service.snapshot()
    service.close()
    goodput = len(wanted) * REQUEST_SIZE / elapsed
    return goodput, snapshot


def test_cancellation_increases_goodput():
    """The cancellation acceptance bar: abandoning 50% of the in-flight
    requests must measurably raise the goodput (completed non-cancelled
    blocks/s) over the no-cancellation baseline, because dropped requests
    never consume prediction time."""
    num_requests = 150  # per half; the backlog is 2x this
    # One corpus for both legs: each leg gets a fresh service (no cache
    # carryover), so identical blocks make the workloads identical and the
    # measured difference purely the cancellation effect.
    texts = [
        block.canonical_text()
        for block in BlockGenerator(seed=113).generate_blocks(
            2 * num_requests * REQUEST_SIZE
        )
    ]
    legs = {}
    for leg, abandon in (("baseline", False), ("cancelling", True)):
        legs[leg] = _goodput_run(texts, abandon)

    baseline, baseline_snapshot = legs["baseline"]
    cancelling, cancelling_snapshot = legs["cancelling"]
    print()
    print("--- goodput with 50% of requests abandoned in-queue ---")
    print(f"baseline (no cancels): {baseline:8.0f} wanted blocks/s")
    print(
        f"cancelling:            {cancelling:8.0f} wanted blocks/s "
        f"({cancelling / baseline:.2f}x), "
        f"{cancelling_snapshot.queue.cancelled_drops} drops"
    )
    assert baseline_snapshot.queue.cancelled_drops == 0
    assert cancelling_snapshot.queue.cancelled_drops == num_requests
    # The cancelled half never reaches a worker, so the wanted half should
    # finish in roughly half the time; demand a conservative 1.3x.
    assert cancelling >= 1.3 * baseline, (
        f"goodput with cancellation ({cancelling:.0f} blocks/s) is only "
        f"{cancelling / baseline:.2f}x the baseline ({baseline:.0f} blocks/s)"
    )


# --------------------------------------------------------------------- #
# Many producers over a skewed (Zipf-like) popularity mix.
# --------------------------------------------------------------------- #


def test_hash_routing_caches_each_block_once_under_skewed_producers():
    """8 concurrent producers sampling blocks from a Zipf-like popularity
    distribution: hash routing must still cache each distinct block on
    exactly one worker, through both the concurrency and the skew.

    Counted by cache entries, not misses: a block that appears twice in the
    flush that first carries it misses once per copy (the model computes it
    once but looks each copy up), and Zipf traffic repeats head blocks
    within a flush all the time.
    """
    population = [
        block.canonical_text()
        for block in BlockGenerator(seed=131).generate_blocks(64)
    ]
    # Zipf-like: popularity ~ 1/rank.  The head blocks recur constantly,
    # the tail rarely — the traffic shape of a real autotuner corpus.
    weights = [1.0 / rank for rank in range(1, len(population) + 1)]
    requests_per_producer = 24
    config = ServiceConfig(
        model_name="granite",
        max_batch_size=16,
        num_workers=NUM_WORKERS,
        async_options=AsyncOptions(max_queue_blocks=8192),
    )
    sent = [[] for _ in range(NUM_PRODUCERS_SKEW)]
    errors = []
    with AsyncPredictionService(service_config=config) as front_end:

        def produce(producer_index):
            rng = random.Random(500 + producer_index)
            try:
                futures = []
                for _ in range(requests_per_producer):
                    texts = rng.choices(population, weights=weights, k=4)
                    sent[producer_index].extend(texts)
                    futures.append(front_end.submit(PredictionRequest.of(texts)))
                for future in futures:
                    future.result(timeout=300.0)
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append((producer_index, error))

        producers = [
            threading.Thread(target=produce, args=(index,), daemon=True)
            for index in range(NUM_PRODUCERS_SKEW)
        ]
        for thread in producers:
            thread.start()
        for thread in producers:
            thread.join(timeout=300.0)
        assert not errors, f"producers failed: {errors}"
        caches = [entry.cache for entry in front_end.service.worker_stats()]
        flushes = front_end.stats.flushes

    distinct = len({text for texts in sent for text in texts})
    total = sum(len(texts) for texts in sent)
    print()
    print(
        f"--- {NUM_PRODUCERS_SKEW} producers, Zipf-skewed popularity, "
        f"{NUM_WORKERS} workers ---"
    )
    entries = [cache.prediction_entries for cache in caches]
    lookups = [cache.prediction_hits + cache.prediction_misses for cache in caches]
    print(
        f"cache entries {entries}  lookups {lookups}  "
        f"({distinct} distinct of {total} blocks, {flushes} flushes)"
    )
    assert sum(entries) == distinct
    assert sum(lookups) == total
