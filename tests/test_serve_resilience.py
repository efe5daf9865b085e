"""Tests of the self-healing machinery: breakers, backoff, degradation."""

import multiprocessing
import random
import threading
import time

import numpy as np
import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    PredictionService,
    ServiceClosedError,
    ServiceConfig,
)
from repro.serve.faults import FaultPlan, FaultSpec
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerPolicy,
    CircuitBreaker,
    RespawnGovernor,
    RespawnPolicy,
    StalePredictionCache,
)
from repro.serve import workers
from repro.serve.workers import ShardedWorkerPool, WorkerCrashError
from repro.testing.equivalence import assert_allclose_for_dtype


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# ---------------------------------------------------------------------------
# Circuit breaker
# ---------------------------------------------------------------------------

_LEGAL_TRANSITIONS = {
    (BREAKER_CLOSED, BREAKER_CLOSED),
    (BREAKER_CLOSED, BREAKER_OPEN),
    (BREAKER_OPEN, BREAKER_OPEN),
    (BREAKER_OPEN, BREAKER_HALF_OPEN),
    (BREAKER_HALF_OPEN, BREAKER_HALF_OPEN),
    (BREAKER_HALF_OPEN, BREAKER_OPEN),
    (BREAKER_HALF_OPEN, BREAKER_CLOSED),
}


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=3))
        breaker.record_failure(0)
        breaker.record_failure(0)
        breaker.record_success(0)  # success resets the consecutive count
        breaker.record_failure(0)
        breaker.record_failure(0)
        assert breaker.state(0) == BREAKER_CLOSED
        breaker.record_failure(0)
        assert breaker.state(0) == BREAKER_OPEN
        assert breaker.counters()["trips"] == 1

    def test_open_refuses_traffic_until_reset_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=2.0), clock=clock
        )
        breaker.record_failure(0)
        assert breaker.allow(0) is False
        clock.advance(1.0)
        assert breaker.allow(0) is False
        clock.advance(1.5)
        assert breaker.state(0) == BREAKER_HALF_OPEN
        assert breaker.allow(0) is True

    def test_half_open_admits_exactly_the_probe_quota(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=1.0, probe_quota=2),
            clock=clock,
        )
        breaker.record_failure(0)
        clock.advance(1.5)
        admitted = [breaker.allow(0) for _ in range(5)]
        assert admitted == [True, True, False, False, False]
        # An outcome frees a probe slot.
        breaker.record_success(0)
        assert breaker.allow(0) is True

    def test_probe_failure_reopens_and_probe_successes_close(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(
                failure_threshold=1, reset_timeout_s=1.0, success_threshold=2
            ),
            clock=clock,
        )
        breaker.record_failure(0)
        clock.advance(1.5)
        assert breaker.allow(0) is True
        breaker.record_failure(0)
        assert breaker.state(0) == BREAKER_OPEN
        assert breaker.counters()["trips"] == 2
        clock.advance(1.5)
        breaker.allow(0)
        breaker.record_success(0)
        assert breaker.state(0) == BREAKER_HALF_OPEN
        breaker.allow(0)
        breaker.record_success(0)
        assert breaker.state(0) == BREAKER_CLOSED
        assert breaker.counters()["recoveries"] == 1

    def test_late_success_while_open_is_ignored(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record_failure(0)
        breaker.record_success(0)  # stale outcome from before the trip
        assert breaker.state(0) == BREAKER_OPEN

    def test_workers_are_independent(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record_failure(3)
        assert breaker.state(3) == BREAKER_OPEN
        assert breaker.state(7) == BREAKER_CLOSED
        assert breaker.open_count() == 1

    @pytest.mark.parametrize("seed", range(12))
    def test_random_event_sequences_never_reach_an_illegal_state(self, seed):
        """Property test: any interleaving of outcomes, probes and time only
        ever walks legal transitions, and open always refuses traffic."""
        rng = random.Random(seed)
        clock = FakeClock()
        policy = BreakerPolicy(
            failure_threshold=rng.randint(1, 4),
            reset_timeout_s=rng.choice([0.5, 1.0, 2.0]),
            probe_quota=rng.randint(1, 3),
            success_threshold=rng.randint(1, 3),
        )
        breaker = CircuitBreaker(policy, clock=clock)
        previous = breaker.state(0)
        for _ in range(300):
            event = rng.choice(["fail", "success", "allow", "tick"])
            if event == "fail":
                breaker.record_failure(0)
            elif event == "success":
                breaker.record_success(0)
            elif event == "allow":
                admitted = breaker.allow(0)
                if previous == BREAKER_OPEN:
                    assert admitted is False
                elif previous == BREAKER_CLOSED:
                    assert admitted is True
            else:
                clock.advance(rng.choice([0.1, 0.6, 2.5]))
            current = breaker.state(0)
            if event == "tick":
                # Time alone can only hold state or move open -> half-open.
                assert (previous, current) in {
                    (previous, previous),
                    (BREAKER_OPEN, BREAKER_HALF_OPEN),
                }
            assert (previous, current) in _LEGAL_TRANSITIONS
            assert current in (BREAKER_CLOSED, BREAKER_OPEN, BREAKER_HALF_OPEN)
            previous = current

    @pytest.mark.parametrize("seed", range(6))
    def test_half_open_admissions_bounded_by_quota_under_random_load(self, seed):
        rng = random.Random(seed)
        clock = FakeClock()
        quota = rng.randint(1, 3)
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=1.0, probe_quota=quota),
            clock=clock,
        )
        breaker.record_failure(0)
        clock.advance(1.5)
        assert breaker.state(0) == BREAKER_HALF_OPEN
        admitted = sum(1 for _ in range(quota + 5) if breaker.allow(0))
        assert admitted == quota


# ---------------------------------------------------------------------------
# Respawn governance
# ---------------------------------------------------------------------------


class TestRespawnGovernor:
    def make(self, clock):
        return RespawnGovernor(
            RespawnPolicy(
                max_respawns=2,
                window_s=10.0,
                backoff_base_s=1.0,
                backoff_max_s=8.0,
                multiplier=2.0,
            ),
            clock=clock,
        )

    def test_allows_until_window_overflows(self):
        clock = FakeClock()
        governor = self.make(clock)
        for _ in range(2):
            assert governor.may_respawn(0) is True
            governor.record_respawn(0)
        assert governor.may_respawn(0) is False
        assert governor.in_backoff(0) is True
        assert governor.backoff_workers() == [0]
        assert governor.suppressed >= 1

    def test_backoff_expires_and_doubles_on_repeat_overflow(self):
        clock = FakeClock()
        governor = self.make(clock)
        for _ in range(2):
            governor.record_respawn(0)
        assert governor.may_respawn(0) is False  # starts 1s backoff
        clock.advance(0.5)
        assert governor.may_respawn(0) is False  # still inside it
        clock.advance(0.6)
        # Backoff over, but the window still holds both respawns -> a second
        # overflow with a doubled (2s) backoff.
        assert governor.may_respawn(0) is False
        clock.advance(1.5)
        assert governor.may_respawn(0) is False
        clock.advance(9.0)
        # Window drained and backoff expired: healthy again.
        assert governor.may_respawn(0) is True
        assert governor.in_backoff(0) is False

    def test_workers_are_independent(self):
        clock = FakeClock()
        governor = self.make(clock)
        for _ in range(2):
            governor.record_respawn(0)
        assert governor.may_respawn(0) is False
        assert governor.may_respawn(1) is True


# ---------------------------------------------------------------------------
# Stale prediction cache
# ---------------------------------------------------------------------------


class TestStalePredictionCache:
    def test_round_trip(self):
        cache = StalePredictionCache()
        cache.record(
            ["a", "b"],
            {"haswell": np.array([1.0, 2.0]), "skylake": np.array([3.0, 4.0])},
        )
        payload = cache.lookup(["b", "a"])
        np.testing.assert_allclose(payload["haswell"], [2.0, 1.0])
        np.testing.assert_allclose(payload["skylake"], [4.0, 3.0])
        assert sorted(payload) == ["haswell", "skylake"]

    def test_partial_coverage_returns_none(self):
        cache = StalePredictionCache()
        cache.record(["a"], {"haswell": np.array([1.0])})
        assert cache.lookup(["a", "b"]) is None
        assert cache.lookup(["a"], tasks=("skylake",)) is None

    def test_task_subset_lookup(self):
        cache = StalePredictionCache()
        cache.record(
            ["a"], {"haswell": np.array([1.0]), "skylake": np.array([2.0])}
        )
        payload = cache.lookup(["a"], tasks=("skylake",))
        assert set(payload) == {"skylake"}

    def test_dtype_follows_recorded_arrays(self):
        cache = StalePredictionCache()
        cache.record(["a"], {"haswell": np.array([1.0], dtype=np.float32)})
        assert cache.lookup(["a"])["haswell"].dtype == np.float32

    def test_bounded_by_maxsize(self):
        cache = StalePredictionCache(maxsize=2)
        for index in range(4):
            cache.record([f"t{index}"], {"haswell": np.array([float(index)])})
        assert len(cache) == 2
        assert cache.lookup(["t0"]) is None
        assert cache.lookup(["t3"]) is not None


# ---------------------------------------------------------------------------
# End-to-end self-healing through the async front end
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def chaos_blocks():
    return BlockGenerator(GeneratorConfig(seed=91)).generate_blocks(24)


class TestDegradedMode:
    def test_stale_cache_serves_when_backend_fails(self, chaos_blocks):
        config = ServiceConfig(max_batch_size=8)
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(options, service_config=config) as front:
            warm = front.submit(PredictionRequest.of(chaos_blocks[:4])).result(30)
            assert warm.degraded is False

            real_submit = front.service.submit
            failed_calls = []

            def failing(requests):
                failed_calls.append(requests)
                raise RuntimeError("backend down")

            front.service.submit = failing
            try:
                stale = front.submit(
                    PredictionRequest.of(chaos_blocks[:4])
                ).result(30)
            finally:
                front.service.submit = real_submit
            assert stale.degraded is True
            for task in warm.predictions:
                np.testing.assert_allclose(
                    stale.predictions[task], warm.predictions[task]
                )
            snapshot = front.snapshot()
            assert snapshot.resilience.degraded_responses == 1
            # The stale reply follows the first failure: no hidden retry.
            assert len(failed_calls) == 1
            assert snapshot.resilience.stale_cache_entries == 4

    def test_uncached_blocks_still_fail(self, chaos_blocks):
        config = ServiceConfig(max_batch_size=8)
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(options, service_config=config) as front:

            def failing(requests):
                raise RuntimeError("backend down")

            front.service.submit = failing
            future = front.submit(PredictionRequest.of(chaos_blocks[:2]))
            with pytest.raises(RuntimeError, match="backend down"):
                future.result(30)


def _fail_flushes(front, error, count=None):
    """Makes the first ``count`` flushes of ``front`` (every flush when
    None) raise ``error``; later ones reach the real service.  Returns the
    list that records each flush's number of requests, in order."""
    real_submit = front.service.submit
    flushes = []

    def submit(requests):
        flushes.append(len(requests))
        if count is None or len(flushes) <= count:
            raise error
        return real_submit(requests)

    front.service.submit = submit
    return flushes


class TestFirstFailedFlush:
    """A failed flush calls the service once, then goes through the
    degraded-reply check to the client: nothing is retried."""

    def test_every_request_of_the_failed_batch_gets_the_error(
        self, chaos_blocks, flush_gate
    ):
        error = RuntimeError("backend down")
        with AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            flushes = _fail_flushes(front, error)
            gate = flush_gate(front.service)
            first = front.submit(PredictionRequest.of(chaos_blocks[:1]))
            assert gate.entered.wait(30)
            # Queued behind the parked flush, so both join the next batch.
            batch = [
                front.submit(PredictionRequest.of(chaos_blocks[start : start + 2]))
                for start in (1, 3)
            ]
            gate.release.set()
            for future in [first, *batch]:
                assert future.exception(30) is error
            snapshot = front.snapshot()
        assert flushes == [1, 2]
        assert snapshot.flush.flushes == 2
        assert snapshot.flush.request_errors == 3
        assert snapshot.flush.requests_completed == 0
        assert snapshot.resilience.degraded_responses == 0

    def test_the_flush_after_a_failure_is_served_fresh(self, chaos_blocks):
        error = RuntimeError("transient")
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(
            options, service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            flushes = _fail_flushes(front, error, count=1)
            failed = front.submit(PredictionRequest.of(chaos_blocks[:2]))
            assert failed.exception(30) is error
            # A failed flush leaves nothing in the stale cache.
            assert front.snapshot().resilience.stale_cache_entries == 0
            fresh = front.submit(PredictionRequest.of(chaos_blocks[:2])).result(30)
            snapshot = front.snapshot()
        assert flushes == [1, 1]
        assert fresh.degraded is False
        assert fresh.num_blocks == 2
        for values in fresh.predictions.values():
            assert np.all(np.isfinite(values))
        assert snapshot.resilience.stale_cache_entries == 2
        assert snapshot.flush.request_errors == 1
        assert snapshot.flush.requests_completed == 1

    @pytest.mark.parametrize(
        "error",
        [
            RuntimeError("backend down"),
            WorkerCrashError("worker 0 is crash-looping"),
            ServiceClosedError("pool closed"),
            TimeoutError("job timed out"),
        ],
        ids=["runtime", "worker-crash", "service-closed", "timeout"],
    )
    def test_the_client_gets_the_backend_error_itself(self, chaos_blocks, error):
        """No error class is set apart: each is raised once, unwrapped."""
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(
            options, service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            flushes = _fail_flushes(front, error)
            future = front.submit(PredictionRequest.of(chaos_blocks[5:7]))
            assert future.exception(30) is error
        assert flushes == [1]

    def test_a_failed_batch_is_served_stale_request_by_request(
        self, chaos_blocks, flush_gate
    ):
        error = RuntimeError("backend down")
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(
            options, service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            warm = front.submit(PredictionRequest.of(chaos_blocks[:4])).result(30)
            flushes = _fail_flushes(front, error)
            gate = flush_gate(front.service)
            blocker = front.submit(PredictionRequest.of(chaos_blocks[8:9]))
            assert gate.entered.wait(30)
            cached = front.submit(PredictionRequest.of(chaos_blocks[2:4]))
            # Block 4 was never served, so this request has no stale answer.
            uncached = front.submit(PredictionRequest.of(chaos_blocks[3:5]))
            gate.release.set()
            assert blocker.exception(30) is error
            assert uncached.exception(30) is error
            stale = cached.result(30)
            snapshot = front.snapshot()
        assert flushes == [1, 2]
        assert stale.degraded is True
        for task, values in warm.predictions.items():
            np.testing.assert_allclose(stale.predictions[task], values[2:4])
        assert snapshot.resilience.degraded_responses == 1
        assert snapshot.resilience.stale_cache_entries == 4
        assert snapshot.flush.requests_completed == 2
        assert snapshot.flush.request_errors == 2

    def test_an_expired_request_is_not_served_stale(self, chaos_blocks, flush_gate):
        error = RuntimeError("backend down")
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(
            options, service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            front.submit(PredictionRequest.of(chaos_blocks[:2])).result(30)
            flushes = _fail_flushes(front, error)
            gate = flush_gate(front.service)
            late = front.submit(
                PredictionRequest.of(chaos_blocks[:2]), deadline_ms=500.0
            )
            assert gate.entered.wait(30)
            time.sleep(0.6)
            waiting = front.submit(PredictionRequest.of(chaos_blocks[:2]))
            gate.release.set()
            # Claimed before its deadline and failed after it: its client
            # stopped waiting, so it gets the error, not a stale answer.
            assert late.exception(30) is error
            assert waiting.result(30).degraded is True
        assert flushes == [1, 1]

    def test_a_degraded_reply_keeps_the_requested_tasks(self, chaos_blocks):
        options = AsyncOptions(degraded_mode=True)
        with AsyncPredictionService(
            options, service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            warm = front.submit(PredictionRequest.of(chaos_blocks[:3])).result(30)
            assert len(warm.predictions) > 1
            flushes = _fail_flushes(front, RuntimeError("backend down"))
            stale = front.submit(
                PredictionRequest.of(chaos_blocks[:3], tasks=("haswell",))
            ).result(30)
        assert flushes == [1]
        assert stale.degraded is True
        assert list(stale.predictions) == ["haswell"]
        np.testing.assert_allclose(
            stale.predictions["haswell"], warm.predictions["haswell"]
        )

    def test_without_degraded_mode_a_served_block_still_fails(self, chaos_blocks):
        error = RuntimeError("backend down")
        with AsyncPredictionService(
            service_config=ServiceConfig(max_batch_size=8)
        ) as front:
            front.submit(PredictionRequest.of(chaos_blocks[:2])).result(30)
            flushes = _fail_flushes(front, error)
            future = front.submit(PredictionRequest.of(chaos_blocks[:2]))
            assert future.exception(30) is error
            snapshot = front.snapshot()
        assert flushes == [1]
        assert snapshot.resilience.stale_cache_entries == 0
        assert snapshot.resilience.degraded_responses == 0


class TestQueueSaturationFault:
    def test_injected_rejections_are_counted(self, chaos_blocks):
        plan = FaultPlan(
            specs=(
                FaultSpec(
                    "queue_saturation", start_after_events=1, duration_events=1
                ),
            )
        )
        config = ServiceConfig(max_batch_size=8, fault_plan=plan)
        options = AsyncOptions()
        with AsyncPredictionService(options, service_config=config) as front:
            from repro.serve import QueueFullError

            first = front.submit(PredictionRequest.of(chaos_blocks[:1]))
            with pytest.raises(QueueFullError, match="injected"):
                front.submit(PredictionRequest.of(chaos_blocks[1:2]))
            third = front.submit(PredictionRequest.of(chaos_blocks[2:3]))
            first.result(30)
            third.result(30)
            assert front.snapshot().resilience.injected_queue_rejections == 1


class TestRespawnUnderLiveTraffic:
    def test_no_request_lost_or_duplicated_during_crash_storm(self, chaos_blocks):
        texts = [block.canonical_text() for block in chaos_blocks]
        plan = FaultPlan(seed=17, specs=(FaultSpec("crash", probability=0.25),))
        prone = plan.prone_texts("crash", texts)
        assert prone, "seed must select at least one crash-prone text"
        config = ServiceConfig(
            num_workers=2,
            max_batch_size=4,
            fault_plan=plan,
        )
        completions = []
        completion_lock = threading.Lock()

        def on_done(index):
            def callback(done):
                with completion_lock:
                    completions.append(index)

            return callback

        with AsyncPredictionService(service_config=config) as front:
            futures = []
            for index, block in enumerate(chaos_blocks):
                future = front.submit(PredictionRequest.of([block]))
                future.add_done_callback(on_done(index))
                futures.append(future)
            responses = [future.result(120) for future in futures]
            snapshot = front.snapshot()
        # Every request resolved exactly once, with the right shape.
        assert sorted(completions) == list(range(len(chaos_blocks)))
        for response in responses:
            assert response.num_blocks == 1
            for values in response.predictions.values():
                assert np.isfinite(np.asarray(values)).all()
        assert snapshot.flush.requests_completed == len(chaos_blocks)
        assert snapshot.model.respawns >= 1


class TestOneFailurePath:
    """Every worker failure takes the crash path; the governor bounds respawns."""

    def test_crash_loop_is_bounded_by_the_respawn_governor(self, chaos_blocks):
        plan = FaultPlan(
            specs=(FaultSpec("crash", probability=1.0, max_incarnation=10_000),)
        )
        with PredictionService(ServiceConfig(num_workers=1, fault_plan=plan)) as service:
            # A frozen clock keeps the 5 s window (and the backoff it
            # starts) open however long each replica takes to spawn.
            service._pool._governor = RespawnGovernor(RespawnPolicy(), clock=FakeClock())
            for suppressed in (1, 2, 3):
                with pytest.raises(WorkerCrashError):
                    service.predict_blocks(chaos_blocks[:1])
                snapshot = service.snapshot()
                assert snapshot.respawns == 3
                assert snapshot.respawns_suppressed == suppressed
                assert service.resilience_report()["status"] == "unready"

    def test_corrupt_reply_replaces_the_worker(self, chaos_blocks):
        plan = FaultPlan(specs=(FaultSpec("corrupt_reply", probability=1.0),))
        expected = PredictionService(ServiceConfig()).predict_blocks(chaos_blocks[:4])
        config = ServiceConfig(num_workers=1, fault_plan=plan)
        with PredictionService(config) as service:
            served = service.predict_blocks(chaos_blocks[:4])
            snapshot = service.snapshot()
        assert snapshot.corrupt_replies == 1
        assert snapshot.respawns == 1
        for task, values in expected.items():
            assert_allclose_for_dtype(served[task], values, service.inference_dtype)

    def test_watchdog_replaces_a_hung_worker(self, chaos_blocks):
        plan = FaultPlan(
            specs=(FaultSpec("hang", probability=1.0, delay_ms=5000.0),)
        )
        expected = PredictionService(ServiceConfig()).predict_blocks(chaos_blocks[:4])
        config = ServiceConfig(
            num_workers=1, worker_job_timeout_s=2.5, fault_plan=plan
        )
        with PredictionService(config) as service:
            served = service.predict_blocks(chaos_blocks[:4])
            snapshot = service.snapshot()
        assert snapshot.job_timeouts == 1
        assert snapshot.respawns == 1
        for task, values in expected.items():
            assert_allclose_for_dtype(served[task], values, service.inference_dtype)


@pytest.fixture()
def slow_start(monkeypatch):
    """Replicas spawn without the forkserver preload, so each re-imports
    the package before building its model: a start-up of about a second."""
    monkeypatch.setattr(
        workers, "_worker_context", lambda: multiprocessing.get_context("spawn")
    )


class TestWatchdogSkipsStartUp:
    """The job watchdog times jobs from their replica's readiness."""

    TIMEOUT_S = 0.2

    def test_slow_start_up_is_not_job_time(self, slow_start, chaos_blocks):
        texts = tuple(block.render() for block in chaos_blocks[:4])
        config = ServiceConfig(num_workers=1, worker_job_timeout_s=self.TIMEOUT_S)
        pool = ShardedWorkerPool(config)
        try:
            begin = time.monotonic()
            pool.ping()
            start_up_s = time.monotonic() - begin
            (predictions,) = pool.run_batches([(0, texts)])
        finally:
            pool.close()
        assert start_up_s > self.TIMEOUT_S, "start-up was too fast to test"
        assert pool.job_timeouts == 0
        assert pool.respawns == 0
        assert all(len(values) == len(texts) for values in predictions.values())

    def test_hang_is_caught_and_the_slow_replacement_kept(
        self, slow_start, chaos_blocks
    ):
        plan = FaultPlan(
            specs=(FaultSpec("hang", probability=1.0, delay_ms=5000.0),)
        )
        config = ServiceConfig(
            num_workers=1, worker_job_timeout_s=self.TIMEOUT_S, fault_plan=plan
        )
        with PredictionService(config) as service:
            served = service.predict_blocks(chaos_blocks[:4])
            snapshot = service.snapshot()
        assert snapshot.job_timeouts == 1
        assert snapshot.respawns == 1
        assert all(len(values) == 4 for values in served.values())


class TestStartUpWatchdog:
    """A replica is timed from spawn until it reports ``ready``."""

    def test_replica_hung_while_building_its_model_takes_the_crash_path(
        self, monkeypatch, chaos_blocks
    ):
        monkeypatch.setattr(workers, "_STARTUP_TIMEOUT_S", 0.3)
        # Forked replicas inherit a model builder that never returns, so each
        # one blocks building its model and never gets ready, but stays
        # alive.  (A FIFO checkpoint no longer hangs a replica: the loader
        # rejects it and the replica exits, which is the EOF path instead.)
        monkeypatch.setattr(
            workers, "_worker_context", lambda: multiprocessing.get_context("fork")
        )
        monkeypatch.setattr(workers, "build_model", lambda config: threading.Event().wait())
        pool = ShardedWorkerPool(ServiceConfig(num_workers=1))
        texts = tuple(block.render() for block in chaos_blocks[:2])
        errors = []

        def submit():
            try:
                pool.run_batches([(0, texts)])
            except WorkerCrashError as error:
                errors.append(error)

        thread = threading.Thread(target=submit, daemon=True)
        thread.start()
        thread.join(timeout=30.0)
        hung = thread.is_alive()
        if not hung:  # a hung call holds the pool's lock, so close would hang too
            pool.close()
        assert not hung, "the pool kept waiting on a replica hung in start-up"
        # Each hung replica is replaced until the respawn governor refuses.
        assert len(errors) == 1
        assert pool.respawns == RespawnPolicy().max_respawns
        assert pool.job_timeouts == pool.respawns + 1

