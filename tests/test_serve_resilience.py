"""Tests of the self-healing machinery: retries, breakers, backoff, degradation."""

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
    RetryPolicy,
    StalePredictionCache,
    run_with_retries,
)
from repro.serve.types import ServiceClosedError
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
# Retry policy and the sanctioned loop
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_delays_are_deterministic_per_token_and_attempt(self):
        policy = RetryPolicy(seed=9)
        assert policy.delay_s(2, "req-1") == RetryPolicy(seed=9).delay_s(2, "req-1")

    def test_delays_are_capped_and_jitter_bounded(self):
        policy = RetryPolicy(
            base_delay_ms=10.0, max_delay_ms=40.0, multiplier=2.0, jitter=0.5
        )
        for attempt in range(6):
            delay_ms = policy.delay_s(attempt, "t") * 1000.0
            capped = min(10.0 * 2.0**attempt, 40.0)
            assert 0.5 * capped <= delay_ms <= capped

    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)

    def test_budget_disabled_when_zero(self):
        assert RetryPolicy(budget=0).make_budget() is None


class TestRunWithRetries:
    def test_recovers_after_transient_failures(self):
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] < 3:
                raise RuntimeError("transient")
            return "done"

        retries = []
        result = run_with_retries(
            flaky,
            RetryPolicy(max_attempts=5),
            on_retry=lambda attempt, delay, error: retries.append(delay),
            sleep=lambda seconds: None,
        )
        assert result == "done"
        assert calls["n"] == 3
        assert len(retries) == 2

    def test_non_retryable_raises_immediately(self):
        calls = {"n": 0}

        def closed():
            calls["n"] += 1
            raise ServiceClosedError("closed")

        with pytest.raises(ServiceClosedError):
            run_with_retries(
                closed,
                RetryPolicy(max_attempts=5),
                retryable=lambda error: not isinstance(error, ServiceClosedError),
                sleep=lambda seconds: None,
            )
        assert calls["n"] == 1

    def test_exhaustion_reraises_last_error(self):
        def always():
            raise RuntimeError("still broken")

        with pytest.raises(RuntimeError, match="still broken"):
            run_with_retries(
                always, RetryPolicy(max_attempts=3), sleep=lambda seconds: None
            )

    def test_budget_denial_stops_retrying(self):
        clock = FakeClock()
        policy = RetryPolicy(max_attempts=10, budget=2, budget_window_s=60.0)
        budget = policy.make_budget(clock=clock)
        attempts = {"n": 0}

        def always():
            attempts["n"] += 1
            raise RuntimeError("down")

        with pytest.raises(RuntimeError):
            run_with_retries(
                always, policy, budget=budget, sleep=lambda seconds: None
            )
        # First attempt + the two budgeted retries, then denial.
        assert attempts["n"] == 3
        assert budget.denied == 1

    def test_budget_window_slides(self):
        clock = FakeClock()
        budget = RetryPolicy(budget=1, budget_window_s=5.0).make_budget(clock=clock)
        assert budget.try_acquire() is True
        assert budget.try_acquire() is False
        clock.advance(6.0)
        assert budget.try_acquire() is True


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
        options = AsyncOptions(
            retry_policy=RetryPolicy(max_attempts=2, base_delay_ms=1.0),
            degraded_mode=True,
        )
        with AsyncPredictionService(options, service_config=config) as front:
            warm = front.submit(PredictionRequest.of(chaos_blocks[:4])).result(30)
            assert warm.degraded is False

            real_submit = front.service.submit

            def failing(requests):
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
            assert snapshot.resilience.retries >= 1
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
        options = AsyncOptions(
            retry_policy=RetryPolicy(max_attempts=3, base_delay_ms=1.0),
        )
        completions = []
        completion_lock = threading.Lock()

        def on_done(index):
            def callback(done):
                with completion_lock:
                    completions.append(index)

            return callback

        with AsyncPredictionService(options, service_config=config) as front:
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

