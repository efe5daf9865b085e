"""Tests of the flush-deadline controller (repro.serve.flush)."""

import time

import pytest

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    FlushController,
    PredictionRequest,
    ServiceConfig,
)

MAX_S = 0.025  # the ceiling (25 ms)
MIN_S = 0.001  # the floor (1 ms)
BATCH = 64


def _adaptive(window_s=0.25) -> FlushController:
    return FlushController(MAX_S, MIN_S, BATCH, window_s=window_s)


class TestFixedDeadline:
    @pytest.mark.parametrize("arrivals", [0, 1, BATCH, 10_000])
    @pytest.mark.parametrize("pending", [0, 1, BATCH // 2, BATCH, 10_000])
    def test_floor_equal_to_ceiling_is_always_the_ceiling(self, arrivals, pending):
        controller = FlushController(MAX_S, MAX_S, BATCH)
        if arrivals:
            controller.observe_arrival(arrivals, now=100.0)
        assert controller.deadline_s(pending, now=100.0) == MAX_S
        assert controller.peek_deadline_s(pending, now=100.0) == MAX_S
        assert controller.state()["deadline_ms"] == pytest.approx(MAX_S * 1e3)

    def test_zero_deadline_flushes_at_once(self):
        controller = FlushController(0.0, 0.0, BATCH)
        assert controller.deadline_s(0, now=100.0) == 0.0


class TestAdaptiveController:
    def test_idle_deadline_is_the_floor(self):
        controller = _adaptive()
        # No arrivals, nothing pending: waiting longer buys nothing.
        assert controller.deadline_s(0, now=100.0) == pytest.approx(MIN_S)

    def test_saturated_deadline_is_the_ceiling(self):
        controller = _adaptive()
        # Arrivals far above the batch-fill rate saturate the load at 1.
        controller.observe_arrival(10_000, now=100.0)
        assert controller.deadline_s(0, now=100.0) == pytest.approx(MAX_S)

    def test_deadline_scales_between_floor_and_ceiling(self):
        controller = _adaptive(window_s=1.0)
        # Half the batch-fill rate: 64 blocks / 25 ms = 2560 blocks/s, so
        # 1280 blocks over the 1 s window is load 0.5.
        controller.observe_arrival(1280, now=100.0)
        expected = MIN_S + 0.5 * (MAX_S - MIN_S)
        assert controller.deadline_s(0, now=100.0) == pytest.approx(expected)

    def test_pending_blocks_raise_the_load(self):
        controller = _adaptive()
        idle = controller.deadline_s(0, now=100.0)
        half = controller.deadline_s(BATCH // 2, now=100.0)
        full = controller.deadline_s(BATCH, now=100.0)
        assert idle < half < full == pytest.approx(MAX_S)

    def test_window_forgets_old_arrivals(self):
        controller = _adaptive(window_s=0.1)
        controller.observe_arrival(10_000, now=100.0)
        assert controller.deadline_s(0, now=100.05) == pytest.approx(MAX_S)
        # 200 ms later the burst is outside the window: idle again.
        assert controller.deadline_s(0, now=100.2) == pytest.approx(MIN_S)

    def test_state_reports_the_last_decision(self):
        controller = _adaptive()
        controller.observe_arrival(10_000, now=100.0)
        controller.deadline_s(0, now=100.0)
        state = controller.state()
        assert "policy" not in state
        assert state["load"] == pytest.approx(1.0)
        assert state["deadline_ms"] == pytest.approx(MAX_S * 1e3)
        assert state["min_deadline_ms"] == pytest.approx(MIN_S * 1e3)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            FlushController(-1.0, 0.0, BATCH)
        with pytest.raises(ValueError):
            FlushController(MAX_S, MAX_S * 2, BATCH)  # floor > ceiling
        with pytest.raises(ValueError):
            FlushController(MAX_S, MIN_S, 0)
        with pytest.raises(ValueError):
            FlushController(MAX_S, MIN_S, BATCH, window_s=0.0)


class TestConfig:
    def test_default_floor_is_the_ceiling(self):
        assert AsyncOptions().min_latency_ms is None
        front_end = AsyncPredictionService(options=AsyncOptions(max_latency_ms=7.0))
        try:
            controller = front_end.controller
            assert controller.min_latency_s == controller.max_latency_s == 0.007
            controller.observe_arrival(10_000)
            assert controller.deadline_s(0) == 0.007
        finally:
            front_end.close()

    def test_explicit_floor_reaches_the_controller(self):
        front_end = AsyncPredictionService(
            options=AsyncOptions(max_latency_ms=20.0, min_latency_ms=2.0)
        )
        try:
            assert front_end.controller.min_latency_s == pytest.approx(0.002)
            assert front_end.controller.max_latency_s == pytest.approx(0.020)
        finally:
            front_end.close()

    @pytest.mark.parametrize("max_latency_ms", [0.0, 0.5, 10.0])
    def test_floor_above_ceiling_always_raises(self, max_latency_ms):
        with pytest.raises(ValueError):
            AsyncOptions(
                max_latency_ms=max_latency_ms, min_latency_ms=max_latency_ms + 1.0
            )

    def test_async_options_validate_the_floor(self):
        with pytest.raises(ValueError):
            AsyncOptions(min_latency_ms=-1.0)
        with pytest.raises(ValueError):
            AsyncOptions(min_latency_ms=float("nan"))
        with pytest.raises(ValueError):
            AsyncOptions(controller_window_ms=0.0)
        assert AsyncOptions(min_latency_ms=10.0).min_latency_ms == 10.0

    def test_sub_millisecond_deadlines_stay_valid(self):
        """The default floor follows the ceiling, so a sub-millisecond (or
        zero) fixed deadline is valid without naming a floor."""
        assert AsyncOptions(max_latency_ms=0.5).max_latency_ms == 0.5
        assert AsyncOptions(max_latency_ms=0.0).max_latency_ms == 0.0

    def test_peek_deadline_does_not_clobber_last_decision(self):
        """Observers (snapshot) must not overwrite the dispatcher's last
        recorded deadline decision."""
        controller = _adaptive()
        controller.observe_arrival(10_000, now=100.0)
        controller.deadline_s(0, now=100.0)  # dispatcher: saturated
        recorded = controller.state()["deadline_ms"]
        # An observer peeks much later, when the window has gone idle.
        peeked = controller.peek_deadline_s(0, now=200.0)
        assert peeked == pytest.approx(MIN_S)
        assert controller.state()["deadline_ms"] == recorded


class TestAdaptiveEndToEnd:
    def test_idle_request_answers_far_below_the_ceiling(self):
        """A lone request under a 1 ms floor must not sit out the full
        ``max_latency_ms`` a fixed deadline would charge it."""
        from repro.data.synthetic import BlockGenerator

        blocks = BlockGenerator(seed=3).generate_blocks(2)
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=64,
            async_options=AsyncOptions(
                max_latency_ms=500.0, min_latency_ms=1.0
            ),
        )
        with AsyncPredictionService(service_config=config) as service:
            service.predict_blocks(blocks)  # warm model + caches
            time.sleep(0.3)  # let the warm-up burst leave the window
            start = time.monotonic()
            future = service.submit(PredictionRequest.of(blocks))
            future.result(timeout=30.0)
            elapsed = time.monotonic() - start
            snapshot = service.snapshot()
        # A fixed deadline would wait the full 500 ms before flushing; the
        # 1 ms floor should flush the idle queue almost at once.
        assert elapsed < 0.25
        assert snapshot.flush.deadline_p50_ms <= 500.0

    def test_snapshot_exposes_controller_and_queue(self):
        from repro.data.synthetic import BlockGenerator

        blocks = BlockGenerator(seed=4).generate_blocks(4)
        config = ServiceConfig(
            model_name="granite",
            async_options=AsyncOptions(max_latency_ms=5.0, min_latency_ms=1.0),
        )
        with AsyncPredictionService(service_config=config) as service:
            service.predict_blocks(blocks)
            snapshot = service.snapshot()
        assert snapshot.queue.submitted_requests == 1
        assert snapshot.flush.flushes >= 1
        assert snapshot.queue.depth_blocks == 0
        assert snapshot.queue.cancelled_drops == 0
        assert snapshot.queue.expired_drops == 0
        assert 0.0 <= snapshot.flush.current_deadline_ms <= 5.0
        assert snapshot.controller["min_deadline_ms"] == pytest.approx(1.0)
        assert len(service.stats.flush_deadlines_ms) == snapshot.flush.flushes
