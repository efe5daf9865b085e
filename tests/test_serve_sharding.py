"""Tests of hash-ring sharding and the elastic, respawning worker pool."""

import time

import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    HashRing,
    PoolAutoscaler,
    PredictionRequest,
    PredictionService,
    ServiceConfig,
    coalesce_requests,
    shard_key,
)
from repro.serve.resilience import BreakerPolicy
from repro.testing.equivalence import assert_allclose_for_dtype


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(GeneratorConfig(seed=33)).generate_blocks(32)


def _assert_served_close(service, served, expected):
    """Worker-pool results vs a reference, tolerant of the serving dtype."""
    assert_allclose_for_dtype(served, expected, service.inference_dtype)


class TestShardPartitioning:
    def test_shard_key_is_stable(self, blocks):
        text = blocks[0].canonical_text()
        assert shard_key(text) == shard_key(text)
        assert isinstance(shard_key(text), int)

    def test_same_block_always_same_shard(self, blocks):
        """Routing only depends on the text, not on request composition."""
        ring = HashRing(nodes=range(4))

        def owner_of(text):
            return ring.owner(shard_key(text))

        solo = coalesce_requests([PredictionRequest.of(blocks[:1])], 8, owner_of)
        mixed = coalesce_requests(
            [PredictionRequest.of(list(reversed(blocks)))], 8, owner_of
        )
        target_text = blocks[0].canonical_text()
        solo_shard = solo[0][0]
        mixed_shards = {
            shard
            for shard, batch in mixed
            if target_text in batch.block_texts
        }
        assert mixed_shards == {solo_shard}


@pytest.mark.slow
class TestShardedWorkerPool:
    def test_hash_sharding_matches_in_process(self, blocks):
        in_process = PredictionService(
            ServiceConfig(model_name="granite", max_batch_size=5)
        )
        expected = in_process.predict_blocks(blocks)
        config = ServiceConfig(model_name="granite", max_batch_size=5, num_workers=2)
        with PredictionService(config) as sharded:
            served = sharded.predict_blocks(blocks)
        for task in in_process.model.tasks:
            _assert_served_close(in_process, served[task], expected[task])

    def test_sharded_with_a_tripped_breaker_equals_in_process(
        self, blocks, monkeypatch
    ):
        """With worker 0's breaker open, every block of every submission
        goes to worker 1 — a repeated block included — and answers as
        in-process."""
        traffic = [blocks[0]] * 32 + list(blocks)
        in_process = PredictionService(
            ServiceConfig(model_name="granite", max_batch_size=5)
        )
        expected = in_process.predict_blocks(traffic)
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=5,
            num_workers=2,
            breaker_policy=BreakerPolicy(failure_threshold=1, reset_timeout_s=3600.0),
        )
        with PredictionService(config) as sharded:
            pool = sharded._pool
            jobs = []
            run_batches = pool.run_batches

            def capture(batch_jobs):
                jobs.extend(batch_jobs)
                return run_batches(batch_jobs)

            monkeypatch.setattr(pool, "run_batches", capture)
            sharded._breaker.record_failure(0)
            assert sharded._breaker.allow(0) is False
            rounds = [sharded.predict_blocks(traffic) for _ in range(2)]
            snapshot = sharded.snapshot()
        assert snapshot.breaker_open_workers == 1
        routed = [text for _, texts in jobs for text in texts]
        assert len(routed) == 2 * len(traffic)
        assert {worker for worker, _ in jobs} == {1}
        for served in rounds:
            for task in in_process.model.tasks:
                _assert_served_close(in_process, served[task], expected[task])

    def test_a_repeated_block_goes_only_to_its_ring_owner(
        self, blocks, monkeypatch
    ):
        """Every block is routed to its one ring owner, a block repeated
        across submissions included."""
        traffic = [blocks[0]] * 16 + list(blocks)
        config = ServiceConfig(model_name="granite", max_batch_size=5, num_workers=2)
        with PredictionService(config) as sharded:
            pool = sharded._pool
            jobs = []
            run_batches = pool.run_batches

            def capture(batch_jobs):
                jobs.extend(batch_jobs)
                return run_batches(batch_jobs)

            monkeypatch.setattr(pool, "run_batches", capture)
            for _ in range(3):
                sharded.predict_blocks(traffic)
            ring = pool.ring
        routed = [(worker, text) for worker, texts in jobs for text in texts]
        assert len(routed) == 3 * len(traffic)
        assert {worker for worker, _ in routed} == {0, 1}
        for worker, text in routed:
            assert worker == ring.owner(shard_key(text))

    def test_worker_crash_respawns_mid_stream(self, blocks):
        """Killing a worker between submissions must not lose any request."""
        config = ServiceConfig(model_name="granite", max_batch_size=4, num_workers=2)
        with PredictionService(config) as service:
            first = service.predict_blocks(blocks)
            victim = service._pool._workers[0]
            victim.process.kill()
            victim.process.join()
            assert not victim.alive()
            second = service.predict_blocks(blocks)
            assert service.snapshot().respawns >= 1
            assert service._pool._workers[0].alive()
        for task in first:
            _assert_served_close(service, second[task], first[task])

    def test_check_health_respawns_out_of_band(self, blocks):
        config = ServiceConfig(model_name="granite", num_workers=2)
        with PredictionService(config) as service:
            assert service.check_health() == 0
            victim = service._pool._workers[1]
            victim.process.kill()
            victim.process.join()
            assert service.check_health() == 1
            assert service.check_health() == 0
            served = service.predict_blocks(blocks[:6])
            assert all(len(values) == 6 for values in served.values())

    def test_worker_stats_report_shard_affinity(self, blocks):
        """Repeated traffic turns into per-worker cache hits under hashing."""
        config = ServiceConfig(model_name="granite", num_workers=2)
        with PredictionService(config) as service:
            for _ in range(3):
                service.predict_blocks(blocks)
            stats = service._pool.worker_stats()
        assert len(stats) == 2
        for worker_stats in stats:
            # Every worker saw each of its shard's blocks three times: one
            # miss, then hits — so its prediction hit rate lands at ~2/3.
            assert worker_stats.cache.prediction_hit_rate >= 0.5
            assert worker_stats.cache.parse_hits >= worker_stats.cache.parse_misses

    def test_in_process_check_health_is_noop(self):
        service = PredictionService(ServiceConfig(model_name="granite"))
        assert service.check_health() == 0

    def test_worker_stats_carry_ring_topology(self, blocks):
        config = ServiceConfig(model_name="granite", num_workers=2)
        with PredictionService(config) as service:
            service.predict_blocks(blocks[:8])
            stats = service.worker_stats()
        assert [entry.worker_id for entry in stats] == [0, 1]
        assert sum(entry.ring_share for entry in stats) == pytest.approx(1.0)
        assert all(entry.spawn_count >= 1 for entry in stats)

    def test_closed_service_does_not_respawn_pool(self, blocks):
        """Use after close must raise, not silently leak a fresh pool."""
        service = PredictionService(
            ServiceConfig(model_name="granite", num_workers=1)
        ).warm_start()
        service.close()
        service.close()  # idempotent
        with pytest.raises(RuntimeError):
            service.predict_blocks(blocks[:2])
        assert service._pool is None


class TestElasticConfig:
    def test_bounds_require_sharded_service(self):
        with pytest.raises(ValueError):
            ServiceConfig(num_workers=0, min_workers=1)
        with pytest.raises(ValueError):
            ServiceConfig(num_workers=0, max_workers=2)

    def test_bounds_must_bracket_num_workers(self):
        with pytest.raises(ValueError):
            ServiceConfig(num_workers=2, max_workers=1)
        with pytest.raises(ValueError):
            ServiceConfig(num_workers=2, min_workers=3)
        with pytest.raises(ValueError):
            ServiceConfig(num_workers=2, min_workers=0, max_workers=4)
        config = ServiceConfig(num_workers=2, min_workers=1, max_workers=4)
        service = PredictionService(config)
        assert service.worker_bounds == (1, 4)
        assert service.autoscaling_enabled

    def test_defaults_disable_autoscaling(self):
        assert not PredictionService(
            ServiceConfig(num_workers=2)
        ).autoscaling_enabled
        assert not PredictionService(ServiceConfig()).autoscaling_enabled

    def test_in_process_service_cannot_scale(self):
        service = PredictionService(ServiceConfig(model_name="granite"))
        with pytest.raises(RuntimeError):
            service.scale_workers(2)
        assert service.num_workers == 0
        assert service.worker_stats() == []


class TestPoolAutoscaler:
    def test_scale_up_on_backlog_with_cooldown(self):
        scaler = PoolAutoscaler(
            1, 3, max_batch_size=8, cooldown_s=1.0, idle_grace_s=0.5
        )
        assert scaler.decide(0, 1, now=0.0) == 1
        # Backlog of two size-flushes per worker triggers a scale-up.
        assert scaler.decide(16, 1, now=0.1) == 2
        # ... but not again within the cooldown, however deep the queue.
        assert scaler.decide(64, 2, now=0.5) == 2
        assert scaler.decide(64, 2, now=1.2) == 3
        # Never above max_workers.
        assert scaler.decide(1000, 3, now=3.0) == 3

    def test_scale_down_after_sustained_idleness(self):
        scaler = PoolAutoscaler(
            1, 3, max_batch_size=8, cooldown_s=0.0, idle_grace_s=0.5
        )
        assert scaler.decide(0, 2, now=0.0) == 2
        assert scaler.decide(0, 2, now=0.3) == 2  # idle, but not long enough
        assert scaler.decide(16, 2, now=0.4) == 2  # busy again: timer resets
        assert scaler.decide(0, 2, now=0.8) == 2
        assert scaler.decide(0, 2, now=1.0) == 1  # idle since 0.4
        assert scaler.decide(0, 1, now=9.0) == 1  # never below min_workers

    def test_out_of_bounds_count_is_clamped(self):
        scaler = PoolAutoscaler(2, 3, max_batch_size=8)
        assert scaler.decide(0, 5, now=0.0) == 3
        assert scaler.decide(0, 1, now=0.1) == 2

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            PoolAutoscaler(0, 2, 8)
        with pytest.raises(ValueError):
            PoolAutoscaler(3, 2, 8)
        with pytest.raises(ValueError):
            PoolAutoscaler(1, 2, 0)


@pytest.mark.slow
class TestElasticScaling:
    def test_scale_round_trip_preserves_predictions(self, blocks):
        """N -> N+1 -> N under the same traffic returns identical answers
        (replicas share weights) and records the resizes."""
        config = ServiceConfig(model_name="granite", max_batch_size=8, num_workers=2)
        with PredictionService(config) as service:
            first = service.predict_blocks(blocks)
            assert service.scale_workers(3) == 1
            assert service.num_workers == 3
            second = service.predict_blocks(blocks)
            assert service.scale_workers(2) == -1
            assert service.num_workers == 2
            third = service.predict_blocks(blocks)
            events = list(service._pool.resize_events)
            stats = service.worker_stats()
        for task in first:
            _assert_served_close(service, second[task], first[task])
            _assert_served_close(service, third[task], first[task])
        assert service.stats.resizes == 2
        assert [event["action"] for event in events] == ["add", "remove"]
        assert [event["worker_id"] for event in events] == [2, 2]
        assert [entry.worker_id for entry in stats] == [0, 1]

    def test_scale_to_same_size_is_a_noop(self, blocks):
        config = ServiceConfig(model_name="granite", num_workers=2)
        with PredictionService(config) as service:
            service.predict_blocks(blocks[:4])
            assert service.scale_workers(2) == 0
            assert service.stats.resizes == 0
            assert not service._pool.resize_events

    def test_scale_to_zero_rejected(self, blocks):
        config = ServiceConfig(model_name="granite", num_workers=1)
        with PredictionService(config).warm_start() as service:
            with pytest.raises(ValueError):
                service.scale_workers(0)

    def test_autoscaler_grows_and_shrinks_with_queue_depth(self, blocks):
        """End to end: a backlog grows the pool to max_workers, sustained
        idleness shrinks it back to min_workers — no request lost."""
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=8,
            num_workers=1,
            min_workers=1,
            max_workers=2,
            scale_cooldown_s=0.1,
            async_options=AsyncOptions(max_latency_ms=5.0, autoscale_poll_ms=20.0),
        )
        # Novel blocks so every flush pays real model compute: the backlog
        # must outlive several autoscaler polls, not vanish into cache hits.
        texts = [
            block.canonical_text()
            for block in BlockGenerator(GeneratorConfig(seed=61)).generate_blocks(800)
        ]
        with AsyncPredictionService(service_config=config) as front:
            futures = [
                front.submit(PredictionRequest.of(texts[2 * index : 2 * index + 2]))
                for index in range(400)
            ]
            grew = False
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if front.service.num_workers == 2:
                    grew = True
                    break
                time.sleep(0.01)
            for future in futures:
                assert future.result(timeout=120.0).num_blocks == 2
            assert grew, "autoscaler never grew the pool despite the backlog"
            # Queue drained: sustained idleness must shrink the pool again.
            # Poll the resize counter (incremented after the pool resize
            # itself) so the check cannot race the monitor thread.
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if front.service.stats.resizes >= 2 and front.service.num_workers == 1:
                    break
                time.sleep(0.05)
            assert front.service.num_workers == 1
            assert front.service.stats.resizes >= 2
            actions = [
                event["action"] for event in front.service._pool.resize_events
            ]
        assert "add" in actions and "remove" in actions
