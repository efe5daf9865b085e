"""Tests of hash-ring sharding and the fixed, respawning worker pool."""

import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    HashRing,
    PredictionRequest,
    PredictionService,
    ServiceClosedError,
    ServiceConfig,
    coalesce_requests,
    shard_key,
)
from repro.serve.resilience import BreakerPolicy
from repro.serve.workers import ShardedWorkerPool
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


class TestFixedPoolConstruction:
    def test_a_pool_needs_a_worker(self):
        with pytest.raises(ValueError):
            ShardedWorkerPool(ServiceConfig(num_workers=0))


@pytest.mark.slow
class TestShardedWorkerPool:
    @pytest.mark.parametrize("num_workers", [1, 3])
    def test_worker_ids_and_ring_are_set_at_construction(self, blocks, num_workers):
        """The pool's ids are ``0 .. N-1`` and its ring is the fresh ring
        over them; serving and a health check change neither."""
        config = ServiceConfig(
            model_name="granite", max_batch_size=8, num_workers=num_workers
        )
        reference = HashRing(nodes=range(num_workers))
        with PredictionService(config) as service:
            service.predict_blocks(blocks)
            assert service.check_health() == 0
            pool = service._pool
            stats = service.worker_stats()
        assert pool.num_workers == num_workers
        assert [worker.worker_id for worker in pool._workers] == list(range(num_workers))
        assert pool.ring.nodes == reference.nodes
        assert pool.ring.shares() == reference.shares()
        assert [entry.worker_id for entry in stats] == list(range(num_workers))
        assert [entry.ring_share for entry in stats] == pytest.approx(
            [reference.shares()[worker_id] for worker_id in range(num_workers)]
        )

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
        """Killing a worker between submissions must not lose any request,
        and the replacement takes over the dead worker's id and its whole
        key partition: the ring never changes while the pool lives."""
        config = ServiceConfig(model_name="granite", max_batch_size=4, num_workers=2)
        sampled_keys = [shard_key(f"sampled block {index}") for index in range(1000)]
        with PredictionService(config) as service:
            first = service.predict_blocks(blocks)
            pool = service._pool
            shares = pool.ring.shares()
            owners = [pool.ring.owner(key) for key in sampled_keys]
            victim = pool._workers[0]
            victim.process.kill()
            victim.process.join()
            assert not victim.alive()
            second = service.predict_blocks(blocks)
            assert service.snapshot().respawns >= 1
            assert pool._workers[0] is victim and victim.alive()
            assert victim.worker_id == 0 and victim.spawn_count == 2
            assert pool.ring.shares() == shares
            assert [pool.ring.owner(key) for key in sampled_keys] == owners
            assert [entry.worker_id for entry in service.worker_stats()] == [0, 1]
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
        with pytest.raises(ServiceClosedError):
            service.predict_blocks(blocks[:2])
        assert service._pool is None
