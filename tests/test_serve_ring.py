"""Tests of the consistent hash ring (repro.serve.ring) and ring coalescing."""

import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import (
    HashRing,
    HotKeyRouter,
    HotKeyTracker,
    PredictionRequest,
    coalesce_requests,
    shard_key,
)
from repro.serve.resilience import (
    BREAKER_HALF_OPEN,
    BreakerPolicy,
    CircuitBreaker,
)


def _ring_owner(ring):
    """The plain ring routing function the service's router reduces to."""
    return HotKeyRouter(ring, replicas=1).route_text


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


def _half_open(breaker, clock, worker):
    """Trips ``worker`` open, then lets its reset timeout elapse."""
    breaker.record_failure(worker)
    clock.now += breaker.policy.reset_timeout_s + 0.5
    assert breaker.state(worker) == BREAKER_HALF_OPEN


@pytest.fixture(scope="module")
def keys():
    blocks = BlockGenerator(GeneratorConfig(seed=7)).generate_blocks(400)
    return [shard_key(block.canonical_text()) for block in blocks]


class TestHashRing:
    def test_membership(self):
        ring = HashRing(nodes=(0, 1, 2))
        assert ring.nodes == (0, 1, 2)
        assert len(ring) == 3
        assert 1 in ring and 5 not in ring

    def test_owner_is_stable(self, keys):
        ring = HashRing(nodes=range(4))
        replica = HashRing(nodes=range(4))
        for key in keys:
            assert ring.owner(key) == replica.owner(key) == ring.owner(key)

    def test_owner_only_valid_nodes(self, keys):
        ring = HashRing(nodes=(0, 1, 2))
        assert {ring.owner(key) for key in keys} <= {0, 1, 2}

    def test_every_node_owns_something(self, keys):
        # 128 vnodes per node keep even a small ring balanced enough that
        # 400 random keys touch every node.
        ring = HashRing(nodes=range(8))
        assert {ring.owner(key) for key in keys} == set(range(8))

    def test_shares_sum_to_one(self):
        for count in (1, 2, 3, 7):
            shares = HashRing(nodes=range(count)).shares()
            assert set(shares) == set(range(count))
            assert sum(shares.values()) == pytest.approx(1.0)
            # No node owns a wildly disproportionate share.
            assert max(shares.values()) < 3.0 / count

    def test_add_node_moves_keys_only_to_new_node(self, keys):
        """The consistency property: growing N -> N+1 moves ~1/(N+1) of the
        keys, all of them *to* the new node; nobody else's keys move."""
        for count in (2, 3, 4):
            before = HashRing(nodes=range(count))
            after = HashRing(nodes=range(count + 1))
            moved = 0
            for key in keys:
                old, new = before.owner(key), after.owner(key)
                if old != new:
                    moved += 1
                    assert new == count  # moved keys land on the new node only
            fraction = moved / len(keys)
            # Expectation is 1/(count+1); allow generous slack for a small
            # sample over a 128-vnode ring.
            assert 0.0 < fraction < 2.0 / (count + 1)

    def test_remove_node_is_inverse_of_add(self, keys):
        ring = HashRing(nodes=range(4))
        reference = {key: ring.owner(key) for key in keys}
        ring.add_node(4)
        ring.remove_node(4)
        assert ring.nodes == (0, 1, 2, 3)
        assert {key: ring.owner(key) for key in keys} == reference

    def test_incremental_equals_from_scratch(self, keys):
        grown = HashRing(nodes=(0,))
        grown.add_node(1)
        grown.add_node(2)
        fresh = HashRing(nodes=range(3))
        for key in keys:
            assert grown.owner(key) == fresh.owner(key)

    def test_invalid_operations(self):
        with pytest.raises(ValueError):
            HashRing(num_vnodes=0)
        ring = HashRing(nodes=(0, 1))
        with pytest.raises(ValueError):
            ring.add_node(0)
        with pytest.raises(ValueError):
            ring.remove_node(9)
        empty = HashRing()
        with pytest.raises(LookupError):
            empty.owner(123)
        assert empty.shares() == {}


class TestRingCoalescing:
    @pytest.fixture(scope="class")
    def blocks(self):
        return BlockGenerator(GeneratorConfig(seed=11)).generate_blocks(40)

    def test_covers_every_block_once(self, blocks):
        ring = HashRing(nodes=range(3))
        requests = [
            PredictionRequest.of(blocks[:25]),
            PredictionRequest.of(blocks[25:]),
        ]
        assignments = coalesce_requests(requests, 8, _ring_owner(ring))
        origins = [origin for _, batch in assignments for origin in batch.origins]
        assert sorted(origins) == [
            (index, position)
            for index, request in enumerate(requests)
            for position in range(request.num_blocks)
        ]
        assert all(batch.num_blocks <= 8 for _, batch in assignments)

    def test_blocks_routed_by_ring_owner(self, blocks):
        ring = HashRing(nodes=range(4))
        assignments = coalesce_requests(
            [PredictionRequest.of(blocks)], 8, _ring_owner(ring)
        )
        for worker_id, batch in assignments:
            for text in batch.block_texts:
                assert ring.owner(shard_key(text)) == worker_id

    def test_routing_survives_resize_for_unmoved_keys(self, blocks):
        """After adding a worker, every block either keeps its worker or
        lands on the new one — the cache-affinity contract of elasticity."""
        small = HashRing(nodes=range(2))
        grown = HashRing(nodes=range(3))
        request = [PredictionRequest.of(blocks)]
        before = {
            text: worker_id
            for worker_id, batch in coalesce_requests(request, 64, _ring_owner(small))
            for text in batch.block_texts
        }
        after = {
            text: worker_id
            for worker_id, batch in coalesce_requests(request, 64, _ring_owner(grown))
            for text in batch.block_texts
        }
        assert set(before) == set(after)
        for text, owner in after.items():
            assert owner == before[text] or owner == 2

    def test_invalid_arguments(self, blocks):
        request = PredictionRequest.of(blocks[:2])
        with pytest.raises(ValueError):
            coalesce_requests([request], 0, _ring_owner(HashRing(nodes=(0,))))
        with pytest.raises(ValueError):
            coalesce_requests([request], 4, _ring_owner(HashRing()))


class TestReplicaSets:
    """Invariants of HashRing.owners — the basis of hot-key replication."""

    def test_single_replica_matches_owner(self, keys):
        ring = HashRing(nodes=range(4))
        for key in keys:
            assert ring.owners(key, 1) == [ring.owner(key)]

    def test_replica_sets_are_distinct_and_prefix_closed(self, keys):
        ring = HashRing(nodes=range(5))
        for key in keys:
            three = ring.owners(key, 3)
            assert len(three) == len(set(three)) == 3
            # Growing count only appends: owners(k, n) is a prefix of
            # owners(k, n+1).  This is what bounds replica-set movement.
            assert ring.owners(key, 2) == three[:2]
            assert ring.owners(key, 1) == three[:1]

    def test_count_clamped_to_ring_size(self, keys):
        ring = HashRing(nodes=(0, 1))
        for key in keys[:50]:
            owners = ring.owners(key, 5)
            assert sorted(owners) == [0, 1]

    def test_add_node_displaces_at_most_one_replica(self, keys):
        """Adding a worker may insert itself into a key's replica set; it
        never reshuffles the set beyond that single displacement."""
        before = HashRing(nodes=range(4))
        after = HashRing(nodes=range(5))
        for key in keys:
            old = before.owners(key, 2)
            new = after.owners(key, 2)
            # Every new replica is either an old one or the added node.
            assert set(new) <= set(old) | {4}
            assert len(set(old) - set(new)) <= 1

    def test_remove_node_replaces_only_the_removed_replica(self, keys):
        before = HashRing(nodes=range(5))
        after = HashRing(nodes=range(4))  # node 4 removed
        for key in keys:
            old = before.owners(key, 2)
            new = after.owners(key, 2)
            if 4 not in old:
                assert new == old  # untouched sets do not move at all
            else:
                # The survivor keeps its slot; one successor fills in.
                assert set(old) - {4} <= set(new)

    def test_admit_routes_around_refused_workers(self):
        ring = HashRing(nodes=(0, 1, 2))
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        key = 123456
        true_owner = ring.owner(key)
        assert ring.owner(key, breaker.allow) == true_owner
        breaker.record_failure(true_owner)
        rerouted = ring.owner(key, breaker.allow)
        assert rerouted != true_owner
        assert rerouted == ring.owners(key, 2)[1]

    def test_all_refused_falls_back_to_true_owner(self):
        ring = HashRing(nodes=(0, 1, 2))
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        for node in (0, 1, 2):
            breaker.record_failure(node)
        key = 98765
        assert ring.owner(key, breaker.allow) == ring.owner(key)
        assert ring.owners(key, 2, breaker.allow) == ring.owners(key, 2)

    def test_admit_not_called_past_first_accepted(self, keys):
        ring = HashRing(nodes=range(4))
        for key in keys[:50]:
            walk = ring.owners(key, 4)
            asked = []

            def admit(node, refused=walk[0]):
                asked.append(node)
                return node != refused

            assert ring.owner(key, admit) == walk[1]
            assert asked == walk[:2]
            asked.clear()
            assert ring.owners(key, 2, admit) == walk[1:3]
            assert asked == walk[:3]

    def test_owner_walk_leaves_a_later_half_open_probe_unconsumed(self, keys):
        """An admission is only asked of workers up to the one returned: a
        half-open worker further along the walk keeps its single probe."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=1.0), clock=clock
        )
        ring = HashRing(nodes=range(4))
        _half_open(breaker, clock, 2)
        key = next(key for key in keys if ring.owners(key, 4)[0] != 2)
        assert ring.owners(key, 1, breaker.allow) == ring.owners(key, 1)
        assert breaker.state(2) == BREAKER_HALF_OPEN
        assert breaker.allow(2) is True

    def test_owners_validation(self):
        ring = HashRing(nodes=(0,))
        with pytest.raises(ValueError):
            ring.owners(1, 0)
        with pytest.raises(LookupError):
            HashRing().owners(1, 1)


class TestHotKeyTracker:
    def test_head_surfaces_after_refresh_interval(self):
        tracker = HotKeyTracker(hot_count=2, min_hits=8, refresh_interval=16)
        for _ in range(40):
            tracker.observe(7)
        for key in range(100, 110):
            tracker.observe(key)
        assert 7 in tracker.hot_keys()
        assert not any(key in tracker.hot_keys() for key in range(100, 110))

    def test_cold_keys_below_min_hits_never_hot(self):
        tracker = HotKeyTracker(hot_count=4, min_hits=16, refresh_interval=8)
        for key in range(64):
            tracker.observe(key)  # one hit each — all below min_hits
        assert tracker.hot_keys() == frozenset()

    def test_capacity_eviction_keeps_tracker_bounded(self):
        tracker = HotKeyTracker(capacity=8, min_hits=1, refresh_interval=4)
        for key in range(1000):
            tracker.observe(key)
        assert len(tracker) <= 8

    def test_decay_cools_formerly_hot_keys(self):
        tracker = HotKeyTracker(
            hot_count=2, min_hits=16, decay_interval=64, refresh_interval=8
        )
        for _ in range(30):
            tracker.observe(1)
        assert 1 in tracker.hot_keys()
        # Drive other traffic across enough decay cycles that key 1's
        # count halves below min_hits (30 -> 15 after one decay).
        for index in range(40):
            tracker.observe(200 + index % 5)
        assert 1 not in tracker.hot_keys()

    def test_watermark_refresh_is_not_starved_by_early_reads(self):
        # The historical bug: an early hot_keys() read right after
        # construction consumed the refresh and pushed the next one a full
        # interval out, hiding the head for ~4x longer than configured.
        tracker = HotKeyTracker(hot_count=1, min_hits=8, refresh_interval=16)
        assert tracker.hot_keys() == frozenset()  # the early read
        for _ in range(20):
            tracker.observe(3)
        assert 3 in tracker.hot_keys()

    def test_validation(self):
        with pytest.raises(ValueError):
            HotKeyTracker(capacity=0)
        with pytest.raises(ValueError):
            HotKeyTracker(hot_count=0)
        with pytest.raises(ValueError):
            HotKeyTracker(min_hits=0)
        with pytest.raises(ValueError):
            HotKeyTracker(decay_interval=0)


class TestHotKeyRouter:
    @pytest.fixture()
    def router(self):
        ring = HashRing(nodes=range(4))
        tracker = HotKeyTracker(hot_count=2, min_hits=8, refresh_interval=8)
        return HotKeyRouter(ring, replicas=2, tracker=tracker)

    def test_cold_keys_route_to_single_owner(self, router, keys):
        for key in keys[:50]:
            assert router.route(key) == router.ring.owner(key)
        assert router.replicated_routes == 0
        assert router.total_routes == 50

    def test_hot_key_alternates_over_its_replica_set(self, router):
        hot = 12345
        for _ in range(20):
            router.tracker.observe(hot)
        expected = router.ring.owners(hot, 2)
        routed = [router.route(hot) for _ in range(8)]
        # Strict alternation over the two replicas, starting at cursor 0.
        assert routed == [expected[index % 2] for index in range(8)]
        assert router.replicated_routes == 8

    def test_hot_routes_stay_inside_the_replica_set(self, router):
        hot = 999
        for _ in range(20):
            router.tracker.observe(hot)
        allowed = set(router.ring.owners(hot, 2))
        assert {router.route(hot) for _ in range(16)} <= allowed

    def test_route_text_observes_and_routes(self):
        ring = HashRing(nodes=range(3))
        tracker = HotKeyTracker(hot_count=1, min_hits=8, refresh_interval=8)
        router = HotKeyRouter(ring, replicas=2, tracker=tracker)
        text = "MOV RAX, RBX"
        workers = {router.route_text(text) for _ in range(32)}
        key = shard_key(text)
        assert key in router.hot_keys
        assert workers == set(ring.owners(key, 2))
        assert router.replicated_routes > 0

    def test_single_replica_router_never_replicates(self, keys):
        router = HotKeyRouter(HashRing(nodes=range(3)), replicas=1)
        for key in keys[:100]:
            router.tracker.observe(key)
            assert router.route(key) == router.ring.owner(key)
        assert router.replicated_routes == 0

    def test_follows_live_ring_resizes(self):
        ring = HashRing(nodes=range(2))
        tracker = HotKeyTracker(hot_count=1, min_hits=4, refresh_interval=4)
        router = HotKeyRouter(ring, replicas=2, tracker=tracker)
        hot = 777
        for _ in range(10):
            tracker.observe(hot)
        assert set(ring.owners(hot, 2)) == {0, 1}
        ring.add_node(2)  # in-place mutation, no router rewiring
        allowed = set(ring.owners(hot, 2))
        assert {router.route(hot) for _ in range(8)} <= allowed

    def test_single_replica_router_does_not_observe(self, keys):
        router = HotKeyRouter(HashRing(nodes=range(3)), replicas=1)
        for key in keys[:20]:
            router.route_text(str(key))
        assert len(router.tracker) == 0

    def test_empty_ring_is_a_value_error(self):
        with pytest.raises(ValueError):
            HotKeyRouter(HashRing(), replicas=1).route(7)

    def test_refused_replica_falls_back_to_admit_walk(self):
        ring = HashRing(nodes=range(3))
        tracker = HotKeyTracker(hot_count=1, min_hits=4, refresh_interval=4)
        hot = 4242
        first, second = ring.owners(hot, 2)
        router = HotKeyRouter(
            ring, replicas=2, tracker=tracker, admit=lambda node: node != second
        )
        for _ in range(8):
            tracker.observe(hot)
        # The rotation alternates first/second; second is refused and the
        # walk from the true owner lands on first instead.
        assert [router.route(hot) for _ in range(6)] == [first] * 6
        assert router.replicated_routes == 3

    def test_hot_rotation_leaves_a_half_open_replica_probe_unconsumed(self, keys):
        """The probe leak: a hot key whose rotation picks a closed replica
        must not spend the probe of a half-open worker elsewhere on the
        ring, or that worker gets no traffic and never records an outcome."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=1.0), clock=clock
        )
        ring = HashRing(nodes=range(4))
        _half_open(breaker, clock, 2)
        tracker = HotKeyTracker(hot_count=1, min_hits=4, refresh_interval=4)
        router = HotKeyRouter(ring, replicas=2, tracker=tracker, admit=breaker.allow)
        hot = next(key for key in keys if 2 not in ring.owners(key, 3))
        for _ in range(8):
            tracker.observe(hot)
        closed = ring.owners(hot, 2)
        assert router.route(hot) == closed[0]
        assert router.replicated_routes == 1
        assert breaker.state(2) == BREAKER_HALF_OPEN
        assert breaker.counters()["probes"] == 0
        assert breaker.allow(2) is True

    def test_validation(self):
        with pytest.raises(ValueError):
            HotKeyRouter(HashRing(nodes=(0,)), replicas=0)
