"""Tests of the consistent hash ring (repro.serve.ring) and ring coalescing."""

import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.serve import HashRing, PredictionRequest, coalesce_requests, shard_key
from repro.serve.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.serve.ring import DEFAULT_VNODES, RING_SPACE, _vnode_point


def _ring_owner(ring):
    """The service's routing function over ``ring`` without a breaker."""
    return lambda text: ring.owner(shard_key(text))


def _walk_order(ring, key):
    """Every node once, in the clockwise order ``owner`` asks ``admit``."""
    asked = []

    def refuse(node):
        asked.append(node)
        return False

    assert ring.owner(key, refuse) == ring.owner(key)
    return asked


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
        # 1024 vnodes per node keep even a small ring balanced enough that
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

    def test_empty_ring_and_duplicate_ids(self):
        empty = HashRing()
        assert len(empty) == 0 and empty.nodes == ()
        with pytest.raises(LookupError):
            empty.owner(123)
        assert empty.shares() == {}
        with pytest.raises(ValueError):
            HashRing(nodes=(0, 1, 0))

    @pytest.mark.parametrize("refused", range(4))
    def test_refusing_a_worker_moves_only_its_keys(self, keys, refused):
        """Survivors keep every key they own, and the refused worker's
        keys fall to the survivors."""
        ring = HashRing(nodes=range(4))
        for key in keys:
            routed = ring.owner(key, lambda node: node != refused)
            if ring.owner(key) == refused:
                assert routed != refused
            else:
                assert routed == ring.owner(key)

    def test_routing_around_refused_workers_leaves_the_ring_unchanged(self, keys):
        """An admit walk only reads the ring: after routing around every
        worker in turn, each key has its old owner and each worker its old
        share."""
        ring = HashRing(nodes=range(4))
        owners = [ring.owner(key) for key in keys]
        shares = ring.shares()
        for refused in range(4):
            for key in keys:
                ring.owner(key, lambda node: node != refused)
        assert ring.nodes == (0, 1, 2, 3)
        assert ring.shares() == shares
        assert [ring.owner(key) for key in keys] == owners

    @pytest.mark.parametrize("order", [(3, 2, 1, 0), (2, 0, 3, 1), (1, 3, 0, 2)])
    def test_ring_does_not_depend_on_node_order(self, keys, order):
        """A ring is a function of its set of ids: the parent and a
        respawned worker agree however each lists the pool."""
        ring = HashRing(nodes=order)
        reference = HashRing(nodes=range(4))
        assert ring.nodes == reference.nodes
        assert ring.shares() == reference.shares()
        assert [ring.owner(key) for key in keys] == [reference.owner(key) for key in keys]

    @pytest.mark.parametrize("count", [2, 3, 4])
    def test_one_more_worker_moves_keys_only_to_it(self, keys, count):
        """The consistency property between fixed rings: a pool built with
        one more worker moves ~1/(N+1) of the keys, all of them *to* the
        new worker; nobody else's keys move."""
        before = HashRing(nodes=range(count))
        after = HashRing(nodes=range(count + 1))
        moved = 0
        for key in keys:
            old, new = before.owner(key), after.owner(key)
            if old != new:
                moved += 1
                assert new == count  # moved keys land on the new worker only
        fraction = moved / len(keys)
        # Expectation is 1/(count+1); allow generous slack for a small
        # sample of keys.
        assert 0.0 < fraction < 2.0 / (count + 1)

    def test_single_node_owns_everything(self, keys):
        ring = HashRing(nodes=(5,))
        assert {ring.owner(key) for key in keys} == {5}
        assert ring.shares() == {5: pytest.approx(1.0)}
        assert _walk_order(ring, keys[0]) == [5]

    def test_sparse_node_ids(self, keys):
        ring = HashRing(nodes=(3, 10, 42))
        assert ring.nodes == (3, 10, 42)
        assert {ring.owner(key) for key in keys} == {3, 10, 42}
        assert {ring.owner(key, lambda node: node != 10) for key in keys} == {3, 42}
        assert HashRing(nodes=(42, 3)).shares().keys() == {3, 42}

    def test_node_ids_are_normalised_to_int(self):
        ring = HashRing(nodes=[np.int64(1), 2.0])
        assert ring.nodes == (1, 2)
        assert all(type(node) is int for node in ring.nodes)
        with pytest.raises(ValueError):
            HashRing(nodes=[1, 1.0])

    @pytest.mark.parametrize("offset", [RING_SPACE, -RING_SPACE, 5 * RING_SPACE])
    def test_keys_are_taken_modulo_the_ring(self, keys, offset):
        ring = HashRing(nodes=range(3))
        for key in keys[:50]:
            assert ring.owner(key + offset) == ring.owner(key)

    def test_key_on_a_vnode_point_belongs_to_that_vnode(self):
        """A key at a point is owned by that point's worker; one past it
        belongs to the next point clockwise."""
        ring = HashRing(nodes=range(3))
        for node in range(3):
            for replica in (0, 1, DEFAULT_VNODES - 1):
                point = _vnode_point(node, replica)
                assert ring.owner(point) == node
        points = sorted(
            (_vnode_point(node, replica), node)
            for node in range(3)
            for replica in range(DEFAULT_VNODES)
        )
        for (point, _), (_, successor) in zip(points[:50], points[1:51]):
            assert ring.owner(point + 1) == successor

    def test_vnode_points_are_crc32_of_their_label(self):
        assert _vnode_point(3, 17) == zlib.crc32(b"worker-3#vnode-17")
        assert 0 <= _vnode_point(0, 0) < RING_SPACE

    def test_every_node_places_default_vnodes(self):
        ring = HashRing(nodes=range(3))
        assert len(ring._points) == 3 * DEFAULT_VNODES
        assert ring._points == sorted(ring._points)
        for node in range(3):
            assert ring._owners.count(node) == DEFAULT_VNODES

    def test_two_node_ring_splits_within_two_percent(self):
        """The vnode count is chosen so a two-worker ring is close to an
        even split (an uneven split makes one worker the bottleneck)."""
        shares = HashRing(nodes=range(2)).shares()
        assert shares[0] == pytest.approx(0.5, abs=0.02)
        assert shares[1] == pytest.approx(0.5, abs=0.02)

    def test_shares_match_the_owned_fraction_of_the_key_space(self):
        ring = HashRing(nodes=range(3))
        samples = 30000
        owned = {node: 0 for node in range(3)}
        for index in range(samples):
            owned[ring.owner(index * RING_SPACE // samples)] += 1
        for node, share in ring.shares().items():
            assert owned[node] / samples == pytest.approx(share, abs=0.01)

    def test_owners_agree_across_processes(self, keys):
        """Workers and the parent must agree on the ring without sharing
        state: routing cannot depend on the interpreter's hash seed."""
        ring = HashRing(nodes=range(4))
        script = (
            "import json, sys\n"
            "from repro.serve import HashRing\n"
            "keys = json.loads(sys.stdin.read())\n"
            "ring = HashRing(nodes=range(4))\n"
            "print(json.dumps([ring.owner(key) for key in keys]))\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(repro.__file__).resolve().parents[1])]
            + [entry for entry in [env.get("PYTHONPATH")] if entry]
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            input=json.dumps(keys),
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
            check=True,
        )
        assert json.loads(result.stdout) == [ring.owner(key) for key in keys]


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

    def test_a_repeated_block_has_one_owner_across_requests(self, blocks):
        """Every key has exactly one owner: a hot block repeated in every
        request of a submission is never spread over workers."""
        ring = HashRing(nodes=range(4))
        hot = blocks[0]
        requests = [
            PredictionRequest.of([hot] * 7 + list(blocks[index : index + 3]))
            for index in range(1, 30, 3)
        ]
        assignments = coalesce_requests(requests, 4, _ring_owner(ring))
        hot_text = hot.canonical_text()
        hot_workers = {
            worker_id
            for worker_id, batch in assignments
            if hot_text in batch.block_texts
        }
        assert hot_workers == {ring.owner(shard_key(hot_text))}
        placed = sum(batch.block_texts.count(hot_text) for _, batch in assignments)
        assert placed == 7 * len(requests)

    def test_owners_ascend_and_keep_submission_order(self, blocks):
        ring = HashRing(nodes=range(3))
        requests = [
            PredictionRequest.of(blocks[:13]),
            PredictionRequest.of([]),
            PredictionRequest.of(blocks[13:]),
        ]
        assignments = coalesce_requests(requests, 3, _ring_owner(ring))
        owners = [worker_id for worker_id, _ in assignments]
        assert owners == sorted(owners)
        for worker_id in set(owners):
            origins = [
                origin
                for owner, batch in assignments
                if owner == worker_id
                for origin in batch.origins
            ]
            assert origins == sorted(origins)
            assert all(index != 1 for index, _ in origins)

    def test_refused_worker_gets_no_batches(self, blocks):
        ring = HashRing(nodes=range(3))
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        breaker.record_failure(1)
        assignments = coalesce_requests(
            [PredictionRequest.of(blocks)],
            8,
            lambda text: ring.owner(shard_key(text), breaker.allow),
        )
        assert {worker_id for worker_id, _ in assignments} == {0, 2}
        assert sum(batch.num_blocks for _, batch in assignments) == len(blocks)

    @pytest.mark.parametrize("refused", range(3))
    def test_refused_workers_blocks_move_and_the_rest_keep_their_worker(
        self, blocks, refused
    ):
        """Routing around a refused worker moves only the blocks it owns:
        every other block is batched for the same worker as before."""
        ring = HashRing(nodes=range(3))
        request = [PredictionRequest.of(blocks)]
        before = {
            text: worker_id
            for worker_id, batch in coalesce_requests(request, 64, _ring_owner(ring))
            for text in batch.block_texts
        }
        after = {
            text: worker_id
            for worker_id, batch in coalesce_requests(
                request,
                64,
                lambda text: ring.owner(shard_key(text), lambda node: node != refused),
            )
            for text in batch.block_texts
        }
        assert set(before) == set(after)
        assert refused in before.values() and refused not in after.values()
        for text, owner in after.items():
            assert owner == before[text] or before[text] == refused

    def test_invalid_arguments(self, blocks):
        request = PredictionRequest.of(blocks[:2])
        with pytest.raises(ValueError):
            coalesce_requests([request], 0, _ring_owner(HashRing(nodes=(0,))))
        with pytest.raises(LookupError):
            coalesce_requests([request], 4, _ring_owner(HashRing()))


class TestAdmitWalk:
    """``HashRing.owner(key, admit)``: the serving stack's routing decision."""

    def test_walk_visits_every_node_once_from_the_owner(self, keys):
        ring = HashRing(nodes=range(5))
        for key in keys[:50]:
            order = _walk_order(ring, key)
            assert order[0] == ring.owner(key)
            assert sorted(order) == list(range(5))

    def test_key_past_the_last_point_wraps_to_the_first(self):
        ring = HashRing(nodes=range(3))
        assert ring.owner(RING_SPACE - 1) == ring.owner(0)
        assert _walk_order(ring, RING_SPACE - 1) == _walk_order(ring, 0)

    def test_admit_routes_around_refused_workers(self):
        ring = HashRing(nodes=(0, 1, 2))
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        key = 123456
        true_owner = ring.owner(key)
        assert ring.owner(key, breaker.allow) == true_owner
        breaker.record_failure(true_owner)
        assert ring.owner(key, breaker.allow) == _walk_order(ring, key)[1]

    def test_all_refused_falls_back_to_true_owner(self):
        ring = HashRing(nodes=(0, 1, 2))
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=1))
        for node in (0, 1, 2):
            breaker.record_failure(node)
        key = 98765
        assert ring.owner(key, breaker.allow) == ring.owner(key)

    def test_admit_not_called_past_first_accepted(self, keys):
        ring = HashRing(nodes=range(4))
        for key in keys[:50]:
            walk = _walk_order(ring, key)
            asked = []

            def admit(node, refused=walk[0]):
                asked.append(node)
                return node != refused

            assert ring.owner(key, admit) == walk[1]
            assert asked == walk[:2]

    def test_owner_walk_leaves_a_later_half_open_probe_unconsumed(self, keys):
        """An admission is only asked of workers up to the one returned: a
        half-open worker further along the walk keeps its single probe."""
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=1.0), clock=clock
        )
        ring = HashRing(nodes=range(4))
        _half_open(breaker, clock, 2)
        key = next(key for key in keys if ring.owner(key) != 2)
        assert ring.owner(key, breaker.allow) == ring.owner(key)
        assert breaker.state(2) == BREAKER_HALF_OPEN
        assert breaker.counters()["probes"] == 0
        assert breaker.allow(2) is True

    def test_half_open_owner_takes_its_probe_then_is_walked_past(self, keys):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerPolicy(failure_threshold=1, reset_timeout_s=1.0), clock=clock
        )
        ring = HashRing(nodes=range(4))
        _half_open(breaker, clock, 2)
        key = next(key for key in keys if ring.owner(key) == 2)
        assert ring.owner(key, breaker.allow) == 2
        assert breaker.counters()["probes"] == 1
        # The one probe is in flight: the next block goes to the successor.
        assert ring.owner(key, breaker.allow) == _walk_order(ring, key)[1]
        breaker.record_success(2)
        assert breaker.state(2) == BREAKER_CLOSED
        assert ring.owner(key, breaker.allow) == 2

    def test_accepting_admit_equals_the_plain_owner(self, keys):
        ring = HashRing(nodes=range(4))
        for key in keys:
            assert ring.owner(key, lambda node: True) == ring.owner(key)

    @pytest.mark.parametrize("refused", [(0,), (3,), (1, 2), (0, 1, 3)])
    def test_refusing_workers_routes_like_the_ring_without_them(
        self, keys, refused
    ):
        """Walking past refused workers lands where their removal would:
        the first surviving point clockwise from the key."""
        ring = HashRing(nodes=range(4))
        survivors = HashRing(nodes=[node for node in range(4) if node not in refused])
        for key in keys:
            assert ring.owner(key, lambda node: node not in refused) == (
                survivors.owner(key)
            )

    @pytest.mark.parametrize("refused", range(4))
    def test_refused_workers_keys_spread_over_the_survivors(self, keys, refused):
        """Virtual nodes scatter a worker's arcs: when it is refused, its
        keys do not all fall onto a single neighbour."""
        ring = HashRing(nodes=range(4))
        orphans = [key for key in keys if ring.owner(key) == refused]
        routed = {ring.owner(key, lambda node: node != refused) for key in orphans}
        assert routed == set(range(4)) - {refused}

    def test_empty_ring_raises_without_asking_admit(self):
        asked = []
        with pytest.raises(LookupError):
            HashRing().owner(7, asked.append)
        assert asked == []
