"""Work-conserving dispatch of the async front end (repro.serve.queue).

The one dispatcher thread takes whatever is queued as soon as its
previous flush is done, up to ``max_batch_size`` blocks; it blocks only
while the queue is empty.  Batching comes from load alone: requests that
arrive while a flush runs pile up and leave together in the next one.
Every test here holds the dispatcher with a gated flush (the
``flush_gate`` fixture) or queues work before it starts, so none depends
on timing.
"""

import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    AsyncPredictionService,
    PredictionRequest,
    PredictionResponse,
    PredictionService,
    Priority,
    RequestExpiredError,
    RequestQueue,
    ServiceConfig,
)

I, N, B = Priority.INTERACTIVE, Priority.NORMAL, Priority.BULK


class _RecordingService(PredictionService):
    """Answers without a model and records each flush's request ids."""

    def __init__(self, config):
        super().__init__(config)
        self.batches = []

    def warm_start(self):
        return self

    def submit(self, requests):
        self.batches.append([request.request_id for request in requests])
        return [
            PredictionResponse(request.request_id, {}, request.num_blocks)
            for request in requests
        ]


class _RecordingCondition(threading.Condition):
    """A condition variable that records the timeout of every wait."""

    def __init__(self, lock):
        super().__init__(lock)
        self.timeouts = []
        #: Set (under the lock) each time a waiter is about to block.
        self.waiting = threading.Event()

    def wait(self, timeout=None):
        self.timeouts.append(timeout)
        self.waiting.set()
        return super().wait(timeout)


def _request(request_id, num_blocks=1):
    blocks = [f"add rax, {index}" for index in range(num_blocks)]
    return PredictionRequest.of(blocks, request_id=request_id)


def _recorded_queue(max_blocks=4096):
    queue = RequestQueue(max_blocks=max_blocks)
    queue._work = _RecordingCondition(queue._lock)
    return queue


def _ids(entries):
    return [entry.request.request_id for entry in entries]


def _take_in_thread(queue, max_blocks):
    """Starts ``take_batch`` on a thread; returns (thread, result list)."""
    taken = []
    taker = threading.Thread(
        target=lambda: taken.append(queue.take_batch(max_blocks)), daemon=True
    )
    taker.start()
    return taker, taken


def _front_end(max_batch_size):
    inner = _RecordingService(ServiceConfig(max_batch_size=max_batch_size))
    return inner, AsyncPredictionService(service=inner)


class TestTakeBatch:
    def test_non_empty_queue_never_waits(self):
        queue = RequestQueue(max_blocks=64)
        queue._work = _RecordingCondition(queue._lock)
        queue.put(_request("lone"))
        entries = queue.take_batch(max_blocks=64)
        assert [entry.request.request_id for entry in entries] == ["lone"]
        assert queue._work.timeouts == []

    # Each case: the take's block bound, the queued (id, priority, blocks)
    # in arrival order, and the batches successive takes must return.
    @pytest.mark.parametrize(
        "max_blocks, queued, batches",
        [
            pytest.param(4, [("a", N, 1)], [["a"]], id="single"),
            pytest.param(
                8,
                [("a", N, 1), ("b", N, 2), ("c", N, 3)],
                [["a", "b", "c"]],
                id="whole-backlog-fits",
            ),
            pytest.param(
                6,
                [("a", N, 1), ("b", N, 2), ("c", N, 3)],
                [["a", "b", "c"]],
                id="exact-fill",
            ),
            pytest.param(
                5,
                [("a", N, 1), ("b", N, 2), ("c", N, 3)],
                [["a", "b"], ["c"]],
                id="one-block-over",
            ),
            pytest.param(
                3,
                [(f"r{index}", N, 1) for index in range(7)],
                [["r0", "r1", "r2"], ["r3", "r4", "r5"], ["r6"]],
                id="unit-chunks",
            ),
            pytest.param(
                5,
                [("a", N, 2), ("b", N, 2), ("c", N, 2)],
                [["a", "b"], ["c"]],
                id="ties-by-arrival",
            ),
            pytest.param(
                4,
                [("old", B, 1)] + [(f"i{index}", I, 1) for index in range(5)],
                [["i0", "i1", "i2", "old"], ["i3", "i4"]],
                id="interactive-burst-does-not-starve-bulk",
            ),
            pytest.param(
                2,
                [("x", B, 1), ("y", B - 1, 1), ("z", B, 1)],
                [["y", "x"], ["z"]],
                id="int-priority-between-levels",
            ),
            pytest.param(
                4,
                [("a", N, 1), ("big", N, 4), ("c", N, 1)],
                [["a"], ["big"], ["c"]],
                id="first-misfit-ends-the-batch",
            ),
            pytest.param(
                4,
                [("a", N, 1), ("big", N, 10), ("c", I, 1)],
                [["c", "a"], ["big"]],
                id="oversized-waits-to-be-oldest",
            ),
        ],
    )
    def test_takes_drain_the_backlog_batch_by_batch(self, max_blocks, queued, batches):
        queue = _recorded_queue()
        for request_id, priority, num_blocks in queued:
            queue.put(_request(request_id, num_blocks), priority=priority)
        taken = []
        while len(queue):
            taken.append(_ids(queue.take_batch(max_blocks=max_blocks)))
        assert taken == batches
        assert queue.pending_blocks == 0
        queue.close()
        assert queue.take_batch(max_blocks=max_blocks) == []
        assert queue._work.timeouts == []

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        max_blocks=st.integers(min_value=1, max_value=10),
        queued=st.lists(
            st.tuples(
                st.sampled_from([I, N, B, B - 1, 5]),
                st.integers(min_value=1, max_value=6),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_takes_are_work_conserving_for_any_backlog(self, max_blocks, queued):
        """Every take on a non-empty queue returns at once with the
        arrival-oldest entry plus the longest run, in (priority, arrival)
        order, of the rest that fits the bound."""
        queue = _recorded_queue()
        remaining = {}
        for sequence, (priority, num_blocks) in enumerate(queued):
            queue.put(_request(f"r{sequence}", num_blocks), priority=priority)
            remaining[f"r{sequence}"] = (priority, sequence, num_blocks)
        served = []
        while remaining:
            batch = _ids(queue.take_batch(max_blocks=max_blocks))
            assert batch, "a take on a non-empty queue came back empty"
            keys = [remaining[request_id][:2] for request_id in batch]
            assert keys == sorted(keys)
            oldest = min(remaining, key=lambda request_id: remaining[request_id][1])
            assert oldest in batch
            sizes = [remaining[request_id][2] for request_id in batch]
            assert len(batch) == 1 or sum(sizes) <= max_blocks
            # The rest of the batch is a prefix of the remaining queue in
            # priority order, cut where the next entry would overflow.
            by_priority = sorted(
                (request_id for request_id in remaining if request_id != oldest),
                key=lambda request_id: remaining[request_id][:2],
            )
            others = [request_id for request_id in batch if request_id != oldest]
            assert by_priority[: len(others)] == sorted(
                others, key=lambda request_id: remaining[request_id][:2]
            )
            if len(by_priority) > len(others):
                following = remaining[by_priority[len(others)]][2]
                assert sum(sizes) + following > max_blocks
            for request_id in batch:
                del remaining[request_id]
            served.extend(batch)
        assert sorted(served) == sorted(f"r{index}" for index in range(len(queued)))
        assert len(queue) == 0
        assert queue._work.timeouts == []

    def test_empty_queue_take_blocks_untimed_until_a_put(self):
        queue = _recorded_queue()
        taker, taken = _take_in_thread(queue, 64)
        assert queue._work.waiting.wait(30.0)
        queue.put(_request("late"))
        taker.join(30.0)
        assert not taker.is_alive()
        assert [_ids(batch) for batch in taken] == [["late"]]
        assert queue._work.timeouts == [None]

    def test_close_releases_an_idle_take_with_the_empty_list(self):
        queue = _recorded_queue()
        taker, taken = _take_in_thread(queue, 64)
        assert queue._work.waiting.wait(30.0)
        queue.close()
        taker.join(30.0)
        assert not taker.is_alive()
        assert taken == [[]]
        assert queue._work.timeouts == [None]

    def test_an_all_expired_queue_waits_untimed_for_live_work(self):
        queue = _recorded_queue()
        doomed = queue.put(_request("doomed"), deadline_s=0.0)
        taker, taken = _take_in_thread(queue, 64)
        with pytest.raises(RequestExpiredError):
            doomed.future.result(timeout=30.0)
        assert queue._work.waiting.wait(30.0)
        queue.put(_request("live"))
        taker.join(30.0)
        assert not taker.is_alive()
        assert [_ids(batch) for batch in taken] == [["live"]]
        assert queue.expired == 1
        assert queue._work.timeouts == [None]


class TestWorkConservingFrontEnd:
    def test_lone_request_on_an_idle_front_end_is_not_held(self):
        """The dispatcher only ever waits, untimed, on an empty queue: a
        lone request is flushed on its own, however large the batch bound."""
        inner, front_end = _front_end(4096)
        recorder = _RecordingCondition(front_end.queue._lock)
        front_end.queue._work = recorder
        with front_end:
            response = front_end.submit(_request("lone")).result(timeout=60.0)
        assert response.num_blocks == 1
        assert inner.batches == [["lone"]]
        assert all(timeout is None for timeout in recorder.timeouts)
        assert front_end.stats.flushes == 1
        assert front_end.stats.size_flushes == 0

    def test_requests_arriving_while_the_slot_is_busy_share_the_next_flush(
        self, flush_gate
    ):
        inner, front_end = _front_end(64)
        with front_end:
            gate = flush_gate(inner)
            first = front_end.submit(_request("first"))
            assert gate.entered.wait(30.0)
            late = [
                front_end.submit(_request(f"late-{index}", index + 1))
                for index in range(4)
            ]
            gate.release.set()
            for future in [first, *late]:
                future.result(timeout=60.0)
        assert inner.batches == [
            ["first"],
            ["late-0", "late-1", "late-2", "late-3"],
        ]
        assert front_end.stats.flushes == 2
        assert front_end.stats.flushed_blocks == 1 + (1 + 2 + 3 + 4)

    def test_backlog_drains_in_max_batch_size_chunks(self):
        inner, front_end = _front_end(4)
        # Queued before the dispatcher starts: the whole backlog is waiting.
        futures = [front_end.submit(_request(f"r{index}")) for index in range(10)]
        with front_end:
            for future in futures:
                future.result(timeout=60.0)
        assert [len(batch) for batch in inner.batches] == [4, 4, 2]
        assert [request_id for batch in inner.batches for request_id in batch] == [
            f"r{index}" for index in range(10)
        ]
        # Two full batches: the saturation signal.
        assert front_end.stats.size_flushes == 2

    def test_priority_and_oldest_first_hold_under_work_conserving_takes(
        self, flush_gate
    ):
        inner, front_end = _front_end(4)
        with front_end:
            gate = flush_gate(inner)
            holder = front_end.submit(_request("holder"))
            assert gate.entered.wait(30.0)
            futures = [
                front_end.submit(_request("old-bulk"), priority=Priority.BULK),
                front_end.submit(_request("normal"), priority=Priority.NORMAL),
            ]
            futures += [
                front_end.submit(
                    _request(f"hot-{index}"), priority=Priority.INTERACTIVE
                )
                for index in range(4)
            ]
            gate.release.set()
            for future in [holder, *futures]:
                future.result(timeout=60.0)
        assert inner.batches == [
            ["holder"],
            # Interactive traffic leads, yet the arrival-oldest bulk
            # request rides along instead of starving behind it.
            ["hot-0", "hot-1", "hot-2", "old-bulk"],
            ["hot-3", "normal"],
        ]

    @pytest.mark.parametrize(
        "late_blocks, full_flushes",
        [((1,), 0), ((5, 1, 5), 0), ((8,) * 8, 1)],
        ids=["one", "mixed-sizes", "exactly-full"],
    )
    def test_late_arrivals_leave_together_in_one_flush(
        self, flush_gate, late_blocks, full_flushes
    ):
        inner, front_end = _front_end(64)
        with front_end:
            gate = flush_gate(inner)
            first = front_end.submit(_request("first"))
            assert gate.entered.wait(30.0)
            late = [
                front_end.submit(_request(f"late-{index}", num_blocks))
                for index, num_blocks in enumerate(late_blocks)
            ]
            gate.release.set()
            for future in [first, *late]:
                future.result(timeout=60.0)
        assert inner.batches == [
            ["first"],
            [f"late-{index}" for index in range(len(late_blocks))],
        ]
        assert front_end.stats.flushes == 2
        assert front_end.stats.flushed_blocks == 1 + sum(late_blocks)
        assert front_end.stats.size_flushes == full_flushes

    @pytest.mark.parametrize(
        "max_batch_size, late, flush_sizes, full_flushes",
        [
            (4, 4, [1, 4], 1),
            (4, 5, [1, 4, 1], 1),
            (4, 9, [1, 4, 4, 1], 2),
            (1, 3, [1, 1, 1, 1], 4),
        ],
    )
    def test_a_piled_up_backlog_splits_at_the_batch_bound(
        self, flush_gate, max_batch_size, late, flush_sizes, full_flushes
    ):
        inner, front_end = _front_end(max_batch_size)
        with front_end:
            gate = flush_gate(inner)
            first = front_end.submit(_request("first"))
            assert gate.entered.wait(30.0)
            futures = [front_end.submit(_request(f"l{index}")) for index in range(late)]
            gate.release.set()
            for future in [first, *futures]:
                future.result(timeout=60.0)
        assert [len(batch) for batch in inner.batches] == flush_sizes
        assert sum(inner.batches, []) == ["first"] + [f"l{index}" for index in range(late)]
        assert front_end.stats.size_flushes == full_flushes

    @pytest.mark.parametrize("max_batch_size", [2, 64, 4096])
    def test_sequential_requests_are_each_flushed_alone(self, max_batch_size):
        """However large the batch bound, a request never waits for
        company: each of a sequence of one-block requests is its own
        flush."""
        inner, front_end = _front_end(max_batch_size)
        recorder = _RecordingCondition(front_end.queue._lock)
        front_end.queue._work = recorder
        with front_end:
            for index in range(3):
                front_end.submit(_request(f"s{index}")).result(timeout=60.0)
        assert inner.batches == [["s0"], ["s1"], ["s2"]]
        assert all(timeout is None for timeout in recorder.timeouts)
        assert front_end.stats.flushes == 3
        assert front_end.stats.size_flushes == 0

    def test_start_runs_one_dispatcher_thread_until_close(self):
        def dispatchers():
            return {
                thread
                for thread in threading.enumerate()
                if thread.name == "repro-serve-dispatcher"
            }

        _, front_end = _front_end(64)
        before = dispatchers()
        front_end.start()
        front_end.start()  # idempotent while running
        started = dispatchers() - before
        assert len(started) == 1
        front_end.close()
        assert not any(thread.is_alive() for thread in started)

    def test_a_served_front_end_starts_no_thread_but_the_dispatcher(self):
        """The front end runs no monitor beside its dispatcher: serving a
        request leaves exactly one new thread alive, and closing ends it."""
        before = set(threading.enumerate())
        inner, front_end = _front_end(64)
        with front_end:
            front_end.submit(_request("only")).result(timeout=60.0)
            started = set(threading.enumerate()) - before
            assert [thread.name for thread in started] == ["repro-serve-dispatcher"]
        assert inner.batches == [["only"]]
        assert not any(thread.is_alive() for thread in started)

    def test_a_parked_flush_holds_every_later_request_in_the_queue(
        self, flush_gate
    ):
        inner, front_end = _front_end(64)
        with front_end:
            gate = flush_gate(inner)
            futures = [front_end.submit(_request("a"))]
            assert gate.entered.wait(30.0)
            futures += [front_end.submit(_request(name)) for name in ("b", "c", "d")]
            # No second flush slot: with the dispatcher parked, nothing
            # takes the late requests out of the queue.
            assert len(front_end.queue) == 3
            assert front_end.queue.pending_blocks == 3
            gate.release.set()
            for future in futures:
                future.result(timeout=60.0)
        assert inner.batches == [["a"], ["b", "c", "d"]]
        assert front_end.stats.flushes == 2

    @pytest.mark.parametrize(
        "max_batch_size, submitted, batches",
        [
            pytest.param(
                4,
                [("b0", B), ("b1", B), ("b2", B), ("b3", B), ("i0", I)],
                [["i0", "b0", "b1", "b2"], ["b3"]],
                id="interactive-jumps-bulk",
            ),
            pytest.param(
                3,
                [("b0", B), ("n0", N), ("n1", N), ("b1", B)],
                [["n0", "n1", "b0"], ["b1"]],
                id="normal-ahead-of-bulk",
            ),
            pytest.param(
                2,
                [("i0", I), ("i1", I), ("i2", I)],
                [["i0", "i1"], ["i2"]],
                id="one-class-by-arrival",
            ),
        ],
    )
    def test_a_piled_up_backlog_drains_in_priority_order(
        self, flush_gate, max_batch_size, submitted, batches
    ):
        inner, front_end = _front_end(max_batch_size)
        with front_end:
            gate = flush_gate(inner)
            futures = [front_end.submit(_request("holder"))]
            assert gate.entered.wait(30.0)
            futures += [
                front_end.submit(_request(request_id), priority=priority)
                for request_id, priority in submitted
            ]
            gate.release.set()
            for future in futures:
                future.result(timeout=60.0)
        assert inner.batches == [["holder"], *batches]

    def test_flush_snapshot_adds_up(self, flush_gate):
        inner, front_end = _front_end(4)
        with front_end:
            gate = flush_gate(inner)
            futures = [front_end.submit(_request("holder", 2))]
            assert gate.entered.wait(30.0)
            futures += [front_end.submit(_request(f"l{index}", 2)) for index in range(3)]
            gate.release.set()
            for future in futures:
                future.result(timeout=60.0)
            flush = front_end.snapshot().flush
        assert inner.batches == [["holder"], ["l0", "l1"], ["l2"]]
        assert flush.flushes == 3
        assert flush.size_flushes == 1
        assert flush.flushed_blocks == 8
        assert flush.mean_flush_blocks == pytest.approx(8 / 3)
        assert flush.requests_completed == 4
        assert flush.request_errors == 0

    def test_a_request_cancelled_behind_a_busy_slot_skips_the_next_flush(
        self, flush_gate
    ):
        inner, front_end = _front_end(64)
        with front_end:
            gate = flush_gate(inner)
            holder = front_end.submit(_request("holder"))
            assert gate.entered.wait(30.0)
            kept = [front_end.submit(_request(name)) for name in ("a", "b", "c")]
            assert kept[1].cancel()
            gate.release.set()
            for future in [holder, kept[0], kept[2]]:
                future.result(timeout=60.0)
        assert inner.batches == [["holder"], ["a", "c"]]
        assert front_end.queue.cancelled == 1
        assert front_end.stats.flushed_blocks == 3

    def test_a_request_expiring_behind_a_busy_slot_is_dropped_at_the_take(
        self, flush_gate
    ):
        inner, front_end = _front_end(64)
        with front_end:
            gate = flush_gate(inner)
            holder = front_end.submit(_request("holder"))
            assert gate.entered.wait(30.0)
            doomed = front_end.submit(_request("doomed"), deadline_ms=0.0)
            kept = front_end.submit(_request("kept"))
            gate.release.set()
            holder.result(timeout=60.0)
            kept.result(timeout=60.0)
            with pytest.raises(RequestExpiredError):
                doomed.result(timeout=60.0)
        assert inner.batches == [["holder"], ["kept"]]
        assert front_end.queue.expired == 1
        assert front_end.stats.flushes == 2

    def test_an_oversized_request_is_one_full_flush(self):
        inner, front_end = _front_end(4)
        with front_end:
            response = front_end.submit(_request("big", 10)).result(timeout=60.0)
        assert response.num_blocks == 10
        assert inner.batches == [["big"]]
        assert front_end.stats.flushes == 1
        assert front_end.stats.size_flushes == 1
