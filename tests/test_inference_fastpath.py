"""Regression tests for the no-grad inference fast path.

The fast path dispatches model forwards to raw numpy arrays whenever
gradients are disabled (no autodiff tape, no Tensor wrappers).  These tests
pin down the properties the eval harness and the serving layer rely on:

* batched predictions are numerically identical to per-block predictions
  and to the tape-tensor ("seed") path, for both model families;
* ``no_grad`` restores gradient recording even when the body raises;
* ``predict`` handles empty inputs and micro-batching;
* a large micro-batch runs as contiguous shards on a thread pool, each in
  the model's execution mode, equal to one batch up to rounding; the tape
  reference and serve-sized batches never shard, and a forked child builds
  a pool of its own;
* the encode caches return correct results after retraining changes the
  weights (graphs depend only on the block text, never on the weights).
"""

import multiprocessing
import threading

import numpy as np
import pytest

from repro.data.datasets import build_ithemal_like_dataset
from repro.data.synthetic import BlockGenerator
from repro.models import base, create_model
from repro.models.config import TrainingConfig
from repro.nn import losses
from repro.nn.tensor import (
    Tensor,
    active_dtype,
    fast_path_active,
    is_grad_enabled,
    no_grad,
    use_fast_path,
)
from repro.testing.equivalence import assert_allclose_for_dtype
from repro.training.trainer import Trainer


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=11).generate_blocks(48)


@pytest.fixture(scope="module", params=["granite", "ithemal", "ithemal+"])
def model(request):
    return create_model(request.param, small=True, seed=3)


def _assert_close(model, actual, desired, strict_rtol, against_tape=False):
    """Dtype-aware equality: bit-tight in float64, tolerance in float32.

    The model fixture honours the ``INFERENCE_DTYPE`` environment variable
    (the CI mixed-precision leg), where exact identities become tolerance
    contracts; float32-vs-float64-*tape* comparisons additionally carry the
    full single-precision accumulation error (bounded much tighter by
    ``tests/equivalence``), so they get a looser budget.
    """
    if against_tape:
        assert_allclose_for_dtype(
            actual, desired, model.inference_dtype, strict_rtol, rtol32=1e-3, atol32=1e-2
        )
    else:
        assert_allclose_for_dtype(actual, desired, model.inference_dtype, strict_rtol)


class TestNoGradSwitch:
    def test_no_grad_disables_and_restores(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            assert fast_path_active()
        assert is_grad_enabled()
        assert not fast_path_active()

    def test_no_grad_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()

    def test_nested_no_grad(self):
        with no_grad():
            with no_grad():
                assert not is_grad_enabled()
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_use_fast_path_restores_after_exception(self):
        with pytest.raises(RuntimeError):
            with use_fast_path(False):
                raise RuntimeError("boom")
        with no_grad():
            assert fast_path_active()

    def test_gradients_flow_after_fast_path_inference(self, blocks):
        """A fast-path predict must not poison subsequent training steps."""
        model = create_model("granite", small=True, seed=0)
        model.predict(blocks[:4])
        batch = model.encode_blocks(blocks[:4])
        predictions = model.forward(batch)
        loss = predictions[model.tasks[0]].sum()
        assert isinstance(loss, Tensor)
        model.zero_grad()
        loss.backward()
        assert any(p.grad is not None for p in model.parameters())


class TestPredictBatching:
    def test_empty_predict(self, model):
        predictions = model.predict([])
        assert set(predictions) == set(model.tasks)
        for task in model.tasks:
            assert predictions[task].shape == (0,)

    def test_invalid_batch_size_rejected(self, model, blocks):
        with pytest.raises(ValueError):
            model.predict(blocks[:2], batch_size=0)

    def test_batched_matches_single(self, model, blocks):
        batched = model.predict(blocks)
        for task in model.tasks:
            assert batched[task].shape == (len(blocks),)
        singles = {task: [] for task in model.tasks}
        for block in blocks:
            single = model.predict([block])
            for task in model.tasks:
                singles[task].append(single[task][0])
        for task in model.tasks:
            _assert_close(model, batched[task], np.array(singles[task]), 1e-9)

    def test_micro_batching_matches_one_batch(self, model, blocks):
        full = model.predict(blocks)
        micro = model.predict(blocks, batch_size=7)
        for task in model.tasks:
            _assert_close(model, full[task], micro[task], 1e-12)

    def test_fast_path_matches_tape_path(self, model, blocks):
        fast = model.predict(blocks)
        with use_fast_path(False):
            tape = model.predict(blocks)
        for task in model.tasks:
            _assert_close(model, fast[task], tape[task], 1e-12, against_tape=True)

    def test_fast_path_matches_grad_enabled_forward(self, model, blocks):
        fast = model.predict(blocks)
        predictions = model.forward(model.encode_blocks(blocks))
        for task in model.tasks:
            _assert_close(
                model,
                fast[task],
                predictions[task].numpy().reshape(-1),
                1e-12,
                against_tape=True,
            )


def _force_shards(monkeypatch, count):
    """Makes every micro-batch split into ``count`` shards, whatever its work."""
    monkeypatch.setattr(base, "_shard_count", lambda work: count)


def _refuse_pool(monkeypatch):
    """Fails the test if a predict hands any shard to the pool."""

    def refuse():
        raise AssertionError("the predict was sharded")

    monkeypatch.setattr(base, "_shard_pool", refuse)


class TestShardedPredict:
    def test_bounds_are_contiguous_and_balanced_by_instructions(self, blocks):
        bounds = base._shard_bounds(blocks, 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == len(blocks)
        assert all(end == start for (_, end), (start, _) in zip(bounds, bounds[1:]))
        assert len(bounds) == 3
        total = sum(len(block) for block in blocks)
        longest = max(len(block) for block in blocks)
        for start, end in bounds:
            assert abs(sum(len(b) for b in blocks[start:end]) - total / 3) <= longest

    def test_bounds_never_hold_an_empty_shard(self, blocks):
        assert base._shard_bounds(blocks[:2], 5) == [(0, 1), (1, 2)]
        assert base._shard_bounds(blocks[:1], 2) == [(0, 1)]
        assert base._shard_bounds(blocks, 1) == [(0, len(blocks))]

    def test_shard_count_follows_work_and_inference_cores(self, monkeypatch):
        monkeypatch.setattr(base, "inference_cores", lambda: 4)
        assert base._shard_count(0) == 1
        assert base._shard_count(2 * base.MIN_SHARD_WORK - 1) == 1
        assert base._shard_count(2 * base.MIN_SHARD_WORK) == 2
        assert base._shard_count(100 * base.MIN_SHARD_WORK) == 4
        monkeypatch.setattr(base, "inference_cores", lambda: 1)
        assert base._shard_count(100 * base.MIN_SHARD_WORK) == 1

    def test_a_multithreaded_blas_leaves_fewer_cores_to_shards(self, monkeypatch):
        monkeypatch.setattr(base, "_usable_cpus", lambda: 4)
        for name in base._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        assert base.inference_cores() == 1  # BLAS defaults to every CPU
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert base.inference_cores() == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert base.inference_cores() == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert base.inference_cores() == 1

    @pytest.mark.parametrize("name", ["granite", "ithemal+"])
    def test_a_serve_sized_batch_starts_no_thread(self, name, blocks, monkeypatch):
        """1-8 blocks (a served flush) run on the calling thread, however
        many CPUs the host has."""
        model = create_model(name, small=True, seed=3)
        _refuse_pool(monkeypatch)
        before = set(threading.enumerate())
        with model.caches_disabled():
            for count in range(1, 9):
                model.predict(blocks[:count])
        assert set(threading.enumerate()) == before

    def test_the_tape_reference_is_never_sharded(self, model, blocks, monkeypatch):
        _force_shards(monkeypatch, 4)
        _refuse_pool(monkeypatch)
        with use_fast_path(False), model.caches_disabled():
            model.predict(blocks)
            model.predict(blocks, batch_size=7)
        with pytest.raises(AssertionError, match="sharded"), model.caches_disabled():
            model.predict(blocks)

    def test_pool_threads_run_the_models_execution_mode(self, blocks, monkeypatch):
        model = create_model("granite", small=True, seed=3, inference_dtype="float32")
        seen = []
        forward = model.forward

        def recording(batch):
            seen.append((
                threading.current_thread().name,
                active_dtype(),
                is_grad_enabled(),
                fast_path_active(),
            ))
            return forward(batch)

        model.forward = recording
        _force_shards(monkeypatch, 3)
        with model.caches_disabled():
            model.predict(blocks)
        assert len(seen) == 3
        for thread_name, dtype, grad, fast_path in seen:
            assert thread_name.startswith("repro-predict-shard")
            assert dtype == np.float32
            assert grad is False
            assert fast_path is True

    def test_sharded_matches_one_shard(self, model, blocks, monkeypatch):
        with model.caches_disabled():
            whole = model.predict(blocks)
            _force_shards(monkeypatch, 3)
            sharded = model.predict(blocks)
            micro = model.predict(blocks, batch_size=20)
        for task in model.tasks:
            _assert_close(model, sharded[task], whole[task], 1e-12)
            _assert_close(model, micro[task], whole[task], 1e-12)

    def test_repeated_sharded_predicts_are_bitwise_identical(
        self, model, blocks, monkeypatch
    ):
        _force_shards(monkeypatch, 3)
        with model.caches_disabled():
            first = model.predict(blocks)
            second = model.predict(blocks)
        for task in model.tasks:
            np.testing.assert_array_equal(first[task], second[task])

    def test_a_forked_child_runs_its_own_sharded_predict(self, blocks, monkeypatch):
        """A child forked after the parent built its pool inherits the pool
        object but none of its threads; its sharded predict must not wait
        on them."""
        model = create_model("granite", small=True, seed=3)
        model.prediction_cache_size = 0
        _force_shards(monkeypatch, 2)
        expected = model.predict(blocks)
        assert any(
            thread.name.startswith("repro-predict-shard")
            for thread in threading.enumerate()
        ), "the parent's predict built no pool"
        receiver, sender = multiprocessing.Pipe(duplex=False)

        def child():
            predictions = model.predict(blocks)
            sender.send({task: values.tolist() for task, values in predictions.items()})

        process = multiprocessing.get_context("fork").Process(target=child)
        process.start()
        sender.close()
        try:
            assert receiver.poll(60.0), "the forked child's sharded predict hung"
            received = receiver.recv()
        finally:
            process.join(10.0)
            if process.is_alive():
                process.kill()
                process.join()
        assert process.exitcode == 0
        for task in model.tasks:
            np.testing.assert_array_equal(received[task], expected[task])


class TestEncodeCache:
    def test_cache_hits_on_repeated_blocks(self, blocks):
        model = create_model("granite", small=True, seed=0)
        model.prediction_cache_size = 0  # exercise the encode caches
        model.predict(blocks)
        stats_after_miss = model.encode_cache_stats
        assert stats_after_miss["graph_misses"] == len(blocks)
        model.predict(blocks)
        stats_after_hit = model.encode_cache_stats
        assert stats_after_hit["batch_hits"] >= 1
        # The batch-level cache absorbed the lookup; no new graph builds.
        assert stats_after_hit["graph_misses"] == stats_after_miss["graph_misses"]

    def test_cache_cleared(self, blocks):
        model = create_model("granite", small=True, seed=0)
        model.prediction_cache_size = 0
        model.predict(blocks[:4])
        model.clear_encode_cache()
        model.predict(blocks[:4])
        assert model.encode_cache_stats["graph_misses"] == 8

    def test_duplicate_blocks_computed_once(self, blocks):
        model = create_model("granite", small=True, seed=0)
        repeated = [blocks[0], blocks[1], blocks[0], blocks[0], blocks[1]]
        predictions = model.predict(repeated)
        # Only the two distinct blocks were encoded and forwarded.
        assert model.encode_cache_stats["graph_misses"] == 2
        for task in model.tasks:
            assert predictions[task][0] == predictions[task][2] == predictions[task][3]
            assert predictions[task][1] == predictions[task][4]
        expected = model.predict([blocks[0], blocks[1]])
        for task in model.tasks:
            np.testing.assert_allclose(
                predictions[task][:2], expected[task], rtol=1e-12
            )

    def test_caches_disabled_context(self, blocks):
        model = create_model("granite", small=True, seed=0)
        model.predict(blocks[:4])
        with model.caches_disabled():
            model.predict(blocks[:4])
            assert model.encode_cache_stats["graph_misses"] >= 8
            assert len(model._graph_cache) == 0
        # Capacities restored afterwards.
        assert model.prediction_cache_size > 0
        assert model._graph_cache.maxsize > 0

    def test_prediction_cache_serves_repeats(self, blocks):
        model = create_model("granite", small=True, seed=0)
        first = model.predict(blocks)
        second = model.predict(blocks)  # served entirely from the cache
        stats = model.prediction_cache_stats
        assert stats["hits"] >= len(blocks)
        for task in model.tasks:
            np.testing.assert_array_equal(first[task], second[task])

    def test_prediction_cache_invalidated_by_weight_update(self, blocks):
        model = create_model("granite", small=True, seed=0)
        before = model.predict(blocks[:4])
        # Any state-dict load counts as a weight update and must drop the
        # cached predictions.
        state = model.state_dict()
        for name in state:
            state[name] = state[name] + 0.05
        model.load_state_dict(state)
        after = model.predict(blocks[:4])
        assert any(
            not np.allclose(before[task], after[task]) for task in model.tasks
        )
        fresh = create_model("granite", small=True, seed=0)
        fresh.load_state_dict(state)
        expected = fresh.predict(blocks[:4])
        for task in model.tasks:
            np.testing.assert_allclose(after[task], expected[task], rtol=1e-9)

    @pytest.mark.parametrize("name", ["granite", "ithemal+"])
    def test_cache_correct_after_retraining(self, name):
        """Warm caches must keep predictions correct after weights change."""
        dataset = build_ithemal_like_dataset(64, seed=5)
        train_blocks = dataset.blocks()
        model = create_model(name, small=True, seed=1)
        before = model.predict(train_blocks)

        trainer = Trainer(model, TrainingConfig(num_steps=5, batch_size=16, seed=0))
        trainer.train(dataset)
        after = model.predict(train_blocks)  # served from warm encode caches
        assert any(
            not np.allclose(before[task], after[task]) for task in model.tasks
        ), "training changed no prediction; cache test is vacuous"

        fresh = create_model(name, small=True, seed=1)
        fresh.load_state_dict(model.state_dict())
        expected = fresh.predict(train_blocks)  # cold caches, same weights
        for task in model.tasks:
            np.testing.assert_allclose(after[task], expected[task], rtol=1e-9)


class TestLossZeroTargetGuard:
    def test_mape_ignores_zero_targets(self):
        predicted = Tensor(np.array([2.0, 5.0, 1.0]))
        actual = Tensor(np.array([1.0, 0.0, 2.0]))
        value = float(losses.mean_absolute_percentage_error(predicted, actual).item())
        # mean over the two valid targets: (1/1 + 1/2) / 2
        assert value == pytest.approx(0.75, rel=1e-6)

    def test_mape_all_zero_targets_is_finite_zero(self):
        predicted = Tensor(np.array([3.0, -4.0]))
        actual = Tensor(np.zeros(2))
        value = float(losses.mean_absolute_percentage_error(predicted, actual).item())
        assert value == 0.0

    @pytest.mark.parametrize(
        "loss_name", ["mape", "relative_mse", "relative_huber"]
    )
    def test_relative_losses_share_the_guard(self, loss_name):
        loss_fn = losses.LOSS_FUNCTIONS[loss_name]
        predicted = Tensor(np.array([2.0, 7.5, 1.0]))
        with_zero = float(
            loss_fn(predicted, Tensor(np.array([1.0, 0.0, 2.0]))).item()
        )
        # A zero target must not contribute an |error|/epsilon ~ 1e6 term.
        assert with_zero < 1e3

    def test_guarded_mape_still_differentiable(self):
        predicted = Tensor(np.array([2.0, 5.0, 1.0]), requires_grad=True)
        actual = Tensor(np.array([1.0, 0.0, 2.0]))
        loss = losses.mean_absolute_percentage_error(predicted, actual)
        loss.backward()
        assert predicted.grad is not None
        # No gradient flows through the zero-target entry.
        assert predicted.grad[1] == 0.0
        assert predicted.grad[0] != 0.0
