"""Tests of the batched prediction service (repro.serve)."""

import os

import numpy as np
import pytest

from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.models import create_model
from repro.nn.serialization import save_checkpoint
from repro.serve import (
    PredictionRequest,
    PredictionService,
    ServiceConfig,
    coalesce_requests,
)
from repro.testing.equivalence import assert_allclose_for_dtype


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(GeneratorConfig(seed=9)).generate_blocks(24)


def _one_owner(text):
    return 0


class TestCoalescing:
    def test_requests_merge_into_bounded_batches(self, blocks):
        requests = [
            PredictionRequest.of(blocks[:10]),
            PredictionRequest.of(blocks[10:12]),
            PredictionRequest.of(blocks[12:]),
        ]
        assignments = coalesce_requests(requests, 8, _one_owner)
        assert {owner for owner, _ in assignments} == {0}
        batches = [batch for _, batch in assignments]
        assert all(batch.num_blocks <= 8 for batch in batches)
        assert sum(batch.num_blocks for batch in batches) == 24
        # Origins cover every (request, position) pair exactly once.
        origins = [origin for batch in batches for origin in batch.origins]
        assert sorted(origins) == [
            (index, position)
            for index, request in enumerate(requests)
            for position in range(request.num_blocks)
        ]

    def test_constant_owner_chunks_in_submission_order(self, blocks):
        """One owner gives plain submission-order chunking: request order,
        then block order, cut every ``max_batch_size`` blocks."""
        requests = [
            PredictionRequest.of(blocks[:3]),
            PredictionRequest.of(blocks[3:17]),
            PredictionRequest.of([]),
            PredictionRequest.of(blocks[17:]),
        ]
        flat = [
            (text, (index, position))
            for index, request in enumerate(requests)
            for position, text in enumerate(request.block_texts)
        ]
        expected = [
            (
                tuple(text for text, _ in flat[start : start + 5]),
                tuple(origin for _, origin in flat[start : start + 5]),
            )
            for start in range(0, len(flat), 5)
        ]
        assignments = coalesce_requests(requests, 5, _one_owner)
        assert [owner for owner, _ in assignments] == [0] * len(expected)
        assert [
            (batch.block_texts, batch.origins) for _, batch in assignments
        ] == expected

    def test_empty_requests_contribute_nothing(self):
        assert coalesce_requests([PredictionRequest.of([])], 4, _one_owner) == []

    def test_invalid_batch_size(self, blocks):
        with pytest.raises(ValueError):
            coalesce_requests([PredictionRequest.of(blocks[:2])], 0, _one_owner)

    def test_request_accepts_text_and_blocks(self, blocks):
        request = PredictionRequest.of([blocks[0], blocks[1].render()])
        assert request.block_texts[0] == blocks[0].render()
        assert request.block_texts[1] == blocks[1].render()


class TestInProcessService:
    def test_heterogeneous_requests_reassembled(self, blocks):
        service = PredictionService(
            ServiceConfig(model_name="granite", max_batch_size=6)
        ).warm_start()
        requests = [
            PredictionRequest.of(blocks[:7], request_id="big"),
            PredictionRequest.of([], request_id="empty"),
            PredictionRequest.of(blocks[7:9], request_id="small"),
        ]
        responses = service.submit(requests)
        assert [response.request_id for response in responses] == [
            "big",
            "empty",
            "small",
        ]
        direct = service.model.predict(blocks[:9])
        for task in service.model.tasks:
            np.testing.assert_allclose(
                responses[0].predictions[task], direct[task][:7], rtol=1e-9
            )
            assert responses[1].predictions[task].shape == (0,)
            np.testing.assert_allclose(
                responses[2].predictions[task], direct[task][7:9], rtol=1e-9
            )
        assert service.stats.requests == 3
        assert service.stats.blocks == 9
        assert service.stats.batches == 2  # ceil(9 / 6)

    def test_empty_submission_with_task_filter(self, blocks):
        """A zero-block request naming valid tasks must not be rejected."""
        service = PredictionService(ServiceConfig(model_name="granite"))
        task = service.model.tasks[0]
        response = service.submit(
            [PredictionRequest.of([], request_id="empty", tasks=(task,))]
        )[0]
        assert set(response.predictions) == {task}
        assert response.predictions[task].shape == (0,)
        # Same through a worker-configured service: the parent process holds
        # no model, and an all-empty submission must not spawn the pool.
        sharded = PredictionService(ServiceConfig(model_name="granite", num_workers=2))
        response = sharded.submit(
            [PredictionRequest.of([], tasks=("skylake",))]
        )[0]
        assert set(response.predictions) == {"skylake"}
        assert sharded._pool is None

    def test_task_subset_and_unknown_task(self, blocks):
        service = PredictionService(ServiceConfig(model_name="granite"))
        task = service.model.tasks[0]
        response = service.submit(
            [PredictionRequest.of(blocks[:2], tasks=(task,))]
        )[0]
        assert set(response.predictions) == {task}
        with pytest.raises(KeyError):
            service.submit(
                [PredictionRequest.of(blocks[:2], tasks=("not-a-task",))]
            )

    def test_serves_prebuilt_model(self, blocks):
        model = create_model("ithemal+", small=True, seed=7)
        service = PredictionService(ServiceConfig(model_name="ithemal+"), model=model)
        predictions = service.predict_blocks(blocks[:5])
        expected = model.predict(blocks[:5])
        for task in model.tasks:
            np.testing.assert_allclose(predictions[task], expected[task], rtol=1e-12)

    def test_prebuilt_model_rejected_with_workers(self):
        model = create_model("granite", small=True, seed=0)
        with pytest.raises(ValueError):
            PredictionService(ServiceConfig(num_workers=1), model=model)

    def test_bad_worker_config_fails_fast(self, tmp_path):
        """A config that would crash or hang workers must raise, not livelock."""
        fifo = tmp_path / "never-written.npz"
        os.mkfifo(fifo)  # opening it would block every replica in start-up
        for checkpoint in (tmp_path / "nope.npz", fifo, tmp_path):
            service = PredictionService(
                ServiceConfig(num_workers=1, checkpoint_path=str(checkpoint))
            )
            with pytest.raises(FileNotFoundError):
                service.warm_start()
            assert service._pool is None, checkpoint
        with pytest.raises(ValueError):
            PredictionService(
                ServiceConfig(model_name="not-a-model", num_workers=1)
            ).warm_start()

    def test_a_fifo_checkpoint_raises_in_process(self, fifo_checkpoint):
        """``create_model`` and an in-process service reject a FIFO instead
        of blocking forever in ``np.load``'s open."""
        path, call = fifo_checkpoint
        raised = call(create_model, "granite", checkpoint_path=path)
        assert isinstance(raised, FileNotFoundError)
        service = PredictionService(ServiceConfig(checkpoint_path=path))
        assert isinstance(call(service.warm_start), FileNotFoundError)

    def test_warm_start_checkpoint(self, blocks, tmp_path):
        """The service restores trained weights at warm start."""
        trained = create_model("granite", small=True, seed=2)
        for parameter in trained.parameters():
            parameter.data += 0.01  # make the weights differ from seed init
        path = str(tmp_path / "weights.npz")
        save_checkpoint(trained, path)

        service = PredictionService(
            ServiceConfig(model_name="granite", seed=2, checkpoint_path=path)
        ).warm_start()
        served = service.predict_blocks(blocks[:4])
        expected = trained.predict(blocks[:4])
        for task in trained.tasks:
            np.testing.assert_allclose(served[task], expected[task], rtol=1e-12)


class TestDtypeServing:
    def test_invalid_dtype_rejected(self):
        with pytest.raises(ValueError, match="inference_dtype"):
            ServiceConfig(inference_dtype="float16")

    def test_in_process_service_uses_config_dtype(self, blocks):
        float32_service = PredictionService(
            ServiceConfig(model_name="granite", inference_dtype="float32")
        )
        assert float32_service.inference_dtype == "float32"
        assert float32_service.model.inference_dtype == "float32"
        served = float32_service.predict_blocks(blocks[:6])
        reference = PredictionService(
            ServiceConfig(model_name="granite", inference_dtype="float64")
        ).predict_blocks(blocks[:6])
        # Equivalent within tolerance, but genuinely computed in another
        # precision (bit-identical everywhere would mean float64 ran).
        different = False
        for task, expected in reference.items():
            np.testing.assert_allclose(served[task], expected, rtol=1e-3, atol=1e-2)
            different = different or not np.array_equal(served[task], expected)
        assert different

    def test_prebuilt_model_keeps_its_own_dtype(self):
        model = create_model("granite", small=True, seed=0, inference_dtype="float32")
        service = PredictionService(
            ServiceConfig(model_name="granite", inference_dtype="float64"), model=model
        )
        assert service.inference_dtype == "float32"


@pytest.mark.slow
class TestShardedService:
    def test_worker_pool_matches_in_process(self, blocks):
        config = ServiceConfig(model_name="granite", max_batch_size=5, num_workers=2)
        in_process = PredictionService(
            ServiceConfig(model_name="granite", max_batch_size=5)
        )
        expected = in_process.predict_blocks(blocks)
        with PredictionService(config) as sharded:
            served = sharded.predict_blocks(blocks)
        for task in in_process.model.tasks:
            assert_allclose_for_dtype(
                served[task], expected[task], in_process.inference_dtype
            )

    def test_float32_propagates_to_every_worker(self, blocks):
        """The whole sharded pool serves the configured precision."""
        config = ServiceConfig(
            model_name="granite",
            max_batch_size=5,
            num_workers=2,
            inference_dtype="float32",
        )
        in_process = PredictionService(
            ServiceConfig(model_name="granite", max_batch_size=5, inference_dtype="float32")
        )
        expected = in_process.predict_blocks(blocks)
        with PredictionService(config) as sharded:
            served = sharded.predict_blocks(blocks)
            worker_stats = sharded._pool.worker_stats()
        assert [stats.inference_dtype for stats in worker_stats] == ["float32"] * 2
        for task in in_process.model.tasks:
            # Same float32 math in every replica; only BLAS-kernel rounding
            # across the different batch shapes may differ.
            assert_allclose_for_dtype(served[task], expected[task], "float32")

    def test_close_is_idempotent(self):
        service = PredictionService(ServiceConfig(num_workers=1)).warm_start()
        service.close()
        service.close()
