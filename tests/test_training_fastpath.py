"""Tests for the vectorized training path.

The flat-slab Adam update is element-for-element the per-parameter loop,
the trainer's batch sources behave like per-sample lookups, and a train
step records a full tape while other threads predict.  Same-seed loss
trajectories are pinned by ``tests/equivalence/test_training_golden.py``.
"""

import sys
import threading

import numpy as np
import pytest

from repro.data.datasets import LabeledBlock, ThroughputDataset
from repro.models import create_model
from repro.models.config import TrainingConfig
from repro.nn.layers import Dense
from repro.nn.module import Parameter
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor, is_grad_enabled
from repro.training.trainer import Trainer


@pytest.fixture(scope="module")
def train_split(tiny_dataset):
    return tiny_dataset.paper_splits(seed=0).train


class TestTraining:
    def test_history_records_throughput(self, train_split):
        model = create_model("ithemal", small=True, seed=13)
        trainer = Trainer(model, TrainingConfig(batch_size=8, num_steps=2, seed=3))
        history = trainer.train(train_split)
        assert history.steps_per_second > 0.0

    def test_train_step_while_threads_predict(self, train_split):
        """Training and serving share a process: four threads predict (each
        inside its own ``no_grad``) while this thread takes a train step,
        which must still record a full tape."""
        blocks = train_split.blocks()[:8]
        serving_models = [create_model("ithemal+", small=True, seed=seed) for seed in range(4)]
        model = create_model("granite", small=True, seed=13)
        trainer = Trainer(model, TrainingConfig(batch_size=12, num_steps=1, seed=3))
        losses = []
        loss_fn = trainer.loss_fn

        def recording_loss(predictions, actual):
            loss = loss_fn(predictions, actual)
            losses.append(loss)
            return loss

        trainer.loss_fn = recording_loss
        started = [threading.Event() for _ in serving_models]
        stop = threading.Event()
        errors = []

        def predict_loop(serving, ready):
            serving.prediction_cache_size = 0
            try:
                while True:
                    serving.predict(blocks)
                    ready.set()
                    if stop.is_set():
                        return
            except Exception as error:  # surfaced by the assertion below
                errors.append(error)
                ready.set()

        threads = [
            threading.Thread(target=predict_loop, args=(serving, ready))
            for serving, ready in zip(serving_models, started)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for ready in started:
                assert ready.wait(timeout=30.0)
            trainer.train_step(train_split, step=1)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert losses
        assert all(isinstance(loss, Tensor) and loss.requires_grad for loss in losses)
        for parameter in model.parameters():
            assert parameter.grad is not None
        assert is_grad_enabled()

    def test_partially_labelled_sample_errors_only_when_drawn(self, tiny_dataset):
        # CSV-imported datasets may lack labels for some samples; the
        # precomputed label arrays must preserve the per-sample semantics:
        # an unlabeled sample is only an error once it is actually drawn.
        samples = [
            LabeledBlock(block=sample.block, throughputs=dict(sample.throughputs))
            for sample in tiny_dataset.samples[:6]
        ]
        task = "haswell"
        del samples[0].throughputs[task]
        dataset = ThroughputDataset(samples, microarchitectures=(task,))
        model = create_model("ithemal", small=True, seed=13, tasks=[task])
        trainer = Trainer(model, TrainingConfig(batch_size=6, num_steps=1, seed=3))
        with pytest.raises(KeyError, match=task):
            trainer.train_step(dataset, step=1)
        # A batch that avoids the unlabeled sample trains fine.
        labelled = ThroughputDataset(samples[1:], microarchitectures=(task,))
        result = trainer.train_step(labelled, step=1)
        assert np.isfinite(result.loss)

    def test_batch_source_cache_is_per_dataset(self, tiny_dataset):
        splits = tiny_dataset.paper_splits(seed=0)
        model = create_model("ithemal", small=True, seed=13)
        trainer = Trainer(model, TrainingConfig(batch_size=4, num_steps=1, seed=3))
        trainer.train_step(splits.train, step=1)
        trainer.train_step(splits.validation, step=2)
        blocks, labels = trainer._batch_source(splits.train)
        assert len(blocks) == len(splits.train)
        for task in model.tasks:
            np.testing.assert_array_equal(labels[task], splits.train.throughputs(task))

    def test_batch_source_cache_is_bounded(self, tiny_dataset):
        model = create_model("ithemal", small=True, seed=13)
        trainer = Trainer(model, TrainingConfig(batch_size=2, num_steps=1, seed=3))
        subsets = [tiny_dataset.subset(range(start, start + 4)) for start in range(8)]
        for subset in subsets:
            trainer._batch_source(subset)
        assert len(trainer._batch_sources) <= trainer._batch_sources_capacity


class TestFlatAdamEquivalence:
    def _make_pair(self, rng):
        layer_a = Dense(3, 2, rng)
        state = layer_a.state_dict()
        layer_b = Dense(3, 2, np.random.default_rng(0))
        layer_b.load_state_dict(state)
        return layer_a, layer_b

    def test_flat_update_is_bit_identical_to_loop(self, rng):
        layer_flat, layer_loop = self._make_pair(rng)
        adam_flat = Adam(layer_flat.parameters(), learning_rate=0.05)
        # A parameter that never receives a gradient sends every step of
        # this optimizer through the per-parameter loop.
        idle = Parameter(np.zeros((3,), dtype=np.float64))
        adam_loop = Adam(layer_loop.parameters() + [idle], learning_rate=0.05)
        inputs = rng.normal(size=(16, 3))
        targets = rng.normal(size=(16, 2))
        for _ in range(5):
            for layer, adam in ((layer_flat, adam_flat), (layer_loop, adam_loop)):
                layer.zero_grad()
                difference = layer(Tensor(inputs)) - Tensor(targets)
                (difference * difference).mean().backward()
                adam.step()
        assert idle.grad is None
        np.testing.assert_array_equal(idle.data, 0.0)
        np.testing.assert_array_equal(layer_flat.weight.data, layer_loop.weight.data)
        np.testing.assert_array_equal(layer_flat.bias.data, layer_loop.bias.data)

    def test_flat_path_skipped_when_a_gradient_is_missing(self, rng):
        used = Dense(2, 2, rng)
        unused = Dense(2, 2, rng)
        adam = Adam(used.parameters() + unused.parameters(), learning_rate=0.1)
        before = unused.weight.data.copy()
        used.zero_grad()
        outputs = used(Tensor(rng.normal(size=(4, 2))))
        (outputs * outputs).sum().backward()
        adam.step()
        # Parameters without gradients are untouched — and their moments did
        # not decay, which the flat path cannot express.
        np.testing.assert_array_equal(unused.weight.data, before)
        assert not np.any(used.weight.grad is None)

    def test_moment_views_share_flat_slabs(self, rng):
        layer = Dense(2, 3, rng)
        adam = Adam(layer.parameters())
        total = sum(parameter.size for parameter in adam.parameters)
        assert adam._flat_first.shape == (total,)
        for view in adam._first_moment:
            assert view.base is adam._flat_first
