"""Tests for the training loop (repro.training.trainer)."""

import numpy as np
import pytest

from repro.models import create_model
from repro.models.config import TrainingConfig
from repro.training.trainer import Trainer, evaluate_model


@pytest.fixture(scope="module")
def splits(tiny_dataset):
    # tiny_dataset is session-scoped; splitting is deterministic.
    return tiny_dataset.paper_splits(seed=0)


class TestEvaluateModel:
    def test_metrics_for_every_task(self, tiny_dataset):
        model = create_model("granite", small=True, seed=0)
        metrics = evaluate_model(model, tiny_dataset)
        assert set(metrics) == set(model.tasks)
        for metric in metrics.values():
            assert metric.num_samples == len(tiny_dataset)
            assert np.isfinite(metric.mape)

    def test_batched_evaluation_matches_single_batch(self, tiny_dataset):
        model = create_model("granite", small=True, seed=0)
        small_batches = evaluate_model(model, tiny_dataset, batch_size=7)
        one_batch = evaluate_model(model, tiny_dataset, batch_size=1000)
        for task in model.tasks:
            assert small_batches[task].mape == pytest.approx(one_batch[task].mape, rel=1e-9)

    def test_empty_dataset_rejected(self, tiny_dataset):
        model = create_model("granite", small=True, seed=0)
        with pytest.raises(ValueError):
            evaluate_model(model, tiny_dataset.subset([])[:0] if False else tiny_dataset.subset([]))


class TestTrainer:
    def test_training_reduces_loss(self, splits):
        model = create_model("granite", small=True, seed=1)
        trainer = Trainer(model, TrainingConfig(num_steps=25, batch_size=16, validation_interval=100, seed=0))
        history = trainer.train(splits.train)
        losses = history.loss_curve()
        assert len(losses) == 25
        assert losses[-5:].mean() < losses[:5].mean()

    def test_single_step_returns_finite_loss(self, splits):
        model = create_model("ithemal+", small=True, seed=1)
        trainer = Trainer(model, TrainingConfig(batch_size=8, seed=0))
        result = trainer.train_step(splits.train, step=1)
        assert np.isfinite(result.loss)
        assert result.seconds > 0

    @pytest.mark.parametrize("name", ["granite", "ithemal+"])
    def test_training_batches_stay_out_of_the_batch_cache(self, splits, name):
        """A random training batch never repeats: caching it would only
        hold its packed arrays until later batches evict them."""
        model = create_model(name, small=True, seed=1)
        trainer = Trainer(model, TrainingConfig(batch_size=8, seed=0))
        for step in range(3):
            trainer.train_step(splits.train, step)
        stats = model.encode_cache_stats
        assert stats["batch_hits"] + stats["batch_misses"] == 0
        assert len(model.encode_caches()[1]) == 0

    def test_validation_selects_best_checkpoint(self, splits):
        model = create_model("granite", small=True, seed=2)
        trainer = Trainer(
            model,
            TrainingConfig(num_steps=20, batch_size=16, validation_interval=5, seed=0),
        )
        history = trainer.train(splits.train, splits.validation)
        assert history.best_step > 0
        assert history.best_validation_mape < float("inf")
        assert len(history.validation_mape) >= 3
        # The restored parameters correspond to the best recorded validation
        # MAPE, which must be <= the last recorded one.
        assert history.best_validation_mape <= history.validation_mape[-1][1] + 1e-12

    def test_gradient_clipping_is_applied(self, splits):
        model = create_model("granite", small=True, seed=3)
        trainer = Trainer(
            model,
            TrainingConfig(num_steps=3, batch_size=8, gradient_clip_norm=0.5, seed=0),
        )
        result = trainer.train_step(splits.train, step=1)
        assert np.isfinite(result.gradient_norm)

    def test_without_clipping_norm_is_nan(self, splits):
        model = create_model("granite", small=True, seed=3)
        trainer = Trainer(model, TrainingConfig(num_steps=3, batch_size=8, seed=0))
        result = trainer.train_step(splits.train, step=1)
        assert np.isnan(result.gradient_norm)

    def test_empty_training_set_rejected(self, splits):
        model = create_model("granite", small=True, seed=0)
        trainer = Trainer(model, TrainingConfig(num_steps=1))
        with pytest.raises(ValueError):
            trainer.train(splits.train.subset([]))

    def test_multi_task_training_updates_all_heads(self, splits):
        model = create_model("granite", small=True, seed=4)
        before = {task: decoder.mlp.layers[0].weight.data.copy()
                  for task, decoder in model.decoders.items()}
        trainer = Trainer(model, TrainingConfig(num_steps=3, batch_size=8, seed=0))
        trainer.train(splits.train)
        for task, decoder in model.decoders.items():
            assert not np.allclose(before[task], decoder.mlp.layers[0].weight.data)

    def test_unknown_loss_rejected(self, splits):
        model = create_model("granite", small=True, seed=0)
        with pytest.raises(KeyError):
            Trainer(model, TrainingConfig(loss="nll"))

    def test_history_divergence_detector(self, splits):
        model = create_model("granite", small=True, seed=5)
        trainer = Trainer(model, TrainingConfig(num_steps=5, batch_size=8, seed=0))
        history = trainer.train(splits.train)
        assert not history.diverged()
