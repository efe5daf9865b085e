"""The experiment runner behind every table, figure and ablation.

An experiment is a tuple of named :class:`Arm` s.  :func:`run_experiment`
trains every (seed, arm) pair once and keeps its per-block test predictions
and labels, so every table and figure is a plain view of a run.

The :class:`ExperimentScale` sets the size of a run: "quick" (the benchmark
suite's) trains each model in seconds on a CPU; "full" approaches the
paper's Table 4 hyper-parameters.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import (
    DatasetSplits,
    TARGET_MICROARCHITECTURES,
    build_bhive_like_dataset,
    build_ithemal_like_dataset,
)
from repro.graph.builder import GraphBuilderConfig
from repro.models import MODEL_NAMES, create_model
from repro.models.base import ThroughputModel
from repro.models.config import TrainingConfig
from repro.training.metrics import RegressionMetrics, compute_metrics
from repro.training.trainer import Trainer, TrainingHistory

__all__ = ["ExperimentScale", "Arm", "ArmResult", "ExperimentHarness", "run_experiment"]

#: The two datasets of the paper.
DATASETS = ("ithemal", "bhive")


@dataclass(frozen=True)
class ExperimentScale:
    """Size of an experiment run.

    Attributes:
        ithemal_dataset_size: Number of blocks in the Ithemal-like dataset.
        bhive_dataset_size: Number of blocks in the BHive-like dataset
            (the paper notes BHive is ~5x smaller).
        num_training_steps: Optimisation steps per trained model.
        batch_size: Blocks per training batch (100 in the paper).
        eval_batch_size: Micro-batch size of the batched inference path used
            for every evaluation (validation and test).
        small_models: Use the reduced model configuration.
        seed: Master seed of the datasets, the model initialisation and the
            batch sampling.
    """

    ithemal_dataset_size: int = 1000
    bhive_dataset_size: int = 250
    num_training_steps: int = 200
    batch_size: int = 32
    eval_batch_size: int = 256
    small_models: bool = True
    seed: int = 0

    @staticmethod
    def quick(seed: int = 0) -> "ExperimentScale":
        """The default CPU-friendly scale used by the benchmark suite."""
        return ExperimentScale(seed=seed)

    @staticmethod
    def smoke(seed: int = 0) -> "ExperimentScale":
        """A tiny scale for unit tests of the harness itself."""
        return ExperimentScale(
            ithemal_dataset_size=80,
            bhive_dataset_size=40,
            num_training_steps=12,
            batch_size=16,
            seed=seed,
        )

    @staticmethod
    def full(seed: int = 0) -> "ExperimentScale":
        """A scale approaching the paper's setup (hours of CPU time)."""
        return ExperimentScale(
            ithemal_dataset_size=50_000,
            bhive_dataset_size=10_000,
            num_training_steps=20_000,
            batch_size=100,
            small_models=False,
            seed=seed,
        )


@dataclass(frozen=True)
class Arm:
    """One model trained one way: the unit every experiment is made of.

    Attributes:
        name: Unique name of the arm within its experiment.
        model: ``"granite"``, ``"ithemal"`` or ``"ithemal+"``.
        dataset: Training dataset, ``"ithemal"`` or ``"bhive"``.
        tasks: Microarchitecture heads (one entry trains a single-task model).
        loss: Training loss (a key of ``repro.nn.losses.LOSS_FUNCTIONS``).
        model_overrides: Fields replaced in the scale's model config.
        graph_config: GRANITE's graph construction (``None``: the default).
        training_overrides: Fields replaced in the scale's training config.
    """

    name: str
    model: str
    dataset: str = "ithemal"
    tasks: Tuple[str, ...] = TARGET_MICROARCHITECTURES
    loss: str = "mape"
    model_overrides: Mapping[str, object] = field(default_factory=dict)
    graph_config: Optional[GraphBuilderConfig] = None
    training_overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.model not in MODEL_NAMES:
            raise ValueError(f"unknown model {self.model!r}; expected one of {MODEL_NAMES}")
        if self.dataset not in DATASETS:
            raise ValueError(f"unknown dataset {self.dataset!r}; expected one of {DATASETS}")
        if self.graph_config is not None and self.model != "granite":
            raise ValueError("only GRANITE builds graphs")


@dataclass
class ArmResult:
    """What one (seed, arm) training run leaves behind.

    ``predictions[task]`` holds the per-block predictions on the test split
    of the arm's dataset, in split order, and ``labels[task]`` the measured
    throughputs.  ``model`` is the trained model, for a view that tests it on
    another split (Table 5's cross-dataset check).
    """

    arm: Arm
    model: ThroughputModel
    history: TrainingHistory
    predictions: Dict[str, np.ndarray]
    labels: Dict[str, np.ndarray]

    def predicted_and_actual(self, task: str) -> Tuple[np.ndarray, np.ndarray]:
        return self.predictions[task], self.labels[task]

    def metrics(self, task: str) -> RegressionMetrics:
        """MAPE and correlations on the test split."""
        return compute_metrics(self.predictions[task], self.labels[task])

    def mape(self, task: str) -> float:
        return self.metrics(task).mape

    def average_mape(self) -> float:
        """MAPE averaged over the arm's tasks."""
        return float(np.mean([self.mape(task) for task in self.arm.tasks]))


class ExperimentHarness:
    """Builds datasets and trains arms at a given :class:`ExperimentScale`."""

    def __init__(self, scale: Optional[ExperimentScale] = None) -> None:
        self.scale = scale or ExperimentScale.quick()
        self._splits: Dict[str, DatasetSplits] = {}

    def splits(self, dataset: str) -> DatasetSplits:
        """Train/validation/test splits of ``"ithemal"`` or ``"bhive"`` (cached)."""
        scale = self.scale
        if dataset not in self._splits:
            if dataset == "ithemal":
                built = build_ithemal_like_dataset(scale.ithemal_dataset_size, seed=scale.seed)
            else:
                built = build_bhive_like_dataset(scale.bhive_dataset_size, seed=scale.seed + 1000)
            self._splits[dataset] = built.paper_splits(seed=scale.seed)
        return self._splits[dataset]

    def build_model(self, arm: Arm) -> ThroughputModel:
        """The untrained model of ``arm`` at this scale."""
        return create_model(
            arm.model,
            arm.tasks,
            small=self.scale.small_models,
            seed=self.scale.seed,
            graph_config=arm.graph_config,
            **arm.model_overrides,
        )

    def training_config(self, loss: str = "mape", **overrides) -> TrainingConfig:
        """Returns the training configuration for this scale."""
        config = TrainingConfig(
            learning_rate=1e-3,
            batch_size=self.scale.batch_size,
            num_steps=self.scale.num_training_steps,
            loss=loss,
            validation_interval=max(10, self.scale.num_training_steps // 4),
            seed=self.scale.seed,
        )
        return replace(config, **overrides) if overrides else config

    def train(self, arm: Arm) -> ArmResult:
        """Trains ``arm`` and predicts the test split of its dataset."""
        model = self.build_model(arm)
        splits = self.splits(arm.dataset)
        trainer = Trainer(model, self.training_config(arm.loss, **arm.training_overrides))
        history = trainer.train(splits.train, splits.validation)
        predicted = model.predict(splits.test.blocks(), batch_size=self.scale.eval_batch_size)
        predictions = {task: predicted[task] for task in arm.tasks}
        labels = {task: splits.test.throughputs(task) for task in arm.tasks}
        return ArmResult(arm, model, history, predictions, labels)


def run_experiment(
    arms: Sequence[Arm],
    scale: Optional[ExperimentScale] = None,
    seeds: Optional[Iterable[int]] = None,
) -> Dict[int, Dict[str, ArmResult]]:
    """Trains every arm once per seed.

    Each seed replaces ``scale.seed`` (default: ``(scale.seed,)``), so it
    draws the datasets, the initialisation and the batches.  Returns
    ``results[seed][arm.name]``; arm names must be unique.
    """
    scale = scale or ExperimentScale.quick()
    names = [arm.name for arm in arms]
    if len(set(names)) != len(names):
        raise ValueError(f"arm names must be unique: {names}")
    results: Dict[int, Dict[str, ArmResult]] = {}
    for seed in (scale.seed,) if seeds is None else seeds:
        harness = ExperimentHarness(replace(scale, seed=seed))
        results[seed] = {arm.name: harness.train(arm) for arm in arms}
    return results
