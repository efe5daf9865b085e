"""Training loop for throughput models.

The trainer reproduces the protocol described in Section 4 of the paper:

* batches of basic blocks (100 per batch in the paper),
* the MAPE loss by default (Table 9 sweeps alternatives),
* Adam with learning rate 1e-3,
* for multi-task models, the losses of all tasks are summed and the weights
  of all heads are updated for every block at the same time (Section 5.3),
* a validation split is evaluated periodically and the best checkpoint (by
  validation MAPE averaged over tasks) is restored at the end of training,
  mirroring "We use the validation split to select the best checkpoint
  during training".
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.datasets import ThroughputDataset
from repro.isa.basic_block import BasicBlock
from repro.models.base import ThroughputModel
from repro.models.config import TrainingConfig
from repro.nn.losses import get_loss
from repro.nn.optim import Adam, clip_gradients_by_global_norm
from repro.nn.tensor import Tensor
from repro.training.metrics import RegressionMetrics, compute_metrics

__all__ = ["StepResult", "TrainingHistory", "Trainer", "evaluate_model"]


@dataclass(frozen=True)
class StepResult:
    """Loss information of one training step."""

    step: int
    loss: float
    gradient_norm: float
    seconds: float


@dataclass
class TrainingHistory:
    """Everything recorded during one training run."""

    steps: List[StepResult] = field(default_factory=list)
    validation_mape: List[Tuple[int, float]] = field(default_factory=list)
    best_step: int = -1
    best_validation_mape: float = float("inf")
    total_seconds: float = 0.0

    @property
    def final_loss(self) -> float:
        return self.steps[-1].loss if self.steps else float("nan")

    @property
    def steps_per_second(self) -> float:
        """Mean optimisation throughput over the recorded steps.

        Computed from the per-step wall times, so validation evaluations
        (which run between steps) do not dilute it.
        """
        seconds = sum(record.seconds for record in self.steps)
        if seconds <= 0.0:
            return 0.0
        return len(self.steps) / seconds

    def loss_curve(self) -> np.ndarray:
        """Returns the training loss at every step as an array."""
        return np.array([record.loss for record in self.steps], dtype=np.float64)

    def diverged(self, threshold: float = 1e6) -> bool:
        """True when the loss became non-finite or exploded."""
        losses = self.loss_curve()
        return bool(losses.size and (not np.all(np.isfinite(losses)) or losses[-1] > threshold))


def evaluate_model(
    model: ThroughputModel,
    dataset: ThroughputDataset,
    tasks: Optional[Sequence[str]] = None,
    batch_size: int = 256,
) -> Dict[str, RegressionMetrics]:
    """Evaluates a model on a dataset, per task.

    Args:
        model: The trained model.
        dataset: Dataset providing blocks and labels.
        tasks: Tasks to evaluate (defaults to the model's tasks).
        batch_size: Evaluation batch size (does not affect results).

    Returns:
        Mapping from task key to its :class:`RegressionMetrics`.
    """
    tasks = tuple(tasks if tasks is not None else model.tasks)
    if len(dataset) == 0:
        raise ValueError("cannot evaluate on an empty dataset")
    # The batched fast-path API micro-batches internally; repeated
    # evaluations of the same dataset (the validation loop) additionally hit
    # the model's encode caches.
    predictions = model.predict(dataset.blocks(), batch_size=batch_size)
    results: Dict[str, RegressionMetrics] = {}
    for task in tasks:
        actual = dataset.throughputs(task)
        results[task] = compute_metrics(predictions[task], actual)
    return results


class Trainer:
    """Trains a :class:`ThroughputModel` on a :class:`ThroughputDataset`."""

    def __init__(
        self,
        model: ThroughputModel,
        config: Optional[TrainingConfig] = None,
    ) -> None:
        self.model = model
        self.config = config or TrainingConfig()
        self.loss_fn = get_loss(self.config.loss)
        self.optimizer = Adam(model.parameters(), learning_rate=self.config.learning_rate)
        self.rng = np.random.default_rng(self.config.seed)
        # Per-dataset batch sources: the block list and one float64 label
        # array per task, extracted once so each step samples with a single
        # rng.choice + array indexing instead of touching Python sample
        # objects.  Keyed by id() with the dataset pinned in the value, so
        # a recycled id cannot alias a different dataset.  Bounded (FIFO)
        # so a long-lived trainer cycling through many datasets (rotating
        # subsets, cross-validation folds) cannot accumulate entries — and
        # pinned datasets — without limit.
        self._batch_sources: Dict[
            int, Tuple[ThroughputDataset, List[BasicBlock], Dict[str, np.ndarray]]
        ] = {}
        self._batch_sources_capacity = 4

    def _batch_source(
        self, dataset: ThroughputDataset
    ) -> Tuple[List[BasicBlock], Dict[str, np.ndarray]]:
        """Returns (blocks, per-task labels) of ``dataset``, cached.

        Samples without a label for a task (possible in CSV-imported
        datasets) hold ``NaN`` in that task's array; drawing one raises the
        same ``KeyError`` the per-sample path raised, while never-drawn
        unlabeled samples stay harmless as before.
        """
        entry = self._batch_sources.get(id(dataset))
        if entry is None or entry[0] is not dataset:
            labels = {}
            for task in self.model.tasks:
                key = task.lower().replace(" ", "_")
                labels[task] = np.array(
                    [sample.throughputs.get(key, np.nan) for sample in dataset.samples],
                    dtype=np.float64,
                )
            entry = (dataset, dataset.blocks(), labels)
            while len(self._batch_sources) >= self._batch_sources_capacity:
                self._batch_sources.pop(next(iter(self._batch_sources)))
            self._batch_sources[id(dataset)] = entry
        return entry[1], entry[2]

    # ------------------------------------------------------------------ #
    # Single training step.
    # ------------------------------------------------------------------ #
    def train_step(self, dataset: ThroughputDataset, step: int) -> StepResult:
        """Runs one optimisation step on a random batch from ``dataset``."""
        start_time = time.perf_counter()
        all_blocks, labels = self._batch_source(dataset)
        batch_size = min(self.config.batch_size, len(dataset))
        indices = self.rng.choice(len(dataset), size=batch_size, replace=False)
        blocks = [all_blocks[index] for index in indices]

        encoded = self.model.encode_blocks(blocks, cache_batch=False)
        predictions = self.model.forward(encoded)

        total_loss: Optional[Tensor] = None
        for task in self.model.tasks:
            values = labels[task][indices]
            missing = np.isnan(values)
            if missing.any():
                # Same error (and semantics) as the per-sample path: only a
                # *drawn* unlabeled sample is an error.
                dataset[int(indices[int(missing.argmax())])].throughput(task)
            actual = Tensor(values)
            task_loss = self.loss_fn(predictions[task], actual)
            total_loss = task_loss if total_loss is None else total_loss + task_loss

        self.model.zero_grad()
        total_loss.backward()
        if self.config.gradient_clip_norm > 0:
            gradient_norm = clip_gradients_by_global_norm(
                self.model.parameters(), self.config.gradient_clip_norm
            )
        else:
            gradient_norm = float("nan")
        self.optimizer.step()
        elapsed = time.perf_counter() - start_time
        return StepResult(
            step=step,
            loss=float(total_loss.item()) / max(len(self.model.tasks), 1),
            gradient_norm=gradient_norm,
            seconds=elapsed,
        )

    # ------------------------------------------------------------------ #
    # Full training loop.
    # ------------------------------------------------------------------ #
    def train(
        self,
        train_dataset: ThroughputDataset,
        validation_dataset: Optional[ThroughputDataset] = None,
        num_steps: Optional[int] = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Trains for ``num_steps`` steps and restores the best checkpoint.

        Args:
            train_dataset: Training samples.
            validation_dataset: Optional validation samples used to select
                the best checkpoint (paper protocol).  When omitted, the
                final parameters are kept.
            num_steps: Overrides ``config.num_steps`` when given.
            verbose: Print progress lines.

        Returns:
            The :class:`TrainingHistory` of the run.
        """
        if len(train_dataset) == 0:
            raise ValueError("cannot train on an empty dataset")
        steps = num_steps if num_steps is not None else self.config.num_steps
        history = TrainingHistory()
        best_state: Optional[Dict[str, np.ndarray]] = None
        start_time = time.perf_counter()

        for step in range(1, steps + 1):
            result = self.train_step(train_dataset, step)
            history.steps.append(result)
            if verbose and (step % max(1, steps // 10) == 0 or step == 1):
                print(f"step {step:5d}  loss {result.loss:.4f}  ({result.seconds * 1000:.1f} ms)")

            should_validate = (
                validation_dataset is not None
                and len(validation_dataset) > 0
                and (step % self.config.validation_interval == 0 or step == steps)
            )
            if should_validate:
                metrics = evaluate_model(self.model, validation_dataset)
                mean_mape = float(np.mean([metric.mape for metric in metrics.values()]))
                history.validation_mape.append((step, mean_mape))
                if mean_mape < history.best_validation_mape:
                    history.best_validation_mape = mean_mape
                    history.best_step = step
                    best_state = self.model.state_dict()

        if best_state is not None:
            self.model.load_state_dict(best_state)
        history.total_seconds = time.perf_counter() - start_time
        return history
