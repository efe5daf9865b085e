"""Computational-efficiency measurements (Table 10).

The paper measures the average run time per batch of 100 basic blocks for
training and inference of every model, on a GPU for training and on both GPU
and CPU for inference.  This reproduction times the same rows on a CPU-only
numpy backend, so only relative claims carry over, such as the small cost of
multi-task heads that the benchmark suite asserts.

The two columns do not use the same hardware.  ``predict`` runs a batch
with enough work (paper-scale models at batch 100) as graph-disjoint shards
on every usable core, the CPU analogue of the paper's parallel batch, while
a training step runs its batch whole, on one core when BLAS runs one
thread.  :func:`format_table10` prints how many shards may run at once
beside the table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.data.datasets import (
    TARGET_MICROARCHITECTURES,
    ThroughputDataset,
    build_bhive_like_dataset,
)
from repro.eval.harness import Arm, ExperimentHarness, ExperimentScale
from repro.models.base import ThroughputModel, inference_cores
from repro.models.config import TrainingConfig
from repro.training.trainer import Trainer

__all__ = [
    "TimingResult",
    "measure_model_timing",
    "TABLE10_ARMS",
    "table10_timings",
    "format_table10",
]


@dataclass
class TimingResult:
    """Per-batch timing of one model configuration.

    Attributes:
        model_name: "granite", "ithemal" or "ithemal+".
        tasks: The microarchitecture heads of the timed model.
        training_seconds_per_batch: Average wall-clock time of one training
            step (forward + backward + optimiser update) on a batch.
        inference_seconds_per_batch: Average wall-clock time of predicting a
            batch, on every usable core (see the module docstring).
        batch_size: Number of blocks per batch.
    """

    model_name: str
    tasks: Tuple[str, ...]
    training_seconds_per_batch: float
    inference_seconds_per_batch: float
    batch_size: int

    @property
    def training_seconds_per_task(self) -> float:
        """Training cost divided by the number of heads (the paper's
        "training cost per microarchitecture" argument)."""
        return self.training_seconds_per_batch / max(len(self.tasks), 1)


def measure_model_timing(
    model: ThroughputModel,
    dataset: ThroughputDataset,
    batch_size: int = 100,
    num_training_batches: int = 5,
    num_inference_batches: int = 10,
    seed: int = 0,
) -> TimingResult:
    """Measures average per-batch training and inference time of a model."""
    if len(dataset) < batch_size:
        batch_size = len(dataset)
    trainer = Trainer(
        model,
        TrainingConfig(batch_size=batch_size, num_steps=num_training_batches, seed=seed),
    )
    # Warm-up step excluded from the measurement (first-call overheads).
    trainer.train_step(dataset, step=0)
    training_times = []
    for step in range(num_training_batches):
        result = trainer.train_step(dataset, step=step + 1)
        training_times.append(result.seconds)

    rng = np.random.default_rng(seed)
    blocks = dataset.blocks()
    inference_times = []
    # Disable the prediction *and* encode caches for the measurement: Table
    # 10 reports the cost of actually running the model (graph construction
    # included), and the random batches drawn below repeat blocks across
    # iterations.
    with model.caches_disabled():
        model.predict(blocks[:batch_size])  # warm-up
        for _ in range(num_inference_batches):
            indices = rng.choice(len(blocks), size=batch_size, replace=False)
            batch = [blocks[int(index)] for index in indices]
            start = time.perf_counter()
            model.predict(batch)
            inference_times.append(time.perf_counter() - start)

    # Median, not mean: per-batch wall times occasionally catch a collector
    # pause or scheduler blip an order of magnitude above the true cost,
    # and a handful of samples gives the mean no chance to absorb it.
    return TimingResult(
        model_name=type(model).__name__,
        tasks=tuple(model.tasks),
        training_seconds_per_batch=float(np.median(training_times)),
        inference_seconds_per_batch=float(np.median(inference_times)),
        batch_size=batch_size,
    )


#: Table 10's rows.  Vanilla Ithemal shares Ithemal+'s encoder, which
#: dominates its run time, so it is folded into the Ithemal+ rows as in the
#: discussion of the paper's results.
TABLE10_ARMS = (
    Arm("granite_single", "granite", tasks=TARGET_MICROARCHITECTURES[:1]),
    Arm("granite_multi", "granite"),
    Arm("ithemal+_single", "ithemal+", tasks=TARGET_MICROARCHITECTURES[:1]),
    Arm("ithemal+_multi", "ithemal+"),
)


def table10_timings(
    scale: Optional[ExperimentScale] = None,
    batch_size: int = 100,
    num_blocks: int = 400,
) -> Dict[str, TimingResult]:
    """Table 10: run time per batch of every row's untrained model."""
    harness = ExperimentHarness(scale)
    dataset = build_bhive_like_dataset(num_blocks, seed=harness.scale.seed + 7)
    return {
        arm.name: measure_model_timing(
            harness.build_model(arm), dataset, batch_size=batch_size, seed=harness.scale.seed
        )
        for arm in TABLE10_ARMS
    }


def format_table10(timings: Mapping[str, TimingResult]) -> str:
    lines = [
        f"{'Configuration':<18} {'train s/batch':>14} {'infer s/batch':>14} "
        f"{'train s/batch/task':>19}"
    ]
    for name, timing in timings.items():
        lines.append(
            f"{name:<18} {timing.training_seconds_per_batch:14.4f} "
            f"{timing.inference_seconds_per_batch:14.4f} "
            f"{timing.training_seconds_per_task:19.4f}"
        )
    lines.append(
        f"(inference runs up to {inference_cores()} shards of a batch at once; "
        "training runs each batch whole)"
    )
    return "\n".join(lines)
