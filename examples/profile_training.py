#!/usr/bin/env python3
"""Profile a training run: per-phase breakdown and cProfile hotspots.

Future training-performance PRs should start from data, not guesses.  This
harness runs a few training steps and reports where the time goes, split
into the four phases of a step:

* **encode**   — tokenization / graph construction + batch packing,
* **forward**  — the tape forward pass (including the loss),
* **backward** — reverse-mode gradient computation,
* **optimizer** — gradient clipping + the Adam update.

It can additionally print cProfile's hottest functions.

Run it with::

    python examples/profile_training.py [--model granite] [--steps 10]
    python examples/profile_training.py --model ithemal+ --cprofile
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import argparse
import cProfile
import pstats
import time
from typing import Dict, List

import numpy as np

from repro.data.datasets import build_ithemal_like_dataset
from repro.models import create_model
from repro.models.config import TrainingConfig
from repro.nn.optim import clip_gradients_by_global_norm
from repro.nn.tensor import Tensor
from repro.training.trainer import Trainer

PHASES = ("encode", "forward", "backward", "optimizer")


def profile_phases(trainer: Trainer, dataset, steps: int) -> Dict[str, List[float]]:
    """Runs ``steps`` training steps, timing each phase separately.

    Mirrors ``Trainer.train_step`` (same batch sampling, loss and update
    sequence) with a ``perf_counter`` between the phases.
    """
    model = trainer.model
    timings: Dict[str, List[float]] = {phase: [] for phase in PHASES}
    all_blocks, labels = trainer._batch_source(dataset)
    batch_size = min(trainer.config.batch_size, len(dataset))
    for _ in range(steps):
        indices = trainer.rng.choice(len(dataset), size=batch_size, replace=False)
        blocks = [all_blocks[index] for index in indices]

        start = time.perf_counter()
        encoded = model.encode_blocks(blocks)
        timings["encode"].append(time.perf_counter() - start)

        start = time.perf_counter()
        predictions = model.forward(encoded)
        total_loss = None
        for task in model.tasks:
            task_loss = trainer.loss_fn(predictions[task], Tensor(labels[task][indices]))
            total_loss = task_loss if total_loss is None else total_loss + task_loss
        timings["forward"].append(time.perf_counter() - start)

        start = time.perf_counter()
        model.zero_grad()
        total_loss.backward()
        timings["backward"].append(time.perf_counter() - start)

        start = time.perf_counter()
        if trainer.config.gradient_clip_norm > 0:
            clip_gradients_by_global_norm(model.parameters(), trainer.config.gradient_clip_norm)
        trainer.optimizer.step()
        timings["optimizer"].append(time.perf_counter() - start)
    return timings


def report(label: str, timings: Dict[str, List[float]]) -> None:
    """Prints the per-phase breakdown."""
    totals = {phase: float(np.sum(values)) for phase, values in timings.items()}
    steps = len(next(iter(timings.values())))
    grand_total = sum(totals.values())
    print(f"\n== {label}: {steps} steps, {steps / grand_total:.2f} steps/s ==")
    print(f"{'phase':<12} {'total s':>10} {'ms/step':>10} {'share':>8}")
    for phase in PHASES:
        seconds = totals[phase]
        print(
            f"{phase:<12} {seconds:>10.3f} {seconds / steps * 1e3:>10.2f}"
            f" {seconds / grand_total:>7.1%}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--model", default="granite",
                        choices=["granite", "ithemal", "ithemal+"])
    parser.add_argument("--steps", type=int, default=10, help="timed training steps")
    parser.add_argument("--blocks", type=int, default=160, help="dataset size")
    parser.add_argument("--batch-size", type=int, default=100,
                        help="blocks per training batch (paper: 100)")
    parser.add_argument("--cprofile", action="store_true",
                        help="additionally print cProfile's 20 hottest functions")
    parser.add_argument("--full-size-model", action="store_true",
                        help="paper-scale (Table 4) model instead of the small preset")
    args = parser.parse_args()

    print(f"Building dataset ({args.blocks} blocks) ...")
    dataset = build_ithemal_like_dataset(args.blocks, seed=5)

    model = create_model(args.model, small=not args.full_size_model, seed=31)
    trainer = Trainer(
        model, TrainingConfig(batch_size=args.batch_size, num_steps=args.steps, seed=11)
    )
    trainer.train_step(dataset, step=0)  # warm encode caches
    if args.cprofile:
        profiler = cProfile.Profile()
        profiler.enable()
    timings = profile_phases(trainer, dataset, args.steps)
    if args.cprofile:
        profiler.disable()
    report(args.model, timings)
    if args.cprofile:
        print("\n-- cProfile, hottest 20 by internal time --")
        pstats.Stats(profiler).sort_stats("tottime").print_stats(20)


if __name__ == "__main__":
    main()
