"""``train-step``: back-to-back training steps at batch 100.

Why this workload: it is the training column of Table 10, and the only
workload where the autodiff tape, the fused backward ops and Adam run.  A
closed loop in one process calls ``Trainer.train_step`` at batch 100 on a
seeded ``build_ithemal_like_dataset``.  One operation is a *step pair*: one
step of small multi-task GRANITE, then one of small Ithemal+ (paper-scale
GRANITE takes ~7.5 s a step, too slow to repeat this often).  Graphs and
token lists are cached before timing, so the ``isa``/``graph`` front end is
small; a change to the no-grad inference path or to ``serve`` is predicted
neutral here.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List

import numpy as np

from repro.data.datasets import build_ithemal_like_dataset
from repro.models import TrainingConfig, create_model
from repro.nn.tensor import is_grad_enabled
from repro.training.trainer import Trainer

from common import (
    BATCH_BLOCKS,
    BenchmarkError,
    WorkloadResult,
    closed_loop,
    latency_summary,
    median,
    peak_rss_mb,
)
from layers import instrument_trainer
from spans import Tracer, in_scope, inclusive_times, self_times, trace_metrics

#: (scope, model family) of the two trained models.
MODELS = (("granite", "granite"), ("ithemal_plus", "ithemal+"))
DATASET_BLOCKS = 1000
WARMUP_STEPS = 3
SETUP_REPEATS = 3
#: A step pair must finish within this to count as on time (one BLAS thread).
STEP_PAIR_LIMIT_S = 2.0
#: The loss check compares the mean loss of the first and last fifth.
LOSS_WINDOW = 0.2
OPERATION = "step pair"

#: Per-layer metrics this workload measures (the rest read 0 here).
PER_LAYER = (
    "graph.pack_us_per_block",
    "training.encode_ms",
    "training.forward_ms",
    "training.backward_ms",
    "nn.optim_step_ms",
    "training.granite_step_ms",
    "training.ithemal_plus_step_ms",
)


def build_trainers(seed: int, dataset, short: bool) -> Dict[str, Trainer]:
    """Builds both models and trainers, caches every encoding, warms up."""
    blocks = dataset.blocks()
    trainers = {}
    for scope, family in MODELS:
        model = create_model(family, small=True, seed=seed)
        for start in range(0, len(blocks), BATCH_BLOCKS):
            model.encode_blocks(blocks[start:start + BATCH_BLOCKS])
        trainer = Trainer(model, TrainingConfig(batch_size=BATCH_BLOCKS, seed=seed))
        for step in range(1 if short else WARMUP_STEPS):
            trainer.train_step(dataset, step)
        trainers[scope] = trainer
    return trainers


def losses_ok(losses: List[float]) -> bool:
    """Every loss is finite and the last window's mean is below the first's."""
    if not all(math.isfinite(loss) for loss in losses):
        return False
    window = max(1, int(len(losses) * LOSS_WINDOW))
    return float(np.mean(losses[-window:])) < float(np.mean(losses[:window]))


class StepPairs:
    """The closed-loop operation: one training step of each model per call."""

    def __init__(self, trainers: Dict[str, Trainer], dataset, tracer: Tracer) -> None:
        self.trainers = trainers
        self.dataset = dataset
        self.tracer = tracer
        self.losses: Dict[str, List[float]] = {scope: [] for scope in trainers}
        self.step_seconds: Dict[str, List[float]] = {scope: [] for scope in trainers}
        self.step = WARMUP_STEPS

    def __call__(self) -> float:
        pair_start = time.perf_counter()
        for scope, trainer in self.trainers.items():
            self.tracer.scope = scope
            start = time.perf_counter()
            result = trainer.train_step(self.dataset, self.step)
            self.step_seconds[scope].append(time.perf_counter() - start)
            self.losses[scope].append(result.loss)
        duration = time.perf_counter() - pair_start
        self.step += 1
        return duration

    def failed_pairs(self) -> int:
        """Pairs with a non-finite loss; all pairs if a model did not learn."""
        if not all(losses_ok(losses) for losses in self.losses.values()):
            return self.step - WARMUP_STEPS
        return sum(
            not all(math.isfinite(self.losses[scope][index]) for scope in self.losses)
            for index in range(self.step - WARMUP_STEPS)
        )

    def properties(self, cache_before: Dict[str, int]) -> Dict[str, float]:
        model = self.trainers["granite"].model
        cache = model.encode_cache_stats
        misses = cache["graph_misses"] - cache_before["graph_misses"]
        lookups = misses + cache["graph_hits"] - cache_before["graph_hits"]
        rng = np.random.default_rng(0)
        blocks = self.dataset.blocks()
        graphs = [
            model.encode_blocks(
                [blocks[i] for i in rng.choice(len(blocks), BATCH_BLOCKS, replace=False)]
            ).graphs
            for _ in range(5)
        ]
        return {
            "workload.first_seen_share": misses / lookups,
            "workload.blocks_per_request": float(BATCH_BLOCKS),
            "workload.instr_per_block": float(np.mean([len(block) for block in blocks])),
            "workload.nodes_per_batch": float(np.mean([g.num_nodes for g in graphs])),
            "workload.edges_per_batch": float(np.mean([g.num_edges for g in graphs])),
        }


def run(seed: int, seconds: float, trace: bool, short: bool = False) -> WorkloadResult:
    dataset = build_ithemal_like_dataset(DATASET_BLOCKS, seed=seed)
    setup_times = []
    for _ in range(1 if trace or short else SETUP_REPEATS):
        start = time.perf_counter()
        trainers = build_trainers(seed, dataset, short)
        setup_times.append(time.perf_counter() - start)
    # A leaked no_grad elsewhere in the process would silently time
    # inference instead of training.
    if not is_grad_enabled():
        raise BenchmarkError("gradient recording is off before timing")
    tracer = Tracer()
    cache_before = dict(trainers["granite"].model.encode_cache_stats)
    if trace:
        return _run_traced(trainers, dataset, tracer, seconds, cache_before)
    pairs = StepPairs(trainers, dataset, tracer)
    durations = closed_loop(pairs, seconds)
    failed = pairs.failed_pairs()
    latencies_ms = [duration * 1e3 for duration in durations]
    on_time = sum(duration <= STEP_PAIR_LIMIT_S for duration in durations)
    metrics = {
        "setup_s": median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": median(latencies_ms),
        "slo_ok_ratio": max(0, on_time - failed) / len(durations),
        "throughput_blocks_per_s": BATCH_BLOCKS * (len(durations) - failed) / sum(durations),
    }
    details = {
        f"{scope}_steps_per_s": 1.0 / median(times)
        for scope, times in pairs.step_seconds.items()
    }
    details["latency"] = latency_summary(latencies_ms)
    details.update(pairs.properties(cache_before))
    return WorkloadResult(len(durations), failed, metrics, details)


def _run_traced(trainers, dataset, tracer: Tracer, seconds: float,
                cache_before: Dict[str, int]) -> WorkloadResult:
    # One loss history across both halves: the loss check needs the run.
    pairs = StepPairs(trainers, dataset, tracer)
    untraced = closed_loop(pairs, seconds / 2)
    for trainer in trainers.values():
        instrument_trainer(tracer, trainer)
    tracer.enabled = True
    traced = closed_loop(pairs, seconds / 2)
    tracer.enabled = False
    spans = tracer.spans
    ops = len(traced)
    granite = in_scope(spans, "granite")
    ithemal = in_scope(spans, "ithemal_plus")
    incl = inclusive_times(spans)
    metrics = trace_metrics(spans, untraced, traced)
    metrics.update({
        "graph.pack_us_per_block":
            self_times(granite)["graph.encode"] * 1e6 / (BATCH_BLOCKS * ops),
        "training.encode_ms":
            (incl["graph.encode"] + incl["models.encode"]) * 1e3 / ops,
        "training.forward_ms": incl["models.forward"] * 1e3 / ops,
        "training.backward_ms": self_times(spans)["training.step"] * 1e3 / ops,
        "nn.optim_step_ms": incl["nn.optim_step"] * 1e3 / ops,
        "training.granite_step_ms":
            inclusive_times(granite)["training.step"] * 1e3 / ops,
        "training.ithemal_plus_step_ms":
            inclusive_times(ithemal)["training.step"] * 1e3 / ops,
    })
    metrics.update(pairs.properties(cache_before))
    return WorkloadResult(len(untraced) + ops, pairs.failed_pairs(), metrics,
                          spans=spans, operations=ops)
