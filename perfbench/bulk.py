"""``bulk-cold``: an offline evaluation sweep over never-seen blocks.

Why this workload: it is the inference column of Table 10.  A closed loop in
one process scores batches of 100 block texts that no model has seen, so
every cache misses and ``serve`` is bypassed.  One operation is a *sweep*:
parse the 100 texts, then score them with paper-scale (Table 4) multi-task
GRANITE in float64, the same model in float32, and paper-scale Ithemal+ in
float64, each through ``model.predict(..., batch_size=100)``.  About 94% of
the time is ``nn`` Dense/LayerNorm, ``gnn`` gather/concatenate and
``nn.lstm``; parse, graph build and pack are the rest.  A layer change in the
no-grad model path shows here; a ``serve`` change is predicted neutral.

Every batch holds exactly ``BATCH_INSTRUCTIONS`` instructions, so graph sizes
(and so run time) vary little from seed to seed while the block mix still
comes from the seeded generator.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.data.synthetic import BlockGenerator
from repro.isa.basic_block import BasicBlock
from repro.models import create_model
from repro.nn.tensor import use_fast_path

from common import (
    BATCH_BLOCKS,
    WorkloadResult,
    closed_loop,
    instruction_count,
    latency_summary,
    median,
    peak_rss_mb,
    relative_error,
)
from layers import instrument_model
from spans import Tracer, in_scope, inclusive_times, self_times, trace_metrics

#: (scope, model family, inference dtype, relative tolerance against the
#: tape path).  5e-3 is the float32 equivalence budget of the program's
#: float32 inference path; float64 must agree to rounding.
MODELS = (
    ("granite_f64", "granite", "float64", 1e-9),
    ("granite_f32", "granite", "float32", 5e-3),
    ("ithemal_plus", "ithemal+", "float64", 1e-9),
)
#: Mean block length of the generator is 8 instructions.
BATCH_INSTRUCTIONS = 8 * BATCH_BLOCKS
#: A sweep must finish within this to count as on time (one BLAS thread).
SWEEP_LIMIT_S = 15.0
SETUP_REPEATS = 5
WARMUP_BLOCKS = 10
OPERATION = "sweep"

#: Per-layer metrics this workload measures (the rest read 0 here).
PER_LAYER = (
    "isa.parse_us_per_instr",
    "graph.build_us_per_instr",
    "graph.pack_us_per_block",
    "gnn.edge_block_ms",
    "gnn.node_block_ms",
    "gnn.global_block_ms",
    "gnn.glue_self_ms",
    "nn.dense_self_ms",
    "nn.layer_norm_self_ms",
    "nn.dense_gflop",
    "nn.lstm_ms",
    "models.embed_ms",
    "models.decoder_ms",
    "models.granite_f64_batch_ms",
    "models.granite_f32_batch_ms",
    "models.ithemal_plus_batch_ms",
)


class FreshBlocks:
    """Seeded source of block texts that were never drawn before."""

    def __init__(self, seed: int) -> None:
        self.generator = BlockGenerator(seed=seed)
        self.rng = np.random.default_rng(seed)
        self.seen: set = set()

    def draw(self) -> str:
        while True:
            text = self.generator.generate_block().render()
            if text not in self.seen:
                self.seen.add(text)
                return text

    def batch(self, size: int, instructions: int) -> List[str]:
        """``size`` fresh texts holding exactly ``instructions`` instructions.

        Starts from ``size`` random draws and swaps members for fresh draws
        while that brings the total closer to the target.
        """
        texts = [self.draw() for _ in range(size)]
        lengths = [instruction_count(text) for text in texts]
        excess = sum(lengths) - instructions
        while excess:
            candidate = self.draw()
            length = instruction_count(candidate)
            index = min(range(size), key=lambda i: abs(excess - lengths[i] + length))
            if abs(excess - lengths[index] + length) < abs(excess):
                excess -= lengths[index] - length
                texts[index], lengths[index] = candidate, length
        return texts


def build_models(short: bool, blocks: FreshBlocks) -> Dict[str, object]:
    """Builds the three models and runs one small warm-up batch through each."""
    warmup = [BasicBlock.from_text(blocks.draw()) for _ in range(WARMUP_BLOCKS)]
    models = {}
    for scope, family, dtype, _ in MODELS:
        model = create_model(family, small=short, inference_dtype=dtype)
        model.predict(warmup, batch_size=BATCH_BLOCKS)
        models[scope] = model
    return models


def tape_mismatches(model, blocks: List[BasicBlock],
                    predictions: Dict[str, np.ndarray], tolerance: float) -> int:
    """How many ``blocks`` disagree with the tape path beyond ``tolerance``."""
    with use_fast_path(False), model.caches_disabled():
        reference = model.predict(blocks)
    wrong = 0
    for index in range(len(blocks)):
        if any(
            not np.isfinite(predictions[task][index])
            or relative_error(predictions[task][index], reference[task][index])
            > tolerance
            for task in model.tasks
        ):
            wrong += 1
    return wrong


class Sweeps:
    """The closed-loop operation: one sweep per call, with its checks."""

    def __init__(self, models: Dict[str, object], blocks: FreshBlocks,
                 tracer: Tracer) -> None:
        self.models = models
        self.blocks = blocks
        self.tracer = tracer
        self.next_texts = blocks.batch(BATCH_BLOCKS, BATCH_INSTRUCTIONS)
        self.model_seconds: Dict[str, List[float]] = {scope: [] for scope in models}
        #: One (blocks, {scope: predictions}) sample per sweep for the check.
        self.samples: List[tuple] = []
        self.batches: List[List[BasicBlock]] = []

    def __call__(self) -> float:
        texts = self.next_texts
        tracer = self.tracer
        tracer.scope = "bench"
        sweep_start = time.perf_counter()
        with tracer.span("bench.op"):
            with tracer.span("isa.parse"):
                blocks = [BasicBlock.from_text(text) for text in texts]
            outputs = {}
            for scope, model in self.models.items():
                tracer.scope = scope
                start = time.perf_counter()
                outputs[scope] = model.predict(blocks, batch_size=BATCH_BLOCKS)
                self.model_seconds[scope].append(time.perf_counter() - start)
            tracer.scope = "bench"
        duration = time.perf_counter() - sweep_start
        pick = int(self.blocks.rng.integers(len(blocks)))
        self.samples.append((
            [blocks[pick]],
            {scope: {task: values[pick:pick + 1] for task, values in out.items()}
             for scope, out in outputs.items()},
        ))
        self.batches.append(blocks)
        self.next_texts = self.blocks.batch(BATCH_BLOCKS, BATCH_INSTRUCTIONS)
        return duration

    def failed_sweeps(self) -> List[bool]:
        """Per sweep: does its sampled block disagree with the tape path?"""
        tolerance = {scope: tol for scope, _, _, tol in MODELS}
        return [
            any(
                tape_mismatches(self.models[scope], blocks, predictions,
                                tolerance[scope])
                for scope, predictions in by_scope.items()
            )
            for blocks, by_scope in self.samples
        ]

    def properties(self) -> Dict[str, float]:
        model = self.models["granite_f64"]
        encoded = [model.encode_blocks(batch).graphs for batch in self.batches]
        stats = model.prediction_cache_stats
        blocks = sum(len(batch) for batch in self.batches)
        return {
            "workload.first_seen_share": stats["misses"] / (stats["hits"] + stats["misses"]),
            "workload.blocks_per_request": blocks / len(self.batches),
            "workload.instr_per_block": sum(
                len(block) for batch in self.batches for block in batch
            ) / blocks,
            "workload.nodes_per_batch": float(np.mean([g.num_nodes for g in encoded])),
            "workload.edges_per_batch": float(np.mean([g.num_edges for g in encoded])),
        }


def warm_up(models, blocks: FreshBlocks, tracer: Tracer) -> None:
    """One untimed full-size sweep: the first large batch of a process pays
    for memory the later ones reuse."""
    Sweeps(models, blocks, tracer)()


def _setup(short: bool, blocks: FreshBlocks, repeats: int) -> tuple:
    times = []
    models = None
    for _ in range(repeats):
        start = time.perf_counter()
        models = build_models(short, blocks)
        times.append(time.perf_counter() - start)
    return models, median(times)


def run(seed: int, seconds: float, trace: bool, short: bool = False) -> WorkloadResult:
    blocks = FreshBlocks(seed)
    tracer = Tracer()
    models, setup_s = _setup(short, blocks, 1 if trace else SETUP_REPEATS)
    if trace:
        return _run_traced(models, blocks, tracer, seconds)
    warm_up(models, blocks, tracer)
    sweeps = Sweeps(models, blocks, tracer)
    durations = closed_loop(sweeps, seconds)
    failed = sweeps.failed_sweeps()
    ok = [not bad and duration <= SWEEP_LIMIT_S for bad, duration in zip(failed, durations)]
    latencies_ms = [duration * 1e3 for duration in durations]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": median(latencies_ms),
        "slo_ok_ratio": sum(ok) / len(ok),
        "throughput_blocks_per_s": BATCH_BLOCKS * sum(ok) / sum(durations),
    }
    details = {
        f"{scope}_blocks_per_s": BATCH_BLOCKS / median(times)
        for scope, times in sweeps.model_seconds.items()
    }
    details["latency"] = latency_summary(latencies_ms)
    details.update(sweeps.properties())
    return WorkloadResult(len(durations), sum(failed), metrics, details)


def _run_traced(models, blocks: FreshBlocks, tracer: Tracer,
                seconds: float) -> WorkloadResult:
    warm_up(models, blocks, tracer)
    sweeps = Sweeps(models, blocks, tracer)
    untraced = closed_loop(sweeps, seconds / 2)
    for model in models.values():
        instrument_model(tracer, model)
    tracer.enabled = True
    traced = closed_loop(sweeps, seconds / 2)
    tracer.enabled = False
    failed = sweeps.failed_sweeps()
    spans = tracer.spans
    batches = len(traced)
    instructions = BATCH_INSTRUCTIONS * batches
    iterations = models["granite_f64"].config.num_message_passing_iterations

    granite = in_scope(spans, "granite_f64")
    g_self = self_times(granite)
    g_incl = inclusive_times(granite)
    metrics = trace_metrics(spans, untraced, traced)
    metrics.update({
        "isa.parse_us_per_instr":
            inclusive_times(in_scope(spans, "bench"))["isa.parse"] * 1e6 / instructions,
        "graph.build_us_per_instr": g_incl["graph.build"] * 1e6 / instructions,
        "graph.pack_us_per_block":
            g_self["graph.encode"] * 1e6 / (BATCH_BLOCKS * batches),
        "gnn.edge_block_ms": g_incl["gnn.edge_block"] * 1e3 / batches / iterations,
        "gnn.node_block_ms": g_incl["gnn.node_block"] * 1e3 / batches / iterations,
        "gnn.global_block_ms": g_incl["gnn.global_block"] * 1e3 / batches / iterations,
        "gnn.glue_self_ms": sum(
            seconds for name, seconds in g_self.items() if name.startswith("gnn.")
        ) * 1e3 / batches,
        "nn.dense_self_ms": g_self["nn.dense"] * 1e3 / batches,
        "nn.layer_norm_self_ms": g_self["nn.layer_norm"] * 1e3 / batches,
        "nn.dense_gflop": tracer.counters[("granite_f64", "nn.dense_flop")] / 1e9 / batches,
        "nn.lstm_ms":
            inclusive_times(in_scope(spans, "ithemal_plus"))["nn.lstm"] * 1e3 / batches,
        "models.embed_ms": g_incl["models.embed"] * 1e3 / batches,
        "models.decoder_ms": g_incl["models.decoder"] * 1e3 / batches,
    })
    for scope in models:
        metrics[f"models.{scope}_batch_ms"] = (
            inclusive_times(in_scope(spans, scope))["models.predict"] * 1e3 / batches
        )
    metrics.update(sweeps.properties())
    return WorkloadResult(
        len(untraced) + len(traced), sum(failed), metrics,
        spans=spans, operations=batches,
    )
