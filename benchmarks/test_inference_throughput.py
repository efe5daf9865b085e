"""Inference throughput: seed path vs. fast path vs. batched vs. cached.

The PR this benchmark guards replaced tape-Tensor inference with a no-grad
numpy fast path, added micro-batched prediction with encode caches, and a
weights-versioned prediction cache.  The scenarios measured here:

* **seed** — the pre-PR behaviour, reconstructed faithfully: one
  ``predict`` call per block, tape :class:`Tensor` wrappers
  (``use_fast_path(False)``), no caches.  This is the baseline every
  speedup is quoted against.
* **single (cold)** — per-block calls on the fast path, all caches cold:
  the first time a block is ever seen.
* **batched (cold)** — 64-block micro-batches on the fast path, prediction
  cache disabled: new blocks arriving in bulk.
* **single/batched (steady state)** — the workload that motivates the PR
  (compiler-autotuning loops and eval sweeps predict the same blocks over
  and over): warm encode caches and a warm prediction cache.

Wall-clock measurements use best-of-N to be robust against CI noise.

Scale: by default the seed-vs-fast-path scenarios use the reduced "small"
model configs (fast enough for a smoke run) with loose speedup margins.
Setting ``REPRO_BENCH_STEPS`` to a paper-ish budget (>= 1000) switches
them to the paper-scale (Table 4) configurations, where the numpy kernels
dominate and the margins tighten — the float64-vs-float32 comparison
always runs at paper scale, as before.
"""

import os
import time

import numpy as np
import pytest

from repro.data.datasets import build_ithemal_like_dataset
from repro.data.synthetic import BlockGenerator
from repro.models import create_model
from repro.nn.tensor import use_fast_path
from repro.testing.equivalence import assert_prediction_equivalent

NUM_BLOCKS = 64
BATCH_SIZE = 64

#: Minimum speedup of the float32 batched fast path over float64 on the
#: steady-state serving workload (warm encode caches, compute every call).
FLOAT32_SPEEDUP_TARGET = 1.5


def _paper_scale() -> bool:
    """Whether this run asked for a paper-scale benchmark budget."""
    return int(os.environ.get("REPRO_BENCH_STEPS", "0") or 0) >= 1000


def _speedup_targets():
    """``(cold_batched, warm_single, warm_batched)`` speedup floors.

    Quick scale runs the reduced models, where fixed per-call overhead
    (parsing, packing, cache keys) dilutes the kernel win — the floors stay
    loose so the smoke run never flakes.  At paper scale the matmuls
    dominate: the steady-state paths are answered from the prediction
    cache while the seed path pays a full 256-wide forward, so the floors
    tighten substantially.
    """
    if _paper_scale():
        return 1.5, 10.0, 40.0
    return 1.5, 5.0, 20.0


def _measure(function, repeats: int = 3) -> float:
    """Returns the best-of-``repeats`` wall time of ``function()``."""
    function()  # warm-up run, excluded
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        best = min(best, time.perf_counter() - start)
    return best


def _seed_replica(model, name: str, small: bool):
    """A cache-free replica of ``model`` matching the pre-PR code path."""
    replica = create_model(name, small=small, seed=99)
    replica.load_state_dict(model.state_dict())
    replica.prediction_cache_size = 0
    # Zero-capacity encode caches: every call re-encodes, like the seed.
    for cache in replica.encode_caches():
        cache.maxsize = 0
    replica.clear_encode_cache()
    return replica


@pytest.fixture(scope="module")
def blocks():
    return BlockGenerator(seed=17).generate_blocks(NUM_BLOCKS)


@pytest.mark.parametrize("name", ["granite", "ithemal+"])
def test_inference_throughput(name, blocks):
    """Records blocks/sec per scenario and checks the PR's speedup targets."""
    small = not _paper_scale()
    model = create_model(name, small=small, seed=99)
    seed_model = _seed_replica(model, name, small)

    def seed_per_block():
        with use_fast_path(False):
            for block in blocks:
                seed_model.predict([block])

    seconds_seed = _measure(seed_per_block) / NUM_BLOCKS

    # Fast path, everything cold (measured once; caches filled as a side
    # effect are cleared again before the timed run inside _measure's loop).
    model.prediction_cache_size = 0

    def single_all_cold():
        model.clear_encode_cache()
        for block in blocks:
            model.predict([block])

    seconds_single_cold = _measure(single_all_cold) / NUM_BLOCKS

    def batched_cold():
        model.clear_encode_cache()
        model.predict(blocks, batch_size=BATCH_SIZE)

    seconds_batched_cold = _measure(batched_cold) / NUM_BLOCKS

    # Steady state: warm encode caches + warm prediction cache (the repeated
    # eval-sweep / autotuning workload this serving stack was built for).
    model.prediction_cache_size = 8192
    model.predict(blocks, batch_size=BATCH_SIZE)  # fill every cache

    def single_steady_state():
        for block in blocks:
            model.predict([block])

    seconds_single_warm = _measure(single_steady_state, repeats=5) / NUM_BLOCKS

    def batched_steady_state():
        model.predict(blocks, batch_size=BATCH_SIZE)

    seconds_batched_warm = _measure(batched_steady_state, repeats=5) / NUM_BLOCKS

    def rate(seconds: float) -> str:
        return f"{1.0 / seconds:10.0f} blocks/s ({seconds * 1e3:7.3f} ms/block)"

    print()
    scale_label = "paper scale" if _paper_scale() else "small configs"
    print(f"--- {name} inference throughput ({scale_label}) ---")
    print(f"seed (per-block, tape):    {rate(seconds_seed)}   1.0x")
    for label, seconds in [
        ("single, cold caches", seconds_single_cold),
        ("batched-64, cold caches", seconds_batched_cold),
        ("single, steady state", seconds_single_warm),
        ("batched-64, steady state", seconds_batched_warm),
    ]:
        print(f"{label:<26} {rate(seconds)}  {seconds_seed / seconds:5.1f}x")

    # Correctness: batched == per-block == seed path.
    model.clear_prediction_cache()
    batched = model.predict(blocks, batch_size=BATCH_SIZE)
    model.clear_prediction_cache()
    for index in (0, NUM_BLOCKS // 2, NUM_BLOCKS - 1):
        single = model.predict([blocks[index]])
        for task in model.tasks:
            assert np.allclose(single[task][0], batched[task][index])
    with use_fast_path(False):
        reference = seed_model.predict(blocks)
    for task in model.tasks:
        assert np.allclose(batched[task], reference[task])

    # Speedup targets of the PR, scaled with the benchmark budget: loose on
    # the reduced configs (overhead-bound), tighter at paper scale where
    # the steady-state workload answers from the prediction cache while the
    # seed path pays a full-width forward.  Batching alone must still beat
    # the seed path on completely cold caches at either scale.
    cold_target, warm_single_target, warm_batched_target = _speedup_targets()
    assert seconds_batched_cold < seconds_seed / cold_target, (
        f"cold batched path only {seconds_seed / seconds_batched_cold:.1f}x "
        f"over the seed path (expected >= {cold_target}x)"
    )
    assert seconds_single_warm < seconds_seed / warm_single_target, (
        f"steady-state per-block path only "
        f"{seconds_seed / seconds_single_warm:.1f}x over the seed path "
        f"(expected >= {warm_single_target}x)"
    )
    assert seconds_batched_warm < seconds_seed / warm_batched_target, (
        f"steady-state batched path only "
        f"{seconds_seed / seconds_batched_warm:.1f}x over the seed path "
        f"(expected >= {warm_batched_target}x)"
    )


@pytest.mark.parametrize("name", ["granite", "ithemal+"])
def test_float32_batched_speedup(name):
    """Mixed-precision serving: float32 >= 1.5x float64, within tolerance.

    Measured at paper scale (256-wide layers), where the Dense/LayerNorm
    matmuls the dtype halves actually dominate; the reduced "small" test
    configs are overhead-bound and would understate the win.  The workload
    is the steady-state serving shape: repeated blocks, warm encode caches,
    prediction cache disabled so every call pays the model compute.
    """
    dataset = build_ithemal_like_dataset(NUM_BLOCKS, seed=23)
    blocks = dataset.blocks()
    labels = {"haswell": dataset.throughputs("haswell")}

    def steady_state_seconds(model) -> float:
        model.prediction_cache_size = 0
        model.predict(blocks, batch_size=BATCH_SIZE)  # warm encode caches
        return _measure(lambda: model.predict(blocks, batch_size=BATCH_SIZE))

    model64 = create_model(
        name, small=False, tasks=("haswell",), inference_dtype="float64"
    )
    seconds64 = steady_state_seconds(model64)
    model32 = create_model(
        name, small=False, tasks=("haswell",), inference_dtype="float32"
    )
    model32.load_state_dict(model64.state_dict())
    seconds32 = steady_state_seconds(model32)

    speedup = seconds64 / seconds32
    print()
    print(f"--- {name} (paper scale) float64 vs float32, batched-{BATCH_SIZE} ---")
    print(f"float64: {NUM_BLOCKS / seconds64:8.1f} blocks/s ({seconds64 * 1e3:7.1f} ms)")
    print(
        f"float32: {NUM_BLOCKS / seconds32:8.1f} blocks/s ({seconds32 * 1e3:7.1f} ms)"
        f"  {speedup:.2f}x"
    )

    # Equivalence on the same workload: tight relative tolerance and the
    # serving acceptance budget of <= 0.5 MAPE percentage points.
    report = assert_prediction_equivalent(
        model64,
        model32,
        blocks,
        rel_tol=5e-3,
        mape_budget=0.5,
        labels=labels,
        batch_size=BATCH_SIZE,
    )
    print(report.summary())

    assert speedup >= FLOAT32_SPEEDUP_TARGET, (
        f"float32 batched path is only {speedup:.2f}x the float64 path "
        f"(expected >= {FLOAT32_SPEEDUP_TARGET}x)"
    )


def test_encode_cache_hit_rate(blocks):
    """Eval sweeps hit the graph cache after the first pass."""
    model = create_model("granite", small=True, seed=5)
    model.prediction_cache_size = 0
    for _ in range(3):
        model.predict(blocks, batch_size=16)
    stats = model.encode_cache_stats
    assert stats["graph_misses"] == NUM_BLOCKS
    assert stats["batch_hits"] >= 2 * (NUM_BLOCKS // 16)


def test_service_throughput_matches_direct_path(blocks):
    """The serving layer adds coalescing without changing predictions."""
    from repro.serve import PredictionRequest, PredictionService, ServiceConfig

    service = PredictionService(
        ServiceConfig(model_name="granite", max_batch_size=BATCH_SIZE)
    ).warm_start()
    requests = [
        PredictionRequest.of(blocks[index : index + 8])
        for index in range(0, NUM_BLOCKS, 8)
    ]
    responses = service.submit(requests)
    direct = service.model.predict(blocks)
    for task in service.model.tasks:
        served = np.concatenate(
            [response.predictions[task] for response in responses]
        )
        np.testing.assert_allclose(served, direct[task], rtol=1e-9)
    print()
    print(
        f"service: {service.stats.blocks} blocks in {service.stats.seconds:.3f}s "
        f"({service.stats.blocks_per_second:.0f} blocks/s, "
        f"{service.stats.batches} micro-batches)"
    )
