"""Common interface of throughput-estimation models.

The training and evaluation harness only relies on this small interface, so
GRANITE, Ithemal and Ithemal+ (and any future model) are interchangeable in
every experiment:

* :meth:`ThroughputModel.encode_blocks` turns a list of basic blocks into a
  model-specific batch object (a packed graph for GRANITE, padded token
  sequences for Ithemal).  Encoding is separated from the forward pass so it
  can be cached across epochs.
* :meth:`ThroughputModel.forward` maps the encoded batch to one predicted
  throughput tensor per task (microarchitecture).
* :meth:`ThroughputModel.predict` is the inference-mode convenience wrapper
  returning plain numpy arrays.
"""

from __future__ import annotations

import os
import threading
from bisect import bisect_left
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from itertools import accumulate
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.nn.module import Module, parameter_version
from repro.nn.tensor import Tensor, compute_dtype, fast_path_active, no_grad
from repro.utils.cache import LRUCache

__all__ = ["ThroughputModel", "inference_cores"]

#: Least forward work (instructions x model width squared) worth a shard of
#: its own.  Below it, handing a shard to another core costs more than the
#: core saves: every forward pays a fixed, width-independent overhead of
#: numpy calls that hold the GIL, so two small shards run slower than one.
#: Measured on two cores with one BLAS thread, caches off, two shards
#: against one: paper-scale GRANITE ran 0.93x at 8 blocks (3.7M of work)
#: and 1.37x at 16 (7.8M), Ithemal+ 0.89x and 1.64x; small Ithemal+ at 200
#: blocks (1.7M) ran 0.88x.  So a shard pays from about 3M.
MIN_SHARD_WORK = 3_000_000

#: The variables a BLAS library reads its threads per call from, in the
#: order OpenBLAS, MKL and OpenMP builds look for them.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")

#: ``(pid, pool)`` of the process-wide shard pool, built on first use.
_SHARD_POOL: Optional[Tuple[int, ThreadPoolExecutor]] = None
_SHARD_POOL_LOCK = threading.Lock()


def _usable_cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API (macOS)
        return os.cpu_count() or 1


def _blas_threads() -> int:
    """Threads the BLAS library runs per call: the first of its thread
    variables that is set, else one per usable CPU (its default)."""
    for name in _BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return int(value)
    return _usable_cpus()


def inference_cores() -> int:
    """How many shards of one micro-batch may run at once.

    Each shard's GEMMs take as many cores as the BLAS library runs threads
    per call, so a BLAS that already spreads over every usable CPU leaves
    room for one shard: two shards would then only fight over the cores.
    """
    return max(1, _usable_cpus() // _blas_threads())


def _shard_count(work: int) -> int:
    """How many shards a micro-batch of ``work`` is split into."""
    return max(1, min(inference_cores(), work // MIN_SHARD_WORK))


def _shard_pool() -> ThreadPoolExecutor:
    """The process's shard pool, built lazily.

    Keyed by pid: a forked child inherits the parent's executor object but
    none of its threads, so it builds a pool of its own.
    """
    global _SHARD_POOL
    with _SHARD_POOL_LOCK:
        if _SHARD_POOL is None or _SHARD_POOL[0] != os.getpid():
            pool = ThreadPoolExecutor(
                max_workers=inference_cores(), thread_name_prefix="repro-predict-shard"
            )
            _SHARD_POOL = (os.getpid(), pool)
        return _SHARD_POOL[1]


def _shard_bounds(blocks: Sequence[BasicBlock], shards: int) -> List[Tuple[int, int]]:
    """Contiguous ``(start, end)`` ranges of ``blocks``, balanced by length.

    Each cut falls on the first block whose running instruction count
    reaches its share of the total; there are never empty ranges, so fewer
    blocks than ``shards`` give one range per block.
    """
    ends = list(accumulate(len(block) for block in blocks))
    cuts = {bisect_left(ends, ends[-1] * k / shards) + 1 for k in range(1, shards)}
    edges = [0, *sorted(cut for cut in cuts if cut < len(blocks)), len(blocks)]
    return list(zip(edges[:-1], edges[1:]))


def _as_array(values) -> np.ndarray:
    """Normalises a forward output (Tensor or ndarray) to a flat float64 array.

    Predictions computed by the float32 fast path are widened here, at the
    inference boundary, so callers always receive float64 arrays whatever
    the model's :attr:`~ThroughputModel.inference_dtype` is.
    """
    array = values.data if isinstance(values, Tensor) else np.asarray(values)
    return array.reshape(-1).astype(np.float64, copy=False)


class ThroughputModel(Module):
    """Base class of all basic-block throughput models."""

    #: Target microarchitecture keys, one prediction head per entry.
    tasks: Tuple[str, ...]

    #: Compute dtype of the no-grad inference fast path (``"float64"`` or
    #: ``"float32"``).  Subclasses set it from their config; it only affects
    #: :meth:`predict` (training and the tape path always run float64).  The
    #: dtype is part of the prediction-cache key, so flipping it — or serving
    #: a float32 clone next to a float64 original — never aliases cached
    #: values across precisions.
    inference_dtype: str = "float64"

    #: Capacity of the per-block prediction cache (0 disables it).  Unlike
    #: the encode caches, cached *predictions* depend on the weights, so the
    #: cache records the generation of *this model's* parameters it was
    #: filled at (:meth:`~repro.nn.module.Module.parameter_generation`) and
    #: is dropped whenever an optimizer step or ``load_state_dict`` mutates
    #: them.  The global :func:`~repro.nn.module.parameter_version` is only
    #: used as an O(1) fast-path check, so training one model in a process
    #: does not invalidate another model's cache.
    prediction_cache_size: int = 8192

    def encode_blocks(self, blocks: Sequence[BasicBlock], cache_batch: bool = True):
        """Encodes basic blocks into the model's batch representation.

        ``cache_batch=False`` neither looks up nor stores the whole batch in
        the model's batch cache (per-block encodings are still cached): a
        training step's random batch never repeats, so caching it would only
        hold its arrays until later batches evict them.
        """
        raise NotImplementedError

    def forward(self, batch) -> Dict[str, Tensor]:
        """Returns per-task predicted throughputs of shape ``[num_blocks]``."""
        raise NotImplementedError

    def encode_caches(self) -> List[LRUCache]:
        """The model's encode caches (overridden by subclasses that cache).

        Base-class cache management (:meth:`clear_encode_cache`,
        :meth:`caches_disabled`) operates on whatever this returns, so
        subclasses keep the knowledge of their own cache attributes.
        """
        return []

    def clear_encode_cache(self) -> None:
        """Drops every cached encoding."""
        for cache in self.encode_caches():
            cache.clear()

    # ------------------------------------------------------------------ #
    # Prediction cache plumbing.
    # ------------------------------------------------------------------ #
    def _current_prediction_cache(self) -> LRUCache:
        cache = getattr(self, "_prediction_cache", None)
        if cache is None or cache.maxsize != self.prediction_cache_size:
            cache = LRUCache(self.prediction_cache_size)
            self._prediction_cache = cache
            self._prediction_cache_generation = self.parameter_generation()
            self._prediction_cache_global_version = parameter_version()
        if self._prediction_cache_global_version != parameter_version():
            # Some model in the process trained since the last lookup; only
            # drop the cache if it was *this* model's parameters that moved.
            generation = self.parameter_generation()
            if generation != self._prediction_cache_generation:
                cache.clear()
                self._prediction_cache_generation = generation
            self._prediction_cache_global_version = parameter_version()
        return cache

    def clear_prediction_cache(self) -> None:
        """Drops every cached per-block prediction."""
        if getattr(self, "_prediction_cache", None) is not None:
            self._prediction_cache.clear()

    @contextmanager
    def caches_disabled(self) -> Iterator["ThroughputModel"]:
        """Temporarily disables the prediction *and* encode caches.

        Timing code uses this so measurements include the full inference
        cost (graph construction / tokenization included) instead of cache
        hits.  On exit the previous caches — including their warm entries
        and hit/miss counters — are restored intact; only the encode caches
        are emptied (their entries cannot go stale, they are just dropped
        so the context starts cold).
        """
        saved_prediction_size = self.prediction_cache_size
        saved_prediction_cache = getattr(self, "_prediction_cache", None)
        saved_prediction_generation = getattr(
            self, "_prediction_cache_generation", None
        )
        saved_prediction_global = getattr(
            self, "_prediction_cache_global_version", None
        )
        self.prediction_cache_size = 0
        self._prediction_cache = None  # a fresh zero-capacity cache inside
        encode_caches = self.encode_caches()
        saved_sizes = [(cache, cache.maxsize) for cache in encode_caches]
        for cache in encode_caches:
            cache.maxsize = 0
            cache.clear()
        try:
            yield self
        finally:
            self.prediction_cache_size = saved_prediction_size
            self._prediction_cache = saved_prediction_cache
            if saved_prediction_generation is not None:
                # Restore the generation the saved cache was filled at, so a
                # weight update made inside the context still invalidates it.
                self._prediction_cache_generation = saved_prediction_generation
                self._prediction_cache_global_version = saved_prediction_global
            for cache, size in saved_sizes:
                cache.maxsize = size

    @property
    def prediction_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the prediction cache (for benchmarks)."""
        cache = self._current_prediction_cache()
        return {"hits": cache.hits, "misses": cache.misses, "entries": len(cache)}

    def cache_stats(self) -> Dict[str, float]:
        """Uniform cache summary across model families.

        Aggregates the (model-specific) encode caches and the prediction
        cache into one flat counter dict.  The sharded worker pool reports
        this per worker, which is how the serving benchmarks measure shard
        affinity: stable hash sharding should give every worker a high hit
        rate on its own partition of the block key space.
        """
        encode_hits = sum(cache.hits for cache in self.encode_caches())
        encode_misses = sum(cache.misses for cache in self.encode_caches())
        prediction = self.prediction_cache_stats
        encode_total = encode_hits + encode_misses
        prediction_total = prediction["hits"] + prediction["misses"]
        return {
            "encode_hits": encode_hits,
            "encode_misses": encode_misses,
            "encode_hit_rate": encode_hits / encode_total if encode_total else 0.0,
            "prediction_hits": prediction["hits"],
            "prediction_misses": prediction["misses"],
            "prediction_hit_rate": (
                prediction["hits"] / prediction_total if prediction_total else 0.0
            ),
            "prediction_entries": prediction["entries"],
        }

    # ------------------------------------------------------------------ #
    # Inference.
    # ------------------------------------------------------------------ #
    def forward_width(self) -> int:
        """The model's width: its forward costs about instructions x width²."""
        raise NotImplementedError

    def _forward_in_mode(self, batch) -> Dict[str, Tensor]:
        """``forward`` in this model's inference mode, which is per thread:
        a shard pool thread does not inherit the caller's."""
        with no_grad(), compute_dtype(self.inference_dtype):
            return self.forward(batch)

    def _forward_shards(self, blocks: List[BasicBlock]) -> List[Dict[str, Tensor]]:
        """Forwards one micro-batch as contiguous shards on the usable cores.

        Only the fast path shards: the tape path, the reference the fast
        path is checked against, runs the micro-batch whole.  The shards are
        encoded here, on the calling thread, because the encode caches are
        not thread-safe; their forwards run on the shard pool, whose threads
        start in the default execution mode.
        """
        work = sum(len(block) for block in blocks) * self.forward_width() ** 2
        shards = _shard_count(work) if fast_path_active() else 1
        bounds = _shard_bounds(blocks, shards)
        if len(bounds) == 1:
            return [self.forward(self.encode_blocks(blocks))]
        pool = _shard_pool()
        futures = [
            pool.submit(self._forward_in_mode, self.encode_blocks(blocks[start:end]))
            for start, end in bounds
        ]
        wait(futures)
        return [future.result() for future in futures]

    def _predict_uncached(
        self, blocks: List[BasicBlock], batch_size: Optional[int]
    ) -> Dict[str, np.ndarray]:
        """Batched no-grad forward over ``blocks`` (no prediction cache)."""
        step = len(blocks) if batch_size is None else batch_size
        chunks: Dict[str, List[np.ndarray]] = {task: [] for task in self.tasks}
        with no_grad(), compute_dtype(self.inference_dtype):
            for start in range(0, len(blocks), step):
                for predictions in self._forward_shards(blocks[start : start + step]):
                    for task in self.tasks:
                        chunks[task].append(_as_array(predictions[task]))
        return {task: np.concatenate(chunks[task]) for task in self.tasks}

    def predict(
        self,
        blocks: Sequence[BasicBlock],
        batch_size: Optional[int] = None,
    ) -> Dict[str, np.ndarray]:
        """Inference: predicts throughputs for ``blocks`` without gradients.

        Runs on the no-grad fast path (raw numpy, no autodiff tape) in the
        model's :attr:`inference_dtype`; results are widened to float64
        arrays at this boundary either way.  With
        ``batch_size`` the blocks are processed in micro-batches of at most
        that many blocks, which bounds the peak memory of the packed
        representation.  A micro-batch with enough work (instructions x
        width², at least twice :data:`MIN_SHARD_WORK`) is split into
        contiguous shards whose forwards run at once on the usable cores
        (:func:`inference_cores`); a served flush of a few blocks stays one
        shard on the calling thread.  Either way the result equals one large batch up to
        floating-point rounding.  Blocks
        already served since the last weight update come straight from the
        prediction cache (see :attr:`prediction_cache_size`).

        Args:
            blocks: Basic blocks to predict.  May be empty.
            batch_size: Optional micro-batch size; ``None`` processes all
                blocks as a single batch.

        Returns:
            Per-task float arrays of shape ``[len(blocks)]``.
        """
        blocks = list(blocks)
        if not blocks:
            return {task: np.zeros(0, dtype=np.float64) for task in self.tasks}
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")

        cache = self._current_prediction_cache()
        if cache.maxsize <= 0:
            return self._predict_uncached(blocks, batch_size)

        # The compute dtype is part of the key: a float32 clone of a float64
        # model (or one model whose inference_dtype is flipped) must neither
        # serve the other precision's cached values nor evict them.
        dtype = self.inference_dtype
        keys = [(block.canonical_text(), dtype) for block in blocks]
        results = {task: np.empty(len(blocks), dtype=np.float64) for task in self.tasks}
        missing: List[int] = []
        for index, key in enumerate(keys):
            entry = cache.get(key)
            if entry is None:
                missing.append(index)
            else:
                for task in self.tasks:
                    results[task][index] = entry[task]
        if missing:
            # Dedupe repeated blocks so each distinct text is computed once.
            position_of_key: Dict[str, int] = {}
            unique_indices: List[int] = []
            for index in missing:
                if keys[index] not in position_of_key:
                    position_of_key[keys[index]] = len(unique_indices)
                    unique_indices.append(index)
            computed = self._predict_uncached(
                [blocks[index] for index in unique_indices], batch_size
            )
            for index in missing:
                position = position_of_key[keys[index]]
                entry = {
                    task: float(computed[task][position]) for task in self.tasks
                }
                cache.put(keys[index], entry)
                for task in self.tasks:
                    results[task][index] = entry[task]
        return results

    def predict_single(self, block: BasicBlock) -> Dict[str, float]:
        """Predicts the throughput of a single basic block."""
        predictions = self.predict([block])
        return {task: float(values[0]) for task, values in predictions.items()}
