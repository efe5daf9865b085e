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

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.nn.module import Module, parameter_version
from repro.nn.tensor import Tensor, compute_dtype, no_grad
from repro.utils.cache import LRUCache

__all__ = ["ThroughputModel"]


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
    def _predict_uncached(
        self, blocks: List[BasicBlock], batch_size: Optional[int]
    ) -> Dict[str, np.ndarray]:
        """Batched no-grad forward over ``blocks`` (no prediction cache)."""
        with no_grad(), compute_dtype(self.inference_dtype):
            if batch_size is None or batch_size >= len(blocks):
                predictions = self.forward(self.encode_blocks(blocks))
                return {
                    task: _as_array(predictions[task]).copy() for task in self.tasks
                }
            chunks: Dict[str, List[np.ndarray]] = {task: [] for task in self.tasks}
            for start in range(0, len(blocks), batch_size):
                batch = self.encode_blocks(blocks[start : start + batch_size])
                predictions = self.forward(batch)
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
        representation; the result is identical to one large batch.  Blocks
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
