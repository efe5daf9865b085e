"""The batched prediction service.

:class:`PredictionService` is the serving front end of the reproduction:

* **Warm-start model loading** — the model is constructed once (optionally
  restoring a checkpoint saved by :func:`repro.nn.save_checkpoint`) and then
  kept warm, so request latency never includes construction cost.
* **Micro-batch coalescing** — heterogeneous requests submitted together are
  merged into size-bounded micro-batches
  (:func:`repro.serve.batching.coalesce_requests`), which keeps the numpy
  kernels dense regardless of how clients slice their traffic.
* **Worker sharding** — with ``num_workers > 0`` the work is sharded
  across a pool of addressable worker processes, each holding its own warm
  model replica.  Every block goes to its one owner on a consistent hash
  ring over a stable hash of its canonical text
  (:meth:`~repro.serve.ring.HashRing.owner`), so each worker's encode and
  prediction caches own a fixed partition of the key space; with circuit
  breaking on, the ring walks past workers whose breaker refuses traffic.
  Crashed workers are detected and respawned transparently.  With
  ``num_workers = 0`` everything runs in-process, which is the right
  choice for unit tests and for callers that already manage their own
  parallelism.

The service speaks canonical block text at the boundary, so it composes
with any transport (CLI, RPC, files) without pulling one in here.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.isa.basic_block import BasicBlock
from repro.models.base import ThroughputModel
from repro.nn.serialization import checkpoint_file
from repro.serve.batching import coalesce_requests, shard_key
from repro.serve.config import ServiceConfig
from repro.serve.resilience import CircuitBreaker
from repro.serve.stats import CacheStats, ModelStats, WorkerStats
from repro.serve.types import (
    InvalidRequestError,
    PredictionRequest,
    PredictionResponse,
    ServiceClosedError,
)
from repro.serve.workers import (
    PARSE_CACHE_SIZE,
    ShardedWorkerPool,
    build_model,
    parse_texts,
)
from repro.utils.cache import LRUCache

__all__ = ["ServiceStats", "PredictionService"]


@dataclass
class ServiceStats:
    """Aggregate counters of one service instance."""

    requests: int = 0
    blocks: int = 0
    batches: int = 0
    seconds: float = 0.0

    @property
    def blocks_per_second(self) -> float:
        return self.blocks / self.seconds if self.seconds > 0 else 0.0


class PredictionService:
    """Coalescing, sharding prediction front end over a throughput model.

    Args:
        config: Service configuration.
        model: Optional pre-built (e.g. freshly trained) model to serve
            in-process.  Only valid with ``num_workers=0``; worker processes
            always build their replicas from the config so that they can be
            respawned.  A pre-built model keeps its own ``inference_dtype``
            (the config's dtype only governs replicas the service builds).
    """

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        model: Optional[ThroughputModel] = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if model is not None and self.config.num_workers > 0:
            raise ValueError(
                "a pre-built model can only be served in-process; use "
                "checkpoint_path to ship weights to worker processes"
            )
        self._model = model
        self._pool: Optional[ShardedWorkerPool] = None
        # Per-worker circuit breaker (None unless the config enables one).
        # Shared with the pool, which feeds outcomes in; routing admits
        # traffic through it to walk past open workers.
        self._breaker: Optional[CircuitBreaker] = (
            CircuitBreaker(self.config.breaker_policy)
            if self.config.breaker_policy is not None
            else None
        )
        # The one text -> BasicBlock cache: filled at admission
        # (:meth:`admit`, on producer threads) and read by in-process
        # flushes, so it has its own lock.
        self._parse_lock = threading.Lock()
        self._parse_cache: LRUCache = LRUCache(PARSE_CACHE_SIZE)  # guarded-by: _parse_lock
        # Serializes submissions: the model caches, stats and worker pipes
        # are all single-submission state, so a service shared
        # by several threads (e.g. two async front ends) flushes one
        # submission at a time.
        self._submit_lock = threading.Lock()
        self._closed = False
        self.stats = ServiceStats()

    # ------------------------------------------------------------------ #
    # Warm start and lifecycle.
    # ------------------------------------------------------------------ #
    @property
    def model(self) -> ThroughputModel:
        """The in-process model replica (built on first access)."""
        if self._model is None:
            self._model = build_model(self.config)
        return self._model

    @property
    def inference_dtype(self) -> str:
        """The compute dtype this service predicts in.

        The served model's dtype when one is (or has been) built, else the
        config dtype every replica will be built with.
        """
        if self._model is not None:
            return self._model.inference_dtype
        return self.config.inference_dtype

    def warm_start(self) -> "PredictionService":
        """Eagerly builds the model (and worker pool), returning ``self``.

        After ``warm_start`` returns, the first request pays no
        construction, checkpoint-load or worker-spawn cost: in sharded mode
        the pool is pinged, which blocks until every replica is built.
        """
        if self.config.num_workers > 0:
            with self._submit_lock:
                pool = self._ensure_pool_locked()
            pool.ping()
        else:
            _ = self.model
        return self

    def _ensure_pool_locked(self) -> ShardedWorkerPool:
        """The worker pool, built on first use.

        Caller holds ``_submit_lock``.
        """
        if self._closed:
            # Without this, any use after close() would silently respawn a
            # whole new worker pool that nothing ever shuts down again.
            raise ServiceClosedError(
                "service is closed; worker pools do not restart"
            )
        if self._pool is None:
            self._validate_worker_config()
            self._pool = ShardedWorkerPool(self.config, breaker=self._breaker)
        return self._pool

    @property
    def num_workers(self) -> int:
        """The pool's worker count (0 for in-process services)."""
        return self.config.num_workers

    def worker_stats(self) -> List[WorkerStats]:
        """Typed per-worker cache/ring stats (empty for in-process services)."""
        if self.config.num_workers < 1 or self._pool is None:
            return []
        return self._pool.worker_stats()

    def snapshot(self) -> ModelStats:
        """Typed aggregate view of this service (see :mod:`repro.serve.stats`).

        Includes the in-process replica's cache counters when one has been
        built; in worker mode each replica reports its own through
        :meth:`worker_stats`.
        """
        cache: Optional[CacheStats] = None
        if self._model is not None and self.config.num_workers == 0:
            raw = dict(self._model.cache_stats())
            with self._parse_lock:
                raw["parse_hits"] = self._parse_cache.hits
                raw["parse_misses"] = self._parse_cache.misses
            cache = CacheStats.from_model_stats(raw)
        with self._submit_lock:
            stats = self.stats
            pool = self._pool
            breaker = self._breaker
            breaker_counts = (
                breaker.counters()
                if breaker is not None
                else {"trips": 0, "probes": 0, "recoveries": 0}
            )
            return ModelStats(
                model_name=self.config.model_name,
                inference_dtype=self.inference_dtype,
                requests=stats.requests,
                blocks=stats.blocks,
                batches=stats.batches,
                seconds=stats.seconds,
                blocks_per_second=stats.blocks_per_second,
                respawns=pool.respawns if pool is not None else 0,
                num_workers=self.num_workers,
                breaker_trips=breaker_counts["trips"],
                breaker_probes=breaker_counts["probes"],
                breaker_recoveries=breaker_counts["recoveries"],
                breaker_open_workers=(
                    breaker.open_count() if breaker is not None else 0
                ),
                job_timeouts=pool.job_timeouts if pool is not None else 0,
                corrupt_replies=pool.corrupt_replies if pool is not None else 0,
                respawns_suppressed=(
                    pool.respawns_suppressed if pool is not None else 0
                ),
                cache=cache,
            )

    def resilience_report(self) -> Dict[str, object]:
        """Readiness detail: breaker and respawn-backoff state.

        ``status`` is ``"ready"`` (all workers healthy), ``"degraded"``
        (some breaker open or some worker held in respawn backoff — the
        service still answers, routing around the sick replicas) or
        ``"unready"`` (closed, or every worker is dead and backed off).
        """
        pool = self._pool
        backoff = pool.respawn_backoff_workers() if pool is not None else []
        open_workers = self._breaker.open_count() if self._breaker is not None else 0
        num_workers = self.num_workers
        if self._closed:
            status = "unready"
        elif num_workers > 0 and backoff and len(backoff) >= num_workers:
            status = "unready"
        elif open_workers > 0 or backoff:
            status = "degraded"
        else:
            status = "ready"
        return {
            "status": status,
            "num_workers": num_workers,
            "breaker_open_workers": open_workers,
            "respawn_backoff_workers": sorted(backoff),
            "breaker": (
                self._breaker.counters() if self._breaker is not None else None
            ),
        }

    def check_health(self) -> int:
        """Respawns any crashed worker; returns how many were respawned.

        In-process services (``num_workers=0``) have nothing to check and
        always return 0.  Sharded submissions call this implicitly, so an
        explicit call is only needed for out-of-band monitoring loops.
        """
        if self.config.num_workers == 0 or self._pool is None:
            return 0
        return self._pool.ensure_healthy()

    def _validate_worker_config(self) -> None:
        """Catches configs that would fail every replica's model build.

        ``ShardedWorkerPool`` crashes and respawns a replica whose build
        raises until ``RespawnGovernor`` holds it in backoff, and a build
        that blocks (a FIFO checkpoint) is only replaced after the start-up
        watchdog's timeout; either way ``submit`` would spin through fork /
        build / crash cycles before surfacing anything.  Validate the model
        name and the checkpoint (a regular file, as
        :func:`repro.nn.serialization.checkpoint_file` requires) in the
        parent before spawning anything.
        """
        from repro.models import MODEL_NAMES

        if self.config.model_name.lower() not in MODEL_NAMES:
            raise ValueError(
                f"unknown model {self.config.model_name!r}; "
                f"expected one of {MODEL_NAMES}"
            )
        if self.config.checkpoint_path is not None:
            checkpoint_file(self.config.checkpoint_path)

    def close(self) -> None:
        """Shuts down the worker pool (idempotent).

        A worker-mode service cannot be reused afterwards (submitting would
        need a fresh pool); the in-process path holds no external resources
        and keeps working.
        """
        self._closed = True
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "PredictionService":
        return self.warm_start()

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Serving.
    # ------------------------------------------------------------------ #
    def _served_tasks(self) -> Tuple[str, ...]:
        """The microarchitecture heads the served model exposes.

        Used to validate task filters without building a model: every
        replica the service builds comes from the config, whose
        ``tasks=None`` resolves to the model families' shared default heads.
        """
        if self._model is not None:
            return tuple(self._model.tasks)
        if self.config.tasks is not None:
            return tuple(self.config.tasks)
        return tuple(TARGET_MICROARCHITECTURES)

    def _unknown_tasks(self, request: PredictionRequest) -> List[str]:
        if request.tasks is None:
            return []
        return sorted(set(request.tasks) - set(self._served_tasks()))

    def _parse_blocks(self, block_texts: Sequence[str]) -> List[BasicBlock]:
        with self._parse_lock:
            return parse_texts(block_texts, self._parse_cache)

    def admit(self, request: PredictionRequest) -> None:
        """Rejects a malformed request before it can share a batch.

        Checks the task filter and parses every block through the service's
        parse cache, so the in-process flush never parses it again.  The
        async front end calls this before queueing: one client's bad block
        then fails that client's request alone, not every request it would
        have been batched with.

        Raises:
            InvalidRequestError: The task filter names a head the model
                does not serve, or a block does not parse.
        """
        unknown = self._unknown_tasks(request)
        if unknown:
            raise InvalidRequestError(
                f"request {request.request_id!r} asked for unknown tasks: {unknown}"
            )
        try:
            self._parse_blocks(request.block_texts)
        except ValueError as error:
            raise InvalidRequestError(
                f"request {request.request_id!r} has a malformed block: {error}"
            ) from error

    def submit(self, requests: Sequence[PredictionRequest]) -> List[PredictionResponse]:
        """Serves a list of heterogeneous requests.

        The requests' blocks are coalesced into micro-batches of at most
        ``config.max_batch_size`` blocks, predicted (sharded across the
        worker pool when one is configured), and reassembled into one
        response per request, in request order.

        Thread-safe: concurrent calls are serialized, one submission at a
        time.  Callers wanting cross-request batching under concurrency
        should put an :class:`~repro.serve.AsyncPredictionService` in front
        instead of submitting from many threads.
        """
        with self._submit_lock:
            return self._submit_locked(requests)

    def _submit_locked(
        self, requests: Sequence[PredictionRequest]
    ) -> List[PredictionResponse]:
        start = time.perf_counter()
        # Fail fast on unknown task filters, before any prediction work (and
        # before spawning workers) is spent on the submission.
        for request in requests:
            unknown = self._unknown_tasks(request)
            if unknown:
                raise KeyError(
                    f"request {request.request_id!r} asked for unknown "
                    f"tasks: {unknown}"
                )

        if self.config.num_workers > 0 and any(
            request.num_blocks for request in requests
        ):
            # No liveness pre-check needed: run_batches detects dead workers
            # on send/recv, respawns them and resubmits the lost work.
            pool = self._ensure_pool_locked()
            admit = self._breaker.allow if self._breaker is not None else None
            assignments = coalesce_requests(
                requests,
                self.config.max_batch_size,
                lambda text: pool.ring.owner(shard_key(text), admit),
            )
            batches = [batch for _, batch in assignments]
            batch_results = pool.run_batches(
                [(worker, batch.block_texts) for worker, batch in assignments]
            )
        else:
            assignments = coalesce_requests(
                requests, self.config.max_batch_size, lambda text: 0
            )
            batches = [batch for _, batch in assignments]
            model = self.model if batches else None
            batch_results = [
                model.predict(self._parse_blocks(batch.block_texts))
                for batch in batches
            ]
        tasks = tuple(batch_results[0].keys()) if batch_results else self._served_tasks()

        # Reassemble per-request arrays from the (request, position)
        # origins: scatter every batch into one flat per-task array indexed
        # by global block position (request offset + position), then slice
        # per request.  Fully vectorized so reassembly stays negligible next
        # to the (possibly cached) model work.
        request_offsets = np.cumsum([0] + [request.num_blocks for request in requests])
        total_blocks = int(request_offsets[-1])
        flat: Dict[str, np.ndarray] = {
            task: np.zeros(total_blocks) for task in tasks
        }
        for batch, result in zip(batches, batch_results):
            origins = np.asarray(batch.origins, dtype=np.int64).reshape(-1, 2)
            positions = request_offsets[origins[:, 0]] + origins[:, 1]
            for task in tasks:
                flat[task][positions] = np.asarray(result[task])

        elapsed = time.perf_counter() - start
        responses: List[PredictionResponse] = []
        for index, request in enumerate(requests):
            begin, end = request_offsets[index], request_offsets[index + 1]
            request_tasks = request.tasks if request.tasks is not None else tasks
            predictions = {task: flat[task][begin:end].copy() for task in request_tasks}
            responses.append(
                PredictionResponse(
                    request_id=request.request_id,
                    predictions=predictions,
                    num_blocks=request.num_blocks,
                    seconds=elapsed,
                )
            )
        self.stats.requests += len(requests)
        self.stats.blocks += total_blocks
        self.stats.batches += len(batches)
        self.stats.seconds += elapsed
        return responses

    def predict_blocks(
        self, blocks: Sequence[Union[BasicBlock, str]]
    ) -> Dict[str, np.ndarray]:
        """Convenience wrapper: one request, returns its prediction arrays."""
        request = PredictionRequest.of(blocks)
        return self.submit([request])[0].predictions
