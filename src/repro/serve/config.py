"""Layered serving configuration.

One service, one config: :class:`ServiceConfig` describes everything about
a served model variant — the model itself (family, tasks, dtype, seed,
checkpoint), the synchronous batching/sharding front end, and, nested as
:attr:`ServiceConfig.async_options`, the queueing/flushing knobs of the
async front end.  :class:`AsyncOptions` holds only what is *specific* to
the async layer; the batch-size bound it flushes at is the service's own
``max_batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.models.config import default_inference_dtype
from repro.nn.tensor import SUPPORTED_DTYPES
from repro.serve.faults import FaultPlan, default_fault_plan
from repro.serve.queue import BACKPRESSURE_POLICIES
from repro.serve.resilience import BreakerPolicy

__all__ = ["AsyncOptions", "ServiceConfig"]


@dataclass(frozen=True)
class AsyncOptions:
    """Queueing and flushing knobs of the async front end.

    Everything here is specific to the async layer; the size-flush bound is
    the owning :class:`ServiceConfig`'s ``max_batch_size`` (one batch-size
    knob for the whole stack).

    Dispatch itself has no timing or concurrency knob: one dispatcher
    thread flushes whatever is queued as soon as its previous flush is
    done.  ``PredictionService.submit`` serializes whole submissions under
    one lock, so a second dispatcher could not overlap flushes anyway.

    Attributes:
        max_queue_blocks: Admission bound of the queue, in blocks.
        backpressure: ``"block"`` (producers wait for space) or
            ``"reject"`` (producers get
            :class:`~repro.serve.types.QueueFullError`).
        degraded_mode: Serve stale prediction-cache entries (flagged
            ``degraded=True``) when a flush submission fails, instead of
            erroring the request.  Only requests whose every block (and
            task) has a last-known-good value degrade; the rest still fail.
    """

    max_queue_blocks: int = 4096
    backpressure: str = "block"
    degraded_mode: bool = False

    def __post_init__(self) -> None:
        if self.max_queue_blocks < 1:
            raise ValueError("max_queue_blocks must be positive")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"unknown back-pressure policy {self.backpressure!r}; "
                f"expected one of {BACKPRESSURE_POLICIES}"
            )


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration of a served model variant (sync and async layers).

    Attributes:
        model_name: ``"granite"``, ``"ithemal"`` or ``"ithemal+"``.
        tasks: Microarchitecture heads of the served model; ``None`` uses
            the model family's default heads.
        small_model: Serve the reduced CPU-friendly configuration.
        seed: Weight initialisation seed (all worker replicas share it, so
            they are numerically identical).
        checkpoint_path: Optional ``.npz`` checkpoint restored into every
            replica at warm-start (the trained weights to serve).
        max_batch_size: Upper bound on blocks per micro-batch — the one
            batch-size knob of the whole stack (the async front end's size
            flush uses it too).
        num_workers: Worker processes; 0 serves in-process.  The pool
            size is fixed for the service's life: size it to the cores.
        inference_dtype: Compute dtype of every replica's no-grad inference
            fast path (``"float64"`` default, ``"float32"`` for
            mixed-precision serving).  Propagated to all worker processes —
            a whole hash-sharded pool runs float32 behind the same queue —
            and into the replicas' prediction-cache keys, so float32 and
            float64 services never alias cached values.  The default
            honours the ``INFERENCE_DTYPE`` environment variable.
        async_options: Queueing/flushing knobs applied when an
            ``AsyncPredictionService`` (or the HTTP front end / model
            registry) is put in front of this service.
        worker_job_timeout_s: Per-job watchdog of the sharded pool: an
            in-flight worker job older than this is treated as a crash
            (the worker is killed and, if the respawn governor admits it,
            respawned, the job re-queued), so a hung replica cannot stall
            the batch forever.  A job is timed from the later of its send
            and its replica's readiness, so a replica's start-up (building
            its model) is never job time.  Respawns are not configurable:
            at most 3 per worker per 5 s, then exponential backoff.
            ``None`` (default) keeps the historical wait-forever behaviour.
        breaker_policy: Optional per-worker circuit-breaker tuning.
            ``None`` disables circuit breaking; a
            :class:`~repro.serve.resilience.BreakerPolicy` makes hash
            routing walk past workers whose breaker is open.
        fault_plan: Optional deterministic chaos schedule
            (:class:`~repro.serve.faults.FaultPlan`) shipped to every
            worker replica and the async front end.  The default honours
            the ``REPRO_FAULT_PLAN`` environment variable and is normally
            None.
    """

    model_name: str = "granite"
    tasks: Optional[Tuple[str, ...]] = None
    small_model: bool = True
    seed: int = 0
    checkpoint_path: Optional[str] = None
    max_batch_size: int = 64
    num_workers: int = 0
    inference_dtype: str = field(default_factory=default_inference_dtype)
    async_options: AsyncOptions = field(default_factory=AsyncOptions)
    worker_job_timeout_s: Optional[float] = None
    breaker_policy: Optional[BreakerPolicy] = None
    fault_plan: Optional[FaultPlan] = field(default_factory=default_fault_plan)

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be positive")
        if self.num_workers < 0:
            raise ValueError("num_workers must be >= 0")
        if self.inference_dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"inference_dtype must be one of {SUPPORTED_DTYPES}, "
                f"got {self.inference_dtype!r}"
            )
        if self.worker_job_timeout_s is not None and self.worker_job_timeout_s <= 0:
            raise ValueError("worker_job_timeout_s must be positive (or None)")
        if self.breaker_policy is not None and not isinstance(self.breaker_policy, BreakerPolicy):
            raise ValueError("breaker_policy must be a BreakerPolicy (or None)")
        if self.fault_plan is not None and not isinstance(self.fault_plan, FaultPlan):
            raise ValueError("fault_plan must be a FaultPlan (or None)")
