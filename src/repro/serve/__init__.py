"""Batched prediction serving, from micro-batches to the network.

This subpackage is the production serving story of the reproduction, in
three layers:

* the synchronous :class:`PredictionService`: heterogeneous requests are
  coalesced into size-bounded micro-batches, optionally sharded across a
  fixed pool of warm worker processes via a consistent hash ring over
  each block's text (cache affinity, health checks, automatic respawn
  under the same worker id), and reassembled into per-request responses;
* the async :class:`AsyncPredictionService` front end: producers enqueue
  requests into a bounded priority queue with back-pressure and get
  futures (cancellable while queued, with optional per-request deadlines);
  dispatch is work-conserving — one dispatcher thread flushes whatever is
  queued as soon as its previous flush is done, up to ``max_batch_size``
  blocks, so batches grow with load and an idle service never holds a
  request back;
* the network layer: a :class:`ModelRegistry` hosts many named model
  variants (family × uarch × dtype) with lazy load/unload, checkpoint
  warm-start and per-tenant request accounting, and
  :class:`PredictionHttpServer` exposes it over HTTP/1.1 + JSON (the
  standard library's threaded HTTP server, one thread per connection) with
  API-key tenancy via :class:`TenantDirectory`.

All of it builds on the no-grad inference fast path in
:mod:`repro.nn.tensor` and the batched ``ThroughputModel.predict`` API.

Configuration is layered the same way: :class:`ServiceConfig` describes
one served model variant end to end, carrying the queueing/flushing knobs
as a nested :class:`AsyncOptions`; the async front end flushes at the
service's own ``max_batch_size``.

Error taxonomy
--------------

Everything the stack can refuse raises a :class:`ServeError` carrying a
machine-readable :class:`ReasonCode` (``queue_full``,
``deadline_expired``, ``service_closed``, ``unknown_model``,
``unauthenticated``, ``forbidden``, ``invalid_request``), so transports
map outcomes to their status space without string matching — the HTTP
front end's ``STATUS_BY_REASON`` table is exactly that mapping.  The
errors derive from :class:`ServeError` alone: catch them by type, never
through a builtin such as ``RuntimeError`` or ``ValueError``.

Stats schema
------------

Introspection is typed (:mod:`repro.serve.stats`); JSON stats responses
serialize these exact dataclasses, so the wire schema cannot drift from
the in-process one:

* ``PredictionService.snapshot()`` -> :class:`ModelStats` — aggregate
  request/block/batch/latency counters of one service, its worker-pool
  respawn and resilience counters, and (in-process mode) a
  :class:`~repro.serve.stats.CacheStats` section with
  encode/prediction/parse cache hit rates;
* ``PredictionService.worker_stats()`` -> list of
  :class:`~repro.serve.stats.WorkerStats` —
  per-replica identity (``worker_id``, ``spawn_count``), hash-ring share,
  dtype, job errors and a nested ``CacheStats``;
* ``AsyncPredictionService.snapshot()`` -> :class:`ServiceSnapshot` with
  sections ``queue`` (:class:`~repro.serve.stats.QueueStats`: depth,
  capacity, back-pressure policy, admission/drop counters), ``flush``
  (:class:`~repro.serve.stats.FlushStats`: flush counters plus realized
  wait and request-latency percentiles), ``model`` (the
  :class:`ModelStats` above), ``resilience``
  (:class:`~repro.serve.stats.ResilienceStats`: degraded-reply, stale-cache
  and injected-rejection counters);
* ``GET /v1/models/{model}/stats`` -> a serialized
  :class:`~repro.serve.registry.ModelReport`: ``info`` (a
  :class:`~repro.serve.registry.ModelInfo` with the per-tenant request
  counters), ``snapshot`` (:class:`ServiceSnapshot`, ``null`` while the
  variant is cold) and ``workers`` (list of ``WorkerStats``).

In-process readers use attribute access (``snapshot.flush.wait_p99_ms``);
``to_dict()`` is the one mapping view, and it is the wire view.  Latency
percentiles are NaN — never 0.0 — while their sample window is empty, and
serialize to JSON ``null``.

Tail-latency harness
--------------------

:mod:`repro.serve.replay` closes the SLO loop: capture live traffic with
:class:`TraceRecorder` (the HTTP server's ``recorder`` hook) or
synthesize Zipf-skewed bursty traces with :func:`synthesize_trace`, drive
them through :class:`TraceReplayer` at recorded or time-scaled pacing,
and judge the realized p50/p99/p99.9 against an :class:`SloPolicy`.
Every block, hot or cold, has one :class:`HashRing` owner, since a
repeated block is a prediction-cache hit there.

Fault injection and self-healing
--------------------------------

:mod:`repro.serve.faults` is a deterministic chaos plane: a
:class:`FaultPlan` (seeded, JSON-serializable, loadable from the
``REPRO_FAULT_PLAN`` environment variable) selects faults — worker
crashes, hangs, slow or corrupted replies, queue saturation — by content
hash or event index, so every chaos run is bit-reproducible.
:mod:`repro.serve.resilience` is the machinery it validates: a
per-worker circuit breaker (``ServiceConfig.breaker_policy``) whose open
workers the hash ring routes around, the respawn governor — the one bound
on replacing a worker, 3 respawns per worker per 5 s and then exponential
backoff — and a stale prediction cache serving ``degraded=True``
responses when a flush fails (``AsyncOptions.degraded_mode``).  A failed
flush is never retried: the pool already resends the jobs of a replaced
worker, and the stale check runs on the first failure.
Every way a worker can fail a job (a crash, a hang caught by the
watchdog, a non-finite reply) takes the same path: terminate, feed the
breaker, respawn if the governor admits it, resubmit.  A malformed request
(unparseable block, unknown task) is refused at admission with
``invalid_request``, so it never fails the requests batched with it.
``GET /readyz`` exposes the aggregate: ``ready``/``degraded`` answer 200,
``unready`` answers 503 with ``Retry-After``.
"""

from repro.serve.async_service import AsyncPredictionService
from repro.serve.auth import ANONYMOUS, Tenant, TenantDirectory
from repro.serve.batching import coalesce_requests, shard_key
from repro.serve.config import AsyncOptions, ServiceConfig
from repro.serve.faults import FaultPlan, FaultSpec
from repro.serve.http import (
    STATUS_BY_REASON,
    HttpServerConfig,
    PredictionHttpServer,
)
from repro.serve.queue import Priority, RequestQueue
from repro.serve.registry import ModelRegistry, ModelVariant
from repro.serve.resilience import BreakerPolicy
from repro.serve.replay import (
    ReplayReport,
    SloPolicy,
    Trace,
    TraceRecorder,
    TraceReplayer,
    TraceRequest,
    synthesize_trace,
)
from repro.serve.ring import HashRing
from repro.serve.service import PredictionService
from repro.serve.stats import ModelStats, ServiceSnapshot, latency_percentile
from repro.serve.types import (
    AuthenticationError,
    AuthorizationError,
    InvalidRequestError,
    PredictionRequest,
    PredictionResponse,
    QueueFullError,
    ReasonCode,
    RequestExpiredError,
    ServeError,
    ServiceClosedError,
    UnknownModelError,
)
__all__ = [
    # Envelopes and batching.
    "PredictionRequest",
    "PredictionResponse",
    "coalesce_requests",
    "shard_key",
    # Services and configuration.
    "PredictionService",
    "ServiceConfig",
    "AsyncPredictionService",
    "AsyncOptions",
    # Queueing and routing.
    "HashRing",
    "Priority",
    "RequestQueue",
    # Fault injection and self-healing.
    "FaultSpec",
    "FaultPlan",
    "BreakerPolicy",
    # Error taxonomy.
    "ReasonCode",
    "ServeError",
    "QueueFullError",
    "RequestExpiredError",
    "ServiceClosedError",
    "UnknownModelError",
    "AuthenticationError",
    "AuthorizationError",
    "InvalidRequestError",
    # Typed stats schema.
    "ModelStats",
    "ServiceSnapshot",
    "latency_percentile",
    # Tail-latency SLO harness.
    "Trace",
    "TraceRequest",
    "TraceRecorder",
    "TraceReplayer",
    "ReplayReport",
    "SloPolicy",
    "synthesize_trace",
    # Tenancy.
    "Tenant",
    "TenantDirectory",
    "ANONYMOUS",
    # Registry and network front end.
    "ModelVariant",
    "ModelRegistry",
    "HttpServerConfig",
    "PredictionHttpServer",
    "STATUS_BY_REASON",
]
