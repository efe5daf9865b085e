"""The multi-tenant model registry: many named variants, one process.

A production cost-model service rarely serves *one* model: compilers want
one head per microarchitecture, autotuners compare model families, and
mixed-precision variants trade accuracy for speed.  :class:`ModelRegistry`
hosts any number of named :class:`ModelVariant`\\ s — each a full
``ServiceConfig`` (model family × uarch tasks × dtype × worker pool ×
checkpoint) — behind one process:

* **lazy load** — a variant costs nothing until its first request (or an
  explicit :meth:`ModelRegistry.load`); :meth:`ModelRegistry.unload`
  returns it to the cold state, freeing its workers and caches;
* **warm start** — loading builds an
  :class:`~repro.serve.async_service.AsyncPredictionService` from the
  variant's config, restoring its checkpoint into every replica, so the
  first request after load pays queueing cost only;
* **isolation** — every variant owns its queue, dispatcher, model replica
  and caches; a saturated bulk variant cannot starve an interactive one,
  and float32/float64 variants never alias cache entries;
* **tenancy** — :meth:`ModelRegistry.submit` takes an optional
  :class:`~repro.serve.auth.Tenant`, enforces its model allow-list
  (:class:`~repro.serve.types.AuthorizationError`) and counts requests
  per (model, tenant) for the stats report.

The registry raises the reason-coded errors of :mod:`repro.serve.types`
(``UNKNOWN_MODEL``, ``SERVICE_CLOSED``, ``FORBIDDEN``, ...) so transports
map outcomes to status codes without string matching.
"""

from __future__ import annotations

import re
import threading
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.serve.async_service import AsyncPredictionService
from repro.serve.auth import Tenant
from repro.serve.config import ServiceConfig
from repro.serve.queue import Priority
from repro.serve.stats import ServiceSnapshot, StatsStruct, WorkerStats
from repro.serve.types import (
    AuthorizationError,
    PredictionRequest,
    ServiceClosedError,
    UnknownModelError,
)

__all__ = ["ModelVariant", "ModelInfo", "ModelReport", "ModelRegistry"]

#: Registry names appear in URLs (``/v1/models/{name}/predict``).
_VARIANT_NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")


@dataclass(frozen=True)
class ModelVariant:
    """One named serveable configuration.

    Attributes:
        name: URL-safe registry name (letters, digits, ``._-``).
        config: The full service configuration of this variant — model
            family, uarch task heads, dtype, worker pool, checkpoint, and the
            nested async options its front end runs with.
        description: Free-form operator note, echoed in ``GET /v1/models``.
    """

    name: str
    config: ServiceConfig = field(default_factory=ServiceConfig)
    description: str = ""

    def __post_init__(self) -> None:
        if not _VARIANT_NAME_RE.match(self.name):
            raise ValueError(
                f"variant name {self.name!r} is not URL-safe; use letters, "
                f"digits, '.', '_' or '-' (and start with a letter or digit)"
            )


@dataclass(frozen=True)
class ModelInfo(StatsStruct):
    """Registry-level description of one variant (cheap; never loads it)."""

    name: str
    model_name: str
    tasks: Tuple[str, ...]
    inference_dtype: str
    loaded: bool
    description: str
    requests_by_tenant: Dict[str, int]


@dataclass(frozen=True)
class ModelReport(StatsStruct):
    """Full per-variant stats: info + the live service's typed snapshot.

    ``snapshot`` and ``workers`` are ``None`` / empty while the variant is
    cold — asking for stats must never be what loads a model.
    """

    info: ModelInfo
    snapshot: Optional[ServiceSnapshot]
    workers: List[WorkerStats]


class ModelRegistry:
    """Thread-safe named-variant router over async prediction services.

    Args:
        variants: Initial variants; more can be registered at runtime.

    The registry lock guards the variant/service tables and the tenant
    counters.  Building a variant's service (model construction, possibly
    checkpoint load and worker spawns) happens *under* the lock: the first
    request to a cold variant briefly blocks lookups of other variants,
    which is the price of never double-building a replica.  Latency-
    sensitive deployments should :meth:`load` their variants at startup.
    """

    def __init__(self, variants: Tuple[ModelVariant, ...] = ()) -> None:
        self._lock = threading.Lock()
        self._variants: Dict[str, ModelVariant] = {}  # guarded-by: _lock
        self._services: Dict[str, AsyncPredictionService] = {}  # guarded-by: _lock
        self._tenant_requests: Dict[str, Dict[str, int]] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        for variant in variants:
            self.register(variant)

    # ------------------------------------------------------------------ #
    # Registration and lifecycle.
    # ------------------------------------------------------------------ #
    def register(self, variant: ModelVariant) -> None:
        """Adds ``variant`` to the registry (cold; nothing is built yet)."""
        with self._lock:
            self._check_open_locked()
            if variant.name in self._variants:
                raise ValueError(f"variant {variant.name!r} is already registered")
            self._variants[variant.name] = variant
            self._tenant_requests[variant.name] = {}

    def model_names(self) -> List[str]:
        """Registered variant names, in registration order."""
        with self._lock:
            return list(self._variants)

    def variant(self, name: str) -> ModelVariant:
        """The (frozen) variant registered under ``name``."""
        with self._lock:
            return self._variant_locked(name)

    def is_loaded(self, name: str) -> bool:
        with self._lock:
            self._variant_locked(name)
            return name in self._services

    def load(self, name: str) -> None:
        """Eagerly builds and warm-starts ``name`` (idempotent)."""
        with self._lock:
            self._service_locked(name)

    def unload(self, name: str) -> bool:
        """Returns ``name`` to the cold state; ``True`` if it was loaded.

        The retired service drains its queue (every admitted request is
        still answered) and frees its workers, caches and dispatcher; a
        later request simply loads a fresh instance.
        """
        with self._lock:
            self._variant_locked(name)
            service = self._services.pop(name, None)
        if service is None:
            return False
        # Closing drains the queue and joins the dispatcher — do it outside
        # the lock so other variants keep serving meanwhile.
        service.close()
        return True

    def close(self) -> None:
        """Unloads everything and refuses further use (idempotent)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            services = list(self._services.values())
            self._services.clear()
        for service in services:
            service.close()

    def __enter__(self) -> "ModelRegistry":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()

    def _check_open_locked(self) -> None:
        if self._closed:
            raise ServiceClosedError("model registry is closed")

    def _variant_locked(self, name: str) -> ModelVariant:
        self._check_open_locked()
        try:
            return self._variants[name]
        except KeyError:
            raise UnknownModelError(
                f"no model variant named {name!r}; registered: "
                f"{list(self._variants)}"
            ) from None

    def _service_locked(self, name: str) -> AsyncPredictionService:
        variant = self._variant_locked(name)
        service = self._services.get(name)
        if service is None:
            service = AsyncPredictionService(
                service_config=variant.config
            ).start()
            self._services[name] = service
        return service

    # ------------------------------------------------------------------ #
    # Serving.
    # ------------------------------------------------------------------ #
    def submit(
        self,
        name: str,
        request: PredictionRequest,
        tenant: Optional[Tenant] = None,
        priority: int = Priority.NORMAL,
        timeout: Optional[float] = None,
        deadline_ms: Optional[float] = None,
    ) -> "Future":
        """Routes ``request`` to variant ``name``; returns its future.

        Loads the variant lazily on first use.  With a ``tenant``, the
        variant must be on the tenant's allow-list, and the request is
        counted against the (model, tenant) pair.

        Raises:
            UnknownModelError: No variant of that name.
            AuthorizationError: The tenant may not use this variant.
            ServiceClosedError: The registry is closed.
            QueueFullError: The variant's queue rejected the request.
        """
        tenant_name = tenant.name if tenant is not None else None
        if tenant is not None and not tenant.may_use(name):
            raise AuthorizationError(
                f"tenant {tenant.name!r} may not use model {name!r}"
            )
        with self._lock:
            service = self._service_locked(name)
        # The submit itself runs outside the registry lock: with the
        # "block" back-pressure policy it can wait for queue space, and a
        # full queue on one variant must not freeze the whole registry.
        future = service.submit(
            request, priority=priority, timeout=timeout, deadline_ms=deadline_ms
        )
        if tenant_name is not None:
            with self._lock:
                counters = self._tenant_requests.get(name)
                if counters is not None:
                    counters[tenant_name] = counters.get(tenant_name, 0) + 1
        return future

    # ------------------------------------------------------------------ #
    # Introspection.
    # ------------------------------------------------------------------ #
    def _info_locked(self, name: str) -> ModelInfo:
        variant = self._variants[name]
        config = variant.config
        tasks = (
            tuple(config.tasks)
            if config.tasks is not None
            else tuple(TARGET_MICROARCHITECTURES)
        )
        return ModelInfo(
            name=name,
            model_name=config.model_name,
            tasks=tasks,
            inference_dtype=config.inference_dtype,
            loaded=name in self._services,
            description=variant.description,
            requests_by_tenant=dict(self._tenant_requests.get(name, {})),
        )

    def describe(self) -> List[ModelInfo]:
        """Cheap listing of every variant (loads nothing)."""
        with self._lock:
            self._check_open_locked()
            return [self._info_locked(name) for name in self._variants]

    def stats(self, name: str) -> ModelReport:
        """Typed stats of one variant; cold variants report info only."""
        with self._lock:
            self._variant_locked(name)
            info = self._info_locked(name)
            service = self._services.get(name)
        if service is None:
            return ModelReport(info=info, snapshot=None, workers=[])
        # snapshot()/worker_stats() take the service's own locks (and the
        # worker pipes); keep the registry responsive meanwhile.
        return ModelReport(
            info=info,
            snapshot=service.snapshot(),
            workers=service.service.worker_stats(),
        )

    def readiness(self) -> Dict[str, object]:
        """Aggregated readiness over every *loaded* variant.

        Cold variants never block readiness — lazy loading is the
        registry's normal state, not an outage.  The overall status is
        ``unready`` if the registry is closed or any loaded variant is
        unready, ``degraded`` if any is degraded, else ``ready``; the
        per-variant reports (open breakers, respawn backoff) ride along so
        a probe failure is diagnosable from the response body alone.
        """
        with self._lock:
            closed = self._closed
            services = dict(self._services)
        models: Dict[str, object] = {}
        overall = "unready" if closed else "ready"
        for name, service in services.items():
            # The per-service report takes that service's locks only; the
            # registry stays responsive while we poll.
            report = service.service.resilience_report()
            models[name] = report
            status = report.get("status", "ready")
            if status == "unready":
                overall = "unready"
            elif status == "degraded" and overall == "ready":
                overall = "degraded"
        return {"status": overall, "models": models}
