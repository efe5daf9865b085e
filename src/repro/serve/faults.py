"""Deterministic, seedable fault injection for the serving stack.

Chaos testing is only useful when a failing run can be replayed exactly, so
every fault here is selected by *pure functions of the plan seed and the
request content* — no wall clock, no global RNG:

- **Content-scoped faults** (``crash``, ``hang``, ``slow_reply``,
  ``corrupt_reply``) fire on blocks whose canonical text hashes into the
  fault's probability band (``crc32(f"{seed}:{kind}:{text}")``), exactly the
  way :class:`~repro.serve.ring.HashRing` places keys.  The set of *prone*
  texts is therefore a property of the plan alone: two processes with the
  same plan agree on it without communicating, and a benchmark can compute
  it up front with :meth:`FaultPlan.prone_texts`.
- **Event-scoped faults** (``queue_saturation``) fire on a window of event
  *indices* (the Nth submission) counted by the injector, which is equally
  reproducible under a deterministic replay such as
  :class:`~repro.serve.replay.TraceReplayer`.

A :class:`FaultPlan` is the frozen description (seed + specs); a
:class:`FaultInjector` is the per-process runtime that consults the plan and
tracks first-occurrence / incarnation gating:

- Content faults fire at most **once per text per injector** (``_seen``
  sets), so a resent job observes the fault exactly once and then
  succeeds — the self-healing path is exercised, not starved.
- Worker-side faults are additionally gated on the worker's **incarnation**
  (its spawn generation): a replica respawned after an injected crash does
  not re-crash on the same key.  ``max_incarnation`` bounds which
  generations misbehave.

The plan rides into worker processes as part of the pickled
:class:`~repro.serve.config.ServiceConfig`; set the ``REPRO_FAULT_PLAN``
environment variable to a JSON file path (or inline JSON) to arm a plan
without touching code.
"""

from __future__ import annotations

import json
import os
import threading
import typing
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.serve.types import InvalidRequestError, json_field, load_json

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "load_fault_plan_from_env",
    "default_fault_plan",
]

#: Every fault kind the injector understands, in worker-side priority order
#: (a text prone to several kinds observes only the first).
FAULT_KINDS = (
    "crash",
    "hang",
    "slow_reply",
    "corrupt_reply",
    "queue_saturation",
)

#: Fault kinds selected by content hash (per-block-text probability band).
CONTENT_KINDS = ("crash", "hang", "slow_reply", "corrupt_reply")

#: Fault kinds selected by event index window.
EVENT_KINDS = ("queue_saturation",)

#: Resolution of the probability band; crc32 buckets are compared against
#: ``probability * _BAND``.
_BAND = 1_000_000

#: Environment variable naming a fault-plan JSON file (or holding inline JSON).
FAULT_PLAN_ENV_VAR = "REPRO_FAULT_PLAN"


@dataclass(frozen=True)
class FaultSpec:
    """One fault in a plan.

    Attributes:
        kind: One of :data:`FAULT_KINDS`.
        probability: For content-scoped kinds, the fraction of the text
            universe that is prone (selected by content hash, so the same
            texts are prone in every run).
        delay_ms: Sleep injected by ``hang`` / ``slow_reply`` faults.  A
            hang should exceed the pool's ``worker_job_timeout_s`` so the
            watchdog fires; a slow reply should stay under it.
        max_incarnation: Worker-side faults only fire in worker processes
            whose spawn generation is ``<= max_incarnation`` — the replica
            respawned after an injected crash is healthy by construction.
        start_after_events: For event-scoped kinds, the event index at which
            the fault window opens.
        duration_events: For event-scoped kinds, how many consecutive events
            fall inside the window.
    """

    kind: str
    probability: float = 0.0
    delay_ms: float = 0.0
    max_incarnation: int = 1
    start_after_events: int = 0
    duration_events: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be within [0, 1]")
        if self.delay_ms < 0.0:
            raise ValueError("delay_ms must be non-negative")
        if self.max_incarnation < 1:
            raise ValueError("max_incarnation must be at least 1")
        if self.start_after_events < 0 or self.duration_events < 0:
            raise ValueError("event window bounds must be non-negative")


@dataclass(frozen=True)
class FaultPlan:
    """A frozen, seedable chaos schedule.

    The plan is pure data: whether a given text is prone to a given kind is
    a function of ``(seed, kind, text)`` only, so replaying a trace under
    the same plan produces bit-identical fault selection.
    """

    seed: int = 0
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        kinds = [spec.kind for spec in self.specs]
        if len(kinds) != len(set(kinds)):
            raise ValueError("fault plan lists a kind more than once")

    def spec(self, kind: str) -> Optional[FaultSpec]:
        """Returns the spec for ``kind``, or None when the plan omits it."""
        for candidate in self.specs:
            if candidate.kind == kind:
                return candidate
        return None

    def is_prone(self, kind: str, text: str) -> bool:
        """True when ``text`` hashes into the probability band of ``kind``."""
        spec = self.spec(kind)
        if spec is None or spec.probability <= 0.0 or kind not in CONTENT_KINDS:
            return False
        bucket = zlib.crc32(f"{self.seed}:{kind}:{text}".encode("utf-8")) % _BAND
        return bucket < int(spec.probability * _BAND)

    def prone_texts(self, kind: str, texts: Iterable[str]) -> Tuple[str, ...]:
        """The subset of ``texts`` prone to ``kind`` (deterministic)."""
        return tuple(text for text in texts if self.is_prone(kind, text))

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "specs": [
                {
                    "kind": spec.kind,
                    "probability": spec.probability,
                    "delay_ms": spec.delay_ms,
                    "max_incarnation": spec.max_incarnation,
                    "start_after_events": spec.start_after_events,
                    "duration_events": spec.duration_events,
                }
                for spec in self.specs
            ],
        }

    @staticmethod
    def from_dict(payload: object) -> "FaultPlan":
        """The plan of a :meth:`to_dict` form; a malformed one raises
        :class:`~repro.serve.types.InvalidRequestError` naming the field."""
        json_field(payload, dict, "plan")
        seed = json_field(payload.get("seed", 0), int, "plan.seed")
        raw_specs = json_field(payload.get("specs", []), list, "plan.specs")
        specs = tuple(
            _spec_from_dict(raw, f"plan.specs[{index}]")
            for index, raw in enumerate(raw_specs)
        )
        try:
            return FaultPlan(seed=seed, specs=specs)
        except ValueError as exc:
            raise InvalidRequestError(f"plan: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "FaultPlan":
        return FaultPlan.from_dict(load_json(text, "fault plan"))


#: The type of every :class:`FaultSpec` field.
_SPEC_FIELDS = typing.get_type_hints(FaultSpec)


def _spec_from_dict(raw: object, where: str) -> FaultSpec:
    json_field(raw, dict, where)
    unknown = sorted(set(raw) - set(_SPEC_FIELDS))
    if unknown:
        raise InvalidRequestError(f"{where} has unknown keys {unknown}")
    if "kind" not in raw:
        raise InvalidRequestError(f"{where}.kind is missing")
    fields = {
        key: json_field(value, _SPEC_FIELDS[key], f"{where}.{key}")
        for key, value in raw.items()
    }
    try:
        return FaultSpec(**fields)
    except ValueError as exc:
        raise InvalidRequestError(f"{where}: {exc}") from None


def load_fault_plan_from_env(variable: str = FAULT_PLAN_ENV_VAR) -> Optional[FaultPlan]:
    """Loads a plan from ``$REPRO_FAULT_PLAN`` (file path or inline JSON).

    Returns None when the variable is unset or empty, so the default
    configuration carries no fault plane at all.  An unreadable file or a
    malformed plan raises :class:`~repro.serve.types.InvalidRequestError`.
    """
    raw = os.environ.get(variable, "").strip()
    if not raw:
        return None
    if raw.startswith("{"):
        return FaultPlan.from_json(raw)
    try:
        with open(raw, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, ValueError) as exc:
        raise InvalidRequestError(
            f"${variable} names no readable fault plan file: {exc}"
        ) from None
    return FaultPlan.from_json(text)


def default_fault_plan() -> Optional[FaultPlan]:
    """Config-field default: the environment plan, usually None."""
    return load_fault_plan_from_env()


class FaultInjector:
    """Per-process runtime that consults a :class:`FaultPlan`.

    One injector lives in each worker process (built by ``_worker_main``
    with that worker's incarnation) and one in the async front end (for
    event-scoped faults).  All mutable state — first-occurrence sets, event
    counters, fired tallies — is guarded by an internal lock so dispatcher
    and flush threads can share the front-end injector.
    """

    def __init__(self, plan: FaultPlan, incarnation: int = 1) -> None:
        self.plan = plan
        self.incarnation = int(incarnation)
        self._lock = threading.Lock()
        # First-occurrence gating per content kind.  # guarded-by: _lock
        self._seen: Dict[str, set] = {kind: set() for kind in CONTENT_KINDS}
        # Event indices consumed per event kind.  # guarded-by: _lock
        self._events: Dict[str, int] = {kind: 0 for kind in EVENT_KINDS}
        # Faults actually fired, per kind.  # guarded-by: _lock
        self._fired: Dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    def counters(self) -> Dict[str, int]:
        """Snapshot of faults fired so far, keyed by kind."""
        with self._lock:
            return dict(self._fired)

    def worker_fault(self, texts: Sequence[str]) -> Optional[Tuple[str, float]]:
        """Returns the worker-side fault due for this predict job, if any.

        Checks every text against the content kinds in priority order and
        fires the first (kind, text) pair not yet seen by this injector
        whose incarnation gate admits it.  Returns ``(kind, delay_seconds)``
        or None.
        """
        with self._lock:
            for kind in CONTENT_KINDS:
                spec = self.plan.spec(kind)
                if spec is None or self.incarnation > spec.max_incarnation:
                    continue
                for text in texts:
                    if text in self._seen[kind]:
                        continue
                    if not self.plan.is_prone(kind, text):
                        continue
                    self._seen[kind].add(text)
                    self._fired[kind] += 1
                    return kind, spec.delay_ms / 1000.0
        return None

    def corrupt(self, predictions: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Returns a corrupted copy of a predict payload (all-NaN arrays)."""
        return {
            task: np.full_like(np.asarray(values), np.nan)
            for task, values in predictions.items()
        }

    def _event_fault(self, kind: str) -> bool:
        spec = self.plan.spec(kind)
        with self._lock:
            index = self._events[kind]
            self._events[kind] += 1
            if spec is None or spec.duration_events <= 0:
                return False
            if spec.start_after_events <= index < spec.start_after_events + spec.duration_events:
                self._fired[kind] += 1
                return True
        return False

    def on_submit(self) -> bool:
        """Counts one submission; True when it falls in a saturation window."""
        return self._event_fault("queue_saturation")
