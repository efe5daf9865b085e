"""Self-healing primitives: circuit breaking, respawn backoff, stale replies.

- :class:`CircuitBreaker` — per-worker closed/open/half-open state machine.
  Failures (crashes, job timeouts, corrupted replies) trip a worker open;
  after ``reset_timeout_s`` the breaker admits exactly ``probe_quota``
  probes (half-open); probe successes close it again.  The breaker never
  sleeps — the service passes :meth:`CircuitBreaker.allow` to
  :meth:`~repro.serve.ring.HashRing.owner` as its admit predicate, so
  a key's owner is the first clockwise worker whose breaker admits traffic
  (the true owner when everything is open, so the pool still heals via
  respawn).
- :class:`RespawnGovernor` — bounds worker respawns per sliding window with
  exponential backoff, so a crash storm cannot spin the pool through an
  endless fork/build/crash cycle.
- :class:`StalePredictionCache` — bounded LRU of last-known-good
  predictions keyed by block text, backing graceful degradation: when the
  pool is unhealthy and the deadline allows, the async front end serves
  stale values flagged ``degraded=True`` instead of failing.

Timing uses ``time.monotonic`` exclusively (never the wall clock), and the
clock is injectable everywhere so the state machines are unit-testable
without sleeping.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, Optional, Sequence

import numpy as np

from repro.utils.cache import LRUCache

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "RespawnPolicy",
    "RespawnGovernor",
    "StalePredictionCache",
    "BREAKER_CLOSED",
    "BREAKER_OPEN",
    "BREAKER_HALF_OPEN",
]

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half_open"


# ---------------------------------------------------------------------------
# Circuit breaking
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BreakerPolicy:
    """Tuning knobs of the per-worker circuit breaker.

    Attributes:
        failure_threshold: Consecutive failures that trip a closed breaker.
        reset_timeout_s: Time an open breaker waits before going half-open.
        probe_quota: Requests admitted while half-open with no outcome
            recorded yet (exactly this many ``allow`` calls return True).
        success_threshold: Probe successes required to close a half-open
            breaker.
    """

    failure_threshold: int = 3
    reset_timeout_s: float = 1.0
    probe_quota: int = 1
    success_threshold: int = 1

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if self.reset_timeout_s <= 0.0:
            raise ValueError("reset_timeout_s must be positive")
        if self.probe_quota < 1:
            raise ValueError("probe_quota must be at least 1")
        if self.success_threshold < 1:
            raise ValueError("success_threshold must be at least 1")


class _BreakerEntry:
    """Mutable per-worker breaker state (all access under the owner's lock)."""

    __slots__ = ("state", "failures", "successes", "probes_in_flight", "opened_at")

    def __init__(self) -> None:
        self.state = BREAKER_CLOSED
        self.failures = 0
        self.successes = 0
        self.probes_in_flight = 0
        self.opened_at = 0.0


class CircuitBreaker:
    """Per-worker closed/open/half-open breaker (thread-safe).

    Legal transitions, and nothing else:

    - ``closed -> open`` after ``failure_threshold`` consecutive failures
      (counted as a *trip*);
    - ``open -> half_open`` once ``reset_timeout_s`` has elapsed (evaluated
      lazily whenever the state is consulted);
    - ``half_open -> open`` on a probe failure (another trip);
    - ``half_open -> closed`` after ``success_threshold`` probe successes
      (counted as a *recovery*).

    Outcomes that arrive for states they do not apply to (a late success
    while open, say) are ignored rather than corrupting the machine.
    """

    def __init__(
        self,
        policy: BreakerPolicy = BreakerPolicy(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[int, _BreakerEntry] = {}  # guarded-by: _lock
        self.trips = 0  # guarded-by: _lock
        self.probes = 0  # guarded-by: _lock
        self.recoveries = 0  # guarded-by: _lock

    def _entry_locked(self, worker_id: int) -> _BreakerEntry:
        entry = self._entries.get(worker_id)
        if entry is None:
            entry = _BreakerEntry()
            self._entries[worker_id] = entry
        return entry

    def _refresh_locked(self, entry: _BreakerEntry) -> None:
        if entry.state == BREAKER_OPEN:
            if self._clock() - entry.opened_at >= self.policy.reset_timeout_s:
                entry.state = BREAKER_HALF_OPEN
                entry.successes = 0
                entry.probes_in_flight = 0

    def _trip_locked(self, entry: _BreakerEntry) -> None:
        entry.state = BREAKER_OPEN
        entry.opened_at = self._clock()
        entry.failures = 0
        entry.successes = 0
        entry.probes_in_flight = 0
        self.trips += 1

    def state(self, worker_id: int) -> str:
        """Current state of the worker's breaker (refreshing open→half-open)."""
        with self._lock:
            entry = self._entry_locked(worker_id)
            self._refresh_locked(entry)
            return entry.state

    def allow(self, worker_id: int) -> bool:
        """True when the worker may receive traffic right now.

        Half-open admits exactly ``probe_quota`` calls between recorded
        outcomes; each admission counts as a probe.
        """
        with self._lock:
            entry = self._entry_locked(worker_id)
            self._refresh_locked(entry)
            if entry.state == BREAKER_CLOSED:
                return True
            if entry.state == BREAKER_OPEN:
                return False
            if entry.probes_in_flight >= self.policy.probe_quota:
                return False
            entry.probes_in_flight += 1
            self.probes += 1
            return True

    def record_success(self, worker_id: int) -> None:
        """Feeds a successful outcome into the worker's breaker."""
        with self._lock:
            entry = self._entry_locked(worker_id)
            self._refresh_locked(entry)
            if entry.state == BREAKER_CLOSED:
                entry.failures = 0
            elif entry.state == BREAKER_HALF_OPEN:
                entry.probes_in_flight = max(0, entry.probes_in_flight - 1)
                entry.successes += 1
                if entry.successes >= self.policy.success_threshold:
                    entry.state = BREAKER_CLOSED
                    entry.failures = 0
                    entry.successes = 0
                    entry.probes_in_flight = 0
                    self.recoveries += 1

    def record_failure(self, worker_id: int) -> None:
        """Feeds a failed outcome (crash, timeout, corrupt reply) in."""
        with self._lock:
            entry = self._entry_locked(worker_id)
            self._refresh_locked(entry)
            if entry.state == BREAKER_CLOSED:
                entry.failures += 1
                if entry.failures >= self.policy.failure_threshold:
                    self._trip_locked(entry)
            elif entry.state == BREAKER_HALF_OPEN:
                self._trip_locked(entry)

    def states(self) -> Dict[int, str]:
        """Snapshot of every tracked worker's state."""
        with self._lock:
            for entry in self._entries.values():
                self._refresh_locked(entry)
            return {worker_id: entry.state for worker_id, entry in self._entries.items()}

    def open_count(self) -> int:
        """Number of workers whose breaker is currently open."""
        return sum(1 for state in self.states().values() if state == BREAKER_OPEN)

    def counters(self) -> Dict[str, int]:
        """Trip / probe / recovery tallies."""
        with self._lock:
            return {"trips": self.trips, "probes": self.probes, "recoveries": self.recoveries}


# ---------------------------------------------------------------------------
# Respawn governance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RespawnPolicy:
    """Bounds on worker respawns per sliding window.

    Attributes:
        max_respawns: Respawns tolerated per worker per ``window_s`` before
            backoff engages.
        window_s: Width of the respawn-counting window.
        backoff_base_s: First backoff duration once the window overflows.
        backoff_max_s: Cap on the exponential backoff.
        multiplier: Backoff growth per consecutive overflow.
    """

    max_respawns: int = 3
    window_s: float = 5.0
    backoff_base_s: float = 0.5
    backoff_max_s: float = 10.0
    multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.max_respawns < 1:
            raise ValueError("max_respawns must be at least 1")
        if self.window_s <= 0.0 or self.backoff_base_s <= 0.0 or self.backoff_max_s <= 0.0:
            raise ValueError("window and backoff durations must be positive")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be at least 1.0")


class _GovernorEntry:
    """Mutable per-worker respawn bookkeeping (under the owner's lock)."""

    __slots__ = ("respawns", "backoff_until", "consecutive_overflows")

    def __init__(self) -> None:
        self.respawns: Deque[float] = deque()
        self.backoff_until = 0.0
        self.consecutive_overflows = 0


class RespawnGovernor:
    """Per-worker respawn rate limiter with exponential backoff."""

    def __init__(
        self,
        policy: RespawnPolicy = RespawnPolicy(),
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.policy = policy
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: Dict[int, _GovernorEntry] = {}  # guarded-by: _lock
        self.suppressed = 0  # guarded-by: _lock

    def _entry_locked(self, worker_id: int) -> _GovernorEntry:
        entry = self._entries.get(worker_id)
        if entry is None:
            entry = _GovernorEntry()
            self._entries[worker_id] = entry
        return entry

    def _prune_locked(self, entry: _GovernorEntry, now: float) -> None:
        while entry.respawns and now - entry.respawns[0] > self.policy.window_s:
            entry.respawns.popleft()

    def may_respawn(self, worker_id: int) -> bool:
        """True when the worker may be respawned right now.

        A False answer means the caller should leave the worker dead until
        the backoff expires; each refusal is counted in ``suppressed``.
        """
        now = self._clock()
        with self._lock:
            entry = self._entry_locked(worker_id)
            if now < entry.backoff_until:
                self.suppressed += 1
                return False
            self._prune_locked(entry, now)
            if not entry.respawns:
                entry.consecutive_overflows = 0
            if len(entry.respawns) >= self.policy.max_respawns:
                duration = min(
                    self.policy.backoff_base_s
                    * self.policy.multiplier**entry.consecutive_overflows,
                    self.policy.backoff_max_s,
                )
                entry.backoff_until = now + duration
                entry.consecutive_overflows += 1
                self.suppressed += 1
                return False
            return True

    def record_respawn(self, worker_id: int) -> None:
        """Counts one actual respawn of the worker."""
        now = self._clock()
        with self._lock:
            entry = self._entry_locked(worker_id)
            self._prune_locked(entry, now)
            entry.respawns.append(now)

    def in_backoff(self, worker_id: int) -> bool:
        """True while the worker's respawn backoff window is active."""
        now = self._clock()
        with self._lock:
            entry = self._entries.get(worker_id)
            return entry is not None and now < entry.backoff_until

    def backoff_workers(self) -> List[int]:
        """Worker ids currently held in backoff."""
        now = self._clock()
        with self._lock:
            return [
                worker_id
                for worker_id, entry in self._entries.items()
                if now < entry.backoff_until
            ]


# ---------------------------------------------------------------------------
# Graceful degradation
# ---------------------------------------------------------------------------


class StalePredictionCache:
    """Bounded LRU of last-known-good predictions, keyed by block text.

    Successful flushes record per-block throughputs; when the backing
    service is failing, the async front end answers from here with
    ``degraded=True`` instead of erroring — provided *every* block of the
    request (and every requested task) has a stale value.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self._lock = threading.Lock()
        self._cache: LRUCache[str, Dict[str, float]] = LRUCache(maxsize)  # guarded-by: _lock
        self._dtype = "float64"  # dtype of the last recorded predictions  # guarded-by: _lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._cache)

    def record(self, texts: Sequence[str], predictions: Dict[str, np.ndarray]) -> None:
        """Stores per-text values from a successful prediction payload."""
        if not predictions:
            return
        with self._lock:
            for task, values in predictions.items():
                self._dtype = str(np.asarray(values).dtype)
                break
            for index, text in enumerate(texts):
                entry = dict(self._cache.get(text) or {})
                for task, values in predictions.items():
                    entry[task] = float(np.asarray(values)[index])
                self._cache.put(text, entry)

    def lookup(
        self, texts: Sequence[str], tasks: Optional[Sequence[str]] = None
    ) -> Optional[Dict[str, np.ndarray]]:
        """Rebuilds a full predictions payload from stale entries, or None.

        Returns None unless every text has an entry covering every
        requested task (partial answers would silently change response
        shape).  ``tasks=None`` uses the tasks of the first entry.
        """
        with self._lock:
            entries = []
            for text in texts:
                entry = self._cache.get(text)
                if entry is None:
                    return None
                entries.append(entry)
            if not entries:
                return None
            wanted = tuple(tasks) if tasks is not None else tuple(sorted(entries[0]))
            if any(task not in entry for entry in entries for task in wanted):
                return None
            return {
                task: np.array([entry[task] for entry in entries], dtype=self._dtype)
                for task in wanted
            }

