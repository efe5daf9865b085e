"""Sharded worker processes with health checks and automatic respawn.

The original worker pool was a ``multiprocessing.Pool`` whose ``map`` dealt
micro-batches to whichever worker was free.  That wastes the workers' warm
caches: the same block lands on a different replica every submission, so
every replica slowly re-encodes (and re-predicts) the whole key space.  This
module replaces it with a :class:`ShardedWorkerPool` of *addressable*
workers:

* each worker is a dedicated process with its own duplex pipe, so the
  parent can route a micro-batch to a specific worker — which is what makes
  stable block-text-hash routing (see
  :meth:`repro.serve.ring.HashRing.owner`) possible;
* each worker owns a warm model replica plus parse cache, and can report
  its cache counters (the per-worker shard-affinity stats used by the
  serving benchmarks);
* every way a worker can fail a job — EOF or broken pipe, a silent death,
  the per-job watchdog, a predict reply carrying a non-finite value — takes
  one crash path: the worker is terminated, the circuit breaker is fed, a
  replacement is spawned if the :class:`RespawnGovernor` admits it, and the
  work that was in flight is resubmitted (predictions are pure, so
  resubmission is always safe).  The governor is the one bound on
  replacing a worker: a replica that keeps dying sits in exponential
  backoff, and calls routed to it fail fast with :class:`WorkerCrashError`
  instead of forking again;
* the pool is *fixed*: its worker ids ``0 .. num_workers - 1`` and the
  :class:`~repro.serve.ring.HashRing` over them are set at construction and
  never change.  A respawned replica keeps its worker id, so a crash never
  moves a key to another worker: every worker's cache partition lasts as
  long as the pool.

The job protocol is deliberately tiny: ``(kind, job_id, payload)`` requests
and ``(status, job_id, payload)`` replies, with kinds ``predict``, ``stats``,
``ping`` and ``stop``.  Job ids let the parent discard stale replies after a
respawn instead of mis-assigning them.  A replica announces itself with one
``("ready", None, None)`` message once its model is built; the job watchdog
times nothing before it.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import threading
import time
import traceback
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.models import create_model
from repro.models.base import ThroughputModel
from repro.serve.faults import FaultInjector
from repro.serve.resilience import CircuitBreaker, RespawnGovernor, RespawnPolicy
from repro.serve.ring import HashRing
from repro.serve.stats import WorkerStats, worker_stats_from_raw
from repro.serve.types import ServiceClosedError
from repro.utils.cache import LRUCache

__all__ = [
    "ShardedWorkerPool",
    "WorkerCrashError",
    "PARSE_CACHE_SIZE",
]

#: Capacity of the text -> parsed BasicBlock caches (service and workers).
PARSE_CACHE_SIZE = 8192

#: How often (seconds) the parent re-checks a worker's liveness while
#: waiting for a reply.  Predictions may legitimately take much longer; the
#: poll only bounds how quickly a *crash* is noticed, not the job itself.
_POLL_INTERVAL_S = 0.05

#: Longest a replica may take from spawn to its ``ready`` message (building
#: its model) before the job watchdog treats it as hung and takes the crash
#: path.  Generous: a cold replica that re-imports the package starts in
#: about a second.
_STARTUP_TIMEOUT_S = 60.0

#: Exit code of a worker killed by an injected crash fault (visible in the
#: parent's process table; any nonzero code is handled the same way).
_CRASH_EXIT_CODE = 17


class WorkerCrashError(RuntimeError):
    """A worker died and the respawn governor refused to replace it."""


def _worker_context():
    """A fork-safe multiprocessing context for worker (re)spawns.

    Workers are respawned wherever a crash is detected — including the async
    front end's dispatcher thread — and ``fork`` in a multi-threaded parent
    can inherit held locks into the child, wedging it inside
    :func:`build_model` forever.  ``forkserver`` forks from a clean
    single-threaded server instead (with this module preloaded so replicas
    don't re-import numpy per spawn); platforms without it use ``spawn``.
    """
    try:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.serve.workers"])
    except ValueError:
        context = multiprocessing.get_context("spawn")
    return context


def build_model(config) -> ThroughputModel:
    """Constructs (and warm-starts) one model replica from a service config.

    The config's ``inference_dtype`` is threaded into the replica, which is
    how a sharded pool ends up with every worker predicting in float32 when
    the service says so — replicas respawned after a crash come through this
    same path, so the dtype survives respawns too.
    """
    kwargs = {"inference_dtype": config.inference_dtype}
    if config.tasks is not None:
        kwargs["tasks"] = config.tasks
    return create_model(
        config.model_name,
        small=config.small_model,
        seed=config.seed,
        checkpoint_path=config.checkpoint_path,
        **kwargs,
    )


def parse_texts(block_texts: Sequence[str], parse_cache: LRUCache) -> List[BasicBlock]:
    """Parses block texts through ``parse_cache``.

    Caching the parsed blocks keeps steady-state serving of repeated texts
    from paying parse + render cost before the model's prediction cache can
    even be consulted.
    """
    blocks = []
    for text in block_texts:
        block = parse_cache.get(text)
        if block is None:
            block = BasicBlock.from_text(text)
            parse_cache.put(text, block)
        blocks.append(block)
    return blocks


def _predictions_corrupt(payload: object) -> bool:
    """True when a predict reply carries any non-finite prediction.

    Checked on every predict reply (at most ``max_batch_size x tasks``
    floats): the parent's defence against the ``corrupt_reply`` fault and
    against any real bit-flip the transport might ever produce.
    """
    if not isinstance(payload, dict):
        return False
    return any(
        not bool(np.isfinite(np.asarray(values)).all())
        for values in payload.values()
    )


def _apply_worker_fault(injector: Optional[FaultInjector], block_texts) -> bool:
    """Executes any worker-side fault due for this predict job.

    A ``crash`` fault exits the process on the spot (the parent sees EOF
    and respawns); ``hang`` / ``slow_reply`` sleep for the spec's delay
    before the job proceeds.  Returns True when the reply should be
    corrupted (``corrupt_reply`` fault).
    """
    if injector is None:
        return False
    action = injector.worker_fault(block_texts)
    if action is None:
        return False
    kind, delay_s = action
    if kind == "crash":
        os._exit(_CRASH_EXIT_CODE)
    if delay_s > 0.0:
        time.sleep(delay_s)
    return kind == "corrupt_reply"


def _worker_main(config, connection, incarnation: int = 1) -> None:
    """Entry point of one worker process: warm model, serve jobs until stop.

    ``incarnation`` is this replica's spawn generation (1 = the original
    process, 2 = first respawn, ...); the fault injector uses it so a
    replica respawned after an injected crash does not re-fault on the
    same keys.
    """
    model = build_model(config)
    parse_cache = LRUCache(PARSE_CACHE_SIZE)
    fault_plan = config.fault_plan
    injector = None if fault_plan is None else FaultInjector(fault_plan, incarnation)
    job_errors = 0
    connection.send(("ready", None, None))  # the job watchdog starts here
    while True:
        try:
            kind, job_id, payload = connection.recv()
        except (EOFError, KeyboardInterrupt):
            return
        if kind == "stop":
            return
        try:
            if kind == "predict":
                corrupt = _apply_worker_fault(injector, payload)
                result = model.predict(parse_texts(payload, parse_cache))
                if corrupt:
                    result = injector.corrupt(result)
            elif kind == "stats":
                result = dict(model.cache_stats())
                result["parse_hits"] = parse_cache.hits
                result["parse_misses"] = parse_cache.misses
                # Which precision this replica actually predicts in; lets
                # the parent (and tests) verify dtype propagation.
                result["inference_dtype"] = model.inference_dtype
                # Jobs this replica failed since it (re)spawned: the parent
                # only raises the first traceback per run_batches call, so
                # the count is how monitoring sees repeat offenders.
                result["job_errors"] = job_errors
            elif kind == "ping":
                result = os.getpid()
            else:
                raise ValueError(f"unknown worker job kind {kind!r}")
            connection.send(("ok", job_id, result))
        except Exception:
            job_errors += 1
            connection.send(("error", job_id, traceback.format_exc()))


class _WorkerHandle:
    """Parent-side handle of one worker: process, pipe, respawn bookkeeping."""

    def __init__(self, config, worker_id: int, context) -> None:
        self._config = config
        self._context = context
        self.worker_id = worker_id
        self.spawn_count = 0
        self.process: Optional[multiprocessing.process.BaseProcess] = None
        self.connection = None
        self.spawn()

    def spawn(self) -> None:
        self.discard()
        parent_end, child_end = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=_worker_main,
            args=(self._config, child_end, self.spawn_count + 1),
            name=f"repro-serve-worker-{self.worker_id}",
            daemon=True,
        )
        process.start()
        child_end.close()  # the parent keeps only its own end
        self.process = process
        self.connection = parent_end
        self.spawned_at = time.monotonic()
        self.ready_at: Optional[float] = None  # None while building its model
        self.spawn_count += 1

    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()

    def discard(self) -> None:
        """Tears down the current process/pipe without replacing them."""
        if self.connection is not None:
            try:
                self.connection.close()
            except OSError:
                pass
            self.connection = None
        if self.process is not None:
            if self.process.is_alive():
                self.process.terminate()
            self.process.join(timeout=2.0)
            self.process = None


class ShardedWorkerPool:
    """A fixed pool of addressable warm-model workers.

    Unlike ``multiprocessing.Pool`` the assignment of work to workers is
    entirely up to the caller (jobs address workers by id), dead workers
    are respawned automatically and in-flight work lost to a crash is
    resubmitted to the replacement.  The worker ids ``0 .. num_workers - 1``
    and the consistent hash :attr:`ring` over them are fixed for the pool's
    life; a replacement keeps the id of the worker it replaces.
    """

    def __init__(self, config, breaker: Optional[CircuitBreaker] = None) -> None:
        self._config = config
        self._context = _worker_context()
        self._job_ids = itertools.count()
        #: Optional per-worker circuit breaker (owned by the service);
        #: crashes / timeouts / corrupt replies feed failures in, ok
        #: predict replies feed successes.
        self._breaker = breaker
        #: The one bound on replacing a worker (see :meth:`_respawn_locked`):
        #: at most 3 respawns per worker per 5 s, then exponential backoff.
        self._governor = RespawnGovernor(RespawnPolicy())
        #: Jobs killed by the watchdog: a hung job, or a replica that never
        #: got ready.
        self.job_timeouts = 0
        #: Predict replies with a non-finite value (handled as crashes).
        self.corrupt_replies = 0
        count = config.num_workers
        if count < 1:
            raise ValueError("a worker pool needs at least one worker")
        self._workers = [
            _WorkerHandle(config, worker_id, self._context)
            for worker_id in range(count)
        ]
        #: Consistent hash ring over the worker ids; hash-sharding callers
        #: route every block to ``ring.owner(shard_key(text))``.
        self.ring = HashRing(nodes=range(count))
        # One submission owns all pipes at a time: replies are correlated to
        # jobs by per-worker FIFO order, which concurrent callers (e.g. two
        # async front ends sharing one service) would interleave.
        self._jobs_lock = threading.Lock()
        self._closed = False
        #: Total workers respawned over the pool's lifetime (health checks
        #: and mid-submission crash recovery both count).
        self.respawns = 0

    @property
    def num_workers(self) -> int:
        return len(self._workers)

    def _retire_locked(self, worker: _WorkerHandle) -> None:
        if worker.connection is not None and worker.alive():
            try:
                worker.connection.send(("stop", -1, None))
            except (BrokenPipeError, OSError):
                pass
        worker.discard()

    # ------------------------------------------------------------------ #
    # Health.
    # ------------------------------------------------------------------ #
    def ensure_healthy(self) -> int:
        """Respawns dead workers the respawn governor admits; returns count.

        Taken under the jobs lock so an out-of-band monitoring thread can
        never replace a connection a concurrent submission is waiting on.
        """
        with self._jobs_lock:
            self._check_open_locked()
            dead = [worker for worker in self._workers if not worker.alive()]
            return sum(self._respawn_locked(worker) for worker in dead)

    def _respawn_locked(self, worker: _WorkerHandle) -> bool:
        """Replaces ``worker`` if the respawn governor admits it.

        The only place a worker is spawned after construction.  A worker
        that has exhausted its respawn window stays dead until its backoff
        expires (``respawns_suppressed`` counts the refusals), so a
        crash-storming replica cannot spin the pool through an endless
        fork/build/crash cycle.
        """
        if not self._governor.may_respawn(worker.worker_id):
            return False
        worker.spawn()
        self._governor.record_respawn(worker.worker_id)
        self.respawns += 1
        return True

    @property
    def respawns_suppressed(self) -> int:
        """Respawn attempts refused by the governor's backoff."""
        return self._governor.suppressed

    def respawn_backoff_workers(self) -> List[int]:
        """Worker ids currently held in respawn backoff."""
        return self._governor.backoff_workers()

    def ping(self) -> List[int]:
        """Round-trips every worker, returning their PIDs.

        Blocks until each worker has finished warm-starting its model and
        answered, so it doubles as the pool's warm-up barrier.
        """
        results = self._run_jobs([(index, "ping", None) for index in range(self.num_workers)])
        return [int(pid) for pid in results]

    def worker_stats(self) -> List[WorkerStats]:
        """Typed per-worker stats (:class:`~repro.serve.stats.WorkerStats`):
        the replica's cache counters (encode/prediction/parse hits, misses),
        its ``inference_dtype``, its ``job_errors`` count (jobs that raised
        since the replica spawned), its stable ``worker_id``, the fraction
        of the hash ring it owns (``ring_share``) and its ``spawn_count``
        (1 = never respawned).  Cache counters are read as attributes
        (``entry.cache.prediction_hit_rate``).

        The stats round-trips happen under the jobs lock, so they cannot
        interleave with a concurrent submission's replies.

        Dead workers are *not* round-tripped (asking them would force the
        respawn the governor may be suppressing); they report a
        placeholder entry with ``alive=False`` and zeroed cache counters
        instead.
        """
        with self._jobs_lock:
            self._check_open_locked()
            alive_indexes = [
                index for index, worker in enumerate(self._workers) if worker.alive()
            ]
            results = self._run_jobs_locked(
                [(index, "stats", None) for index in alive_indexes]
            )
            raw_by_index = dict(zip(alive_indexes, results))
            shares = self.ring.shares()
            entries = []
            for index, worker in enumerate(self._workers):
                raw = raw_by_index.get(index)
                state = (
                    self._breaker.state(worker.worker_id)
                    if self._breaker is not None
                    else "closed"
                )
                entries.append(
                    worker_stats_from_raw(
                        raw if raw is not None else {},
                        worker_id=worker.worker_id,
                        spawn_count=worker.spawn_count,
                        ring_share=shares.get(worker.worker_id, 0.0),
                        alive=raw is not None,
                        respawn_backoff_active=self._governor.in_backoff(
                            worker.worker_id
                        ),
                        breaker_state=state,
                    )
                )
            return entries

    # ------------------------------------------------------------------ #
    # Work.
    # ------------------------------------------------------------------ #
    def run_batches(
        self, assignments: Sequence[Tuple[int, Tuple[str, ...]]]
    ) -> List[Dict[str, np.ndarray]]:
        """Predicts every ``(worker_index, block_texts)`` assignment.

        Workers run their assignments concurrently (each worker serially, in
        order).  Results are returned aligned with ``assignments``.  Failed
        workers are respawned and their outstanding assignments resubmitted;
        a worker the respawn governor refuses to replace raises
        :class:`WorkerCrashError`.
        """
        return self._run_jobs(
            [(worker_index, "predict", texts) for worker_index, texts in assignments]
        )

    #: In-flight jobs per worker.  Bounding this keeps both pipe directions
    #: shallow, so neither side can block on a full OS pipe buffer while the
    #: other side is blocked too (the classic fan-out deadlock of sending a
    #: whole job list eagerly).
    _MAX_IN_FLIGHT = 2

    def _run_jobs(self, jobs: Sequence[Tuple[int, str, object]]) -> List[object]:
        """Dispatches jobs to their workers and gathers results in order."""
        with self._jobs_lock:
            self._check_open_locked()
            return self._run_jobs_locked(jobs)

    def _run_jobs_locked(self, jobs: Sequence[Tuple[int, str, object]]) -> List[object]:
        results: List[object] = [None] * len(jobs)
        # Per-worker queues of (job_id, job_index, kind, payload); in-flight
        # entries grow a ``sent_at`` timestamp for the job watchdog.  Workers
        # answer in submission order, so the head of ``in_flight`` is always
        # the reply expected next from that worker.
        waiting: Dict[int, List[Tuple[int, int, str, object]]] = {}
        in_flight: Dict[int, List[Tuple[int, int, str, object, float]]] = {}
        for job_index, (worker_index, kind, payload) in enumerate(jobs):
            if not 0 <= worker_index < self.num_workers:
                raise IndexError(f"no such worker: {worker_index}")
            job_id = next(self._job_ids)
            waiting.setdefault(worker_index, []).append(
                (job_id, job_index, kind, payload)
            )
            in_flight.setdefault(worker_index, [])
        first_error: Optional[str] = None

        def handle_crash(worker_index: int) -> None:
            # The one failure path: EOF / broken pipe, silent death, the
            # watchdog and corrupt replies all land here.
            worker = self._workers[worker_index]
            if worker.alive():
                worker.process.terminate()
            if self._breaker is not None:
                self._breaker.record_failure(worker.worker_id)
            if not self._respawn_locked(worker):
                raise WorkerCrashError(
                    f"worker {worker_index} keeps failing; the respawn "
                    f"governor refused to replace it after {self.respawns} "
                    f"respawns"
                )
            # Everything sent but unanswered died with the process; put it
            # back at the front so the replacement recomputes it first.
            waiting[worker_index][:0] = [
                entry[:4] for entry in in_flight[worker_index]
            ]
            in_flight[worker_index].clear()

        def handle_reply(worker_index: int, reply) -> None:
            nonlocal first_error
            status, job_id, payload = reply
            if status == "ready":
                self._workers[worker_index].ready_at = time.monotonic()
                return
            flight = in_flight[worker_index]
            if job_id != flight[0][0]:
                return  # stale reply from before a respawn; discard
            kind = flight[0][2]
            if status == "ok" and kind == "predict" and _predictions_corrupt(payload):
                # No healthy replica sends non-finite predictions.
                self.corrupt_replies += 1
                handle_crash(worker_index)
                return
            _, job_index, _, _, _ = flight.pop(0)
            if status == "ok":
                results[job_index] = payload
                if kind == "predict" and self._breaker is not None:
                    self._breaker.record_success(self._workers[worker_index].worker_id)
            elif first_error is None:
                first_error = payload

        def sweep_job_timeouts() -> None:
            timeout_s = self._config.worker_job_timeout_s
            now = time.monotonic()
            for worker_index, flight in in_flight.items():
                if not flight:
                    continue
                worker = self._workers[worker_index]
                if worker.ready_at is None:
                    # Still building its model: timed from spawn, so a
                    # replica that never gets ready is caught while alive.
                    hung = now - worker.spawned_at > _STARTUP_TIMEOUT_S
                else:
                    # A job is timed from the later of its send and its
                    # replica's readiness, so a slow start-up is never a hang.
                    hung = timeout_s is not None and (
                        now - max(flight[0][4], worker.ready_at) > timeout_s
                    )
                if hung:
                    # The replica is hung (or injected to hang).
                    self.job_timeouts += 1
                    handle_crash(worker_index)

        while any(waiting.values()) or any(in_flight.values()):
            for worker_index in waiting:
                # Top up this worker's in-flight window.
                while (
                    waiting[worker_index]
                    and len(in_flight[worker_index]) < self._MAX_IN_FLIGHT
                ):
                    job = waiting[worker_index].pop(0)
                    try:
                        self._workers[worker_index].connection.send(
                            (job[2], job[0], job[3])
                        )
                        in_flight[worker_index].append(job + (time.monotonic(),))
                    except (BrokenPipeError, OSError):
                        waiting[worker_index].insert(0, job)
                        handle_crash(worker_index)
            # Wait on every busy worker's pipe at once: the first reply (or
            # EOF of a dying worker) wakes us, with no serial per-worker
            # poll latency.
            connection_owner = {
                self._workers[worker_index].connection: worker_index
                for worker_index, flight in in_flight.items()
                if flight
            }
            if not connection_owner:
                continue
            ready = multiprocessing.connection.wait(
                list(connection_owner), timeout=_POLL_INTERVAL_S
            )
            sweep_job_timeouts()
            if not ready:
                # No replies within the poll window; sweep for silent deaths
                # (a SIGKILLed worker's pipe usually reports EOF via wait,
                # but be defensive).
                for connection, worker_index in connection_owner.items():
                    if self._workers[worker_index].connection is not connection:
                        continue  # already respawned by the watchdog
                    if not self._workers[worker_index].alive():
                        handle_crash(worker_index)
                continue
            for connection in ready:
                worker_index = connection_owner[connection]
                if self._workers[worker_index].connection is not connection:
                    continue  # worker was respawned by the watchdog
                try:
                    reply = connection.recv()
                except (EOFError, BrokenPipeError, OSError):
                    handle_crash(worker_index)
                    continue
                handle_reply(worker_index, reply)
        if first_error is not None:
            raise RuntimeError(f"worker job failed:\n{first_error}")
        return results

    # ------------------------------------------------------------------ #
    # Lifecycle.
    # ------------------------------------------------------------------ #
    def _check_open_locked(self) -> None:
        if self._closed:
            raise ServiceClosedError("worker pool is closed")

    def close(self) -> None:
        """Stops every worker (idempotent).

        Taken under the jobs lock: an in-flight ``run_batches`` finishes
        (including any crash-recovery respawns it performs) before teardown,
        so no worker process can be spawned after its pool is closed.
        """
        with self._jobs_lock:
            if self._closed:
                return
            self._closed = True
            for worker in self._workers:
                self._retire_locked(worker)
