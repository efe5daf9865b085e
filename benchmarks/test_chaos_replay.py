"""Chaos benchmark: seeded fault storm replayed against the self-healing stack.

A deterministic :class:`~repro.serve.FaultPlan` (crash / hang / slow_reply /
corrupt_reply, all keyed on a content hash of the block text and the fault
seed) is armed underneath a live :class:`AsyncPredictionService` backed by
real worker processes, and a seeded, Zipf-skewed trace is replayed through
it.  Crash-prone texts kill their worker mid-batch, hang-prone texts stall
past the job watchdog, corrupt replies are rejected by the parent — and the
self-healing plane (watchdog kill + respawn and resend, per-worker circuit
breaker) has to absorb all of it.

The gate is the availability story the resilience work promises:

* **zero lost requests** — every request the trace offered resolves as a
  success; nothing errors, nothing vanishes, nothing is double-completed;
* **availability >= 99.5%** — requests complete within ``BUDGET_MS`` even
  while workers are being killed and respawned under them;
* **the breaker round-trips** — at least one trip (a worker taken out of
  the routing ring) and at least one recovery (probe admitted, worker
  re-earns traffic), with no breaker left open once the storm passes.

Because every fault decision is a pure function of (seed, kind, text) and
faults fire only against first-incarnation workers, the same seed yields
the same storm: the benchmark replays the trace twice and asserts the
deterministic outcome fields are identical.  Realized numbers land in
``BENCH_chaos.json`` next to this file — including the fault plan itself,
so the exact storm is diffable and re-runnable.

``REPRO_BENCH_STEPS`` scales the trace like the other serving benchmarks.
"""

import json
import os

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    BreakerPolicy,
    FaultPlan,
    FaultSpec,
    ServiceConfig,
    SloPolicy,
    TraceReplayer,
    synthesize_trace,
)

TRACE_SEED = 37
FAULT_SEED = 53
NUM_KEYS = 16
MEAN_RATE_RPS = 120.0
BUDGET_MS = 3000.0  # per-request deadline the availability gate judges
AVAILABILITY_FLOOR = 0.995
WARMUP_REQUESTS = 6

REPORT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_chaos.json")


def _bench_steps() -> int:
    return int(os.environ.get("REPRO_BENCH_STEPS", "0") or 0)


def _num_requests() -> int:
    steps = _bench_steps()
    return 400 if steps >= 1000 else 200


def _fault_plan() -> FaultPlan:
    """The storm: every worker-side fault kind, seeded on block content.

    ``hang``'s delay is far past the job watchdog, so a hang is observed
    as a watchdog kill + respawn; ``slow_reply`` stays under it, so a slow
    reply is absorbed as plain latency.
    """
    return FaultPlan(
        seed=FAULT_SEED,
        specs=(
            FaultSpec("crash", probability=0.25),
            FaultSpec("hang", probability=0.15, delay_ms=1500.0),
            FaultSpec("slow_reply", probability=0.20, delay_ms=120.0),
            FaultSpec("corrupt_reply", probability=0.15),
        ),
    )


def _service_config(plan: FaultPlan) -> ServiceConfig:
    return ServiceConfig(
        num_workers=2,
        max_batch_size=4,
        worker_job_timeout_s=0.5,
        breaker_policy=BreakerPolicy(
            failure_threshold=1,
            reset_timeout_s=0.25,
            probe_quota=1,
            success_threshold=1,
        ),
        fault_plan=plan,
    )


def _async_options() -> AsyncOptions:
    return AsyncOptions(max_queue_blocks=8192)


def _warmup_texts(plan: FaultPlan, count: int):
    """Out-of-universe block texts that no fault spec selects.

    Warming spawns the worker pool and primes the code paths without
    consuming any worker's first (fault-eligible) incarnation, so the
    storm the trace experiences is exactly the plan's.
    """
    texts = []
    candidate = 0
    while len(texts) < count:
        text = f"mov rax, {9000 + candidate}"
        candidate += 1
        if any(plan.is_prone(kind, text) for kind in ("crash", "hang")):
            continue
        texts.append(text)
    return texts


def _run_leg(trace, plan: FaultPlan, slo: SloPolicy):
    """One replay of ``trace`` against a fresh faulted service."""
    with AsyncPredictionService(
        _async_options(), service_config=_service_config(plan)
    ) as front_end:
        for text in _warmup_texts(plan, WARMUP_REQUESTS):
            front_end.predict_blocks([text])
        replayer = TraceReplayer(front_end, slo=slo, result_timeout_s=120.0)
        report = replayer.run(trace)
        snapshot = front_end.snapshot()
    return report, snapshot


def _deterministic_outcome(report, snapshot):
    """The outcome fields a same-seed re-run must reproduce exactly."""
    return {
        "num_requests": report.num_requests,
        "completed": report.completed,
        "errors": report.errors,
        "rejected": report.rejected,
        "lost": report.lost,
        "degraded_responses": snapshot.resilience.degraded_responses,
    }


def test_chaos_storm_zero_lost_and_breaker_recovers():
    num_requests = _num_requests()
    plan = _fault_plan()
    trace = synthesize_trace(
        num_requests=num_requests,
        seed=TRACE_SEED,
        num_keys=NUM_KEYS,
        zipf_alpha=1.1,
        mean_rate_rps=MEAN_RATE_RPS,
        burstiness=4.0,
        burst_fraction=0.2,
    )
    universe = sorted({text for request in trace.requests for text in request.block_texts})
    prone = {
        kind: plan.prone_texts(kind, universe)
        for kind in ("crash", "hang", "slow_reply", "corrupt_reply")
    }
    # The seed must actually select victims, or the run proves nothing.
    assert prone["crash"], "fault seed selects no crash-prone texts"
    slo = SloPolicy(
        budget_ms=BUDGET_MS,
        max_violation_rate=1.0 - AVAILABILITY_FLOOR,
        max_error_rate=0.0,
    )

    report, snapshot = _run_leg(trace, plan, slo)
    rerun_report, rerun_snapshot = _run_leg(trace, plan, slo)

    availability = report.availability(BUDGET_MS)
    print()
    print(
        f"--- chaos replay: {num_requests} requests over {len(universe)} texts "
        f"({len(prone['crash'])} crash / {len(prone['hang'])} hang / "
        f"{len(prone['slow_reply'])} slow / {len(prone['corrupt_reply'])} "
        f"corrupt prone) ---"
    )
    for label, rep, snap in (("run 1", report, snapshot), ("run 2", rerun_report, rerun_snapshot)):
        print(
            f"{label}  completed={rep.completed}/{rep.num_requests}  lost={rep.lost}  "
            f"availability={rep.availability(BUDGET_MS):.4f}  "
            f"p99={rep.p99_ms:.1f} ms  respawns={snap.model.respawns}  "
            f"trips={snap.model.breaker_trips}  "
            f"recoveries={snap.model.breaker_recoveries}"
        )

    for rep, snap in ((report, snapshot), (rerun_report, rerun_snapshot)):
        # Zero-lost invariant: everything offered resolves as a success.
        assert rep.completed == num_requests
        assert rep.errors == 0 and rep.rejected == 0 and rep.lost == 0
        # Availability within the deadline, storm included.
        assert rep.availability(BUDGET_MS) >= AVAILABILITY_FLOOR, (
            f"availability {rep.availability(BUDGET_MS):.4f} below "
            f"{AVAILABILITY_FLOOR} at {BUDGET_MS:.0f} ms"
        )
        assert rep.slo.met, f"SLO violations: {rep.slo.violations}"
        # Self-healing visibly engaged and fully unwound: workers died and
        # were respawned, the breaker tripped and re-earned traffic, and
        # no worker is still fenced off once the storm passes.
        assert snap.model.respawns >= 1
        assert snap.model.breaker_trips >= 1
        assert snap.model.breaker_recoveries >= 1
        assert snap.model.breaker_open_workers == 0

    # Same seed, same storm: the deterministic outcome is bit-identical.
    assert _deterministic_outcome(report, snapshot) == _deterministic_outcome(
        rerun_report, rerun_snapshot
    )

    payload = {
        "benchmark": "chaos_trace_replay",
        "scale": {
            "num_requests": num_requests,
            "bench_steps": _bench_steps(),
            "num_texts": len(universe),
            "prone_counts": {kind: len(texts) for kind, texts in prone.items()},
        },
        "fault_plan": plan.to_dict(),
        "trace": trace.metadata,
        "slo": slo.to_dict(),
        "gate": {
            "budget_ms": BUDGET_MS,
            "availability_floor": AVAILABILITY_FLOOR,
            "availability": availability,
            "lost": report.lost,
        },
        "report": report.to_dict(),
        "resilience": {
            "respawns": snapshot.model.respawns,
            "breaker_trips": snapshot.model.breaker_trips,
            "breaker_probes": snapshot.model.breaker_probes,
            "breaker_recoveries": snapshot.model.breaker_recoveries,
            "breaker_open_workers": snapshot.model.breaker_open_workers,
            "job_timeouts": snapshot.model.job_timeouts,
            "corrupt_replies": snapshot.model.corrupt_replies,
        },
        "deterministic_outcome": _deterministic_outcome(report, snapshot),
    }
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REPORT_PATH}")
