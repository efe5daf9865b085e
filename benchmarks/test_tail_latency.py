"""Tail-latency SLO benchmark: trace replay with and without hedging.

The serving stack's tail story is measured the only honest way — by
replaying a seeded, Zipf-skewed, bursty trace against a live
:class:`AsyncPredictionService` and recording what every request
experienced.  A straggler fault is injected below the service: the first
time a block text reaches the backing service there is a seeded chance
the submission stalls for ``STRAGGLE_MS`` (a transient slow replica — the
classic tail source).  A *retry of the same blocks does not stall*, which
is precisely the case hedged requests exist for:

* **unhedged leg** — every straggler's full stall lands in some client's
  latency; p99.9 is the stall, and the SLO verdict fails.
* **hedged leg** — once a request outlives the observed latency quantile
  a duplicate is submitted; the duplicate misses the (already-seen)
  stall, wins the race, and the stall never reaches the client.  p99.9
  collapses back towards the service's normal latency and the same SLO
  passes.

Both legs replay the *same* trace against a fresh service with the same
fault seed, so the straggle pattern is identical and the measured gap is
purely the hedging effect.  The realized numbers (p50/p99/p99.9, jitter,
hedge counters, SLO verdicts) are written to ``BENCH_tail_latency.json``
next to this file — checked in, so the tail numbers are diffable across
changes.

``REPRO_BENCH_STEPS`` scales the trace (and tightens the improvement
margin) exactly like the other serving benchmarks.
"""

import json
import os
import threading
import time
import zlib

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionService,
    ServiceConfig,
    SloPolicy,
    TraceReplayer,
    synthesize_trace,
)

TRACE_SEED = 29
FAULT_SEED = 61
STRAGGLE_MS = 250.0
STRAGGLE_PROBABILITY = 0.30  # per block text, via a seeded content hash
NUM_KEYS = 16
MEAN_RATE_RPS = 120.0
WARMUP_REQUESTS = 12

REPORT_PATH = os.path.join(os.path.dirname(__file__), "BENCH_tail_latency.json")


def _bench_steps() -> int:
    return int(os.environ.get("REPRO_BENCH_STEPS", "0") or 0)


def _num_requests() -> int:
    steps = _bench_steps()
    return 400 if steps >= 1000 else 80


def _improvement_margin() -> float:
    """Hedged p99.9 must be below this fraction of the unhedged p99.9.

    The expected gap is ~STRAGGLE_MS vs a few milliseconds, so even the
    quick-scale margin is far from the noise floor; paper-scale runs
    tighten it further.
    """
    return 0.5 if _bench_steps() >= 1000 else 0.6


class StragglerService(PredictionService):
    """Injects seeded first-submission stalls below the async front end.

    Whether a block text is straggle-prone is a pure function of the text
    and the fault seed (a content hash against ``STRAGGLE_PROBABILITY``),
    so both legs stall on exactly the same keys regardless of how their
    traffic happens to coalesce.  Only the *first* submission of a prone
    text stalls — a transient slow replica — so a hedge resubmitting the
    same blocks sails through.  Faults fire only once :meth:`arm` is
    called, keeping the warmup phase stall-free.
    """

    def __init__(
        self, fault_seed: int, straggle_s: float, config: ServiceConfig
    ) -> None:
        super().__init__(config)
        self._fault_seed = fault_seed
        self._straggle_s = straggle_s
        self._seen = set()
        self._fault_lock = threading.Lock()
        self._armed = False
        self.straggles = 0

    def arm(self) -> None:
        self._armed = True

    def _is_prone(self, text: str) -> bool:
        digest = zlib.crc32(f"{self._fault_seed}:{text}".encode("utf-8"))
        return digest % 1000 < STRAGGLE_PROBABILITY * 1000

    def submit(self, requests):
        stall = False
        with self._fault_lock:
            if self._armed:
                for request in requests:
                    for text in request.block_texts:
                        if text not in self._seen:
                            self._seen.add(text)
                            if self._is_prone(text):
                                stall = True
                                self.straggles += 1
        if stall:
            time.sleep(self._straggle_s)
        return super().submit(requests)


def _leg_config(hedge_enabled: bool) -> ServiceConfig:
    """Both legs flush at 4 blocks; only ``hedge_enabled`` differs."""
    return ServiceConfig(
        max_batch_size=4,
        async_options=AsyncOptions(
            max_latency_ms=2.0,
            max_queue_blocks=8192,
            hedge_enabled=hedge_enabled,
            hedge_quantile=0.5,
            hedge_min_samples=8,
            hedge_min_ms=1.0,
            hedge_max_ms=25.0,
            hedge_poll_ms=1.0,
            max_concurrent_flushes=4,
        ),
    )


def _run_leg(trace, hedge_enabled: bool, slo: SloPolicy):
    """One replay of ``trace`` on a fresh service with a fresh fault seed."""
    inner = StragglerService(
        FAULT_SEED, STRAGGLE_MS / 1e3, _leg_config(hedge_enabled)
    )
    with AsyncPredictionService(service=inner) as front_end:
        assert front_end.max_batch_size == 4
        # Warm the code paths and the hedge controller's latency reservoir
        # (>= hedge_min_samples) with out-of-universe blocks; faults are
        # not armed yet, so the trace's straggle pattern is untouched.
        for index in range(WARMUP_REQUESTS):
            front_end.predict_blocks([f"add rax, {4096 + index}"])
        inner.arm()
        replayer = TraceReplayer(front_end, slo=slo, result_timeout_s=120.0)
        report = replayer.run(trace)
    return report, inner.straggles


def test_hedging_cuts_replayed_tail_latency():
    num_requests = _num_requests()
    trace = synthesize_trace(
        num_requests=num_requests,
        seed=TRACE_SEED,
        num_keys=NUM_KEYS,
        zipf_alpha=1.1,
        mean_rate_rps=MEAN_RATE_RPS,
        burstiness=4.0,
        burst_fraction=0.2,
    )
    # The SLO the paper-style serving story declares: the tail must stay
    # well below the injected stall.  Unhedged, a single straggler busts
    # it; hedged, it must hold.
    slo = SloPolicy(p999_ms=STRAGGLE_MS / 2, max_error_rate=0.0)

    unhedged, unhedged_straggles = _run_leg(trace, hedge_enabled=False, slo=slo)
    hedged, hedged_straggles = _run_leg(trace, hedge_enabled=True, slo=slo)

    print()
    print(
        f"--- trace replay: {num_requests} requests, {NUM_KEYS} Zipf keys, "
        f"{STRAGGLE_MS:.0f} ms first-submission straggles ---"
    )
    for label, report, straggles in (
        ("unhedged", unhedged, unhedged_straggles),
        ("hedged", hedged, hedged_straggles),
    ):
        print(
            f"{label:<9} p50={report.p50_ms:7.2f} ms  p99={report.p99_ms:7.2f} ms  "
            f"p99.9={report.p999_ms:7.2f} ms  jitter={report.jitter_ms:6.2f} ms  "
            f"straggles={straggles}  hedges={report.hedges_issued}"
            f"/{report.hedges_won} won  slo_met={report.slo.met}"
        )

    # Same seed, same first-seen order: the fault pattern is identical, so
    # the comparison below isolates the hedging effect.
    assert unhedged_straggles == hedged_straggles
    assert unhedged_straggles >= 2, "the fault injector never fired"
    for report in (unhedged, hedged):
        assert report.completed == num_requests
        assert report.errors == 0 and report.rejected == 0

    # Unhedged, the straggler's stall IS the tail — and busts the SLO.
    assert unhedged.p999_ms >= STRAGGLE_MS * 0.8
    assert not unhedged.slo.met
    assert unhedged.hedges_issued == 0

    # Hedged, the duplicate rescues every straggler: the same SLO holds
    # and the p99.9 improvement is decisive, not noise.
    margin = _improvement_margin()
    assert hedged.hedges_issued >= hedged_straggles
    assert hedged.hedges_won >= 1
    assert hedged.slo.met, f"hedged SLO violations: {hedged.slo.violations}"
    assert hedged.p999_ms < margin * unhedged.p999_ms, (
        f"hedged p99.9 ({hedged.p999_ms:.2f} ms) is not below {margin:.2f}x "
        f"the unhedged p99.9 ({unhedged.p999_ms:.2f} ms)"
    )

    payload = {
        "benchmark": "tail_latency_trace_replay",
        "scale": {
            "num_requests": num_requests,
            "bench_steps": _bench_steps(),
            "straggle_ms": STRAGGLE_MS,
            "straggle_probability": STRAGGLE_PROBABILITY,
            "straggles": unhedged_straggles,
        },
        "trace": trace.metadata,
        "slo": slo.to_dict(),
        "unhedged": unhedged.to_dict(),
        "hedged": hedged.to_dict(),
        "improvement": {
            "p99_ratio": hedged.p99_ms / unhedged.p99_ms,
            "p999_ratio": hedged.p999_ms / unhedged.p999_ms,
        },
    }
    with open(REPORT_PATH, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {REPORT_PATH}")
