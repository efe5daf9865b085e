"""Latency-stats honesty tests: empty windows are NaN, never 0.0.

The historical bug: ``flush_wait_percentile`` and friends returned 0.0
for an empty sample window, so an idle (or dead) service read as
"zero latency" to every SLO check.  These tests pin
the fix at every layer — the percentile helper, the async service's
accessors, the snapshot dataclasses, and the JSON wire format.
"""

import json
import math

import numpy as np
import pytest

from repro.serve import (
    AsyncOptions,
    AsyncPredictionService,
    PredictionRequest,
    latency_percentile,
)
from repro.serve.http import _jsonable


class TestLatencyPercentile:
    def test_empty_window_is_nan(self):
        assert math.isnan(latency_percentile([], 0.99))
        assert math.isnan(latency_percentile((), 0.0))
        assert math.isnan(latency_percentile(iter(()), 1.0))

    def test_single_sample_is_that_sample(self):
        for quantile in (0.0, 0.5, 0.99, 1.0):
            assert latency_percentile([42.0], quantile) == 42.0

    def test_matches_numpy_on_real_windows(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        for quantile in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert latency_percentile(samples, quantile) == pytest.approx(
                float(np.quantile(samples, quantile))
            )

    def test_quantile_bounds_are_validated(self):
        with pytest.raises(ValueError):
            latency_percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            latency_percentile([1.0], 1.1)

    def test_nan_fails_every_slo_comparison(self):
        # The property every consumer relies on: "no data" can never pass
        # a latency budget.
        empty = latency_percentile([], 0.99)
        assert not empty <= 100.0
        assert not empty < float("inf")
        assert not empty == 0.0


class TestEmptyWindowSurfaces:
    def test_idle_service_percentiles_are_nan_everywhere(self):
        with AsyncPredictionService(AsyncOptions()) as service:
            assert math.isnan(service.stats.flush_wait_percentile(0.99))
            assert math.isnan(service.stats.request_latency_percentile(0.999))
            snapshot = service.snapshot()
        assert math.isnan(snapshot.flush.wait_p50_ms)
        assert math.isnan(snapshot.flush.wait_p99_ms)
        assert math.isnan(snapshot.flush.request_p50_ms)
        assert math.isnan(snapshot.flush.request_p99_ms)
        assert math.isnan(snapshot.flush.request_p999_ms)

    def test_served_requests_populate_request_percentiles(self):
        with AsyncPredictionService(AsyncOptions()) as service:
            for _ in range(3):
                service.predict_blocks(["MOV RAX, RBX"])
            snapshot = service.snapshot()
        assert snapshot.flush.requests_completed == 3
        assert snapshot.flush.request_p50_ms > 0.0
        assert snapshot.flush.request_p999_ms >= snapshot.flush.request_p50_ms


class TestNanWireRoundTrip:
    def test_jsonable_maps_nan_to_null(self):
        payload = {
            "p99": float("nan"),
            "inf": float("inf"),
            "fine": 1.5,
            "nested": [float("nan"), 2.0],
            "np_nan": np.float64("nan"),
        }
        wire = json.loads(json.dumps(_jsonable(payload)))
        assert wire == {
            "p99": None,
            "inf": None,
            "fine": 1.5,
            "nested": [None, 2.0],
            "np_nan": None,
        }

    def test_idle_snapshot_serializes_percentiles_as_null(self):
        with AsyncPredictionService(AsyncOptions()) as service:
            snapshot = service.snapshot()
        wire = json.loads(json.dumps(_jsonable(snapshot.to_dict())))
        flush = wire["flush"]
        for key in (
            "wait_p50_ms",
            "wait_p99_ms",
            "request_p50_ms",
            "request_p99_ms",
            "request_p999_ms",
        ):
            assert flush[key] is None, key
        # And never the old lie:
        assert 0.0 not in {flush["wait_p99_ms"], flush["request_p999_ms"]}


class TestPerRequestVsPerFlushBias:
    def test_flush_waits_sample_only_the_oldest(self, flush_gate):
        """The reason request_* exists: wait_* under-samples the tail."""
        with AsyncPredictionService(AsyncOptions()) as service:
            gate = flush_gate(service.service)
            futures = [service.submit(PredictionRequest.of(["ADD RAX, 0"]))]
            assert gate.entered.wait(30.0)
            # Seven more queue behind the parked flush and share the next.
            futures += [
                service.submit(PredictionRequest.of([f"ADD RAX, {index}"]))
                for index in range(1, 8)
            ]
            gate.release.set()
            for future in futures:
                future.result(timeout=30.0)
            stats = service.stats
            # Two flushes: two wait samples, eight request samples — the
            # per-flush family cannot see six of the eight individual waits.
            assert len(stats.flush_waits) == 2
            assert len(stats.request_latencies) == 8
