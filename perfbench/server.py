"""The serving process of the ``online-zipf`` workload.

    python3 perfbench/server.py --seed 1 --trace 0

Builds a ``ModelRegistry`` with one variant (small multi-task GRANITE,
float64, run in this process, default ``AsyncOptions``), loads it, serves it
with ``PredictionHttpServer`` on an ephemeral port and prints
``{"port": ...}`` once ready.  It then obeys one command per stdin line and
answers each with one JSON line:

``trace on`` / ``trace off``
    Start or stop recording spans (only with ``--trace 1``).
``dump <path>``
    Write the recorded spans to ``path`` as JSON lines.
``stop``
    Close the server and registry, report peak RSS, and exit.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from common import pin_environment

#: Name of the served variant in ``/v1/models/{name}/...``.
MODEL = "granite-small"


def service_config(seed: int):
    """The served variant; the client builds its reference model from it."""
    from repro.serve import AsyncOptions, ServiceConfig

    return ServiceConfig(
        model_name="granite",
        small_model=True,
        seed=seed,
        # The model runs in this process: with a worker process each
        # request crosses two more process hand-offs, whose wake-up delays
        # on a shared host spread the median latency past its bound.
        num_workers=0,
        inference_dtype="float64",
        async_options=AsyncOptions(),
    )


def instrument(tracer, registry) -> None:
    """Spans for admission, each request's life and each flush.

    ``serve.admit`` wraps ``registry.submit``; ``serve.request`` runs from
    admission until the request's future resolves; ``serve.flush`` wraps the
    synchronous service call one micro-batch flush makes (coalesce, model
    call, reassembly) and carries the ids of the requests it served.
    """
    from repro.serve.service import PredictionService

    submit = registry.submit

    def traced_submit(name, request, *args, **kwargs):
        if not tracer.enabled:
            return submit(name, request, *args, **kwargs)
        start = tracer.clock()
        with tracer.span("serve.admit", request.request_id):
            future = submit(name, request, *args, **kwargs)
        future.add_done_callback(
            lambda _: tracer.record("serve.request", start, tracer.clock(),
                                    request.request_id)
        )
        return future

    registry.submit = traced_submit
    flush = PredictionService.submit

    def traced_flush(self, requests):
        if not tracer.enabled:
            return flush(self, requests)
        ids = ",".join(request.request_id for request in requests)
        with tracer.span("serve.flush", ids):
            return flush(self, requests)

    # Class-level, but only in this process, which serves one variant.
    PredictionService.submit = traced_flush


def main() -> int:
    parser = argparse.ArgumentParser(description="online-zipf serving process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    pin_environment()

    from repro.serve import ModelRegistry, ModelVariant, PredictionHttpServer

    from common import peak_rss_mb
    from spans import Tracer, write_spans

    tracer = Tracer(clock=time.monotonic)
    registry = ModelRegistry((ModelVariant(MODEL, service_config(args.seed)),))
    if args.trace:
        instrument(tracer, registry)
    registry.load(MODEL)
    server = PredictionHttpServer(registry, own_registry=True).start()

    def reply(payload) -> None:
        sys.stdout.write(json.dumps(payload) + "\n")
        sys.stdout.flush()

    reply({"port": server.port})
    try:
        for line in sys.stdin:
            command, _, argument = line.strip().partition(" ")
            if command == "trace":
                tracer.enabled = argument == "on"
                reply({"trace": tracer.enabled})
            elif command == "dump":
                from pathlib import Path

                write_spans(tracer.spans, Path(argument))
                reply({"spans": len(tracer.spans)})
            elif command == "stop":
                break
            else:
                reply({"error": f"unknown command {command!r}"})
    finally:
        server.close()
    reply({"peak_rss_mb": peak_rss_mb()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
