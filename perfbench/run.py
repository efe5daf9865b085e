"""Runs one workload of the repository benchmark and prints its metrics.

    python3 perfbench/run.py --workload bulk-cold --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` measures the workload untraced
for half the time and traced for the other half, and reports the per-layer
metrics, writing the spans and a per-layer self-time table to
``perfbench/out/``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  Workloads, the
layer-to-metric map and the reasons behind both are in ``README.md`` here.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys

from common import OUT, BenchmarkError, environment_record, load_spec, pin_environment

#: Workload name -> module implementing ``run(seed, seconds, trace)``.
WORKLOADS = {"online-zipf": "online", "bulk-cold": "bulk", "train-step": "train"}

#: Per-layer metric families every workload's traced run reports.
GENERIC_PREFIXES = ("self.", "trace.", "workload.")


def assemble(spec: dict, module, result, trace: bool) -> dict:
    """Attaches units to every metric the spec lists, in the spec's order.

    A traced run reports 0 for the per-layer metrics of layers that do not
    run on this workload.  Missing or unexpected metrics are errors.
    """
    declared = spec["per_layer" if trace else "end_to_end"]
    measured = dict(result.metrics)
    if trace:
        expected = set(module.PER_LAYER) | {
            entry["name"] for entry in declared
            if entry["name"].startswith(GENERIC_PREFIXES)
        }
    else:
        expected = {entry["name"] for entry in declared}
    if set(measured) != expected:
        raise BenchmarkError(
            f"workload reported {sorted(set(measured) ^ expected)} unexpectedly"
        )
    return {
        entry["name"]: {"value": float(measured.get(entry["name"], 0.0)),
                        "unit": entry["unit"]}
        for entry in declared
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        pin_environment()
        spec = load_spec()
    except (BenchmarkError, OSError) as error:
        print(f"perfbench: cannot run: {error}", file=sys.stderr)
        return 2

    from spans import format_table, write_spans

    module = importlib.import_module(WORKLOADS[args.workload])
    trace = bool(args.trace)
    result = module.run(args.seed, args.seconds, trace)
    metrics = assemble(spec, module, result, trace)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "environment": environment_record(),
        "attempted": result.attempted,
        "succeeded": result.attempted - result.failed,
        "failed": result.failed,
        "details": result.details,
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    if trace:
        write_spans(result.spans, OUT / f"{stem}-spans.jsonl")
        table = format_table(result.spans, result.operations, module.OPERATION)
        (OUT / f"{stem}-layers.txt").write_text(table + "\n", encoding="utf-8")
        print(table)
    with open(OUT / f"{stem}.json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2)
    for key in ("environment", "details"):
        print(f"{key}: {json.dumps(record[key])}")
    print(f"attempted {result.attempted} succeeded {record['succeeded']} "
          f"failed {result.failed}")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
