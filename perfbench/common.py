"""Shared pieces of the benchmark: pinned environment, inputs, statistics.

Importing this module changes nothing; :func:`pin_environment` must be
called before numpy (or anything under ``repro``) is imported, because the
BLAS thread count is read when the BLAS library loads.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SPEC = ROOT / "BENCHMARK.json"

#: Values an operator's shell must not be able to change.  BLAS runs one
#: thread: on a small shared machine a second BLAS thread gains ~25% on the
#: paper-scale GEMMs but makes every timing depend on what else runs on the
#: other core, and the online workload already runs client and server
#: processes side by side.
PINNED_ENV = {
    "INFERENCE_DTYPE": "float64",
    "REPRO_FLUSH_POLICY": "static",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
CLEARED_ENV = ("REPRO_FAULT_PLAN",)
#: Unix socket paths are limited to 107 bytes; the worker pool's socket
#: lives ~40 bytes below the temporary directory.
MAX_TMPDIR_LENGTH = 64

#: Batch size of the bulk and training workloads (Table 10 times batches
#: of 100 blocks).
BATCH_BLOCKS = 100


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (missing program, broken environment)."""


@dataclass
class WorkloadResult:
    """What one workload run hands back to ``run.py``.

    ``metrics`` holds the end-to-end metrics of an untraced run, or the
    per-layer metrics this workload measures in a traced run; a traced run
    also hands back its spans and how many operations they cover.
    """

    attempted: int
    failed: int
    metrics: Dict[str, float]
    details: Dict[str, object] = field(default_factory=dict)
    spans: List[tuple] = field(default_factory=list)
    operations: int = 0


def closed_loop(operation: Callable[[], float], seconds: float) -> List[float]:
    """Calls ``operation`` back to back for ``seconds``; returns its durations.

    Each call returns the duration of its own timed part, so input
    preparation and checks it does around that part stay untimed.  The call
    running when time is up finishes and counts.
    """
    durations: List[float] = []
    deadline = time.perf_counter() + seconds
    while not durations or time.perf_counter() < deadline:
        durations.append(operation())
    return durations


def pin_environment() -> None:
    """Pins the environment and puts the program's sources on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"program sources not found under {SRC}")
    for name, value in PINNED_ENV.items():
        os.environ[name] = value
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    # Child processes (the HTTP server) import from here too.
    os.environ["PYTHONPATH"] = str(SRC)
    # Temporary files, such as the worker pool's socket, stay in the
    # checkout -- unless its path is too long for a Unix socket address.
    tmpdir = OUT / "tmp"
    if len(str(tmpdir)) <= MAX_TMPDIR_LENGTH:
        tmpdir.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(tmpdir)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def environment_record() -> Dict[str, object]:
    """nproc, BLAS library and threads, and numpy version of this run."""
    import numpy as np

    blas = "unknown"
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def load_spec() -> Dict[str, object]:
    with open(SPEC, encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return quantile(values, 0.5)


def latency_summary(latencies_ms: Sequence[float]) -> Dict[str, float]:
    """Sample count and a few percentiles, for the run's details."""
    summary = {"samples": len(latencies_ms)}
    for q in (0.5, 0.9, 0.95, 0.99):
        summary[f"p{q * 100:g}_ms"] = quantile(latencies_ms, q)
    summary["max_ms"] = max(latencies_ms)
    return summary


def relative_error(actual: float, expected: float) -> float:
    return abs(actual - expected) / max(abs(expected), 1e-12)


def unique_block_texts(generator, count: int) -> List[str]:
    """``count`` distinct block texts drawn from a seeded ``BlockGenerator``."""
    seen: Dict[str, None] = {}
    while len(seen) < count:
        seen.setdefault(generator.generate_block().render(), None)
    return list(seen)


def instruction_count(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip())
