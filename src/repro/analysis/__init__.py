"""Repo-specific static analysis: AST invariant checkers with a CI gate.

Three layers of this codebase rest on conventions that no runtime test can
enforce exhaustively: the threaded serving stack relies on lock discipline
around shared counters and lifecycle state, the float32 inference fast path
relies on every numpy allocation being dtype-explicit, and the fused-autodiff
tape relies on every op with a hand-written backward having numeric gradient
coverage.  This package machine-checks those invariants on every push.

Run it as a CLI::

    python -m repro.analysis src/ --format=text      # humans
    python -m repro.analysis src/ --format=json      # tooling
    python -m repro.analysis src/ --format=github    # PR annotations in CI

The exit status is 0 when every finding is either fixed, suppressed inline
or recorded in the checked-in baseline, and 1 otherwise — which is what the
CI ``analysis`` job gates on.

Rules
-----

``RC001`` **lock-discipline** (``repro.serve`` modules)
    A static race detector.  Any ``self._x`` attribute that is ever written
    inside a ``with self._<lock>:`` block (or annotated with a
    ``# guarded-by: _<lock>`` comment in ``__init__``) is considered
    *guarded*: every read or write of it in methods reachable from a thread
    entry point (``threading.Thread(target=...)`` targets, the public
    API, which arbitrary client threads call, and any method the same file
    calls on a receiver other than ``self``) must hold that lock.  Methods
    whose names end in ``_locked`` are assumed to be called with the lock
    already held — the repo's existing naming convention — and are exempt.

``DT001`` **dtype-discipline** (inference/training fast-path modules)
    In ``repro.nn`` (tensor/fused/layers/lstm/optim/init), ``repro.gnn`` and
    the model forward paths, every ``np.zeros`` / ``np.empty`` / ``np.ones``
    / ``np.array`` / ``np.arange`` / ``np.full`` call must pass an explicit
    ``dtype=`` — numpy's float64/platform-int defaults are exactly how a
    float32 forward silently upcasts.  ``dtype=float`` (the python builtin,
    i.e. a spelled-out float64 default) and ``.astype(float)`` are flagged
    for the same reason.

``TP001`` **tape coverage** (``repro.nn.fused`` / ``repro.nn.tensor``)
    Every fused op and every ``Tensor`` op that registers a hand-written
    backward (a ``Tensor._make`` call) must be referenced from
    ``tests/test_nn_gradcheck.py``.  Operator dunders count as referenced
    when the test file uses the operator itself (``+``, ``*``, ``**``,
    ``@``, subscripts, ...).

``DET001`` **determinism** (all analyzed files)
    Flags module-level RNG calls (``np.random.*`` other than constructing a
    seeded ``Generator``, stdlib ``random.*`` other than ``random.Random(
    seed)``), unseeded generator construction (``np.random.default_rng()`` /
    ``random.Random()`` with no seed), and wall-clock ``time.time()`` in
    control logic (use ``time.monotonic`` / ``time.perf_counter``, or
    inject the clock).  Randomness must flow from a seeded ``Generator`` so
    training runs and benchmarks are reproducible.

``EX001`` **exception hygiene** (``repro.serve`` modules)
    Flags bare ``except:`` and ``except Exception:`` handlers that swallow
    silently — no re-raise, no call (logging/reporting), no counter
    increment or assignment.  A serving stack that drops errors on the
    floor is undebuggable.

Suppressions
------------

Append ``# repro: ignore[RULE]`` (or ``# repro: ignore[RULE1,RULE2]``, or a
bare ``# repro: ignore`` for all rules) to the flagged line, or put the
comment on its own line directly above the flagged line.  Suppressions are
deliberate, reviewable exemptions — e.g. a monitoring read that tolerates a
torn value by design.

Baseline
--------

``analysis-baseline.json`` (repo root) records grandfathered findings as
``(rule, path, line-content)`` entries, so the gate can be adopted without
fixing the world at once while still failing on anything new.  Regenerate it
with::

    python -m repro.analysis src/ --write-baseline

after deliberately accepting the current findings.  The baseline is matched
on line *content*, not line numbers, so unrelated edits don't invalidate it.
"""

from repro.analysis.engine import (
    Baseline,
    Checker,
    FileContext,
    Finding,
    all_checkers,
    analyze_files,
    analyze_paths,
    collect_python_files,
    register_checker,
)

__all__ = [
    "Baseline",
    "Checker",
    "FileContext",
    "Finding",
    "all_checkers",
    "analyze_files",
    "analyze_paths",
    "collect_python_files",
    "register_checker",
]
