"""Built-in checkers. Importing this package registers every rule."""

from repro.analysis.checkers import (  # noqa: F401
    determinism,
    dtype_discipline,
    exception_hygiene,
    lock_discipline,
    tape_coverage,
)

__all__ = [
    "determinism",
    "dtype_discipline",
    "exception_hygiene",
    "lock_discipline",
    "tape_coverage",
]
