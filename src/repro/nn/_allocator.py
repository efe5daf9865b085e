"""The process's heap policy, set once when ``repro.nn`` is imported.

A training step records a tape of intermediate arrays (up to a few MiB
each for the small models at batch 100) and frees all of it when the step
ends.  glibc's default policy raises its mmap threshold adaptively, so
these arrays live on the heap; when the step frees them, the heap's top is
trimmed back to the kernel, and the next step faults every page in again:
~10k minor faults (~50 MB of fresh pages) per small-GRANITE step, about a
fifth of its time spent in the kernel.

Two ``mallopt`` calls keep those pages:

* ``M_MMAP_THRESHOLD`` = 16 MiB: every small-model tape array comes from
  the heap, while the serving process's larger setup buffers stay mmapped
  and go back to the kernel as soon as they are freed;
* ``M_TRIM_THRESHOLD`` = 128 MiB: more than one step frees, so the heap
  is not trimmed between steps.

Both are set because setting either one turns off glibc's adaptive
threshold: with only the trim threshold set, every array over 128 KiB
would be mmapped and fault on every use.

A third call, ``M_ARENA_MAX`` = 1, keeps every thread on the one main
heap.  Inference runs the shards of a large batch on a pool of threads
(``repro.models.base``), and glibc gives each new thread an arena of its
own; with the trim threshold above, each arena keeps its own working set
of pages, which raised a paper-scale ``bulk-cold`` run's peak RSS from
~310 MB to ~350 MB.  With one arena it read ~317 MB at the same throughput
(80 against 78 blocks/s on two vCPUs, one probe run each): a forward
allocates few large arrays, so the threads hardly contend for the heap's
lock.

No arithmetic changes.  On a libc without ``mallopt`` (musl, macOS) this
is a no-op.
"""

from __future__ import annotations

import ctypes

# From glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8

_MMAP_THRESHOLD_BYTES = 16 * 1024 * 1024
_TRIM_THRESHOLD_BYTES = 128 * 1024 * 1024
_ARENA_MAX = 1


def _load_libc():
    """The C library this process runs on, or None if it cannot be loaded."""
    try:
        return ctypes.CDLL(None)
    except (OSError, TypeError):
        return None


def _apply_policy(libc) -> bool:
    """Sets the policy through ``libc``; True if every setting was accepted."""
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mmap_set = mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1
    trim_set = mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES) == 1
    arenas_set = mallopt(_M_ARENA_MAX, _ARENA_MAX) == 1
    return mmap_set and trim_set and arenas_set


_apply_policy(_load_libc())
