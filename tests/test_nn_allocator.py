"""Tests for the heap policy ``repro.nn`` sets on import (repro.nn._allocator)."""

import ctypes
import importlib
import platform
import resource
from types import SimpleNamespace

import pytest

from repro.data.datasets import build_ithemal_like_dataset
from repro.models import TrainingConfig, create_model
from repro.nn import _allocator
from repro.training.trainer import Trainer

#: A warmed small-GRANITE step at batch 100 takes ~10k minor faults when the
#: heap is trimmed between steps and single digits when it is kept.
MAX_FAULTS_PER_STEP = 1000


class _RecordingMallopt:
    """Stands in for libc's ``mallopt``: records each call, accepts it."""

    def __init__(self):
        self.calls = []

    def __call__(self, option, value):
        self.calls.append((option, value))
        return 1


class _LibcWithoutMallopt:
    """A C library such as musl's or macOS's: no ``mallopt`` symbol."""


def _minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc",
    reason="the policy is a glibc mallopt setting; other C libraries keep their own",
)
def test_warmed_training_steps_do_not_fault_the_tape_in_again():
    # 100 blocks at batch 100: every step trains on the same blocks, so the
    # heap a step frees is exactly what the next step needs.
    dataset = build_ithemal_like_dataset(100, seed=4)
    trainer = Trainer(
        create_model("granite", small=True, seed=4), TrainingConfig(batch_size=100, seed=4)
    )
    for step in range(3):
        trainer.train_step(dataset, step)
    faults = []
    for step in range(3, 6):
        before = _minor_faults()
        trainer.train_step(dataset, step)
        faults.append(_minor_faults() - before)
    assert all(count < MAX_FAULTS_PER_STEP for count in faults), faults


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc's mallopt")
def test_applying_the_policy_twice_is_harmless():
    libc = _allocator._load_libc()
    assert _allocator._apply_policy(libc)
    assert _allocator._apply_policy(libc)


def test_policy_sets_both_thresholds():
    libc = SimpleNamespace(mallopt=_RecordingMallopt())
    assert _allocator._apply_policy(libc)
    assert libc.mallopt.calls[:2] == [
        (_allocator._M_MMAP_THRESHOLD, 16 * 1024 * 1024),
        (_allocator._M_TRIM_THRESHOLD, 128 * 1024 * 1024),
    ]


def test_policy_keeps_every_thread_on_one_arena():
    """Inference shard threads share the main heap instead of each growing
    an arena of its own (M_ARENA_MAX is -8 in glibc's <malloc.h>)."""
    libc = SimpleNamespace(mallopt=_RecordingMallopt())
    assert _allocator._apply_policy(libc)
    assert libc.mallopt.calls[2:] == [(-8, 1)]


def test_a_libc_without_mallopt_is_a_no_op():
    assert not _allocator._apply_policy(_LibcWithoutMallopt())
    assert not _allocator._apply_policy(None)


def _unloadable(name):
    raise OSError("no C library to load")


@pytest.mark.parametrize(
    "loader", [lambda name: _LibcWithoutMallopt(), _unloadable],
    ids=["without-mallopt", "unloadable"],
)
def test_import_works_on_a_libc_without_mallopt(monkeypatch, loader):
    monkeypatch.setattr(ctypes, "CDLL", loader)
    try:
        importlib.reload(_allocator)
        assert not hasattr(_allocator._load_libc(), "mallopt")
    finally:
        monkeypatch.undo()
        importlib.reload(_allocator)
