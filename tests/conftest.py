"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest

from repro.data.datasets import build_ithemal_like_dataset
from repro.data.synthetic import BlockGenerator, GeneratorConfig
from repro.isa.basic_block import BasicBlock
from repro.nn.tensor import active_dtype, fast_path_active, is_grad_enabled, no_grad


def _assert_default_execution_mode(when: str) -> None:
    with no_grad():
        fast_path = fast_path_active()
    assert is_grad_enabled(), f"gradients are off {when} the test"
    assert fast_path, f"the no-grad fast path is off {when} the test"
    assert active_dtype() == np.float64, f"compute dtype is {active_dtype()} {when} the test"


@pytest.fixture(autouse=True)
def default_execution_mode():
    """Fails the test that leaks a grad / fast-path / dtype mode change."""
    _assert_default_execution_mode("before")
    yield
    _assert_default_execution_mode("after")


#: Name prefix of the acceptor and connection threads of ``repro.serve.http``.
HTTP_THREAD_PREFIX = "repro-http-"


def _http_threads() -> set:
    return {
        thread
        for thread in threading.enumerate()
        if thread.name.startswith(HTTP_THREAD_PREFIX)
    }


@pytest.fixture(autouse=True)
def no_leaked_http_threads():
    """Fails the test that leaves an HTTP acceptor or connection thread
    alive: a closed server joins its threads, and a test closes what it
    opens.  Threads of a server shared by a module-scoped fixture predate
    the test and are not counted; a connection thread gets a few seconds
    to wind down after its client hung up."""
    before = _http_threads()
    yield
    deadline = time.monotonic() + 5.0
    leaked = _http_threads() - before
    for thread in leaked:
        thread.join(max(0.0, deadline - time.monotonic()))
    alive = sorted(thread.name for thread in leaked if thread.is_alive())
    assert not alive, f"HTTP threads left running: {alive}"


class FlushGate:
    """Parks every flush of one ``PredictionService`` until released.

    Wraps the service's ``submit`` (the call each async flush makes), so a
    test can hold a front end's dispatcher busy without any timer:
    :attr:`entered` is set once a flush is parked, :attr:`release` lets
    every parked and later flush through.
    """

    def __init__(self, service) -> None:
        self.entered = threading.Event()
        self.release = threading.Event()
        submit = service.submit

        def gated(requests):
            self.entered.set()
            assert self.release.wait(timeout=60.0), "flush gate never released"
            return submit(requests)

        service.submit = gated


@pytest.fixture()
def flush_gate():
    """``flush_gate(service) -> FlushGate``; every gate opens at teardown."""
    gates = []

    def gate(service) -> FlushGate:
        gates.append(FlushGate(service))
        return gates[-1]

    yield gate
    for opened in gates:
        opened.release.set()


@pytest.fixture()
def fifo_checkpoint(tmp_path):
    """``(path, call)``: a FIFO named like a checkpoint, and
    ``call(fn, *args, **kwargs)``, which runs ``fn`` in a thread and returns the
    exception it raised (None if it returned).  A call still running after
    5 s fails the test instead of hanging it; teardown opens the FIFO for
    writing once, so a reader stuck in ``open`` sees EOF and its thread
    ends."""
    path = tmp_path / "never-written.npz"
    os.mkfifo(path)

    def call(fn, *args, **kwargs):
        raised = []

        def run():
            try:
                fn(*args, **kwargs)
            except Exception as exc:  # handed to the test
                raised.append(exc)
            else:
                raised.append(None)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        thread.join(5.0)
        assert not thread.is_alive(), f"{fn.__name__} blocked on a FIFO checkpoint"
        return raised[0]

    yield str(path), call
    try:
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
    except OSError:  # ENXIO: no reader is blocked on it
        pass


@pytest.fixture(scope="session")
def paper_example_block() -> BasicBlock:
    """The example basic block from Table 1 of the paper."""
    return BasicBlock.from_text(
        """
        CMP R15D, 1
        SBB EAX, EAX
        AND EAX, 0x8
        TEST ECX, ECX
        MOV DWORD PTR [RBP - 3], EAX
        MOV EAX, 1
        CMOVG EAX, ECX
        CMP EDX, EAX
        """,
        identifier="table1",
    )


@pytest.fixture(scope="session")
def figure1_block() -> BasicBlock:
    """The two-instruction example block from Figure 1 of the paper."""
    return BasicBlock.from_text(
        """
        MOV RAX, 12345
        ADD DWORD PTR [RAX + 16], EBX
        """,
        identifier="figure1",
    )


@pytest.fixture(scope="session")
def block_generator() -> BlockGenerator:
    """A deterministic synthetic block generator."""
    return BlockGenerator(GeneratorConfig(), seed=1234)


@pytest.fixture(scope="session")
def sample_blocks(block_generator):
    """Fifty deterministic synthetic basic blocks."""
    return block_generator.generate_blocks(50, prefix="test")


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small labelled dataset shared across training tests."""
    return build_ithemal_like_dataset(60, seed=7)


@pytest.fixture()
def rng() -> np.random.Generator:
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(0)
