"""Shared fixtures for the test suite."""

from __future__ import annotations

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
