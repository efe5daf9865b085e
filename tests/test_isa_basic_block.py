"""Tests for BasicBlock and its dependency analysis (repro.isa.basic_block)."""

import pytest

from repro.isa.basic_block import (
    BasicBlock,
    FLAGS_FAMILY,
    MEMORY_LOCATION,
    instruction_accesses,
)
from repro.isa.parser import parse_instruction


class TestInstructionAccesses:
    def test_add_reads_and_writes_destination(self):
        access = instruction_accesses(parse_instruction("ADD RAX, RBX"))
        assert {"RAX", "RBX"} <= access.reads
        assert "RAX" in access.writes
        assert FLAGS_FAMILY in access.writes

    def test_mov_does_not_read_destination(self):
        access = instruction_accesses(parse_instruction("MOV RAX, RBX"))
        assert "RAX" not in access.reads
        assert "RAX" in access.writes

    def test_register_aliasing_uses_families(self):
        access = instruction_accesses(parse_instruction("ADD EAX, EBX"))
        assert "RAX" in access.writes
        assert "RBX" in access.reads

    def test_memory_load_reads_address_registers_and_memory(self):
        access = instruction_accesses(parse_instruction("MOV RAX, QWORD PTR [RBX + RCX*4]"))
        assert {"RBX", "RCX", MEMORY_LOCATION} <= access.reads
        assert "RAX" in access.writes

    def test_memory_store_writes_memory(self):
        access = instruction_accesses(parse_instruction("MOV QWORD PTR [RDI], RSI"))
        assert MEMORY_LOCATION in access.writes
        assert {"RDI", "RSI"} <= access.reads

    def test_cmov_reads_flags(self):
        access = instruction_accesses(parse_instruction("CMOVG EAX, ECX"))
        assert FLAGS_FAMILY in access.reads

    def test_div_implicit_registers(self):
        access = instruction_accesses(parse_instruction("IDIV RCX"))
        assert {"RAX", "RDX", "RCX"} <= access.reads
        assert {"RAX", "RDX"} <= access.writes


class TestBasicBlock:
    def test_from_text_and_len(self, paper_example_block):
        assert len(paper_example_block) == 8
        assert paper_example_block.identifier == "table1"

    def test_iteration_and_indexing(self, paper_example_block):
        assert paper_example_block[0].mnemonic == "CMP"
        assert [i.mnemonic for i in paper_example_block][-1] == "CMP"

    def test_render_round_trip(self, paper_example_block):
        rendered = paper_example_block.render()
        reparsed = BasicBlock.from_text(rendered)
        assert len(reparsed) == len(paper_example_block)

    def test_mnemonic_histogram(self, paper_example_block):
        histogram = paper_example_block.mnemonic_histogram()
        assert histogram["CMP"] == 2
        assert histogram["MOV"] == 2
        assert histogram["CMOVG"] == 1

    def test_empty_block(self):
        block = BasicBlock([])
        assert len(block) == 0
        assert block.data_dependencies() == []
        assert block.critical_path_length() == 0.0


class TestDataDependencies:
    def test_simple_raw_dependency(self):
        block = BasicBlock.from_text("MOV RAX, 1\nADD RBX, RAX")
        dependencies = block.data_dependencies()
        assert any(d.producer == 0 and d.consumer == 1 and d.resource == "RAX" for d in dependencies)

    def test_dependency_through_aliased_registers(self):
        block = BasicBlock.from_text("MOV EAX, 1\nADD RBX, RAX")
        assert any(d.resource == "RAX" for d in block.data_dependencies())

    def test_most_recent_writer_wins(self):
        block = BasicBlock.from_text("MOV RAX, 1\nMOV RAX, 2\nADD RBX, RAX")
        raw = [d for d in block.data_dependencies() if d.resource == "RAX" and d.consumer == 2]
        assert len(raw) == 1
        assert raw[0].producer == 1

    def test_flags_dependency(self):
        block = BasicBlock.from_text("CMP RAX, RBX\nCMOVG RCX, RDX")
        assert any(d.resource == FLAGS_FAMILY for d in block.data_dependencies())

    def test_memory_dependency_store_then_load(self):
        block = BasicBlock.from_text("MOV QWORD PTR [RSP], RAX\nMOV RBX, QWORD PTR [RSP + 8]")
        assert any(d.resource == MEMORY_LOCATION for d in block.data_dependencies())

    def test_independent_instructions_have_no_dependencies(self):
        block = BasicBlock.from_text("MOV RAX, 1\nMOV RBX, 2")
        assert block.data_dependencies() == []

    def test_figure1_dependencies(self, figure1_block):
        """MOV writes RAX which the ADD address computation reads."""
        dependencies = figure1_block.data_dependencies()
        assert any(d.producer == 0 and d.consumer == 1 and d.resource == "RAX" for d in dependencies)


class TestCriticalPath:
    def test_independent_block_has_unit_critical_path(self):
        block = BasicBlock.from_text("MOV RAX, 1\nMOV RBX, 2\nMOV RCX, 3")
        assert block.critical_path_length() == pytest.approx(1.0)

    def test_chain_has_length_equal_to_depth(self):
        block = BasicBlock.from_text("ADD RAX, 1\nADD RAX, 2\nADD RAX, 3")
        assert block.critical_path_length() == pytest.approx(3.0)

    def test_custom_latency_function(self):
        block = BasicBlock.from_text("IMUL RAX, RBX\nADD RAX, 1")
        latency = lambda instruction: 3.0 if instruction.mnemonic == "IMUL" else 1.0
        assert block.critical_path_length(latency) == pytest.approx(4.0)

    def test_accesses_are_cached(self, paper_example_block):
        first = paper_example_block.accesses
        second = paper_example_block.accesses
        assert first is second
