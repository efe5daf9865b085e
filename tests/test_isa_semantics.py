"""Tests for instruction semantics (repro.isa.semantics)."""

from repro.isa.parser import parse_instruction
from repro.isa.semantics import (
    CONDITION_CODES,
    InstructionCategory,
    OperandAction,
    known_mnemonics,
    operand_reads_and_writes,
    semantics_for,
)


class TestSemanticsTable:
    def test_mov_writes_first_reads_second(self):
        semantics = semantics_for("MOV")
        assert semantics.action_for_operand(0) is OperandAction.WRITE
        assert semantics.action_for_operand(1) is OperandAction.READ
        assert not semantics.writes_flags

    def test_add_is_read_modify_write_and_writes_flags(self):
        semantics = semantics_for("ADD")
        assert semantics.action_for_operand(0) is OperandAction.READ_WRITE
        assert semantics.writes_flags
        assert not semantics.reads_flags

    def test_cmp_reads_both_operands(self):
        semantics = semantics_for("CMP")
        assert semantics.action_for_operand(0) is OperandAction.READ
        assert semantics.action_for_operand(1) is OperandAction.READ
        assert semantics.writes_flags

    def test_adc_reads_and_writes_flags(self):
        semantics = semantics_for("ADC")
        assert semantics.reads_flags and semantics.writes_flags

    def test_cmov_reads_flags_only(self):
        semantics = semantics_for("CMOVG")
        assert semantics.reads_flags and not semantics.writes_flags
        assert semantics.category is InstructionCategory.CONDITIONAL_MOVE

    def test_all_condition_codes_expanded(self):
        for code in CONDITION_CODES:
            assert semantics_for(f"CMOV{code}").reads_flags
            assert semantics_for(f"SET{code}").reads_flags
            assert semantics_for(f"J{code}").category is InstructionCategory.BRANCH

    def test_mul_div_implicit_operands(self):
        mul = semantics_for("MUL")
        assert "RAX" in mul.implicit_reads
        assert {"RAX", "RDX"} <= mul.implicit_writes
        div = semantics_for("IDIV")
        assert {"RAX", "RDX"} <= div.implicit_reads
        assert div.category is InstructionCategory.DIVIDE

    def test_push_pop_touch_stack_pointer(self):
        assert "RSP" in semantics_for("PUSH").implicit_reads
        assert "RSP" in semantics_for("POP").implicit_writes

    def test_unknown_mnemonic_gets_generic_semantics(self):
        semantics = semantics_for("FROBNICATE")
        assert semantics.category is InstructionCategory.OTHER
        assert semantics.action_for_operand(0) is OperandAction.READ_WRITE
        assert semantics.action_for_operand(1) is OperandAction.READ

    def test_known_mnemonics_is_sorted_and_nonempty(self):
        mnemonics = known_mnemonics()
        assert len(mnemonics) > 150
        assert list(mnemonics) == sorted(mnemonics)
        assert "ADD" in mnemonics and "MOVSD" in mnemonics

    def test_semantics_accepts_instruction_objects(self):
        instruction = parse_instruction("XOR EAX, EAX")
        assert semantics_for(instruction).writes_flags

    def test_vector_categories(self):
        assert semantics_for("MULSD").category is InstructionCategory.VECTOR_MULTIPLY
        assert semantics_for("DIVSD").category is InstructionCategory.VECTOR_DIVIDE
        assert semantics_for("PXOR").category is InstructionCategory.VECTOR_LOGIC
        assert semantics_for("UCOMISD").writes_flags

    def test_action_for_operand_beyond_declared_repeats_last(self):
        semantics = semantics_for("IMUL")
        assert semantics.action_for_operand(5) is OperandAction.READ


class TestOperandReadsAndWrites:
    def test_add_register_register(self):
        instruction = parse_instruction("ADD RAX, RBX")
        reads, writes = operand_reads_and_writes(instruction)
        assert reads == (0, 1)
        assert writes == (0,)

    def test_mov_register_immediate(self):
        instruction = parse_instruction("MOV RAX, 5")
        reads, writes = operand_reads_and_writes(instruction)
        assert reads == (1,)
        assert writes == (0,)

    def test_store_to_memory(self):
        instruction = parse_instruction("MOV QWORD PTR [RSP + 8], RAX")
        reads, writes = operand_reads_and_writes(instruction)
        assert 1 in reads
        assert writes == (0,)

    def test_immediate_never_written(self):
        instruction = parse_instruction("CMP RAX, 7")
        _, writes = operand_reads_and_writes(instruction)
        assert writes == ()
