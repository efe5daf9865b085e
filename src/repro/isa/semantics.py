"""Architectural semantics of x86-64 instructions.

The GRANITE graph builder needs, for each instruction, which of its explicit
operands are read and which are written, plus which implicit registers
(EFLAGS in particular) it reads or writes.  This module provides that
information as a declarative table keyed by mnemonic, covering the subset of
x86-64 used by the synthetic dataset generator and by the BHive-style blocks
in the paper's examples.

The table is intentionally conservative: any mnemonic that is not listed gets
a generic "first operand is read-write destination, remaining operands are
sources" semantics, which is the most common pattern in x86.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Sequence, Tuple

from repro.isa.instructions import Instruction
from repro.isa.operands import OperandKind

__all__ = [
    "OperandAction",
    "InstructionCategory",
    "InstructionSemantics",
    "semantics_for",
    "known_mnemonics",
    "CONDITION_CODES",
]


class OperandAction(enum.Enum):
    """How an instruction uses one of its explicit operands."""

    READ = "read"
    WRITE = "write"
    READ_WRITE = "read_write"


class InstructionCategory(enum.Enum):
    """Coarse functional category, used by the synthetic workload generator
    and by the analytical throughput oracle."""

    MOVE = "move"
    ARITHMETIC = "arithmetic"
    LOGIC = "logic"
    COMPARE = "compare"
    SHIFT = "shift"
    MULTIPLY = "multiply"
    DIVIDE = "divide"
    LEA = "lea"
    CONDITIONAL_MOVE = "conditional_move"
    SET_CONDITION = "set_condition"
    STACK = "stack"
    BRANCH = "branch"
    CONVERT = "convert"
    BIT_MANIPULATION = "bit_manipulation"
    VECTOR_MOVE = "vector_move"
    VECTOR_ARITHMETIC = "vector_arithmetic"
    VECTOR_MULTIPLY = "vector_multiply"
    VECTOR_DIVIDE = "vector_divide"
    VECTOR_LOGIC = "vector_logic"
    VECTOR_COMPARE = "vector_compare"
    NOP = "nop"
    OTHER = "other"


@dataclass(frozen=True)
class InstructionSemantics:
    """Read/write behaviour of a single mnemonic.

    Attributes:
        mnemonic: The mnemonic this record describes.
        operand_actions: Action for each explicit operand position.  When an
            instruction has fewer operands than actions the extra actions are
            ignored; when it has more, the last action is repeated.
        reads_flags: True when the instruction reads EFLAGS.
        writes_flags: True when the instruction writes EFLAGS.
        implicit_reads: Canonical register families read implicitly.
        implicit_writes: Canonical register families written implicitly.
        category: Functional category.
    """

    mnemonic: str
    operand_actions: Tuple[OperandAction, ...]
    reads_flags: bool = False
    writes_flags: bool = False
    implicit_reads: FrozenSet[str] = field(default_factory=frozenset)
    implicit_writes: FrozenSet[str] = field(default_factory=frozenset)
    category: InstructionCategory = InstructionCategory.OTHER

    def action_for_operand(self, position: int) -> OperandAction:
        """Returns the action for the explicit operand at ``position``."""
        if not self.operand_actions:
            return OperandAction.READ
        if position < len(self.operand_actions):
            return self.operand_actions[position]
        return self.operand_actions[-1]


_R = OperandAction.READ
_W = OperandAction.WRITE
_RW = OperandAction.READ_WRITE

#: Condition-code suffixes used to expand the Jcc / SETcc / CMOVcc families.
CONDITION_CODES: Tuple[str, ...] = (
    "O", "NO", "B", "NB", "AE", "NAE", "C", "NC", "E", "NE", "Z", "NZ",
    "BE", "NBE", "A", "NA", "S", "NS", "P", "NP", "PE", "PO",
    "L", "NL", "GE", "NGE", "LE", "NLE", "G", "NG",
)


def _sem(
    mnemonic: str,
    actions: Sequence[OperandAction],
    category: InstructionCategory,
    *,
    reads_flags: bool = False,
    writes_flags: bool = False,
    implicit_reads: Sequence[str] = (),
    implicit_writes: Sequence[str] = (),
) -> InstructionSemantics:
    return InstructionSemantics(
        mnemonic=mnemonic.upper(),
        operand_actions=tuple(actions),
        reads_flags=reads_flags,
        writes_flags=writes_flags,
        implicit_reads=frozenset(name.upper() for name in implicit_reads),
        implicit_writes=frozenset(name.upper() for name in implicit_writes),
        category=category,
    )


def _build_semantics_table() -> Dict[str, InstructionSemantics]:
    table: Dict[str, InstructionSemantics] = {}

    def add(record: InstructionSemantics) -> None:
        table[record.mnemonic] = record

    # Moves and loads.
    for mnemonic in ("MOV", "MOVZX", "MOVSX", "MOVSXD", "MOVBE", "LDDQU"):
        add(_sem(mnemonic, (_W, _R), InstructionCategory.MOVE))
    add(_sem("XCHG", (_RW, _RW), InstructionCategory.MOVE))
    add(_sem("LEA", (_W, _R), InstructionCategory.LEA))

    # Integer ALU.
    for mnemonic in ("ADD", "SUB", "AND", "OR", "XOR"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.ARITHMETIC
                 if mnemonic in ("ADD", "SUB") else InstructionCategory.LOGIC,
                 writes_flags=True))
    for mnemonic in ("ADC", "SBB"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.ARITHMETIC,
                 reads_flags=True, writes_flags=True))
    for mnemonic in ("INC", "DEC", "NEG", "NOT"):
        writes_flags = mnemonic != "NOT"
        add(_sem(mnemonic, (_RW,), InstructionCategory.ARITHMETIC,
                 writes_flags=writes_flags))
    add(_sem("CMP", (_R, _R), InstructionCategory.COMPARE, writes_flags=True))
    add(_sem("TEST", (_R, _R), InstructionCategory.COMPARE, writes_flags=True))

    # Shifts and rotates.
    for mnemonic in ("SHL", "SAL", "SHR", "SAR", "ROL", "ROR", "RCL", "RCR"):
        reads_flags = mnemonic in ("RCL", "RCR")
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.SHIFT,
                 reads_flags=reads_flags, writes_flags=True))
    for mnemonic in ("SHLD", "SHRD"):
        add(_sem(mnemonic, (_RW, _R, _R), InstructionCategory.SHIFT, writes_flags=True))

    # Multiplication and division.
    add(_sem("IMUL", (_RW, _R, _R), InstructionCategory.MULTIPLY, writes_flags=True))
    add(_sem("MUL", (_R,), InstructionCategory.MULTIPLY, writes_flags=True,
             implicit_reads=("RAX",), implicit_writes=("RAX", "RDX")))
    for mnemonic in ("IDIV", "DIV"):
        add(_sem(mnemonic, (_R,), InstructionCategory.DIVIDE, writes_flags=True,
                 implicit_reads=("RAX", "RDX"), implicit_writes=("RAX", "RDX")))

    # Sign extensions of RAX/EAX.
    add(_sem("CDQ", (), InstructionCategory.CONVERT,
             implicit_reads=("RAX",), implicit_writes=("RDX",)))
    add(_sem("CQO", (), InstructionCategory.CONVERT,
             implicit_reads=("RAX",), implicit_writes=("RDX",)))
    add(_sem("CDQE", (), InstructionCategory.CONVERT,
             implicit_reads=("RAX",), implicit_writes=("RAX",)))
    add(_sem("CBW", (), InstructionCategory.CONVERT,
             implicit_reads=("RAX",), implicit_writes=("RAX",)))
    add(_sem("CWDE", (), InstructionCategory.CONVERT,
             implicit_reads=("RAX",), implicit_writes=("RAX",)))

    # Conditional moves / sets / branches.
    for code in CONDITION_CODES:
        add(_sem(f"CMOV{code}", (_RW, _R), InstructionCategory.CONDITIONAL_MOVE,
                 reads_flags=True))
        add(_sem(f"SET{code}", (_W,), InstructionCategory.SET_CONDITION,
                 reads_flags=True))
        add(_sem(f"J{code}", (_R,), InstructionCategory.BRANCH, reads_flags=True))
    add(_sem("JMP", (_R,), InstructionCategory.BRANCH))
    add(_sem("CALL", (_R,), InstructionCategory.BRANCH,
             implicit_reads=("RSP",), implicit_writes=("RSP",)))
    add(_sem("RET", (), InstructionCategory.BRANCH,
             implicit_reads=("RSP",), implicit_writes=("RSP",)))

    # Stack operations.
    add(_sem("PUSH", (_R,), InstructionCategory.STACK,
             implicit_reads=("RSP",), implicit_writes=("RSP",)))
    add(_sem("POP", (_W,), InstructionCategory.STACK,
             implicit_reads=("RSP",), implicit_writes=("RSP",)))

    # Bit manipulation.
    for mnemonic in ("BSF", "BSR", "LZCNT", "TZCNT", "POPCNT"):
        add(_sem(mnemonic, (_W, _R), InstructionCategory.BIT_MANIPULATION,
                 writes_flags=True))
    for mnemonic in ("BT",):
        add(_sem(mnemonic, (_R, _R), InstructionCategory.BIT_MANIPULATION,
                 writes_flags=True))
    for mnemonic in ("BTS", "BTR", "BTC"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.BIT_MANIPULATION,
                 writes_flags=True))
    add(_sem("BSWAP", (_RW,), InstructionCategory.BIT_MANIPULATION))
    for mnemonic in ("ANDN",):
        add(_sem(mnemonic, (_W, _R, _R), InstructionCategory.BIT_MANIPULATION,
                 writes_flags=True))

    add(_sem("NOP", (_R,), InstructionCategory.NOP))

    # Scalar SSE moves.
    for mnemonic in ("MOVSS", "MOVSD", "MOVAPS", "MOVAPD", "MOVUPS", "MOVUPD",
                     "MOVDQA", "MOVDQU", "MOVQ", "MOVD", "MOVHPS", "MOVLPS",
                     "VMOVAPS", "VMOVUPS", "VMOVDQA", "VMOVDQU", "VMOVSS", "VMOVSD"):
        add(_sem(mnemonic, (_W, _R), InstructionCategory.VECTOR_MOVE))

    # Scalar / packed SSE arithmetic.
    for mnemonic in ("ADDSS", "ADDSD", "SUBSS", "SUBSD", "ADDPS", "ADDPD",
                     "SUBPS", "SUBPD", "MINSS", "MINSD", "MAXSS", "MAXSD",
                     "PADDD", "PADDQ", "PADDB", "PADDW", "PSUBD", "PSUBQ",
                     "VADDPS", "VADDPD", "VSUBPS", "VSUBPD"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.VECTOR_ARITHMETIC))
    for mnemonic in ("MULSS", "MULSD", "MULPS", "MULPD", "PMULLD", "PMULLW",
                     "PMULUDQ", "VMULPS", "VMULPD"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.VECTOR_MULTIPLY))
    for mnemonic in ("DIVSS", "DIVSD", "DIVPS", "DIVPD", "SQRTSS", "SQRTSD",
                     "SQRTPS", "SQRTPD", "VDIVPS", "VDIVPD"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.VECTOR_DIVIDE))
    for mnemonic in ("XORPS", "XORPD", "ANDPS", "ANDPD", "ORPS", "ORPD",
                     "PXOR", "PAND", "POR", "PANDN", "VXORPS", "VPXOR"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.VECTOR_LOGIC))
    for mnemonic in ("UCOMISS", "UCOMISD", "COMISS", "COMISD"):
        add(_sem(mnemonic, (_R, _R), InstructionCategory.VECTOR_COMPARE,
                 writes_flags=True))
    for mnemonic in ("PCMPEQB", "PCMPEQD", "PCMPGTD"):
        add(_sem(mnemonic, (_RW, _R), InstructionCategory.VECTOR_COMPARE))

    # FMA-style three operand AVX arithmetic.
    for mnemonic in ("VFMADD132SS", "VFMADD213SS", "VFMADD231SS",
                     "VFMADD132SD", "VFMADD213SD", "VFMADD231SD",
                     "VFMADD132PS", "VFMADD213PS", "VFMADD231PS",
                     "VFMADD132PD", "VFMADD213PD", "VFMADD231PD"):
        add(_sem(mnemonic, (_RW, _R, _R), InstructionCategory.VECTOR_MULTIPLY))

    # Conversions.
    for mnemonic in ("CVTSI2SS", "CVTSI2SD", "CVTTSS2SI", "CVTTSD2SI",
                     "CVTSS2SD", "CVTSD2SS", "CVTDQ2PS", "CVTPS2DQ",
                     "CVTDQ2PD", "CVTPD2DQ"):
        add(_sem(mnemonic, (_W, _R), InstructionCategory.CONVERT))

    # Shuffles and unpacks (treated as vector logic for the oracle).
    for mnemonic in ("PSHUFD", "PSHUFB", "SHUFPS", "SHUFPD", "UNPCKLPS",
                     "UNPCKHPS", "PUNPCKLDQ", "PUNPCKHDQ", "VPERMILPS",
                     "PSLLD", "PSRLD", "PSLLQ", "PSRLQ", "PSLLDQ", "PSRLDQ"):
        add(_sem(mnemonic, (_RW, _R, _R), InstructionCategory.VECTOR_LOGIC))

    # String operations (used with REP prefixes).
    add(_sem("MOVSB", (), InstructionCategory.MOVE,
             implicit_reads=("RSI", "RDI", "RCX"),
             implicit_writes=("RSI", "RDI", "RCX")))
    add(_sem("STOSB", (), InstructionCategory.MOVE,
             implicit_reads=("RAX", "RDI", "RCX"),
             implicit_writes=("RDI", "RCX")))
    add(_sem("STOSQ", (), InstructionCategory.MOVE,
             implicit_reads=("RAX", "RDI", "RCX"),
             implicit_writes=("RDI", "RCX")))

    return table


_SEMANTICS_TABLE = _build_semantics_table()

_DEFAULT_ACTIONS = (_RW, _R, _R, _R)


def semantics_for(instruction_or_mnemonic: "Instruction | str") -> InstructionSemantics:
    """Returns the semantics record for an instruction or mnemonic.

    Unknown mnemonics fall back to a generic "destination first" pattern so
    that the graph builder and the oracle never fail on unusual instructions.
    """
    if isinstance(instruction_or_mnemonic, Instruction):
        mnemonic = instruction_or_mnemonic.mnemonic
    else:
        mnemonic = instruction_or_mnemonic.upper()
    record = _SEMANTICS_TABLE.get(mnemonic)
    if record is not None:
        return record
    return InstructionSemantics(
        mnemonic=mnemonic,
        operand_actions=_DEFAULT_ACTIONS,
        category=InstructionCategory.OTHER,
    )


def known_mnemonics() -> Tuple[str, ...]:
    """Returns all mnemonics with explicit semantics, sorted."""
    return tuple(sorted(_SEMANTICS_TABLE))


def operand_reads_and_writes(
    instruction: Instruction,
) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Returns (read_positions, write_positions) of explicit operands.

    Memory operands are special: the registers used in the address
    computation are always *read*, regardless of whether the memory location
    itself is read or written; that distinction is handled by the caller.
    Immediate operands are never written.
    """
    semantics = semantics_for(instruction)
    reads = []
    writes = []
    for position, operand in enumerate(instruction.operands):
        action = semantics.action_for_operand(position)
        if operand.kind in (OperandKind.IMMEDIATE, OperandKind.FP_IMMEDIATE):
            reads.append(position)
            continue
        if action in (OperandAction.READ, OperandAction.READ_WRITE):
            reads.append(position)
        if action in (OperandAction.WRITE, OperandAction.READ_WRITE):
            writes.append(position)
    return tuple(reads), tuple(writes)
