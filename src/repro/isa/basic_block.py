"""Basic block container and dependency analysis.

A basic block is a straight-line sequence of instructions with a single entry
and a single exit.  Besides holding the instructions, this module implements
the def-use analysis that the GRANITE graph encoding and the analytical
throughput oracle both rely on: for every instruction we compute the set of
register families it reads and writes (including implicit operands and the
flags register), and from those sets the intra-block data dependency edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.isa.instructions import Instruction, render_instructions
from repro.isa.operands import OperandKind
from repro.isa.parser import parse_block_text
from repro.isa.registers import canonical_register
from repro.isa.semantics import OperandAction, semantics_for

__all__ = ["InstructionAccesses", "BasicBlock", "DataDependency"]

#: Pseudo register family used to model memory carried dependencies.  The
#: oracle and the graph builder both treat memory conservatively: every store
#: may feed every later load.
MEMORY_LOCATION = "<MEM>"
FLAGS_FAMILY = "EFLAGS"


@dataclass(frozen=True)
class InstructionAccesses:
    """Register families and memory locations accessed by an instruction.

    Attributes:
        reads: Canonical register families read (including implicit ones and
            address registers of memory operands), plus ``"<MEM>"`` when the
            instruction loads from memory.
        writes: Canonical register families written, plus ``"<MEM>"`` when
            the instruction stores to memory.
    """

    reads: FrozenSet[str]
    writes: FrozenSet[str]


@dataclass(frozen=True)
class DataDependency:
    """A read-after-write dependency between two instructions in a block.

    Attributes:
        producer: Index of the producing instruction.
        consumer: Index of the consuming instruction.
        resource: Canonical register family (or ``"<MEM>"`` / ``"EFLAGS"``)
            that carries the dependency.
    """

    producer: int
    consumer: int
    resource: str


def instruction_accesses(instruction: Instruction) -> InstructionAccesses:
    """Computes the read and write sets of a single instruction."""
    semantics = semantics_for(instruction)
    reads: set[str] = set(semantics.implicit_reads)
    writes: set[str] = set(semantics.implicit_writes)
    if semantics.reads_flags:
        reads.add(FLAGS_FAMILY)
    if semantics.writes_flags:
        writes.add(FLAGS_FAMILY)

    for position, operand in enumerate(instruction.operands):
        action = semantics.action_for_operand(position)
        if operand.kind is OperandKind.REGISTER:
            family = canonical_register(operand.register)
            if action in (OperandAction.READ, OperandAction.READ_WRITE):
                reads.add(family)
            if action in (OperandAction.WRITE, OperandAction.READ_WRITE):
                writes.add(family)
        elif operand.kind is OperandKind.MEMORY:
            for register_name in operand.memory.address_registers:
                reads.add(register_name)
            if action in (OperandAction.READ, OperandAction.READ_WRITE):
                reads.add(MEMORY_LOCATION)
            if action in (OperandAction.WRITE, OperandAction.READ_WRITE):
                writes.add(MEMORY_LOCATION)
    return InstructionAccesses(reads=frozenset(reads), writes=frozenset(writes))


@dataclass
class BasicBlock:
    """A basic block: an ordered sequence of instructions.

    Attributes:
        instructions: The instructions of the block, in program order.
        identifier: Optional stable identifier (dataset row id, hex string…).
    """

    instructions: Tuple[Instruction, ...]
    identifier: Optional[str] = None
    _accesses: Optional[Tuple[InstructionAccesses, ...]] = field(
        default=None, repr=False, compare=False
    )
    _canonical_text: Optional[str] = field(default=None, repr=False, compare=False)

    def __init__(
        self,
        instructions: Sequence[Instruction],
        identifier: Optional[str] = None,
    ) -> None:
        self.instructions = tuple(instructions)
        self.identifier = identifier
        self._accesses = None
        self._canonical_text = None

    @staticmethod
    def from_text(text: str, identifier: Optional[str] = None) -> "BasicBlock":
        """Parses a multi-line Intel-syntax snippet into a basic block."""
        return BasicBlock(parse_block_text(text), identifier=identifier)

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    def render(self) -> str:
        """Renders the block as Intel-syntax assembly, one line per instruction."""
        return render_instructions(self.instructions)

    def canonical_text(self) -> str:
        """The rendered text, memoized.

        This is the cache key used by the models' encode caches and the
        serving layer; memoizing it keeps repeated predictions of the same
        block object from re-rendering the assembly every call.  The
        instruction tuple is immutable after construction, so the memo
        cannot go stale.
        """
        if self._canonical_text is None:
            self._canonical_text = self.render()
        return self._canonical_text

    @property
    def accesses(self) -> Tuple[InstructionAccesses, ...]:
        """Read/write sets of each instruction, computed lazily and cached."""
        if self._accesses is None:
            self._accesses = tuple(
                instruction_accesses(instruction) for instruction in self.instructions
            )
        return self._accesses

    def data_dependencies(self) -> List[DataDependency]:
        """Computes intra-block read-after-write dependencies.

        For every resource read by an instruction, the dependency points to
        the *most recent* earlier instruction that wrote that resource (the
        standard def-use chain construction).  Memory dependencies use the
        conservative single-location model.
        """
        last_writer: Dict[str, int] = {}
        dependencies: List[DataDependency] = []
        for index, access in enumerate(self.accesses):
            for resource in sorted(access.reads):
                producer = last_writer.get(resource)
                if producer is not None:
                    dependencies.append(
                        DataDependency(producer=producer, consumer=index, resource=resource)
                    )
            for resource in access.writes:
                last_writer[resource] = index
        return dependencies

    def critical_path_length(self, latency_of=None) -> float:
        """Length of the longest dependency chain through the block.

        Args:
            latency_of: Optional callable mapping an instruction to its
                latency in cycles.  Defaults to a unit latency per
                instruction, which is sufficient for structural analyses.

        Returns:
            The length of the critical path in (possibly fractional) cycles.
        """
        if not self.instructions:
            return 0.0
        if latency_of is None:
            latency_of = lambda instruction: 1.0  # noqa: E731 - tiny default
        finish_time = [0.0] * len(self.instructions)
        producers: Dict[int, List[int]] = {index: [] for index in range(len(self.instructions))}
        for dependency in self.data_dependencies():
            producers[dependency.consumer].append(dependency.producer)
        for index, instruction in enumerate(self.instructions):
            ready = 0.0
            for producer in producers[index]:
                ready = max(ready, finish_time[producer])
            finish_time[index] = ready + float(latency_of(instruction))
        return max(finish_time)

    def mnemonic_histogram(self) -> Dict[str, int]:
        """Counts occurrences of each mnemonic in the block."""
        histogram: Dict[str, int] = {}
        for instruction in self.instructions:
            histogram[instruction.mnemonic] = histogram.get(instruction.mnemonic, 0) + 1
        return histogram
