"""Construction of the GRANITE graph from a basic block.

This module implements Section 3.1 of the paper: every instruction becomes a
mnemonic node (plus one node per prefix), every operand becomes a value node
(register, immediate, floating-point immediate, memory value, or address
computation), and edges record structural order, data dependencies, and the
structure of address computations.

The important encoding rules, all reproduced here:

* A value node represents *a value in a storage location*, not the location
  itself.  Each time an instruction writes a register, a fresh value node for
  that register is created; later readers connect to the most recent value
  node of the register family (data dependencies follow register aliasing,
  e.g. ``EAX`` reads the value written to ``RAX``).
* Values read but never written inside the block get a value node with no
  incoming edge (live-in values).
* A memory load and a memory store use *distinct* memory value nodes even
  within one instruction, because the value read may differ from the value
  written (Figure 1).
* Every memory operand contributes an address computation node whose inputs
  are connected with the dedicated ``ADDRESS_*`` edge types.
* Implicit operands (EFLAGS and implicitly read/written registers such as
  ``RAX`` for ``MUL``) are modelled exactly like explicit register operands,
  which is how ``ADD ... → EFLAGS`` appears in Figure 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.graph.graph import BlockGraph
from repro.graph.types import EdgeType, NodeType, SpecialToken
from repro.isa.basic_block import BasicBlock
from repro.isa.instructions import Instruction
from repro.isa.operands import MemoryReference, OperandKind
from repro.isa.registers import canonical_register
from repro.isa.semantics import OperandAction, semantics_for

__all__ = ["GraphBuilder", "build_block_graph"]


@dataclass
class GraphBuilderConfig:
    """Options controlling graph construction (used by the edge ablation).

    Attributes:
        include_structural_edges: Emit STRUCTURAL_DEPENDENCY edges between
            consecutive instructions.
        include_data_edges: Emit INPUT_OPERAND / OUTPUT_OPERAND edges (the
            data-dependency structure).  Disabling this reduces the graph to
            a purely sequential encoding, the ablation in
            ``benchmarks/test_ablation_edges.py``.
        include_address_edges: Emit the ADDRESS_* edges and address
            computation nodes.
        include_implicit_operands: Model implicit register / EFLAGS operands.
    """

    include_structural_edges: bool = True
    include_data_edges: bool = True
    include_address_edges: bool = True
    include_implicit_operands: bool = True


class GraphBuilder:
    """Builds :class:`BlockGraph` objects from basic blocks."""

    def __init__(self, config: Optional[GraphBuilderConfig] = None) -> None:
        self.config = config or GraphBuilderConfig()

    # ------------------------------------------------------------------ #
    # Public API.
    # ------------------------------------------------------------------ #
    def build(self, block: BasicBlock) -> BlockGraph:
        """Builds the GRANITE graph of ``block``."""
        graph = BlockGraph(identifier=block.identifier)
        #: Most recent value node index for every canonical register family.
        current_value: Dict[str, int] = {}
        previous_mnemonic_node: Optional[int] = None

        for instruction_index, instruction in enumerate(block.instructions):
            mnemonic_node = graph.add_node(
                instruction.mnemonic, NodeType.MNEMONIC, instruction_index
            )
            graph.instruction_node_indices.append(mnemonic_node)

            for prefix in instruction.prefixes:
                prefix_node = graph.add_node(prefix, NodeType.PREFIX, instruction_index)
                graph.add_edge(prefix_node, mnemonic_node, EdgeType.PREFIX)

            if (
                self.config.include_structural_edges
                and previous_mnemonic_node is not None
            ):
                graph.add_edge(
                    previous_mnemonic_node, mnemonic_node, EdgeType.STRUCTURAL_DEPENDENCY
                )
            previous_mnemonic_node = mnemonic_node

            self._add_operand_nodes(
                graph, instruction, instruction_index, mnemonic_node, current_value
            )

        return graph

    # ------------------------------------------------------------------ #
    # Operand handling.
    # ------------------------------------------------------------------ #
    def _register_value_node(
        self,
        graph: BlockGraph,
        register_name: str,
        current_value: Dict[str, int],
        instruction_index: int,
    ) -> int:
        """Returns the node carrying the current value of a register family,
        creating a live-in node when the register has not been written yet."""
        family = canonical_register(register_name)
        node_index = current_value.get(family)
        if node_index is None:
            node_index = graph.add_node(register_name.upper(), NodeType.REGISTER, -1)
            current_value[family] = node_index
        return node_index

    def _add_address_computation(
        self,
        graph: BlockGraph,
        memory: MemoryReference,
        current_value: Dict[str, int],
        mnemonic_node: int,
        instruction_index: int,
    ) -> None:
        """Adds the address computation node for a memory operand and
        connects it as an input of the instruction."""
        address_node = graph.add_node(
            SpecialToken.ADDRESS_COMPUTATION.value,
            NodeType.ADDRESS_COMPUTATION,
            instruction_index,
        )
        if self.config.include_address_edges:
            if memory.base is not None:
                base_node = self._register_value_node(
                    graph, memory.base, current_value, instruction_index
                )
                graph.add_edge(base_node, address_node, EdgeType.ADDRESS_BASE)
            if memory.index is not None:
                index_node = self._register_value_node(
                    graph, memory.index, current_value, instruction_index
                )
                graph.add_edge(index_node, address_node, EdgeType.ADDRESS_INDEX)
            if memory.segment is not None:
                segment_node = self._register_value_node(
                    graph, memory.segment, current_value, instruction_index
                )
                graph.add_edge(segment_node, address_node, EdgeType.ADDRESS_SEGMENT)
            if memory.displacement != 0:
                displacement_node = graph.add_node(
                    SpecialToken.IMMEDIATE.value, NodeType.IMMEDIATE, instruction_index
                )
                graph.add_edge(
                    displacement_node, address_node, EdgeType.ADDRESS_DISPLACEMENT
                )
        if self.config.include_data_edges:
            graph.add_edge(address_node, mnemonic_node, EdgeType.INPUT_OPERAND)

    def _add_operand_nodes(
        self,
        graph: BlockGraph,
        instruction: Instruction,
        instruction_index: int,
        mnemonic_node: int,
        current_value: Dict[str, int],
    ) -> None:
        semantics = semantics_for(instruction)

        # Explicit operands, in Intel order.
        for position, operand in enumerate(instruction.operands):
            action = semantics.action_for_operand(position)
            if operand.kind is OperandKind.REGISTER:
                self._add_register_operand(
                    graph,
                    operand.register,
                    action,
                    current_value,
                    mnemonic_node,
                    instruction_index,
                )
            elif operand.kind is OperandKind.IMMEDIATE:
                if self.config.include_data_edges:
                    immediate_node = graph.add_node(
                        SpecialToken.IMMEDIATE.value, NodeType.IMMEDIATE, instruction_index
                    )
                    graph.add_edge(immediate_node, mnemonic_node, EdgeType.INPUT_OPERAND)
            elif operand.kind is OperandKind.FP_IMMEDIATE:
                if self.config.include_data_edges:
                    fp_node = graph.add_node(
                        SpecialToken.FP_IMMEDIATE.value,
                        NodeType.FP_IMMEDIATE,
                        instruction_index,
                    )
                    graph.add_edge(fp_node, mnemonic_node, EdgeType.INPUT_OPERAND)
            elif operand.kind is OperandKind.MEMORY:
                self._add_memory_operand(
                    graph,
                    operand.memory,
                    action,
                    current_value,
                    mnemonic_node,
                    instruction_index,
                )

        # Implicit operands: registers and EFLAGS.
        if self.config.include_implicit_operands and self.config.include_data_edges:
            for register_name in sorted(semantics.implicit_reads):
                self._add_register_operand(
                    graph, register_name, OperandAction.READ, current_value,
                    mnemonic_node, instruction_index,
                )
            if semantics.reads_flags:
                self._add_register_operand(
                    graph, "EFLAGS", OperandAction.READ, current_value,
                    mnemonic_node, instruction_index,
                )
            for register_name in sorted(semantics.implicit_writes):
                self._add_register_operand(
                    graph, register_name, OperandAction.WRITE, current_value,
                    mnemonic_node, instruction_index,
                )
            if semantics.writes_flags:
                self._add_register_operand(
                    graph, "EFLAGS", OperandAction.WRITE, current_value,
                    mnemonic_node, instruction_index,
                )

    def _add_register_operand(
        self,
        graph: BlockGraph,
        register_name: str,
        action: OperandAction,
        current_value: Dict[str, int],
        mnemonic_node: int,
        instruction_index: int,
    ) -> None:
        if not self.config.include_data_edges:
            return
        family = canonical_register(register_name)
        if action in (OperandAction.READ, OperandAction.READ_WRITE):
            value_node = self._register_value_node(
                graph, register_name, current_value, instruction_index
            )
            graph.add_edge(value_node, mnemonic_node, EdgeType.INPUT_OPERAND)
        if action in (OperandAction.WRITE, OperandAction.READ_WRITE):
            # Writing creates a *new* value node for the register family.
            new_value_node = graph.add_node(
                register_name.upper(), NodeType.REGISTER, instruction_index
            )
            graph.add_edge(mnemonic_node, new_value_node, EdgeType.OUTPUT_OPERAND)
            current_value[family] = new_value_node

    def _add_memory_operand(
        self,
        graph: BlockGraph,
        memory: MemoryReference,
        action: OperandAction,
        current_value: Dict[str, int],
        mnemonic_node: int,
        instruction_index: int,
    ) -> None:
        self._add_address_computation(
            graph, memory, current_value, mnemonic_node, instruction_index
        )
        if not self.config.include_data_edges:
            return
        if action in (OperandAction.READ, OperandAction.READ_WRITE):
            load_node = graph.add_node(
                SpecialToken.MEMORY_VALUE.value, NodeType.MEMORY_VALUE, -1
            )
            graph.add_edge(load_node, mnemonic_node, EdgeType.INPUT_OPERAND)
        if action in (OperandAction.WRITE, OperandAction.READ_WRITE):
            store_node = graph.add_node(
                SpecialToken.MEMORY_VALUE.value, NodeType.MEMORY_VALUE, instruction_index
            )
            graph.add_edge(mnemonic_node, store_node, EdgeType.OUTPUT_OPERAND)


def build_block_graph(
    block: BasicBlock, config: Optional[GraphBuilderConfig] = None
) -> BlockGraph:
    """Convenience wrapper: builds the GRANITE graph of one basic block."""
    return GraphBuilder(config).build(block)
