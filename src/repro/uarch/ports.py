"""Execution-port and latency model of the target microarchitectures.

The GRANITE paper trains on hardware measurements from three Intel
microarchitectures: Ivy Bridge, Haswell and Skylake.  Real measurements are
not available offline, so this package provides an analytical, port-based
throughput model in the spirit of llvm-mca / uiCA that serves two purposes:

1. as the *ground-truth oracle* used to label the synthetic datasets, and
2. as the hand-tuned analytical baseline the paper contrasts learned models
   against (Section 2.1).

The model is deliberately simplified but structured like the real machines:
each instruction decomposes into micro-ops, each micro-op can execute on a
subset of the execution ports, every instruction has a result latency, and
the three microarchitectures differ in their port counts, latencies and
divider implementations — which is exactly the kind of variation the
multi-task experiments in the paper exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

from repro.isa.instructions import Instruction
from repro.isa.semantics import InstructionCategory, semantics_for

__all__ = [
    "MicroOp",
    "InstructionCost",
    "PortModel",
    "MicroArchitecture",
    "IVY_BRIDGE",
    "HASWELL",
    "SKYLAKE",
    "MICROARCHITECTURES",
    "get_microarchitecture",
]


@dataclass(frozen=True)
class MicroOp:
    """A single micro-operation that can execute on any of a set of ports."""

    ports: FrozenSet[str]

    @staticmethod
    def on(*ports: str) -> "MicroOp":
        return MicroOp(ports=frozenset(ports))


@dataclass(frozen=True)
class InstructionCost:
    """Cost of one instruction on one microarchitecture.

    Attributes:
        micro_ops: The execution micro-ops (excluding load/store micro-ops,
            which are added automatically for memory operands).
        latency: Result latency in cycles (register-to-register).
        notes: Optional free-form description, for debugging.
    """

    micro_ops: Tuple[MicroOp, ...]
    latency: float
    notes: str = ""

    @property
    def num_micro_ops(self) -> int:
        return len(self.micro_ops)


@dataclass(frozen=True)
class PortModel:
    """The execution ports of one microarchitecture."""

    #: All execution port names (e.g. ``"p0"``).
    ports: Tuple[str, ...]
    #: Ports able to execute simple integer ALU micro-ops.
    alu_ports: Tuple[str, ...]
    #: Ports able to execute load micro-ops.
    load_ports: Tuple[str, ...]
    #: Ports able to execute store-address micro-ops.
    store_address_ports: Tuple[str, ...]
    #: Ports able to execute store-data micro-ops.
    store_data_ports: Tuple[str, ...]
    #: Ports able to execute vector/floating-point micro-ops.
    vector_ports: Tuple[str, ...]
    #: Port hosting the integer/FP divider.
    divider_port: str
    #: Ports able to execute branch micro-ops.
    branch_ports: Tuple[str, ...]


@dataclass(frozen=True)
class MicroArchitecture:
    """A complete analytical model of one microarchitecture.

    Attributes:
        name: Human-readable name used throughout the paper's tables.
        port_model: The execution-port layout.
        issue_width: Micro-ops issued (renamed) per cycle.
        latency: Per-category result latency in cycles.
        divide_latency: Latency of integer/FP division.
        divide_inverse_throughput: Cycles the divider is blocked per divide.
        load_latency: Additional latency of a load feeding a dependent op.
        multiply_latency: Latency of integer multiplication.
        fp_multiply_latency: Latency of scalar FP multiplication.
        fp_add_latency: Latency of scalar FP addition.
        lock_penalty: Extra cycles for LOCK-prefixed instructions.
        rep_cost_per_iteration: Amortised cycles per REP string iteration.
    """

    name: str
    port_model: PortModel
    issue_width: int
    divide_latency: float
    divide_inverse_throughput: float
    load_latency: float
    store_latency: float
    multiply_latency: float
    fp_multiply_latency: float
    fp_add_latency: float
    fp_divide_latency: float
    fp_divide_inverse_throughput: float
    lock_penalty: float
    rep_cost_per_iteration: float
    #: Calibration constant: measured-throughput = cycles * scale.  The two
    #: dataset methodologies in the paper apply different normalisations.
    nominal_frequency_ghz: float = 3.5

    # ------------------------------------------------------------------ #
    # Instruction costing.
    # ------------------------------------------------------------------ #
    def cost_of(self, instruction: Instruction) -> InstructionCost:
        """Returns execution micro-ops and latency for ``instruction``.

        Memory micro-ops (load / store address / store data) are added on
        top of this cost by the scheduler, because they depend on the
        operands rather than the mnemonic.
        """
        semantics = semantics_for(instruction)
        category = semantics.category
        ports = self.port_model
        alu = MicroOp(frozenset(ports.alu_ports))
        vector = MicroOp(frozenset(ports.vector_ports))
        branch = MicroOp(frozenset(ports.branch_ports))
        divider = MicroOp(frozenset((ports.divider_port,)))
        port0 = MicroOp(frozenset((ports.vector_ports[0],)))
        port1 = MicroOp(frozenset((ports.vector_ports[min(1, len(ports.vector_ports) - 1)],)))

        if category in (InstructionCategory.MOVE, InstructionCategory.STACK):
            return InstructionCost((alu,), 1.0, "integer move")
        if category is InstructionCategory.NOP:
            return InstructionCost((), 0.0, "nop")
        if category is InstructionCategory.LEA:
            complex_lea = False
            for operand in instruction.operands:
                if operand.is_memory and (
                    operand.memory.index is not None and operand.memory.displacement != 0
                ):
                    complex_lea = True
            latency = 3.0 if complex_lea else 1.0
            return InstructionCost((port1,), latency, "lea")
        if category in (InstructionCategory.ARITHMETIC, InstructionCategory.LOGIC,
                        InstructionCategory.COMPARE, InstructionCategory.CONVERT,
                        InstructionCategory.SET_CONDITION):
            return InstructionCost((alu,), 1.0, "simple alu")
        if category is InstructionCategory.CONDITIONAL_MOVE:
            return InstructionCost((alu, alu), 2.0, "cmov")
        if category is InstructionCategory.SHIFT:
            return InstructionCost((port0,), 1.0, "shift")
        if category is InstructionCategory.BIT_MANIPULATION:
            return InstructionCost((port1,), 3.0, "bit manipulation")
        if category is InstructionCategory.MULTIPLY:
            return InstructionCost((port1,), self.multiply_latency, "integer multiply")
        if category is InstructionCategory.DIVIDE:
            blocking = max(1, int(round(self.divide_inverse_throughput)))
            return InstructionCost(
                tuple([divider] * blocking), self.divide_latency, "integer divide"
            )
        if category is InstructionCategory.BRANCH:
            return InstructionCost((branch,), 1.0, "branch")
        if category is InstructionCategory.VECTOR_MOVE:
            return InstructionCost((vector,), 1.0, "vector move")
        if category is InstructionCategory.VECTOR_ARITHMETIC:
            return InstructionCost((vector,), self.fp_add_latency, "vector add")
        if category is InstructionCategory.VECTOR_MULTIPLY:
            return InstructionCost((port0,), self.fp_multiply_latency, "vector multiply")
        if category is InstructionCategory.VECTOR_DIVIDE:
            blocking = max(1, int(round(self.fp_divide_inverse_throughput)))
            return InstructionCost(
                tuple([divider] * blocking), self.fp_divide_latency, "vector divide"
            )
        if category in (InstructionCategory.VECTOR_LOGIC, InstructionCategory.VECTOR_COMPARE):
            return InstructionCost((vector,), 1.0, "vector logic")
        # Unknown category: a safe, generic single-µop ALU cost.
        return InstructionCost((alu,), 1.0, "generic")

    def prefix_penalty(self, instruction: Instruction) -> float:
        """Extra cycles incurred by LOCK / REP prefixes."""
        penalty = 0.0
        for prefix in instruction.prefixes:
            if prefix == "LOCK":
                penalty += self.lock_penalty
            elif prefix in ("REP", "REPE", "REPZ", "REPNE", "REPNZ"):
                penalty += self.rep_cost_per_iteration
        return penalty


def _intel_port_model(has_port6_and_7: bool) -> PortModel:
    """Builds the Sandy Bridge-family (IVB) or Haswell-family port layout."""
    if has_port6_and_7:
        return PortModel(
            ports=("p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"),
            alu_ports=("p0", "p1", "p5", "p6"),
            load_ports=("p2", "p3"),
            store_address_ports=("p2", "p3", "p7"),
            store_data_ports=("p4",),
            vector_ports=("p0", "p1", "p5"),
            divider_port="p0",
            branch_ports=("p0", "p6"),
        )
    return PortModel(
        ports=("p0", "p1", "p2", "p3", "p4", "p5"),
        alu_ports=("p0", "p1", "p5"),
        load_ports=("p2", "p3"),
        store_address_ports=("p2", "p3"),
        store_data_ports=("p4",),
        vector_ports=("p0", "p1", "p5"),
        divider_port="p0",
        branch_ports=("p5",),
    )


IVY_BRIDGE = MicroArchitecture(
    name="Ivy Bridge",
    port_model=_intel_port_model(has_port6_and_7=False),
    issue_width=4,
    divide_latency=26.0,
    divide_inverse_throughput=22.0,
    load_latency=5.0,
    store_latency=1.0,
    multiply_latency=3.0,
    fp_multiply_latency=5.0,
    fp_add_latency=3.0,
    fp_divide_latency=22.0,
    fp_divide_inverse_throughput=14.0,
    lock_penalty=19.0,
    rep_cost_per_iteration=4.0,
    nominal_frequency_ghz=3.4,
)

HASWELL = MicroArchitecture(
    name="Haswell",
    port_model=_intel_port_model(has_port6_and_7=True),
    issue_width=4,
    divide_latency=25.0,
    divide_inverse_throughput=10.0,
    load_latency=5.0,
    store_latency=1.0,
    multiply_latency=3.0,
    fp_multiply_latency=5.0,
    fp_add_latency=3.0,
    fp_divide_latency=20.0,
    fp_divide_inverse_throughput=13.0,
    lock_penalty=17.0,
    rep_cost_per_iteration=3.0,
    nominal_frequency_ghz=3.5,
)

SKYLAKE = MicroArchitecture(
    name="Skylake",
    port_model=_intel_port_model(has_port6_and_7=True),
    issue_width=4,
    divide_latency=23.0,
    divide_inverse_throughput=6.0,
    load_latency=4.0,
    store_latency=1.0,
    multiply_latency=3.0,
    fp_multiply_latency=4.0,
    fp_add_latency=4.0,
    fp_divide_latency=14.0,
    fp_divide_inverse_throughput=4.0,
    lock_penalty=16.0,
    rep_cost_per_iteration=2.5,
    nominal_frequency_ghz=3.6,
)

#: Microarchitectures in the order used by every table of the paper.
MICROARCHITECTURES: Dict[str, MicroArchitecture] = {
    "ivy_bridge": IVY_BRIDGE,
    "haswell": HASWELL,
    "skylake": SKYLAKE,
}


def get_microarchitecture(name: str) -> MicroArchitecture:
    """Looks up a microarchitecture by key or display name."""
    key = name.lower().replace(" ", "_")
    if key not in MICROARCHITECTURES:
        raise KeyError(
            f"unknown microarchitecture {name!r}; available: {sorted(MICROARCHITECTURES)}"
        )
    return MICROARCHITECTURES[key]
