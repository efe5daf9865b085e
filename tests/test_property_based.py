"""Property-based tests (hypothesis) of core data structures and invariants.

These cover the substrate pieces whose correctness everything else depends
on: the autodiff engine, the parser/renderer round trip, the graph encoding
invariants, the throughput oracle's bounds, and the metric definitions, plus
the typed failure contracts of untrusted inputs (block texts and checkpoint
files).
"""

from __future__ import annotations

import functools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.data.synthetic import BlockGenerator
from repro.graph.builder import build_block_graph
from repro.models import create_model
from repro.nn.serialization import (
    CheckpointCorruptError,
    load_checkpoint,
    save_checkpoint,
)
from repro.testing.equivalence import relative_errors
from repro.graph.graph import pack_graphs
from repro.graph.types import EdgeType, NodeType
from repro.graph.vocabulary import build_default_vocabulary
from repro.isa.basic_block import BasicBlock
from repro.isa.operands import MemoryReference, Operand
from repro.isa.instructions import Instruction
from repro.isa.parser import AssemblyParseError, parse_block_text
from repro.nn.losses import mean_absolute_percentage_error, relative_mean_squared_error
from repro.nn.tensor import Tensor
from repro.training.metrics import mape, pearson_correlation, spearman_correlation
from repro.uarch.ports import HASWELL, IVY_BRIDGE, SKYLAKE
from repro.uarch.scheduler import ThroughputOracle

VOCABULARY = build_default_vocabulary()

# --------------------------------------------------------------------- #
# Strategies.
# --------------------------------------------------------------------- #
GPR64 = st.sampled_from(
    ["RAX", "RBX", "RCX", "RDX", "RSI", "RDI", "R8", "R9", "R10", "R11", "R12"]
)
GPR32 = st.sampled_from(["EAX", "EBX", "ECX", "EDX", "ESI", "EDI", "R8D", "R9D"])
XMM = st.sampled_from([f"XMM{i}" for i in range(16)])


@st.composite
def memory_operands(draw):
    base = draw(st.one_of(st.none(), GPR64))
    index = draw(st.one_of(st.none(), GPR64))
    if base is None and index is None:
        base = "RAX"
    scale = draw(st.sampled_from([1, 2, 4, 8]))
    displacement = draw(st.integers(min_value=-4096, max_value=4096))
    width = draw(st.sampled_from([8, 16, 32, 64]))
    return Operand.from_memory(
        MemoryReference(base=base, index=index, scale=scale,
                        displacement=displacement, width_bits=width)
    )


@st.composite
def instructions(draw):
    kind = draw(st.sampled_from(["alu_rr", "alu_ri", "alu_rm", "mov_mr", "fp", "unary", "lea"]))
    if kind == "alu_rr":
        mnemonic = draw(st.sampled_from(["ADD", "SUB", "AND", "OR", "XOR", "CMP", "TEST", "IMUL"]))
        operands = [Operand.from_register(draw(GPR64)), Operand.from_register(draw(GPR64))]
    elif kind == "alu_ri":
        mnemonic = draw(st.sampled_from(["ADD", "SUB", "AND", "CMP", "SHL", "SHR"]))
        operands = [Operand.from_register(draw(GPR32)),
                    Operand.from_immediate(draw(st.integers(0, 1 << 16)))]
    elif kind == "alu_rm":
        mnemonic = draw(st.sampled_from(["ADD", "SUB", "MOV", "MOVZX"]))
        operands = [Operand.from_register(draw(GPR64)), draw(memory_operands())]
    elif kind == "mov_mr":
        mnemonic = "MOV"
        operands = [draw(memory_operands()), Operand.from_register(draw(GPR64))]
    elif kind == "fp":
        mnemonic = draw(st.sampled_from(["ADDSD", "MULSD", "SUBSS", "DIVSD", "MOVSD"]))
        operands = [Operand.from_register(draw(XMM)), Operand.from_register(draw(XMM))]
    elif kind == "unary":
        mnemonic = draw(st.sampled_from(["INC", "DEC", "NEG", "NOT", "CDQ"]))
        operands = [] if mnemonic == "CDQ" else [Operand.from_register(draw(GPR64))]
    else:
        mnemonic = "LEA"
        operands = [Operand.from_register(draw(GPR64)), draw(memory_operands())]
    return Instruction.create(mnemonic, operands)


@st.composite
def basic_blocks(draw, max_size=12):
    instruction_list = draw(st.lists(instructions(), min_size=1, max_size=max_size))
    return BasicBlock(instruction_list)


# --------------------------------------------------------------------- #
# Parser / renderer round trip.
# --------------------------------------------------------------------- #
class TestParserProperties:
    @given(basic_blocks())
    @settings(max_examples=60, deadline=None)
    def test_render_parse_round_trip(self, block):
        reparsed = parse_block_text(block.render())
        assert len(reparsed) == len(block)
        for original, parsed in zip(block.instructions, reparsed):
            assert parsed.mnemonic == original.mnemonic
            assert len(parsed.operands) == len(original.operands)
            for left, right in zip(original.operands, parsed.operands):
                assert left.kind == right.kind
                if left.is_register:
                    assert left.register == right.register
                if left.is_memory:
                    assert (left.memory.base or "") == (right.memory.base or "")
                    assert left.memory.displacement == right.memory.displacement


# --------------------------------------------------------------------- #
# Graph encoding invariants.
# --------------------------------------------------------------------- #
class TestGraphProperties:
    @given(basic_blocks())
    @settings(max_examples=60, deadline=None)
    def test_graph_structural_invariants(self, block):
        graph = build_block_graph(block)
        # One mnemonic node per instruction, in order.
        assert graph.num_instructions == len(block)
        for instruction, node_index in zip(block.instructions, graph.instruction_node_indices):
            assert graph.nodes[node_index].token == instruction.mnemonic
            assert graph.nodes[node_index].node_type is NodeType.MNEMONIC
        # Edges reference valid nodes.
        for edge in graph.edges:
            assert 0 <= edge.sender < graph.num_nodes
            assert 0 <= edge.receiver < graph.num_nodes
        # Value nodes have at most one producer (incoming OUTPUT_OPERAND edge).
        producer_count = {}
        for edge in graph.edges:
            if edge.edge_type is EdgeType.OUTPUT_OPERAND:
                producer_count[edge.receiver] = producer_count.get(edge.receiver, 0) + 1
        assert all(count <= 1 for count in producer_count.values())
        # Structural edges form a simple chain.
        structural = [e for e in graph.edges if e.edge_type is EdgeType.STRUCTURAL_DEPENDENCY]
        assert len(structural) == max(len(block) - 1, 0)

    @given(st.lists(basic_blocks(max_size=6), min_size=1, max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_packing_preserves_totals(self, blocks):
        graphs = [build_block_graph(block) for block in blocks]
        packed = pack_graphs(graphs, VOCABULARY)
        assert packed.num_nodes == sum(graph.num_nodes for graph in graphs)
        assert packed.num_edges == sum(graph.num_edges for graph in graphs)
        assert packed.num_instructions == sum(len(block) for block in blocks)
        packed.validate()
        # Global features are valid probability-ish vectors.
        assert np.all(packed.globals_features >= 0)
        assert np.all(packed.globals_features <= 1.0 + 1e-9)


# --------------------------------------------------------------------- #
# Throughput oracle invariants.
# --------------------------------------------------------------------- #
class TestOracleProperties:
    @given(basic_blocks())
    @settings(max_examples=50, deadline=None)
    def test_throughput_positive_and_bounded(self, block):
        for uarch in (IVY_BRIDGE, HASWELL, SKYLAKE):
            breakdown = ThroughputOracle(uarch).breakdown(block)
            assert breakdown.cycles_per_iteration > 0
            assert breakdown.cycles_per_iteration >= breakdown.port_pressure_bound
            assert breakdown.cycles_per_iteration >= breakdown.frontend_bound
            assert breakdown.cycles_per_iteration >= breakdown.latency_bound
            # A block can't be slower than executing every µop serially with
            # its worst-case latency plus serialisation penalties.
            worst_case = (
                sum(uarch.cost_of(i).latency + uarch.load_latency + uarch.store_latency + 1.0
                    for i in block.instructions)
                + sum(uarch.prefix_penalty(i) for i in block.instructions)
                + 1.0
            )
            assert breakdown.cycles_per_iteration <= worst_case

    @given(basic_blocks(max_size=6), instructions())
    @settings(max_examples=40, deadline=None)
    def test_adding_an_instruction_never_relaxes_resource_bounds(self, block, extra):
        """Port pressure and front-end bounds are monotone in the block size.

        (The full throughput estimate is intentionally *not* monotone: adding
        an instruction can break a loop-carried dependency chain — the
        classic xor-zeroing idiom — which genuinely speeds real machines up.)
        """
        oracle = ThroughputOracle(HASWELL)
        extended = BasicBlock(tuple(block.instructions) + (extra,))
        before = oracle.breakdown(block)
        after = oracle.breakdown(extended)
        assert after.port_pressure_bound >= before.port_pressure_bound - 1e-9
        assert after.frontend_bound >= before.frontend_bound - 1e-9
        assert after.num_micro_ops >= before.num_micro_ops


# --------------------------------------------------------------------- #
# Loss / metric properties.
# --------------------------------------------------------------------- #
class TestMetricProperties:
    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=2, max_size=40),
        st.floats(min_value=0.1, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_mape_scale_invariance(self, actual_values, scale):
        actual = np.array(actual_values)
        predicted = actual * 1.07
        assert mape(predicted * scale, actual * scale) == pytest.approx(
            mape(predicted, actual), rel=1e-6
        )

    @given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=3, max_size=40, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_perfect_predictions_have_perfect_metrics(self, actual_values):
        actual = np.array(actual_values)
        assert mape(actual, actual) == pytest.approx(0.0)
        assert spearman_correlation(actual, actual) == pytest.approx(1.0)
        assert pearson_correlation(actual, actual) == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e3), min_size=2, max_size=30),
        st.lists(st.floats(min_value=1.0, max_value=1e3), min_size=2, max_size=30),
    )
    @settings(max_examples=60, deadline=None)
    def test_losses_nonnegative_and_zero_iff_equal(self, predicted_values, actual_values):
        size = min(len(predicted_values), len(actual_values))
        predicted = Tensor(np.array(predicted_values[:size]))
        actual = Tensor(np.array(actual_values[:size]))
        assert mean_absolute_percentage_error(predicted, actual).item() >= 0.0
        assert relative_mean_squared_error(predicted, actual).item() >= 0.0
        assert mean_absolute_percentage_error(actual, actual).item() == pytest.approx(0.0, abs=1e-6)


# --------------------------------------------------------------------- #
# Autodiff properties.
# --------------------------------------------------------------------- #
class TestAutodiffProperties:
    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=2 ** 31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_matmul_gradient_matches_numerical(self, rows, inner, seed):
        rng = np.random.default_rng(seed)
        left = rng.normal(size=(rows, inner))
        right = rng.normal(size=(inner, 3))
        tensor = Tensor(left.copy(), requires_grad=True)
        (tensor @ Tensor(right)).sum().backward()
        expected = np.ones((rows, 3)) @ right.T
        np.testing.assert_allclose(tensor.grad, expected, atol=1e-8)

    @given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_segment_sum_conserves_mass(self, num_rows, num_segments):
        rng = np.random.default_rng(num_rows * 31 + num_segments)
        data = rng.normal(size=(num_rows, 3))
        segments = rng.integers(0, num_segments, size=num_rows)
        result = Tensor(data).segment_sum(segments, num_segments)
        np.testing.assert_allclose(result.data.sum(axis=0), data.sum(axis=0), atol=1e-9)

    @given(st.integers(min_value=2, max_value=30))
    @settings(max_examples=30, deadline=None)
    def test_layernorm_output_statistics(self, size):
        from repro.nn.layers import LayerNorm

        layer = LayerNorm(size)
        rng = np.random.default_rng(size)
        output = layer(Tensor(rng.normal(5.0, 3.0, size=(4, size)))).data
        np.testing.assert_allclose(output.mean(axis=-1), 0.0, atol=1e-6)


# --------------------------------------------------------------------- #
# Mixed-precision inference properties.
# --------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _dtype_model_pair(name: str):
    """One (float64, float32) pair per family, shared across examples.

    Same seed -> bit-identical master weights; only inference math differs.
    """
    return (
        create_model(name, small=True, seed=321, inference_dtype="float64"),
        create_model(name, small=True, seed=321, inference_dtype="float32"),
    )


class TestDtypeEquivalenceProperties:
    #: Element-wise relative tolerance of float32 vs float64 predictions on
    #: arbitrary random blocks.  Looser than the 1e-3 budget the golden
    #: corpus (tests/equivalence) enforces on its fixed blocks: with
    #: *untrained* weights over the full random-block space, GRANITE's
    #: per-instruction contributions can nearly cancel, amplifying float32
    #: rounding past 1e-3 on rare blocks (hypothesis found 1.5e-3 at seed
    #: 58522) without indicating a real precision regression.
    REL_TOL = 5e-3

    @given(
        st.sampled_from(["granite", "ithemal+"]),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=12, deadline=None)
    def test_float32_and_float64_predictions_agree(self, name, seed, count):
        blocks = BlockGenerator(seed=seed).generate_blocks(count)
        model64, model32 = _dtype_model_pair(name)
        predictions64 = model64.predict(blocks)
        predictions32 = model32.predict(blocks)
        for task in model64.tasks:
            errors = relative_errors(predictions64[task], predictions32[task])
            assert errors.max() <= self.REL_TOL, (
                f"{name}/{task} float32 deviates by {errors.max():.3e} "
                f"on blocks from seed {seed}"
            )

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=6, deadline=None)
    def test_dtype_round_trips_through_checkpoints(self, seed):
        """Checkpoint save/load never narrows or silently upcasts.

        Whatever weights a float32-serving model holds, the checkpoint
        stores float64 masters, a reload restores them as float64, and the
        reloaded float32 predictions are bit-identical to the donor's
        (the cast caches are derived state, refreshed on load).
        """
        rng = np.random.default_rng(seed)
        donor = create_model("granite", small=True, seed=9, inference_dtype="float32")
        # Random weights so every example round-trips a different model.
        donor.load_state_dict(
            {
                name: value + rng.normal(scale=0.05, size=value.shape)
                for name, value in donor.state_dict().items()
            }
        )
        blocks = BlockGenerator(seed=seed).generate_blocks(3)
        expected = donor.predict(blocks)

        restored = create_model("granite", small=True, seed=10, inference_dtype="float32")
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "model.npz")
            save_checkpoint(donor, path)
            load_checkpoint(restored, path)
        for name, parameter in restored.named_parameters():
            assert parameter.data.dtype == np.float64, f"{name} was narrowed"
            assert parameter.data_as(np.float32).dtype == np.float32
        actual = restored.predict(blocks)
        for task in donor.tasks:
            np.testing.assert_array_equal(actual[task], expected[task])


# --------------------------------------------------------------------- #
# Untrusted inputs fail typed.
# --------------------------------------------------------------------- #
_ASM_CHARS = st.sampled_from(list("[]+-*:,;#.$ \t\nxX019abdhlmoqrsAZ\x00\u00e9"))


@st.composite
def mutated_block_texts(draw):
    """A rendered valid block with a few single-character edits or a cut."""
    text = draw(basic_blocks(max_size=4)).render()
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        position = draw(st.integers(min_value=0, max_value=len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace", "truncate"]))
        if edit == "insert":
            text = text[:position] + draw(_ASM_CHARS) + text[position:]
        elif edit == "delete":
            text = text[:position] + text[position + 1 :]
        elif edit == "replace":
            text = text[:position] + draw(_ASM_CHARS) + text[position + 1 :]
        else:
            text = text[:position]
    return text


def _parse_and_predict(text):
    """Parses and predicts ``text``; a refusal must be AssemblyParseError."""
    try:
        block = BasicBlock.from_text(text)
    except AssemblyParseError:
        return
    for values in _dtype_model_pair("granite")[0].predict([block]).values():
        assert values.shape == (1,)
        assert np.isfinite(values).all()


class TestBlockTextFuzz:
    @given(st.text(max_size=120))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_arbitrary_text_predicts_or_fails_to_parse(self, text):
        _parse_and_predict(text)

    @given(mutated_block_texts())
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mutated_block_text_predicts_or_fails_to_parse(self, text):
        _parse_and_predict(text)


@functools.lru_cache(maxsize=None)
def _checkpoint_bytes():
    """A small GRANITE checkpoint's bytes and the state they hold."""
    donor = create_model("granite", small=True, seed=11)
    with tempfile.TemporaryDirectory() as directory:
        path = save_checkpoint(donor, os.path.join(directory, "model.npz"))
        with open(path, "rb") as handle:
            return handle.read(), donor.state_dict()


def _load_damaged(data):
    """Loads ``data`` as a checkpoint without fallback.

    A refusal must be CheckpointCorruptError; a load must restore the
    donor's parameters bit for bit.
    """
    _, expected = _checkpoint_bytes()
    restored = create_model("granite", small=True, seed=12)
    before = restored.state_dict()
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "model.npz")
        with open(path, "wb") as handle:
            handle.write(data)
        try:
            load_checkpoint(restored, path, fallback=False)
        except CheckpointCorruptError:
            state = restored.state_dict()
            assert all(np.array_equal(state[n], before[n]) for n in before)
            return
    state = restored.state_dict()
    assert set(state) == set(expected)
    for name, values in expected.items():
        assert state[name].dtype == values.dtype
        assert state[name].tobytes() == values.tobytes(), name


class TestCheckpointFuzz:
    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_truncated_checkpoint_fails_typed(self, data):
        payload, _ = _checkpoint_bytes()
        length = data.draw(st.integers(min_value=0, max_value=len(payload) - 1))
        _load_damaged(payload[:length])

    @given(st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_byte_flipped_checkpoint_fails_typed_or_loads_intact(self, data):
        damaged = bytearray(_checkpoint_bytes()[0])
        flips = data.draw(
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=len(damaged) - 1),
                    st.integers(min_value=1, max_value=255),
                ),
                min_size=1,
                max_size=4,
            )
        )
        for position, mask in flips:
            damaged[position] ^= mask
        _load_damaged(bytes(damaged))
