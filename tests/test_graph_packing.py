"""Tests for graph batching (repro.graph.graph.pack_graphs) and BlockGraph."""

import numpy as np
import pytest

from repro.graph.builder import build_block_graph
from repro.graph.graph import (
    BlockGraph,
    GraphsTuple,
    concatenate_graphs,
    encode_graph,
    pack_graphs,
)
from repro.isa.basic_block import BasicBlock
from repro.graph.types import EDGE_TYPE_INDEX, EdgeType, NodeType
from repro.graph.vocabulary import build_default_vocabulary


@pytest.fixture(scope="module")
def vocabulary():
    return build_default_vocabulary()


class TestBlockGraph:
    def test_add_node_and_edge(self):
        graph = BlockGraph()
        first = graph.add_node("ADD", NodeType.MNEMONIC, 0)
        second = graph.add_node("RAX", NodeType.REGISTER, 0)
        graph.add_edge(first, second, EdgeType.OUTPUT_OPERAND)
        assert graph.num_nodes == 2
        assert graph.num_edges == 1

    def test_add_edge_with_bad_index_raises(self):
        graph = BlockGraph()
        graph.add_node("ADD", NodeType.MNEMONIC, 0)
        with pytest.raises(IndexError):
            graph.add_edge(0, 5, EdgeType.INPUT_OPERAND)

    def test_edge_type_histogram(self, figure1_block):
        graph = build_block_graph(figure1_block)
        histogram = graph.edge_type_histogram()
        assert histogram.sum() == graph.num_edges
        assert histogram[EDGE_TYPE_INDEX[EdgeType.STRUCTURAL_DEPENDENCY]] == 1

    def test_tokens_in_node_order(self, figure1_block):
        graph = build_block_graph(figure1_block)
        assert graph.tokens()[graph.instruction_node_indices[0]] == "MOV"


class TestPackGraphs:
    def test_single_graph_pack(self, figure1_block, vocabulary):
        graph = build_block_graph(figure1_block)
        packed = pack_graphs([graph], vocabulary)
        assert packed.num_graphs == 1
        assert packed.num_nodes == graph.num_nodes
        assert packed.num_edges == graph.num_edges
        assert packed.num_instructions == 2
        assert packed.globals_features.shape == (1, len(vocabulary) + len(EdgeType))

    def test_multi_graph_offsets(self, sample_blocks, vocabulary):
        graphs = [build_block_graph(block) for block in sample_blocks[:5]]
        packed = pack_graphs(graphs, vocabulary)
        assert packed.num_graphs == 5
        assert packed.num_nodes == sum(graph.num_nodes for graph in graphs)
        assert packed.num_edges == sum(graph.num_edges for graph in graphs)
        # node_graph_ids must be non-decreasing and partition the nodes.
        counts = np.bincount(packed.node_graph_ids, minlength=5)
        assert list(counts) == [graph.num_nodes for graph in graphs]

    def test_edges_stay_within_their_graph(self, sample_blocks, vocabulary):
        graphs = [build_block_graph(block) for block in sample_blocks[:8]]
        packed = pack_graphs(graphs, vocabulary)
        assert np.array_equal(
            packed.node_graph_ids[packed.senders], packed.edge_graph_ids
        )
        assert np.array_equal(
            packed.node_graph_ids[packed.receivers], packed.edge_graph_ids
        )

    def test_instruction_nodes_are_mnemonics(self, sample_blocks, vocabulary):
        graphs = [build_block_graph(block) for block in sample_blocks[:5]]
        packed = pack_graphs(graphs, vocabulary)
        mnemonic_ids = {
            vocabulary.id_of(instruction.mnemonic)
            for block in sample_blocks[:5]
            for instruction in block
        }
        observed = set(packed.node_token_ids[packed.instruction_node_indices].tolist())
        assert observed <= mnemonic_ids | {vocabulary.unknown_id}

    def test_instruction_counts_match_blocks(self, sample_blocks, vocabulary):
        blocks = sample_blocks[:6]
        graphs = [build_block_graph(block) for block in blocks]
        packed = pack_graphs(graphs, vocabulary)
        counts = np.bincount(packed.instruction_graph_ids, minlength=len(blocks))
        assert list(counts) == [len(block) for block in blocks]

    def test_global_features_are_normalised_frequencies(self, figure1_block, vocabulary):
        graph = build_block_graph(figure1_block)
        packed = pack_graphs([graph], vocabulary)
        token_part = packed.globals_features[0, : len(vocabulary)]
        edge_part = packed.globals_features[0, len(vocabulary):]
        assert token_part.sum() == pytest.approx(1.0)
        assert edge_part.sum() == pytest.approx(1.0)
        assert np.all(packed.globals_features >= 0.0)

    def test_empty_list_raises(self, vocabulary):
        with pytest.raises(ValueError):
            pack_graphs([], vocabulary)

    def test_validate_catches_bad_indices(self, figure1_block, vocabulary):
        graph = build_block_graph(figure1_block)
        packed = pack_graphs([graph], vocabulary)
        broken = GraphsTuple(
            node_token_ids=packed.node_token_ids,
            node_graph_ids=packed.node_graph_ids,
            edge_type_ids=packed.edge_type_ids,
            senders=packed.senders + packed.num_nodes,  # out of range
            receivers=packed.receivers,
            edge_graph_ids=packed.edge_graph_ids,
            globals_features=packed.globals_features,
            instruction_node_indices=packed.instruction_node_indices,
            instruction_graph_ids=packed.instruction_graph_ids,
            num_graphs=packed.num_graphs,
        )
        with pytest.raises(ValueError):
            broken.validate()

    def test_packing_is_deterministic(self, sample_blocks, vocabulary):
        graphs = [build_block_graph(block) for block in sample_blocks[:4]]
        first = pack_graphs(graphs, vocabulary)
        second = pack_graphs(graphs, vocabulary)
        assert np.array_equal(first.node_token_ids, second.node_token_ids)
        assert np.array_equal(first.senders, second.senders)
        assert np.array_equal(first.globals_features, second.globals_features)


def _pack_graph_by_graph(graphs, vocabulary):
    """The packer as one loop over graphs, nodes and edges: the reference
    that encode-then-concatenate must reproduce field for field."""
    token_ids, node_graph_ids, edge_type_ids, senders, receivers = [], [], [], [], []
    edge_graph_ids, globals_rows, instruction_nodes, instruction_graph_ids = [], [], [], []
    offset = 0
    for graph_index, graph in enumerate(graphs):
        ids = vocabulary.encode(graph.tokens())
        token_ids += ids
        node_graph_ids += [graph_index] * graph.num_nodes
        for edge in graph.edges:
            edge_type_ids.append(EDGE_TYPE_INDEX[edge.edge_type])
            senders.append(edge.sender + offset)
            receivers.append(edge.receiver + offset)
            edge_graph_ids.append(graph_index)
        tokens = np.bincount(ids, minlength=len(vocabulary)).astype(np.float64)
        edge_types = graph.edge_type_histogram()
        globals_rows.append(
            np.concatenate([tokens / max(tokens.sum(), 1.0), edge_types / max(edge_types.sum(), 1.0)])
        )
        instruction_nodes += [index + offset for index in graph.instruction_node_indices]
        instruction_graph_ids += [graph_index] * graph.num_instructions
        offset += graph.num_nodes
    arrays = (
        token_ids, node_graph_ids, edge_type_ids, senders, receivers, edge_graph_ids
    )
    return GraphsTuple(
        *(np.array(values, dtype=np.int64) for values in arrays),
        globals_features=np.stack(globals_rows),
        instruction_node_indices=np.array(instruction_nodes, dtype=np.int64),
        instruction_graph_ids=np.array(instruction_graph_ids, dtype=np.int64),
        num_graphs=len(graphs),
    )


class TestEncodeThenConcatenate:
    FIELDS = (
        "node_token_ids", "node_graph_ids", "edge_type_ids", "senders", "receivers",
        "edge_graph_ids", "globals_features", "instruction_node_indices",
        "instruction_graph_ids",
    )

    def assert_same(self, packed, expected):
        assert packed.num_graphs == expected.num_graphs
        for name in self.FIELDS:
            actual, wanted = getattr(packed, name), getattr(expected, name)
            assert actual.dtype == wanted.dtype and actual.shape == wanted.shape, name
            np.testing.assert_array_equal(actual, wanted, err_msg=name)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_batches_match_the_graph_by_graph_packer(
        self, seed, sample_blocks, figure1_block, vocabulary
    ):
        one_instruction = BasicBlock.from_text("NOP")
        pool = [build_block_graph(block) for block in sample_blocks[:20]]
        pool += [build_block_graph(one_instruction), build_block_graph(figure1_block)]
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(pool), size=12).tolist()
        # A repeated block and the one-instruction block in every batch.
        graphs = [pool[index] for index in picks + [picks[0], len(pool) - 2]]
        expected = _pack_graph_by_graph(graphs, vocabulary)
        self.assert_same(pack_graphs(graphs, vocabulary), expected)
        encoded = [encode_graph(graph, vocabulary) for graph in graphs]
        self.assert_same(concatenate_graphs(encoded), expected)

    def test_batches_of_batches(self, sample_blocks, vocabulary):
        graphs = [build_block_graph(block) for block in sample_blocks[:7]]
        halves = [pack_graphs(graphs[:3], vocabulary), pack_graphs(graphs[3:], vocabulary)]
        self.assert_same(concatenate_graphs(halves), _pack_graph_by_graph(graphs, vocabulary))

    def test_granite_batches_come_from_cached_arrays(self, sample_blocks, vocabulary):
        from repro.models import create_model

        model = create_model("granite", small=True, seed=0)
        blocks = sample_blocks[:5]
        batch = model.encode_blocks(blocks + blocks[:1])
        expected = _pack_graph_by_graph(
            [build_block_graph(block) for block in blocks + blocks[:1]], model.vocabulary
        )
        self.assert_same(batch.graphs, expected)
        assert len(model._graph_cache) == 5
