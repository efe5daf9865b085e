"""Graph data structures.

Two representations are used throughout the library:

* :class:`BlockGraph` — the symbolic graph of a single basic block, produced
  by :class:`repro.graph.builder.GraphBuilder`.  Nodes carry their assembly
  token and :class:`~repro.graph.types.NodeType`; edges carry their
  :class:`~repro.graph.types.EdgeType`.
* :class:`GraphsTuple` — the numeric, batched representation consumed by the
  graph neural network, closely following the ``GraphsTuple`` of DeepMind's
  Graph Nets library: all graphs in a batch are packed into one large
  disconnected graph, with index arrays recording which node/edge belongs to
  which original graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.graph.types import EDGE_TYPE_INDEX, EdgeType, NodeType
from repro.graph.vocabulary import Vocabulary

__all__ = [
    "GraphNode",
    "GraphEdge",
    "BlockGraph",
    "GraphsTuple",
    "concatenate_graphs",
    "encode_graph",
    "pack_graphs",
]


@dataclass(frozen=True)
class GraphNode:
    """A node of the GRANITE graph.

    Attributes:
        token: The assembly-language token associated with the node.
        node_type: The :class:`NodeType` of the node.
        instruction_index: Index of the instruction this node belongs to
            (for mnemonic/prefix nodes), or the index of the instruction
            that created the value node; -1 for value nodes that exist
            before the block (live-in values).
    """

    token: str
    node_type: NodeType
    instruction_index: int = -1


@dataclass(frozen=True)
class GraphEdge:
    """A directed, typed edge between two nodes (by node index)."""

    sender: int
    receiver: int
    edge_type: EdgeType


@dataclass
class BlockGraph:
    """The GRANITE dependency graph of one basic block."""

    nodes: List[GraphNode] = field(default_factory=list)
    edges: List[GraphEdge] = field(default_factory=list)
    #: Indices of the instruction mnemonic nodes, in program order.  The
    #: decoder network reads the final embeddings of exactly these nodes.
    instruction_node_indices: List[int] = field(default_factory=list)
    #: Optional identifier of the source basic block.
    identifier: Optional[str] = None

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_instructions(self) -> int:
        return len(self.instruction_node_indices)

    def add_node(self, token: str, node_type: NodeType, instruction_index: int = -1) -> int:
        """Appends a node and returns its index."""
        self.nodes.append(
            GraphNode(token=token, node_type=node_type, instruction_index=instruction_index)
        )
        return len(self.nodes) - 1

    def add_edge(self, sender: int, receiver: int, edge_type: EdgeType) -> None:
        """Appends a directed edge between two existing node indices."""
        if not (0 <= sender < len(self.nodes)) or not (0 <= receiver < len(self.nodes)):
            raise IndexError(
                f"edge ({sender} -> {receiver}) references a node outside "
                f"[0, {len(self.nodes)})"
            )
        self.edges.append(GraphEdge(sender=sender, receiver=receiver, edge_type=edge_type))

    def tokens(self) -> List[str]:
        """Returns the token of every node, in node order."""
        return [node.token for node in self.nodes]

    def edge_type_histogram(self) -> np.ndarray:
        """Counts of each edge type, indexed by :data:`EDGE_TYPE_INDEX`."""
        histogram = np.zeros(len(EdgeType), dtype=np.float64)
        for edge in self.edges:
            histogram[EDGE_TYPE_INDEX[edge.edge_type]] += 1.0
        return histogram

    def to_networkx(self):
        """Converts to a ``networkx.MultiDiGraph`` for inspection/plotting."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for index, node in enumerate(self.nodes):
            graph.add_node(index, token=node.token, node_type=node.node_type.value)
        for edge in self.edges:
            graph.add_edge(edge.sender, edge.receiver, edge_type=edge.edge_type.value)
        return graph


@dataclass
class GraphsTuple:
    """A batch of graphs packed into one disconnected graph.

    Attributes:
        node_token_ids: ``[total_nodes]`` int array of vocabulary ids.
        node_graph_ids: ``[total_nodes]`` int array mapping nodes to graphs.
        edge_type_ids: ``[total_edges]`` int array of edge-type ids.
        senders: ``[total_edges]`` int array of sending node indices
            (into the packed node arrays).
        receivers: ``[total_edges]`` int array of receiving node indices.
        edge_graph_ids: ``[total_edges]`` int array mapping edges to graphs.
        globals_features: ``[num_graphs, global_size]`` float array with the
            token / edge-type frequency features described in Section 3.2.
        instruction_node_indices: ``[total_instructions]`` int array of the
            packed indices of instruction mnemonic nodes.
        instruction_graph_ids: ``[total_instructions]`` int array mapping
            instructions to graphs.
        num_graphs: Number of graphs in the batch.
    """

    node_token_ids: np.ndarray
    node_graph_ids: np.ndarray
    edge_type_ids: np.ndarray
    senders: np.ndarray
    receivers: np.ndarray
    edge_graph_ids: np.ndarray
    globals_features: np.ndarray
    instruction_node_indices: np.ndarray
    instruction_graph_ids: np.ndarray
    num_graphs: int

    @property
    def num_nodes(self) -> int:
        return int(self.node_token_ids.shape[0])

    @property
    def num_edges(self) -> int:
        return int(self.edge_type_ids.shape[0])

    @property
    def num_instructions(self) -> int:
        return int(self.instruction_node_indices.shape[0])

    def validate(self) -> None:
        """Checks internal index consistency; raises ValueError on problems."""
        if self.num_edges:
            if self.senders.min() < 0 or self.senders.max() >= self.num_nodes:
                raise ValueError("sender index out of range")
            if self.receivers.min() < 0 or self.receivers.max() >= self.num_nodes:
                raise ValueError("receiver index out of range")
            mismatched = self.node_graph_ids[self.senders] != self.edge_graph_ids
            if np.any(mismatched):
                raise ValueError("edge assigned to a different graph than its sender")
        if self.num_instructions:
            if (
                self.instruction_node_indices.min() < 0
                or self.instruction_node_indices.max() >= self.num_nodes
            ):
                raise ValueError("instruction node index out of range")
        if self.globals_features.shape[0] != self.num_graphs:
            raise ValueError("globals_features row count must equal num_graphs")


def _global_features(
    graph: BlockGraph, vocabulary: Vocabulary, token_ids: np.ndarray
) -> np.ndarray:
    """Builds the per-graph global feature vector.

    The paper initialises the global feature with "the relative frequencies
    of the tokens and edge types used in the graph"; its size is the number
    of token types plus the number of edge types.
    """
    token_histogram = np.bincount(token_ids, minlength=len(vocabulary)).astype(np.float64)
    if token_histogram.sum() > 0:
        token_histogram /= token_histogram.sum()
    edge_histogram = graph.edge_type_histogram()
    if edge_histogram.sum() > 0:
        edge_histogram /= edge_histogram.sum()
    return np.concatenate([token_histogram, edge_histogram])


def encode_graph(graph: BlockGraph, vocabulary: Vocabulary) -> GraphsTuple:
    """The numeric arrays of one graph, as a one-graph :class:`GraphsTuple`.

    This is where tokens are looked up, edges turned into index arrays and
    the global feature computed; :func:`concatenate_graphs` only offsets
    and joins the results.  A model encodes each block's graph once, when
    it enters its graph cache, and packs every batch from the cached
    arrays.
    """
    token_ids = np.array(vocabulary.encode(graph.tokens()), dtype=np.int64)
    edges = np.array(
        [(edge.sender, edge.receiver, EDGE_TYPE_INDEX[edge.edge_type]) for edge in graph.edges],
        dtype=np.int64,
    ).reshape(-1, 3)
    instructions = np.array(graph.instruction_node_indices, dtype=np.int64)
    return GraphsTuple(
        node_token_ids=token_ids,
        node_graph_ids=np.zeros(len(token_ids), dtype=np.int64),
        edge_type_ids=edges[:, 2],
        senders=edges[:, 0],
        receivers=edges[:, 1],
        edge_graph_ids=np.zeros(len(edges), dtype=np.int64),
        globals_features=_global_features(graph, vocabulary, token_ids)[None, :],
        instruction_node_indices=instructions,
        instruction_graph_ids=np.zeros(len(instructions), dtype=np.int64),
        num_graphs=1,
    )


def concatenate_graphs(batches: Sequence[GraphsTuple]) -> GraphsTuple:
    """Packs encoded graphs (or batches) into one :class:`GraphsTuple`.

    Each batch's node indices are offset by the nodes before it and its
    graph ids by the graphs before it; every array is one concatenation.
    """
    if not batches:
        raise ValueError("cannot pack an empty list of graphs")
    num_nodes = np.array([batch.num_nodes for batch in batches], dtype=np.int64)
    num_graphs = np.array([batch.num_graphs for batch in batches], dtype=np.int64)
    node_offsets = np.cumsum(num_nodes) - num_nodes
    graph_offsets = np.cumsum(num_graphs) - num_graphs

    def joined(name: str, offsets: Optional[np.ndarray] = None) -> np.ndarray:
        arrays = [getattr(batch, name) for batch in batches]
        values = np.concatenate(arrays)
        if offsets is None:
            return values
        return values + np.repeat(offsets, [len(array) for array in arrays])

    packed = GraphsTuple(
        node_token_ids=joined("node_token_ids"),
        node_graph_ids=joined("node_graph_ids", graph_offsets),
        edge_type_ids=joined("edge_type_ids"),
        senders=joined("senders", node_offsets),
        receivers=joined("receivers", node_offsets),
        edge_graph_ids=joined("edge_graph_ids", graph_offsets),
        globals_features=joined("globals_features"),
        instruction_node_indices=joined("instruction_node_indices", node_offsets),
        instruction_graph_ids=joined("instruction_graph_ids", graph_offsets),
        num_graphs=int(num_graphs.sum()),
    )
    packed.validate()
    return packed


def pack_graphs(graphs: Sequence[BlockGraph], vocabulary: Vocabulary) -> GraphsTuple:
    """Packs a list of :class:`BlockGraph` into one :class:`GraphsTuple`.

    Args:
        graphs: The graphs to batch; must be non-empty.
        vocabulary: Token vocabulary used to encode node tokens.

    Returns:
        The packed batch, ready to be fed to the graph neural network:
        :func:`concatenate_graphs` of each graph's :func:`encode_graph`.
    """
    return concatenate_graphs([encode_graph(graph, vocabulary) for graph in graphs])
