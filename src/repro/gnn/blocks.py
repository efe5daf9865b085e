"""Graph network blocks ("full GN block", Battaglia et al. 2018, §4.2).

GRANITE processes the basic-block graph with the full GN block architecture:
per message-passing iteration, edges are updated from their endpoint nodes
and the graph's global feature, nodes are updated from the aggregated
incoming edges, their own feature and the global feature, and finally the
global feature is updated from aggregated edge and node features.  Every
update function is a multi-layer feed-forward ReLU network with a residual
connection and layer normalisation at its input (Section 3.2 / Table 4 of
the GRANITE paper).

The implementation operates on packed batches (:class:`repro.graph.GraphsTuple`
index arrays) so a whole batch of basic blocks is processed as one large
disconnected graph, exactly like DeepMind's Graph Nets library.

Each update's input is a concatenation of pieces, some of them gathered
per edge or per node: ``[edge, node[sender], node[receiver],
global[graph]]`` for edges, ``[aggregated edges, node, global[graph]]`` for
nodes.  The blocks hand the pieces and their row indices to
:meth:`repro.nn.layers.ResidualMLP.forward_pieces` instead of building the
concatenation.  That evaluates, for the first Dense layer ``W`` (row blocks
``W_k``, with the LayerNorm gain and mean subtraction folded in) and the
residual projection ``P``::

    concat_k(x_k[i_k]) @ [W | P] = Σ_k (x_k @ [W_k | P_k])[i_k]

so every piece is multiplied on its source rows (nodes or graphs, not
edges) and only the products are gathered, with the LayerNorm variance of
the concatenated row assembled from per-piece row sums and sums of
squares.  The identity is exact algebra (a row gather commutes with a
right-multiplication, and a matrix product splits over row blocks); only
the order of floating-point additions differs from concatenating,
normalising and multiplying.  Inference and training both run it: under
gradient recording it is one tape node
(:func:`repro.nn.fused.fused_piece_update`) whose backward scatters the
output gradient onto the source rows, so neither direction ever holds an
``[edges, edge + 2·node + global]`` array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.nn.layers import ResidualMLP
from repro.nn.module import Module
from repro.nn.tensor import Tensor, segment_mean, segment_sum

__all__ = ["GraphState", "EdgeBlock", "NodeBlock", "GlobalBlock", "FullGNBlock", "GraphNetwork"]


@dataclass
class GraphState:
    """Feature tensors of a packed graph batch at one point in the network.

    Under gradient recording these are :class:`Tensor` values; on the
    ``no_grad`` inference fast path they are raw ``numpy.ndarray`` values and
    every block below operates on them without building the autodiff tape.
    The blocks are dtype-transparent: whatever compute dtype the input
    features carry (``float64`` by default, ``float32`` inside a
    ``repro.nn.tensor.compute_dtype("float32")`` context) is preserved by
    every gather/concat/aggregate/update along the way — segment sums
    accumulate in float64 and cast back (see ``repro.nn.tensor.segment_sum``).

    Attributes:
        nodes: ``[total_nodes, node_size]`` node features.
        edges: ``[total_edges, edge_size]`` edge features.
        globals_: ``[num_graphs, global_size]`` per-graph global features.
    """

    nodes: Tensor
    edges: Tensor
    globals_: Tensor


@dataclass(frozen=True)
class GraphTopology:
    """Static index arrays describing the packed batch connectivity."""

    senders: np.ndarray
    receivers: np.ndarray
    node_graph_ids: np.ndarray
    edge_graph_ids: np.ndarray
    num_graphs: int

    @property
    def num_nodes_known(self) -> int:
        return int(self.node_graph_ids.shape[0])


class EdgeBlock(Module):
    """Updates edge features from [edge, sender node, receiver node, global]."""

    def __init__(
        self,
        edge_size: int,
        node_size: int,
        global_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
        use_residual: bool = True,
    ) -> None:
        input_size = edge_size + 2 * node_size + global_size
        self.update_network = ResidualMLP(
            input_size,
            hidden_sizes,
            output_size,
            rng,
            use_layer_norm=use_layer_norm,
            use_residual=use_residual,
        )
        self.output_size = output_size

    def forward(self, state: GraphState, topology: GraphTopology) -> Tensor:
        return self.update_network.forward_pieces(
            [
                (state.edges, None),
                (state.nodes, topology.senders),
                (state.nodes, topology.receivers),
                (state.globals_, topology.edge_graph_ids),
            ]
        )


def _aggregate(features: Tensor, segment_ids: np.ndarray, num_segments: int, how: str) -> Tensor:
    """Sum or mean segment aggregation (graph_nets' configurable reducer)."""
    if how == "sum":
        return segment_sum(features, segment_ids, num_segments)
    if how == "mean":
        return segment_mean(features, segment_ids, num_segments)
    raise ValueError(f"unknown aggregation {how!r}; expected 'sum' or 'mean'")


class NodeBlock(Module):
    """Updates node features from [aggregated incoming edges, node, global]."""

    def __init__(
        self,
        edge_size: int,
        node_size: int,
        global_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
        use_residual: bool = True,
        aggregate_sent_edges: bool = False,
        aggregation: str = "mean",
    ) -> None:
        num_edge_aggregations = 2 if aggregate_sent_edges else 1
        input_size = num_edge_aggregations * edge_size + node_size + global_size
        self.update_network = ResidualMLP(
            input_size,
            hidden_sizes,
            output_size,
            rng,
            use_layer_norm=use_layer_norm,
            use_residual=use_residual,
        )
        self.aggregate_sent_edges = aggregate_sent_edges
        self.aggregation = aggregation
        self.output_size = output_size

    def forward(self, state: GraphState, topology: GraphTopology, updated_edges: Tensor) -> Tensor:
        num_nodes = state.nodes.shape[0]
        received = _aggregate(updated_edges, topology.receivers, num_nodes, self.aggregation)
        pieces = [(received, None)]
        if self.aggregate_sent_edges:
            sent = _aggregate(updated_edges, topology.senders, num_nodes, self.aggregation)
            pieces.append((sent, None))
        pieces += [(state.nodes, None), (state.globals_, topology.node_graph_ids)]
        return self.update_network.forward_pieces(pieces)


class GlobalBlock(Module):
    """Updates the per-graph global feature from aggregated edges and nodes."""

    def __init__(
        self,
        edge_size: int,
        node_size: int,
        global_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
        use_residual: bool = True,
        aggregation: str = "mean",
    ) -> None:
        input_size = edge_size + node_size + global_size
        self.update_network = ResidualMLP(
            input_size,
            hidden_sizes,
            output_size,
            rng,
            use_layer_norm=use_layer_norm,
            use_residual=use_residual,
        )
        self.aggregation = aggregation
        self.output_size = output_size

    def forward(
        self,
        state: GraphState,
        topology: GraphTopology,
        updated_edges: Tensor,
        updated_nodes: Tensor,
    ) -> Tensor:
        aggregated_edges = _aggregate(
            updated_edges, topology.edge_graph_ids, topology.num_graphs, self.aggregation
        )
        aggregated_nodes = _aggregate(
            updated_nodes, topology.node_graph_ids, topology.num_graphs, self.aggregation
        )
        return self.update_network.forward_pieces(
            [(aggregated_edges, None), (aggregated_nodes, None), (state.globals_, None)]
        )


class FullGNBlock(Module):
    """One full GN block: edge update → node update → global update."""

    def __init__(
        self,
        edge_size: int,
        node_size: int,
        global_size: int,
        hidden_sizes: Sequence[int],
        rng: np.random.Generator,
        use_layer_norm: bool = True,
        use_residual: bool = True,
        aggregation: str = "mean",
    ) -> None:
        self.edge_block = EdgeBlock(
            edge_size,
            node_size,
            global_size,
            hidden_sizes,
            edge_size,
            rng,
            use_layer_norm=use_layer_norm,
            use_residual=use_residual,
        )
        self.node_block = NodeBlock(
            edge_size,
            node_size,
            global_size,
            hidden_sizes,
            node_size,
            rng,
            use_layer_norm=use_layer_norm,
            use_residual=use_residual,
            aggregation=aggregation,
        )
        self.global_block = GlobalBlock(
            edge_size,
            node_size,
            global_size,
            hidden_sizes,
            global_size,
            rng,
            use_layer_norm=use_layer_norm,
            use_residual=use_residual,
            aggregation=aggregation,
        )

    def forward(self, state: GraphState, topology: GraphTopology) -> GraphState:
        updated_edges = self.edge_block(state, topology)
        updated_nodes = self.node_block(state, topology, updated_edges)
        updated_globals = self.global_block(state, topology, updated_edges, updated_nodes)
        return GraphState(nodes=updated_nodes, edges=updated_edges, globals_=updated_globals)


class GraphNetwork(Module):
    """Runs a full GN block for several message-passing iterations.

    The paper's default sweeps the number of iterations between 1 and 12,
    with 8 iterations giving the lowest test error (Table 7).  Weights are
    shared across iterations (the same GN block is applied repeatedly),
    matching the recurrent encode-process-decode structure of Graph Nets.

    Args:
        edge_size / node_size / global_size: Latent feature sizes.
        hidden_sizes: Hidden layer sizes of every update MLP.
        num_message_passing_iterations: How many times the block is applied.
        rng: Random generator for initialisation.
        use_layer_norm / use_residual: Ablation switches.
        share_weights: Apply the same block each iteration (default) or use
            independent blocks per iteration.
    """

    def __init__(
        self,
        edge_size: int,
        node_size: int,
        global_size: int,
        hidden_sizes: Sequence[int],
        num_message_passing_iterations: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
        use_residual: bool = True,
        share_weights: bool = True,
        aggregation: str = "mean",
    ) -> None:
        if num_message_passing_iterations < 1:
            raise ValueError("at least one message passing iteration is required")
        self.num_message_passing_iterations = int(num_message_passing_iterations)
        self.share_weights = bool(share_weights)
        num_blocks = 1 if share_weights else self.num_message_passing_iterations
        self.blocks = [
            FullGNBlock(
                edge_size,
                node_size,
                global_size,
                hidden_sizes,
                rng,
                use_layer_norm=use_layer_norm,
                use_residual=use_residual,
                aggregation=aggregation,
            )
            for _ in range(num_blocks)
        ]

    def forward(self, state: GraphState, topology: GraphTopology) -> GraphState:
        current = state
        for iteration in range(self.num_message_passing_iterations):
            block = self.blocks[0] if self.share_weights else self.blocks[iteration]
            current = block(current, topology)
        return current
