"""The GRANITE model (Section 3 of the paper).

The model is the composition of four pieces:

1. **Graph encoding** — basic blocks become dependency graphs
   (:mod:`repro.graph.builder`).
2. **Input encoders** — node tokens and edge types are mapped to learnable
   embedding vectors, and the per-graph token/edge-type frequency vector is
   projected to the latent global feature (Section 3.2).
3. **Graph neural network** — the full GN block applied for a configurable
   number of message passing iterations (Table 7 sweeps this; 8 is best).
4. **Decoder network(s)** — a residual MLP applied to the final embedding of
   every *instruction mnemonic node*, producing that instruction's
   contribution to the block throughput; contributions are summed per block
   (Section 3.3).  The multi-task variant instantiates one decoder per
   target microarchitecture on top of the shared GNN (Section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.graph.builder import GraphBuilder, GraphBuilderConfig
from repro.graph.graph import GraphsTuple, concatenate_graphs, encode_graph
from repro.graph.types import EdgeType
from repro.graph.vocabulary import Vocabulary, build_default_vocabulary
from repro.gnn.blocks import GraphNetwork, GraphState, GraphTopology
from repro.isa.basic_block import BasicBlock
from repro.models.base import ThroughputModel
from repro.models.config import GraniteConfig
from repro.nn.layers import Dense, Embedding, ResidualMLP
from repro.nn.tensor import (
    Tensor,
    active_dtype,
    fast_path_active,
    gather_rows,
    segment_sum,
)
from repro.utils.cache import LRUCache

__all__ = ["GraniteModel", "GraniteBatch"]


@dataclass
class GraniteBatch:
    """An encoded batch of basic blocks: the packed graph plus topology."""

    graphs: GraphsTuple
    topology: GraphTopology


class GraniteModel(ThroughputModel):
    """GRANITE: graph neural network throughput estimator.

    Args:
        config: Model hyper-parameters; defaults to Table 4 of the paper.
        vocabulary: Token vocabulary; defaults to the canonical vocabulary
            covering every known mnemonic, prefix and register.
        graph_config: Graph construction options (used by ablations).
    """

    def __init__(
        self,
        config: Optional[GraniteConfig] = None,
        vocabulary: Optional[Vocabulary] = None,
        graph_config: Optional[GraphBuilderConfig] = None,
    ) -> None:
        self.config = config or GraniteConfig()
        self.vocabulary = vocabulary or build_default_vocabulary()
        self.graph_builder = GraphBuilder(graph_config)
        self.tasks = tuple(self.config.tasks)
        self.inference_dtype = self.config.inference_dtype
        if not self.tasks:
            raise ValueError("GraniteModel needs at least one task")

        # Encode caches: graph construction dominates single-block inference
        # cost, and evaluation sweeps predict the same blocks over and over.
        # Encoded graphs depend only on the block text, the (fixed) builder
        # configuration and the vocabulary, never on the weights, so the
        # caches survive retraining without invalidation.
        self._graph_cache: LRUCache[str, GraphsTuple] = LRUCache(
            self.config.encode_cache_size
        )
        self._batch_cache: LRUCache[Tuple[str, ...], GraniteBatch] = LRUCache(
            self.config.batch_cache_size
        )

        rng = np.random.default_rng(self.config.seed)
        num_edge_types = len(EdgeType)
        cfg = self.config

        # Input encoders (Section 3.2: learnable embeddings per token / edge
        # type; the global feature starts as token/edge-type frequencies).
        self.node_embedding = Embedding(len(self.vocabulary), cfg.node_embedding_size, rng)
        self.edge_embedding = Embedding(num_edge_types, cfg.edge_embedding_size, rng)
        global_input_size = len(self.vocabulary) + num_edge_types
        self.global_encoder = Dense(
            global_input_size, cfg.global_embedding_size, rng, activation=None
        )

        # The processing core: a full GN block applied N times.
        self.graph_network = GraphNetwork(
            edge_size=cfg.edge_embedding_size,
            node_size=cfg.node_embedding_size,
            global_size=cfg.global_embedding_size,
            hidden_sizes=cfg.update_hidden_sizes,
            num_message_passing_iterations=cfg.num_message_passing_iterations,
            rng=rng,
            use_layer_norm=cfg.use_layer_norm,
            use_residual=cfg.use_residual,
            aggregation=cfg.aggregation,
        )

        # One decoder head per task (multi-task, Section 3.4); a single-task
        # model is simply the special case of one head.  The decoder input is
        # an instruction-node embedding for the paper's per-instruction
        # readout, or the graph's global feature for the readout ablation.
        decoder_input_size = (
            cfg.node_embedding_size
            if cfg.readout == "per_instruction"
            else cfg.global_embedding_size
        )
        self.decoders: Dict[str, ResidualMLP] = {
            task: ResidualMLP(
                decoder_input_size,
                cfg.decoder_hidden_sizes,
                1,
                rng,
                use_layer_norm=cfg.use_layer_norm,
                use_residual=cfg.use_residual,
            )
            for task in self.tasks
        }

    # ------------------------------------------------------------------ #
    # Encoding.
    # ------------------------------------------------------------------ #
    def encode_blocks(self, blocks: Sequence[BasicBlock], cache_batch: bool = True) -> GraniteBatch:
        """Builds and packs the GRANITE graphs of ``blocks``.

        Each block's graph is built and encoded into arrays
        (:func:`repro.graph.graph.encode_graph`) once, and cached in an LRU
        keyed by the canonical block text; a batch is the concatenation of
        its cached arrays.  Whole packed batches are cached by their key
        tuple too (unless ``cache_batch`` is False, see
        :meth:`ThroughputModel.encode_blocks`), so evaluation sweeps that
        predict the same blocks repeatedly skip graph construction entirely.
        """
        if not blocks:
            raise ValueError("cannot encode an empty list of blocks")
        keys = tuple(block.canonical_text() for block in blocks)
        cached_batch = self._batch_cache.get(keys) if cache_batch else None
        if cached_batch is not None:
            return cached_batch
        graphs = []
        for key, block in zip(keys, blocks):
            graph = self._graph_cache.get(key)
            if graph is None:
                graph = encode_graph(self.graph_builder.build(block), self.vocabulary)
                self._graph_cache.put(key, graph)
            graphs.append(graph)
        packed = concatenate_graphs(graphs)
        topology = GraphTopology(
            senders=packed.senders,
            receivers=packed.receivers,
            node_graph_ids=packed.node_graph_ids,
            edge_graph_ids=packed.edge_graph_ids,
            num_graphs=packed.num_graphs,
        )
        batch = GraniteBatch(graphs=packed, topology=topology)
        if cache_batch:
            self._batch_cache.put(keys, batch)
        return batch

    def encode_caches(self):
        """The per-block graph cache and the packed-batch cache."""
        return [self._graph_cache, self._batch_cache]

    @property
    def encode_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the per-block graph cache (for benchmarks)."""
        return {
            "graph_hits": self._graph_cache.hits,
            "graph_misses": self._graph_cache.misses,
            "batch_hits": self._batch_cache.hits,
            "batch_misses": self._batch_cache.misses,
        }

    # ------------------------------------------------------------------ #
    # Forward pass.
    # ------------------------------------------------------------------ #
    def _process_graph(self, batch: GraniteBatch) -> GraphState:
        """Runs the input encoders and the graph network on a packed batch.

        Under ``no_grad`` every feature is a raw numpy array (the inference
        fast path); under gradient recording they are tape tensors.
        """
        graphs = batch.graphs
        grad = not fast_path_active()
        dtype = np.float64 if grad else active_dtype()
        node_features = self.node_embedding(graphs.node_token_ids)
        if graphs.num_edges > 0:
            edge_features = self.edge_embedding(graphs.edge_type_ids)
        else:
            zeros = np.zeros((0, self.config.edge_embedding_size), dtype=dtype)
            edge_features = Tensor(zeros) if grad else zeros
        globals_input = Tensor(graphs.globals_features) if grad else graphs.globals_features
        global_features = self.global_encoder(globals_input)
        state = GraphState(nodes=node_features, edges=edge_features, globals_=global_features)
        return self.graph_network(state, batch.topology)

    def forward_width(self) -> int:
        return self.config.node_embedding_size

    def embed_batch(self, batch: GraniteBatch) -> Tensor:
        """Returns the final per-instruction embeddings of the batch.

        This exposes the learned representation (useful for downstream tasks
        and for tests); :meth:`forward` applies the decoders on top.
        """
        processed = self._process_graph(batch)
        return gather_rows(processed.nodes, batch.graphs.instruction_node_indices)

    def forward(self, batch: GraniteBatch) -> Dict[str, Tensor]:
        """Predicts the throughput of every block, for every task.

        With the paper's ``per_instruction`` readout, the decoder computes
        the contribution of each instruction mnemonic node and contributions
        are summed per basic block (Section 3.3).  With the ``global``
        readout ablation, the decoder maps each graph's global feature
        directly to the block throughput.
        """
        graphs = batch.graphs
        processed = self._process_graph(batch)
        predictions: Dict[str, Tensor] = {}
        if self.config.readout == "per_instruction":
            instruction_embeddings = gather_rows(
                processed.nodes, graphs.instruction_node_indices
            )
            for task in self.tasks:
                contributions = self.decoders[task](instruction_embeddings)
                per_block = segment_sum(
                    contributions.reshape(-1),
                    graphs.instruction_graph_ids,
                    graphs.num_graphs,
                )
                predictions[task] = per_block * self.config.output_scale
        else:
            for task in self.tasks:
                per_block = self.decoders[task](processed.globals_).reshape(-1)
                predictions[task] = per_block * self.config.output_scale
        return predictions
