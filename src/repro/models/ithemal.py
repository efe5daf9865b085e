"""The Ithemal and Ithemal+ baseline models.

Ithemal (Mendis et al. 2019) is the learned baseline the paper compares
against.  It is a hierarchical LSTM:

1. each instruction is tokenized (:mod:`repro.models.tokenizer`) and its
   tokens run through a first LSTM whose final state is the *instruction
   embedding*;
2. the instruction embeddings of a block run through a second LSTM whose
   final state is the *block embedding*;
3. the decoder maps the block embedding to the predicted throughput — a
   single dot product with a learned weight vector in vanilla Ithemal.

"Ithemal+" is the paper's extended baseline (Section 4, "Extensions to the
Ithemal model"): the dot-product decoder is replaced by the same multi-layer
residual MLP decoder used by GRANITE, and multi-task heads are supported.
Selecting between the two is a configuration switch
(:attr:`IthemalConfig.decoder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.isa.basic_block import BasicBlock
from repro.models.base import ThroughputModel
from repro.models.config import IthemalConfig
from repro.models.tokenizer import build_ithemal_vocabulary, tokenize_block
from repro.graph.vocabulary import Vocabulary
from repro.nn.layers import Embedding, ResidualMLP
from repro.nn.lstm import LSTM
from repro.nn.module import Parameter
from repro.nn.tensor import Tensor, matmul, scatter_rows
from repro.utils.cache import LRUCache

__all__ = ["IthemalModel", "IthemalBatch"]


def _slot_indices(
    instruction_block_ids: np.ndarray,
    block_lengths: np.ndarray,
    max_instructions: int,
) -> np.ndarray:
    """Destination rows for re-packing instructions into padded blocks.

    Instruction ``i`` of the flat batch lands in row
    ``block * max_instructions + position_within_block`` of the padded
    ``[num_blocks * max_instructions, hidden]`` layout.  Computed from
    cumulative block counts in O(N) — ``instruction_block_ids`` lists each
    block's instructions contiguously in order (as ``encode_blocks``
    produces them), so the position within a block is the flat index minus
    the block's cumulative start.
    """
    starts = np.zeros(block_lengths.shape[0], dtype=np.int64)
    np.cumsum(block_lengths[:-1], out=starts[1:])
    positions = (
        np.arange(instruction_block_ids.shape[0], dtype=np.int64)
        - starts[instruction_block_ids]
    )
    return instruction_block_ids * max_instructions + positions


@dataclass
class IthemalBatch:
    """An encoded batch of blocks for the hierarchical LSTM.

    Attributes:
        token_ids: ``[total_instructions, max_tokens]`` padded token ids.
        token_lengths: ``[total_instructions]`` true token counts.
        instruction_block_ids: ``[total_instructions]`` block index of each
            instruction.
        block_lengths: ``[num_blocks]`` number of instructions per block.
        num_blocks: Number of basic blocks in the batch.
        max_instructions: Maximum instructions per block in this batch.
        slot_indices: ``[total_instructions]`` destination row of each
            instruction in the padded ``[num_blocks * max_instructions]``
            layout (precomputed once per batch; see :func:`_slot_indices`).
    """

    token_ids: np.ndarray
    token_lengths: np.ndarray
    instruction_block_ids: np.ndarray
    block_lengths: np.ndarray
    num_blocks: int
    max_instructions: int
    slot_indices: Optional[np.ndarray] = None


class IthemalModel(ThroughputModel):
    """Hierarchical-LSTM throughput estimator (Ithemal / Ithemal+).

    Args:
        config: Model hyper-parameters.  ``config.decoder`` selects the
            vanilla dot-product decoder or the Ithemal+ MLP decoder.
        vocabulary: Token vocabulary; defaults to the canonical vocabulary
            extended with the Ithemal delimiter tokens.
    """

    def __init__(
        self,
        config: Optional[IthemalConfig] = None,
        vocabulary: Optional[Vocabulary] = None,
    ) -> None:
        self.config = config or IthemalConfig()
        self.vocabulary = vocabulary or build_ithemal_vocabulary()
        self.tasks = tuple(self.config.tasks)
        self.inference_dtype = self.config.inference_dtype
        if not self.tasks:
            raise ValueError("IthemalModel needs at least one task")

        cfg = self.config
        # Per-block tokenization and padded-batch caches (see GraniteModel's
        # graph caches); both depend only on the block text, not the weights.
        self._token_cache: LRUCache[str, List[List[int]]] = LRUCache(cfg.encode_cache_size)
        self._batch_cache: LRUCache[Tuple[str, ...], IthemalBatch] = LRUCache(
            cfg.batch_cache_size
        )
        rng = np.random.default_rng(cfg.seed)
        self.token_embedding = Embedding(len(self.vocabulary), cfg.token_embedding_size, rng)
        self.instruction_lstm = LSTM(cfg.token_embedding_size, cfg.hidden_size, rng)
        self.block_lstm = LSTM(cfg.hidden_size, cfg.hidden_size, rng)

        if cfg.decoder == "dot_product":
            # Vanilla Ithemal: the prediction is a dot product of the block
            # embedding with a learned weight vector, one vector per task.
            self.decoder_weights: Dict[str, Parameter] = {
                task: Parameter(
                    rng.normal(0.0, 1.0 / np.sqrt(cfg.hidden_size), size=(cfg.hidden_size, 1)),
                    name=f"decoder_{task}",
                )
                for task in self.tasks
            }
            self.decoders: Dict[str, ResidualMLP] = {}
        else:
            # Ithemal+: the same residual MLP decoder as GRANITE, per task.
            self.decoder_weights = {}
            self.decoders = {
                task: ResidualMLP(
                    cfg.hidden_size,
                    cfg.decoder_hidden_sizes,
                    1,
                    rng,
                    use_layer_norm=cfg.use_layer_norm,
                    use_residual=True,
                )
                for task in self.tasks
            }

    # ------------------------------------------------------------------ #
    # Encoding.
    # ------------------------------------------------------------------ #
    def _tokenize_cached(self, key: str, block: BasicBlock) -> List[List[int]]:
        """Returns the per-instruction token id lists of ``block`` (cached)."""
        encoded = self._token_cache.get(key)
        if encoded is None:
            tokenized = tokenize_block(block)
            # Blocks may be empty in pathological cases; give them one
            # NOP-like dummy instruction of a single unknown token so shapes
            # stay valid.
            if not tokenized:
                tokenized = [[self.vocabulary.token_of(self.vocabulary.unknown_id)]]
            encoded = [self.vocabulary.encode(tokens) for tokens in tokenized]
            self._token_cache.put(key, encoded)
        return encoded

    def encode_blocks(self, blocks: Sequence[BasicBlock], cache_batch: bool = True) -> IthemalBatch:
        """Tokenizes and pads a batch of basic blocks (LRU cached; see
        :meth:`ThroughputModel.encode_blocks` for ``cache_batch``)."""
        if not blocks:
            raise ValueError("cannot encode an empty list of blocks")
        keys = tuple(block.canonical_text() for block in blocks)
        cached_batch = self._batch_cache.get(keys) if cache_batch else None
        if cached_batch is not None:
            return cached_batch

        instruction_token_ids: List[List[int]] = []
        instruction_block_ids: List[int] = []
        block_lengths: List[int] = []
        for block_index, (key, block) in enumerate(zip(keys, blocks)):
            encoded_instructions = self._tokenize_cached(key, block)
            block_lengths.append(len(encoded_instructions))
            for ids in encoded_instructions:
                instruction_token_ids.append(ids)
                instruction_block_ids.append(block_index)

        max_tokens = max(len(ids) for ids in instruction_token_ids)
        token_ids = np.zeros((len(instruction_token_ids), max_tokens), dtype=np.int64)
        token_lengths = np.zeros(len(instruction_token_ids), dtype=np.int64)
        for row, ids in enumerate(instruction_token_ids):
            token_ids[row, : len(ids)] = ids
            token_lengths[row] = len(ids)

        instruction_block_id_array = np.array(instruction_block_ids, dtype=np.int64)
        block_length_array = np.array(block_lengths, dtype=np.int64)
        max_instructions = int(max(block_lengths))
        batch = IthemalBatch(
            token_ids=token_ids,
            token_lengths=token_lengths,
            instruction_block_ids=instruction_block_id_array,
            block_lengths=block_length_array,
            num_blocks=len(blocks),
            max_instructions=max_instructions,
            slot_indices=_slot_indices(
                instruction_block_id_array, block_length_array, max_instructions
            ),
        )
        if cache_batch:
            self._batch_cache.put(keys, batch)
        return batch

    def encode_caches(self):
        """The per-block tokenization cache and the padded-batch cache."""
        return [self._token_cache, self._batch_cache]

    @property
    def encode_cache_stats(self) -> Dict[str, int]:
        """Hit/miss counters of the tokenization cache (for benchmarks)."""
        return {
            "token_hits": self._token_cache.hits,
            "token_misses": self._token_cache.misses,
            "batch_hits": self._batch_cache.hits,
            "batch_misses": self._batch_cache.misses,
        }

    # ------------------------------------------------------------------ #
    # Forward pass.
    # ------------------------------------------------------------------ #
    def forward_width(self) -> int:
        return self.config.hidden_size

    def embed_batch(self, batch: IthemalBatch) -> Tensor:
        """Returns the block embeddings ``[num_blocks, hidden_size]``."""
        # Level 1: token LSTM over every instruction of every block.
        token_features = self.token_embedding(batch.token_ids.reshape(-1)).reshape(
            batch.token_ids.shape[0], batch.token_ids.shape[1], self.config.token_embedding_size
        )
        _, instruction_embeddings = self.instruction_lstm(
            token_features, batch.token_lengths, need_outputs=False
        )

        # Re-pack instruction embeddings into a [num_blocks, max_instr, H]
        # padded tensor.  On the no-grad fast path this is a direct indexed
        # assignment; on the tape it is the scatter_rows primitive whose
        # backward is an O(N) gather.
        num_blocks = batch.num_blocks
        max_instructions = batch.max_instructions
        hidden_size = self.config.hidden_size
        slots = batch.slot_indices
        if slots is None:
            slots = _slot_indices(
                batch.instruction_block_ids, batch.block_lengths, max_instructions
            )
        if isinstance(instruction_embeddings, np.ndarray):
            flat = np.zeros(
                (num_blocks * max_instructions, hidden_size),
                dtype=instruction_embeddings.dtype,
            )
            flat[slots] = instruction_embeddings
            packed = flat.reshape(num_blocks, max_instructions, hidden_size)
        else:
            packed = scatter_rows(
                instruction_embeddings, slots, num_blocks * max_instructions
            ).reshape(num_blocks, max_instructions, hidden_size)

        # Level 2: block LSTM over the instruction embeddings.
        _, block_embeddings = self.block_lstm(
            packed, batch.block_lengths, need_outputs=False
        )
        return block_embeddings

    def forward(self, batch: IthemalBatch) -> Dict[str, Tensor]:
        """Predicts the throughput of every block for every task."""
        block_embeddings = self.embed_batch(batch)
        predictions: Dict[str, Tensor] = {}
        for task in self.tasks:
            if self.config.decoder == "dot_product":
                weight = self.decoder_weights[task]
                if isinstance(block_embeddings, np.ndarray):
                    # Stay on the raw-numpy fast path: a Parameter operand
                    # would pull the matmul back onto tape Tensors.
                    output = block_embeddings @ weight.data_as(block_embeddings.dtype)
                else:
                    output = matmul(block_embeddings, weight)
            else:
                output = self.decoders[task](block_embeddings)
            predictions[task] = output.reshape(-1) * self.config.output_scale
        return predictions
