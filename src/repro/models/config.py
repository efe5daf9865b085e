"""Model hyper-parameter configurations (Table 4 of the paper).

The defaults follow Table 4: 256-wide embeddings, two-layer 256-wide update
and decoder networks, eight message passing iterations, layer normalisation
and residual connections enabled, and a learning rate of 1e-3 with batches
of 100 basic blocks.

The full-size configuration is expensive on a CPU-only numpy runtime, so
:func:`GraniteConfig.small` / :func:`IthemalConfig.small` provide reduced
presets used by the unit tests and the quick benchmark harness; every
experiment script accepts a ``--full`` flag to switch back to the paper's
values.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Sequence, Tuple

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.nn.tensor import SUPPORTED_DTYPES

__all__ = [
    "GraniteConfig",
    "IthemalConfig",
    "TrainingConfig",
    "default_inference_dtype",
]


def default_inference_dtype() -> str:
    """The process-wide default inference dtype.

    ``float64`` unless the ``INFERENCE_DTYPE`` environment variable says
    otherwise — which is how the CI matrix runs the whole tier-1 suite with
    float32 inference without touching any individual test.  Training is
    always float64 regardless (see ``repro.nn.tensor.compute_dtype``).
    The serving stack follows the same env-default pattern for its chaos
    schedule (``repro.serve.faults.default_fault_plan``).
    """
    return os.environ.get("INFERENCE_DTYPE", "float64")


@dataclass(frozen=True)
class GraniteConfig:
    """Hyper-parameters of the GRANITE model.

    Attributes:
        node_embedding_size: Size of node token embeddings and node latents.
        edge_embedding_size: Size of edge type embeddings and edge latents.
        global_embedding_size: Size of the latent global feature.
        update_hidden_sizes: Hidden layers of every GN update network.
        decoder_hidden_sizes: Hidden layers of the per-task decoder network.
        num_message_passing_iterations: GN block applications (Table 7
            sweeps 1-12; 8 is the paper's best).
        tasks: Target microarchitecture keys; a single entry makes the model
            single-task, several entries make it multi-task (Section 3.4).
        use_layer_norm: Layer normalisation at the input of every update
            network and decoder (the Section 5.2 ablation disables it).
        use_residual: Residual connections in update networks and decoder.
        aggregation: Reducer used when aggregating edge features into nodes
            and node/edge features into the global feature.  Graph Nets (and
            hence the paper) default to ``"sum"``; ``"mean"`` is numerically
            better behaved for the short CPU training runs used in this
            reproduction and is the default here ("sum" diverges from
            initialisation at this scale; see ROADMAP item 2).  The
            per-instruction decoder outputs are always summed per block, as
            in Table 4.
        readout: ``"per_instruction"`` (the paper's design: decode every
            instruction mnemonic node and sum the contributions) or
            ``"global"`` (decode the graph-level global feature directly) —
            the readout ablation (``repro.eval.experiments.READOUT_ARMS``).
        output_scale: Constant multiplier applied to decoder outputs; keeps
            the per-instruction contributions in a numerically convenient
            range given that labels are cycles per 100 iterations.
        inference_dtype: Compute dtype of the no-grad inference fast path
            (``"float64"`` default, ``"float32"`` for mixed-precision
            serving).  Master weights and training stay float64; predictions
            computed in float32 must pass the tolerance harness in
            ``tests/equivalence``.  The default honours the
            ``INFERENCE_DTYPE`` environment variable (CI matrix leg).
        seed: Seed for weight initialisation.
        encode_cache_size: Capacity of the per-block graph LRU cache used by
            :meth:`repro.models.granite.GraniteModel.encode_blocks` (0
            disables caching).  Graphs depend only on the block text, so the
            cache stays valid across retraining.
        batch_cache_size: Capacity of the packed-batch LRU cache keyed by the
            tuple of canonical block texts (0 disables it).
    """

    node_embedding_size: int = 256
    edge_embedding_size: int = 256
    global_embedding_size: int = 256
    update_hidden_sizes: Tuple[int, ...] = (256, 256)
    decoder_hidden_sizes: Tuple[int, ...] = (256, 256)
    num_message_passing_iterations: int = 8
    tasks: Tuple[str, ...] = TARGET_MICROARCHITECTURES
    use_layer_norm: bool = True
    use_residual: bool = True
    aggregation: str = "mean"
    readout: str = "per_instruction"
    output_scale: float = 100.0
    inference_dtype: str = field(default_factory=default_inference_dtype)
    seed: int = 0
    encode_cache_size: int = 8192
    batch_cache_size: int = 64

    def __post_init__(self) -> None:
        if self.readout not in ("per_instruction", "global"):
            raise ValueError("readout must be 'per_instruction' or 'global'")
        if self.aggregation not in ("sum", "mean"):
            raise ValueError("aggregation must be 'sum' or 'mean'")
        if self.inference_dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"inference_dtype must be one of {SUPPORTED_DTYPES}, "
                f"got {self.inference_dtype!r}"
            )

    @staticmethod
    def paper_defaults(tasks: Sequence[str] = TARGET_MICROARCHITECTURES) -> "GraniteConfig":
        """The configuration from Table 4 of the paper."""
        return GraniteConfig(tasks=tuple(tasks))

    @staticmethod
    def small(
        tasks: Sequence[str] = TARGET_MICROARCHITECTURES,
        num_message_passing_iterations: int = 4,
        seed: int = 0,
    ) -> "GraniteConfig":
        """A reduced configuration that trains in seconds on a CPU."""
        return GraniteConfig(
            node_embedding_size=32,
            edge_embedding_size=32,
            global_embedding_size=32,
            update_hidden_sizes=(32, 32),
            decoder_hidden_sizes=(32, 32),
            num_message_passing_iterations=num_message_passing_iterations,
            tasks=tuple(tasks),
            seed=seed,
        )

    def with_tasks(self, tasks: Sequence[str]) -> "GraniteConfig":
        """Returns a copy of the config targeting different tasks."""
        return replace(self, tasks=tuple(tasks))


@dataclass(frozen=True)
class IthemalConfig:
    """Hyper-parameters of the Ithemal / Ithemal+ baselines.

    Attributes:
        token_embedding_size: Size of token embedding vectors.
        hidden_size: LSTM state size for both hierarchy levels.
        decoder: ``"dot_product"`` for vanilla Ithemal (a linear readout of
            the block embedding) or ``"mlp"`` for the Ithemal+ extension
            (the same residual MLP decoder as GRANITE).
        decoder_hidden_sizes: Hidden layers of the MLP decoder (Ithemal+).
        tasks: Target microarchitecture keys (one per decoder head).
        use_layer_norm: Layer normalisation at the MLP decoder input.
        output_scale: Constant multiplier on decoder outputs.
        inference_dtype: Compute dtype of the no-grad inference fast path
            (see :attr:`GraniteConfig.inference_dtype`).
        seed: Seed for weight initialisation.
        encode_cache_size: Capacity of the per-block tokenization LRU cache
            (0 disables caching); valid across retraining because the
            tokenization depends only on the block text.
        batch_cache_size: Capacity of the padded-batch LRU cache keyed by
            the tuple of canonical block texts (0 disables it).
    """

    token_embedding_size: int = 256
    hidden_size: int = 256
    decoder: str = "dot_product"
    decoder_hidden_sizes: Tuple[int, ...] = (256, 256)
    tasks: Tuple[str, ...] = TARGET_MICROARCHITECTURES
    use_layer_norm: bool = True
    output_scale: float = 100.0
    inference_dtype: str = field(default_factory=default_inference_dtype)
    seed: int = 0
    encode_cache_size: int = 8192
    batch_cache_size: int = 64

    def __post_init__(self) -> None:
        if self.decoder not in ("dot_product", "mlp"):
            raise ValueError("decoder must be 'dot_product' or 'mlp'")
        if self.inference_dtype not in SUPPORTED_DTYPES:
            raise ValueError(
                f"inference_dtype must be one of {SUPPORTED_DTYPES}, "
                f"got {self.inference_dtype!r}"
            )

    @staticmethod
    def paper_defaults(
        tasks: Sequence[str] = TARGET_MICROARCHITECTURES, plus: bool = False
    ) -> "IthemalConfig":
        """Vanilla Ithemal (or Ithemal+ when ``plus=True``) at paper scale."""
        return IthemalConfig(tasks=tuple(tasks), decoder="mlp" if plus else "dot_product")

    @staticmethod
    def small(
        tasks: Sequence[str] = TARGET_MICROARCHITECTURES,
        plus: bool = False,
        seed: int = 0,
    ) -> "IthemalConfig":
        """A reduced configuration that trains in seconds on a CPU."""
        return IthemalConfig(
            token_embedding_size=32,
            hidden_size=32,
            decoder="mlp" if plus else "dot_product",
            decoder_hidden_sizes=(32, 32),
            tasks=tuple(tasks),
            seed=seed,
        )

    def with_tasks(self, tasks: Sequence[str]) -> "IthemalConfig":
        """Returns a copy of the config targeting different tasks."""
        return replace(self, tasks=tuple(tasks))


@dataclass(frozen=True)
class TrainingConfig:
    """Optimisation hyper-parameters (Table 4).

    Attributes:
        learning_rate: Adam learning rate (1e-3 in the paper).
        batch_size: Basic blocks per batch (100 in the paper).
        num_steps: Training steps (the paper trains for >= 6M steps; the
            reproduction uses far fewer).
        loss: Name of the training loss (Table 9 sweeps alternatives).
        gradient_clip_norm: Global-norm gradient clipping; 0 disables it.
            The paper only needs clipping when layer normalisation is
            removed (Section 5.2).
        validation_interval: Steps between validation evaluations used to
            select the best checkpoint.
        seed: Seed controlling batch sampling.
    """

    learning_rate: float = 1e-3
    batch_size: int = 100
    num_steps: int = 300
    loss: str = "mape"
    gradient_clip_norm: float = 0.0
    validation_interval: int = 50
    seed: int = 0
