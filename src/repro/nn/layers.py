"""Standard neural-network layers.

These are the building blocks of the GRANITE and Ithemal models: dense
layers, multi-layer feed-forward ReLU networks, layer normalisation, learned
embedding tables, and the residual MLP with layer normalisation at the input
which the paper uses for every update function and decoder (Section 3.2/3.3,
Table 4: "Layer/Decoder Normalization = True", "Residual Connections =
True").
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nn import init
from repro.nn.fused import fused_dense, fused_layer_norm
from repro.nn.module import Module, Parameter
from repro.nn.tensor import (
    Tensor,
    active_dtype,
    as_tensor,
    fast_path_active,
    raw,
    sigmoid,
)

__all__ = [
    "Dense",
    "MLP",
    "LayerNorm",
    "Embedding",
    "ResidualMLP",
    "Sequential",
]


class Dense(Module):
    """A fully connected layer ``y = activation(x W + b)``.

    Args:
        input_size: Number of input features.
        output_size: Number of output features.
        rng: Random generator used for weight initialisation.
        activation: ``"relu"``, ``"tanh"``, ``"sigmoid"`` or ``None``.
        use_bias: Whether to add a learned bias vector.
    """

    def __init__(
        self,
        input_size: int,
        output_size: int,
        rng: np.random.Generator,
        activation: Optional[str] = None,
        use_bias: bool = True,
    ) -> None:
        if input_size <= 0 or output_size <= 0:
            raise ValueError("Dense layer sizes must be positive")
        if activation not in (None, "relu", "tanh", "sigmoid"):
            raise ValueError(f"unsupported activation {activation!r}")
        initializer = init.he_normal if activation == "relu" else init.glorot_uniform
        self.weight = Parameter(initializer((input_size, output_size), rng), name="weight")
        self.bias = Parameter(init.zeros((output_size,)), name="bias") if use_bias else None
        self.activation = activation
        self.input_size = input_size
        self.output_size = output_size

    def forward(self, inputs: Tensor) -> Tensor:
        if fast_path_active():
            # Inference fast path: raw numpy, in-place where possible, in
            # the active compute dtype (weights cast once per weight update,
            # see Parameter.data_as).
            dtype = active_dtype()
            outputs = raw(inputs) @ self.weight.data_as(dtype)
            if self.bias is not None:
                outputs += self.bias.data_as(dtype)
            if self.activation == "relu":
                np.maximum(outputs, 0.0, out=outputs)
            elif self.activation == "tanh":
                np.tanh(outputs, out=outputs)
            elif self.activation == "sigmoid":
                outputs = sigmoid(outputs)
            return outputs
        return fused_dense(inputs, self.weight, self.bias, self.activation)


class Sequential(Module):
    """Applies a list of modules in order."""

    def __init__(self, layers: Sequence[Module]) -> None:
        self.layers = list(layers)

    def forward(self, inputs: Tensor) -> Tensor:
        outputs = inputs
        for layer in self.layers:
            outputs = layer(outputs)
        return outputs


class MLP(Module):
    """A multi-layer feed-forward ReLU network.

    The paper uses two-layer 256-wide ReLU networks for every update function
    and decoder (Table 4).  Hidden layers use ReLU; the output layer is
    linear unless ``output_activation`` says otherwise.

    Args:
        input_size: Number of input features.
        hidden_sizes: Sizes of the hidden layers.
        output_size: Number of output features.
        rng: Random generator for initialisation.
        output_activation: Optional activation applied to the final layer.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
        output_activation: Optional[str] = None,
    ) -> None:
        sizes = [input_size] + list(hidden_sizes) + [output_size]
        layers: List[Dense] = []
        for index in range(len(sizes) - 1):
            is_last = index == len(sizes) - 2
            activation = output_activation if is_last else "relu"
            layers.append(Dense(sizes[index], sizes[index + 1], rng, activation=activation))
        self.layers = layers
        self.input_size = input_size
        self.output_size = output_size

    def forward(self, inputs: Tensor) -> Tensor:
        outputs = raw(inputs) if fast_path_active() else as_tensor(inputs)
        for layer in self.layers:
            outputs = layer(outputs)
        return outputs


class LayerNorm(Module):
    """Layer normalisation (Ba et al. 2016) over the last axis.

    The paper's ablation (Section 5.2) shows layer normalisation is essential
    for the stability and accuracy of GRANITE; it is applied to the inputs of
    every update network and decoder.
    """

    #: Epsilon floor applied when normalising in float32.  The spacing of
    #: float32 around 1.0 is ~1.2e-7, so a variance computed from float32
    #: features carries rounding noise of that order; an epsilon far below
    #: it (some configs use 1e-8 and tighter) no longer regularises the
    #: rsqrt and near-constant features blow up.  float64 keeps whatever
    #: epsilon was configured.
    FLOAT32_EPSILON_FLOOR = 1e-5

    def __init__(self, size: int, epsilon: float = 1e-5) -> None:
        if size <= 0:
            raise ValueError("LayerNorm size must be positive")
        self.gain = Parameter(np.ones((size,), dtype=np.float64), name="gain")
        self.offset = Parameter(np.zeros((size,), dtype=np.float64), name="offset")
        self.epsilon = float(epsilon)
        self.size = size

    def epsilon_for(self, dtype) -> float:
        """The dtype-aware epsilon actually added to the variance."""
        if np.dtype(dtype) == np.float32:
            return max(self.epsilon, self.FLOAT32_EPSILON_FLOOR)
        return self.epsilon

    def forward(self, inputs: Tensor) -> Tensor:
        if fast_path_active():
            array = raw(inputs)
            dtype = array.dtype
            if dtype == np.float64:
                mean = array.mean(axis=-1, keepdims=True)
                centered = array - mean
                if centered.ndim == 2:
                    # einsum computes the row-wise sum of squares in one
                    # pass, noticeably faster than materialising centered**2.
                    variance = np.einsum("ij,ij->i", centered, centered)[:, None]
                    variance /= centered.shape[-1]
                else:
                    variance = (centered * centered).mean(axis=-1, keepdims=True)
                scale = (variance + self.epsilon) ** -0.5
            else:
                # float32 inference: the mean and the sum of squares are
                # reductions over the feature axis, where float32 suffers
                # catastrophic cancellation on near-constant features (a
                # single-precision two-pass variance can even come out
                # negative).  Accumulate both in float64, then fold the
                # rsqrt factor back to float32 — the per-feature work stays
                # single precision, only the [rows, 1] statistics don't.
                mean = array.mean(axis=-1, keepdims=True, dtype=np.float64)
                centered = array - mean.astype(dtype)
                if centered.ndim == 2:
                    variance = np.einsum(
                        "ij,ij->i", centered, centered, dtype=np.float64
                    )[:, None]
                    variance /= centered.shape[-1]
                else:
                    variance = (centered * centered).mean(
                        axis=-1, keepdims=True, dtype=np.float64
                    )
                scale = ((variance + self.epsilon_for(dtype)) ** -0.5).astype(dtype)
            centered *= scale
            centered *= self.gain.data_as(dtype)
            centered += self.offset.data_as(dtype)
            return centered
        return fused_layer_norm(inputs, self.gain, self.offset, self.epsilon)


class Embedding(Module):
    """A learned embedding table.

    Every assembly-language token associated with a graph node, and every
    edge type, gets a learnable embedding vector (Section 3.2).
    """

    def __init__(self, num_embeddings: int, embedding_size: int, rng: np.random.Generator) -> None:
        if num_embeddings <= 0 or embedding_size <= 0:
            raise ValueError("Embedding sizes must be positive")
        self.table = Parameter(
            init.normal_embedding((num_embeddings, embedding_size), rng), name="table"
        )
        self.num_embeddings = num_embeddings
        self.embedding_size = embedding_size

    def forward(self, indices: np.ndarray) -> Tensor:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding index out of range [0, {self.num_embeddings}): "
                f"min={indices.min()}, max={indices.max()}"
            )
        if fast_path_active():
            return self.table.data_as(active_dtype())[indices]
        return self.table.gather_rows(indices)


class ResidualMLP(Module):
    """The paper's update function: LayerNorm → MLP, with a residual connection.

    "employing multi-layer feed forward ReLU networks with residual
    connections and layer normalization at input as update functions"
    (Section 3.2).  When the input and output sizes differ, the residual
    branch is a learned linear projection.

    Args:
        input_size: Number of input features.
        hidden_sizes: Hidden layer sizes of the MLP.
        output_size: Number of output features.
        rng: Random generator for initialisation.
        use_layer_norm: Disable to reproduce the layer-norm ablation.
        use_residual: Disable to reproduce the residual ablation.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
        use_layer_norm: bool = True,
        use_residual: bool = True,
    ) -> None:
        self.layer_norm = LayerNorm(input_size) if use_layer_norm else None
        self.mlp = MLP(input_size, hidden_sizes, output_size, rng)
        self.use_residual = use_residual
        if use_residual and input_size != output_size:
            self.projection: Optional[Dense] = Dense(
                input_size, output_size, rng, activation=None, use_bias=False
            )
        else:
            self.projection = None
        self.input_size = input_size
        self.output_size = output_size

    def forward(self, inputs: Tensor) -> Tensor:
        inputs = raw(inputs) if fast_path_active() else as_tensor(inputs)
        hidden = self.layer_norm(inputs) if self.layer_norm is not None else inputs
        outputs = self.mlp(hidden)
        if self.use_residual:
            residual = self.projection(inputs) if self.projection is not None else inputs
            outputs = outputs + residual
        return outputs
