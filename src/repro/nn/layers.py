"""Standard neural-network layers.

These are the building blocks of the GRANITE and Ithemal models: dense
layers, multi-layer feed-forward ReLU networks, layer normalisation, learned
embedding tables, and the residual MLP with layer normalisation at the input
which the paper uses for every update function and decoder (Section 3.2/3.3,
Table 4: "Layer/Decoder Normalization = True", "Residual Connections =
True").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn import init
from repro.nn.fused import (
    Layout,
    Pieces,
    _activate,
    _fold_piece_weights,
    _group_pieces,
    _transform_then_gather,
    fused_dense,
    fused_layer_norm,
    fused_piece_update,
)
from repro.nn.module import Module, Parameter
from repro.nn.tensor import (
    Tensor,
    active_dtype,
    as_tensor,
    concatenate,
    fast_path_active,
    gather_rows,
    raw,
)

__all__ = [
    "Dense",
    "MLP",
    "LayerNorm",
    "Embedding",
    "ResidualMLP",
]


class Dense(Module):
    """A fully connected layer ``y = activation(x W + b)``.

    Args:
        input_size: Number of input features.
        output_size: Number of output features.
        rng: Random generator used for weight initialisation.
        activation: ``"relu"`` or ``None``.
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
        if activation not in (None, "relu"):
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
            return _activate(outputs, self.activation)
        return fused_dense(inputs, self.weight, self.bias, self.activation)


class MLP(Module):
    """A multi-layer feed-forward ReLU network.

    The paper uses two-layer 256-wide ReLU networks for every update function
    and decoder (Table 4).  Hidden layers use ReLU; the output layer is
    linear.

    Args:
        input_size: Number of input features.
        hidden_sizes: Sizes of the hidden layers.
        output_size: Number of output features.
        rng: Random generator for initialisation.
    """

    def __init__(
        self,
        input_size: int,
        hidden_sizes: Sequence[int],
        output_size: int,
        rng: np.random.Generator,
    ) -> None:
        sizes = [input_size] + list(hidden_sizes) + [output_size]
        layers: List[Dense] = []
        for index in range(len(sizes) - 1):
            activation = None if index == len(sizes) - 2 else "relu"
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

    The GN blocks feed it the concatenation of row-gathered pieces (edge,
    sender node, receiver node, global), which :meth:`forward_pieces`
    evaluates without building that wide input.  For an input row
    ``x = [x_1 | ... | x_K]`` of ``D`` features with mean ``μ`` and variance
    ``σ²``, LayerNorm gain ``g`` and offset ``o``, first Dense ``(W, b)``
    with row blocks ``W_k``, and projection ``P`` with row blocks ``P_k``::

        LayerNorm(x) @ W + b = (x @ W' - μ·c) / sqrt(σ² + ε) + b'
                             = (x @ W'') / sqrt(σ² + ε) + b'
        W' = diag(g) W,  c = colsum(W'),  W'' = W' - 1·cᵀ/D,  b' = o @ W + b
        x @ [W'' | P] = Σ_k x_k @ [W''_k | P_k]

    (``x @ 1·cᵀ/D = μ·c``, so ``W''`` also folds the mean subtraction into
    the weights.)  All three lines are exact algebra: only the order of
    floating-point additions changes (per-piece partial GEMMs summed, and
    ``σ²`` from row sums and sums of squares), so the result matches
    :meth:`forward` up to rounding.  A gather commutes with a
    right-multiplication, ``x_k[i] @ M = (x_k @ M)[i]``, so each piece is
    multiplied on its source rows (nodes or graphs) and only the product is
    gathered per edge.  Inference and training both evaluate it; the
    backward of the tape node (:func:`repro.nn.fused.fused_piece_update`)
    likewise scatters each gradient onto source rows before multiplying.

    On the tape every evaluation is that one node, which covers LayerNorm,
    all Dense layers and the residual: :meth:`forward` is
    ``forward_pieces([(x, None)])``, so the decoders record one node each
    too.  The no-grad :meth:`forward` runs LayerNorm → MLP → + residual on
    numpy arrays.

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
        self._folded = _FoldCache()

    def forward(self, inputs: Tensor) -> Tensor:
        if not fast_path_active():
            return self.forward_pieces([(inputs, None)])
        inputs = raw(inputs)
        hidden = self.layer_norm(inputs) if self.layer_norm is not None else inputs
        outputs = self.mlp(hidden)
        if self.use_residual:
            # The last Dense returned a fresh array.
            outputs += self.projection(inputs) if self.projection is not None else inputs
        return outputs

    def forward_pieces(self, pieces: Pieces) -> Tensor:
        """The update of the concatenated, row-gathered ``pieces``.

        Equal to ``self(concatenate([gather_rows(f, i) if i is not None
        else f for f, i in pieces]))``, but evaluated by the identity in the
        class docstring, which is what both paths run: pieces that share a
        source array share one GEMM, and the wide concatenated input is
        never built.  The tape records the whole update as one
        :func:`repro.nn.fused.fused_piece_update` node, whose backward also
        works on source rows.  An identity residual (input size equals
        output size) needs that input and falls back to the concatenation;
        on the tape it is added to the node's output.
        """
        fast = fast_path_active()
        identity = self.use_residual and self.projection is None
        if identity:
            inputs = concatenate([f if i is None else gather_rows(f, i) for f, i in pieces])
            if fast:
                return self(inputs)
            pieces = [(inputs, None)]
        widths = tuple(features.shape[-1] for features, _ in pieces)
        if sum(widths) != self.input_size:
            raise ValueError(
                f"pieces have {sum(widths)} features in total, expected {self.input_size}"
            )

        first, *rest = self.mlp.layers
        layer_norm, projection = self.layer_norm, self.projection
        if not fast:
            gain, offset, epsilon = (
                (None, None, 0.0)
                if layer_norm is None
                else (layer_norm.gain, layer_norm.offset, layer_norm.epsilon)
            )
            outputs = fused_piece_update(
                pieces,
                first.weight,
                first.bias,
                gain,
                offset,
                None if projection is None else projection.weight,
                first.activation,
                epsilon,
                [(layer.weight, layer.bias, layer.activation) for layer in rest],
            )
            return outputs + inputs if identity else outputs

        dtype = active_dtype()
        layout = _group_pieces(pieces)
        weights, bias = self._folded_weights(dtype, layout, widths)
        update, _, _ = _transform_then_gather(
            [raw(pieces[group[0]][0]) for group in layout],
            [index for _, index in pieces],
            layout,
            weights,
            bias,
            first.output_size,
            None if layer_norm is None else layer_norm.epsilon_for(dtype),
        )
        outputs = _activate(update[:, : first.output_size], first.activation)
        for layer in rest:
            outputs = layer(outputs)
        if projection is not None:
            outputs += update[:, first.output_size :]
        return outputs

    def _folded_weights(self, dtype: np.dtype, layout: Layout, widths: Tuple[int, ...]) -> tuple:
        """``(per-group weights, b')`` of the no-grad :meth:`forward_pieces`.

        :func:`repro.nn.fused._fold_piece_weights` of the master weights
        (float64), cast to ``dtype`` and cached until an optimizer step,
        ``load_state_dict`` or ``bump_version`` changes one of the five
        parameters involved.
        """
        first = self.mlp.layers[0]
        layer_norm, projection = self.layer_norm, self.projection
        parameters = (
            first.weight,
            first.bias,
            None if layer_norm is None else layer_norm.gain,
            None if layer_norm is None else layer_norm.offset,
            None if projection is None else projection.weight,
        )
        versions = tuple(-1 if p is None else p.version for p in parameters)
        key = (dtype, layout, widths)
        cached = self._folded.entries.get(key)
        if cached is not None and cached[0] == versions:
            return cached[1]

        weights, bias = _fold_piece_weights(
            *(None if p is None else p.data for p in parameters), widths, layout
        )
        folded = (
            tuple(weight.astype(dtype) for weight in weights),
            None if bias is None else bias.astype(dtype),
        )
        self._folded.entries[key] = (versions, folded)
        return folded


class _FoldCache:
    """Cached :meth:`ResidualMLP._folded_weights`, per (dtype, input layout).

    A plain object rather than a dict, so that Module parameter discovery
    does not walk it (and never iterates it while a forward on another
    thread adds an entry).
    """

    def __init__(self) -> None:
        self.entries: Dict[tuple, tuple] = {}
