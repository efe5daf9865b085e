"""Neural-network substrate: autodiff tensors, layers, losses, optimizers.

This subpackage replaces the TensorFlow 1.x runtime used by the original
GRANITE implementation with a small, dependency-free (numpy only)
reverse-mode autodiff engine and the layers the paper's models need.
"""

from repro.nn.fused import fused_dense, fused_layer_norm, fused_lstm_step
from repro.nn.layers import Dense, Embedding, LayerNorm, MLP, ResidualMLP, Sequential
from repro.nn.losses import (
    LOSS_FUNCTIONS,
    get_loss,
    huber_loss,
    mean_absolute_percentage_error,
    mean_squared_error,
    relative_huber_loss,
    relative_mean_squared_error,
)
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.module import (
    Module,
    Parameter,
    bump_parameter_version,
    parameter_version,
)
from repro.nn.optim import (
    Adam,
    Optimizer,
    SGD,
    clip_gradients_by_global_norm,
    global_gradient_norm,
)
from repro.nn.serialization import (
    CheckpointCorruptError,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.nn.tensor import (
    SUPPORTED_DTYPES,
    Tensor,
    active_dtype,
    as_tensor,
    compute_dtype,
    concatenate,
    fast_path_active,
    gather_rows,
    is_grad_enabled,
    matmul,
    no_grad,
    raw,
    resolve_dtype,
    relu,
    scatter_rows,
    segment_mean,
    segment_sum,
    sigmoid,
    stack,
    tanh,
    use_fast_path,
    where,
)

__all__ = [
    "Dense",
    "Embedding",
    "LayerNorm",
    "MLP",
    "ResidualMLP",
    "Sequential",
    "LOSS_FUNCTIONS",
    "get_loss",
    "huber_loss",
    "mean_absolute_percentage_error",
    "mean_squared_error",
    "relative_huber_loss",
    "relative_mean_squared_error",
    "LSTM",
    "LSTMCell",
    "Module",
    "Parameter",
    "Adam",
    "Optimizer",
    "SGD",
    "clip_gradients_by_global_norm",
    "global_gradient_norm",
    "checkpoint_to_dict",
    "CheckpointCorruptError",
    "load_checkpoint",
    "save_checkpoint",
    "SUPPORTED_DTYPES",
    "Tensor",
    "active_dtype",
    "as_tensor",
    "compute_dtype",
    "concatenate",
    "fast_path_active",
    "fused_dense",
    "fused_layer_norm",
    "fused_lstm_step",
    "resolve_dtype",
    "gather_rows",
    "is_grad_enabled",
    "matmul",
    "no_grad",
    "parameter_version",
    "bump_parameter_version",
    "raw",
    "relu",
    "scatter_rows",
    "segment_mean",
    "segment_sum",
    "sigmoid",
    "stack",
    "tanh",
    "use_fast_path",
    "where",
]
