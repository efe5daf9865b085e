"""Neural-network substrate: autodiff tensors, layers, losses, the Adam optimizer.

This subpackage replaces the TensorFlow 1.x runtime used by the original
GRANITE implementation with a small numpy reverse-mode autodiff engine
(``scipy.sparse`` runs its row scatter-adds, imported at the tape's first
scatter-add, so no-grad inference never loads scipy) and the layers the
paper's models need.  Importing it sets the process's heap policy once
(``repro.nn._allocator``) so a training step's freed tape stays mapped for
the next step.
"""

from repro.nn import _allocator  # noqa: F401  (sets the heap policy)
from repro.nn.fused import (
    fused_dense,
    fused_layer_norm,
    fused_lstm_sequence,
    fused_piece_update,
)
from repro.nn.layers import Dense, Embedding, LayerNorm, MLP, ResidualMLP
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
    scatter_rows,
    segment_mean,
    segment_sum,
    use_fast_path,
    where,
)

__all__ = [
    "Dense",
    "Embedding",
    "LayerNorm",
    "MLP",
    "ResidualMLP",
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
    "fused_lstm_sequence",
    "fused_piece_update",
    "resolve_dtype",
    "gather_rows",
    "is_grad_enabled",
    "matmul",
    "no_grad",
    "parameter_version",
    "bump_parameter_version",
    "raw",
    "scatter_rows",
    "segment_mean",
    "segment_sum",
    "use_fast_path",
    "where",
]
