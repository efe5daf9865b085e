"""Fused tape operations with hand-written backwards.

These are the tape path of the Dense, LayerNorm and LSTM layers (see
"Execution mode" in :mod:`repro.nn.tensor`).  Composing those layers out of
the tape's elementwise primitives would record a closure per primitive — a
single LSTM time step ~15 tape nodes (gate slicing, two sigmoids, a tanh,
elementwise combines, masking), a Dense layer three to four — whose
Python/allocation overhead dominates the actual numpy work for all but the
largest models.

The ops below are each hot composite as **one** tape node whose backward is
written by hand against the stashed forward intermediates:

* :func:`fused_dense` — ``activation(x @ W + b)``;
* :func:`fused_layer_norm` — LayerNorm over the last axis;
* :func:`fused_lstm_step` — a full LSTM cell step (optionally
  length-masked), returning the ``[batch, 2 * hidden]`` concatenation of
  the new hidden and cell states (slice it with basic indexing, whose
  backward is a cheap in-place region add).

Every backward is covered by the numeric gradient checks in
``tests/test_nn_gradcheck.py`` via :mod:`repro.testing.gradcheck`, and the
whole training tape by a checked-in same-seed loss-trajectory golden
(``tests/equivalence/golden/training_losses.json``).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import ArrayLike, Tensor, _unbroadcast, as_tensor

__all__ = ["fused_dense", "fused_layer_norm", "fused_lstm_step"]

_ACTIVATIONS = (None, "relu", "tanh", "sigmoid")


def fused_dense(
    inputs: ArrayLike,
    weight: ArrayLike,
    bias: Optional[ArrayLike] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``activation(inputs @ weight + bias)`` as a single tape node.

    The tape path of :class:`repro.nn.layers.Dense`: one node instead of a
    matmul → add → activation chain; the backward computes the
    input/weight/bias gradients directly from the stashed pre-activation
    (ReLU) or output (tanh/sigmoid).
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unsupported activation {activation!r}")
    inputs = as_tensor(inputs)
    weight = as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None

    pre = inputs.data @ weight.data
    if bias is not None:
        pre = pre + bias.data
    if activation == "relu":
        out = np.maximum(pre, 0.0)
    elif activation == "tanh":
        out = np.tanh(pre)
    elif activation == "sigmoid":
        out = 1.0 / (1.0 + np.exp(-pre))
    else:
        out = pre

    def backward(gradient: np.ndarray) -> None:
        if activation == "relu":
            delta = gradient * (pre > 0.0)
        elif activation == "tanh":
            delta = gradient * (1.0 - out**2)
        elif activation == "sigmoid":
            delta = gradient * out * (1.0 - out)
        else:
            delta = gradient
        inputs._accumulate(
            _unbroadcast(delta @ np.swapaxes(weight.data, -1, -2), inputs.shape)
        )
        weight._accumulate(
            _unbroadcast(np.swapaxes(inputs.data, -1, -2) @ delta, weight.shape)
        )
        if bias is not None:
            bias._accumulate(_unbroadcast(delta, bias.shape))

    parents = (inputs, weight) if bias is None else (inputs, weight, bias)
    return Tensor._make(out, parents, backward)


def fused_layer_norm(
    inputs: ArrayLike,
    gain: ArrayLike,
    offset: ArrayLike,
    epsilon: float = 1e-5,
) -> Tensor:
    """LayerNorm over the last axis as a single tape node.

    One node instead of ~8 (mean, centering, variance, rsqrt, two scales,
    an add); it stashes the normalised activations and the rsqrt factor and
    applies the standard LayerNorm gradient
    ``dx = scale * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``.
    """
    inputs = as_tensor(inputs)
    gain = as_tensor(gain)
    offset = as_tensor(offset)

    size = inputs.data.shape[-1]
    # Mean as sum * 1/n and a two-pass variance: the training-loss golden
    # was recorded with exactly this arithmetic.
    mean = inputs.data.sum(axis=-1, keepdims=True) * (1.0 / size)
    centered = inputs.data - mean
    variance = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / size)
    scale = (variance + epsilon) ** -0.5
    normalized = centered * scale
    out = normalized * gain.data + offset.data

    def backward(gradient: np.ndarray) -> None:
        gain._accumulate(_unbroadcast(gradient * normalized, gain.shape))
        offset._accumulate(_unbroadcast(gradient, offset.shape))
        if not inputs.requires_grad:
            return
        delta = gradient * gain.data
        mean_delta = delta.mean(axis=-1, keepdims=True)
        mean_delta_normalized = (delta * normalized).mean(axis=-1, keepdims=True)
        inputs._accumulate(
            scale * (delta - mean_delta - normalized * mean_delta_normalized)
        )

    return Tensor._make(out, (inputs, gain, offset), backward)


def fused_lstm_step(
    inputs: ArrayLike,
    hidden: ArrayLike,
    cell: ArrayLike,
    weight_input: ArrayLike,
    weight_hidden: ArrayLike,
    bias: ArrayLike,
    mask: Optional[np.ndarray] = None,
) -> Tensor:
    """One LSTM cell step as a single tape node.

    Computes the standard gate formulation (input/forget/candidate/output,
    gate order matching :class:`repro.nn.lstm.LSTMCell`) and returns the
    concatenation ``[new_hidden | new_cell]`` of shape
    ``[batch, 2 * hidden_size]`` — callers slice it with basic indexing,
    which costs one cheap region-add node per slice.  When ``mask`` (a
    ``[batch]`` or ``[batch, 1]`` boolean array) is given, masked-out rows
    keep their previous state and receive no gradient through this step's
    gates — the length masking of :class:`repro.nn.lstm.LSTM`.
    """
    inputs = as_tensor(inputs)
    hidden = as_tensor(hidden)
    cell = as_tensor(cell)
    weight_input = as_tensor(weight_input)
    weight_hidden = as_tensor(weight_hidden)
    bias = as_tensor(bias)
    if mask is not None:
        mask = np.asarray(mask, dtype=bool).reshape(inputs.data.shape[0], 1)

    size = hidden.data.shape[-1]
    pre = inputs.data @ weight_input.data
    pre += hidden.data @ weight_hidden.data
    pre += bias.data
    input_gate = 1.0 / (1.0 + np.exp(-pre[:, 0 * size : 1 * size]))
    forget_gate = 1.0 / (1.0 + np.exp(-pre[:, 1 * size : 2 * size]))
    candidate = np.tanh(pre[:, 2 * size : 3 * size])
    output_gate = 1.0 / (1.0 + np.exp(-pre[:, 3 * size : 4 * size]))
    new_cell = forget_gate * cell.data + input_gate * candidate
    cell_tanh = np.tanh(new_cell)
    new_hidden = output_gate * cell_tanh
    if mask is not None:
        new_hidden = np.where(mask, new_hidden, hidden.data)
        new_cell_out = np.where(mask, new_cell, cell.data)
    else:
        new_cell_out = new_cell
    out = np.concatenate([new_hidden, new_cell_out], axis=1)

    def backward(gradient: np.ndarray) -> None:
        d_hidden = gradient[:, :size]
        d_cell = gradient[:, size:]
        if mask is not None:
            # Masked rows pass their gradient straight to the previous state.
            d_hidden_passthrough = np.where(mask, 0.0, d_hidden)
            d_cell_passthrough = np.where(mask, 0.0, d_cell)
            d_hidden = np.where(mask, d_hidden, 0.0)
            d_cell = np.where(mask, d_cell, 0.0)
        d_output_gate = d_hidden * cell_tanh
        d_new_cell = d_cell + d_hidden * output_gate * (1.0 - cell_tanh**2)
        d_pre = np.empty_like(pre)
        d_pre[:, 0 * size : 1 * size] = (
            d_new_cell * candidate * input_gate * (1.0 - input_gate)
        )
        d_pre[:, 1 * size : 2 * size] = (
            d_new_cell * cell.data * forget_gate * (1.0 - forget_gate)
        )
        d_pre[:, 2 * size : 3 * size] = d_new_cell * input_gate * (1.0 - candidate**2)
        d_pre[:, 3 * size : 4 * size] = (
            d_output_gate * output_gate * (1.0 - output_gate)
        )
        inputs._accumulate(d_pre @ weight_input.data.T)
        d_hidden_previous = d_pre @ weight_hidden.data.T
        d_cell_previous = d_new_cell * forget_gate
        if mask is not None:
            d_hidden_previous += d_hidden_passthrough
            d_cell_previous += d_cell_passthrough
        hidden._accumulate(d_hidden_previous)
        cell._accumulate(d_cell_previous)
        weight_input._accumulate(inputs.data.T @ d_pre)
        weight_hidden._accumulate(hidden.data.T @ d_pre)
        bias._accumulate(d_pre.sum(axis=0))

    parents = (inputs, hidden, cell, weight_input, weight_hidden, bias)
    return Tensor._make(out, parents, backward)
