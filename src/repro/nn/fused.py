"""Fused tape operations with hand-written backwards.

These are the tape path of the Dense, LayerNorm and LSTM layers and of the
GN blocks' :meth:`repro.nn.layers.ResidualMLP.forward_pieces` (see
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
  backward is a cheap in-place region add);
* :func:`fused_piece_update` — LayerNorm → first Dense → residual
  projection of :class:`repro.nn.layers.ResidualMLP` over row-gathered
  input pieces, by transform-then-gather: each piece is multiplied on its
  source rows and only the products are gathered, forward and backward, so
  the tape never holds the wide concatenated input.  Returns
  ``[activation(first Dense) | projection]`` (slice it like the LSTM step).
  The no-grad path of ``forward_pieces`` runs the same weight fold and
  per-source GEMM loop (:func:`_fold_piece_weights`,
  :func:`_transform_then_gather`).

Every backward is covered by the numeric gradient checks in
``tests/test_nn_gradcheck.py`` via :mod:`repro.testing.gradcheck`, and the
whole training tape by a checked-in same-seed loss-trajectory golden
(``tests/equivalence/golden/training_losses.json``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import ArrayLike, Tensor, _row_scatter_add, _unbroadcast, as_tensor

__all__ = ["fused_dense", "fused_layer_norm", "fused_lstm_step", "fused_piece_update"]

_ACTIVATIONS = (None, "relu", "tanh", "sigmoid")


def _activate(outputs: np.ndarray, activation: Optional[str]) -> np.ndarray:
    """Applies a Dense activation to ``outputs`` in place and returns it."""
    if activation == "relu":
        np.maximum(outputs, 0.0, out=outputs)
    elif activation == "tanh":
        np.tanh(outputs, out=outputs)
    elif activation == "sigmoid":
        # 1 / (1 + exp(-x)), step by step in place.
        np.negative(outputs, out=outputs)
        np.exp(outputs, out=outputs)
        outputs += 1.0
        np.reciprocal(outputs, out=outputs)
    return outputs


def _activation_delta(
    gradient: np.ndarray, outputs: np.ndarray, activation: Optional[str]
) -> np.ndarray:
    """The gradient at the pre-activation, from the activated ``outputs``."""
    if activation == "relu":
        return gradient * (outputs > 0.0)
    if activation == "tanh":
        return gradient * (1.0 - outputs**2)
    if activation == "sigmoid":
        return gradient * outputs * (1.0 - outputs)
    return gradient


def fused_dense(
    inputs: ArrayLike,
    weight: ArrayLike,
    bias: Optional[ArrayLike] = None,
    activation: Optional[str] = None,
) -> Tensor:
    """``activation(inputs @ weight + bias)`` as a single tape node.

    The tape path of :class:`repro.nn.layers.Dense`: one node instead of a
    matmul → add → activation chain; the backward computes the
    input/weight/bias gradients directly from the stashed output.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unsupported activation {activation!r}")
    inputs = as_tensor(inputs)
    weight = as_tensor(weight)
    bias = as_tensor(bias) if bias is not None else None

    out = inputs.data @ weight.data
    if bias is not None:
        out += bias.data
    _activate(out, activation)

    def backward(gradient: np.ndarray) -> None:
        delta = _activation_delta(gradient, out, activation)
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


# ---------------------------------------------------------------------- #
# Transform-then-gather piece update (see ResidualMLP for the identity).
# Pieces are ``(source, row index or None)`` pairs; the update input is the
# concatenation of ``source[index]`` (or ``source``) over the pieces.
# Pieces whose source is the same object form a *group*: its source is
# multiplied once, by the group's pieces' weight blocks side by side.
# ---------------------------------------------------------------------- #
Pieces = Sequence[Tuple[ArrayLike, Optional[np.ndarray]]]
Layout = Tuple[Tuple[int, ...], ...]


def _group_pieces(pieces: Pieces) -> Layout:
    """Positions of the pieces sharing a source object, one group per source."""
    groups: Dict[int, List[int]] = {}
    for position, (features, _) in enumerate(pieces):
        groups.setdefault(id(features), []).append(position)
    return tuple(tuple(group) for group in groups.values())


def _fold_piece_weights(
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    gain: Optional[np.ndarray],
    offset: Optional[np.ndarray],
    projection: Optional[np.ndarray],
    widths: Tuple[int, ...],
    layout: Layout,
) -> Tuple[Tuple[np.ndarray, ...], Optional[np.ndarray]]:
    """``(per-group weights, b')`` of a piece update.

    Group ``j`` of ``layout`` gets ``[W''_k | P_k]`` for each of its pieces
    ``k``, side by side: ``W''`` is ``weight`` with the LayerNorm ``gain``
    and the mean subtraction folded in (``weight`` itself without
    LayerNorm), ``P`` the residual ``projection`` (none without one), and
    ``_k`` their row block of piece ``k``.  ``b' = offset @ weight + bias``
    is ``None`` when there is nothing to add.
    """
    if gain is not None:
        offset_bias = offset @ weight
        bias = offset_bias if bias is None else offset_bias + bias
        weight = gain[:, None] * weight
        weight -= weight.sum(axis=0) / weight.shape[0]
    starts = np.cumsum((0,) + widths)

    def columns(position: int) -> List[np.ndarray]:
        rows = slice(starts[position], starts[position + 1])
        if projection is None:
            return [weight[rows]]
        return [weight[rows], projection[rows]]

    weights = tuple(
        np.concatenate([block for k in group for block in columns(k)], axis=1) for group in layout
    )
    return weights, bias


def _transform_then_gather(
    sources: Sequence[np.ndarray],
    indices: Sequence[Optional[np.ndarray]],
    layout: Layout,
    weights: Sequence[np.ndarray],
    bias: Optional[np.ndarray],
    hidden_size: int,
    epsilon: Optional[float],
) -> Tuple[np.ndarray, Optional[np.ndarray], Optional[np.ndarray]]:
    """The pre-activation update ``[A | R]``, with the LayerNorm row statistics.

    ``sources[j]`` is group ``j``'s source array and ``weights[j]`` its
    folded weights (:func:`_fold_piece_weights`); ``indices[k]`` is piece
    ``k``'s row index.  Computes ``A = s∘Σ_k (X_k W''_k)[i_k] + b'`` in the
    first ``hidden_size`` columns and ``R = Σ_k (X_k P_k)[i_k]`` after them,
    and returns ``(update, mean, scale)``: ``μ`` and ``s = (σ² + ε)^-½`` of
    the concatenated rows, from per-piece row sums and sums of squares in
    float64.  Without LayerNorm (``epsilon`` is ``None``) ``s = 1`` and the
    statistics are ``None``.
    """
    width = weights[0].shape[1] // len(layout[0])
    total = None
    row_sums = row_squares = 0.0
    for group, source, weight in zip(layout, sources, weights):
        product = source @ weight
        if epsilon is not None:
            sums = source.sum(axis=-1, dtype=np.float64)
            squares = np.einsum("ij,ij->i", source, source, dtype=np.float64)
        for slot, position in enumerate(group):
            index = indices[position]
            columns = slice(slot * width, (slot + 1) * width)
            # Column slots are disjoint, so accumulating into the first
            # slot's view never touches a slot read later.
            part = product[:, columns] if index is None else product[index, columns]
            if total is None:
                total = part
            else:
                total += part
            if epsilon is not None:
                row_sums += sums if index is None else sums[index]
                row_squares += squares if index is None else squares[index]

    hidden = total[:, :hidden_size]
    mean = scale = None
    if epsilon is not None:
        size = sum(source.shape[-1] * len(group) for group, source in zip(layout, sources))
        mean = row_sums / size
        variance = np.maximum(row_squares / size - mean * mean, 0.0)
        scale = (variance + epsilon) ** -0.5
        hidden *= scale.astype(hidden.dtype, copy=False)[:, None]
    if bias is not None:
        hidden += bias
    return total, mean, scale


def _scatter_into(target: np.ndarray, index: Optional[np.ndarray], values: np.ndarray) -> None:
    """``target += S(values)``: row ``r`` of ``values`` onto row ``index[r]``.

    The adjoint of gathering ``target``'s rows by ``index`` (of taking them
    all, in order, when ``index`` is ``None``).
    """
    if index is None:
        target += values
    else:
        _row_scatter_add(target, index, values)


def fused_piece_update(
    pieces: Pieces,
    weight: ArrayLike,
    bias: Optional[ArrayLike] = None,
    gain: Optional[ArrayLike] = None,
    offset: Optional[ArrayLike] = None,
    projection: Optional[ArrayLike] = None,
    activation: Optional[str] = "relu",
    epsilon: float = 1e-5,
) -> Tensor:
    """LayerNorm → first Dense → residual projection over gathered pieces.

    With ``x`` the concatenation of ``source[index]`` (``source`` for an
    ``index`` of ``None``) over ``pieces``, returns the single tape node
    ``[activation(LayerNorm(x) @ weight + bias) | x @ projection]`` — the
    first half of :class:`repro.nn.layers.ResidualMLP` — without ever
    building ``x``.  LayerNorm is skipped when ``gain``/``offset`` are
    ``None``, the second block when ``projection`` is.

    The forward is :func:`_transform_then_gather`.  The backward works on
    source rows too.  With ``G = [s∘dA | dR]``, ``S_k`` the scatter-add onto
    piece ``k``'s source rows, ``q = colsum(dA)`` and
    ``t = s²∘rowdot(dA, A - b')/D``::

        dX_k = S_k(G) [W''_k | P_k]ᵀ - S_k(t)∘X_k + S_k(t∘μ)·1ᵀ
        M_k  = X_kᵀ S_k(s∘dA) - 1·((μ∘s)ᵀ dA),   dP_k = X_kᵀ S_k(dR)
        dW_k = diag(g_k) M_k + o_k qᵀ,  db = q,  dg = rowdot(W, M),  do = W q

    (summed over the pieces of one source); without LayerNorm ``s = 1``,
    ``μ = 0``, ``W'' = W`` and the ``t``, gain and offset terms drop.
    """
    if activation not in _ACTIVATIONS:
        raise ValueError(f"unsupported activation {activation!r}")
    if (gain is None) != (offset is None):
        raise ValueError("LayerNorm needs both gain and offset")
    layout = _group_pieces(pieces)
    sources = [as_tensor(pieces[group[0]][0]) for group in layout]
    indices = [None if index is None else np.asarray(index, dtype=np.int64) for _, index in pieces]
    widths = tuple(features.shape[-1] for features, _ in pieces)
    weight, bias, gain, offset, projection = (
        None if value is None else as_tensor(value)
        for value in (weight, bias, gain, offset, projection)
    )
    input_size, hidden_size = weight.shape
    if sum(widths) != input_size:
        raise ValueError(f"pieces have {sum(widths)} features in total, expected {input_size}")
    normalized = gain is not None

    def data(tensor: Optional[Tensor]) -> Optional[np.ndarray]:
        return None if tensor is None else tensor.data

    weights, folded_bias = _fold_piece_weights(
        weight.data, data(bias), data(gain), data(offset), data(projection), widths, layout
    )
    out, mean, scale = _transform_then_gather(
        [source.data for source in sources],
        indices,
        layout,
        weights,
        folded_bias,
        hidden_size,
        epsilon if normalized else None,
    )
    hidden = out[:, :hidden_size]
    # rowdot(dA, A) needs A only where dA can be nonzero: there A equals
    # the ReLU (or identity) output, so only tanh/sigmoid keep a copy.
    pre = hidden.copy() if normalized and activation in ("tanh", "sigmoid") else hidden
    _activate(hidden, activation)
    starts = np.cumsum((0,) + widths)
    width = out.shape[1]
    parameters = tuple(p for p in (weight, bias, gain, offset, projection) if p is not None)

    def backward(gradient: np.ndarray) -> None:
        delta = _activation_delta(gradient[:, :hidden_size], hidden, activation)
        if normalized:
            shift = np.einsum("ij,ij->i", delta, pre)
            if folded_bias is not None:
                shift -= delta @ folded_bias
            row_scale = scale * scale * shift / input_size
            row_shift = row_scale * mean
            spread_delta = delta * scale[:, None]
        else:
            spread_delta = delta
        if projection is None:
            spread = spread_delta
        else:
            spread = np.concatenate([spread_delta, gradient[:, hidden_size:]], axis=1)
        wants_parameters = any(p.requires_grad for p in parameters)
        # [M | dP] in the row space of the concatenated input.
        moments = np.empty((input_size, width), dtype=np.float64)

        for group, source, group_weight in zip(layout, sources, weights):
            if len(group) == 1 and indices[group[0]] is None:
                source_spread = spread
            else:
                # [S_k(G)] side by side over the group's pieces.
                source_spread = np.zeros((source.shape[0], len(group) * width), dtype=np.float64)
                for slot, position in enumerate(group):
                    columns = slice(slot * width, (slot + 1) * width)
                    _scatter_into(source_spread[:, columns], indices[position], spread)
            if source.requires_grad:
                d_source = source_spread @ group_weight.T
                if normalized:
                    source_scale = np.zeros(source.shape[0], dtype=np.float64)
                    source_shift = np.zeros(source.shape[0], dtype=np.float64)
                    for position in group:
                        _scatter_into(source_scale, indices[position], row_scale)
                        _scatter_into(source_shift, indices[position], row_shift)
                    d_source -= source_scale[:, None] * source.data
                    d_source += source_shift[:, None]
                source._accumulate(d_source)
            if wants_parameters:
                products = source.data.T @ source_spread
                for slot, position in enumerate(group):
                    rows = slice(starts[position], starts[position + 1])
                    moments[rows] = products[:, slot * width : (slot + 1) * width]

        if not wants_parameters:
            return
        column_sums = delta.sum(axis=0)
        d_weight = moments[:, :hidden_size]
        if normalized:
            d_weight -= (mean * scale) @ delta
            gain._accumulate(np.einsum("ij,ij->i", weight.data, d_weight))
            offset._accumulate(weight.data @ column_sums)
            d_weight *= gain.data[:, None]
            d_weight += np.outer(offset.data, column_sums)
        weight._accumulate(d_weight)
        if bias is not None:
            bias._accumulate(column_sums)
        if projection is not None:
            projection._accumulate(moments[:, hidden_size:])

    return Tensor._make(out, tuple(sources) + parameters, backward)
