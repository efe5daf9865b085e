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
* :func:`fused_lstm_sequence` — a whole LSTM over a padded batch of
  sequences, run on length-packed rows: step ``t`` computes only the rows
  still live at ``t``, and the input projection, ``dW_ih``, ``dW_hh`` and
  ``dX`` are one GEMM each over every live (row, step) pair.  The no-grad
  path of :class:`repro.nn.lstm.LSTM` runs the same packed recurrence
  (:func:`_pack_lengths`, :func:`_lstm_recurrence`) without stashing;
* :func:`fused_piece_update` — a whole :class:`repro.nn.layers.ResidualMLP`
  (LayerNorm → first Dense → the remaining Dense layers → + residual
  projection) over row-gathered input pieces.  The first layer and the
  projection run by transform-then-gather: each piece is multiplied on its
  source rows and only the products are gathered, forward and backward, so
  the tape never holds the wide concatenated input.  The no-grad path of
  ``forward_pieces`` runs the same weight fold and per-source GEMM loop
  (:func:`_fold_piece_weights`, :func:`_transform_then_gather`).

Every backward is covered by the numeric gradient checks in
``tests/test_nn_gradcheck.py`` via :mod:`repro.testing.gradcheck`, and the
whole training tape by a checked-in same-seed loss-trajectory golden
(``tests/equivalence/golden/training_losses.json``).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import ArrayLike, Tensor, _row_scatter_add, _unbroadcast, as_tensor

__all__ = ["fused_dense", "fused_layer_norm", "fused_lstm_sequence", "fused_piece_update"]

#: The activations a Dense layer (and so the fused Dense ops) accepts.
_ACTIVATIONS = (None, "relu")


def _activate(outputs: np.ndarray, activation: Optional[str]) -> np.ndarray:
    """Applies ``activation`` to ``outputs`` in place and returns it.

    ``"relu"`` and ``None`` are the Dense activations; ``"sigmoid"`` is
    the LSTM gates'.
    """
    if activation == "relu":
        np.maximum(outputs, 0.0, out=outputs)
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


# ---------------------------------------------------------------------- #
# Length-packed LSTM sequences.  Rows are sorted by decreasing length once,
# so the rows still live at step ``t`` are a prefix of the sorted batch and
# every (row, step) pair past a row's length is simply never computed.
# Live pairs are stored time-major: step ``t`` owns the next ``counts[t]``
# packed rows.
# ---------------------------------------------------------------------- #
class _Packing(NamedTuple):
    """Where the live (row, step) pairs of a padded batch are."""

    order: np.ndarray  # batch rows by decreasing length (stable)
    inverse: np.ndarray  # position of each batch row in ``order``
    lengths: np.ndarray  # sequence lengths, in ``order``
    counts: np.ndarray  # live rows per step
    rows: np.ndarray  # batch row of each packed pair
    steps: np.ndarray  # step of each packed pair


def _pack_lengths(lengths: Optional[np.ndarray], batch_size: int, max_time: int) -> _Packing:
    """The packing of a ``[batch_size, max_time, ...]`` batch; ``None``: all full."""
    if lengths is None:
        lengths = np.full(batch_size, max_time, dtype=np.int64)
    lengths = np.clip(np.asarray(lengths, dtype=np.int64).reshape(batch_size), 0, max_time)
    order = np.argsort(-lengths, kind="stable")
    inverse = np.empty_like(order)
    inverse[order] = np.arange(batch_size, dtype=np.int64)
    sorted_lengths = lengths[order]
    live = np.arange(sorted_lengths.max(initial=0), dtype=np.int64)[:, None] < sorted_lengths
    steps, ranks = np.nonzero(live)
    return _Packing(order, inverse, sorted_lengths, live.sum(axis=1), order[ranks], steps)


def _lstm_recurrence(
    gates: np.ndarray,
    counts: np.ndarray,
    weight_hidden: np.ndarray,
    bias: np.ndarray,
    hidden: np.ndarray,
    cell: np.ndarray,
    outputs: Optional[np.ndarray] = None,
    stash: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
) -> None:
    """Runs the packed recurrence in place.

    ``gates`` holds ``x @ weight_input`` of the packed pairs and is
    overwritten with their gate activations (input/forget/candidate/output,
    the gate order of :class:`repro.nn.lstm.LSTMCell`).  ``hidden`` and
    ``cell`` are the length-sorted ``[batch, hidden]`` states; a row stops
    changing after its last step, so they end as the final states.
    ``outputs`` (sorted rows, ``[batch, time, hidden]``) receives the hidden
    state of every live pair.  ``stash`` — ``(hidden in, cell in,
    tanh(cell out))`` per packed pair — is filled for the backward.
    """
    size = hidden.shape[1]
    start = 0
    for step, count in enumerate(counts):
        rows = slice(start, start + count)
        start += count
        state_hidden, state_cell = hidden[:count], cell[:count]
        active = gates[rows]
        active += state_hidden @ weight_hidden
        active += bias
        _activate(active[:, : 2 * size], "sigmoid")
        np.tanh(active[:, 2 * size : 3 * size], out=active[:, 2 * size : 3 * size])
        _activate(active[:, 3 * size :], "sigmoid")
        if stash is not None:
            stash[0][rows] = state_hidden
            stash[1][rows] = state_cell
        # c' = f∘c + i∘g and h' = o∘tanh(c'), written over the live prefix.
        state_cell *= active[:, size : 2 * size]
        state_cell += active[:, :size] * active[:, 2 * size : 3 * size]
        cell_tanh = np.tanh(state_cell, out=None if stash is None else stash[2][rows])
        np.multiply(active[:, 3 * size :], cell_tanh, out=state_hidden)
        if outputs is not None:
            outputs[:count, step] = state_hidden


def _freeze_outputs(outputs: np.ndarray, hidden: np.ndarray, lengths: np.ndarray) -> None:
    """Fills each sorted row's outputs past its length with its final state."""
    frozen = np.arange(outputs.shape[1], dtype=np.int64) >= lengths[:, None]
    outputs[frozen] = np.repeat(hidden, outputs.shape[1] - lengths, axis=0)


def fused_lstm_sequence(
    inputs: ArrayLike,
    lengths: Optional[np.ndarray],
    weight_input: ArrayLike,
    weight_hidden: ArrayLike,
    bias: ArrayLike,
    initial_state: Optional[Tuple[ArrayLike, ArrayLike]] = None,
    need_outputs: bool = False,
) -> Tensor:
    """An LSTM over a padded batch of sequences as a single tape node.

    ``inputs`` is ``[batch, time, input]``; ``lengths`` the true length of
    each sequence (``None``: all ``time``).  The recurrence runs on
    length-packed rows: the input projection of every live (row, step) pair
    is one GEMM, step ``t`` multiplies only the rows still live at ``t``,
    and padded steps are never computed.  The state starts at zero or at
    ``initial_state = (hidden, cell)``.

    Returns the final hidden state ``[batch, hidden]``; with
    ``need_outputs`` the hidden state after every step ``[batch, time,
    hidden]``, where the steps past a sequence's length hold its final
    state (so ``outputs[:, -1]`` is the final state).  A caller that passes
    an ``initial_state`` continues a recurrence, and without
    ``need_outputs`` gets the final ``[hidden | cell]`` ``[batch, 2 *
    hidden]`` back.

    The node stashes the packed inputs, the gate activations and, per
    packed pair, the incoming hidden and cell state and ``tanh`` of the new
    cell.  Its backward walks the steps in reverse on the same live
    prefixes and stores every pair's gate gradient ``dZ``; then
    ``dW_ih = Xᵀ dZ``, ``dW_hh = Hᵀ dZ`` and ``dX = dZ W_ihᵀ`` are one GEMM
    each.
    """
    inputs = as_tensor(inputs)
    weight_input = as_tensor(weight_input)
    weight_hidden = as_tensor(weight_hidden)
    bias = as_tensor(bias)
    batch_size, max_time, _ = inputs.shape
    size = weight_hidden.shape[0]
    packing = _pack_lengths(lengths, batch_size, max_time)
    if initial_state is None:
        states = ()
        hidden = np.zeros((batch_size, size), dtype=np.float64)
        cell = np.zeros((batch_size, size), dtype=np.float64)
    else:
        states = tuple(as_tensor(state) for state in initial_state)
        hidden, cell = (state.data[packing.order] for state in states)

    packed_inputs = inputs.data[packing.rows, packing.steps]
    gates = packed_inputs @ weight_input.data
    stash = tuple(np.empty((len(gates), size), dtype=np.float64) for _ in range(3))
    outputs = np.empty((batch_size, max_time, size), dtype=np.float64) if need_outputs else None
    _lstm_recurrence(
        gates, packing.counts, weight_hidden.data, bias.data, hidden, cell, outputs, stash
    )
    if need_outputs:
        _freeze_outputs(outputs, hidden, packing.lengths)
        out = outputs[packing.inverse]
    elif states:
        out = np.concatenate([hidden, cell], axis=1)[packing.inverse]
    else:
        out = hidden[packing.inverse]
    hidden_in, cell_in, cell_tanh = stash

    def backward(gradient: np.ndarray) -> None:
        gradient = gradient[packing.order]
        if need_outputs:
            frozen = np.arange(max_time, dtype=np.int64) >= packing.lengths[:, None]
            d_hidden = np.einsum("bt,bth->bh", frozen.astype(np.float64), gradient)
            d_cell = np.zeros_like(d_hidden)
        elif states:
            d_hidden, d_cell = gradient[:, :size], gradient[:, size:]
        else:
            d_hidden, d_cell = gradient, np.zeros_like(gradient)
        d_gates = np.empty_like(gates)
        end = len(gates)
        for step in range(len(packing.counts) - 1, -1, -1):
            count = packing.counts[step]
            rows = slice(end - count, end)
            end -= count
            step_hidden, step_cell = d_hidden[:count], d_cell[:count]
            if need_outputs:
                step_hidden += gradient[:count, step]
            active = gates[rows]
            input_gate = active[:, :size]
            forget_gate = active[:, size : 2 * size]
            candidate = active[:, 2 * size : 3 * size]
            output_gate = active[:, 3 * size :]
            tanh = cell_tanh[rows]
            step_cell += step_hidden * output_gate * (1.0 - tanh**2)
            d_active = d_gates[rows]
            d_active[:, :size] = step_cell * candidate * input_gate * (1.0 - input_gate)
            d_active[:, size : 2 * size] = (
                step_cell * cell_in[rows] * forget_gate * (1.0 - forget_gate)
            )
            d_active[:, 2 * size : 3 * size] = step_cell * input_gate * (1.0 - candidate**2)
            d_active[:, 3 * size :] = step_hidden * tanh * output_gate * (1.0 - output_gate)
            # The gradients at the state entering this step.
            step_cell *= forget_gate
            np.matmul(d_active, weight_hidden.data.T, out=step_hidden)
        if inputs.requires_grad:
            inputs._ensure_grad()[packing.rows, packing.steps] += d_gates @ weight_input.data.T
        weight_input._accumulate(packed_inputs.T @ d_gates)
        weight_hidden._accumulate(hidden_in.T @ d_gates)
        bias._accumulate(d_gates.sum(axis=0))
        for state, d_state in zip(states, (d_hidden, d_cell)):
            state._accumulate(d_state[packing.inverse])

    parents = (inputs, weight_input, weight_hidden, bias) + states
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
#: A Dense layer after the first: ``(weight, bias or None, activation)``.
DenseLayer = Tuple[ArrayLike, Optional[ArrayLike], Optional[str]]


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
    layers: Sequence[DenseLayer] = (),
) -> Tensor:
    """A :class:`repro.nn.layers.ResidualMLP` over gathered pieces, as one node.

    With ``x`` the concatenation of ``source[index]`` (``source`` for an
    ``index`` of ``None``) over ``pieces``, returns the single tape node
    ``mlp(activation(LayerNorm(x) @ weight + bias)) + x @ projection``
    without ever building ``x``; ``mlp`` applies the remaining Dense
    ``layers``, ``(weight, bias or None, activation)`` each, in order.
    LayerNorm is skipped when ``gain``/``offset`` are ``None``, the
    residual when ``projection`` is.  The node stashes only each layer's
    activations (and the LayerNorm row statistics).

    The first layer and the projection are :func:`_transform_then_gather`.
    The backward runs the remaining layers' backward inline, then works on
    source rows.  With ``G = [s∘dA | dR]`` (``dA`` the first layer's
    pre-activation gradient, ``dR`` the output gradient), ``S_k`` the
    scatter-add onto piece ``k``'s source rows, ``q = colsum(dA)`` and
    ``t = s²∘rowdot(dA, A - b')/D``::

        dX_k = S_k(G) [W''_k | P_k]ᵀ - S_k(t)∘X_k + S_k(t∘μ)·1ᵀ
        M_k  = X_kᵀ S_k(s∘dA) - 1·((μ∘s)ᵀ dA),   dP_k = X_kᵀ S_k(dR)
        dW_k = diag(g_k) M_k + o_k qᵀ,  db = q,  dg = rowdot(W, M),  do = W q

    (summed over the pieces of one source); without LayerNorm ``s = 1``,
    ``μ = 0``, ``W'' = W`` and the ``t``, gain and offset terms drop.
    """
    names = [activation] + [name for _, _, name in layers]
    if any(name not in _ACTIVATIONS for name in names):
        raise ValueError(f"unsupported activation in {names}")
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
    dense = [
        (as_tensor(layer_weight), None if layer_bias is None else as_tensor(layer_bias), name)
        for layer_weight, layer_bias, name in layers
    ]
    input_size, hidden_size = weight.shape
    if sum(widths) != input_size:
        raise ValueError(f"pieces have {sum(widths)} features in total, expected {input_size}")
    normalized = gain is not None

    def data(tensor: Optional[Tensor]) -> Optional[np.ndarray]:
        return None if tensor is None else tensor.data

    weights, folded_bias = _fold_piece_weights(
        weight.data, data(bias), data(gain), data(offset), data(projection), widths, layout
    )
    update, mean, scale = _transform_then_gather(
        [source.data for source in sources],
        indices,
        layout,
        weights,
        folded_bias,
        hidden_size,
        epsilon if normalized else None,
    )
    hidden = update[:, :hidden_size]
    _activate(hidden, activation)
    activations = [hidden]
    for layer_weight, layer_bias, name in dense:
        outputs = activations[-1] @ layer_weight.data
        if layer_bias is not None:
            outputs += layer_bias.data
        activations.append(_activate(outputs, name))
    out = activations[-1] if projection is None else activations[-1] + update[:, hidden_size:]
    starts = np.cumsum((0,) + widths)
    width = update.shape[1]
    parameters = tuple(p for p in (weight, bias, gain, offset, projection) if p is not None)
    layer_parameters = tuple(p for layer in dense for p in layer[:2] if p is not None)

    def backward(gradient: np.ndarray) -> None:
        d_hidden = gradient
        for (layer_weight, layer_bias, name), inputs, outputs in zip(
            reversed(dense), reversed(activations[:-1]), reversed(activations[1:])
        ):
            layer_delta = _activation_delta(d_hidden, outputs, name)
            layer_weight._accumulate(inputs.T @ layer_delta)
            if layer_bias is not None:
                layer_bias._accumulate(layer_delta.sum(axis=0))
            d_hidden = layer_delta @ layer_weight.data.T
        delta = _activation_delta(d_hidden, hidden, activation)
        if normalized:
            # rowdot(dA, A) needs A only where dA can be nonzero, and there
            # A equals the ReLU (or identity) output ``hidden``.
            shift = np.einsum("ij,ij->i", delta, hidden)
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
            spread = np.concatenate([spread_delta, gradient], axis=1)
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

    return Tensor._make(out, tuple(sources) + parameters + layer_parameters, backward)
