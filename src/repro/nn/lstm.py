"""LSTM layers used by the Ithemal baseline.

Ithemal (Mendis et al. 2019) is a two-level LSTM: the first level consumes
the tokens of each instruction and produces an instruction embedding, the
second level consumes the instruction embeddings and produces a basic-block
embedding.  This module provides the :class:`LSTMCell` and a convenience
:class:`LSTM` that runs a cell over a padded batch of sequences with an
explicit length mask, which is what the re-implemented baseline uses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.fused import fused_lstm_step
from repro.nn.module import Module, Parameter
from repro.nn.tensor import (
    Tensor,
    active_dtype,
    as_tensor,
    concatenate,
    fast_path_active,
    raw,
    sigmoid,
)

#: States are tape tensors while gradients are recorded and raw arrays on
#: the no-grad fast path (see :meth:`LSTMCell.initial_state`).
State = Union[Tensor, np.ndarray]

__all__ = ["LSTMCell", "LSTM"]


class LSTMCell(Module):
    """A single LSTM cell with the standard gate formulation.

    The forget gate bias is initialised to one, the common trick to ease
    gradient flow early in training.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        if input_size <= 0 or hidden_size <= 0:
            raise ValueError("LSTM sizes must be positive")
        self.input_size = input_size
        self.hidden_size = hidden_size
        gate_size = 4 * hidden_size
        self.weight_input = Parameter(
            init.glorot_uniform((input_size, gate_size), rng), name="weight_input"
        )
        self.weight_hidden = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)], axis=1
            ),
            name="weight_hidden",
        )
        bias = np.zeros((gate_size,), dtype=np.float64)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget gate bias
        self.bias = Parameter(bias, name="bias")

    def forward(
        self, inputs: Tensor, state: Tuple[Tensor, Tensor]
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Runs one step.

        Args:
            inputs: ``[batch, input_size]`` input at this time step.
            state: ``(hidden, cell)`` tensors of shape ``[batch, hidden_size]``.

        Returns:
            ``(hidden, (hidden, cell))`` for the next step.
        """
        hidden_state, cell_state = state
        if fast_path_active():
            dtype = active_dtype()
            gates = raw(inputs) @ self.weight_input.data_as(dtype)
            gates += raw(hidden_state) @ self.weight_hidden.data_as(dtype)
            gates += self.bias.data_as(dtype)
            size = self.hidden_size
            input_gate = sigmoid(gates[:, 0 * size : 1 * size])
            forget_gate = sigmoid(gates[:, 1 * size : 2 * size])
            candidate = np.tanh(gates[:, 2 * size : 3 * size])
            output_gate = sigmoid(gates[:, 3 * size : 4 * size])
            new_cell = forget_gate * raw(cell_state) + input_gate * candidate
            new_hidden = output_gate * np.tanh(new_cell)
            return new_hidden, (new_hidden, new_cell)
        # Tape: one fused node for the whole step plus two cheap
        # basic-index slices.
        state = fused_lstm_step(
            inputs,
            hidden_state,
            cell_state,
            self.weight_input,
            self.weight_hidden,
            self.bias,
        )
        size = self.hidden_size
        new_hidden = state[:, :size]
        new_cell = state[:, size:]
        return new_hidden, (new_hidden, new_cell)

    def initial_state(self, batch_size: int) -> Tuple[State, State]:
        """Returns an all-zeros ``(hidden, cell)`` state.

        On the no-grad numpy fast path the state is a pair of raw arrays in
        the active compute dtype, which the cell's fast path consumes
        directly; on the tape it is a pair of :class:`Tensor` wrappers.
        """
        shape = (batch_size, self.hidden_size)
        if fast_path_active():
            # Allocate in the active compute dtype: a float64 zero state
            # would silently upcast every step of a float32 forward.
            dtype = active_dtype()
            return np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=dtype)
        return (
            Tensor(np.zeros(shape, dtype=np.float64)),
            Tensor(np.zeros(shape, dtype=np.float64)),
        )


class LSTM(Module):
    """Runs an :class:`LSTMCell` over a padded batch of sequences.

    Args:
        input_size: Feature size of each sequence element.
        hidden_size: LSTM state size.
        rng: Random generator for initialisation.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator) -> None:
        self.cell = LSTMCell(input_size, hidden_size, rng)
        self.input_size = input_size
        self.hidden_size = hidden_size

    def forward(
        self,
        inputs: Tensor,
        lengths: Optional[np.ndarray] = None,
        need_outputs: bool = True,
    ) -> Tuple[Optional[Tensor], Tensor]:
        """Processes a padded batch.

        Args:
            inputs: ``[batch, time, input_size]`` padded sequences.
            lengths: Optional ``[batch]`` integer array of true sequence
                lengths.  When given, the returned final state for each
                sequence is the state at its own last element, and padded
                steps do not modify the state.
            need_outputs: When False, the tape path skips recording the
                per-step output stack (the hierarchical models only consume
                the final state); ``outputs`` is then ``None``.

        Returns:
            A tuple ``(outputs, final_hidden)`` where ``outputs`` is
            ``[batch, time, hidden_size]`` (or ``None``, see
            ``need_outputs``) and ``final_hidden`` is
            ``[batch, hidden_size]``.  On the tape path, output rows past a
            sequence's length hold its frozen final state rather than the
            padded-step activations — they carry no information either way.

        The tape path records one :func:`repro.nn.fused.fused_lstm_step`
        node per time step (the length mask folded in) plus two basic-index
        slices whose backwards accumulate in place.
        """
        if fast_path_active():
            return self._forward_inference(raw(inputs), lengths)
        inputs = as_tensor(inputs)
        batch_size, max_time = inputs.shape[0], inputs.shape[1]
        if lengths is None:
            lengths = np.full((batch_size,), max_time, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        size = self.hidden_size
        cell_module = self.cell
        hidden, cell = cell_module.initial_state(batch_size)
        step_outputs: List[Tensor] = []
        for time in range(max_time):
            frame = inputs[:, time, :]
            active = lengths > time
            mask = None if active.all() else active
            state = fused_lstm_step(
                frame,
                hidden,
                cell,
                cell_module.weight_input,
                cell_module.weight_hidden,
                cell_module.bias,
                mask=mask,
            )
            hidden = state[:, :size]
            cell = state[:, size:]
            if need_outputs:
                step_outputs.append(hidden.reshape(batch_size, 1, size))
        if not need_outputs:
            return None, hidden
        outputs = concatenate(step_outputs, axis=1) if step_outputs else inputs
        return outputs, hidden

    def _forward_inference(
        self, inputs: np.ndarray, lengths: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """No-grad fast path: the same recurrence on raw numpy arrays."""
        batch_size, max_time = inputs.shape[0], inputs.shape[1]
        if lengths is None:
            lengths = np.full((batch_size,), max_time, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)

        size = self.hidden_size
        dtype = inputs.dtype
        weight_input = self.cell.weight_input.data_as(dtype)
        weight_hidden = self.cell.weight_hidden.data_as(dtype)
        bias = self.cell.bias.data_as(dtype)
        hidden = np.zeros((batch_size, size), dtype=dtype)
        cell = np.zeros((batch_size, size), dtype=dtype)
        outputs = np.empty((batch_size, max_time, size), dtype=dtype)
        for time in range(max_time):
            gates = inputs[:, time, :] @ weight_input
            gates += hidden @ weight_hidden
            gates += bias
            input_gate = sigmoid(gates[:, 0 * size : 1 * size])
            forget_gate = sigmoid(gates[:, 1 * size : 2 * size])
            candidate = np.tanh(gates[:, 2 * size : 3 * size])
            output_gate = sigmoid(gates[:, 3 * size : 4 * size])
            new_cell = forget_gate * cell + input_gate * candidate
            new_hidden = output_gate * np.tanh(new_cell)
            active = (lengths > time).reshape(batch_size, 1)
            hidden = np.where(active, new_hidden, hidden)
            cell = np.where(active, new_cell, cell)
            outputs[:, time, :] = new_hidden
        return outputs, hidden
