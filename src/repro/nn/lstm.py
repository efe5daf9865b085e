"""LSTM layers used by the Ithemal baseline.

Ithemal (Mendis et al. 2019) is a two-level LSTM: the first level consumes
the tokens of each instruction and produces an instruction embedding, the
second level consumes the instruction embeddings and produces a basic-block
embedding.  This module provides the :class:`LSTMCell` and a convenience
:class:`LSTM` that runs a cell over a padded batch of sequences with
explicit sequence lengths, which is what the re-implemented baseline uses.

Both paths run the recurrence on length-packed rows (see
:func:`repro.nn.fused.fused_lstm_sequence`): the batch is sorted by length
once, each step computes only the sequences still running, and the steps
past a sequence's end are never computed.  On the tape a whole sequence is
one node; the no-grad path runs the same packed recurrence without
stashing anything for a backward.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

import numpy as np

from repro.nn import init
from repro.nn.fused import _freeze_outputs, _lstm_recurrence, _pack_lengths, fused_lstm_sequence
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, active_dtype, as_tensor, fast_path_active, raw

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
        """Runs one step, as a one-step sequence from ``state``.

        Args:
            inputs: ``[batch, input_size]`` input at this time step.
            state: ``(hidden, cell)`` tensors of shape ``[batch, hidden_size]``.

        Returns:
            ``(hidden, (hidden, cell))`` for the next step.
        """
        batch_size = inputs.shape[0]
        if fast_path_active():
            _, hidden, cell = self._run_no_grad(
                raw(inputs).reshape(batch_size, 1, self.input_size), None, state, False
            )
            return hidden, (hidden, cell)
        state = fused_lstm_sequence(
            as_tensor(inputs).reshape(batch_size, 1, self.input_size),
            None,
            self.weight_input,
            self.weight_hidden,
            self.bias,
            initial_state=state,
        )
        size = self.hidden_size
        new_hidden = state[:, :size]
        return new_hidden, (new_hidden, state[:, size:])

    def _run_no_grad(
        self,
        inputs: np.ndarray,
        lengths: Optional[np.ndarray],
        initial_state: Optional[Tuple[State, State]],
        need_outputs: bool,
    ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """The no-grad recurrence over a padded ``[batch, time, input]`` batch.

        The packed recurrence of :func:`repro.nn.fused.fused_lstm_sequence`
        on raw arrays of ``inputs``' dtype, with nothing stashed.  Returns
        ``(outputs or None, final hidden, final cell)``; outputs past a
        sequence's length hold its final hidden state, as on the tape.
        """
        batch_size, max_time, _ = inputs.shape
        dtype = inputs.dtype
        packing = _pack_lengths(lengths, batch_size, max_time)
        if initial_state is None:
            hidden = np.zeros((batch_size, self.hidden_size), dtype=dtype)
            cell = np.zeros((batch_size, self.hidden_size), dtype=dtype)
        else:
            hidden, cell = (raw(state)[packing.order] for state in initial_state)
        gates = inputs[packing.rows, packing.steps] @ self.weight_input.data_as(dtype)
        outputs = None
        if need_outputs:
            outputs = np.empty((batch_size, max_time, self.hidden_size), dtype=dtype)
        _lstm_recurrence(
            gates,
            packing.counts,
            self.weight_hidden.data_as(dtype),
            self.bias.data_as(dtype),
            hidden,
            cell,
            outputs,
        )
        if outputs is not None:
            _freeze_outputs(outputs, hidden, packing.lengths)
            outputs = outputs[packing.inverse]
        return outputs, hidden[packing.inverse], cell[packing.inverse]

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
                steps are never computed.
            need_outputs: When False, ``outputs`` is ``None`` and neither
                path builds it (the hierarchical models only consume the
                final state).

        Returns:
            A tuple ``(outputs, final_hidden)`` where ``outputs`` is
            ``[batch, time, hidden_size]`` (or ``None``, see
            ``need_outputs``) and ``final_hidden`` is
            ``[batch, hidden_size]``.  Output rows past a sequence's length
            hold its final state on both paths.

        The tape records one :func:`repro.nn.fused.fused_lstm_sequence`
        node (plus, with ``need_outputs``, the basic-index slice that reads
        the final state off the last step).
        """
        cell = self.cell
        if fast_path_active():
            outputs, hidden, _ = cell._run_no_grad(raw(inputs), lengths, None, need_outputs)
            return outputs, hidden
        result = fused_lstm_sequence(
            inputs,
            lengths,
            cell.weight_input,
            cell.weight_hidden,
            cell.bias,
            need_outputs=need_outputs,
        )
        if not need_outputs:
            return None, result
        return result, result[:, -1, :]
