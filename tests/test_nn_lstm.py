"""Tests for the LSTM layers (repro.nn.lstm)."""

import numpy as np
import pytest

from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.tensor import Tensor, no_grad


class TestLSTMCell:
    def test_output_shapes(self, rng):
        cell = LSTMCell(4, 8, rng)
        hidden, (new_hidden, new_cell) = cell(
            Tensor(np.ones((3, 4))), cell.initial_state(3)
        )
        assert hidden.shape == (3, 8)
        assert new_hidden.shape == (3, 8)
        assert new_cell.shape == (3, 8)

    def test_hidden_state_is_bounded(self, rng):
        cell = LSTMCell(4, 8, rng)
        state = cell.initial_state(2)
        inputs = Tensor(rng.normal(0, 10, size=(2, 4)))
        for _ in range(20):
            hidden, state = cell(inputs, state)
        assert np.all(np.abs(hidden.data) <= 1.0)

    def test_forget_gate_bias_initialised_to_one(self, rng):
        cell = LSTMCell(4, 8, rng)
        np.testing.assert_allclose(cell.bias.data[8:16], 1.0)

    def test_invalid_sizes_rejected(self, rng):
        with pytest.raises(ValueError):
            LSTMCell(0, 8, rng)

    def test_gradients_flow_through_time(self, rng):
        cell = LSTMCell(3, 5, rng)
        inputs = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        state = cell.initial_state(2)
        for _ in range(4):
            hidden, state = cell(inputs, state)
        hidden.sum().backward()
        assert inputs.grad is not None
        assert cell.weight_input.grad is not None
        assert cell.weight_hidden.grad is not None


class TestLSTM:
    def test_output_shapes(self, rng):
        lstm = LSTM(4, 6, rng)
        outputs, final = lstm(Tensor(rng.normal(size=(3, 5, 4))))
        assert outputs.shape == (3, 5, 6)
        assert final.shape == (3, 6)

    def test_final_state_equals_last_output_without_padding(self, rng):
        lstm = LSTM(4, 6, rng)
        outputs, final = lstm(Tensor(rng.normal(size=(2, 5, 4))))
        np.testing.assert_allclose(outputs.data[:, -1, :], final.data)

    def test_length_masking_freezes_state(self, rng):
        lstm = LSTM(4, 6, rng)
        sequences = rng.normal(size=(2, 6, 4))
        lengths = np.array([3, 6])
        _, masked_final = lstm(Tensor(sequences.copy()), lengths)
        # Changing the padded suffix of the first sequence must not change
        # its final state.
        modified = sequences.copy()
        modified[0, 3:, :] = 99.0
        _, modified_final = lstm(Tensor(modified), lengths)
        np.testing.assert_allclose(masked_final.data[0], modified_final.data[0])
        np.testing.assert_allclose(masked_final.data[1], modified_final.data[1])

    def test_masked_final_state_matches_truncated_sequence(self, rng):
        lstm = LSTM(3, 5, rng)
        sequence = rng.normal(size=(1, 7, 3))
        _, final_masked = lstm(Tensor(sequence), np.array([4]))
        _, final_truncated = lstm(Tensor(sequence[:, :4, :]), np.array([4]))
        np.testing.assert_allclose(final_masked.data, final_truncated.data, atol=1e-10)

    def test_gradients_reach_embedding_inputs(self, rng):
        lstm = LSTM(3, 4, rng)
        inputs = Tensor(rng.normal(size=(2, 4, 3)), requires_grad=True)
        _, final = lstm(inputs, np.array([4, 2]))
        final.sum().backward()
        assert inputs.grad is not None
        # Gradient of the padded steps of the shorter sequence must be zero.
        np.testing.assert_allclose(inputs.grad[1, 2:, :], 0.0)
        assert np.abs(inputs.grad[1, :2, :]).sum() > 0.0

    def test_outputs_past_the_end_hold_the_final_state_on_both_paths(self, rng):
        lstm = LSTM(3, 4, rng)
        sequences = rng.normal(size=(3, 6, 3))
        lengths = np.array([6, 2, 4])
        tape_outputs, tape_final = lstm(Tensor(sequences, requires_grad=True), lengths)
        with no_grad():
            outputs, final = lstm(sequences, lengths)
        np.testing.assert_allclose(outputs, tape_outputs.data, rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(final, tape_final.data, rtol=1e-12, atol=1e-15)
        for row, length in enumerate(lengths):
            np.testing.assert_array_equal(outputs[row, length:], np.tile(final[row], (6 - length, 1)))

    def test_no_grad_path_skips_outputs_when_not_needed(self, rng):
        lstm = LSTM(3, 4, rng)
        sequences = rng.normal(size=(2, 4, 3))
        with no_grad():
            outputs, final = lstm(sequences, np.array([4, 1]), need_outputs=False)
            _, expected = lstm(sequences, np.array([4, 1]))
        assert outputs is None
        np.testing.assert_array_equal(final, expected)
