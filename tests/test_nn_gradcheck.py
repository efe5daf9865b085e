"""Numeric gradient checks for the training fast path (repro.testing.gradcheck).

Every fused op of ``repro.nn.fused``, the ``scatter_rows`` primitive, the
bincount scatter/segment backwards, every elementwise and shape tape op and
the layers built on them are verified against central-difference gradients.
"""

import numpy as np
import pytest

from repro.nn.fused import fused_dense, fused_layer_norm, fused_lstm_step
from repro.nn.layers import Dense, LayerNorm
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.tensor import (
    Tensor,
    concatenate,
    no_grad,
    scatter_rows,
    stack,
    use_fast_path,
    where,
)
from repro.testing.gradcheck import gradcheck, numeric_gradient


def _tensor(rng, shape, scale=1.0):
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


class TestGradcheckHarness:
    def test_numeric_gradient_of_quadratic(self):
        array = np.array([1.0, -2.0, 3.0])
        gradient = numeric_gradient(lambda: float((array**2).sum()), array)
        np.testing.assert_allclose(gradient, 2.0 * array, atol=1e-6)

    def test_gradcheck_detects_wrong_backward(self, rng):
        values = _tensor(rng, (3,))

        def wrong():
            # A node whose backward doubles the true gradient.
            out = Tensor._make(
                values.data * 2.0, (values,), lambda g: values._accumulate(4.0 * g)
            )
            return out

        with pytest.raises(AssertionError, match="gradient check failed"):
            gradcheck(wrong, {"values": values})


class TestFusedDense:
    @pytest.mark.parametrize("activation", [None, "relu", "tanh", "sigmoid"])
    def test_against_numeric(self, rng, activation):
        inputs = _tensor(rng, (5, 4))
        weight = _tensor(rng, (4, 3))
        bias = _tensor(rng, (3,))
        gradcheck(
            lambda: fused_dense(inputs, weight, bias, activation),
            {"inputs": inputs, "weight": weight, "bias": bias},
        )

    def test_without_bias(self, rng):
        inputs = _tensor(rng, (4, 3))
        weight = _tensor(rng, (3, 2))
        gradcheck(
            lambda: fused_dense(inputs, weight, None, "relu"),
            {"inputs": inputs, "weight": weight},
        )

    def test_rejects_unknown_activation(self, rng):
        with pytest.raises(ValueError):
            fused_dense(_tensor(rng, (2, 2)), _tensor(rng, (2, 2)), None, "gelu")


class TestFusedLayerNorm:
    @pytest.mark.parametrize("shape", [(5, 6), (2, 3, 6)])
    def test_against_numeric(self, rng, shape):
        inputs = _tensor(rng, shape)
        gain = Tensor(np.ones(6) + 0.1 * rng.normal(size=6), requires_grad=True)
        offset = _tensor(rng, (6,))
        gradcheck(
            lambda: fused_layer_norm(inputs, gain, offset, epsilon=1e-5),
            {"inputs": inputs, "gain": gain, "offset": offset},
            atol=1e-5,
        )


class TestFusedLSTMStep:
    def _operands(self, rng, batch=3, input_size=4, hidden_size=5):
        return {
            "inputs": _tensor(rng, (batch, input_size)),
            "hidden": _tensor(rng, (batch, hidden_size), scale=0.5),
            "cell": _tensor(rng, (batch, hidden_size), scale=0.5),
            "weight_input": _tensor(rng, (input_size, 4 * hidden_size), scale=0.3),
            "weight_hidden": _tensor(rng, (hidden_size, 4 * hidden_size), scale=0.3),
            "bias": _tensor(rng, (4 * hidden_size,), scale=0.1),
        }

    def test_against_numeric(self, rng):
        operands = self._operands(rng)
        gradcheck(lambda: fused_lstm_step(**operands), operands, atol=1e-5)

    def test_against_numeric_with_mask(self, rng):
        operands = self._operands(rng)
        mask = np.array([True, False, True])
        gradcheck(lambda: fused_lstm_step(**operands, mask=mask), operands, atol=1e-5)

    def test_masked_rows_keep_previous_state(self, rng):
        operands = self._operands(rng)
        mask = np.array([True, False, True])
        state = fused_lstm_step(**operands, mask=mask)
        hidden_size = operands["hidden"].shape[1]
        np.testing.assert_allclose(
            state.data[1, :hidden_size], operands["hidden"].data[1]
        )
        np.testing.assert_allclose(
            state.data[1, hidden_size:], operands["cell"].data[1]
        )

    def test_cell_against_numeric(self, rng):
        cell = LSTMCell(4, 5, rng)
        inputs = _tensor(rng, (3, 4))

        def build():
            hidden, (_, new_cell) = cell(inputs, cell.initial_state(3))
            return hidden + new_cell * 0.5

        gradcheck(
            build,
            {
                "inputs": inputs,
                "weight_input": cell.weight_input,
                "weight_hidden": cell.weight_hidden,
                "bias": cell.bias,
            },
            atol=1e-5,
        )


class TestLSTMLayer:
    @pytest.mark.parametrize("need_outputs", [False, True])
    def test_against_numeric_with_lengths(self, rng, need_outputs):
        lstm = LSTM(3, 4, rng)
        inputs = _tensor(rng, (2, 5, 3))
        lengths = np.array([5, 3])
        parameters = {
            "inputs": inputs,
            "weight_input": lstm.cell.weight_input,
            "weight_hidden": lstm.cell.weight_hidden,
            "bias": lstm.cell.bias,
        }

        def build():
            outputs, final_hidden = lstm(inputs, lengths, need_outputs=need_outputs)
            return outputs if need_outputs else final_hidden

        gradcheck(build, parameters, atol=1e-5)

    def test_tape_matches_inference_final_state(self, rng):
        lstm = LSTM(3, 4, rng)
        sequences = rng.normal(size=(3, 6, 3))
        lengths = np.array([6, 2, 4])
        _, tape_final = lstm(Tensor(sequences, requires_grad=True), lengths)
        with no_grad():
            _, fast_final = lstm(sequences, lengths)
            with use_fast_path(False):
                _, tape_no_grad_final = lstm(sequences, lengths)
        assert isinstance(fast_final, np.ndarray)
        np.testing.assert_allclose(tape_final.data, fast_final, rtol=1e-12, atol=1e-15)
        np.testing.assert_array_equal(tape_no_grad_final.data, tape_final.data)


class TestScatterGatherBackwards:
    def test_scatter_rows_against_numeric(self, rng):
        values = _tensor(rng, (4, 3))
        indices = np.array([5, 0, 2, 3])
        gradcheck(lambda: scatter_rows(values, indices, 7), {"values": values})

    def test_scatter_rows_matches_permutation_matmul(self, rng):
        values = _tensor(rng, (4, 3))
        indices = np.array([5, 0, 2, 3])
        scattered = scatter_rows(values, indices, 7)
        permutation = np.zeros((7, 4))
        permutation[indices, np.arange(4)] = 1.0
        np.testing.assert_array_equal(scattered.data, permutation @ values.data)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (4, 3, 2)])
    def test_gather_rows_with_duplicates(self, rng, shape):
        values = _tensor(rng, shape)
        indices = np.array([0, 2, 2, 1, 0, 2])
        gradcheck(lambda: values.gather_rows(indices), {"values": values})

    def test_gather_rows_multidimensional_indices(self, rng):
        values = _tensor(rng, (5, 2))
        indices = np.array([[0, 4], [4, 3]])
        gradcheck(lambda: values.gather_rows(indices), {"values": values})

    @pytest.mark.parametrize("shape", [(5,), (5, 3), (5, 3, 2)])
    def test_getitem_integer_array(self, rng, shape):
        values = _tensor(rng, shape)
        key = np.array([1, 1, 4, 0])
        gradcheck(lambda: values[key], {"values": values})

    def test_negative_indices_wrap_like_numpy(self, rng):
        values = _tensor(rng, (5, 3))
        key = np.array([-1, 0, -1, 2])
        gradcheck(lambda: values[key], {"values": values})
        gradcheck(lambda: values.gather_rows(np.array([-2, 1])), {"values": values})

    def test_getitem_basic_slice(self, rng):
        values = _tensor(rng, (4, 5))
        gradcheck(lambda: values[:, 1:4], {"values": values})

    def test_getitem_time_slice(self, rng):
        values = _tensor(rng, (2, 4, 3))
        gradcheck(lambda: values[:, 2, :], {"values": values})


class TestSegmentBackwards:
    @pytest.mark.parametrize("shape", [(6,), (6, 3), (6, 3, 2)])
    def test_segment_sum(self, rng, shape):
        values = _tensor(rng, shape)
        segment_ids = np.array([0, 2, 2, 1, 0, 2])
        gradcheck(lambda: values.segment_sum(segment_ids, 4), {"values": values})

    def test_segment_mean(self, rng):
        values = _tensor(rng, (5, 2))
        segment_ids = np.array([1, 1, 0, 2, 2])
        gradcheck(lambda: values.segment_mean(segment_ids, 3), {"values": values})

    def test_segment_sum_forward_matches_add_at(self, rng):
        values = rng.normal(size=(64, 7))
        segment_ids = rng.integers(0, 9, size=64)
        expected = np.zeros((9, 7))
        np.add.at(expected, segment_ids, values)
        summed = Tensor(values).segment_sum(segment_ids, 9).data
        np.testing.assert_allclose(summed, expected, rtol=1e-15, atol=1e-15)


class TestElementwiseTapeOps:
    """Every elementwise tape op checks against central differences.

    Ops with kinks (relu/abs/clip) or data-dependent branches (max) use
    inputs held away from the non-differentiable points so the central
    difference is valid.
    """

    _SMOOTH_OPS = {
        "exp": lambda t: t.exp(),
        "sigmoid": lambda t: t.sigmoid(),
        "softplus": lambda t: t.softplus(),
        "tanh": lambda t: t.tanh(),
    }

    @pytest.mark.parametrize("op", sorted(_SMOOTH_OPS))
    def test_smooth_unary(self, rng, op):
        values = _tensor(rng, (3, 4), scale=0.8)
        gradcheck(lambda: self._SMOOTH_OPS[op](values), {"values": values})

    def test_log_and_sqrt_on_positive_domain(self, rng):
        values = Tensor(rng.uniform(0.5, 3.0, size=(3, 4)), requires_grad=True)
        gradcheck(lambda: values.log(), {"values": values})
        gradcheck(lambda: values.sqrt(), {"values": values})

    def test_truediv(self, rng):
        numerator = _tensor(rng, (3, 4))
        denominator = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        gradcheck(
            lambda: numerator / denominator,
            {"numerator": numerator, "denominator": denominator},
        )

    def test_relu_and_abs_away_from_zero(self, rng):
        data = rng.normal(size=(3, 4))
        data += np.sign(data) * 0.5  # keep every entry away from the kink at 0
        values = Tensor(data, requires_grad=True)
        gradcheck(lambda: values.relu(), {"values": values})
        gradcheck(lambda: values.abs(), {"values": values})

    def test_clip_away_from_boundaries(self):
        values = Tensor(
            np.array([[-1.6, -0.8, -0.2], [0.1, 0.7, 1.8]]), requires_grad=True
        )
        gradcheck(lambda: values.clip(-1.0, 1.0), {"values": values})

    def test_max_global_and_per_axis(self, rng):
        values = _tensor(rng, (3, 4))
        gradcheck(lambda: values.max(), {"values": values})
        gradcheck(lambda: values.max(axis=1), {"values": values})


class TestShapeTapeOps:
    def test_matmul_batched(self, rng):
        left = _tensor(rng, (2, 3, 4))
        right = _tensor(rng, (2, 4, 5))
        gradcheck(lambda: left.matmul(right), {"left": left, "right": right})

    def test_transpose_default_and_explicit_axes(self, rng):
        values = _tensor(rng, (2, 3, 4))
        gradcheck(lambda: values.transpose(), {"values": values})
        gradcheck(lambda: values.transpose((1, 0, 2)), {"values": values})

    def test_reshape_varargs_and_tuple(self, rng):
        values = _tensor(rng, (2, 6))
        gradcheck(lambda: values.reshape(3, 4), {"values": values})
        gradcheck(lambda: values.reshape((4, 3)), {"values": values})

    def test_concatenate_method_and_module_function(self, rng):
        first = _tensor(rng, (2, 3))
        second = _tensor(rng, (2, 2))
        parameters = {"first": first, "second": second}
        gradcheck(lambda: first.concatenate([second], axis=1), parameters)
        gradcheck(lambda: concatenate([first, second], axis=-1), parameters)

    def test_stack(self, rng):
        first = _tensor(rng, (2, 3))
        second = _tensor(rng, (2, 3))
        gradcheck(
            lambda: stack([first, second], axis=0),
            {"first": first, "second": second},
        )

    def test_where(self, rng):
        condition = np.array([[True, False, True], [False, True, False]])
        on_true = _tensor(rng, (2, 3))
        on_false = _tensor(rng, (2, 3))
        gradcheck(
            lambda: where(condition, on_true, on_false),
            {"on_true": on_true, "on_false": on_false},
        )


class TestLayers:
    """The layers check end to end, through their fused tape ops."""

    def test_dense(self, rng):
        layer = Dense(3, 2, rng, activation="sigmoid")
        inputs = _tensor(rng, (4, 3))
        gradcheck(
            lambda: layer(inputs),
            {"inputs": inputs, "weight": layer.weight, "bias": layer.bias},
        )

    def test_layer_norm(self, rng):
        layer = LayerNorm(5)
        inputs = _tensor(rng, (3, 5))
        gradcheck(
            lambda: layer(inputs),
            {"inputs": inputs, "gain": layer.gain, "offset": layer.offset},
            atol=1e-5,
        )
