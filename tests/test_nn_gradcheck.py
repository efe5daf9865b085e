"""Numeric gradient checks for the training fast path (repro.testing.gradcheck).

Every fused op of ``repro.nn.fused``, the ``scatter_rows`` primitive, the
scatter-add/segment backwards, the elementwise and shape tape ops the
models record (``tests/test_nn_tape_inventory.py`` keeps the tape to those)
and the layers built on them are verified against central-difference
gradients.
"""

import numpy as np
import pytest

from repro.nn.fused import (
    fused_dense,
    fused_layer_norm,
    fused_lstm_sequence,
    fused_piece_update,
)
from repro.gnn.blocks import EdgeBlock, GraphState, GraphTopology
from repro.nn.layers import Dense, LayerNorm, ResidualMLP
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.tensor import (
    Tensor,
    concatenate,
    gather_rows,
    no_grad,
    scatter_rows,
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
    @pytest.mark.parametrize("activation", [None, "relu"])
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

    @pytest.mark.parametrize("activation", ["gelu", "tanh", "sigmoid"])
    def test_rejects_unknown_activation(self, rng, activation):
        with pytest.raises(ValueError):
            fused_dense(_tensor(rng, (2, 2)), _tensor(rng, (2, 2)), None, activation)


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


class TestFusedLSTMSequence:
    """Length-packed sequences: unsorted and tied lengths, length-1 and empty
    rows, all rows full; from zero or from an initial state; with and
    without the per-step outputs."""

    BATCH, TIME, INPUT, HIDDEN = 4, 5, 3, 4
    LENGTHS = {
        "unsorted_tied": np.array([3, 5, 3, 1]),
        "length_one": np.array([1, 2, 1, 1]),
        "empty_row": np.array([2, 0, 5, 4]),
        "all_full": None,
    }

    def _operands(self, rng, initial_state=False):
        gates = 4 * self.HIDDEN
        operands = {
            "inputs": _tensor(rng, (self.BATCH, self.TIME, self.INPUT)),
            "weight_input": _tensor(rng, (self.INPUT, gates), scale=0.3),
            "weight_hidden": _tensor(rng, (self.HIDDEN, gates), scale=0.3),
            "bias": _tensor(rng, (gates,), scale=0.1),
        }
        if initial_state:
            operands["hidden"] = _tensor(rng, (self.BATCH, self.HIDDEN), scale=0.5)
            operands["cell"] = _tensor(rng, (self.BATCH, self.HIDDEN), scale=0.5)
        return operands

    @staticmethod
    def _sequence(operands, lengths, need_outputs):
        state = (operands["hidden"], operands["cell"]) if "hidden" in operands else None
        return fused_lstm_sequence(
            operands["inputs"],
            lengths,
            operands["weight_input"],
            operands["weight_hidden"],
            operands["bias"],
            initial_state=state,
            need_outputs=need_outputs,
        )

    @staticmethod
    def _step_by_step(operands, lengths):
        """An independent reference: the full padded batch, one masked step at a time."""
        data = {name: tensor.data for name, tensor in operands.items()}
        batch, time, _ = data["inputs"].shape
        size = data["weight_hidden"].shape[0]
        hidden = data.get("hidden", np.zeros((batch, size)))
        cell = data.get("cell", np.zeros((batch, size)))
        lengths = np.full(batch, time) if lengths is None else lengths
        outputs = np.empty((batch, time, size))
        for step in range(time):
            pre = data["inputs"][:, step] @ data["weight_input"]
            pre = pre + hidden @ data["weight_hidden"] + data["bias"]
            gate = 1.0 / (1.0 + np.exp(-pre))
            new_cell = gate[:, size : 2 * size] * cell + gate[:, :size] * np.tanh(
                pre[:, 2 * size : 3 * size]
            )
            new_hidden = gate[:, 3 * size :] * np.tanh(new_cell)
            live = (lengths > step)[:, None]
            hidden = np.where(live, new_hidden, hidden)
            cell = np.where(live, new_cell, cell)
            outputs[:, step] = hidden
        return outputs, hidden, cell

    @pytest.mark.parametrize("lengths", sorted(LENGTHS))
    @pytest.mark.parametrize("initial_state", [False, True])
    @pytest.mark.parametrize("need_outputs", [False, True])
    def test_against_numeric(self, rng, lengths, initial_state, need_outputs):
        operands = self._operands(rng, initial_state)
        lengths = self.LENGTHS[lengths]
        gradcheck(lambda: self._sequence(operands, lengths, need_outputs), operands, atol=1e-5)

    @pytest.mark.parametrize("lengths", sorted(LENGTHS))
    @pytest.mark.parametrize("initial_state", [False, True])
    def test_forward_matches_the_padded_recurrence(self, rng, lengths, initial_state):
        operands = self._operands(rng, initial_state)
        lengths = self.LENGTHS[lengths]
        outputs, hidden, cell = self._step_by_step(operands, lengths)
        np.testing.assert_allclose(
            self._sequence(operands, lengths, True).data, outputs, rtol=1e-12, atol=1e-15
        )
        final = self._sequence(operands, lengths, False).data
        if initial_state:
            np.testing.assert_allclose(final, np.concatenate([hidden, cell], 1), atol=1e-15)
        else:
            np.testing.assert_allclose(final, hidden, rtol=1e-12, atol=1e-15)

    def test_padded_steps_get_no_gradient(self, rng):
        operands = self._operands(rng)
        lengths = self.LENGTHS["unsorted_tied"]
        self._sequence(operands, lengths, True).sum().backward()
        padded = np.arange(self.TIME) >= lengths[:, None]
        np.testing.assert_array_equal(operands["inputs"].grad[padded], 0.0)
        assert np.all(np.abs(operands["inputs"].grad[~padded]).sum(axis=-1) > 0.0)

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


class TestFusedPieceUpdate:
    """An edge update's pieces: the un-indexed edges, sender and receiver
    rows of one node source, and per-graph globals with repeated indices,
    through LayerNorm, ``depth`` Dense layers and the residual projection."""

    EDGE, NODE, GLOBAL, HIDDEN, OUTPUT = 3, 4, 2, 5, 3
    TOPOLOGY = (np.array([0, 0, 1, 2, 3]), np.array([1, 2, 3, 3, 0]), np.array([0, 0, 0, 1, 1]))
    NO_EDGES = (np.zeros(0, dtype=np.int64),) * 3

    def _operands(self, rng, num_edges=5, layer_norm=True, projection=True, depth=3):
        input_size = self.EDGE + 2 * self.NODE + self.GLOBAL
        sizes = [input_size] + [self.HIDDEN] * (depth - 1) + [self.OUTPUT]
        operands = {
            "edges": _tensor(rng, (num_edges, self.EDGE)),
            "nodes": _tensor(rng, (4, self.NODE)),
            "globals": _tensor(rng, (2, self.GLOBAL)),
        }
        for layer in range(depth):
            operands[f"weight{layer}"] = _tensor(rng, sizes[layer : layer + 2], scale=0.5)
            operands[f"bias{layer}"] = _tensor(rng, (sizes[layer + 1],), scale=0.5)
        if layer_norm:
            gain = np.ones(input_size) + 0.3 * rng.normal(size=input_size)
            operands["gain"] = Tensor(gain, requires_grad=True)
            operands["offset"] = _tensor(rng, (input_size,))
        if projection:
            operands["projection"] = _tensor(rng, (input_size, self.OUTPUT), scale=0.5)
        return operands

    def _pieces(self, operands, topology):
        senders, receivers, graph_ids = topology
        nodes = operands["nodes"]
        return [
            (operands["edges"], None),
            (nodes, senders),
            (nodes, receivers),
            (operands["globals"], graph_ids),
        ]

    @staticmethod
    def _layers(operands, activations):
        """The Dense layers after the first: ReLU, and a linear last one."""
        depth = sum(name.startswith("weight") for name in operands)
        activations = activations or ["relu"] * (depth - 2) + [None]
        return [
            (operands[f"weight{layer}"], operands.get(f"bias{layer}"), activations[layer - 1])
            for layer in range(1, depth)
        ]

    def _update(self, operands, topology=TOPOLOGY, activation="relu", activations=None):
        return fused_piece_update(
            self._pieces(operands, topology),
            operands["weight0"],
            operands["bias0"],
            operands.get("gain"),
            operands.get("offset"),
            operands.get("projection"),
            activation,
            layers=self._layers(operands, activations),
        )

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("layer_norm", [True, False])
    @pytest.mark.parametrize("projection", [True, False])
    def test_against_numeric(self, rng, layer_norm, projection, depth):
        operands = self._operands(rng, layer_norm=layer_norm, projection=projection, depth=depth)
        gradcheck(lambda: self._update(operands), operands, atol=1e-5)

    def test_identity_activations_against_numeric(self, rng):
        operands = self._operands(rng)
        del operands["bias2"]
        gradcheck(
            lambda: self._update(operands, activation=None, activations=[None] * 2),
            operands,
            atol=1e-5,
        )

    def test_source_without_gradient(self, rng):
        operands = self._operands(rng)
        nodes = operands.pop("nodes")
        operands["nodes"] = Tensor(nodes.data)
        checked = {name: t for name, t in operands.items() if name != "nodes"}
        gradcheck(lambda: self._update(operands), checked, atol=1e-5)
        assert operands["nodes"].grad is None

    def test_zero_edges(self, rng):
        operands = self._operands(rng, num_edges=0)
        output = self._update(operands, self.NO_EDGES)
        assert output.shape == (0, self.OUTPUT)
        gradcheck(lambda: self._update(operands, self.NO_EDGES), operands)
        for name in ("nodes", "globals", "weight0", "weight2", "gain", "projection"):
            np.testing.assert_array_equal(operands[name].grad, 0.0)

    @pytest.mark.parametrize("depth", [1, 3])
    @pytest.mark.parametrize("layer_norm", [True, False])
    @pytest.mark.parametrize("projection", [True, False])
    def test_forward_is_the_concatenated_definition(self, rng, layer_norm, projection, depth):
        operands = self._operands(rng, layer_norm=layer_norm, projection=projection, depth=depth)
        pieces = self._pieces(operands, self.TOPOLOGY)
        inputs = concatenate([f if i is None else gather_rows(f, i) for f, i in pieces])
        hidden = (
            fused_layer_norm(inputs, operands["gain"], operands["offset"])
            if layer_norm
            else inputs
        )
        hidden = fused_dense(hidden, operands["weight0"], operands["bias0"], "relu")
        for weight, bias, activation in self._layers(operands, None):
            hidden = fused_dense(hidden, weight, bias, activation)
        expected = hidden.data
        if projection:
            expected = expected + inputs.data @ operands["projection"].data
        np.testing.assert_allclose(self._update(operands).data, expected, rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("activation", ["tanh", "sigmoid"])
    def test_rejects_activations_no_layer_uses(self, rng, activation):
        operands = self._operands(rng)
        with pytest.raises(ValueError, match="activation"):
            self._update(operands, activation=activation)
        with pytest.raises(ValueError, match="activation"):
            self._update(operands, activations=["relu", activation])

    def test_rejects_bad_arguments(self, rng):
        operands = self._operands(rng)
        with pytest.raises(ValueError, match="activation"):
            self._update(operands, activation="gelu")
        with pytest.raises(ValueError, match="activation"):
            self._update(operands, activations=["relu", "gelu"])
        with pytest.raises(ValueError, match="features"):
            fused_piece_update([(operands["nodes"], None)], operands["weight0"])
        with pytest.raises(ValueError, match="gain and offset"):
            fused_piece_update(
                self._pieces(operands, self.TOPOLOGY), operands["weight0"], gain=operands["gain"]
            )


class TestOneNodePerLayer:
    """A GN update, a decoder and an LSTM layer each record one tape node."""

    @staticmethod
    def _recorded_nodes(output):
        """The tape nodes (tensors with a backward) that ``output`` depends on."""
        visited, stack, count = set(), [output], 0
        while stack:
            node = stack.pop()
            if id(node) not in visited:
                visited.add(id(node))
                count += node._backward is not None
                stack.extend(node._parents)
        return count

    def test_gn_update(self, rng):
        state = GraphState(
            nodes=_tensor(rng, (4, 6)), edges=_tensor(rng, (5, 5)), globals_=_tensor(rng, (2, 4))
        )
        topology = GraphTopology(
            senders=np.array([0, 0, 1, 2, 3]),
            receivers=np.array([1, 2, 3, 3, 0]),
            node_graph_ids=np.array([0, 0, 1, 1]),
            edge_graph_ids=np.array([0, 0, 1, 1, 1]),
            num_graphs=2,
        )
        block = EdgeBlock(5, 6, 4, [8, 8], 5, rng)
        assert self._recorded_nodes(block(state, topology)) == 1

    @pytest.mark.parametrize("use_layer_norm", [True, False])
    def test_decoder(self, rng, use_layer_norm):
        decoder = ResidualMLP(6, [8, 8], 1, rng, use_layer_norm=use_layer_norm)
        assert self._recorded_nodes(decoder(_tensor(rng, (3, 6)))) == 1

    def test_lstm_layer(self, rng):
        lstm = LSTM(3, 4, rng)
        _, final = lstm(_tensor(rng, (3, 5, 3)), np.array([5, 2, 4]), need_outputs=False)
        assert self._recorded_nodes(final) == 1


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

    @pytest.mark.parametrize("num_values", [0, 64])
    def test_segment_sum_forward_matches_add_at(self, rng, num_values):
        # Rows of mixed magnitudes, so any change of summation order shows;
        # negative ids wrap like numpy indexing.
        scales = 10.0 ** rng.integers(-8, 8, size=(num_values, 1))
        values = rng.normal(size=(num_values, 7)) * scales
        segment_ids = rng.integers(-9, 9, size=num_values)
        expected = np.zeros((9, 7))
        np.add.at(expected, segment_ids, values)
        summed = Tensor(values).segment_sum(segment_ids, 9).data
        np.testing.assert_array_equal(summed, expected)


class TestElementwiseTapeOps:
    """The elementwise tape ops the losses record check against central
    differences; ``abs`` uses inputs held away from its kink at zero so the
    central difference is valid."""

    def test_truediv(self, rng):
        numerator = _tensor(rng, (3, 4))
        denominator = Tensor(rng.uniform(0.5, 2.0, size=(3, 4)), requires_grad=True)
        gradcheck(
            lambda: numerator / denominator,
            {"numerator": numerator, "denominator": denominator},
        )

    def test_abs_away_from_zero(self, rng):
        data = rng.normal(size=(3, 4))
        data += np.sign(data) * 0.5  # keep every entry away from the kink at 0
        values = Tensor(data, requires_grad=True)
        gradcheck(lambda: values.abs(), {"values": values})


class TestShapeTapeOps:
    def test_matmul_batched(self, rng):
        left = _tensor(rng, (2, 3, 4))
        right = _tensor(rng, (2, 4, 5))
        gradcheck(lambda: left.matmul(right), {"left": left, "right": right})

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
        layer = Dense(3, 2, rng, activation="relu")
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
