"""Tests for the graph network blocks (repro.gnn.blocks)."""

import itertools

import numpy as np
import pytest

from repro.gnn.blocks import (
    EdgeBlock,
    FullGNBlock,
    GlobalBlock,
    GraphNetwork,
    GraphState,
    GraphTopology,
    NodeBlock,
)
from repro.models import TrainingConfig, create_model
from repro.nn.layers import ResidualMLP
from repro.nn.tensor import Tensor, compute_dtype, concatenate, gather_rows, no_grad
from repro.testing.equivalence import relative_errors
from repro.training.trainer import Trainer


def make_two_triangle_batch(rng, node_size=6, edge_size=5, global_size=4):
    """Two 3-node cycles packed into one batch."""
    nodes = Tensor(rng.normal(size=(6, node_size)))
    edges = Tensor(rng.normal(size=(6, edge_size)))
    globals_ = Tensor(rng.normal(size=(2, global_size)))
    senders = np.array([0, 1, 2, 3, 4, 5])
    receivers = np.array([1, 2, 0, 4, 5, 3])
    topology = GraphTopology(
        senders=senders,
        receivers=receivers,
        node_graph_ids=np.array([0, 0, 0, 1, 1, 1]),
        edge_graph_ids=np.array([0, 0, 0, 1, 1, 1]),
        num_graphs=2,
    )
    return GraphState(nodes=nodes, edges=edges, globals_=globals_), topology


class TestBlocks:
    def test_edge_block_shape(self, rng):
        state, topology = make_two_triangle_batch(rng)
        block = EdgeBlock(5, 6, 4, [8], 5, rng)
        assert block(state, topology).shape == (6, 5)

    def test_node_block_shape(self, rng):
        state, topology = make_two_triangle_batch(rng)
        edge_block = EdgeBlock(5, 6, 4, [8], 5, rng)
        node_block = NodeBlock(5, 6, 4, [8], 6, rng)
        updated_edges = edge_block(state, topology)
        assert node_block(state, topology, updated_edges).shape == (6, 6)

    def test_global_block_shape(self, rng):
        state, topology = make_two_triangle_batch(rng)
        edges = EdgeBlock(5, 6, 4, [8], 5, rng)(state, topology)
        nodes = NodeBlock(5, 6, 4, [8], 6, rng)(state, topology, edges)
        global_block = GlobalBlock(5, 6, 4, [8], 4, rng)
        assert global_block(state, topology, edges, nodes).shape == (2, 4)

    def test_full_gn_block_preserves_sizes(self, rng):
        state, topology = make_two_triangle_batch(rng)
        block = FullGNBlock(5, 6, 4, [8], rng)
        output = block(state, topology)
        assert output.nodes.shape == state.nodes.shape
        assert output.edges.shape == state.edges.shape
        assert output.globals_.shape == state.globals_.shape

    def test_invalid_aggregation_rejected(self, rng):
        state, topology = make_two_triangle_batch(rng)
        block = NodeBlock(5, 6, 4, [8], 6, rng, aggregation="median")
        edges = EdgeBlock(5, 6, 4, [8], 5, rng)(state, topology)
        with pytest.raises(ValueError):
            block(state, topology, edges)


class TestGraphIsolation:
    """Disconnected graphs in a batch must not influence each other."""

    def test_graphs_in_batch_are_independent(self, rng):
        state, topology = make_two_triangle_batch(rng)
        network = GraphNetwork(5, 6, 4, [8], num_message_passing_iterations=3, rng=rng)
        baseline = network(state, topology)

        perturbed_nodes = state.nodes.data.copy()
        perturbed_nodes[3:] += 10.0  # perturb only the second graph
        perturbed_state = GraphState(
            nodes=Tensor(perturbed_nodes),
            edges=Tensor(state.edges.data.copy()),
            globals_=Tensor(state.globals_.data.copy()),
        )
        perturbed = network(perturbed_state, topology)

        np.testing.assert_allclose(baseline.nodes.data[:3], perturbed.nodes.data[:3])
        np.testing.assert_allclose(baseline.globals_.data[0], perturbed.globals_.data[0])
        assert not np.allclose(baseline.nodes.data[3:], perturbed.nodes.data[3:])


class TestMessagePassing:
    def test_information_propagates_n_hops_per_iteration(self, rng):
        """A change at one node reaches its 2-hop neighbour only after two
        message passing iterations (edges propagate one hop per iteration)."""
        node_size, edge_size, global_size = 4, 4, 4
        nodes = np.zeros((3, node_size))
        edges = np.zeros((2, edge_size))
        globals_ = np.zeros((1, global_size))
        senders = np.array([0, 1])
        receivers = np.array([1, 2])
        topology = GraphTopology(
            senders=senders,
            receivers=receivers,
            node_graph_ids=np.zeros(3, dtype=np.int64),
            edge_graph_ids=np.zeros(2, dtype=np.int64),
            num_graphs=1,
        )

        def output_at_node2(num_iterations, source_value):
            state = GraphState(
                nodes=Tensor(np.vstack([[source_value] * node_size, nodes[1:]])),
                edges=Tensor(edges.copy()),
                globals_=Tensor(globals_.copy()),
            )
            network = GraphNetwork(
                edge_size, node_size, global_size, [8],
                num_message_passing_iterations=num_iterations,
                rng=np.random.default_rng(0),
                use_residual=True,
            )
            # Disable the global pathway so information can only travel
            # along edges (the global feature would otherwise shortcut it).
            return network(state, topology).nodes.data[2]

        one_hop_a = output_at_node2(1, 0.0)
        one_hop_b = output_at_node2(1, 100.0)
        np.testing.assert_allclose(one_hop_a, one_hop_b, atol=1e-8)

        two_hop_a = output_at_node2(2, 0.0)
        two_hop_b = output_at_node2(2, 100.0)
        assert not np.allclose(two_hop_a, two_hop_b)

    def test_shared_weights_reuse_one_block(self, rng):
        network = GraphNetwork(4, 4, 4, [8], 5, rng, share_weights=True)
        assert len(network.blocks) == 1

    def test_unshared_weights_make_one_block_per_iteration(self, rng):
        network = GraphNetwork(4, 4, 4, [8], 3, rng, share_weights=False)
        assert len(network.blocks) == 3

    def test_zero_iterations_rejected(self, rng):
        with pytest.raises(ValueError):
            GraphNetwork(4, 4, 4, [8], 0, rng)

    def test_gradients_flow_to_all_inputs(self, rng):
        state, topology = make_two_triangle_batch(rng)
        nodes = Tensor(state.nodes.data, requires_grad=True)
        edges = Tensor(state.edges.data, requires_grad=True)
        globals_ = Tensor(state.globals_.data, requires_grad=True)
        network = GraphNetwork(5, 6, 4, [8], 2, rng)
        output = network(GraphState(nodes, edges, globals_), topology)
        (output.nodes.sum() + output.globals_.sum()).backward()
        assert nodes.grad is not None and np.abs(nodes.grad).sum() > 0
        assert edges.grad is not None and np.abs(edges.grad).sum() > 0
        assert globals_.grad is not None and np.abs(globals_.grad).sum() > 0

    def test_sum_vs_mean_aggregation_differ(self, rng):
        state, topology = make_two_triangle_batch(rng)
        sum_network = GraphNetwork(5, 6, 4, [8], 1, np.random.default_rng(7), aggregation="sum")
        mean_network = GraphNetwork(5, 6, 4, [8], 1, np.random.default_rng(7), aggregation="mean")
        sum_out = sum_network(state, topology).globals_.data
        mean_out = mean_network(state, topology).globals_.data
        assert not np.allclose(sum_out, mean_out)


# ---------------------------------------------------------------------- #
# Equivalence matrix: ResidualMLP.forward_pieces, which never builds the
# concatenated update input on either path, against that concatenation.
# ---------------------------------------------------------------------- #
EDGE, NODE, GLOBAL = 5, 6, 4
DTYPES = ("float64", "float32")
NORM_RESIDUAL = list(itertools.product([True, False], repeat=2))


def make_batch(kind, rng):
    """``one_graph``: a 4-node graph (node 0 sends twice); ``zero_edges``: a
    3-cycle next to a 2-node graph without edges."""
    if kind == "one_graph":
        senders, receivers = np.array([0, 0, 1, 2, 3]), np.array([1, 2, 3, 3, 0])
        node_graph_ids = np.zeros(4, dtype=np.int64)
    else:
        senders, receivers = np.array([0, 1, 2]), np.array([1, 2, 0])
        node_graph_ids = np.array([0, 0, 0, 1, 1])
    topology = GraphTopology(
        senders=senders,
        receivers=receivers,
        node_graph_ids=node_graph_ids,
        edge_graph_ids=node_graph_ids[senders],
        num_graphs=int(node_graph_ids.max()) + 1,
    )
    state = GraphState(
        nodes=rng.normal(size=(len(node_graph_ids), NODE)),
        edges=rng.normal(size=(len(senders), EDGE)),
        globals_=rng.normal(size=(topology.num_graphs, GLOBAL)),
    )
    return state, topology


def randomize_layer_norms(module, rng):
    """Non-trivial LayerNorm gains and offsets, so folding them is tested."""
    for name, parameter in module.named_parameters():
        if name.endswith("gain") or name.endswith("offset"):
            parameter.data[...] = rng.normal(size=parameter.shape)


def assert_matches_tape(fast, tape, dtype):
    if dtype == "float64":
        assert fast.dtype == np.float64
        np.testing.assert_allclose(fast, tape, rtol=1e-9, atol=1e-12)
    else:
        assert fast.dtype == np.float32
        assert relative_errors(tape, fast).max() <= 1e-3


def concatenated_update(network, pieces):
    """The definition of ``ResidualMLP.forward_pieces``, run literally.

    Concatenation → LayerNorm → each Dense layer → + residual, one layer at
    a time, so on the tape it records a node per layer and checks the fused
    update node against an independent computation.
    """
    inputs = concatenate([f if i is None else gather_rows(f, i) for f, i in pieces])
    hidden = inputs if network.layer_norm is None else network.layer_norm(inputs)
    outputs = network.mlp(hidden)
    if network.use_residual:
        residual = inputs if network.projection is None else network.projection(inputs)
        outputs = outputs + residual
    return outputs


def no_grad_run(dtype, function, *args):
    with no_grad(), compute_dtype(dtype):
        return function(*args)


class TestForwardPiecesEquivalence:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["one_graph", "zero_edges"])
    @pytest.mark.parametrize("use_layer_norm,use_residual", NORM_RESIDUAL)
    def test_matches_tape_on_concatenated_input(
        self, use_layer_norm, use_residual, kind, dtype
    ):
        rng = np.random.default_rng(3)
        state, topology = make_batch(kind, rng)
        network = ResidualMLP(
            EDGE + 2 * NODE + GLOBAL, [8, 8], EDGE, rng,
            use_layer_norm=use_layer_norm, use_residual=use_residual,
        )
        randomize_layer_norms(network, rng)
        pieces = [
            (state.edges, None),
            (state.nodes, topology.senders),
            (state.nodes, topology.receivers),
            (state.globals_, topology.edge_graph_ids),
        ]
        tape = concatenated_update(network, [(Tensor(f), i) for f, i in pieces]).data
        assert_matches_tape(no_grad_run(dtype, network.forward_pieces, pieces), tape, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_identity_residual_falls_back_to_concatenation(self, dtype, rng):
        network = ResidualMLP(2 * NODE, [8], 2 * NODE, rng)
        nodes, index = rng.normal(size=(3, NODE)), np.array([2, 0, 2, 1])
        pieces = [(nodes, index), (nodes, index[::-1])]
        tape = concatenated_update(network, [(Tensor(f), i) for f, i in pieces]).data
        assert_matches_tape(no_grad_run(dtype, network.forward_pieces, pieces), tape, dtype)

    @pytest.mark.parametrize("use_layer_norm,use_residual", NORM_RESIDUAL)
    def test_tape_path_is_the_gather_concatenate_forward(
        self, use_layer_norm, use_residual, rng
    ):
        network = ResidualMLP(
            2 * NODE + GLOBAL, [8], 3, rng,
            use_layer_norm=use_layer_norm, use_residual=use_residual,
        )
        randomize_layer_norms(network, rng)
        nodes = Tensor(rng.normal(size=(3, NODE)), requires_grad=True)
        globals_ = Tensor(rng.normal(size=(2, GLOBAL)), requires_grad=True)
        pieces = [(nodes, np.array([2, 0, 2])), (nodes, None), (globals_, np.array([1, 1, 0]))]
        projection = Tensor(rng.normal(size=(3, 3)))
        tensors = dict(network.named_parameters(), nodes=nodes, globals_=globals_)

        def run(update):
            for tensor in tensors.values():
                tensor.zero_grad()
            output = update(network, pieces)
            (output * projection).sum().backward()
            return output.data, {name: tensor.grad.copy() for name, tensor in tensors.items()}

        output, gradients = run(ResidualMLP.forward_pieces)
        expected, expected_gradients = run(concatenated_update)
        np.testing.assert_allclose(output, expected, rtol=1e-9)
        for name, gradient in expected_gradients.items():
            np.testing.assert_allclose(gradients[name], gradient, rtol=1e-9, err_msg=name)

    def test_rejects_pieces_of_the_wrong_total_width(self, rng):
        network = ResidualMLP(2 * NODE, [8], 3, rng)
        nodes = rng.normal(size=(3, NODE))
        with no_grad(), pytest.raises(ValueError, match="features"):
            network.forward_pieces([(nodes, None)])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("aggregation", ["sum", "mean"])
    @pytest.mark.parametrize("aggregate_sent_edges", [True, False])
    @pytest.mark.parametrize("use_layer_norm,use_residual", NORM_RESIDUAL)
    def test_node_block_matches_tape(
        self, use_layer_norm, use_residual, aggregate_sent_edges, aggregation, dtype,
        monkeypatch,
    ):
        rng = np.random.default_rng(4)
        for kind in ("one_graph", "zero_edges"):
            state, topology = make_batch(kind, rng)
            block = NodeBlock(
                EDGE, NODE, GLOBAL, [8], NODE, rng,
                use_layer_norm=use_layer_norm, use_residual=use_residual,
                aggregate_sent_edges=aggregate_sent_edges, aggregation=aggregation,
            )
            randomize_layer_norms(block, rng)
            tape_state = GraphState(*map(Tensor, (state.nodes, state.edges, state.globals_)))
            with monkeypatch.context() as patch:
                patch.setattr(ResidualMLP, "forward_pieces", concatenated_update)
                tape = block(tape_state, topology, Tensor(state.edges)).data
            fast = no_grad_run(dtype, block, state, topology, state.edges)
            assert_matches_tape(fast, tape, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("kind", ["one_graph", "zero_edges"])
    @pytest.mark.parametrize(
        "share_weights,aggregation", list(itertools.product([True, False], ["sum", "mean"]))
    )
    @pytest.mark.parametrize("use_layer_norm,use_residual", NORM_RESIDUAL)
    def test_graph_network_matches_tape(
        self, use_layer_norm, use_residual, share_weights, aggregation, kind, dtype,
        monkeypatch,
    ):
        rng = np.random.default_rng(5)
        state, topology = make_batch(kind, rng)
        network = GraphNetwork(
            EDGE, NODE, GLOBAL, [8, 8], 3, rng,
            use_layer_norm=use_layer_norm, use_residual=use_residual,
            share_weights=share_weights, aggregation=aggregation,
        )
        randomize_layer_norms(network, rng)
        tape_state = GraphState(*map(Tensor, (state.nodes, state.edges, state.globals_)))
        with monkeypatch.context() as patch:
            patch.setattr(ResidualMLP, "forward_pieces", concatenated_update)
            tape = network(tape_state, topology)
        fast = no_grad_run(dtype, network, state, topology)
        for name in ("nodes", "edges", "globals_"):
            assert_matches_tape(getattr(fast, name), getattr(tape, name).data, dtype)


class TestGraniteTape:
    """A small multi-task GRANITE model trained through ``forward_pieces``."""

    def test_train_step_matches_the_concatenation(self, tiny_dataset, monkeypatch):
        def train_step():
            model = create_model("granite", small=True, seed=3)
            trainer = Trainer(model, TrainingConfig(batch_size=20, seed=3))
            gradients = {}
            # Snapshot the gradients the update would apply, then skip it.
            trainer.optimizer.step = lambda: gradients.update(
                (name, p.grad.copy()) for name, p in model.named_parameters()
            )
            return trainer.train_step(tiny_dataset, 0).loss, gradients

        loss, gradients = train_step()
        with monkeypatch.context() as patch:
            patch.setattr(ResidualMLP, "forward_pieces", concatenated_update)
            expected_loss, expected_gradients = train_step()
        assert len(expected_gradients) > 40 and gradients.keys() == expected_gradients.keys()
        np.testing.assert_allclose(loss, expected_loss, rtol=1e-9)
        for name, gradient in expected_gradients.items():
            np.testing.assert_allclose(gradients[name], gradient, rtol=1e-9, err_msg=name)

    def test_tape_never_holds_the_wide_edge_input(self, tiny_dataset):
        model = create_model("granite", small=True, seed=3)
        batch = model.encode_blocks(tiny_dataset.blocks()[:20])
        predictions = model.forward(batch)
        loss = sum(prediction.sum() for prediction in predictions.values())
        config = model.config
        wide = (
            batch.graphs.num_edges,
            config.edge_embedding_size + 2 * config.node_embedding_size
            + config.global_embedding_size,
        )

        visited, shapes, stack = set(), [], [loss]
        while stack:
            node = stack.pop()
            if id(node) not in visited:
                visited.add(id(node))
                shapes.append(node.data.shape)
                stack.extend(node._parents)
        # The walk crossed the edge updates down to the edge embeddings.
        assert id(model.edge_embedding.table) in visited
        assert wide not in shapes
