"""Instance-level wrappers that put spans around the program's layers.

Only the traced run calls these.  Every wrapper replaces an attribute of one
object (a module's ``forward``, a model's ``encode_blocks``, a trainer's
``train_step``), so the classes, and every other instance, stay untouched.
"""

from __future__ import annotations

from repro.gnn.blocks import EdgeBlock, FullGNBlock, GlobalBlock, GraphNetwork, NodeBlock
from repro.models.granite import GraniteModel
from repro.nn.layers import MLP, Dense, Embedding, LayerNorm, ResidualMLP
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.module import Module

from spans import Tracer

#: Span name of each module class; the layer is the part before the dot.
SPAN_BY_CLASS = {
    Dense: "nn.dense",
    LayerNorm: "nn.layer_norm",
    MLP: "nn.mlp",
    ResidualMLP: "nn.residual_mlp",
    LSTM: "nn.lstm",
    LSTMCell: "nn.lstm_cell",
    Embedding: "models.embed",
    EdgeBlock: "gnn.edge_block",
    NodeBlock: "gnn.node_block",
    GlobalBlock: "gnn.global_block",
    FullGNBlock: "gnn.full_block",
    GraphNetwork: "gnn.network",
}

#: Model attributes whose modules play a model-level role, whatever their class.
SPAN_BY_ATTRIBUTE = {
    "global_encoder": "models.embed",
    "decoders": "models.decoder",
}


def _wrap_dense(tracer: Tracer, dense: Dense) -> None:
    forward = dense.forward
    flops_per_row = 2 * dense.input_size * dense.output_size

    def traced(inputs):
        if not tracer.enabled:
            return forward(inputs)
        shape = inputs.shape
        rows = 1
        for size in shape[:-1]:
            rows *= int(size)
        tracer.count("nn.dense_flop", rows * flops_per_row)
        with tracer.span("nn.dense"):
            return forward(inputs)

    dense.forward = traced


def instrument_module(tracer: Tracer, module: Module, name: str = None,
                      seen: set = None) -> None:
    """Wraps ``module`` and every module below it (each object once)."""
    seen = set() if seen is None else seen
    if id(module) in seen:
        return
    seen.add(id(module))
    span = name or SPAN_BY_CLASS.get(type(module))
    if span == "nn.dense":
        _wrap_dense(tracer, module)
    elif span is not None:
        module.forward = tracer.wrap(module.forward, span)
    for attribute, value in list(vars(module).items()):
        children = value.values() if isinstance(value, dict) else (
            value if isinstance(value, (list, tuple)) else [value]
        )
        for child in children:
            if isinstance(child, Module):
                instrument_module(tracer, child, SPAN_BY_ATTRIBUTE.get(attribute), seen)


def instrument_model(tracer: Tracer, model) -> None:
    """Wraps a GRANITE or Ithemal model: encode, predict, forward, modules."""
    if isinstance(model, GraniteModel):
        model.encode_blocks = tracer.wrap(model.encode_blocks, "graph.encode")
        builder = model.graph_builder
        builder.build = tracer.wrap(builder.build, "graph.build")
    else:
        model.encode_blocks = tracer.wrap(model.encode_blocks, "models.encode")
    model.predict = tracer.wrap(model.predict, "models.predict")
    model.zero_grad = tracer.wrap(model.zero_grad, "nn.zero_grad")
    instrument_module(tracer, model, "models.forward")


def instrument_trainer(tracer: Tracer, trainer) -> None:
    """Wraps a trainer's step, loss and optimizer, and its model."""
    instrument_model(tracer, trainer.model)
    trainer.train_step = tracer.wrap(trainer.train_step, "training.step")
    trainer.loss_fn = tracer.wrap(trainer.loss_fn, "training.loss")
    trainer.optimizer.step = tracer.wrap(trainer.optimizer.step, "nn.optim_step")
