"""The tape holds exactly the ops the models and their reference paths record.

``Tensor._make`` is the only way onto the tape.  These tests wrap it and
record the name of the op that called it while:

* each model takes one ``Trainer.train_step`` under each training loss, and
  small GRANITE takes one in each ablation configuration;
* each model predicts on its no-grad tape reference path
  (``no_grad`` + ``use_fast_path(False)``);
* the layers whose tape paths the models do not take (LayerNorm alone, an
  LSTM cell step, an LSTM with its per-step outputs, an identity-residual
  update of concatenated pieces) run forward and backward.

Every train step must give every parameter a finite gradient, and the union
of the recorded ops must equal the tape ops ``repro.analysis`` finds by AST
(the TP001 inventory of ``repro/nn/tensor.py`` and ``repro/nn/fused.py``):
an op that nothing records is a hand-written backward nothing needs.
"""

from __future__ import annotations

import ast
import functools
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Tuple

import numpy as np
import pytest

import repro.nn.fused
import repro.nn.tensor
from repro.analysis.checkers.tape_coverage import TapeCoverageChecker
from repro.data.datasets import build_ithemal_like_dataset
from repro.models import create_model
from repro.models.config import GraniteConfig, TrainingConfig
from repro.models.granite import GraniteModel
from repro.nn.layers import LayerNorm, ResidualMLP
from repro.nn.losses import LOSS_FUNCTIONS
from repro.nn.lstm import LSTM, LSTMCell
from repro.nn.tensor import Tensor, no_grad, use_fast_path
from repro.training.trainer import Trainer

MODELS = ("granite", "ithemal", "ithemal+")

#: Small-GRANITE ablations, each a ``GraniteConfig`` override.
GRANITE_VARIANTS: Dict[str, dict] = {
    "no_layer_norm": {"use_layer_norm": False},
    "no_residual": {"use_residual": False},
    "sum_aggregation": {"aggregation": "sum"},
    "global_readout": {"readout": "global"},
    "no_decoder_hidden_layers": {"decoder_hidden_sizes": ()},
}

#: Case id -> (model name, loss, ``GraniteConfig`` overrides).
TRAIN_CASES: Dict[str, Tuple[str, str, dict]] = {
    **{
        f"{model}/{loss}": (model, loss, {})
        for model in MODELS
        for loss in sorted(LOSS_FUNCTIONS)
    },
    **{
        f"granite/{variant}": ("granite", "mape", overrides)
        for variant, overrides in sorted(GRANITE_VARIANTS.items())
    },
}


@functools.lru_cache(maxsize=None)
def _dataset():
    return build_ithemal_like_dataset(12, seed=7)


def _record(run: Callable[[], None]) -> FrozenSet[str]:
    """Runs ``run`` and returns the names of the ops that called ``Tensor._make``."""
    make = Tensor.__dict__["_make"]
    recorded = set()

    def recording_make(data, parents, backward):
        recorded.add(sys._getframe(1).f_code.co_name)
        return make.__func__(data, parents, backward)

    Tensor._make = staticmethod(recording_make)
    try:
        run()
    finally:
        Tensor._make = make
    return frozenset(recorded)


@functools.lru_cache(maxsize=None)
def _train_step(case: str):
    """(recorded ops, {parameter name: gradient}) of one train step of ``case``."""
    name, loss, overrides = TRAIN_CASES[case]
    if overrides:
        model = GraniteModel(replace(GraniteConfig.small(), **overrides))
    else:
        model = create_model(name, small=True, seed=0)
    trainer = Trainer(model, TrainingConfig(batch_size=6, loss=loss))
    recorded = _record(lambda: trainer.train_step(_dataset(), 0))
    return recorded, {key: parameter.grad for key, parameter in model.named_parameters()}


@functools.lru_cache(maxsize=None)
def _reference_predict(name: str) -> FrozenSet[str]:
    model = create_model(name, small=True, seed=0)
    batch = model.encode_blocks(_dataset().blocks()[:4])

    def predict():
        with no_grad(), use_fast_path(False):
            predictions = model.forward(batch)
        for values in predictions.values():
            assert isinstance(values, Tensor)
            assert np.all(np.isfinite(values.data))

    return _record(predict)


def _inputs(rng, *shape) -> Tensor:
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _layer_norm(rng) -> List[Tensor]:
    layer = LayerNorm(6)
    inputs = _inputs(rng, 3, 6)
    (layer(inputs) * _inputs(rng, 3, 6)).sum().backward()
    return [inputs] + layer.parameters()


def _lstm_cell(rng) -> List[Tensor]:
    cell = LSTMCell(3, 4, rng)
    inputs = _inputs(rng, 2, 3)
    hidden, (_, state) = cell(inputs, cell.initial_state(2))
    (hidden + state).sum().backward()
    return [inputs] + cell.parameters()


def _lstm_outputs(rng) -> List[Tensor]:
    lstm = LSTM(3, 4, rng)
    inputs = _inputs(rng, 2, 5, 3)
    outputs, final = lstm(inputs, np.array([5, 2]), need_outputs=True)
    (outputs.sum() + final.sum()).backward()
    return [inputs] + lstm.parameters()


def _identity_residual(rng) -> List[Tensor]:
    update = ResidualMLP(6, [8], 6, rng)
    edges, nodes = _inputs(rng, 4, 2), _inputs(rng, 3, 4)
    update.forward_pieces([(edges, None), (nodes, np.array([0, 2, 2, 1]))]).sum().backward()
    return [edges, nodes] + update.parameters()


LAYER_PATHS: Dict[str, Callable[[np.random.Generator], List[Tensor]]] = {
    "layer_norm": _layer_norm,
    "lstm_cell": _lstm_cell,
    "lstm_outputs": _lstm_outputs,
    "identity_residual": _identity_residual,
}


@functools.lru_cache(maxsize=None)
def _layer_path(name: str):
    """(recorded ops, gradients of the inputs and parameters) of one layer path."""
    tensors: List[Tensor] = []
    recorded = _record(lambda: tensors.extend(LAYER_PATHS[name](np.random.default_rng(0))))
    return recorded, [tensor.grad for tensor in tensors]


@functools.lru_cache(maxsize=None)
def _tape_ops() -> FrozenSet[str]:
    """The ops TP001 finds by AST: every def whose body calls ``Tensor._make``
    in ``tensor.py`` and every public function of ``fused.py``."""
    names = set()
    for module, is_fused in ((repro.nn.tensor, False), (repro.nn.fused, True)):
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        names.update(function.name for _, function in TapeCoverageChecker._ops(tree, is_fused))
    return frozenset(names)


def _assert_finite(gradients) -> None:
    gradients = list(gradients)
    missing = [name for name, gradient in gradients if gradient is None]
    assert not missing, f"no gradient for {missing}"
    for name, gradient in gradients:
        assert np.all(np.isfinite(gradient)), f"non-finite gradient for {name}"


@pytest.mark.parametrize("case", sorted(TRAIN_CASES))
def test_train_step_gives_every_parameter_a_finite_gradient(case):
    recorded, gradients = _train_step(case)
    _assert_finite(gradients.items())
    assert recorded <= _tape_ops()


@pytest.mark.parametrize("name", MODELS)
def test_reference_predict_records_only_tape_ops(name):
    recorded = _reference_predict(name)
    assert recorded
    assert recorded <= _tape_ops()


@pytest.mark.parametrize("name", sorted(LAYER_PATHS))
def test_layer_tape_path(name):
    recorded, gradients = _layer_path(name)
    _assert_finite(enumerate(gradients))
    assert recorded <= _tape_ops()


def test_recorded_ops_are_exactly_the_tape_ops():
    recorded = set()
    for case in TRAIN_CASES:
        recorded |= _train_step(case)[0]
    for name in MODELS:
        recorded |= _reference_predict(name)
    for name in LAYER_PATHS:
        recorded |= _layer_path(name)[0]
    tape_ops = _tape_ops()
    assert not recorded - tape_ops, f"recorded outside the AST inventory: {recorded - tape_ops}"
    assert not tape_ops - recorded, f"tape ops nothing records: {sorted(tape_ops - recorded)}"
