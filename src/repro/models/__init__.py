"""The paper's models: GRANITE, Ithemal and Ithemal+.

Factory helpers are provided so experiments and examples can create any of
the three models from a single string name.
"""

from dataclasses import replace
from typing import Optional, Sequence

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.graph.builder import GraphBuilderConfig
from repro.models.base import ThroughputModel
from repro.models.config import GraniteConfig, IthemalConfig, TrainingConfig
from repro.models.granite import GraniteBatch, GraniteModel
from repro.models.ithemal import IthemalBatch, IthemalModel
from repro.models.tokenizer import (
    build_ithemal_vocabulary,
    tokenize_block,
    tokenize_instruction,
)

__all__ = [
    "ThroughputModel",
    "GraniteConfig",
    "IthemalConfig",
    "TrainingConfig",
    "GraniteBatch",
    "GraniteModel",
    "IthemalBatch",
    "IthemalModel",
    "build_ithemal_vocabulary",
    "tokenize_block",
    "tokenize_instruction",
    "create_model",
    "MODEL_NAMES",
]

#: Names accepted by :func:`create_model`, matching the rows of Table 5.
MODEL_NAMES = ("granite", "ithemal", "ithemal+")


def create_model(
    name: str,
    tasks: Sequence[str] = TARGET_MICROARCHITECTURES,
    small: bool = True,
    seed: int = 0,
    inference_dtype: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
    graph_config: Optional[GraphBuilderConfig] = None,
    **overrides,
) -> ThroughputModel:
    """Creates one of the paper's models by name.

    Args:
        name: ``"granite"``, ``"ithemal"`` or ``"ithemal+"``.
        tasks: Target microarchitecture keys (one decoder head per task).
        small: Use the reduced CPU-friendly configuration (default) instead
            of the paper-scale Table 4 configuration.
        seed: Seed for weight initialisation.
        inference_dtype: Optional compute dtype of the no-grad inference
            fast path (``"float64"`` / ``"float32"``); ``None`` keeps the
            config default, which honours the ``INFERENCE_DTYPE``
            environment variable.  Weights are identical across dtypes for
            a given seed — only inference math changes.
        checkpoint_path: Optional ``.npz`` checkpoint (saved by
            :func:`repro.nn.save_checkpoint`) restored into the freshly
            built model — the warm-start path shared by the serving
            workers and the model registry.
        graph_config: GRANITE's graph construction (``None``: the default).
        **overrides: Fields replaced in the model's config, e.g.
            ``num_message_passing_iterations=2`` or ``use_layer_norm=False``.
    """
    key = name.lower()
    if key == "granite":
        if small:
            config = GraniteConfig.small(tasks=tasks, seed=seed)
        else:
            config = GraniteConfig.paper_defaults(tasks=tasks)
    elif key in ("ithemal", "ithemal+"):
        if graph_config is not None:
            raise ValueError("only GRANITE builds graphs")
        plus = key == "ithemal+"
        if small:
            config = IthemalConfig.small(tasks=tasks, plus=plus, seed=seed)
        else:
            config = IthemalConfig.paper_defaults(tasks=tasks, plus=plus)
    else:
        raise ValueError(f"unknown model {name!r}; expected one of {MODEL_NAMES}")
    if inference_dtype is not None:
        overrides["inference_dtype"] = inference_dtype
    if overrides:
        config = replace(config, **overrides)
    if key == "granite":
        model: ThroughputModel = GraniteModel(config, graph_config=graph_config)
    else:
        model = IthemalModel(config)
    if checkpoint_path is not None:
        from repro.nn.serialization import load_checkpoint

        load_checkpoint(model, checkpoint_path)
    return model
