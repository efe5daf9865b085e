"""Every table, figure and ablation of the paper as arms and views.

Each ``*_ARMS`` tuple names the models one experiment compares; run it with
:func:`repro.eval.harness.run_experiment` and pass one seed's results,
``results[arm.name]``, to the experiment's view.  The views render the
paper's layout next to its reported values; the benchmark suite under
``benchmarks/`` asserts the qualitative claims (orderings) on the same
results.  With no plotting stack, a figure is a numpy histogram plus a text
rendering, enough to check its claims: density on the diagonal (Figures 3
and 5) and the sign balance of the errors (Figure 4).
"""

from __future__ import annotations

from typing import Callable, Dict, Mapping, Sequence, Tuple

import numpy as np

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.data.measurement import ITERATIONS_PER_MEASUREMENT
from repro.eval import paper_reference as paper
from repro.eval.harness import Arm, ArmResult
from repro.graph.builder import GraphBuilderConfig
from repro.nn.losses import LOSS_FUNCTIONS
from repro.nn.tensor import Tensor
from repro.training.metrics import prediction_heatmap, underestimation_fraction

__all__ = [
    "TABLE5_ARMS",
    "TABLE6_ARMS",
    "TABLE7_ARMS",
    "TABLE8_ARMS",
    "TABLE9_ARMS",
    "FIGURE3_ARMS",
    "FIGURE5_ARMS",
    "DECODER_ARMS",
    "LAYERNORM_ARMS",
    "EDGE_ARMS",
    "READOUT_ARMS",
    "format_baseline_table",
    "format_table7",
    "multitask_mape",
    "format_table8",
    "loss_columns",
    "format_table9",
    "heatmap",
    "diagonal_mass",
    "underestimation",
    "format_heatmaps",
    "format_underestimation",
    "render_heatmap_ascii",
    "mape_delta",
    "format_decoder_ablation",
    "format_layernorm_ablation",
    "format_edge_ablation",
    "format_readout_ablation",
]

Results = Mapping[str, ArmResult]
_DISPLAY = paper.MICROARCHITECTURE_DISPLAY_NAMES

# ---------------------------------------------------------------------- #
# Arms.
# ---------------------------------------------------------------------- #
#: Table 5: every model, multi-task, on the Ithemal dataset.
TABLE5_ARMS = tuple(Arm(name, name) for name in ("granite", "ithemal+", "ithemal"))

#: Table 6: on BHive.  Vanilla Ithemal is left out, as in the paper ("we did
#: not include vanilla Ithemal in this comparison because of consistent
#: numerical instability in the training process").
TABLE6_ARMS = tuple(Arm(name, name, dataset="bhive") for name in ("granite", "ithemal+"))

#: Table 7: GRANITE's message passing iterations.  The paper also runs 12;
#: the sweep stops at 8 to keep the CPU run time reasonable.
TABLE7_ARMS = tuple(
    Arm(f"granite-mp{count}", "granite", model_overrides={"num_message_passing_iterations": count})
    for count in (1, 2, 4, 8)
)

#: Table 8: one single-task model per microarchitecture against one
#: multi-task model, for GRANITE and Ithemal+ (vanilla Ithemal is left out
#: to bound the run time).
TABLE8_ARMS = tuple(
    arm
    for name in ("granite", "ithemal+")
    for arm in (
        *(Arm(f"{name}-{key}", name, tasks=(key,)) for key in TARGET_MICROARCHITECTURES),
        Arm(name, name),
    )
)

#: Table 9: one GRANITE per training loss.
TABLE9_ARMS = tuple(Arm(f"granite-{loss}", "granite", loss=loss) for loss in LOSS_FUNCTIONS)

#: Figures 3 and 4: Table 5's GRANITE and Ithemal+.  The paper's vanilla
#: Ithemal (``TABLE5_ARMS[2]``) gives degenerate predictions at quick scale.
FIGURE3_ARMS = TABLE5_ARMS[:2]

#: Figure 5: GRANITE trained and tested on BHive.
FIGURE5_ARMS = TABLE6_ARMS[:1]

#: Section 5.2: Ithemal's dot-product decoder against Ithemal+'s MLP decoder.
DECODER_ARMS = (Arm("ithemal", "ithemal"), Arm("ithemal+", "ithemal+"))

#: Section 5.2: GRANITE without layer normalisation trains with gradient
#: clipping, as the paper had to ("we had to counter by using gradient
#: clipping").
LAYERNORM_ARMS = (
    Arm("granite", "granite"),
    Arm(
        "granite-no-layernorm",
        "granite",
        model_overrides={"use_layer_norm": False},
        training_overrides={"gradient_clip_norm": 1.0},
    ),
)

#: Sections 1 and 2.2 argue that the dependency graph is what helps.  The
#: ablated graph keeps the node set and the structural (sequence) edges but
#: drops the operand / address edges, so it sees roughly what a sequence
#: model sees.
EDGE_ARMS = (
    Arm("granite", "granite"),
    Arm(
        "granite-structural-only",
        "granite",
        graph_config=GraphBuilderConfig(
            include_data_edges=False,
            include_address_edges=False,
            include_implicit_operands=False,
        ),
    ),
)

#: Section 5.1 credits the per-instruction decoding for GRANITE's balanced
#: errors; the ablation decodes the graph-level global feature instead.
READOUT_ARMS = (
    Arm("granite", "granite"),
    Arm("granite-global-readout", "granite", model_overrides={"readout": "global"}),
)


# ---------------------------------------------------------------------- #
# Tables 5-9.
# ---------------------------------------------------------------------- #
def format_baseline_table(results: Results) -> str:
    """Table 5 (Ithemal dataset) or Table 6 (BHive), by the arms' dataset."""
    dataset = next(iter(results.values())).arm.dataset
    paper_mape = paper.TABLE5_MAPE if dataset == "ithemal" else paper.TABLE6_MAPE
    lines = [
        f"Dataset: {dataset}",
        f"{'Microarchitecture':<14} {'Model':<10} {'MAPE':>8} "
        f"{'Spearman':>9} {'Pearson':>8}   {'paper MAPE':>10}",
    ]
    for key in TARGET_MICROARCHITECTURES:
        for name, result in results.items():
            metric = result.metrics(key)
            reference = paper_mape.get(name, {}).get(key)
            reference_text = f"{reference * 100:9.2f}%" if reference is not None else "      n/a"
            lines.append(
                f"{_DISPLAY[key]:<14} {name:<10} {metric.mape * 100:7.2f}% "
                f"{metric.spearman:9.4f} {metric.pearson:8.4f}   {reference_text}"
            )
    return "\n".join(lines)


def format_table7(results: Results) -> str:
    """Table 7: MAPE by message passing iterations."""
    by_count = {
        result.arm.model_overrides["num_message_passing_iterations"]: result
        for result in results.values()
    }
    lines = [f"{'Microarchitecture':<14} {'iterations':>10} {'MAPE':>8} {'paper MAPE':>11}"]
    for key in TARGET_MICROARCHITECTURES:
        for count in sorted(by_count):
            reference = paper.TABLE7_MESSAGE_PASSING_MAPE[key][count]
            lines.append(
                f"{_DISPLAY[key]:<14} {count:>10d} "
                f"{by_count[count].mape(key) * 100:7.2f}% {reference * 100:10.2f}%"
            )
    return "\n".join(lines)


def multitask_mape(results: Results, model: str) -> Tuple[float, float]:
    """Table 8: ``(single-task, multi-task)`` MAPE of ``model``, averaged
    over the microarchitectures."""
    single = np.mean([results[f"{model}-{key}"].mape(key) for key in TARGET_MICROARCHITECTURES])
    return float(single), results[model].average_mape()


def format_table8(results: Results) -> str:
    """Table 8: single-task vs multi-task MAPE."""
    models = [name for name, result in results.items() if len(result.arm.tasks) > 1]
    lines = [
        f"{'Microarchitecture':<14} {'Model':<10} {'single':>8} {'multi':>8} "
        f"{'paper single':>13} {'paper multi':>12}"
    ]
    for key in TARGET_MICROARCHITECTURES:
        for name in models:
            single = results[f"{name}-{key}"].mape(key)
            paper_single, paper_multi = paper.TABLE8_MULTI_TASK_MAPE[name][key]
            lines.append(
                f"{_DISPLAY[key]:<14} {name:<10} {single * 100:7.2f}% "
                f"{results[name].mape(key) * 100:7.2f}% "
                f"{paper_single * 100:12.2f}% {paper_multi * 100:11.2f}%"
            )
    return "\n".join(lines)


def loss_columns(result: ArmResult) -> Dict[str, Dict[str, float]]:
    """Table 9's columns: ``columns[task][loss]``, every loss function
    evaluated on the arm's test predictions."""
    columns: Dict[str, Dict[str, float]] = {}
    for key in result.arm.tasks:
        predicted, actual = result.predicted_and_actual(key)
        columns[key] = {
            name: float(loss(Tensor(predicted), Tensor(actual)).item())
            for name, loss in LOSS_FUNCTIONS.items()
        }
    return columns


def format_table9(results: Results) -> str:
    """Table 9: every loss metric of GRANITE by training loss."""
    header = "".join(f"{column:>15}" for column in LOSS_FUNCTIONS)
    lines = [f"{'Microarchitecture':<14} {'train loss':<15}{header}"]
    columns = {result.arm.loss: loss_columns(result) for result in results.values()}
    for key in TARGET_MICROARCHITECTURES:
        for loss, row in columns.items():
            values = "".join(f"{row[key][column]:15.4g}" for column in LOSS_FUNCTIONS)
            lines.append(f"{_DISPLAY[key]:<14} {loss:<15}{values}")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Figures 3-5.
# ---------------------------------------------------------------------- #
def heatmap(result: ArmResult, task: str) -> np.ndarray:
    """Figure 3/5 histogram of per-iteration cycles under 10: measured on the
    x axis, predicted on the y axis, 50 bins each."""
    predicted, actual = result.predicted_and_actual(task)
    return prediction_heatmap(predicted, actual, normalization=ITERATIONS_PER_MEASUREMENT)[0]


def diagonal_mass(result: ArmResult, task: str, tolerance: float = 0.25) -> float:
    """Fraction of blocks predicted within ``tolerance`` of the measurement:
    a scalar summary of a heatmap's density along the y = x line."""
    predicted, actual = result.predicted_and_actual(task)
    relative_error = np.abs(predicted - actual) / np.maximum(np.abs(actual), 1e-9)
    return float(np.mean(relative_error <= tolerance))


def underestimation(result: ArmResult, task: str) -> float:
    """Figure 4: the fraction of blocks predicted below their measurement."""
    return underestimation_fraction(*result.predicted_and_actual(task))


def format_heatmaps(results: Results) -> str:
    """Figures 3 and 5: every diagonal mass, then the first arm's Haswell plot."""
    lines = [
        f"  {name:<10} {task:<11} diagonal mass (±25%): {diagonal_mass(result, task):.3f}"
        for name, result in results.items()
        for task in result.arm.tasks
    ]
    name, result = next(iter(results.items()))
    lines += ["", f"  {name} / haswell heatmap (measured →, predicted ↑):"]
    lines.append(render_heatmap_ascii(heatmap(result, "haswell")))
    return "\n".join(lines)


def format_underestimation(results: Results) -> str:
    """Figure 4: every arm's underestimated fraction."""
    return "\n".join(
        f"  {name:<10} {task:<11} underestimated fraction: {underestimation(result, task):.3f}"
        for name, result in results.items()
        for task in result.arm.tasks
    )


def render_heatmap_ascii(histogram: np.ndarray, width: int = 25) -> str:
    """Renders a 2-D histogram as a coarse ASCII density plot.

    The x axis (measured throughput) runs left to right and the y axis
    (predicted throughput) runs bottom to top, like the paper's figures.
    """
    if histogram.ndim != 2:
        raise ValueError("histogram must be 2-D")
    bins = histogram.shape[0]
    factor = max(1, bins // width)
    coarse = histogram[: (bins // factor) * factor, : (bins // factor) * factor]
    coarse = coarse.reshape(
        coarse.shape[0] // factor, factor, coarse.shape[1] // factor, factor
    ).sum(axis=(1, 3))
    maximum = coarse.max() if coarse.size else 0.0
    characters = " .:-=+*#%@"
    lines = []
    for row in reversed(range(coarse.shape[1])):
        line = ""
        for column in range(coarse.shape[0]):
            value = coarse[column, row]
            level = 0 if maximum == 0 else int(round((len(characters) - 1) * value / maximum))
            line += characters[level]
        lines.append(line)
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# Ablations.
# ---------------------------------------------------------------------- #
def mape_delta(minuend: ArmResult, subtrahend: ArmResult) -> Dict[str, float]:
    """Per-microarchitecture MAPE of ``minuend`` minus that of ``subtrahend``."""
    return {key: minuend.mape(key) - subtrahend.mape(key) for key in TARGET_MICROARCHITECTURES}


def _format_columns(columns: Sequence[Tuple[str, int, Callable[[str], float]]]) -> str:
    """One row per microarchitecture; each ``(header, width, value_of)``
    column prints ``value_of(microarchitecture)`` as a percentage."""
    header = "".join(f" {title:>{width}}" for title, width, _ in columns)
    lines = [f"{'Microarchitecture':<14}{header}"]
    for key in TARGET_MICROARCHITECTURES:
        row = "".join(f" {value_of(key) * 100:{width - 1}.2f}%" for _, width, value_of in columns)
        lines.append(f"{_DISPLAY[key]:<14}{row}")
    return "\n".join(lines)


def format_decoder_ablation(results: Results) -> str:
    dot_product, mlp = results["ithemal"], results["ithemal+"]
    columns = [("dot-product", 12, dot_product.mape), ("MLP decoder", 12, mlp.mape)]
    return _format_columns(columns + [("delta", 8, mape_delta(dot_product, mlp).get)])


def format_layernorm_ablation(results: Results) -> str:
    with_layernorm, without = results["granite"], results["granite-no-layernorm"]
    columns = [("with LN", 9, with_layernorm.mape), ("without LN", 11, without.mape)]
    columns.append(("increase", 9, mape_delta(without, with_layernorm).get))
    columns.append(("paper increase", 15, paper.LAYER_NORM_ABLATION_ERROR_INCREASE.get))
    return _format_columns(columns)


def format_edge_ablation(results: Results) -> str:
    full, structural = results["granite"], results["granite-structural-only"]
    columns = [("full graph", 11, full.mape), ("structural only", 16, structural.mape)]
    return _format_columns(columns)


def format_readout_ablation(results: Results) -> str:
    per_instruction, readout = results["granite"], results["granite-global-readout"]
    columns = [("per-instruction", 16, per_instruction.mape), ("global readout", 15, readout.mape)]
    return _format_columns(columns)
