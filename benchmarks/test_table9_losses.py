"""Table 9: the impact of the training loss function.

Paper claim: training with MAPE gives the best (or near-best) test MAPE;
relative MSE is a viable alternative; losses without normalisation by the
ground-truth value (plain MSE, plain Huber) are significantly worse because
of the high dynamic range of the throughput values (MSE-trained MAPE is
24.9-27.1 % vs 7.3-8.3 % for MAPE-trained).
"""

import numpy as np

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval import paper_reference as paper
from repro.eval import run_experiment
from repro.eval.experiments import TABLE9_ARMS, format_table9, loss_columns

from conftest import format_paper_comparison

LOSS_NAMES = ("mape", "mse", "relative_mse", "huber", "relative_huber")


def test_table9_loss_functions(benchmark, quick_scale):
    results = benchmark.pedantic(
        lambda: run_experiment(TABLE9_ARMS, quick_scale)[quick_scale.seed],
        rounds=1,
        iterations=1,
    )
    columns = {result.arm.loss: loss_columns(result) for result in results.values()}

    print()
    print(format_table9(results))
    rows = []
    for loss_name in LOSS_NAMES:
        measured = float(
            np.mean([columns[loss_name][m]["mape"] for m in TARGET_MICROARCHITECTURES])
        )
        reference = float(
            np.mean([paper.TABLE9_LOSS_MAPE[m][loss_name] for m in TARGET_MICROARCHITECTURES])
        )
        rows.append((f"train loss = {loss_name}: test MAPE", measured, reference))
    print(format_paper_comparison("Table 9 — test MAPE by training loss", rows))

    mean_mape = {
        loss_name: float(
            np.mean([columns[loss_name][m]["mape"] for m in TARGET_MICROARCHITECTURES])
        )
        for loss_name in LOSS_NAMES
    }

    # Paper shape: normalised losses (MAPE, relative MSE, relative Huber)
    # clearly beat the un-normalised ones (MSE, Huber) on test MAPE.
    best_normalised = min(mean_mape["mape"], mean_mape["relative_mse"], mean_mape["relative_huber"])
    assert best_normalised < mean_mape["mse"]
    assert best_normalised < mean_mape["huber"]

    # Paper shape: MAPE training is the best or near-best choice.
    best_loss = min(mean_mape, key=mean_mape.get)
    print(f"best training loss by test MAPE: {best_loss} (paper: mape / relative_mse)")
    assert mean_mape["mape"] <= best_normalised * 1.25
