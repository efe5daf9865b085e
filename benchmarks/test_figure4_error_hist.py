"""Figure 4: distribution of relative prediction errors.

Paper claim: vanilla Ithemal has a tendency to underestimate the throughput
(the error distribution is shifted towards negative relative errors), while
GRANITE's distribution is centred — the paper attributes this to the
per-instruction decoding.  The reproduction compares the underestimation
fraction (blocks with predicted < measured) of the two model families.
"""

import numpy as np

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval.experiments import underestimation
from repro.training.metrics import relative_error_histogram


def test_figure4_relative_error_distribution(benchmark, baseline_results):
    models = baseline_results
    test_size = len(models["granite"].labels["haswell"])

    def analyse():
        return {
            name: {
                m: relative_error_histogram(*result.predicted_and_actual(m))
                for m in TARGET_MICROARCHITECTURES
            }
            for name, result in models.items()
        }

    histograms = benchmark.pedantic(analyse, rounds=1, iterations=1)
    fractions = {
        name: {m: underestimation(result, m) for m in TARGET_MICROARCHITECTURES}
        for name, result in models.items()
    }

    print()
    for model_name in models:
        for microarchitecture in TARGET_MICROARCHITECTURES:
            fraction = fractions[model_name][microarchitecture]
            print(f"{model_name:<10} {microarchitecture:<11} underestimated fraction: {fraction:.3f}")

    # Histograms cover the whole test split.
    for model_name in models:
        for microarchitecture in TARGET_MICROARCHITECTURES:
            counts, edges = histograms[model_name][microarchitecture]
            assert counts.sum() == test_size
            assert len(edges) == len(counts) + 1

    # Paper shape: GRANITE's predictions are at least as balanced around the
    # measurement as the LSTM baselines' (its distance from the ideal 0.5
    # underestimation fraction is not larger).
    def mean_imbalance(model_name):
        return np.mean(
            [abs(fractions[model_name][m] - 0.5) for m in TARGET_MICROARCHITECTURES]
        )

    granite_imbalance = mean_imbalance("granite")
    lstm_imbalance = min(mean_imbalance("ithemal"), mean_imbalance("ithemal+"))
    print(f"\nmean |underestimation - 0.5|: granite={granite_imbalance:.3f} "
          f"best LSTM baseline={lstm_imbalance:.3f}")
    assert granite_imbalance <= lstm_imbalance + 0.10
