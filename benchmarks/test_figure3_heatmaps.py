"""Figure 3: measured-vs-predicted heatmaps on the Ithemal dataset.

Paper claim: GRANITE's density is concentrated along the y = x diagonal,
visibly more so than the LSTM baseline, across all three microarchitectures.
The reproduction summarises each heatmap by its "diagonal mass" (fraction of
blocks predicted within 25 % of the measurement) and renders an ASCII
version of the plot.
"""

import numpy as np

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval.experiments import diagonal_mass, heatmap, render_heatmap_ascii


def test_figure3_heatmaps(benchmark, baseline_results):
    models = {name: baseline_results[name] for name in ("granite", "ithemal+")}
    test_size = len(models["granite"].labels["haswell"])

    def analyse():
        return {
            name: {m: heatmap(result, m) for m in TARGET_MICROARCHITECTURES}
            for name, result in models.items()
        }

    histograms = benchmark.pedantic(analyse, rounds=1, iterations=1)
    masses = {
        name: {m: diagonal_mass(result, m) for m in TARGET_MICROARCHITECTURES}
        for name, result in models.items()
    }

    print()
    for model_name in models:
        for microarchitecture in TARGET_MICROARCHITECTURES:
            mass = masses[model_name][microarchitecture]
            print(f"{model_name:<10} {microarchitecture:<11} diagonal mass (±25%): {mass:.3f}")
    print("\nGRANITE Haswell heatmap (measured →, predicted ↑):")
    print(render_heatmap_ascii(histograms["granite"]["haswell"]))

    # Every heatmap contains a meaningful share of the test blocks (the
    # paper crops at 10 cycles per iteration, which covers most blocks).
    for model_name in models:
        for microarchitecture in TARGET_MICROARCHITECTURES:
            histogram = histograms[model_name][microarchitecture]
            assert histogram.sum() > 0.3 * test_size

    # Paper shape: GRANITE concentrates at least as much probability mass
    # near the diagonal as the LSTM baseline, on average.
    granite_mass = np.mean([masses["granite"][m] for m in TARGET_MICROARCHITECTURES])
    baseline_mass = np.mean([masses["ithemal+"][m] for m in TARGET_MICROARCHITECTURES])
    print(f"\nmean diagonal mass: granite={granite_mass:.3f} ithemal+={baseline_mass:.3f}")
    assert granite_mass >= baseline_mass - 0.05
