"""Figure 5: GRANITE heatmaps when trained and tested on the BHive dataset.

Paper claim: the behaviour observed on the Ithemal dataset carries over to
BHive — GRANITE's predictions stay concentrated along the diagonal, with a
balanced split between over- and under-estimation, on the 5x smaller
dataset (hence sparser heatmaps).
"""


from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval import run_experiment
from repro.eval.experiments import (
    FIGURE5_ARMS,
    diagonal_mass,
    heatmap,
    render_heatmap_ascii,
    underestimation,
)


def test_figure5_bhive_heatmaps(benchmark, quick_scale):
    granite = run_experiment(FIGURE5_ARMS, quick_scale)[quick_scale.seed]["granite"]
    test_size = len(granite.labels["haswell"])

    histograms = benchmark.pedantic(
        lambda: {m: heatmap(granite, m) for m in TARGET_MICROARCHITECTURES},
        rounds=1,
        iterations=1,
    )

    print()
    for microarchitecture in TARGET_MICROARCHITECTURES:
        mass = diagonal_mass(granite, microarchitecture)
        fraction = underestimation(granite, microarchitecture)
        print(f"granite/BHive {microarchitecture:<11} diagonal mass {mass:.3f}  "
              f"underestimated {fraction:.3f}")
    print("\nGRANITE Skylake heatmap on BHive (measured →, predicted ↑):")
    print(render_heatmap_ascii(histograms["skylake"]))

    for microarchitecture in TARGET_MICROARCHITECTURES:
        histogram = histograms[microarchitecture]
        # The BHive-like test split is small (sparser heatmaps, as in the
        # paper), but a meaningful share of blocks must land in the plot.
        assert histogram.sum() > 0.15 * test_size
        # Predictions are neither all-over nor all-under the measurement.
        fraction = underestimation(granite, microarchitecture)
        assert 0.01 < fraction < 0.99
