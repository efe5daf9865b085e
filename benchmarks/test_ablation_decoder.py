"""Section 5.2 ablation: the impact of the decoder network.

Paper claim: replacing Ithemal's single dot-product decoder with the
multi-layer feed-forward ReLU decoder (producing Ithemal+) improves its MAPE
by 0.25 / 0.39 / 1.1 percentage points on Ivy Bridge / Haswell / Skylake —
the extra non-linearity relieves the LSTM of having to model the throughput
computation itself.
"""


import numpy as np

from repro.eval import paper_reference as paper
from repro.eval.experiments import format_decoder_ablation, mape_delta
from repro.data.datasets import TARGET_MICROARCHITECTURES

from conftest import format_paper_comparison


def test_decoder_ablation(benchmark, baseline_results):
    vanilla = baseline_results["ithemal"]
    extended = baseline_results["ithemal+"]

    improvement = benchmark.pedantic(
        lambda: mape_delta(vanilla, extended), rounds=1, iterations=1
    )

    print()
    print(format_decoder_ablation(baseline_results))
    rows = [
        (
            f"decoder improvement / {microarchitecture}",
            improvement[microarchitecture],
            paper.DECODER_ABLATION_IMPROVEMENT[microarchitecture],
        )
        for microarchitecture in TARGET_MICROARCHITECTURES
    ]
    print(format_paper_comparison("Decoder ablation — MAPE reduction from MLP decoder", rows))

    # Paper shape: the MLP decoder improves the LSTM baseline on average.
    average_improvement = float(np.mean(list(improvement.values())))
    assert average_improvement > 0.0
