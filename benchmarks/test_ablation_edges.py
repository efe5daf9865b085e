"""Ablation beyond the paper's own: the value of the data-dependency edges.

The paper's central argument is that representing basic blocks as dependency
graphs — rather than flat instruction sequences — provides the inductive
bias that lets the model reason about code more accurately (Sections 1 and
2.2).  This ablation isolates that claim inside GRANITE itself: the full
graph is compared against a degraded graph that keeps only the sequential
(structural) edges, i.e. roughly the information a sequence model sees.
"""

from repro.eval import run_experiment
from repro.eval.experiments import EDGE_ARMS, format_edge_ablation


def test_dependency_edge_ablation(benchmark, quick_scale):
    results = benchmark.pedantic(
        lambda: run_experiment(EDGE_ARMS, quick_scale)[quick_scale.seed], rounds=1, iterations=1
    )

    print()
    print(format_edge_ablation(results))
    full = results["granite"].average_mape()
    structural = results["granite-structural-only"].average_mape()
    benefit = structural - full
    print(f"mean MAPE reduction from dependency edges: {benefit:+.4f}")

    # Paper shape: the dependency edges carry useful signal — the full graph
    # is at least as accurate as the structural-only encoding.
    assert full <= structural + 0.04
