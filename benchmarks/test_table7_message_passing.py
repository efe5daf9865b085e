"""Table 7: sensitivity to the number of message passing iterations.

Paper claim: the test error decreases as the number of message passing
iterations grows from 1 to 8 (8.48→6.67 % on Ivy Bridge) and increases again
at 12; a single iteration is always the worst configuration.  The
reproduction sweeps 1, 2, 4 and 8 iterations and checks that more than one
iteration of message passing is needed for the best accuracy.
"""

import numpy as np

from repro.data.datasets import TARGET_MICROARCHITECTURES
from repro.eval import paper_reference as paper
from repro.eval import run_experiment
from repro.eval.experiments import TABLE7_ARMS, format_table7

from conftest import format_paper_comparison

ITERATION_COUNTS = (1, 2, 4, 8)


def test_table7_message_passing_sweep(benchmark, quick_scale):
    results = benchmark.pedantic(
        lambda: run_experiment(TABLE7_ARMS, quick_scale)[quick_scale.seed],
        rounds=1,
        iterations=1,
    )

    def average_mape(iterations):
        return results[f"granite-mp{iterations}"].average_mape()

    print()
    print(format_table7(results))
    rows = []
    for iterations in ITERATION_COUNTS:
        rows.append(
            (
                f"GRANITE mp={iterations} mean MAPE",
                average_mape(iterations),
                float(np.mean([paper.TABLE7_MESSAGE_PASSING_MAPE[m][iterations]
                               for m in TARGET_MICROARCHITECTURES])),
            )
        )
    print(format_paper_comparison("Table 7 — message passing sweep", rows))

    averages = {iterations: average_mape(iterations) for iterations in ITERATION_COUNTS}

    # Paper shape: a single message passing iteration is not the best
    # configuration — propagating information along the dependency graph for
    # several hops pays off.
    best_iterations = min(averages, key=averages.get)
    print(f"best iteration count: {best_iterations} (paper: 8)")
    assert best_iterations > 1

    # The best multi-iteration configuration improves on one iteration.
    assert min(averages[2], averages[4], averages[8]) < averages[1]
